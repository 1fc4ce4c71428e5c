"""Exception hierarchy shared by every module, and the two checks the CLI
makes before any analysis: a stdout that cannot be written and an integer
argument below its floor.

The CLI maps these onto process exit codes, so new error conditions should
reuse one of the existing classes rather than invent another branch.
"""

from __future__ import annotations


class AnalysisError(Exception):
    """Base class for every error raised by this package."""


class InputError(AnalysisError):
    """A caller violated an operation's precondition (bad argument,
    mismatched pool, malformed address, ...).  A record constructor names
    the ``field`` at fault, so ingestion can report it."""

    def __init__(self, message: str, *, field: str | None = None):
        super().__init__(message)
        self.field = field


class DomainError(AnalysisError):
    """A value is outside the mathematical domain of an operation,
    e.g. the advantage of an empty anonymity set."""


class IngestError(AnalysisError):
    """A dataset file failed validation.  The message names the file and,
    where known, the offending line and field."""

    def __init__(self, message: str, *, file: str | None = None,
                 line: int | None = None, field: str | None = None):
        where = []
        if file is not None:
            where.append(f"file={file}")
        if line is not None:
            where.append(f"line={line}")
        if field is not None:
            where.append(f"field={field}")
        suffix = f" [{', '.join(where)}]" if where else ""
        super().__init__(message + suffix)
        self.file = file
        self.line = line
        self.field = field


class ModeError(AnalysisError):
    """An analysis was requested in a mode its inputs do not support,
    e.g. a true-anonymity-set query on a dataset without ground truth."""


class ConfigError(AnalysisError):
    """A generator configuration is internally infeasible."""


# Process exit codes used by the command-line front end.
EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MODE = 3
EXIT_INCONCLUSIVE = 4


def _say(text: str) -> None:
    """Print ``text`` and flush it: a stdout that cannot be written fails
    the run here, buffered or not, with an error that names it (exit 2)."""
    try:
        print(text, end="", flush=True)
    except OSError as exc:
        raise OSError(f"cannot write output: {exc}") from None


def _at_least(low: int):
    """An ``int`` argument type of the CLI's parser that refuses values
    below ``low``, so a bad value fails at parse time, before any dataset
    is read."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            from argparse import ArgumentTypeError
            raise ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value: 'x'"
    return parse
