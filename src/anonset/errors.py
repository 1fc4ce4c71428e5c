"""Exception hierarchy shared by every module.

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
