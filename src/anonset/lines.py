"""Reading a record file: the batches of whole lines it is read or
counted in, the count of a file that is not read, and the line pattern of
each file ``synth`` writes in a fixed layout.  ``dataset.ingest`` is their
one caller; they are a module of their own so that ``dataset``, the
largest module a data command compiles when no bytecode cache is
written, stays smaller."""

from __future__ import annotations

import re
from pathlib import Path

from .errors import IngestError
from .rows import _utf8_error

_BATCH = 2048  # the fewest characters a batch asks for; past 128 KB, 1/64 of the file
_CAP = 16384  # the most 1/64 of a file asks for: past 1 MB, a batch is no larger
_SPACE = " \t\r\n"  # JSON's own whitespace, the only text stripped from a line


def _batches(path: Path, file: str):
    """Yield ``(first line number, lines)`` for each batch of whole lines of
    ``file``, line ends kept: at most 65 under 1 MB, 16 KB ones past it."""
    source = path / file
    if not source.exists():
        raise IngestError("required file is missing", file=file)
    try:
        with source.open(encoding="utf-8") as handle:
            size, first = max(_BATCH, min(_CAP, source.stat().st_size // 64)), 1
            while lines := handle.readlines(size):
                yield first, lines
                first += len(lines)
    except UnicodeDecodeError:
        raise _utf8_error(source, file) from None


def _count(path: Path, file: str) -> int:
    """The lines of ``file`` that hold more than JSON whitespace, unparsed."""
    return sum(len(lines) - sum(1 for text in lines if not text.strip(_SPACE))
               for _first, lines in _batches(path, file))


# Pieces of the line patterns, each matching only text that json.loads
# decodes to its group and ``_Row`` reads unchanged: an int below 10**18 with
# no sign, leading zero, fraction or exponent; printable ASCII with no quote
# or backslash (so no escape); an address in any case, with or without a
# prefix, which ``ingest`` only slices; an amount well inside int()'s digit
# limit.  No piece matches a line end.
_INT = "(0|[1-9][0-9]{0,17})"
_TEXT = r'"([ !#-\[\]-~]+)"'
_ADDRESS = '"((?:0[xX]|)[0-9a-fA-F]{40})"'  # a branch: sre runs it faster than ``?``
_AMOUNT = '"([0-9]{1,78})"'


def _line_pattern(**fields: str) -> re.Pattern:
    """A whole line of exactly these fields, as ``synth`` writes it; groups in key order."""
    body = ",".join(f'"{key}":{fields[key]}' for key in sorted(fields))
    return re.compile(rf"^\{{{body}\}}$", re.M)


_LINE_PATTERNS = {  # the emitted layout of each patterned file
    "pool_events": _line_pattern(
        actor=_ADDRESS, block=_INT, kind=_TEXT, log_index=_INT, pool_id=_TEXT,
        relayer=f"(?:null|{_ADDRESS})", tx_index=_INT, tx_sender=_ADDRESS),
    "transfers": _line_pattern(
        amount=_AMOUNT, block=_INT, coin=_TEXT, log_index=_INT, recipient=_ADDRESS,
        sender=_ADDRESS, tx_index=_INT),
    "labels": _line_pattern(address=_ADDRESS, label=_TEXT),
    "ap_claims": _line_pattern(ap=_INT, block=_INT, recipient=_ADDRESS)}
_LINE_PATTERNS["token_transfers"] = _LINE_PATTERNS["transfers"]
