"""The checked reader of one dataset record, and of a file's JSON and
UTF-8: every error they raise names the file, line and field it found."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .errors import IngestError, InputError
from .ledger import Address, normalize_address


def _address(value: str, canon: dict[str, Address]) -> Address:
    """The canonical form of the address text ``value``, interned in ``canon``.

    The address rule of ``_Row``, for each address no line pattern has
    checked: an exact hit in ``canon``; else, for ASCII text, its lower-case
    form (with ``0x`` put in front when absent) in ``canon``; else
    :func:`normalize_address`, once, whose result is interned.  The lookups
    only find what ``normalize_address`` would return, since ``canon`` holds
    canonical addresses alone; padded text and look-alike characters miss
    them and meet the regex.  Raises its ``InputError`` for a malformed value.
    """
    known = canon.get(value)
    if known is not None:
        return known
    if value.isascii():
        lower = value.lower()
        known = canon.get(lower if lower[:2] == "0x" else "0x" + lower)
        if known is not None:
            return known
    address = normalize_address(value)
    return canon.setdefault(address, address)


class _Row:
    """One record of a dataset file, with checked field accessors.

    This is the reference parser and the only error reporter: each accessor
    checks one field and raises an error that names the file, line and
    field.  A batch of patterned-file lines all in the emitted layout is
    read by one scan of ``dataset``'s line patterns in ``ingest``, which
    take only values these accessors would return unchanged; every other
    line, and every line of a batch that fails a check, is decoded and read
    here.  ``canon`` interns addresses for one ``ingest`` call, through
    :func:`_address`, so every occurrence of an address is the same
    object.  ``words`` does the same for ``text`` values, a few of which
    (pool ids, event kinds, coins) recur on nearly every row.  It is a
    dict of its own, because a text value found among the addresses would
    pass ``address`` unchecked.
    """

    __slots__ = ("file", "line", "record", "canon", "words")

    def __init__(self, file: str, line: int, record: Any, canon: dict[str, Address],
                 words: dict[str, str]):
        self.file = file
        self.line = line
        if not isinstance(record, dict):
            raise IngestError("record is not an object", file=file, line=line)
        self.record = record
        self.canon = canon
        self.words = words

    def fail(self, field: str, message: str) -> IngestError:
        return IngestError(message, file=self.file, line=self.line, field=field)

    def _get(self, field: str):
        if field not in self.record:
            raise self.fail(field, "missing field")
        return self.record[field]

    def address(self, field: str) -> Address:
        value = self._get(field)
        if not isinstance(value, str):
            raise self.fail(field, "address must be a string")
        try:
            return _address(value, self.canon)
        except InputError:
            raise self.fail(field, f"malformed address: {value!r}") from None

    def optional_address(self, field: str) -> Address | None:
        if self.record.get(field) is None:
            return None
        return self.address(field)

    def uint(self, field: str, default: int | None = None) -> int:
        value = self._get(field) if default is None else self.record.get(field, default)
        # JSON gives exact ints; a bool is not one
        if type(value) is not int or value < 0:
            raise self.fail(field, "expected a non-negative integer")
        return value

    def amount(self, field: str) -> int:
        value = self._get(field)
        if not isinstance(value, str) or not (value.isascii() and value.isdigit()):
            raise self.fail(field, "amounts are decimal strings of base units")
        try:
            return int(value)
        except ValueError:  # longer than int()'s digit limit
            raise self.fail(field, "amount has too many digits") from None

    def text(self, field: str) -> str:
        value = self._get(field)
        if not isinstance(value, str) or not value:
            raise self.fail(field, "expected a non-empty string")
        try:  # a lone surrogate escape decodes, but no report could write it
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise self.fail(field, "text is not encodable as UTF-8") from None
        return self.words.setdefault(value, value)


def _utf8_error(file: Path, name: str) -> IngestError:
    """Name the first line of ``file`` that is not valid UTF-8.

    Text-mode reads decode whole chunks, so the error they raise does not
    say which line the bad byte is on; this rereads the bytes line by line.
    A newline byte never occurs inside a UTF-8 sequence, so decoding each
    line on its own finds the same fault.
    """
    with file.open("rb") as handle:
        for i, raw in enumerate(handle, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return IngestError(f"invalid UTF-8 byte at column {exc.start + 1}",
                                   file=name, line=i)
    return IngestError("invalid UTF-8", file=name)


def _read_text(file: Path, name: str) -> str:
    try:
        return file.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise _utf8_error(file, name) from None


def _loads(text: str, file: str, line: int | None = None) -> Any:
    """``json.loads``, with its error named by file and line.  An integer past
    int()'s digit limit, or nesting past the recursion limit, is invalid JSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        message = exc.msg
    except ValueError:  # an integer past int()'s digit limit
        message = "integer has too many digits"
    except RecursionError:
        message = "nested too deeply"
    raise IngestError(f"invalid JSON: {message}", file=file, line=line)
