"""Ingest fast paths: interned addresses, the one address rule, the line
patterns of the hot files and the batches they scan, the in-order read
without a duplicate set, record order set up once and slotted records,
each checked against the behaviour they must keep."""

from __future__ import annotations

import importlib
import json
import pkgutil
import random
import re
import shutil
import sys
from collections import Counter
from pathlib import Path

import pytest

import anonset
import anonset.dataset as dataset_module
import anonset.indexing as indexing_module
import anonset.lines as lines_module
import anonset.rows as rows_module
from anonset.cli import main
from anonset.dataset import Dataset, _Row, ingest
from anonset.errors import IngestError, InputError
from anonset.indexing import build_index
from anonset.groundtruth import FollowEdge, NameTransfer, SubdomainGrant
from anonset.ledger import (
    KNOWN_LABELS,
    LinkPair,
    PoolConfig,
    PoolEvent,
    Transfer,
    event_order,
    normalize_address,
    position,
    transfer_order,
)
from anonset.mining import APClaim
from anonset.synth import write_dataset

from .test_dataset_cli import A1, A2, mixed_trace, write_side_channels

CANONICAL = re.compile(r"0x[0-9a-f]{40}\Z")


def respell(src: Path, dst: Path, seed: int, pad: bool = True) -> None:
    """Copy a dataset, spelling every address occurrence anew: mixed case,
    a ``0x``, ``0X`` or no prefix, and, with ``pad``, surrounding
    whitespace.  Seeded."""
    rng = random.Random(seed)

    def spell(address: str) -> str:
        body = "".join(c.upper() if rng.random() < 0.5 else c for c in address[2:])
        prefix = rng.choice(["0x", "0X", ""])
        if not pad:
            return prefix + body
        return rng.choice(["", " ", "\t"]) + prefix + body + rng.choice(["", " ", "  "])

    dst.mkdir()
    for file in sorted(src.iterdir()):
        if file.suffix != ".jsonl":
            (dst / file.name).write_bytes(file.read_bytes())
            continue
        lines = []
        for line in file.read_text().splitlines():
            record = json.loads(line)
            for key, value in record.items():
                if isinstance(value, str) and CANONICAL.match(value):
                    record[key] = spell(value)
            lines.append(json.dumps(record, separators=(",", ":")) + "\n")
        (dst / file.name).write_text("".join(lines))


def address_occurrences(dataset: Dataset) -> list[str]:
    """Every address object held by the events, transfers, token transfers
    and reward claims, in order."""
    found = []
    for e in dataset.events:
        found += [e.actor, e.tx_sender] + ([e.relayer] if e.relayer else [])
    for t in dataset.transfers + dataset.token_transfers:
        found += [t.sender, t.recipient]
    found += [c.recipient for c in dataset.ap_claims]
    return found


def _distinct_addresses(data: Path) -> set[str]:
    """The canonical form of every address-valued field of every record file."""
    found = set()
    for file in data.glob("*.jsonl"):
        for line in file.read_text(encoding="utf-8").splitlines():
            found.update(normalize_address(value) for value in json.loads(line).values()
                         if isinstance(value, str) and re.fullmatch(r"(0[xX])?[0-9a-fA-F]{40}",
                                                                    value.strip()))
    return found


def _profiled_ingest(data: Path) -> tuple[Dataset, dict[str, str], Counter]:
    """``ingest(data)``, its interning table as it returned and the Python
    calls it made by code name, both seen by a profile function."""
    calls, tables = Counter(), []

    def profile(frame, event, _arg):
        if event == "call":
            calls[frame.f_code.co_name] += 1
        elif event == "return" and frame.f_code is ingest.__code__:
            tables.append(dict(frame.f_locals["canon"]))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        dataset = ingest(data)
    finally:
        sys.setprofile(previous)
    (canon,) = tables
    return dataset, canon, calls


@pytest.fixture
def synth_dir(tmp_path):
    data = tmp_path / "data"
    write_dataset(mixed_trace(seed=5, users=64), data)
    write_side_channels(data)
    return data


@pytest.fixture
def large_dir(tmp_path):
    """A dataset whose ``pool_events`` file, about 300 KB, is read in
    batches above the 2 KB floor."""
    data = tmp_path / "large"
    write_dataset(mixed_trace(seed=5, users=300), data)
    return data


class TestInterning:
    def test_respelled_input_ingests_to_the_same_dataset(self, synth_dir, tmp_path):
        respell(synth_dir, tmp_path / "respelled", seed=17)
        original, respelled = ingest(synth_dir), ingest(tmp_path / "respelled")
        raw = (tmp_path / "respelled" / "pool_events.jsonl").read_text()
        # the copy really is spelled anew
        assert all(s in raw for s in ('"0X', '"0x', ':"\\t', ':" ', ' ",'))
        for name in Dataset._fields:
            if name == "labels":
                continue
            assert getattr(respelled, name) == getattr(original, name), name
        assert respelled.labels._labels == original.labels._labels
        assert original.counts["pool_events"] > 0 and original.ap_claims

    @pytest.mark.parametrize("respelled", [False, True], ids=["canonical", "respelled"])
    def test_each_address_is_one_object(self, synth_dir, tmp_path, respelled):
        data = synth_dir
        if respelled:
            data = tmp_path / "respelled"
            respell(synth_dir, data, seed=23)
        occurrences = address_occurrences(ingest(data))
        first: dict[str, str] = {}
        for address in occurrences:
            assert address is first.setdefault(address, address)
        assert len(first) < len(occurrences)

    def test_no_object_outlives_one_call(self, synth_dir):
        first, second = ingest(synth_dir), ingest(synth_dir)
        assert address_occurrences(first) == address_occurrences(second)
        assert not {id(a) for a in address_occurrences(first)} & \
            {id(a) for a in address_occurrences(second)}

    def test_each_text_value_is_one_object(self, synth_dir):
        dataset = ingest(synth_dir)
        texts = [v for p in dataset.pools for v in (p.pool_id, p.coin)]
        texts += [v for e in dataset.events for v in (e.pool_id, e.kind)]
        texts += [t.coin for t in dataset.transfers + dataset.token_transfers]
        first: dict[str, str] = {}
        for text in texts:
            assert text is first.setdefault(text, text)
        assert len(first) < 10 < len(texts)

    def test_actor_spelled_like_a_pool_id_is_rejected(self, synth_dir, tmp_path, capsys):
        # the pool ids are interned before any event is read; they must
        # not pass as addresses
        pool_id = json.loads((synth_dir / "pool_events.jsonl").read_text()
                             .splitlines()[0])["pool_id"]
        _edit_first_line(synth_dir, "pool_events", "actor", pool_id)
        assert main(["relayers", "--data", str(synth_dir),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.strip() == (
            f"error: malformed address: '{pool_id}' "
            f"[file=pool_events.jsonl, line=1, field=actor]")


def _edit_first_line(data: Path, name: str, field: str, value) -> None:
    """Set ``field`` of line 1 of ``<name>.jsonl``; ``...`` drops it."""
    path = data / f"{name}.jsonl"
    lines = path.read_text().splitlines()
    record = json.loads(lines[0])
    if value is ...:
        del record[field]
    else:
        record[field] = value
    lines[0] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")


UINT = "expected a non-negative integer"
ADDRESS = "address must be a string"
TEXT = "expected a non-empty string"
UINT_FIELDS = [("pool_events", "block"), ("pool_events", "tx_index"),
               ("ap_claims", "ap"), ("ens_transfers", "expiry")]


class TestFastPathsKeepErrors:
    """Every value the fast paths do not take still fails with its file,
    line, field and the same message."""

    @pytest.mark.parametrize("name, field, value, message", [
        pytest.param(name, field, value, UINT, id=f"{field}-{kind}")
        for name, field in UINT_FIELDS
        for kind, value in (("true", True), ("negative", -1), ("float", 1.0),
                            ("string", "5"), ("null", None))
    ] + [pytest.param(name, field, ..., "missing field", id=f"{field}-missing")
         for name, field in UINT_FIELDS if field != "tx_index"])  # it has a default
    def test_uint(self, synth_dir, name, field, value, message):
        _edit_first_line(synth_dir, name, field, value)
        with pytest.raises(IngestError) as info:
            ingest(synth_dir)
        assert str(info.value) == f"{message} [file={name}.jsonl, line=1, field={field}]"

    def test_uint_default_when_missing(self, synth_dir):
        before = ingest(synth_dir).events[0]
        _edit_first_line(synth_dir, "pool_events", "tx_index", ...)
        after = ingest(synth_dir).events[0]
        assert position(after) == (before.height, 0, before.log_index)

    @pytest.mark.parametrize("name, field", [("pool_events", "actor"),
                                             ("pool_events", "relayer"),
                                             ("transfers", "recipient"),
                                             ("ap_claims", "recipient"),
                                             ("follow_edges", "followed")])
    @pytest.mark.parametrize("value, message", [
        ([A1], ADDRESS), ({}, ADDRESS), (5, ADDRESS), (None, ADDRESS),
        ("0x" + "a" * 39, "malformed address: '0x" + "a" * 39 + "'"),
    ], ids=["list", "object", "int", "null", "39-digits"])
    def test_address(self, synth_dir, name, field, value, message):
        if field == "relayer":
            # a relayed withdrawal, so the row is valid but for the edit
            lines = (synth_dir / "pool_events.jsonl").read_text().splitlines()
            relayed = next(i for i, line in enumerate(lines)
                           if json.loads(line)["relayer"] is not None)
            lines.insert(0, lines.pop(relayed))
            (synth_dir / "pool_events.jsonl").write_text("\n".join(lines) + "\n")
            if value is None:  # an optional address may be null
                _edit_first_line(synth_dir, name, field, value)
                assert ingest(synth_dir).events[0].relayer is None
                return
        _edit_first_line(synth_dir, name, field, value)
        with pytest.raises(IngestError) as info:
            ingest(synth_dir)
        assert str(info.value) == f"{message} [file={name}.jsonl, line=1, field={field}]"

    def test_address_already_seen_in_another_spelling(self, synth_dir):
        # the first occurrence fills the interning dict; a later malformed
        # spelling of it must still be rejected
        actor = json.loads((synth_dir / "pool_events.jsonl").read_text()
                           .splitlines()[0])["actor"]
        _edit_first_line(synth_dir, "transfers", "sender", actor + "0")
        with pytest.raises(IngestError) as info:
            ingest(synth_dir)
        assert str(info.value) == (f"malformed address: '{actor}0' "
                                   f"[file=transfers.jsonl, line=1, field=sender]")

    @pytest.mark.parametrize("name, field", [("pool_events", "pool_id"),
                                             ("pool_events", "kind"),
                                             ("transfers", "coin"),
                                             ("ens_subdomains", "subdomain")])
    @pytest.mark.parametrize("value", ["", 5], ids=["empty", "int"])
    def test_text(self, synth_dir, name, field, value):
        _edit_first_line(synth_dir, name, field, value)
        with pytest.raises(IngestError) as info:
            ingest(synth_dir)
        assert str(info.value) == f"{TEXT} [file={name}.jsonl, line=1, field={field}]"

    def test_cli_list_valued_actor_exits_2(self, synth_dir, tmp_path, capsys):
        _edit_first_line(synth_dir, "pool_events", "actor", [A1])
        assert main(["relayers", "--data", str(synth_dir),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip() == ("error: address must be a string "
                               "[file=pool_events.jsonl, line=1, field=actor]")


def _fullwidth(text: str) -> str:
    """The same hex digits in their fullwidth forms (U+FF10..)."""
    return "".join(chr(ord(c) + 0xFEE0) for c in text)


def spellings(address: str, rng: random.Random) -> dict[str, str]:
    """Spellings of one canonical address, valid and not, for the address
    rule: each must come out as ``normalize_address`` says."""
    body = address[2:]
    mixed = "".join(c.upper() if rng.random() < 0.5 else c for c in body)
    return {
        "canonical": address,
        "upper": "0x" + body.upper(),
        "mixed": "0x" + mixed,
        "no-prefix": mixed,
        "0X": "0X" + mixed,
        "0X-lower": "0X" + body,
        "padded": " " + "0x" + mixed + "\t",
        "padded-no-prefix": mixed + " ",
        "space-after-prefix": "0x " + body,
        "fullwidth-digits": "0x" + _fullwidth(body),
        "fullwidth-prefix": "０ｘ" + body,
        "kelvin-sign": "0x" + body[:-1] + "K",
        "arabic-indic-digit": "0x" + body[:-1] + "٣",
        "39-digits": "0x" + body[:39],
        "41-digits": "0x" + body + "a",
        "0x0x": "0x0x" + body,
        "0x0x-42-chars": "0x0x" + body[2:],
        "prefix-only": "0x",
        "empty": "",
        "non-hex": "0x" + "g" + body[1:],
    }


def _random_address(rng: random.Random) -> str:
    return "0x" + "".join(rng.choice("0123456789abcdef") for _ in range(40))


class TestAddressRule:
    """``_Row.address`` and the line builders share one address rule; it
    returns what ``normalize_address`` returns, or fails where it fails,
    whether or not the canonical form was seen first."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("seen", [False, True], ids=["unseen", "seen"])
    def test_row_address_matches_normalize_address(self, seed, seen):
        rng = random.Random(seed)
        address = _random_address(rng)
        for name, value in spellings(address, rng).items():
            canon: dict[str, str] = {}
            if seen:
                assert _Row("f.jsonl", 1, {"a": address}, canon, {}).address("a") == address
            row = _Row("f.jsonl", 2, {"a": value}, canon, {})
            try:
                expected = normalize_address(value)
            except InputError:
                with pytest.raises(IngestError) as info:
                    row.address("a")
                assert str(info.value) == (f"malformed address: {value!r} "
                                           f"[file=f.jsonl, line=2, field=a]"), name
                continue
            got = row.address("a")
            assert got == expected, name
            assert got is canon[expected], name

    @pytest.mark.parametrize("name, first, second", [
        ("pool_events", "actor", "tx_sender"), ("transfers", "sender", "recipient")])
    @pytest.mark.parametrize("seen", [False, True], ids=["unseen", "seen"])
    def test_ingest_matches_normalize_address(self, synth_dir, name, first, second, seen):
        # line 1 of a deposit or transfer; a fresh address goes in ``first``
        # spelled anew, or canonically with ``second`` spelled anew
        path = synth_dir / f"{name}.jsonl"
        lines = path.read_text().splitlines()
        deposit = next(i for i, line in enumerate(lines)
                       if json.loads(line).get("kind", "deposit") == "deposit")
        lines.insert(0, lines.pop(deposit))
        rng = random.Random(41)
        address = _random_address(rng)
        for label, value in spellings(address, rng).items():
            field = second if seen else first
            record = json.loads(lines[0])
            record[first] = address if seen else value
            record[field] = value
            path.write_text("\n".join([json.dumps(record)] + lines[1:]) + "\n")
            try:
                expected = normalize_address(value)
            except InputError:
                with pytest.raises(IngestError) as info:
                    ingest(synth_dir)
                assert str(info.value) == (f"malformed address: {value!r} "
                                           f"[file={name}.jsonl, line=1, field={field}]"), label
                continue
            dataset = ingest(synth_dir)
            row = (dataset.events if name == "pool_events" else dataset.transfers)[0]
            assert getattr(row, field) == expected == address, label


def _edited(data: Path, name: str, line: int, record) -> None:
    path = data / f"{name}.jsonl"
    lines = path.read_text().splitlines()
    lines[line - 1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")


def _first_row(data: Path, name: str, **match) -> tuple[int, dict]:
    """The line number and record of the first row of ``<name>.jsonl``
    whose fields equal ``match``."""
    for i, line in enumerate((data / f"{name}.jsonl").read_text().splitlines(), start=1):
        record = json.loads(line)
        if all(record.get(k) == v for k, v in match.items()):
            return i, record
    raise AssertionError(f"no {name} row with {match}")


OUT_OF_RANGE = 10 ** 9

# (file, row to edit, edits, field named, message): rows with more than one
# fault name the field the checked parser reads first; ``internal``, a key
# of an older layout, is not read, whatever its value
MULTI_FAULT_ROWS = [
    ("pool_events", {"kind": "deposit"}, {"kind": "depozit", "actor": 5},
     "actor", ADDRESS),
    ("pool_events", {"kind": "deposit"}, {"relayer": "@sender", "tx_index": -1},
     "tx_index", UINT),
    ("pool_events", {"kind": "deposit"}, {"kind": "depozit"},
     "kind", "unknown pool event kind: 'depozit'"),
    ("pool_events", {"kind": "deposit"}, {"relayer": "@sender"},
     "relayer", "deposits cannot carry a relayer"),
    ("pool_events", {"kind": "withdrawal"}, {"relayer": A1, "tx_sender": A2},
     "tx_sender", "relayed withdrawal must be signed by its relayer"),
    ("pool_events", {"kind": "withdrawal"}, {"relayer": "0x12", "tx_sender": 7},
     "tx_sender", ADDRESS),
    ("pool_events", {"kind": "deposit"}, {"pool_id": "P7", "block": -1},
     "pool_id", "unknown pool 'P7'"),
    ("pool_events", {"kind": "deposit"}, {"pool_id": ["P1"], "kind": 3},
     "pool_id", TEXT),
    ("pool_events", {"kind": "deposit"}, {"block": OUT_OF_RANGE, "tx_index": "1"},
     "block", "height outside the manifest block range"),
    ("pool_events", {"kind": "deposit"}, {"log_index": True, "actor": "0x1"},
     "log_index", UINT),
    ("pool_events", {"kind": "deposit"}, {"actor": "0x1", "tx_sender": None},
     "actor", "malformed address: '0x1'"),
    ("transfers", {}, {"amount": "1.5", "coin": ""},
     "amount", "amounts are decimal strings of base units"),
    ("transfers", {}, {"amount": "9" * 5000, "internal": "no"},
     "amount", "amount has too many digits"),
    ("transfers", {}, {"internal": "yes", "sender": None},
     "sender", ADDRESS),
    ("transfers", {}, {"coin": 5, "internal": 1},
     "coin", TEXT),
    ("token_transfers", {}, {"log_index": -1, "block": "5"},
     "block", UINT),
    ("token_transfers", {}, {"amount": "\\u0663", "recipient": "0X" + "A" * 40},
     "amount", "amounts are decimal strings of base units"),
]


class TestMultiFaultRows:
    @pytest.mark.parametrize("name, match, edits, field, message", MULTI_FAULT_ROWS,
                             ids=[f"{r[0]}-{'-'.join(r[2])}" for r in MULTI_FAULT_ROWS])
    def test_first_field_is_named(self, synth_dir, name, match, edits, field, message):
        line, record = _first_row(synth_dir, name, **match)
        for key, value in edits.items():
            record[key] = record["tx_sender"] if value == "@sender" else value
        _edited(synth_dir, name, line, record)
        with pytest.raises(IngestError) as info:
            ingest(synth_dir)
        assert str(info.value) == f"{message} [file={name}.jsonl, line={line}, field={field}]"

    @pytest.mark.parametrize("name", ["pool_events", "transfers", "token_transfers"])
    @pytest.mark.parametrize("value", [[1, 2], "row", 5, None], ids=["list", "str", "int", "null"])
    def test_record_not_an_object(self, synth_dir, name, value):
        _edited(synth_dir, name, 2, value)
        with pytest.raises(IngestError) as info:
            ingest(synth_dir)
        assert str(info.value) == f"record is not an object [file={name}.jsonl, line=2]"

    @pytest.mark.parametrize("text", ['{"a":', '{"a":1}x', '{"a":1} {}', "nul", '{"a" 1}',
                                      "[1,]", '{1:2}', '"abc', '{"a":"\\x01"}', "-", "{}}"])
    def test_invalid_json_texts(self, synth_dir, text):
        with pytest.raises(json.JSONDecodeError) as decoded:
            json.loads(text)
        path = synth_dir / "pool_events.jsonl"
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], text] + lines[1:]) + "\n")
        with pytest.raises(IngestError) as info:
            ingest(synth_dir)
        assert str(info.value) == (f"invalid JSON: {decoded.value.msg} "
                                   f"[file=pool_events.jsonl, line=2]")

    # json.loads raises no JSONDecodeError for these, but a ValueError and a
    # RecursionError; the line pattern declines both
    @pytest.mark.parametrize("text, message", [
        ('{"block":' + "1" * 5000 + "}", "integer has too many digits"),
        ("[" * 200_000, "nested too deeply"),
    ], ids=["long-int", "nested"])
    @pytest.mark.parametrize("file, line", [
        ("pools.jsonl", 2), ("pool_events.jsonl", 2), ("manifest.json", None)])
    def test_undecodable_json_texts(self, synth_dir, tmp_path, capsys, file, line,
                                    text, message):
        path = synth_dir / file
        if line is None:
            path.write_text(text)
        else:
            lines = path.read_text().splitlines()
            path.write_text("\n".join([lines[0], text] + lines[1:]) + "\n")
        where = f"file={file}" if line is None else f"file={file}, line={line}"
        with pytest.raises(IngestError) as info:
            ingest(synth_dir)
        assert str(info.value) == f"invalid JSON: {message} [{where}]"
        assert main(["relayers", "--data", str(synth_dir), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"invalid JSON: {message} [{where}]" in err and "Traceback" not in err



class TestLineWhitespace:
    """Only JSON's whitespace (space, tab, CR, LF) around a line is
    stripped; any other character there is part of the line, as it is to
    ``json.loads``."""

    def run_relayers(self, data: Path, tmp_path: Path, capsys) -> tuple[int, str]:
        code = main(["relayers", "--data", str(data), "--out", str(tmp_path / "out")])
        return code, capsys.readouterr().err

    def edit_line(self, data: Path, line: int, edit) -> None:
        path = data / "pool_events.jsonl"
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[line - 1] = edit(lines[line - 1])
        path.write_text("\n".join(lines), encoding="utf-8")

    @pytest.mark.parametrize("edit, message", [
        (lambda line: "\u00a0" + line, "Expecting value"),
        (lambda line: line + "\u001c", "Extra data"),
        (lambda line: "\u2028", "Expecting value"),
    ], ids=["nbsp-prefix", "u001c-suffix", "u2028-only"])
    def test_other_whitespace_is_invalid_json(self, synth_dir, tmp_path, capsys,
                                              edit, message):
        self.edit_line(synth_dir, 2, edit)
        with pytest.raises(json.JSONDecodeError, match=message):
            json.loads((synth_dir / "pool_events.jsonl").read_text(
                encoding="utf-8").split("\n")[1])
        code, err = self.run_relayers(synth_dir, tmp_path, capsys)
        assert code == 2
        assert f"invalid JSON: {message} [file=pool_events.jsonl, line=2]" in err
        assert "Traceback" not in err

    def test_byte_order_mark_is_named(self, synth_dir, tmp_path, capsys):
        # a file saved with a BOM starts its first line with U+FEFF
        self.edit_line(synth_dir, 1, lambda line: "\ufeff" + line)
        with pytest.raises(json.JSONDecodeError) as decoded:
            json.loads((synth_dir / "pool_events.jsonl").read_text(
                encoding="utf-8").split("\n")[0])
        assert decoded.value.msg.startswith("Unexpected UTF-8 BOM")
        code, err = self.run_relayers(synth_dir, tmp_path, capsys)
        assert code == 2
        assert err.strip() == (f"error: invalid JSON: {decoded.value.msg} "
                               f"[file=pool_events.jsonl, line=1]")

    def test_json_whitespace_is_stripped(self, synth_dir, tmp_path, capsys):
        before = _outcome(synth_dir)
        self.edit_line(synth_dir, 2, lambda line: " \t" + line + "\t \r")
        self.edit_line(synth_dir, 3, lambda line: line + "\n \t\r")
        assert _outcome(synth_dir) == before
        assert self.run_relayers(synth_dir, tmp_path, capsys)[0] == 0


def _checked_only(patch) -> None:
    """Switch the line patterns off, so that every line of the hot files is
    decoded and read by the checked parser, an unheld transfer file's too."""
    never = dict.fromkeys(lines_module._LINE_PATTERNS, re.compile("(?!)"))
    for module in (dataset_module, lines_module):
        patch.setattr(module, "_LINE_PATTERNS", never)


def _outcome(data: Path):
    """What ingest makes of ``data``: the records of its patterned files, or
    its error."""
    try:
        dataset = ingest(data)
    except IngestError as exc:
        return str(exc)
    return (dataset.events, dataset.transfers, dataset.token_transfers,
            dataset.labels._labels, dataset.ap_claims, dataset.counts)


# values a seeded edit may put in a field; ``...`` drops the field
EDIT_VALUES = (..., None, True, False, -1, 0, 1.5, "5", "", "x", "deposit", "withdrawal",
               "depozit", "P100", "P7", OUT_OF_RANGE, 2 ** 70, "12", "1.5", "\\u0663",
               "9" * 5000, [A1], {}, A1, A2, "0X" + "AB" * 20, "ab" * 20, " " + A1,
               "0x" + "g" * 40, "0x" + "a" * 39)


def _compact(record) -> str:
    """A record in the layout ``write_dataset`` emits."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


DEPOSIT_LINE = _compact({
    "actor": A1, "block": 1001, "kind": "deposit", "log_index": 0, "pool_id": "P100",
    "relayer": None, "tx_index": 0, "tx_sender": A1})
TRANSFER_LINE = _compact({
    "amount": "100000", "block": 1001, "coin": "ETH", "log_index": 0, "recipient": A2,
    "sender": A1, "tx_index": 0})
LABEL_LINE = _compact({"address": A1, "label": "exchange"})
CLAIM_LINE = _compact({"ap": 40, "block": 1001, "recipient": A2})

# (name, file, line text in place of the file's first line, the error it
# gives or None): one case per kind of line a pattern must decline, or
# take only where the checked parser reads the same record
DECLINE_CASES = [
    ("leading-zero-int", "pool_events", DEPOSIT_LINE.replace(':1001,', ':01001,'),
     "invalid JSON: Expecting ',' delimiter"),
    ("leading-zero-index", "pool_events", DEPOSIT_LINE.replace('"tx_index":0', '"tx_index":00'),
     "invalid JSON: Expecting ',' delimiter"),
    ("leading-zero-amount", "transfers", TRANSFER_LINE.replace('"100000"', '"000100000"'), None),
    ("minus-zero", "pool_events", DEPOSIT_LINE.replace('"log_index":0', '"log_index":-0'), None),
    ("negative", "pool_events", DEPOSIT_LINE.replace(':1001,', ':-1001,'), UINT),
    ("plus-sign", "pool_events", DEPOSIT_LINE.replace(':1001,', ':+1001,'),
     "invalid JSON: Expecting value"),
    ("fraction", "pool_events", DEPOSIT_LINE.replace('"tx_index":0', '"tx_index":0.0'), UINT),
    ("exponent", "transfers", TRANSFER_LINE.replace(':1001,', ':1001e0,'), UINT),
    ("int-too-long", "transfers",
     TRANSFER_LINE.replace('"log_index":0', '"log_index":1' + "0" * 18), None),
    ("escape-in-text", "pool_events", DEPOSIT_LINE.replace('"deposit"', '"dep\\u006fsit"'), None),
    ("escape-in-address", "transfers",
     TRANSFER_LINE.replace(f'"{A1}"', f'"\\u0030{A1[1:]}"'), None),
    ("escaped-quote", "transfers", TRANSFER_LINE.replace('"ETH"', '"E\\"TH"'), None),
    ("raw-control", "pool_events", DEPOSIT_LINE.replace('"P100"', '"P1\x0100"'),
     "invalid JSON: Invalid control character at"),
    ("raw-delete", "transfers", TRANSFER_LINE.replace('"ETH"', '"ETH\x7f"'), None),
    ("non-ascii-text", "transfers", TRANSFER_LINE.replace('"ETH"', '"ÉTH"'), None),
    ("non-ascii-kind", "pool_events", DEPOSIT_LINE.replace('"deposit"', '"dépôt"'),
     "unknown pool event kind: 'dépôt'"),
    ("fullwidth-digit", "transfers", TRANSFER_LINE.replace('"100000"', '"10000\uff10"'),
     "amounts are decimal strings of base units"),
    ("space-after-colon", "pool_events", DEPOSIT_LINE.replace('"kind":', '"kind": '), None),
    ("space-after-comma", "transfers", TRANSFER_LINE.replace(',"coin"', ', "coin"'), None),
    ("tab-inside-braces", "pool_events", DEPOSIT_LINE.replace('{', '{\t'), None),
    ("keys-out-of-order", "transfers",
     TRANSFER_LINE.replace('"amount":"100000",', '').replace('}', ',"amount":"100000"}'), None),
    ("repeated-key", "pool_events",
     DEPOSIT_LINE.replace('"kind":"deposit"', '"kind":"withdrawal","kind":"deposit"'), None),
    ("repeated-key-last-wins", "transfers",
     TRANSFER_LINE.replace('"amount":"100000"', '"amount":"100000","amount":"7"'), None),
    ("amount-past-bound", "transfers", TRANSFER_LINE.replace('"100000"', '"' + "9" * 79 + '"'),
     None),
    ("amount-past-digit-limit", "transfers",
     TRANSFER_LINE.replace('"100000"', '"' + "9" * 5000 + '"'), "amount has too many digits"),
    ("empty-text", "transfers", TRANSFER_LINE.replace('"ETH"', '""'), TEXT),
    ("0X-prefix", "pool_events", DEPOSIT_LINE.replace(f'"actor":"{A1}"',
                                                      f'"actor":"0X{A1[2:].upper()}"'), None),
    ("no-prefix", "transfers", TRANSFER_LINE.replace(f'"{A2}"', f'"{A2[2:].upper()}"'), None),
    ("address-39-digits", "transfers", TRANSFER_LINE.replace(f'"{A2}"', f'"{A2[:-1]}"'),
     f"malformed address: '{A2[:-1]}'"),
    ("address-with-0x-and-40", "pool_events",
     DEPOSIT_LINE.replace(f'"tx_sender":"{A1}"', '"tx_sender":"0x' + "0123456789" * 4 + '"'),
     None),
    ("unknown-pool", "pool_events", DEPOSIT_LINE.replace('"P100"', '"P7"'), "unknown pool 'P7'"),
    ("block-out-of-range", "pool_events", DEPOSIT_LINE.replace(':1001,', f':{OUT_OF_RANGE},'),
     "height outside the manifest block range"),
    ("relayed-deposit", "pool_events", DEPOSIT_LINE.replace('null', f'"{A1}"'),
     "deposits cannot carry a relayer"),
    ("unknown-label", "labels", LABEL_LINE.replace('"exchange"', '"wizard"'),
     "unknown label 'wizard'"),
    ("label-case", "labels", LABEL_LINE.replace('"exchange"', '"Exchange"'),
     "unknown label 'Exchange'"),
    ("label-no-prefix", "labels", LABEL_LINE.replace(f'"{A1}"', f'"{A1[2:].upper()}"'), None),
    ("claim-out-of-range", "ap_claims", CLAIM_LINE.replace(':1001,', f':{OUT_OF_RANGE},'),
     "height outside the manifest block range"),
    ("claim-0X-prefix", "ap_claims", CLAIM_LINE.replace(f'"{A2}"', f'"0X{A2[2:]}"'), None),
    ("claim-negative-ap", "ap_claims", CLAIM_LINE.replace('"ap":40', '"ap":-40'), UINT),
]


class TestFusedParsersMatchCheckedParser:
    """The line patterns against the checked parser as oracle: on seeded
    edits of one to three fields, and on one line of each kind a pattern
    must decline, ingest gives the same records or the same error, file,
    line and field with both."""

    @pytest.mark.parametrize("name, line", [("pool_events", DEPOSIT_LINE),
                                            ("transfers", TRANSFER_LINE),
                                            ("labels", LABEL_LINE),
                                            ("ap_claims", CLAIM_LINE)])
    def test_unedited_lines_meet_the_pattern(self, synth_dir, name, line):
        # else every decline case below would pass without reaching it
        assert dataset_module._LINE_PATTERNS[name].match(line)
        first = (synth_dir / f"{name}.jsonl").read_text().splitlines()[0]
        assert json.loads(first).keys() == json.loads(line).keys()

    @pytest.mark.parametrize("name, text, error", [case[1:] for case in DECLINE_CASES],
                             ids=[case[0] for case in DECLINE_CASES])
    def test_decline_class(self, synth_dir, monkeypatch, name, text, error):
        path = synth_dir / f"{name}.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        assert text not in (DEPOSIT_LINE, TRANSFER_LINE, LABEL_LINE, CLAIM_LINE)
        path.write_text("\n".join([text] + lines[1:]) + "\n", encoding="utf-8")
        outcome = _outcome(synth_dir)
        with monkeypatch.context() as patch:
            _checked_only(patch)
            assert _outcome(synth_dir) == outcome
        if error is None:
            assert not isinstance(outcome, str), outcome
        else:
            assert isinstance(outcome, str) and outcome.startswith(error), outcome
            assert f"[file={name}.jsonl, line=1" in outcome

    def test_valid_dataset(self, synth_dir, tmp_path, monkeypatch):
        respell(synth_dir, tmp_path / "respelled", seed=31)
        for data in (synth_dir, tmp_path / "respelled"):
            fast = ingest(data)
            with monkeypatch.context() as patch:
                _checked_only(patch)
                checked = ingest(data)
            assert fast.events == checked.events and fast.counts == checked.counts
            assert fast.transfers == checked.transfers
            assert fast.token_transfers == checked.token_transfers
            assert fast.labels._labels == checked.labels._labels
            assert fast.ap_claims == checked.ap_claims

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_edits(self, synth_dir, monkeypatch, seed):
        rng = random.Random(seed)
        outcomes = Counter()
        for _ in range(12):
            name = rng.choice(["pool_events", "transfers", "token_transfers", "labels",
                               "ap_claims"])
            path = synth_dir / f"{name}.jsonl"
            original = path.read_text()
            lines = original.splitlines()
            line = rng.randrange(len(lines)) + 1
            record = json.loads(lines[line - 1])
            for field in rng.sample(sorted(record), rng.randint(1, min(3, len(record)))):
                value = rng.choice(EDIT_VALUES)
                if value is ...:
                    del record[field]
                else:
                    record[field] = value
            # half the edits keep the emitted layout, so they meet the pattern
            lines[line - 1] = _compact(record) if rng.random() < 0.5 else json.dumps(record)
            path.write_text("\n".join(lines) + "\n")
            fast = _outcome(synth_dir)
            with monkeypatch.context() as patch:
                _checked_only(patch)
                checked = _outcome(synth_dir)
            path.write_text(original)
            assert fast == checked, (name, line, record)
            outcomes[isinstance(fast, str)] += 1
        assert outcomes[True] > 0


class TestAddressPiece:
    """The address piece of the line patterns takes its prefix as a branch,
    ``(?:0[xX]|)``, which ``sre`` runs faster than an optional group.  With
    the optional group it replaced as oracle, it matches the same spellings
    and gives the same group."""

    OPTIONAL = '"((?:0[xX])?[0-9a-fA-F]{40})"'

    def test_same_matches_as_the_optional_prefix(self):
        digits = ("a1b2c3d4e5f6" * 4)[:42]
        bodies = []
        for n in (39, 40, 41, 42):
            body = digits[:n]
            mixed = "".join(c.upper() if i % 2 else c for i, c in enumerate(body))
            bodies += [body, body.upper(), mixed]
        bodies += ["0a" + digits[:38], "00" + digits[:38], "0x0x" + digits[:38]]
        old, new = re.compile(self.OPTIONAL), re.compile(lines_module._ADDRESS)
        matched = Counter()
        for body in bodies:
            for prefix in ("0x", "0X", ""):
                text = f'"{prefix}{body}"'
                want, got = old.fullmatch(text), new.fullmatch(text)
                assert (got and got.groups()) == (want and want.groups()), text
                matched[want is not None] += 1
        # the five 40-digit bodies match under each of the three prefixes
        assert matched[True] == 5 * 3 and matched[False] > 0


def _batch_spans(path: Path) -> list[tuple[int, int]]:
    """The first and last line number of each batch of lines ingest reads
    from ``path``."""
    return [(first, first + len(lines) - 1)
            for first, lines in dataset_module._batches(path.parent, path.name)]


def _unknown_pool(record: dict) -> str:
    return _compact({**record, "pool_id": "P7"})


def _relayed_deposit(record: dict) -> str:
    return _compact({**record, "kind": "deposit", "relayer": record["tx_sender"]})


def _out_of_range(record: dict) -> str:
    return _compact({**record, "block": OUT_OF_RANGE})


def _spaced(record: dict) -> str:
    return json.dumps(record, sort_keys=True)


def _unknown_label(record: dict) -> str:
    return _compact({**record, "label": "wizard"})


def _lengthen(data: Path, name: str, batches: int = 4) -> None:
    """Append distinct valid rows in the emitted layout to ``labels``,
    ``ap_claims`` or ``token_transfers`` until the file spans ``batches``
    batches; token transfers stay in record order."""
    path = data / f"{name}.jsonl"
    manifest = json.loads((data / "manifest.json").read_text())
    block, last = manifest["first_block"], manifest["last_block"]
    tags = sorted(KNOWN_LABELS)
    rows, i = path.read_text(encoding="utf-8").splitlines(), 0
    coin = json.loads(rows[0])["coin"] if name == "token_transfers" else None
    while len("\n".join(rows)) < batches * lines_module._BATCH:
        address = f"0x{0xfeed0000 + i:040x}"
        if name == "labels":
            rows.append(_compact({"address": address, "label": tags[i % len(tags)]}))
        elif name == "ap_claims":
            rows.append(_compact({"ap": i, "block": block + i, "recipient": address}))
        else:
            rows.append(_compact({"amount": "1", "block": last, "coin": coin, "log_index": 0,
                                  "recipient": address, "sender": A1,
                                  "tx_index": 10 ** 6 + i}))
        i += 1
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


# (name, file, edit of a line's record into the line's new text, the error
# it gives and its field, or None): a builder's None, a record
# constructor's InputError, and a valid line outside the emitted layout
EDGE_CASES = [
    ("unknown-pool", "pool_events", _unknown_pool, "unknown pool 'P7'", "pool_id"),
    ("relayed-deposit", "pool_events", _relayed_deposit, "deposits cannot carry a relayer",
     "relayer"),
    ("spaced-event", "pool_events", _spaced, None, None),
    ("event-block-out-of-range", "pool_events", _out_of_range,
     "height outside the manifest block range", "block"),
    ("block-out-of-range", "transfers", _out_of_range,
     "height outside the manifest block range", "block"),
    ("spaced-transfer", "transfers", _spaced, None, None),
    ("token-block-out-of-range", "token_transfers", _out_of_range,
     "height outside the manifest block range", "block"),
    ("unknown-label", "labels", _unknown_label, "unknown label 'wizard'", "label"),
    ("spaced-label", "labels", _spaced, None, None),
    ("claim-out-of-range", "ap_claims", _out_of_range,
     "height outside the manifest block range", "block"),
    ("spaced-claim", "ap_claims", _spaced, None, None),
]


# (batch, edge) of a line on a batch's edge: first and last line of the
# first batch and of a later one
EDGES = [(0, 0), (0, 1), (2, 0), (2, 1)]
EDGE_IDS = ["first-of-first", "last-of-first", "first-of-later", "last-of-later"]


class TestBatchBoundaries:
    """The batch reader against the checked parser as oracle: a line that
    leaves the fast path, on either edge of a batch and in a later batch,
    and the line layouts a batch must survive give the same records, or
    the same error, file, line and field, both ways."""

    @staticmethod
    def both(data: Path, monkeypatch):
        fast = _outcome(data)
        with monkeypatch.context() as patch:
            _checked_only(patch)
            assert _outcome(data) == fast
        return fast

    @staticmethod
    def edit(path: Path, line: int, edit) -> None:
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[line - 1] = edit(json.loads(lines[line - 1]))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def edit_on_an_edge(self, data: Path, monkeypatch, name, edit, error, field, batch,
                        edge) -> None:
        path = data / f"{name}.jsonl"
        spans = _batch_spans(path)
        assert len(spans) > 2 and spans[batch][0] < spans[batch][1]
        line = spans[batch][edge]
        before = _outcome(data)
        self.edit(path, line, edit)
        assert _batch_spans(path)[batch][edge] == line  # the edit kept it on the edge
        outcome = self.both(data, monkeypatch)
        if error is None:
            assert outcome == before
        else:
            assert outcome == f"{error} [file={name}.jsonl, line={line}, field={field}]"

    @pytest.mark.parametrize("batch, edge", EDGES, ids=EDGE_IDS)
    @pytest.mark.parametrize("name, edit, error, field", [case[1:] for case in EDGE_CASES],
                             ids=[case[0] for case in EDGE_CASES])
    def test_line_on_a_batch_edge(self, synth_dir, monkeypatch, name, edit, error, field,
                                  batch, edge):
        if name in ("labels", "ap_claims", "token_transfers"):  # a few lines at this size
            _lengthen(synth_dir, name)
        self.edit_on_an_edge(synth_dir, monkeypatch, name, edit, error, field, batch, edge)

    @pytest.mark.parametrize("batch, edge", EDGES, ids=EDGE_IDS)
    @pytest.mark.parametrize("name, edit, error, field",
                             [case[1:] for case in EDGE_CASES if case[1] == "pool_events"],
                             ids=[case[0] for case in EDGE_CASES if case[1] == "pool_events"])
    def test_line_on_the_edge_of_a_batch_above_the_floor(self, large_dir, monkeypatch, name,
                                                         edit, error, field, batch, edge):
        _first, lines = next(dataset_module._batches(large_dir, f"{name}.jsonl"))
        assert len("".join(lines[:-1])) > lines_module._BATCH
        self.edit_on_an_edge(large_dir, monkeypatch, name, edit, error, field, batch, edge)

    @pytest.mark.parametrize("fault", [False, True], ids=["valid", "fault-after"])
    @pytest.mark.parametrize("layout", ["no-final-newline", "blank-and-padded", "crlf"])
    def test_line_layouts(self, synth_dir, monkeypatch, layout, fault):
        path = synth_dir / "pool_events.jsonl"
        before = _outcome(synth_dir)
        rows = path.read_text(encoding="utf-8").splitlines()
        if layout == "blank-and-padded":
            middle = _batch_spans(path)[1][0] + 2
            rows[middle - 1] = " \t" + rows[middle - 1] + "\t "
            rows.insert(middle, "")
        line = len(rows) // 2  # a later batch, past the blank line
        if fault:
            rows[line - 1] = _unknown_pool(json.loads(rows[line - 1]))
        end = "\r\n" if layout == "crlf" else "\n"
        text = end.join(rows) + ("" if layout == "no-final-newline" else end)
        path.write_bytes(text.encode("utf-8"))
        outcome = self.both(synth_dir, monkeypatch)
        if fault:
            assert outcome == (f"unknown pool 'P7' [file=pool_events.jsonl, line={line}, "
                               f"field=pool_id]")
        else:
            assert outcome == before

    def test_invalid_utf8_in_a_later_batch(self, synth_dir, monkeypatch):
        path = synth_dir / "pool_events.jsonl"
        line = _batch_spans(path)[2][0] + 1
        rows = path.read_bytes().split(b"\n")
        column = rows[line - 1].index(b'"kind":"') + len(b'"kind":"') + 1
        rows[line - 1] = rows[line - 1].replace(b'"kind":"', b'"kind":"\xff', 1)
        path.write_bytes(b"\n".join(rows))
        assert self.both(synth_dir, monkeypatch) == (
            f"invalid UTF-8 byte at column {column} [file=pool_events.jsonl, line={line}]")


class TestBlockRangeOncePerFile:
    """A positioned file's block range is checked once, over the whole file.
    With the checked parser as oracle, a height out of range gives the same
    error, file, line and field wherever its line lies, in a file in record
    order or shuffled, and also ahead of a later fault in another batch."""

    @staticmethod
    def rows(data: Path, name: str, shuffled: bool = False) -> list[str]:
        """The lines of ``name``'s file, spanning more than two batches, in
        file order or shuffled."""
        if name == "token_transfers":  # one batch at this size
            _lengthen(data, name)
        rows = (data / f"{name}.jsonl").read_text(encoding="utf-8").splitlines()
        if shuffled:
            random.Random(59).shuffle(rows)
        return rows

    @staticmethod
    def write(data: Path, name: str, rows: list[str]) -> Path:
        path = data / f"{name}.jsonl"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert len(_batch_spans(path)) > 2
        return path

    @pytest.mark.parametrize("shuffled", [False, True], ids=["in-order", "shuffled"])
    @pytest.mark.parametrize("place", ["first", "middle", "last"])
    @pytest.mark.parametrize("side", ["above", "below"])
    @pytest.mark.parametrize("name", ["pool_events", "transfers", "token_transfers"])
    def test_height_out_of_range(self, synth_dir, monkeypatch, name, side, place, shuffled):
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        block = OUT_OF_RANGE if side == "above" else manifest["first_block"] - 1
        rows = self.rows(synth_dir, name, shuffled)
        line = {"first": 1, "middle": len(rows) // 2, "last": len(rows)}[place]
        rows[line - 1] = _compact({**json.loads(rows[line - 1]), "block": block})
        self.write(synth_dir, name, rows)
        assert TestBatchBoundaries.both(synth_dir, monkeypatch) == (
            f"height outside the manifest block range [file={name}.jsonl, line={line}, "
            f"field=block]")

    @pytest.mark.parametrize("later", ["invalid-json", "duplicate"])
    @pytest.mark.parametrize("name", ["pool_events", "transfers", "token_transfers"])
    def test_height_out_of_range_before_a_later_fault(self, synth_dir, monkeypatch, name,
                                                      later):
        # the later line fails its batch, or repeats the first record
        rows = self.rows(synth_dir, name)
        rows[-1] = "{" if later == "invalid-json" else rows[0]
        rows[1] = _compact({**json.loads(rows[1]), "block": OUT_OF_RANGE})
        path = self.write(synth_dir, name, rows)
        assert _batch_spans(path)[0][1] > 2  # the two faults lie in different batches
        assert TestBatchBoundaries.both(synth_dir, monkeypatch) == (
            f"height outside the manifest block range [file={name}.jsonl, line=2, "
            f"field=block]")


class TestRelayerRule:
    """A relayed withdrawal must be signed by its relayer.  A batch checks
    the rule on canonical addresses, so two spellings of one address pass
    and two addresses fail, as they do in the checked parser."""

    @pytest.mark.parametrize("spelling, error", [
        (lambda a: "0X" + a[2:].upper(), None),
        (lambda a: a[2:].upper(), None),
        (lambda a: A1 if a != A1 else A2,
         "relayed withdrawal must be signed by its relayer"),
    ], ids=["0X-upper", "no-prefix-upper", "other-address"])
    def test_relayer_spelled_apart_from_its_sender(self, synth_dir, monkeypatch, spelling,
                                                    error):
        path = synth_dir / "pool_events.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        line = 1 + next(i for i, text in enumerate(lines) if json.loads(text)["relayer"])
        before = _outcome(synth_dir)
        record = json.loads(lines[line - 1])
        lines[line - 1] = _compact({**record, "relayer": spelling(record["relayer"])})
        assert dataset_module._LINE_PATTERNS["pool_events"].match(lines[line - 1])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        outcome = TestBatchBoundaries.both(synth_dir, monkeypatch)
        if error is None:
            assert outcome == before
        else:
            assert outcome == f"{error} [file=pool_events.jsonl, line={line}, field=tx_sender]"


class TestFastPathCounts:
    """Guards that need no clock: the cost of ingesting valid rows, counted."""

    CHECKED_FILES = ("pools", "relayers", "ens_transfers", "ens_subdomains",
                     "airdrop_claims", "follow_edges")

    def test_a_large_file_is_read_in_at_most_65_batches(self, large_dir):
        # each batch has a fixed cost; 2 KB batches read this file in over 130
        path = large_dir / "pool_events.jsonl"
        assert path.stat().st_size > 64 * 2048
        batches = list(dataset_module._batches(large_dir, path.name))
        assert len(batches) <= 65
        assert sum(len(lines) for _first, lines in batches) == \
            len(path.read_text(encoding="utf-8").splitlines())

    def test_a_file_under_128_kb_is_read_in_2_kb_batches(self, synth_dir):
        path = synth_dir / "pool_events.jsonl"
        assert path.stat().st_size < 64 * 2048
        with path.open(encoding="utf-8") as handle:
            fixed = list(iter(lambda: handle.readlines(2048), []))
        assert len(fixed) > 2
        assert [lines for _first, lines in dataset_module._batches(synth_dir, path.name)] == fixed

    def test_valid_hot_rows_build_no_row_object(self, synth_dir, tmp_path, monkeypatch):
        # nor decode a hot line: its pattern takes every emitted line, also
        # in a copy re-spelled by case and prefix, as chain exports spell it
        respelled = tmp_path / "respelled"
        respell(synth_dir, respelled, seed=37, pad=False)
        raw = (respelled / "pool_events.jsonl").read_text()
        assert '"0X' in raw and '"0x' in raw and re.search(r':"[0-9a-fA-F]{40}"', raw)
        decoded, built = [], []
        loads = dataset_module._loads

        def counted_loads(text, file, line=None):
            decoded.append(file)
            return loads(text, file, line)

        class Counted(_Row):
            __slots__ = ()

            def __init__(self, file, *args):
                built.append(file)
                super().__init__(file, *args)

        monkeypatch.setattr(dataset_module, "_loads", counted_loads)
        monkeypatch.setattr(dataset_module, "_Row", Counted)
        for data in (synth_dir, respelled):
            decoded.clear()
            built.clear()
            dataset = ingest(data)
            rows = sum(len((data / f"{name}.jsonl").read_text().splitlines())
                       for name in self.CHECKED_FILES)
            assert dataset.counts["pool_events"] > 0 and dataset.counts["transfers"] > 0
            assert dataset.counts["token_transfers"] > 0
            # one for the manifest, and one for each row of the small files
            checked = {f"{name}.jsonl" for name in self.CHECKED_FILES} | {"manifest.json"}
            assert len(built) <= 1 + rows and len(decoded) == 1 + rows
            assert set(built) <= checked and set(decoded) <= checked

    def test_checked_only_reads_every_hot_line_by_row(self, synth_dir, monkeypatch):
        # else the oracle tests above would compare the fast path with itself
        built = Counter()

        class Counted(_Row):
            __slots__ = ()

            def __init__(self, file, *args):
                built[file] += 1
                super().__init__(file, *args)

        monkeypatch.setattr(dataset_module, "_Row", Counted)
        _checked_only(monkeypatch)
        dataset = ingest(synth_dir)
        for name in ("pool_events", "transfers", "token_transfers", "labels", "ap_claims"):
            rows = len((synth_dir / f"{name}.jsonl").read_text().splitlines())
            assert built[f"{name}.jsonl"] == rows == dataset.counts[name] > 0

    def test_index_sorts_only_out_of_order_input(self, synth_dir, monkeypatch):
        dataset = ingest(synth_dir)
        calls = Counter()

        def counted(order):
            def key(record):
                calls[order.__name__] += 1
                return order(record)
            return key

        monkeypatch.setattr(indexing_module, "event_order", counted(event_order))
        monkeypatch.setattr(indexing_module, "transfer_order", counted(transfer_order))
        index = dataset.build_index(dataset.manifest.last_block)
        assert not calls
        assert index.pool_events == dataset.events and index.native_transfers == dataset.transfers

        rng = random.Random(41)
        events, transfers, tokens = (rng.sample(records, len(records)) for records in (
            dataset.events, dataset.transfers, dataset.token_transfers))
        shuffled = build_index(transfers, tokens, events, dataset.labels)
        assert calls == {"event_order": len(events),
                         "transfer_order": len(transfers) + len(tokens)}
        assert shuffled.pool_events == index.pool_events
        assert shuffled.native_transfers == index.native_transfers
        assert shuffled.token_transfers == index.token_transfers

    def test_each_address_is_interned_once_by_its_canonical_form(self, synth_dir, tmp_path):
        # on canonical text and on a copy re-spelled by case and prefix, the
        # interning table ends with one canonical key per distinct address
        # of every file, mapped to itself, and every record holds that object
        respelled = tmp_path / "respelled"
        respell(synth_dir, respelled, seed=29, pad=False)
        for data in (synth_dir, respelled):
            dataset, canon, _calls = _profiled_ingest(data)
            assert all(CANONICAL.match(key) and canon[key] is key for key in canon)
            assert set(canon) == _distinct_addresses(data)
            occurrences = address_occurrences(dataset) + list(dataset.labels._labels)
            assert all(address is canon[address] for address in occurrences)
            assert len(canon) < len(occurrences)

    def test_no_python_call_per_address_occurrence(self, synth_dir, tmp_path):
        # a copy re-spelled by case and prefix, where nearly no occurrence
        # is found as spelled, makes no more Python calls than the canonical
        # original but for the fixed ones of each batch its line lengths add
        respelled = tmp_path / "respelled"
        respell(synth_dir, respelled, seed=29, pad=False)
        dataset, _canon, canonical = _profiled_ingest(synth_dir)
        _dataset, _canon, mixed = _profiled_ingest(respelled)

        def batches(data: Path) -> int:
            return sum(1 for name in dataset_module._LINE_PATTERNS
                       for _batch in dataset_module._batches(data, f"{name}.jsonl"))

        occurrences = len(address_occurrences(dataset))
        assert occurrences > 500
        extra = max(0, batches(respelled) - batches(synth_dir))
        assert sum(mixed.values()) - sum(canonical.values()) <= 8 * extra

    def test_normalize_address_runs_once_per_address(self, synth_dir, tmp_path, monkeypatch):
        # a copy re-spelled only by case and prefix, as chain exports spell it
        respell(synth_dir, tmp_path / "respelled", seed=29, pad=False)
        calls = []

        def counted(value: str) -> str:
            calls.append(value)
            return normalize_address(value)

        monkeypatch.setattr(rows_module, "normalize_address", counted)
        # the line patterns check their addresses, so a hot file sends none
        dataset = ingest(tmp_path / "respelled")
        hot = {a for e in dataset.events for a in (e.actor, e.tx_sender, e.relayer) if a}
        hot.update(a for t in dataset.transfers + dataset.token_transfers
                   for a in (t.sender, t.recipient))
        assert hot and hot.isdisjoint(map(normalize_address, calls))
        # the checked parser reaches the regex once per distinct address
        calls.clear()
        with monkeypatch.context() as patch:
            _checked_only(patch)
            dataset = ingest(tmp_path / "respelled")
        per_address = Counter(map(normalize_address, calls))
        assert len(set(address_occurrences(dataset))) <= len(per_address)
        assert max(per_address.values()) == 1


DATA_COMMANDS = {
    "anonymity": ["anonymity", "--combine"], "clusters": ["clusters"],
    "relayers": ["relayers"], "flows": ["flows"], "flags": ["flags"],
    "am-link": ["am-link"], "validate": ["validate", "--gt", "ens"]}


class TestRecordOrderSetOnce:
    """``ingest`` proves or sets up each positioned file's record order, and
    no later step proves it again."""

    @pytest.mark.parametrize("command", DATA_COMMANDS.values(), ids=DATA_COMMANDS)
    def test_each_positioned_file_is_proved_once(self, synth_dir, tmp_path,
                                                 monkeypatch, command):
        calls = Counter()
        # every module of the package that holds the check, so a caller
        # that imports it by name is counted too
        for info in pkgutil.iter_modules(anonset.__path__, "anonset."):
            module = importlib.import_module(info.name)
            if hasattr(module, "in_position_order"):
                original = module.in_position_order

                def in_position_order(records, name=info.name, original=original):
                    calls[name] += 1
                    return original(records)
                monkeypatch.setattr(module, "in_position_order", in_position_order)
        assert main([*command, "--data", str(synth_dir), "--out", str(tmp_path / "out")]) == 0
        # each positioned file the command holds, through the one rule; an
        # unheld one is only counted
        files = importlib.import_module(f"anonset.commands.{command[0].replace('-', '_')}").FILES
        held = {"pool_events", "transfers", "token_transfers"} & set(files)
        assert "pool_events" in held
        assert calls == {"anonset.ledger": len(held)}

    def test_shuffled_files_read_in_record_order(self, synth_dir, tmp_path):
        shuffled = tmp_path / "shuffled"
        shutil.copytree(synth_dir, shuffled)
        rng = random.Random(53)
        for name in ("pool_events.jsonl", "transfers.jsonl"):
            text = (synth_dir / name).read_text()
            lines = text.splitlines(keepends=True)
            rng.shuffle(lines)
            (shuffled / name).write_text("".join(lines))
            assert "".join(lines) != text
        ordered, dataset = ingest(synth_dir), ingest(shuffled)
        assert dataset.events == tuple(sorted(ordered.events, key=event_order)) == ordered.events
        assert dataset.transfers == tuple(sorted(ordered.transfers, key=transfer_order))
        assert dataset.transfers == ordered.transfers
        assert dataset.counts == ordered.counts

        solved = False
        for command in (["anonymity", "--combine", "--tas"], ["flows"], ["am-link"]):
            reports = []
            for data in (synth_dir, shuffled):
                out = tmp_path / f"{command[0]}-{data.name}"
                assert main([*command, "--data", str(data), "--out", str(out)]) == 0
                reports.append({f.name: f.read_bytes() for f in out.iterdir()})
            assert len(reports[0]) == 2 and reports[0] == reports[1], command
            if command[0] == "am-link":
                solved = b'"exact"' in reports[0]["am-link.json"]
        assert solved  # the withdrawal heights are read, not only classified


RECORD_CLASSES = (Transfer, PoolConfig, PoolEvent, LinkPair,
                  APClaim, NameTransfer, SubdomainGrant, FollowEdge)


class TestSlottedRecords:
    """Per-row records carry no ``__dict__``; a record class added without
    slots fails here."""

    @pytest.mark.parametrize("cls", RECORD_CLASSES + (_Row,), ids=lambda c: c.__name__)
    def test_class_declares_slots(self, cls):
        assert "__slots__" in vars(cls)

    def test_every_ingested_record_is_slotted(self, synth_dir):
        dataset = ingest(synth_dir)
        # a Manifest is itself a tuple, of two ints
        records = [record for name in Dataset._fields
                   if name != "manifest" and isinstance(getattr(dataset, name), tuple)
                   for record in getattr(dataset, name)]
        # link pairs are not ingested: take the planted ones of the same trace
        records += [pair for pairs in
                    mixed_trace(seed=5, users=64).ground_truth.links_by_heuristic.values()
                    for pair in pairs]
        assert {type(r) for r in records} == set(RECORD_CLASSES)
        for record in records:
            assert not hasattr(record, "__dict__"), type(record).__name__

    def test_replace_still_works(self):
        transfer = Transfer(height=3, tx_index=1, sender=A1, recipient=A2,
                            amount=10, coin="ETH")
        half = transfer._replace(amount=5)
        assert half == Transfer(height=3, tx_index=1, sender=A1, recipient=A2,
                                amount=5, coin="ETH")
        assert transfer.amount == 10
        event = PoolEvent(pool_id="P1", kind="withdrawal", height=4,
                          actor=A1, tx_sender=A2, relayer=A2)
        moved = event._replace(height=5)
        assert position(moved) == (5, 0, 0) and moved.relayer == A2
        with pytest.raises(AttributeError):
            event.actor = A2
