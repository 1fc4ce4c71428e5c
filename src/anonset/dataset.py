"""Line-delimited dataset format: validation, ingestion, emission.

A dataset is a directory of JSON-lines record files plus a manifest.
Every file is validated line by line before any analysis runs; failures
name the file, line, and field.  Amounts travel as decimal strings in
base units so no reader ever needs floating point; block numbers are
plain unsigned integers.

The synthetic generator emits exactly this layout (plus a
``ground_truth.json`` sidecar), so generated traces round-trip through
ingestion losslessly.  ``ingest`` never opens the sidecar; only
:func:`read_ground_truth` reads and validates it, for ``anonymity --tas``.

Emission streams each record file line by line in a fixed record order,
with no whole file held in memory.  Pool events and transfers, nearly
every line, go through hand-written encoders that yield exactly what
``json.dumps`` with sorted keys gives; the small files, the manifest and
the sidecar go through ``json.dumps`` itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from .errors import IngestError, InputError
from .indexing import KNOWN_LABELS, LabelBook, LedgerIndex, build_index
from .groundtruth import FollowEdge, NameTransfer, SubdomainGrant
from .ledger import (
    Address,
    BlockPosition,
    LinkPair,
    PoolConfig,
    PoolEvent,
    Transfer,
    normalize_address,
)
from .mining import APClaim
from .synth import AmRecord, GroundTruth, SynthTrace

MANIFEST_FILE = "manifest.json"
GROUND_TRUTH_FILE = "ground_truth.json"
RECORD_FILES = ("pools", "pool_events", "transfers", "token_transfers",
                "labels", "relayers", "ap_claims", "ens_transfers",
                "ens_subdomains", "airdrop_claims", "follow_edges")


@dataclass(frozen=True)
class Manifest:
    coin: str
    first_block: int
    last_block: int
    am_launch: int | None = None


@dataclass(frozen=True)
class Dataset:
    manifest: Manifest
    pools: tuple[PoolConfig, ...]
    events: tuple[PoolEvent, ...]
    transfers: tuple[Transfer, ...]
    token_transfers: tuple[Transfer, ...]
    labels: LabelBook
    ap_claims: tuple[APClaim, ...]
    ens_transfers: tuple[NameTransfer, ...]
    ens_subdomains: tuple[SubdomainGrant, ...]
    airdrop_claims: tuple[Transfer, ...]
    follow_edges: tuple[FollowEdge, ...]
    counts: Mapping[str, int]

    def pool(self, pool_id: str) -> PoolConfig:
        for p in self.pools:
            if p.pool_id == pool_id:
                return p
        raise IngestError(f"unknown pool: {pool_id}")

    def build_index(self) -> LedgerIndex:
        return build_index(self.transfers, self.token_transfers,
                           self.events, self.labels)


# ---------------------------------------------------------------------------
# field validation helpers


class _Row:
    """One record of a dataset file, with checked field accessors.

    ``uint``, ``text`` and ``address`` first take a value of the exact type
    JSON gives a valid one and return it at once; any other value falls
    through to the full checks, which name the file, line and field.
    ``canon`` interns addresses for one ``ingest`` call: it maps each
    canonical address to one shared string, so an address already spelled
    canonically skips the regex and every occurrence of an address is the
    same object.  ``words`` does the same for ``text`` values, a few of
    which (pool ids, event kinds, coins) recur on nearly every row.  It is
    a dict of its own, because a text value found among the addresses
    would pass ``address`` unchecked.
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
        value = self.record.get(field)
        if type(value) is str:
            known = self.canon.get(value)
            if known is not None:
                return known
        value = self._get(field)
        if not isinstance(value, str):
            raise self.fail(field, "address must be a string")
        try:
            address = normalize_address(value)
        except InputError:
            raise self.fail(field, f"malformed address: {value!r}")
        return self.canon.setdefault(address, address)

    def optional_address(self, field: str) -> Address | None:
        if self.record.get(field) is None:
            return None
        return self.address(field)

    def uint(self, field: str, default: int | None = None) -> int:
        value = self.record.get(field, default)
        if type(value) is int and value >= 0:
            return value
        value = self._get(field)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
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
        value = self.record.get(field)
        if type(value) is str and value:
            return self.words.setdefault(value, value)
        value = self._get(field)
        if not isinstance(value, str) or not value:
            raise self.fail(field, "expected a non-empty string")
        return self.words.setdefault(value, value)

    def flag(self, field: str, default: bool = False) -> bool:
        if field not in self.record:
            return default
        value = self.record[field]
        if not isinstance(value, bool):
            raise self.fail(field, "expected a boolean")
        return value

    def position(self) -> BlockPosition:
        return BlockPosition(self.uint("block"), self.uint("tx_index", 0),
                             self.uint("log_index", 0))


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


def _read_lines(path: Path, name: str, canon: dict[str, Address],
                words: dict[str, str]):
    """Yield a ``_Row`` for each non-blank line of ``<name>.jsonl``, reading
    one line at a time; the rows intern addresses in ``canon`` and text
    values in ``words``."""
    name = f"{name}.jsonl"
    file = path / name
    if not file.exists():
        raise IngestError("required file is missing", file=name)
    # what json.loads does, less its whitespace scans: a stripped line has none
    decode = json.JSONDecoder().raw_decode
    try:
        with file.open(encoding="utf-8") as handle:
            for i, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record, end = decode(line)
                    if end != len(line):
                        raise json.JSONDecodeError("Extra data", line, end)
                except json.JSONDecodeError as exc:
                    raise IngestError(f"invalid JSON: {exc.msg}", file=name, line=i)
                yield _Row(name, i, record, canon, words)
    except UnicodeDecodeError:
        raise _utf8_error(file, name) from None


def _records(path: Path, name: str, parse: Callable[[_Row], Any],
             counts: dict[str, int], canon: dict[str, Address],
             words: dict[str, str]) -> tuple:
    """Build one record per row of ``<name>.jsonl`` with ``parse``.

    A record constructor's ``InputError`` is reported with the file, line
    and the field it names, and a record equal to an earlier one too.  Sets
    ``counts[name]`` and returns the records in file order.
    """
    first_seen: dict[Any, int] = {}
    for row in _read_lines(path, name, canon, words):
        try:
            record = parse(row)
        except InputError as exc:
            raise IngestError(str(exc), file=row.file, line=row.line, field=exc.field) from None
        # lines are unique, so another line number means an equal record
        first = first_seen.setdefault(record, row.line)
        if first != row.line:
            raise IngestError(f"duplicate record (first seen on line {first})",
                              file=row.file, line=row.line)
    counts[name] = len(first_seen)
    return tuple(first_seen)


def ingest(path: str | Path) -> Dataset:
    """Validate and load a dataset directory.

    Every record file must be present (empty is fine).  Core-chain records
    must fall inside the manifest's block range; side-channel files are
    not range-checked since their events may predate the observation
    window.
    """
    path = Path(path)
    manifest_path = path / MANIFEST_FILE
    if not manifest_path.exists():
        raise IngestError("manifest is missing", file=MANIFEST_FILE)
    try:
        raw = json.loads(_read_text(manifest_path, MANIFEST_FILE))
    except json.JSONDecodeError as exc:
        raise IngestError(f"invalid JSON: {exc.msg}", file=MANIFEST_FILE)
    row = _Row(MANIFEST_FILE, 1, raw, {}, {})
    manifest = Manifest(
        coin=row.text("coin"),
        first_block=row.uint("first_block"),
        last_block=row.uint("last_block"),
        am_launch=row.uint("am_launch") if "am_launch" in raw else None)
    if manifest.last_block < manifest.first_block:
        raise IngestError("block range is inverted", file=MANIFEST_FILE,
                          field="last_block")

    def in_range(row: _Row, pos: BlockPosition) -> BlockPosition:
        if not manifest.first_block <= pos.height <= manifest.last_block:
            raise row.fail("block", "height outside the manifest block range")
        return pos

    counts: dict[str, int] = {}
    canon: dict[str, Address] = {}  # this call's interned addresses
    words: dict[str, str] = {}  # and its interned text values

    def read(name: str, parse: Callable[[_Row], Any]) -> tuple:
        return _records(path, name, parse, counts, canon, words)

    pools = read("pools", lambda r: PoolConfig(
        pool_id=r.text("pool_id"), coin=r.text("coin"),
        denomination=r.amount("denomination"), am_weight=r.uint("am_weight", 1)))
    known_pools = {p.pool_id for p in pools}
    if len(known_pools) != len(pools):
        raise IngestError("pool ids must be unique", file="pools.jsonl")

    def pool_event(r: _Row) -> PoolEvent:
        pool_id = r.text("pool_id")
        if pool_id not in known_pools:
            raise r.fail("pool_id", f"unknown pool {pool_id!r}")
        return PoolEvent(pool_id=pool_id, kind=r.text("kind"),
                         block=in_range(r, r.position()),
                         actor=r.address("actor"), tx_sender=r.address("tx_sender"),
                         relayer=r.optional_address("relayer"))

    def transfer(r: _Row) -> Transfer:
        return Transfer(block=in_range(r, r.position()), sender=r.address("sender"),
                        recipient=r.address("recipient"), amount=r.amount("amount"),
                        coin=r.text("coin"), internal=r.flag("internal"))

    def ap_claim(r: _Row) -> APClaim:
        height = r.uint("block")
        in_range(r, BlockPosition(height))
        return APClaim(recipient=r.address("recipient"), block=height, ap=r.uint("ap"))

    events = read("pool_events", pool_event)
    transfers = read("transfers", transfer)
    token_transfers = read("token_transfers", transfer)

    # a repeated label row only repeats a tag, so it is not rejected
    label_map: dict[Address, set[str]] = {}
    counts["labels"] = 0
    for r in _read_lines(path, "labels", canon, words):
        label = r.text("label")
        if label not in KNOWN_LABELS:
            raise r.fail("label", f"unknown label {label!r}")
        label_map.setdefault(r.address("address"), set()).add(label)
        counts["labels"] += 1

    for addr in read("relayers", lambda r: r.address("address")):
        label_map.setdefault(addr, set()).add("relayer")

    claims = read("ap_claims", ap_claim)
    ens_transfers = read("ens_transfers", lambda r: NameTransfer(
        name=r.text("name"), sender=r.address("sender"),
        recipient=r.address("recipient"), block=r.uint("block"),
        expiry=r.uint("expiry")))
    subdomains = read("ens_subdomains", lambda r: SubdomainGrant(
        owner=r.address("owner"), assignee=r.address("assignee"),
        subdomain=r.text("subdomain")))
    airdrops = read("airdrop_claims", lambda r: Transfer(
        block=r.position(), sender=r.address("sender"),
        recipient=r.address("recipient"), amount=r.amount("amount"),
        coin=r.text("coin")))
    edges = read("follow_edges", lambda r: FollowEdge(
        follower=r.address("follower"), followed=r.address("followed")))

    return Dataset(
        manifest=manifest, pools=tuple(sorted(pools, key=lambda p: p.pool_id)),
        events=events, transfers=transfers, token_transfers=token_transfers,
        labels=LabelBook({a: frozenset(tags) for a, tags in label_map.items()}),
        ap_claims=claims, ens_transfers=ens_transfers, ens_subdomains=subdomains,
        airdrop_claims=airdrops, follow_edges=edges, counts=counts)


def read_ground_truth(path: str | Path) -> GroundTruth | None:
    """Validate and load a dataset's ``ground_truth.json`` sidecar, or
    return None when the dataset has none."""
    gt_path = Path(path) / GROUND_TRUTH_FILE
    if not gt_path.exists():
        return None
    try:
        return _parse_ground_truth(json.loads(_read_text(gt_path, GROUND_TRUTH_FILE)))
    except json.JSONDecodeError as exc:
        raise IngestError(f"invalid JSON: {exc.msg}", file=GROUND_TRUTH_FILE)


# ---------------------------------------------------------------------------
# emission


def _dump_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


# json.dumps's own string escaper (``ensure_ascii`` is its default)
_quote = json.encoder.encode_basestring_ascii


def _event_line(e: PoolEvent) -> str:
    """``_dump_line`` of a pool event's record, keys in sorted order."""
    b = e.block
    relayer = "null" if e.relayer is None else _quote(e.relayer)
    return (f'{{"actor":{_quote(e.actor)},"block":{b.height},"kind":{_quote(e.kind)},'
            f'"log_index":{b.log_index},"pool_id":{_quote(e.pool_id)},'
            f'"relayer":{relayer},"tx_index":{b.tx_index},'
            f'"tx_sender":{_quote(e.tx_sender)}}}\n')


def _transfer_line(t: Transfer) -> str:
    """``_dump_line`` of a native or token transfer's record, keys in
    sorted order; the amount is a quoted decimal."""
    b = t.block
    return (f'{{"amount":"{t.amount}","block":{b.height},"coin":{_quote(t.coin)},'
            f'"internal":{"true" if t.internal else "false"},'
            f'"log_index":{b.log_index},"recipient":{_quote(t.recipient)},'
            f'"sender":{_quote(t.sender)},"tx_index":{b.tx_index}}}\n')


# (e.block, …) spelled out, so sorting compares plain tuples in C
_EVENT_ORDER = attrgetter("block.height", "block.tx_index", "block.log_index",
                          "pool_id", "actor")
_TRANSFER_ORDER = attrgetter("block.height", "block.tx_index", "block.log_index",
                             "sender", "recipient")


def write_dataset(trace: SynthTrace, path: str | Path) -> Path:
    """Emit a synthetic trace in the ingestion layout (plus ground truth)."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)

    manifest = {"coin": trace.coin, "first_block": trace.first_block,
                "last_block": trace.last_block}
    if trace.am_launch is not None:
        manifest["am_launch"] = trace.am_launch
    (path / MANIFEST_FILE).write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")

    def write(name: str, lines: Iterable[str]) -> None:
        with (path / f"{name}.jsonl").open("w", encoding="utf-8") as handle:
            handle.writelines(lines)

    write("pools", (_dump_line({"pool_id": p.pool_id, "coin": p.coin,
                                "denomination": str(p.denomination),
                                "am_weight": p.am_weight})
                    for p in sorted(trace.pools, key=lambda p: p.pool_id)))
    write("pool_events", map(_event_line, sorted(trace.events, key=_EVENT_ORDER)))
    write("transfers", map(_transfer_line, sorted(trace.transfers, key=_TRANSFER_ORDER)))
    write("token_transfers",
          map(_transfer_line, sorted(trace.token_transfers, key=_TRANSFER_ORDER)))
    write("labels", (_dump_line({"address": a, "label": label})
                     for a in sorted(trace.labels)
                     for label in sorted(trace.labels[a])))
    write("relayers", (_dump_line({"address": a}) for a in sorted(trace.relayers)))
    write("ap_claims", (_dump_line({"recipient": c.recipient, "block": c.block,
                                    "ap": c.ap})
                        for c in sorted(trace.ap_claims,
                                        key=lambda c: (c.block, c.recipient))))
    for name in ("ens_transfers", "ens_subdomains", "airdrop_claims", "follow_edges"):
        write(name, ())

    gt = trace.ground_truth
    payload = {
        "links_by_heuristic": {h: sorted(p.addresses for p in pairs)
                               for h, pairs in gt.links_by_heuristic.items()},
        "user_links": sorted([p.a1, p.a2, p.source] for p in gt.user_links),
        "reusers": sorted(gt.reusers),
        "fully_withdrawn_reusers": sorted(gt.fully_withdrawn_reusers),
        "attackers": sorted(gt.attackers),
        "am_truth": [{"recipient": r.recipient, "pool_id": r.pool_id,
                      "deposit_blocks": list(r.deposit_blocks),
                      "withdrawal_blocks": list(r.withdrawal_blocks),
                      "ap": r.ap, "claim_block": r.claim_block}
                     for r in sorted(gt.am_truth, key=lambda r: (r.claim_block, r.recipient))],
        "true_balances": {pool: dict(sorted(balances.items()))
                          for pool, balances in sorted(gt.true_balances.items())},
        "active_depositors": {pool: sorted(addrs)
                              for pool, addrs in sorted(gt.active_depositors.items())},
        "behaviors": dict(sorted(gt.behaviors.items())),
    }
    (path / GROUND_TRUTH_FILE).write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return path


def _all_of(values, kind: type) -> bool:
    """Every value is exactly a ``kind`` (JSON never yields subclasses, and
    a ``bool`` does not pass as an ``int``)."""
    return set(map(type, values)) <= {kind}


def _list_of(value, kind: type) -> bool:
    return isinstance(value, list) and _all_of(value, kind)


def _map_of(value, kind: type) -> bool:
    return isinstance(value, dict) and _all_of(value.values(), kind)


def _tuples(n: int):
    """Check for a list of lists of exactly ``n`` strings."""
    return lambda value: (_list_of(value, list) and set(map(len, value)) <= {n}
                          and _all_of(chain.from_iterable(value), str))


_AM_RECORD_TYPES = {"recipient": str, "pool_id": str, "deposit_blocks": list,
                    "withdrawal_blocks": list, "ap": int, "claim_block": int}


def _am_records(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(r, dict)
        and all(type(r.get(key)) is kind for key, kind in _AM_RECORD_TYPES.items())
        and _all_of(r["deposit_blocks"], int) and _all_of(r["withdrawal_blocks"], int)
        for r in value)


_ADDRESS_SET = ("a list of strings", lambda v: _list_of(v, str), frozenset)

# sidecar key -> (expected shape, check, conversion to the GroundTruth field)
_GROUND_TRUTH_FIELDS = {
    "links_by_heuristic": (
        "an object of [address, address] lists",
        lambda v: isinstance(v, dict) and all(map(_tuples(2), v.values())),
        lambda v: {h: frozenset(LinkPair(a1, a2, source=h) for a1, a2 in pairs)
                   for h, pairs in v.items()}),
    "user_links": (
        "a list of [address, address, source] lists",
        _tuples(3),
        lambda v: frozenset(LinkPair(a1, a2, source=source) for a1, a2, source in v)),
    "reusers": _ADDRESS_SET,
    "fully_withdrawn_reusers": _ADDRESS_SET,
    "attackers": _ADDRESS_SET,
    "am_truth": (
        "a list of objects with " + ", ".join(_AM_RECORD_TYPES),
        _am_records,
        lambda v: tuple(AmRecord(recipient=r["recipient"], pool_id=r["pool_id"],
                                 deposit_blocks=tuple(r["deposit_blocks"]),
                                 withdrawal_blocks=tuple(r["withdrawal_blocks"]),
                                 ap=r["ap"], claim_block=r["claim_block"])
                        for r in v)),
    "true_balances": (
        "an object of address -> integer objects",
        lambda v: isinstance(v, dict) and all(_map_of(b, int) for b in v.values()),
        lambda v: {pool: dict(balances) for pool, balances in v.items()}),
    "active_depositors": (
        "an object of address lists",
        lambda v: isinstance(v, dict) and all(_list_of(a, str) for a in v.values()),
        lambda v: {pool: frozenset(addrs) for pool, addrs in v.items()}),
    "behaviors": ("an object of strings", lambda v: _map_of(v, str), dict),
}


def _parse_ground_truth(raw) -> GroundTruth:
    if not isinstance(raw, dict):
        raise IngestError("ground truth is not an object", file=GROUND_TRUTH_FILE)
    fields = {}
    for key, (shape, valid, convert) in _GROUND_TRUTH_FIELDS.items():
        if key not in raw:
            raise IngestError("missing field", file=GROUND_TRUTH_FILE, field=key)
        if not valid(raw[key]):
            raise IngestError(f"expected {shape}", file=GROUND_TRUTH_FILE, field=key)
        try:
            fields[key] = convert(raw[key])
        except InputError as exc:
            raise IngestError(str(exc), file=GROUND_TRUTH_FILE, field=key) from None
    return GroundTruth(**fields)
