"""Line-delimited dataset format: validation and ingestion.

A dataset is a directory of JSON-lines record files plus a manifest.
Every file a command holds is validated line by line before any
analysis runs; failures name the file, line, and field.  Amounts travel
as decimal strings in base units so no reader ever needs floating point;
block numbers are plain unsigned integers.  Ingest needs only
``ledger``, which defines every record type a file decodes into,
``lines``, which reads a file in batches of lines and holds their
patterns, and ``rows``, the checked reader of one record; no analysis
module, and not the index, is loaded to read a dataset.

``synth`` writes exactly this layout (plus a ``ground_truth.json``
sidecar), so generated traces round-trip through ingestion losslessly.
``ingest`` never opens the sidecar; only ``anonymity --tas`` reads it.

Ingestion mirrors ``synth``'s emission, in batches of whole lines: 1/64
of a file, at least 2 KB.  Five files have a line pattern: pool events,
native and token transfers, labels and reward claims.  In a batch of their lines
all in exactly the emitted layout, nearly every batch, one pattern scan
finds every line's fields, undecoded, and one comprehension builds the
batch's records with no Python call per record; what their constructors
check is checked once per batch, but the block range of the pool events
and transfers, which is checked once per file.  Any other batch, or one
that fails a check, is decoded line by line and read by ``_Row``'s
checked accessors, which report the first fault, so a row's error is the
same whichever path met it.  An address the line pattern has matched is
canonical once lower-cased behind ``0x``: the batch's comprehension does
that inline, with no Python call, and never meets the regular expression
of :func:`~anonset.ledger.normalize_address`; every other address field
follows :func:`~anonset.rows._address`, which reaches it once per
distinct address.  Either way the one interning table holds canonical
addresses only.  Pool events and transfers come out in ``ledger``'s
record order, the index's, by the one rule ``_in_record_order``.

Only the files a command holds are read and checked.  Every other file
is counted, not parsed: its lines that hold more than JSON whitespace,
so a malformed file a command does not hold does not fail it, while a
missing or undecodable one still does.
"""

from __future__ import annotations

from collections import deque
from itertools import chain, starmap
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, NamedTuple, NoReturn

from .errors import IngestError, InputError
from .ledger import (
    DEPOSIT,
    KNOWN_LABELS,
    MANIFEST_FILE,
    WITHDRAWAL,
    Address,
    APClaim,
    FollowEdge,
    LabelBook,
    NameTransfer,
    PoolConfig,
    PoolEvent,
    SubdomainGrant,
    Transfer,
    _in_record_order,
    event_order,
    transfer_order,
    up_to,
)
from .lines import _LINE_PATTERNS, _batches
from .rows import _loads, _read_text, _Row

if TYPE_CHECKING:
    from .indexing import LedgerIndex

RECORD_FILES = ("pools", "pool_events", "transfers", "token_transfers",
                "labels", "relayers", "ap_claims", "ens_transfers",
                "ens_subdomains", "airdrop_claims", "follow_edges")


class Manifest(NamedTuple):
    first_block: int
    last_block: int


class Dataset(NamedTuple):
    """A validated dataset: ``events``, ``transfers`` and ``token_transfers``
    in ``ledger``'s record order, every other file's records in file order.
    A field whose files ``ingest`` was not asked to hold is None; ``counts``
    names every file, an unheld one by its lines that hold more than JSON
    whitespace."""

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

    def build_index(self, t: int) -> LedgerIndex:
        """The index of the core records up to ``t``; side-channel files are not cut."""
        from .indexing import LedgerIndex
        return LedgerIndex(up_to(self.transfers, t), up_to(self.token_transfers, t),
                           up_to(self.events, t), self.labels)


_new = tuple.__new__  # a record's tuple, past its class's checks
_SPACE = " \t\r\n"  # JSON's own whitespace, the only text stripped from a line


def ingest(path: str | Path, hold: Iterable[str] = RECORD_FILES) -> Dataset:
    """Validate and load a dataset directory, holding the records of the
    files named in ``hold`` (and ``pools``, which pool events are checked
    against); the label book is held when ``labels`` and ``relayers`` are.

    Every record file must be present (empty is fine) and UTF-8.  A held
    file is read and checked; any other is only counted.  Core-chain
    records must fall inside the manifest's block range; side-channel
    files are not range-checked since their events may predate the
    observation window.
    """
    path, hold = Path(path), {"pools", *hold}
    manifest_path = path / MANIFEST_FILE
    if not manifest_path.exists():
        raise IngestError("manifest is missing", file=MANIFEST_FILE)
    row = _Row(MANIFEST_FILE, 1, _loads(_read_text(manifest_path, MANIFEST_FILE),
                                        MANIFEST_FILE), {}, {})
    manifest = Manifest(first_block=row.uint("first_block"),
                        last_block=row.uint("last_block"))
    if manifest.last_block < manifest.first_block:
        raise IngestError("block range is inverted", file=MANIFEST_FILE,
                          field="last_block")

    first_block, last_block = manifest.first_block, manifest.last_block

    def height(row: _Row) -> int:
        value = row.uint("block")
        if not first_block <= value <= last_block:
            raise row.fail("block", "height outside the manifest block range")
        return value

    counts: dict[str, int] = {}
    canon: dict[str, Address] = {}  # this call's interned addresses
    words: dict[str, str] = {}  # and its interned text values

    def read(name: str, parse: Callable[[_Row], Any], build=None, order=None) -> tuple | None:
        """The records of ``<name>.jsonl`` in file order, or in the record
        ``order`` of a positioned file, read a batch of lines at a time;
        None for a file not in ``hold``, whose lines are only counted.

        ``build``, given for a patterned file, makes a batch's records from
        the first line's number and the groups of every line's
        :data:`_LINE_PATTERNS` match, in one comprehension, or gives None
        or a ``KeyError`` where a value fails a check.  No match spans a
        line end and the anchors allow one per line, so a batch with as
        many matches as lines is all in the emitted layout.  Any other
        batch, or one ``build`` declines, is read line by line by ``_Row``
        and ``parse``, which report its first fault.  A positioned file's
        batches leave the block range to one check of the whole file, by
        its first and last record's height once in record order; where
        that check or a later batch fails, an earlier batch may hold a
        height out of range, so the file is read again by ``parse`` alone,
        which raises at its first bad line.  A positioned file in strictly
        increasing position holds no repeat, which would share its twin's
        position; any other file is checked by a set of its records for
        one (the one duplicate rule).  Sets ``counts[name]``.
        """
        file = f"{name}.jsonl"
        if name not in hold:
            counts[name] = sum(len(lines) - sum(1 for text in lines if not text.strip(_SPACE))
                               for _first, lines in _batches(path, file))
            return None

        def checked(first: int, lines: list[str]):
            for line, text in enumerate(lines, start=first):
                text = text.strip(_SPACE)
                if text:
                    try:
                        record = parse(_Row(file, line, _loads(text, file, line), canon, words))
                    except InputError as exc:
                        raise IngestError(str(exc), file=file, line=line, field=exc.field) from None
                    yield line, record

        def batch(first: int, lines: list[str]) -> list:
            if build:
                found = _LINE_PATTERNS[name].findall("".join(lines))
                if len(found) == len(lines):
                    try:
                        records = build(first, found)
                    except KeyError:  # an unknown pool, kind or label
                        records = None
                    if records is not None:
                        return records
            return [record for _line, record in checked(first, lines)]

        def first_fault(error: IngestError) -> NoReturn:
            """Read the file again by ``parse`` alone: raise at its first
            bad line, or else ``error``."""
            for first, lines in _batches(path, file):
                deque(checked(first, lines), 0)
            raise error

        try:
            records = tuple(chain.from_iterable(starmap(batch, _batches(path, file))))
        except IngestError as exc:
            if order is None:
                raise
            first_fault(exc)
        in_order = False
        if order is not None:
            records, in_order = _in_record_order(records, order)
            # record order is by height first: the ends hold the least and greatest
            if records and (records[0].height < first_block or records[-1].height > last_block):
                first_fault(IngestError("height outside the manifest block range",
                                        file=file, field="block"))
        if not in_order and len(set(records)) < len(records):
            # a repeat: the file is read again to name the lines of the first
            seen: dict[Any, int] = {}
            for first, lines in _batches(path, file):
                for line, record in checked(first, lines):
                    if seen.setdefault(record, line) != line:
                        raise IngestError(f"duplicate record (first seen on line {seen[record]})",
                                          file=file, line=line)
        counts[name] = len(records)
        return records

    pools = read("pools", lambda r: PoolConfig(
        pool_id=r.text("pool_id"), coin=r.text("coin"),
        denomination=r.amount("denomination"), am_weight=r.uint("am_weight", 1)))
    # each id maps to its interned object
    known_pools = {p.pool_id: p.pool_id for p in pools}
    if len(known_pools) != len(pools):
        raise IngestError("pool ids must be unique", file="pools.jsonl")

    def pool_event(r: _Row) -> PoolEvent:
        pool_id = r.text("pool_id")
        if pool_id not in known_pools:
            raise r.fail("pool_id", f"unknown pool {pool_id!r}")
        return PoolEvent(pool_id=pool_id, kind=r.text("kind"), height=height(r),
                         tx_index=r.uint("tx_index", 0), log_index=r.uint("log_index", 0),
                         actor=r.address("actor"), tx_sender=r.address("tx_sender"),
                         relayer=r.optional_address("relayer"))

    def transfer(r: _Row) -> Transfer:
        return Transfer(height=height(r), tx_index=r.uint("tx_index", 0),
                        log_index=r.uint("log_index", 0), sender=r.address("sender"),
                        recipient=r.address("recipient"), amount=r.amount("amount"),
                        coin=r.text("coin"))

    # The batch builders make each record with ``tuple.__new__``, past the
    # checks of its class, and make them once per batch instead: a pool id,
    # kind or label by a dict lookup, the relayer rule on the relayed rows,
    # and a reward claim's block range by the batch's least and greatest
    # height (``read`` checks the other files' range once).  Positions,
    # amounts and points cannot be negative: the patterns take no sign.
    # An address ``canon`` holds as spelled costs one lookup; any other
    # spelling is lower-cased behind ``0x`` (a matched address has 40
    # digits after ``0x``, ``0X`` or nothing) and interned, in C calls
    # alone.  A null relayer is ''.
    known, keep = canon.get, canon.setdefault
    kinds = {kind: words.setdefault(kind, kind) for kind in (DEPOSIT, WITHDRAWAL)}
    withdrawal = kinds[WITHDRAWAL]

    def event_batch(first: int, found: list[tuple]) -> list | None:
        records = [_new(PoolEvent, (
            known_pools[pool_id], kinds[kind], int(block),
            known(actor) or keep(
                c := actor.lower() if len(actor) == 42 else "0x" + actor.lower(), c),
            known(tx_sender) or keep(
                c := tx_sender.lower() if len(tx_sender) == 42 else "0x" + tx_sender.lower(), c),
            (known(relayer) or keep(
                c := relayer.lower() if len(relayer) == 42 else "0x" + relayer.lower(), c))
            if relayer else None,
            int(tx_index), int(log_index)))
            for actor, block, kind, log_index, pool_id, relayer, tx_index, tx_sender in found]
        relayed = all([e.kind == withdrawal and e.tx_sender == e.relayer
                       for e in records if e.relayer is not None])
        return records if relayed else None

    def transfer_batch(first: int, found: list[tuple]) -> list:
        return [_new(Transfer, (
            int(block),
            known(sender) or keep(
                c := sender.lower() if len(sender) == 42 else "0x" + sender.lower(), c),
            known(recipient) or keep(
                c := recipient.lower() if len(recipient) == 42 else "0x" + recipient.lower(), c),
            int(amount), words.setdefault(coin, coin), int(tx_index), int(log_index)))
            for amount, block, coin, log_index, recipient, sender, tx_index in found]

    def ap_claim(r: _Row) -> APClaim:
        return APClaim(recipient=r.address("recipient"), block=height(r), ap=r.uint("ap"))

    def ap_claim_batch(first: int, found: list[tuple]) -> list | None:
        records = [_new(APClaim, (
            known(recipient) or keep(
                c := recipient.lower() if len(recipient) == 42 else "0x" + recipient.lower(), c),
            int(block), int(ap)))
            for ap, block, recipient in found]
        blocks = [claim.block for claim in records]
        return records if first_block <= min(blocks) and max(blocks) <= last_block else None

    events = read("pool_events", pool_event, event_batch, event_order)
    transfers = read("transfers", transfer, transfer_batch, transfer_order)
    token_transfers = read("token_transfers", transfer, transfer_batch, transfer_order)

    def label(r: _Row) -> tuple[str, Address, int]:
        tag = r.text("label")
        if tag not in KNOWN_LABELS:
            raise r.fail("label", f"unknown label {tag!r}")
        # a repeated label row only repeats a tag, so it is not rejected:
        # its line number keeps its record apart from the first
        return tag, r.address("address"), r.line

    tags = {tag: words.setdefault(tag, tag) for tag in KNOWN_LABELS}

    def label_batch(first: int, found: list[tuple]) -> list:
        return [(tags[tag],
                 known(address) or keep(
                     c := address.lower() if len(address) == 42 else "0x" + address.lower(), c),
                 line)
                for line, (address, tag) in enumerate(found, start=first)]

    label_map: dict[Address, set[str]] = {}
    for tag, address, _line in read("labels", label, label_batch) or ():
        label_map.setdefault(address, set()).add(tag)

    for addr in read("relayers", lambda r: r.address("address")) or ():
        label_map.setdefault(addr, set()).add("relayer")

    claims = read("ap_claims", ap_claim, ap_claim_batch)
    ens_transfers = read("ens_transfers", lambda r: NameTransfer(
        name=r.text("name"), sender=r.address("sender"),
        recipient=r.address("recipient"), block=r.uint("block"),
        expiry=r.uint("expiry")))
    subdomains = read("ens_subdomains", lambda r: SubdomainGrant(
        owner=r.address("owner"), assignee=r.address("assignee"),
        subdomain=r.text("subdomain")))
    airdrops = read("airdrop_claims", lambda r: Transfer(
        height=r.uint("block"), tx_index=r.uint("tx_index", 0),
        log_index=r.uint("log_index", 0), sender=r.address("sender"),
        recipient=r.address("recipient"), amount=r.amount("amount"),
        coin=r.text("coin")))
    edges = read("follow_edges", lambda r: FollowEdge(
        follower=r.address("follower"), followed=r.address("followed")))

    return Dataset(
        manifest=manifest, pools=tuple(sorted(pools, key=lambda p: p.pool_id)),
        events=events, transfers=transfers, token_transfers=token_transfers,
        labels=LabelBook({a: frozenset(tags) for a, tags in label_map.items()})
        if {"labels", "relayers"} <= hold else None,
        ap_claims=claims, ens_transfers=ens_transfers, ens_subdomains=subdomains,
        airdrop_claims=airdrops, follow_edges=edges, counts=counts)
