"""Ingest fast paths: interned addresses, type-exact row accessors and
slotted records, each checked against the behaviour they must keep."""

from __future__ import annotations

import dataclasses
import json
import random
import re
from pathlib import Path

import pytest

from anonset.cli import main
from anonset.dataset import Dataset, _Row, ingest, read_ground_truth, write_dataset
from anonset.errors import IngestError
from anonset.groundtruth import FollowEdge, NameTransfer, SubdomainGrant
from anonset.ledger import (
    BlockPosition,
    LinkPair,
    PoolConfig,
    PoolEvent,
    Transfer,
)
from anonset.mining import APClaim

from .test_dataset_cli import A1, A2, mixed_trace, write_side_channels

CANONICAL = re.compile(r"0x[0-9a-f]{40}\Z")


def respell(src: Path, dst: Path, seed: int) -> None:
    """Copy a dataset, spelling every address occurrence anew: mixed case,
    a ``0x``, ``0X`` or no prefix, and surrounding whitespace.  Seeded."""
    rng = random.Random(seed)

    def spell(address: str) -> str:
        body = "".join(c.upper() if rng.random() < 0.5 else c for c in address[2:])
        prefix = rng.choice(["0x", "0X", ""])
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


@pytest.fixture
def synth_dir(tmp_path):
    data = tmp_path / "data"
    write_dataset(mixed_trace(seed=5, users=64), data)
    write_side_channels(data)
    return data


class TestInterning:
    def test_respelled_input_ingests_to_the_same_dataset(self, synth_dir, tmp_path):
        respell(synth_dir, tmp_path / "respelled", seed=17)
        original, respelled = ingest(synth_dir), ingest(tmp_path / "respelled")
        raw = (tmp_path / "respelled" / "pool_events.jsonl").read_text()
        # the copy really is spelled anew
        assert all(s in raw for s in ('"0X', '"0x', ':"\\t', ':" ', ' ",'))
        for field in dataclasses.fields(Dataset):
            if field.name == "labels":
                continue
            assert getattr(respelled, field.name) == getattr(original, field.name), \
                field.name
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
        assert ingest(synth_dir).events[0].block == BlockPosition(before.block.height, 0,
                                                                  before.block.log_index)

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


RECORD_CLASSES = (BlockPosition, Transfer, PoolConfig, PoolEvent, LinkPair,
                  APClaim, NameTransfer, SubdomainGrant, FollowEdge)


class TestSlottedRecords:
    """Per-row records carry no ``__dict__``; a record class added without
    slots fails here."""

    @pytest.mark.parametrize("cls", RECORD_CLASSES + (_Row,), ids=lambda c: c.__name__)
    def test_class_declares_slots(self, cls):
        assert "__slots__" in vars(cls)

    def test_every_ingested_record_is_slotted(self, synth_dir):
        dataset = ingest(synth_dir)
        records = [record for field in dataclasses.fields(Dataset)
                   if isinstance(getattr(dataset, field.name), tuple)
                   for record in getattr(dataset, field.name)]
        records += [e.block for e in dataset.events]
        records += read_ground_truth(synth_dir).user_links
        assert {type(r) for r in records} == set(RECORD_CLASSES)
        for record in records:
            assert not hasattr(record, "__dict__"), type(record).__name__

    def test_replace_still_works(self):
        transfer = Transfer(block=BlockPosition(3, 1), sender=A1, recipient=A2,
                            amount=10, coin="ETH")
        half = dataclasses.replace(transfer, amount=5)
        assert half == Transfer(block=BlockPosition(3, 1), sender=A1, recipient=A2,
                                amount=5, coin="ETH")
        assert transfer.amount == 10
        event = PoolEvent(pool_id="P1", kind="withdrawal", block=BlockPosition(4),
                          actor=A1, tx_sender=A2, relayer=A2)
        moved = dataclasses.replace(event, block=BlockPosition(5))
        assert moved.block == BlockPosition(5) and moved.relayer == A2
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.actor = A2
