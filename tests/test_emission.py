"""The dataset line encoders against ``json.dumps``, and the emitted
record order against the index's.

``write_dataset`` spells each pool event and transfer line out by hand;
the oracle is the record as a dict through ``json.dumps`` with sorted
keys, which is what every line was before.  The records are seeded and
carry strings that need escaping: quotes, backslashes, control
characters, non-ASCII text and a lone surrogate.

Each hot file is written in ``ledger``'s one record order, so ``ingest``
reads it back in exactly the order the index keeps.  Whether records are
in that order as they stand is decided by ``ledger.in_position_order``,
checked here against sorting by position.  A generated trace is proved
in that order and written with no sort key computed; the same trace
handed over shuffled is sorted into the same bytes.
"""

from __future__ import annotations

import json
import re

import pytest

import anonset.synth
from anonset.dataset import ingest
from anonset.errors import IngestError
from anonset.ledger import (
    DEPOSIT,
    WITHDRAWAL,
    PoolEvent,
    Transfer,
    event_order,
    in_position_order,
    transfer_order,
)
from anonset.ledger import position as record_position
from anonset.synth import Prng, _event_line, _transfer_line, write_dataset

from .conftest import addr, deposit, transfer, withdrawal
from .test_properties import seeded_trace, shuffled

AWKWARD = ("P1", 'P"1', "P\\1", "tab\there", "nl\n", "\x00\x1f\x7f", "é", "日本",
           " ", "\ud800", "🙂", " ", "ETH")


def oracle(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def position(prng: Prng) -> dict[str, int]:
    return {"height": prng.randint(0, 2 ** 40), "tx_index": prng.randint(0, 3),
            "log_index": prng.randint(0, 3)}


def test_event_line_matches_json_dumps():
    prng = Prng(31)
    addresses = [addr(f"e{i}") for i in range(4)] + list(AWKWARD)
    seen_relayed = seen_null = 0
    for _ in range(400):
        kind = prng.choice((DEPOSIT, WITHDRAWAL))
        actor, sender = prng.choice(addresses), prng.choice(addresses)
        relayer = sender if kind == WITHDRAWAL and prng.randint(0, 1) else None
        e = PoolEvent(pool_id=prng.choice(AWKWARD), kind=kind, **position(prng),
                      actor=actor, tx_sender=sender, relayer=relayer)
        seen_relayed += relayer is not None
        seen_null += relayer is None
        assert _event_line(e) == oracle({
            "pool_id": e.pool_id, "kind": e.kind, "block": e.height,
            "tx_index": e.tx_index, "log_index": e.log_index,
            "actor": e.actor, "tx_sender": e.tx_sender, "relayer": e.relayer})
    assert seen_relayed and seen_null


def test_transfer_line_matches_json_dumps():
    prng = Prng(37)
    addresses = [addr(f"t{i}") for i in range(4)] + list(AWKWARD)
    amounts = (0, 1, 10 ** 30, 2 ** 64 + 1)
    for _ in range(400):
        t = Transfer(**position(prng), sender=prng.choice(addresses),
                     recipient=prng.choice(addresses),
                     amount=prng.choice(amounts) + prng.randint(0, 999),
                     coin=prng.choice(AWKWARD))
        assert _transfer_line(t) == oracle({
            "block": t.height, "tx_index": t.tx_index,
            "log_index": t.log_index, "sender": t.sender,
            "recipient": t.recipient, "amount": str(t.amount),
            "coin": t.coin})


def assert_read_back_in_index_order(trace, path):
    # the oracle sorts the trace itself, as the index would keep it
    dataset = ingest(write_dataset(trace, path))
    assert dataset.events == tuple(sorted(trace.events, key=event_order))
    assert dataset.transfers == tuple(sorted(trace.transfers, key=transfer_order))
    assert dataset.token_transfers == tuple(sorted(trace.token_transfers, key=transfer_order))


@pytest.mark.parametrize("seed", range(4))
def test_seeded_traces_read_back_in_index_order(tmp_path, seed):
    assert_read_back_in_index_order(seeded_trace(Prng(seed)), tmp_path)


def test_generated_trace_is_proved_in_order_not_sorted(tmp_path, monkeypatch):
    calls = {"event_order": 0, "transfer_order": 0}

    def counted(name):
        key = getattr(anonset.synth, name)

        def wrapper(record):
            calls[name] += 1
            return key(record)
        return wrapper

    for name in calls:
        monkeypatch.setattr(anonset.synth, name, counted(name))
    trace = seeded_trace(Prng(3))
    assert trace.events and trace.transfers and trace.token_transfers
    write_dataset(trace, tmp_path / "in_order")
    assert calls == {"event_order": 0, "transfer_order": 0}

    prng = Prng(4)
    mixed = trace._replace(events=tuple(shuffled(trace.events, prng)),
                           transfers=tuple(shuffled(trace.transfers, prng)),
                           token_transfers=tuple(shuffled(trace.token_transfers, prng)))
    write_dataset(mixed, tmp_path / "shuffled")
    assert calls["event_order"] == len(trace.events)
    assert calls["transfer_order"] == len(trace.transfers) + len(trace.token_transfers)
    for file in sorted((tmp_path / "in_order").iterdir()):
        assert (tmp_path / "shuffled" / file.name).read_bytes() == file.read_bytes(), file.name


def shared_position_trace():
    """Records that share a position and differ in a field after it: a
    deposit and a withdrawal of one actor, two signers of one actor's
    deposits, two amounts of one sender and recipient; each group is handed
    over in reverse of the index order."""
    base = seeded_trace(Prng(0))
    pool = base.pools[0].pool_id
    a, b, c = addr("sa"), addr("sb"), addr("sc")
    height = base.first_block + 1
    events = [deposit(pool, a, height), withdrawal(pool, a, height),
              deposit(pool, b, height, sender=a), deposit(pool, b, height, sender=c),
              withdrawal(pool, c, height + 1, tx=2)]
    transfers = [transfer(a, b, amount, height) for amount in (3, 5, 8)] \
        + [transfer(b, a, 1, height + 1, tx=1), transfer(c, a, 2, height)]
    tokens = [transfer(a, b, amount, height, coin="TOK") for amount in (7, 9)]
    return base._replace(
        events=tuple(sorted(events, key=event_order, reverse=True)),
        transfers=tuple(sorted(transfers, key=transfer_order, reverse=True)),
        token_transfers=tuple(sorted(tokens, key=transfer_order, reverse=True)))


def test_shared_positions_read_back_in_index_order(tmp_path):
    assert_read_back_in_index_order(shared_position_trace(), tmp_path)


def sorted_without_tie(records) -> bool:
    """The oracle: the records equal their sort by position, and no two
    share one."""
    keys = [record_position(r) for r in records]
    return keys == sorted(keys) and len(set(keys)) == len(keys)


@pytest.mark.parametrize("seed", range(4))
def test_in_position_order_matches_the_sorting_oracle(seed):
    prng = Prng(seed)
    traces = (seeded_trace(prng), shared_position_trace())
    seen = {True: 0, False: 0}
    for trace in traces:
        for records in (trace.events, trace.transfers, trace.token_transfers):
            ordered = sorted(records, key=record_position)
            cases = [records, ordered, shuffled(ordered, prng), ordered[:1], [],
                     ordered[::-1]]
            if ordered:
                i = prng.randint(0, len(ordered) - 1)
                cases.append(ordered[:i + 1] + ordered[i:])  # a repeat beside its twin
            for case in cases:
                assert in_position_order(case) == sorted_without_tie(case), case
                assert in_position_order(tuple(case)) == in_position_order(case)
                seen[in_position_order(case)] += 1
    assert seen[True] and seen[False]


def test_duplicate_in_an_out_of_order_file_names_its_first_line(tmp_path):
    data = write_dataset(seeded_trace(Prng(5)), tmp_path / "data")
    path = data / "pool_events.jsonl"
    lines = path.read_text().splitlines()
    assert len(lines) > 3
    # the second line first, then the rest, then a copy of the third
    path.write_text("\n".join([lines[1], lines[0], *lines[2:], lines[2]]) + "\n")
    with pytest.raises(IngestError, match=re.escape(
            f"duplicate record (first seen on line 3) "
            f"[file=pool_events.jsonl, line={len(lines) + 1}]")):
        ingest(data)
