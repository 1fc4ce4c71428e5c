"""The dataset line encoders against ``json.dumps``.

``write_dataset`` spells each pool event and transfer line out by hand;
the oracle is the record as a dict through ``json.dumps`` with sorted
keys, which is what every line was before.  The records are seeded and
carry strings that need escaping: quotes, backslashes, control
characters, non-ASCII text and a lone surrogate.
"""

from __future__ import annotations

import json

from anonset.dataset import _event_line, _transfer_line
from anonset.ledger import DEPOSIT, WITHDRAWAL, PoolEvent, Transfer
from anonset.synth import Prng

from .conftest import addr

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
    seen_internal = 0
    for _ in range(400):
        t = Transfer(**position(prng), sender=prng.choice(addresses),
                     recipient=prng.choice(addresses),
                     amount=prng.choice(amounts) + prng.randint(0, 999),
                     coin=prng.choice(AWKWARD), internal=bool(prng.randint(0, 1)))
        seen_internal += t.internal
        assert _transfer_line(t) == oracle({
            "block": t.height, "tx_index": t.tx_index,
            "log_index": t.log_index, "sender": t.sender,
            "recipient": t.recipient, "amount": str(t.amount),
            "coin": t.coin, "internal": t.internal})
    assert 0 < seen_internal < 400
