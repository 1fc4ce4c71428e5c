from __future__ import annotations

import pytest

from anonset.heuristics import PoolView, pool_view
from anonset.indexing import build_index
from anonset.ledger import (
    DEPOSIT,
    WITHDRAWAL,
    PoolConfig,
    PoolEvent,
    Transfer,
    reduced_set,
    up_to,
)


def addr(tag: str) -> str:
    """Deterministic canonical address from a short tag."""
    digest = tag.encode().hex()
    return "0x" + (digest * 40)[:40]


def deposit(pool_id: str, actor: str, height: int, tx: int = 0,
            sender: str | None = None) -> PoolEvent:
    return PoolEvent(pool_id=pool_id, kind=DEPOSIT, height=height, tx_index=tx,
                     actor=actor, tx_sender=sender or actor)


def withdrawal(pool_id: str, actor: str, height: int, tx: int = 0,
               sender: str | None = None, relayer: str | None = None) -> PoolEvent:
    return PoolEvent(pool_id=pool_id, kind=WITHDRAWAL, height=height, tx_index=tx,
                     actor=actor, tx_sender=relayer or sender or actor,
                     relayer=relayer)


def transfer(sender: str, recipient: str, amount: int, height: int,
             tx: int = 0, coin: str = "ETH") -> Transfer:
    return Transfer(height=height, tx_index=tx, sender=sender,
                    recipient=recipient, amount=amount, coin=coin)


def view(pool: PoolConfig, events, t: int, transfers=(), tokens=(),
         labels=None) -> PoolView:
    """``pool`` at the cut ``t``, over an index of just the given records
    up to the cut."""
    index = build_index(up_to(transfers, t), up_to(tokens, t), up_to(events, t), labels)
    return pool_view(index, pool)


def reduced(v: PoolView, *link_sets) -> frozenset[str]:
    """``v``'s reduced set under the union of ``link_sets``."""
    return reduced_set(v.state, frozenset().union(*link_sets), v.depositors)


D1, D2, W1 = addr("d1"), addr("d2"), addr("w1")


@pytest.fixture
def p100() -> PoolConfig:
    return PoolConfig(pool_id="P100", coin="ETH", denomination=100, am_weight=400)


@pytest.fixture
def p100_events() -> list[PoolEvent]:
    # d1 deposits once, d2 twice, w1 withdraws once
    return [
        deposit("P100", D1, 10),
        deposit("P100", D2, 11),
        deposit("P100", D2, 12),
        withdrawal("P100", W1, 20),
    ]
