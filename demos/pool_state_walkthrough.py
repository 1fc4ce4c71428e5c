"""Walk through the pool-state algebra on a four-event history.

A fixed-denomination pool only ever sees two event shapes, deposit and
withdrawal, so an address's position is fully described by a signed
multiple of the denomination.  This script builds the smallest
interesting history, then shows how one same-owner link collapses the
state and shrinks the set of people a withdrawal could belong to.
"""

from anonset.ledger import (
    LinkPair,
    PoolConfig,
    PoolEvent,
    connected_components,
    pool_state,
    reduced_set,
)
from anonset.metrics import adversary_advantage

D1 = "0x" + "11" * 20
D2 = "0x" + "22" * 20
W1 = "0x" + "33" * 20

pool = PoolConfig(pool_id="P100", coin="ETH", denomination=100)
events = [
    PoolEvent("P100", "deposit", 10, actor=D1, tx_sender=D1),
    PoolEvent("P100", "deposit", 11, actor=D2, tx_sender=D2),
    PoolEvent("P100", "deposit", 12, actor=D2, tx_sender=D2),
    PoolEvent("P100", "withdrawal", 20, actor=W1, tx_sender=W1),
]

print("history: d1 deposits once, d2 twice, w1 withdraws once (p = 100)\n")

state = pool_state(pool, events)
for address, balance in sorted(state.items()):
    print(f"  balance {address[:10]}…  {balance:+d}")
print(f"  total {sum(state.values()):+d}  (3 deposits - 1 withdrawal = +200)")

print(f"\nd2 alone: {state.get(D2, 0):+d}")

print("\nthe observed anonymity set is {d1, d2}: two candidate depositors")
print(f"adversary advantage: {adversary_advantage(2)} per withdrawal\n")

print("now assert that d1 and w1 are the same owner (link evidence):")
links = [LinkPair(D1, W1)]
for members in connected_components(links):
    names = " + ".join(a[:10] + "…" for a in members)
    print(f"  cluster {names}  {sum(state.get(a, 0) for a in members):+d}")
depositors = frozenset(e.actor for e in events if e.kind == "deposit")
reduced = reduced_set(state, links, depositors)
print("\nreduced set:", sorted(a[:10] + "…" for a in reduced))
print("only d2 still plausibly holds a note; the withdrawal hides behind one")
print(f"address, and the adversary advantage is now {adversary_advantage(len(reduced))}")
