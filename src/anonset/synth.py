"""Seeded synthetic mixer traces with planted ground truth.

The generator emits a complete pool history (events, transfers, labels,
relayer registry, reward claims) in which every user follows exactly one
behavior script.  Each non-disciplined script produces precisely the
on-chain pattern one heuristic detects and nothing that triggers any
other, so heuristics can be verified for both recall and precision
against the planted links.

Isolation between behavior classes rests on three construction rules:

* the address space is partitioned per behavior class, so scripts can
  never collide on an address;
* every depositor outside the intermediary class is funded by a single
  exchange-labeled faucet, which the intermediary rule ignores; and
* only cross-pool users touch more than one pool, and their per-pool
  deposit-count vectors are pairwise distinct, so cross-pool matching
  cannot pair two different users.

Randomness comes from a splitmix64 stream seeded by the caller: identical
(config, seed) inputs reproduce the trace bit for bit on any platform.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .errors import ConfigError, InputError
from .ledger import (
    DEPOSIT,
    WITHDRAWAL,
    Address,
    LinkPair,
    PoolConfig,
    PoolEvent,
    Transfer,
    Validated,
    pool_state,
)
from .mining import DEFAULT_AM_WEIGHTS, APClaim, anonymity_points

DISCIPLINED = "disciplined"
H1_REUSER = "h1-reuser"
H2_IMPROPER = "h2-improper-sender"
H3_RELATED = "h3-related-transfer"
H4_INTERMEDIARY = "h4-intermediary"
H5_CROSS = "h5-cross-pool"
AM_SPECULATOR = "am-speculator"
ATTACKER = "attacker-fund-then-deposit"

BEHAVIORS = (DISCIPLINED, H1_REUSER, H2_IMPROPER, H3_RELATED,
             H4_INTERMEDIARY, H5_CROSS, AM_SPECULATOR, ATTACKER)

_BEHAVIOR_CODE = {name: i + 1 for i, name in enumerate(BEHAVIORS)}

_MASK64 = (1 << 64) - 1


class Prng:
    """splitmix64: state advances by the golden-gamma constant, outputs
    are finalized with two xor-shift multiplies.  Chosen for portability:
    the whole algorithm is right here."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi]; the tiny modulo bias is
        irrelevant for trace generation."""
        if hi < lo:
            raise InputError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)

    def choice(self, seq: Sequence):
        return seq[self.randint(0, len(seq) - 1)]


def _addr(behavior: str, user: int, role: int) -> Address:
    return f"0x{_BEHAVIOR_CODE[behavior]:02x}{user:036x}{role:02x}"


FAUCET = "0x" + "e" * 38 + "01"


def _relayer_addr(i: int) -> Address:
    return f"0x{'e' * 30}{i:08x}02"


FIRST_BLOCK = 1_000  # every trace starts here
RELAYER_COUNT = 3
SPECULATOR_MAX_DEPOSITS = 3  # a speculator makes 1 to this many deposits
ATTACKER_MIN_VOLUME = 2_000  # base units each attacker deposits at least


class _BehaviorProfileFields(NamedTuple):
    fractions: Mapping[str, Fraction]


class BehaviorProfile(Validated, _BehaviorProfileFields):
    """Exact user-mix fractions per behavior; they must sum to one."""

    __slots__ = ()

    def __new__(cls, fractions: Mapping[str, Fraction]):
        unknown = set(fractions) - set(BEHAVIORS)
        if unknown:
            raise ConfigError(f"unknown behaviors: {sorted(unknown)}")
        total = sum(Fraction(f) for f in fractions.values())
        if any(Fraction(f) < 0 for f in fractions.values()):
            raise ConfigError("behavior fractions cannot be negative")
        if total != 1:
            raise ConfigError(f"behavior fractions must sum to 1, got {total}")
        return tuple.__new__(cls, (fractions,))

    @classmethod
    def pure(cls, behavior: str) -> "BehaviorProfile":
        return cls(fractions={behavior: Fraction(1)})

    @classmethod
    def from_weights(cls, weights: Mapping[str, int | Fraction]) -> "BehaviorProfile":
        total = sum(Fraction(w) for w in weights.values())
        if total <= 0:
            raise ConfigError("profile weights must be positive")
        return cls(fractions={name: Fraction(w) / total for name, w in weights.items()})

    def apportion(self, count: int) -> dict[str, int]:
        """Largest-remainder apportionment of ``count`` users, determinate
        down to the fixed behavior order."""
        shares = {b: Fraction(self.fractions.get(b, 0)) * count for b in BEHAVIORS}
        out = {b: math.floor(s) for b, s in shares.items()}
        leftover = count - sum(out.values())
        remainders = sorted(shares.items(), key=lambda kv: (kv[1] - math.floor(kv[1]), ),
                            reverse=True)
        for b, _ in remainders[:leftover]:
            out[b] += 1
        return {b: n for b, n in out.items() if n}


def standard_pools() -> tuple[PoolConfig, ...]:
    """The canonical four ETH pools, one per denomination of
    :data:`mining.DEFAULT_AM_WEIGHTS` and with its mining weight, at 1000
    base units per ETH."""
    return tuple(PoolConfig(pool_id=f"P{label}", coin="ETH",
                            denomination=int(Fraction(label) * 1000), am_weight=weight)
                 for label, weight in DEFAULT_AM_WEIGHTS.items())


class GeneratorConfig(NamedTuple):
    profile: BehaviorProfile
    pools: tuple[PoolConfig, ...]
    user_count: int
    block_span: int


class AmRecord(NamedTuple):
    """Planted truth behind one reward claim."""

    recipient: Address
    pool_id: str
    deposit_blocks: tuple[int, ...]
    withdrawal_blocks: tuple[int, ...]
    ap: int
    claim_block: int


class GroundTruth(NamedTuple):
    """What the generator planted.  ``write_dataset`` writes the last two
    fields to the sidecar; the first three live only in process."""

    links_by_heuristic: Mapping[str, frozenset[LinkPair]]  # the pairs h2-h5 must find
    fully_withdrawn_reusers: frozenset[Address]  # h1 removes exactly these
    attackers: frozenset[Address]  # `flags` must flag exactly these
    am_truth: tuple[AmRecord, ...]  # each speculator's blocks and claim
    active_depositors: Mapping[str, frozenset[Address]]  # pool id -> true set


class SynthTrace(NamedTuple):
    pools: tuple[PoolConfig, ...]
    events: tuple[PoolEvent, ...]
    transfers: tuple[Transfer, ...]
    token_transfers: tuple[Transfer, ...]
    labels: Mapping[Address, tuple[str, ...]]
    relayers: tuple[Address, ...]
    ap_claims: tuple[APClaim, ...]
    first_block: int
    last_block: int
    ground_truth: GroundTruth


class _Builder:
    def __init__(self):
        self.cursor = FIRST_BLOCK - 1
        self.events: list[PoolEvent] = []
        self.transfers: list[Transfer] = []
        self.token_transfers: list[Transfer] = []
        self.claims: list[APClaim] = []

    def tick(self) -> int:
        self.cursor += 1
        return self.cursor

    def fund(self, sender: Address, recipient: Address, amount: int,
             coin: str) -> Transfer:
        tr = Transfer(height=self.tick(), sender=sender,
                      recipient=recipient, amount=amount, coin=coin)
        self.transfers.append(tr)
        return tr

    def token(self, sender: Address, recipient: Address, amount: int,
              coin: str) -> Transfer:
        tr = Transfer(height=self.tick(), sender=sender,
                      recipient=recipient, amount=amount, coin=coin)
        self.token_transfers.append(tr)
        return tr

    def deposit(self, pool: PoolConfig, actor: Address) -> PoolEvent:
        e = PoolEvent(pool_id=pool.pool_id, kind=DEPOSIT,
                      height=self.tick(),
                      actor=actor, tx_sender=actor)
        self.events.append(e)
        return e

    def withdraw(self, pool: PoolConfig, actor: Address,
                 tx_sender: Address | None = None,
                 relayer: Address | None = None) -> PoolEvent:
        e = PoolEvent(pool_id=pool.pool_id, kind=WITHDRAWAL,
                      height=self.tick(),
                      actor=actor, tx_sender=relayer or tx_sender or actor,
                      relayer=relayer)
        self.events.append(e)
        return e

    def claim(self, recipient: Address, ap: int) -> APClaim:
        c = APClaim(recipient=recipient, block=self.tick(), ap=ap)
        self.claims.append(c)
        return c


def _count_vector(index: int, n_users: int, n_pools: int) -> list[int]:
    """Pairwise-distinct per-pool deposit counts via mixed-radix digits."""
    base = max(2, math.ceil(n_users ** (1 / n_pools)))
    while base ** n_pools < n_users:
        base += 1
    digits = []
    rest = index
    for _ in range(n_pools):
        digits.append(rest % base + 1)
        rest //= base
    return digits


def generate_trace(config: GeneratorConfig, seed: int) -> SynthTrace:
    """Deterministically expand a behavior mix into a full trace."""
    if config.user_count < 1:
        raise ConfigError("need at least one user")
    if config.block_span < 10:
        raise ConfigError("block span must be at least 10")

    counts = config.profile.apportion(config.user_count)
    if counts.get(H5_CROSS) and len(config.pools) < 2:
        raise ConfigError("cross-pool users need at least two pools")
    coins = {p.coin for p in config.pools}
    if len(coins) != 1:
        raise ConfigError("pools must share one coin")
    (coin,) = coins

    prng = Prng(seed)
    build = _Builder()
    relayers = tuple(_relayer_addr(i) for i in range(RELAYER_COUNT))
    planted: dict[str, set[LinkPair]] = {h: set() for h in ("h1", "h2", "h3", "h4", "h5")}
    fully_withdrawn: set[Address] = set()
    attackers: set[Address] = set()
    am_truth: list[AmRecord] = []

    def rel() -> Address:
        return relayers[prng.randint(0, len(relayers) - 1)]

    def one_pool() -> PoolConfig:
        return config.pools[prng.randint(0, len(config.pools) - 1)]

    h5_index = 0
    for behavior in BEHAVIORS:
        for u in range(counts.get(behavior, 0)):
            d = _addr(behavior, u, 0xD1)
            w = _addr(behavior, u, 0xA2)

            if behavior == DISCIPLINED:
                pool = one_pool()
                k = prng.randint(1, 2)
                j = prng.randint(0, k)
                build.fund(FAUCET, d, k * pool.denomination, coin)
                for _ in range(k):
                    build.deposit(pool, d)
                for _ in range(j):
                    build.withdraw(pool, w, relayer=rel())

            elif behavior == H1_REUSER:
                pool = one_pool()
                k = prng.randint(1, 2)
                j = prng.randint(0, k)
                build.fund(FAUCET, d, k * pool.denomination, coin)
                for _ in range(k):
                    build.deposit(pool, d)
                for _ in range(j):
                    build.withdraw(pool, d)
                if j == k:
                    fully_withdrawn.add(d)

            elif behavior == H2_IMPROPER:
                pool = one_pool()
                k = prng.randint(1, 2)
                build.fund(FAUCET, d, k * pool.denomination, coin)
                for _ in range(k):
                    build.deposit(pool, d)
                build.withdraw(pool, w, tx_sender=d)
                planted["h2"].add(LinkPair(d, w))

            elif behavior == H3_RELATED:
                pool = one_pool()
                build.fund(FAUCET, d, pool.denomination, coin)
                build.deposit(pool, d)
                build.withdraw(pool, w, relayer=rel())
                amount = prng.randint(1, pool.denomination)
                direction = prng.randint(0, 3)
                if direction == 0:
                    build.fund(d, w, amount, coin)
                elif direction == 1:
                    build.fund(w, d, amount, coin)
                elif direction == 2:
                    build.token(d, w, amount, "TOK")
                else:
                    build.token(w, d, amount, "TOK")
                planted["h3"].add(LinkPair(d, w))

            elif behavior == H4_INTERMEDIARY:
                pool = one_pool()
                funder = _addr(behavior, u, 0xF3)
                k = prng.randint(1, 2)
                build.fund(funder, d, k * pool.denomination, coin)
                for _ in range(k):
                    build.deposit(pool, d)
                planted["h4"].add(LinkPair(d, funder))

            elif behavior == H5_CROSS:
                vector = _count_vector(h5_index, counts[H5_CROSS], len(config.pools))
                h5_index += 1
                total = sum(c * p.denomination for c, p in zip(vector, config.pools))
                build.fund(FAUCET, d, total, coin)
                for count, pool in zip(vector, config.pools):
                    for _ in range(count):
                        build.deposit(pool, d)
                for count, pool in zip(vector, config.pools):
                    for _ in range(count):
                        build.withdraw(pool, w, relayer=rel())
                planted["h5"].add(LinkPair(d, w))

            elif behavior == AM_SPECULATOR:
                pool = one_pool()
                n = prng.randint(1, SPECULATOR_MAX_DEPOSITS)
                build.fund(FAUCET, d, n * pool.denomination, coin)
                dep_blocks = [build.deposit(pool, d).height for _ in range(n)]
                wd_blocks = [build.withdraw(pool, w, relayer=rel()).height
                             for _ in range(n)]
                ap = anonymity_points({pool.pool_id: dep_blocks}, {pool.pool_id: wd_blocks},
                                      {pool.pool_id: pool.am_weight})
                claim = build.claim(d, ap)
                am_truth.append(AmRecord(
                    recipient=d, pool_id=pool.pool_id,
                    deposit_blocks=tuple(dep_blocks),
                    withdrawal_blocks=tuple(wd_blocks),
                    ap=ap, claim_block=claim.block))

            elif behavior == ATTACKER:
                pool = one_pool()
                build.withdraw(pool, d, relayer=rel())
                n = -(-ATTACKER_MIN_VOLUME // pool.denomination)
                build.fund(FAUCET, d, n * pool.denomination, coin)
                for _ in range(n):
                    build.deposit(pool, d)
                attackers.add(d)

    last_block = FIRST_BLOCK + config.block_span
    if build.cursor > last_block:
        raise ConfigError(
            f"block span {config.block_span} too small: trace needs "
            f"{build.cursor - FIRST_BLOCK + 1} blocks")

    labels: dict[Address, tuple[str, ...]] = {FAUCET: ("exchange",)}
    for r in relayers:
        labels[r] = ("relayer",)
    for a in sorted(attackers):
        labels[a] = ("malicious",)

    active = {}
    for pool in config.pools:
        state = pool_state(pool, [e for e in build.events if e.pool_id == pool.pool_id])
        active[pool.pool_id] = frozenset(a for a, b in state.items() if b > 0)

    return SynthTrace(
        pools=tuple(config.pools),
        events=tuple(build.events),
        transfers=tuple(build.transfers),
        token_transfers=tuple(build.token_transfers),
        labels=labels,
        relayers=relayers,
        ap_claims=tuple(build.claims),
        first_block=FIRST_BLOCK,
        last_block=last_block,
        ground_truth=GroundTruth(
            links_by_heuristic={h: frozenset(v) for h, v in planted.items()},
            fully_withdrawn_reusers=frozenset(fully_withdrawn),
            attackers=frozenset(attackers),
            am_truth=tuple(am_truth),
            active_depositors=active))

