"""Seeded properties of the analysis on generated traces.

Each loop draws a behaviour mix, a trace and cuts from ``synth.Prng``, so
a failure names its seed and replays exactly.  The properties:

* the order records are handed to the index changes no result;
* a set reduced under several heuristics' links together is never
  larger than the smallest set one of them reduces to;
* every reduced set lies inside the pool's observed depositors.
"""

from __future__ import annotations

import pytest

from anonset.heuristics import default_tags, pool_view, run_heuristics
from anonset.indexing import build_index
from anonset.ledger import up_to
from anonset.synth import (
    BEHAVIORS,
    BehaviorProfile,
    GeneratorConfig,
    Prng,
    generate_trace,
    standard_pools,
)

from .conftest import reduced

SEEDS = range(8)


def seeded_trace(prng: Prng):
    weights = {b: prng.randint(0, 3) for b in BEHAVIORS}
    weights[prng.choice(BEHAVIORS)] += 1
    users = prng.randint(10, 50)
    config = GeneratorConfig(profile=BehaviorProfile.from_weights(weights),
                             pools=standard_pools(), user_count=users,
                             block_span=100 * users)
    return generate_trace(config, prng.next_u64())


def shuffled(records, prng: Prng) -> list:
    out = list(records)
    for i in range(len(out) - 1, 0, -1):
        j = prng.randint(0, i)
        out[i], out[j] = out[j], out[i]
    return out


def cuts(trace, prng: Prng) -> list[int]:
    return [prng.randint(trace.first_block, trace.last_block) for _ in range(2)] \
        + [trace.last_block]


def all_results(trace, t: int, transfers, tokens, events):
    index = build_index(up_to(transfers, t), up_to(tokens, t), up_to(events, t),
                        dict(trace.labels))
    views = [pool_view(index, pool) for pool in trace.pools]
    results = run_heuristics(default_tags(len(views)), views)
    return views, results


def pool_events(v):
    """``v``'s pool's events in the order of its index."""
    return [e for e in v.index.pool_events if e.pool_id == v.pool.pool_id]


@pytest.mark.parametrize("seed", SEEDS)
def test_index_order_changes_no_result(seed):
    prng = Prng(seed)
    trace = seeded_trace(prng)
    for t in cuts(trace, prng):
        views, results = all_results(trace, t, trace.transfers,
                                     trace.token_transfers, trace.events)
        views_2, results_2 = all_results(trace, t, shuffled(trace.transfers, prng),
                                         shuffled(trace.token_transfers, prng),
                                         shuffled(trace.events, prng))
        assert results_2 == results
        for v, v2 in zip(views, views_2):
            assert (pool_events(v2), v2.state, v2.depositors, v2.withdrawers) == \
                (pool_events(v), v.state, v.depositors, v.withdrawers)
            mine = list(results[v.pool.pool_id].values())
            assert reduced(v2, *mine) == reduced(v, *mine)


@pytest.mark.parametrize("seed", SEEDS)
def test_combined_and_reduced_sets_are_bounded(seed):
    prng = Prng(1000 + seed)
    trace = seeded_trace(prng)
    combined = 0
    for t in cuts(trace, prng):
        views, results = all_results(trace, t, trace.transfers,
                                     trace.token_transfers, trace.events)
        for v in views:
            mine = list(results[v.pool.pool_id].values())
            assert all(reduced(v, links) <= v.depositors for links in mine)
            # every non-empty subset of the pool's link sets, drawn at random
            for _ in range(4):
                subset = [links for links in mine if prng.randint(0, 1)] or mine[:1]
                merged = reduced(v, *subset)
                assert merged <= v.depositors
                assert len(merged) <= min(len(reduced(v, links)) for links in subset)
                combined += 1
    assert combined == 3 * 4 * len(trace.pools)
