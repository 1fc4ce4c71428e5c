"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Expected values come from three places only: closed-form arithmetic
checked by hand, independent brute-force oracles computed inside the
test, and planted ground truth embedded by the synthetic generator.

Criterion 8 (the mining launch drawing in address reusers) has no test:
no command reports it, and its only inputs were a generator path and an
analysis kept for that test alone.  Criteria 9 and 10 keep their numbers.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations

from anonset import heuristics, metrics, mining
from anonset.cli import main as cli_main
from anonset.groundtruth import score_links
from anonset.indexing import build_index
from anonset.ledger import (
    DEPOSIT,
    WITHDRAWAL,
    LinkPair,
    PoolConfig,
    PoolEvent,
    connected_components,
    pool_state,
    reduced_set,
    up_to,
)
from anonset.metrics import render_ratio
from anonset.mining import APClaim, anonymity_points, solve_multi_claim, solve_single_claim
from anonset.synth import (
    BEHAVIORS,
    DISCIPLINED,
    BehaviorProfile,
    GeneratorConfig,
    generate_trace,
    standard_pools,
)

from .conftest import addr, reduced


def _ok(criterion: int, message: str) -> None:
    print(f"[acceptance] criterion {criterion:>2} PASS — {message}")


def test_criterion_1_advantage_arithmetic():
    for reduction, expected in (("0.3418", "51.94"), ("0.5207", "108.63")):
        gain = metrics.advantage_increase_from_reduction(Fraction(reduction))
        assert abs(gain * 100 - Fraction(expected)) <= Fraction("0.05"), \
            f"{reduction} -> {float(gain * 100):.4f}, expected ~{expected}"
    _ok(1, "34.18% reduction -> 51.94% gain, 52.07% -> 108.63% (within 0.05 pp)")


def test_criterion_2_reward_points_worked_example():
    points = anonymity_points(
        deposit_blocks={"1": [11_476_000, 11_476_100], "100": [11_476_000]},
        withdrawal_blocks={"1": [11_476_200, 11_476_200], "100": [11_476_200]},
        weights=mining.DEFAULT_AM_WEIGHTS)
    assert points == 86_000
    _ok(2, "three-pair reward scenario totals exactly 86,000 points")


def test_criterion_3_validation_scoring():
    hub = "0x" + "f" * 40

    def fixture(tp, fp, fn, tn):
        numbered = [f"0x{i:040x}" for i in range(tp + fp + fn + tn)]
        pairs = [LinkPair(hub, a) for a in numbered]
        positives = pairs[:tp + fn]
        found = pairs[:tp] + pairs[tp + fn:tp + fn + fp]
        return found, positives, (frozenset({hub}), frozenset(numbered))

    cases = [
        ((229, 384, 0, 539_367), ("0.37", "1.00", "0.54")),
        ((50, 76, 3, 61_854), ("0.40", "0.94", "0.56")),
    ]
    for counts, expected in cases:
        found, positives, sides = fixture(*counts)
        report = score_links(found, positives, [], *sides)
        assert (report.tp, report.fp, report.fn, report.tn) == \
            (counts[0], counts[1], counts[2], counts[3])
        got = (render_ratio(report.precision), render_ratio(report.recall),
               render_ratio(report.f1))
        assert got == expected, f"{counts}: {got} != {expected}"
    _ok(3, "both confusion fixtures reproduce precision/recall/F1 at 2 decimals")


def test_criterion_4_pool_state_oracle():
    rng = random.Random(2024)
    pool = PoolConfig(pool_id="P", coin="C", denomination=17)
    actors = [addr(f"o{i}") for i in range(10)]

    for _ in range(1_000):
        events = []
        for h in range(rng.randrange(0, 51)):
            kind = DEPOSIT if rng.random() < 0.6 else WITHDRAWAL
            a = rng.choice(actors)
            events.append(PoolEvent(pool_id="P", kind=kind,
                                    height=h, tx_index=rng.randrange(3),
                                    actor=a, tx_sender=a))
        t = rng.randrange(0, 55)
        state = pool_state(pool, up_to(events, t))
        expected: dict[str, int] = {}
        for e in events:
            if e.height <= t:
                expected[e.actor] = expected.get(e.actor, 0) + \
                    (17 if e.kind == DEPOSIT else -17)
        assert state == expected
        for a in actors[:3]:
            assert pool_state(pool, up_to(events, t)).get(a, 0) == expected.get(a, 0)

    for _ in range(1_000):
        state = {a: rng.randrange(-4, 5) * 17 for a in rng.sample(actors, 6)}
        depositors = frozenset(a for a, b in state.items() if b > 0)
        pairs = [LinkPair(*rng.sample(actors, 2)) for _ in range(rng.randrange(1, 7))]
        base = reduced_set(state, pairs, depositors)
        assert base <= depositors
        for perm in list(permutations(pairs))[:4]:
            assert reduced_set(state, list(perm), depositors) == base
    _ok(4, "1,000 random pools match the brute-force counter; "
           "1,000 link sets reduce order-independently")


def _views(trace):
    index = build_index(trace.transfers, trace.token_transfers, trace.events,
                        dict(trace.labels))
    return {pool.pool_id: heuristics.pool_view(index, pool) for pool in trace.pools}


def _run_tagged(tag, views):
    links = heuristics.run_heuristics([tag], list(views.values()))
    return {pool_id: mine[tag] for pool_id, mine in links.items()}


def _isolated_trace(behavior: str, seed: int, users: int = 210):
    cfg = GeneratorConfig(profile=BehaviorProfile.pure(behavior),
                          pools=standard_pools(), user_count=users,
                          block_span=20_000)
    return generate_trace(cfg, seed)


def test_criterion_5_planted_recovery():
    seeds = (11, 22, 33)
    class_map = {"h2": "h2-improper-sender", "h3": "h3-related-transfer",
                 "h4": "h4-intermediary", "h5": "h5-cross-pool"}
    for tag, behavior in class_map.items():
        for seed in seeds:
            trace = _isolated_trace(behavior, seed)
            planted = trace.ground_truth.links_by_heuristic[tag]
            assert len(planted) >= 200
            found = frozenset()
            for links in _run_tagged(tag, _views(trace)).values():
                found |= links
            tp = len(found & planted)
            assert tp == len(found) == len(planted), \
                f"{tag} seed {seed}: precision/recall not 1.0"
    for seed in seeds:
        trace = _isolated_trace("h1-reuser", seed)
        gt = trace.ground_truth
        views = _views(trace)
        for pool_id, links in _run_tagged("h1", views).items():
            depositors = {e.actor for e in trace.events
                          if e.pool_id == pool_id and e.kind == DEPOSIT}
            assert links == frozenset()
            assert reduced(views[pool_id], links) == \
                depositors - gt.fully_withdrawn_reusers
    for seed in seeds:
        trace = _isolated_trace(DISCIPLINED, seed)
        for tag in ("h1", "h2", "h3", "h4", "h5"):
            for links in _run_tagged(tag, _views(trace)).values():
                assert links == frozenset()
    _ok(5, "h2-h5 recover planted links at precision 1.0 / recall 1.0 over 3 seeds; "
           "reuse filtering and the disciplined negative control hold")


def test_criterion_6_reduced_set_containment():
    profiles = [BehaviorProfile.pure(b) for b in BEHAVIORS] + \
        [BehaviorProfile.from_weights({b: 1 for b in BEHAVIORS})]
    for i, profile in enumerate(profiles):
        cfg = GeneratorConfig(profile=profile, pools=standard_pools(),
                              user_count=80, block_span=20_000)
        trace = generate_trace(cfg, 100 + i)
        t = trace.last_block
        views = _views(trace)
        results_by_tag = {tag: _run_tagged(tag, views)
                          for tag in ("h1", "h2", "h3", "h4", "h5")}
        for pool in trace.pools:
            observed = {e.actor for e in trace.events
                        if e.pool_id == pool.pool_id and e.kind == DEPOSIT
                        and e.height <= t}
            if not observed:
                continue
            view = views[pool.pool_id]
            per = {tag: links[pool.pool_id] for tag, links in results_by_tag.items()}
            sizes = []
            for tag, links in per.items():
                own = reduced(view, links)
                assert own <= observed, f"{tag} leaks outside the observed set"
                sizes.append(len(own))
            combined = reduced(view, *per.values())
            assert combined <= observed
            assert len(combined) <= min(sizes)
    _ok(6, "reduced sets stay inside the observed set and combining never grows them")


def test_criterion_7_solver_against_exhaustive_oracle():
    rng = random.Random(777)

    def oracle_single(t_d, claim, weight, ws):
        hits = [b for b in ws
                if b > t_d and b < claim.block and
                weight * (b - t_d) == claim.ap]
        return sorted(set(hits)), len(hits)

    def oracle_multi(deps, claim, weight, ws):
        if claim.ap % weight != 0:
            return set()
        deps = sorted(deps)
        events = [b for b in ws if b < claim.block]
        target = claim.ap // weight
        out = set()
        for combo in combinations(range(len(events)), len(deps)):
            blocks = sorted(events[i] for i in combo)
            if all(b > d for b, d in zip(blocks, deps)) and \
                    sum(b - d for b, d in zip(blocks, deps)) == target:
                out.add(tuple(blocks))
        return out

    checked_exact = 0
    for trial in range(500):
        weight = rng.choice([10, 20, 50, 400])
        claim_block = 500
        if trial % 2 == 0:
            # keep every instance at <= 20 candidate withdrawals, planted included
            n_wd = rng.randrange(1, 20)
            ws = sorted(rng.randrange(1, 480) for _ in range(n_wd))
            t_d = rng.randrange(1, 400)
            if rng.random() < 0.6:
                gap = rng.randrange(1, 80)
                ws = sorted(ws + [t_d + gap])
                ap = weight * gap
            else:
                ap = weight * rng.randrange(1, 100) + rng.choice([0, 1, 3])
            claim = APClaim(recipient=addr("a7"), block=claim_block, ap=ap)
            got = solve_single_claim(t_d, claim, weight, ws)
            blocks, multiplicity = oracle_single(t_d, claim, weight, ws)
            if claim.ap % weight or not blocks:
                assert got.status == mining.NONE
                assert got.solutions == ()
            else:
                assert got.status == mining.EXACT
                assert [b for (b,) in got.solutions] == blocks
                assert got.multiplicity == multiplicity
                checked_exact += 1
                (tw,) = got.solutions[0]
                assert anonymity_points({"p": [t_d]}, {"p": [tw]},
                                        {"p": weight}) == claim.ap
        else:
            u = rng.randrange(2, 5)
            deps = sorted(rng.sample(range(1, 300), u))
            n_wd = rng.randrange(u, 21 - u)
            ws = sorted(rng.randrange(1, 480) for _ in range(n_wd))
            if rng.random() < 0.6:
                planted = sorted(d + rng.randrange(1, 60) for d in deps)
                ws = sorted(ws + planted)
                ap = weight * sum(b - d for b, d in zip(planted, deps))
            else:
                ap = weight * rng.randrange(1, 300) + rng.choice([0, 2])
            assert len(ws) <= 20
            claim = APClaim(recipient=addr("b7"), block=claim_block, ap=ap)
            got = solve_multi_claim(deps, claim, weight, ws)
            expected = oracle_multi(deps, claim, weight, ws)
            assert got.status != mining.INCONCLUSIVE
            assert set(got.solutions) == expected
            assert (got.status == mining.EXACT) == bool(expected)
            for tup in got.solutions:
                checked_exact += 1
                assert anonymity_points({"p": deps}, {"p": list(tup)},
                                        {"p": weight}) == claim.ap
    assert checked_exact >= 100
    _ok(7, f"500 random instances match the exhaustive oracle "
           f"({checked_exact} exact solutions re-derive their claims bit-exactly)")


def test_criterion_9_cluster_oracle():
    rng = random.Random(99)
    nodes = [addr(f"n{i}") for i in range(120)]
    for _ in range(100):
        n_edges = rng.randrange(1, 1_001)
        seen, pairs = set(), []
        while len(pairs) < n_edges:
            a, b = rng.sample(nodes, 2)
            key = (min(a, b), max(a, b))
            if key in seen:
                continue
            seen.add(key)
            pairs.append(LinkPair(a, b))
        clusters = connected_components(pairs)
        got = set(clusters)

        adjacency: dict[str, set[str]] = {}
        for p in pairs:
            adjacency.setdefault(p.a1, set()).add(p.a2)
            adjacency.setdefault(p.a2, set()).add(p.a1)
        expected = set()
        visited: set[str] = set()
        for start in adjacency:
            if start in visited:
                continue
            stack, component = [start], set()
            while stack:
                node = stack.pop()
                if node in component:
                    continue
                component.add(node)
                stack.extend(adjacency[node] - component)
            visited |= component
            expected.add(tuple(sorted(component)))
        assert got == expected
        assert list(clusters) == sorted(clusters)  # ordered by smallest member
        histogram = metrics.cluster_size_histogram(clusters)
        assert sum(Fraction(n, len(clusters)) for n in histogram.values()) == 1
    _ok(9, "100 random graphs match brute-force components; shares sum to 1 exactly")


def test_criterion_10_round_trip_determinism(tmp_path):
    datasets = []
    for name in ("d1", "d2"):
        data = tmp_path / name
        assert cli_main(["synth", "--profile", "mixed", "--seed", "12",
                         "--users", "48", "--out", str(data)]) == 0
        datasets.append(data)
    for file in sorted(datasets[0].iterdir()):
        assert file.read_bytes() == (datasets[1] / file.name).read_bytes()

    reports = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        for command in (["anonymity", "--combine", "--tas"],
                        ["clusters"], ["relayers"], ["flows"],
                        ["flags", "--threshold", "2000"], ["am-link"]):
            assert cli_main([command[0], "--data", str(datasets[0]),
                             "--out", str(out), *command[1:]]) == 0
        reports.append(out)
    compared = 0
    for file in sorted(reports[0].iterdir()):
        assert file.read_bytes() == (reports[1] / file.name).read_bytes(), file.name
        compared += 1
    assert compared == 12
    _ok(10, "generation and all report files are byte-identical across runs")
