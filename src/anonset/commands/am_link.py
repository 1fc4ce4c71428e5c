"""``am-link``: classify reward claimants and solve their timing."""

from __future__ import annotations

import sys

from .. import mining
from ..errors import EXIT_INCONCLUSIVE, EXIT_OK
from ..ledger import DEPOSIT
from . import _load, _table, _write_report

FILES = ("pools", "pool_events", "ap_claims")


def _claim_events(events) -> tuple[dict[str, list], dict[str, list[int]]]:
    """The pool events folded as they are read: each actor's deposits, and
    each pool's withdrawal heights, sorted, as the events are in record order."""
    deposits_by_actor: dict[str, list] = {}
    withdrawal_blocks: dict[str, list[int]] = {}
    for e in events:
        if e.kind == DEPOSIT:
            deposits_by_actor.setdefault(e.actor, []).append(e)
        else:
            withdrawal_blocks.setdefault(e.pool_id, []).append(e.height)
    return deposits_by_actor, withdrawal_blocks


def run(args, ingest) -> int:
    if args.search_cap is None:
        args.search_cap = mining.DEFAULT_SEARCH_CAP
    dataset = _load(args, ingest, FILES, _claim_events)
    deposits_by_actor, withdrawal_blocks = dataset.events
    claimants: dict[str, list] = {}
    for claim in dataset.ap_claims:
        claimants.setdefault(claim.recipient, []).append(claim)

    outcomes = []
    statuses = []
    for address in sorted(claimants):
        claims = claimants[address]
        own = deposits_by_actor.get(address, [])
        category = mining.classify_claimant(address, own, claims)
        entry = {"address": address, "category": category, "claims": len(claims)}
        if category in (mining.ONE_ONE_ONE, mining.N_ONE_ONE):
            pool = dataset.pool(own[0].pool_id)
            claim = claims[0]
            if category == mining.ONE_ONE_ONE:
                solution = mining.solve_single_claim(
                    own[0].height, claim, pool.am_weight,
                    withdrawal_blocks.get(pool.pool_id, []))
            else:
                solution = mining.solve_multi_claim(
                    [e.height for e in own], claim, pool.am_weight,
                    withdrawal_blocks.get(pool.pool_id, []), search_cap=args.search_cap)
            statuses.append(solution.status)
            entry.update({
                "pool_id": pool.pool_id,
                "status": solution.status,
                "solutions": solution.solutions,
                "multiplicity": solution.multiplicity,
                "explored": solution.explored})
        else:
            entry["status"] = "not-solved"
        outcomes.append(entry)

    payload = {"command": "am-link", "search_cap": args.search_cap,
               "claimants": outcomes}
    rows = [[o["address"], o["category"], o.get("status", "-"),
             str(len(o.get("solutions", [])))] for o in outcomes]
    _write_report(args, "am-link", payload,
                  _table(["address", "category", "status", "solutions"], rows))
    if args.strict and statuses and all(s == mining.INCONCLUSIVE for s in statuses):
        print("error: every solver run was inconclusive", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    return EXIT_OK
