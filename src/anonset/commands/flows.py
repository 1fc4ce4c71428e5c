"""``flows``: distance-n extensions and coin-flow aggregation."""

from __future__ import annotations

from ..errors import EXIT_OK
from . import _cut, _load, _table, _write_report

FILES = ("pools", "pool_events", "transfers", "token_transfers")


def run(args, ingest) -> int:
    dataset = _load(args, ingest, FILES)
    t = _cut(args, dataset)
    index = dataset.build_index(t)
    # per direction: the payload key of its distance sets, their query, the
    # cover query, the claim's far end, and the keys of the flows it ranks
    directions = (
        ("depositors", index.depositors_at_distance, index.source_transfers, "sender",
         "inflow_sources", "uncovered_inflow"),
        ("withdrawers", index.withdrawers_at_distance, index.sink_transfers, "recipient",
         "outflow_sinks", "uncovered_outflow"),
    )
    pools_payload, rows = [], []
    for pool in dataset.pools:
        entry = {"pool_id": pool.pool_id}
        sizes, tops = [], []
        for side, at_distance, covers, far_end, ranked_key, uncovered_key in directions:
            sets = at_distance(pool, args.distance)
            totals: dict[str, int] = {}
            uncovered = 0
            for actor in sets[0]:
                for cover in covers(actor, pool):
                    uncovered += cover.shortfall
                    for claim in cover.claims:
                        end = getattr(claim, far_end)
                        totals[end] = totals.get(end, 0) + claim.amount
            ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
            entry[side] = {str(n): len(s) for n, s in enumerate(sets, 1)}
            entry[ranked_key] = [{"address": a, "value": str(v)} for a, v in ranked]
            entry[uncovered_key] = str(uncovered)
            sizes.append(" ".join(str(len(s)) for s in sets))
            top, value = ranked[0] if ranked else ("-", 0)
            tops.append(f"{top}:{value}")
        pools_payload.append(entry)
        rows.append([pool.pool_id, *sizes, *tops])
    payload = {"command": "flows", "at": t, "distance": args.distance,
               "pools": pools_payload}
    _write_report(args, "flows", payload,
                  _table(["pool", "|D(1..n)|", "|W(1..n)|",
                          "top source", "top sink"], rows))
    return EXIT_OK
