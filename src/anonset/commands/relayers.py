"""``relayers``: relayer usage per pool."""

from __future__ import annotations

from ..errors import EXIT_OK
from ..metrics import relayer_usage, render_percent
from . import _table, _write_report


def run(args, load) -> int:
    dataset = load(args)
    events_by_pool: dict[str, list] = {}
    for e in dataset.events:
        events_by_pool.setdefault(e.pool_id, []).append(e)

    def percent(share):  # an undefined share stays None: null in the report, "-" in the table
        return share if share is None else render_percent(share)

    payload_rows = []
    for pool in dataset.pools:
        usage = relayer_usage(pool, events_by_pool.get(pool.pool_id, ()))
        payload_rows.append({
            "pool_id": usage.pool_id, "relayers": usage.relayers,
            "withdrawals": usage.withdrawals,
            "relayed_withdrawals": usage.relayed_withdrawals,
            "relayed_withdrawal_share": percent(usage.relayed_withdrawal_share),
            "withdrawers": usage.withdrawers,
            "relayed_withdrawers": usage.relayed_withdrawers,
            "relayed_withdrawer_share": percent(usage.relayed_withdrawer_share)})
    rows = [[r["pool_id"], str(r["relayers"]),
             f"{r['relayed_withdrawals']} ({r['relayed_withdrawal_share'] or '-'})",
             f"{r['relayed_withdrawers']} ({r['relayed_withdrawer_share'] or '-'})"]
            for r in payload_rows]
    payload = {"command": "relayers", "pools": payload_rows}
    _write_report(args, "relayers", payload,
                  _table(["pool", "relayers", "relayed withdrawals",
                          "withdrawers using relayers"], rows))
    return EXIT_OK
