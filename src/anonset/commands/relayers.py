"""``relayers``: relayer usage per pool."""

from __future__ import annotations

from .. import metrics
from ..errors import EXIT_OK
from ..metrics import render_percent
from . import _load, _table, _write_report

FILES = ("pools", "pool_events")


def run(args, ingest) -> int:
    dataset = _load(args, ingest, FILES, metrics.count_relayers)

    def percent(share):  # an undefined share stays None: null in the report, "-" in the table
        return share if share is None else render_percent(share)

    payload_rows = []
    # through the module, so a wrapper installed on its attribute sees the call
    for usage in metrics.relayer_usage(dataset.pools, dataset.events):
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
