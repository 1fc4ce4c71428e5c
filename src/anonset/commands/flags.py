"""``flags``: withdraw-first addresses re-depositing large volume."""

from __future__ import annotations

from .. import metrics
from ..errors import EXIT_OK
from . import _load, _table, _write_report

FILES = ("pools", "pool_events", "labels", "relayers")


def run(args, ingest) -> int:
    if args.threshold is None:
        args.threshold = metrics.DEFAULT_FUND_THEN_DEPOSIT_THRESHOLD
    dataset = _load(args, ingest, FILES, metrics.withdraw_first)
    flags = metrics.fund_then_deposit_flags(dataset.pools, dataset.events,
                                            dataset.labels, args.threshold)
    flagged = [{"address": f.address,
                "first_withdrawal_block": f.first_withdrawal.height,
                "first_deposit_block": f.first_deposit.height,
                "total_deposited": str(f.total_deposited),
                "labels": sorted(f.labels)} for f in flags]
    payload = {"command": "flags", "threshold": str(args.threshold), "flagged": flagged}
    rows = [[r["address"], str(r["first_withdrawal_block"]), str(r["first_deposit_block"]),
             r["total_deposited"], ",".join(r["labels"])] for r in flagged]
    _write_report(args, "flags", payload,
                  _table(["address", "first withdrawal", "first deposit",
                          "deposited", "labels"], rows))
    return EXIT_OK
