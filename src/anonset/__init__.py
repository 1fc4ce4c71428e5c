"""Transaction-graph analytics for fixed-denomination mixer pools.

The package quantifies how much anonymity a mixer pool really provides:
it replays deposits and withdrawals into exact signed balances, links
addresses through five behavioral heuristics plus side-channel evidence,
recovers withdrawal times from mining-reward claims, and measures the
resulting shrinkage of each pool's anonymity set.  A seeded synthetic
trace generator with planted ground truth makes every analysis verifiable
at desk scale.

The package exports nothing: code imports from the modules themselves.
"""

__version__ = "0.1.0"
