"""Transaction-graph analytics for fixed-denomination mixer pools.

The package quantifies how much anonymity a mixer pool really provides:
it replays deposits and withdrawals into exact signed balances, links
addresses through five behavioral heuristics plus side-channel evidence,
recovers withdrawal times from mining-reward claims, and measures the
resulting shrinkage of each pool's anonymity set.  A seeded synthetic
trace generator with planted ground truth makes every analysis verifiable
at desk scale.
"""

from .errors import (
    AnalysisError,
    ConfigError,
    DomainError,
    IngestError,
    InputError,
    ModeError,
)
from .ledger import (
    Address,
    Amount,
    LinkPair,
    PoolConfig,
    PoolEvent,
    Transfer,
    cluster_balances,
    normalize_address,
    pool_state,
    reduced_set,
)
from .indexing import LabelBook, LedgerIndex, TransferCover, build_index
from .heuristics import (
    HEURISTICS,
    HeuristicResult,
    PoolView,
    combine,
    h1_reuse,
    h2_improper_sender,
    h3_related_pair,
    h4_intermediary,
    h5_cross_pool,
    pool_view,
    run_heuristics,
)
from .metrics import (
    adversary_advantage,
    advantage_increase_from_reduction,
    cluster_size_histogram,
    fund_then_deposit_flags,
    relative_advantage_increase,
    relayer_usage,
)
from .mining import (
    DEFAULT_AM_WEIGHTS,
    APClaim,
    LinkSolution,
    anonymity_points,
    classify_claimant,
    solve_multi_claim,
    solve_single_claim,
)
from .groundtruth import (
    FollowEdge,
    NameTransfer,
    SubdomainGrant,
    ValidationReport,
    airdrop_links,
    debank_negative_pairs,
    ens_subdomain_links,
    ens_transfer_links,
    score_links,
)
from .synth import (
    BehaviorProfile,
    GeneratorConfig,
    SynthTrace,
    generate_trace,
    standard_pools,
)
from .dataset import Dataset, ingest, read_ground_truth, write_dataset

__version__ = "0.1.0"
