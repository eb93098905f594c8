"""Rainbow k-factor lab: spectral and combinatorial machinery for families
of balanced bipartite graphs at desk scale."""

from .construction import construct_rainbow_factor_extremal
from .factors import (
    ABSENT,
    BUDGET_EXHAUSTED,
    FOUND,
    RainbowFactor,
    SearchResult,
    audit_shifted_family,
    rainbow_k_factor_search,
    rainbow_perfect_matching_search,
)
from .flow import k_factor_exists
from .graphs import (
    BipartiteGraph,
    ExtremalParams,
    GraphError,
    GraphFamily,
    build_extremal,
    build_join,
    labeled_extremal_copy,
)
from .harness import (
    CAMPAIGNS,
    CampaignReport,
    ExperimentConfig,
    generate_extremal_variant_family,
    generate_random_bipartite,
    run_campaign,
)
from .shifting import ShiftTrace, bi_shift_fixpoint, is_bi_shifted, xy_shift
from .spectral import (
    ConvergenceError,
    InconsistencyError,
    SpectralMargin,
    SpectralReport,
    biquadratic_coeffs,
    join_margin,
    spectral_radius,
)

__all__ = [
    "ABSENT",
    "BUDGET_EXHAUSTED",
    "CAMPAIGNS",
    "FOUND",
    "BipartiteGraph",
    "CampaignReport",
    "ConvergenceError",
    "ExperimentConfig",
    "ExtremalParams",
    "GraphError",
    "GraphFamily",
    "InconsistencyError",
    "RainbowFactor",
    "SearchResult",
    "ShiftTrace",
    "SpectralMargin",
    "SpectralReport",
    "audit_shifted_family",
    "bi_shift_fixpoint",
    "biquadratic_coeffs",
    "build_extremal",
    "build_join",
    "construct_rainbow_factor_extremal",
    "generate_extremal_variant_family",
    "generate_random_bipartite",
    "is_bi_shifted",
    "join_margin",
    "k_factor_exists",
    "labeled_extremal_copy",
    "rainbow_k_factor_search",
    "rainbow_perfect_matching_search",
    "run_campaign",
    "spectral_radius",
    "xy_shift",
]

__version__ = "0.1.0"
