"""Coded slotted ALOHA over packet erasure channels: finite-length error-floor
analysis, Monte Carlo simulation, and degree-distribution optimization."""

from .decoder import DecodeOutcome, DegreeKeying, peel
from .density_evolution import DegreeOneUnsupported, DeResult, de_fixed_point, threshold
from .distributions import (
    ChannelModel,
    DegreeDistribution,
    DistributionError,
    format_distribution,
    induce,
    parse_distribution,
    validate,
)
from .errors import CsaFloorError
from .frame_model import (
    FrameConfig,
    FrameGraph,
    SlotCountTooSmall,
    UserRecord,
    sample_frame,
)
from .harness import SweepPlan, SweepRow, confidence_interval, run_sweep
from .optimizer import ObjectiveSpec, OptimizeResult, objective, optimize
from .oracle import EnumerationTooLarge, exact_beta, exact_event_probabilities
from .predictor import (
    PlrReport,
    analytic_report,
    average_plr,
    floor_lower_bound,
    plr_per_degree,
    plr_user_perspective,
)
from .stopping_sets import (
    CATALOG,
    CATALOG_BY_ID,
    StoppingSetClass,
    alpha,
    beta,
    classify,
    components,
    is_stopping_set,
    rho,
)

__all__ = [
    "CATALOG",
    "CATALOG_BY_ID",
    "ChannelModel",
    "CsaFloorError",
    "DecodeOutcome",
    "DegreeDistribution",
    "DegreeKeying",
    "DegreeOneUnsupported",
    "DeResult",
    "DistributionError",
    "EnumerationTooLarge",
    "FrameConfig",
    "FrameGraph",
    "ObjectiveSpec",
    "OptimizeResult",
    "PlrReport",
    "SlotCountTooSmall",
    "StoppingSetClass",
    "SweepPlan",
    "SweepRow",
    "UserRecord",
    "alpha",
    "analytic_report",
    "average_plr",
    "beta",
    "classify",
    "components",
    "confidence_interval",
    "de_fixed_point",
    "exact_beta",
    "exact_event_probabilities",
    "floor_lower_bound",
    "format_distribution",
    "induce",
    "is_stopping_set",
    "objective",
    "optimize",
    "parse_distribution",
    "peel",
    "plr_per_degree",
    "plr_user_perspective",
    "rho",
    "run_sweep",
    "sample_frame",
    "threshold",
    "validate",
]
