"""Online low-recourse Steiner forest: algorithm, oracles, and certifier."""

from .certify import (
    CertReport,
    build_dual_witness,
    check_dual_feasibility,
    check_feasible,
    check_pinned_forest,
    check_run,
    grow_balls,
    witness_value_identity,
)
from .clustering import (
    Hierarchy,
    build_hierarchy,
    check_refinement,
    cluster_distance,
    terminal_level,
)
from .errors import ConfigError, FormatError, MetricError, OracleLimitError, SfonlineError
from .forest import OnlineState, Snapshot, advance, recourse_diff
from .metric import (
    GeneratorSpec,
    Instance,
    InstanceView,
    generate_instance,
    load_instance,
    mate,
    metric_closure,
    save_instance,
    validate_metric,
)
from .oracles import (
    exact_optimum,
    offline_gluttonous_forest,
    run_baseline,
)
from .trace import RunTrace, load_trace, run_online, save_trace

__version__ = "0.1.0"

__all__ = [
    "CertReport",
    "ConfigError",
    "FormatError",
    "GeneratorSpec",
    "Hierarchy",
    "Instance",
    "InstanceView",
    "MetricError",
    "OnlineState",
    "OracleLimitError",
    "RunTrace",
    "SfonlineError",
    "Snapshot",
    "advance",
    "build_dual_witness",
    "build_hierarchy",
    "check_dual_feasibility",
    "check_feasible",
    "check_pinned_forest",
    "check_refinement",
    "check_run",
    "cluster_distance",
    "exact_optimum",
    "generate_instance",
    "grow_balls",
    "load_instance",
    "load_trace",
    "mate",
    "metric_closure",
    "offline_gluttonous_forest",
    "recourse_diff",
    "run_baseline",
    "run_online",
    "save_instance",
    "save_trace",
    "terminal_level",
    "validate_metric",
    "witness_value_identity",
]
