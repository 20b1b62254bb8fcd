"""Online matching on stochastic block models.

Nodes arrive one at a time, draw a class from nu, draw independent edges to
the present unmatched nodes with class-pair probabilities rho, and a greedy
max-weight policy matches at most one of those edges.  The package exposes
the exact count-vector kernel of this dynamic, drift certificates proving
positive recurrence when the stability margin over independent sets of the
compatibility graph is positive, Monte Carlo engines, and truncated-chain
stationary analysis.
"""

from .model import (
    InvalidModelError,
    ModelSpec,
    RootGraph,
    StabilityReport,
    WalkSpec,
    independent_sets,
    make_spec,
    neighborhood,
    root_graph,
    stability,
    walk_spec,
)
from .policy import (
    AssumptionReport,
    PolicyConfig,
    PolicyError,
    State,
    W1,
    W2,
    WeightFunction,
    check_assumption,
    make_policy,
    n_star,
    select_class,
    support,
    sup_norm,
)
from .kernel import (
    ChainReport,
    DriftReport,
    KernelError,
    ReachabilityReport,
    TransitionRow,
    check_main_drift,
    corrupted_drift_q,
    drift,
    drift_q,
    kernel_variant,
    propagate_distribution,
    quadratic,
    reachable_check,
    reduce_to_independent_support,
    restrict_support,
    theorem_bound,
    threshold_map,
    transition_row,
    verify_drift_chain,
)
from .simulate import (
    SimState,
    StepEvent,
    Trajectory,
    coupled_walk,
    final_states,
    new_sim,
    run,
    run_replicas,
    step,
)
from .analyze import (
    ConvergenceError,
    MetricsSummary,
    StationaryEstimate,
    SweepRow,
    TruncatedChain,
    eta_sweep,
    invariant_mean_bound,
    metrics,
    stationary,
    truncate,
    tv_periodic,
)

__version__ = "0.1.0"
