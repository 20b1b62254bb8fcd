"""Stationary analysis of the count chain and summaries of simulation runs.

The chain is truncated to the sup-norm ball reachable from the origin;
arrivals that would leave the ball are rejected in place, which shows up as
a boundary self-loop.  The stationary law of the truncation is solved
directly for moderate state counts and by power iteration on the two-step
kernel otherwise.  The chain is periodic with period two away from the
boundary (each arrival changes the total count by one), so the power method
starts from the average of the two parity phases, and the per-parity
components of the stationary law are exposed for convergence diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .kernel import transition_table
# Kept as a module attribute: the benchmark's layer tracer
# (perfbench/tracing.py) wraps analyze.transition_row.
from .kernel import transition_row  # noqa: F401
from .model import ModelSpec, root_graph, stability
from .policy import W1, PolicyConfig, WeightFunction, make_policy, sup_norm
from .simulate import Trajectory, run

# scipy is imported inside the functions that use it, so that importing the
# package does not load it (tests/test_import.py).
if TYPE_CHECKING:
    import scipy.sparse as sp

# LU fill-in, not the state count, is what makes the direct solve explode
# on these lattice-shaped graphs, so the direct route is reserved for
# genuinely small chains; everything else converges in a handful of
# two-step power iterations anyway.
DIRECT_SOLVE_MAX_STATES = 5000
# The power iteration stops when successive iterates differ by less than
# POWER_TOL in L1; any solve whose residual exceeds RESIDUAL_TOL is refused.
POWER_TOL = 1e-12
RESIDUAL_TOL = 1e-10
# The methods of stationary(), which the CLI also checks a config against.
SOLVERS = ("auto", "direct", "power")


class ConvergenceError(RuntimeError):
    """Raised when a stationary solve fails its residual target."""


@dataclass(frozen=True, eq=False)
class TruncatedChain:
    spec: ModelSpec
    policy: PolicyConfig
    cap: int
    states: np.ndarray  # (n, C) int64 count vectors in sorted order, the origin first
    P: sp.csr_matrix
    PT: sp.csr_matrix  # P transposed, for the forward pushes of the solvers
    sup_norms: np.ndarray
    parity: np.ndarray
    boundary: np.ndarray  # sup norm within one unit of the cap

    @property
    def n_states(self) -> int:
        return len(self.states)


def truncate(spec: ModelSpec, policy: PolicyConfig, cap: int) -> TruncatedChain:
    """Build the truncated chain on the sup-norm ball of radius cap.

    The raw kernel is built over the whole box {0..cap}^C and restricted to
    the states reachable from the origin; states is the grid of
    transition_table, in sorted order with the origin first.  The box size
    (cap + 1) ** C is checked against kernel.BOX_MAX_STATES before anything
    is allocated.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    grid, P = transition_table(spec, policy, cap)
    norms = grid.max(axis=1)
    return TruncatedChain(spec=spec, policy=policy, cap=cap, states=grid,
                          P=P, PT=P.T.tocsr(), sup_norms=norms,
                          parity=grid.sum(axis=1) & 1, boundary=norms >= cap - 1)


@dataclass(frozen=True, eq=False)
class StationaryEstimate:
    pi: np.ndarray
    mean_sup_norm: float
    residual: float
    boundary_mass: float
    pi_even: np.ndarray
    pi_odd: np.ndarray
    even_sum: float
    odd_sum: float
    method: str
    iterations: int


def _direct_solve(PT: sp.csr_matrix) -> np.ndarray:
    """pi (P - I) = 0 with its last equation replaced by sum(pi) = 1."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n = PT.shape[0]
    A = sp.vstack([(PT - sp.identity(n, format="csr"))[:-1], sp.csr_matrix(np.ones((1, n)))],
                  format="csc")
    b = np.zeros(n)
    b[n - 1] = 1.0
    return spla.spsolve(A, b)


def _power_solve(PT: sp.csr_matrix, max_iter: int, parity_average: bool) -> tuple[np.ndarray, int]:
    n = PT.shape[0]
    u = np.full(n, 1.0 / n)
    if parity_average:
        # The parity-averaged iterates (P^2k u + P^(2k+1) u) / 2 are the
        # two-step iterates of the averaged start (u + P u) / 2.
        u = 0.5 * (u + PT @ u)
    for it in range(1, max_iter + 1):
        nxt = PT @ (PT @ u)
        if np.abs(nxt - u).sum() < POWER_TOL:
            return nxt, it
        u = nxt
    return u, max_iter


def stationary(chain: TruncatedChain, method: str = "auto", max_iter: int = 100_000,
               parity_average: bool = True) -> StationaryEstimate:
    """Solve pi P = pi on the truncated chain.

    method "direct" solves the sparse linear system, "power" iterates the
    two-step kernel from the average of the two parity phases (from the
    uniform vector when parity_average is off), and "auto" picks direct
    below 5000 states.  A residual above RESIDUAL_TOL raises
    ConvergenceError rather than returning a bad estimate.
    """
    if method not in SOLVERS:
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        method = "direct" if chain.n_states < DIRECT_SOLVE_MAX_STATES else "power"
    if method == "direct":
        pi = _direct_solve(chain.PT)
        iterations = 0
    else:
        pi, iterations = _power_solve(chain.PT, max_iter, parity_average)

    pi = np.where(pi > 0.0, pi, 0.0)
    total = pi.sum()
    if not math.isfinite(total) or total <= 0.0:
        raise ConvergenceError("stationary solve produced a degenerate vector")
    pi = pi / total
    residual = float(np.abs(pi @ chain.P - pi).sum())
    if residual > RESIDUAL_TOL:
        raise ConvergenceError(f"stationary residual {residual:.3e} exceeds {RESIDUAL_TOL:.1e}")

    even = chain.parity == 0
    pi_even = np.where(even, 2.0 * pi, 0.0)
    pi_odd = np.where(~even, 2.0 * pi, 0.0)
    return StationaryEstimate(
        pi=pi,
        mean_sup_norm=float(pi @ chain.sup_norms),
        residual=residual,
        boundary_mass=float(pi[chain.boundary].sum()),
        pi_even=pi_even,
        pi_odd=pi_odd,
        even_sum=float(pi_even.sum()),
        odd_sum=float(pi_odd.sum()),
        method=method,
        iterations=iterations,
    )


def invariant_mean_bound(spec: ModelSpec, policy: PolicyConfig) -> float:
    """Upper bound on the stationary mean sup norm implied by the drift
    certificate: (1 + 2 n* (1 + g) + 4 K (1 + #selfloop)) / (2 g) with
    g = min(eta, smallest nu over self-loop classes)."""
    graph = root_graph(spec)
    stab = stability(spec)
    if not stab.ncond:
        raise ValueError("the stationary mean bound requires a positive stability margin")
    floor_nu = min((spec.nu[i] for i in graph.selfloop_classes), default=math.inf)
    gap = min(stab.eta, floor_nu)
    if not math.isfinite(gap):
        raise ValueError("degenerate model: no loopfree class and no self-loop class")
    n_plus = len(graph.selfloop_classes)
    return (1.0 + 2.0 * policy.n_star * (1.0 + gap) + 4.0 * graph.K * (1 + n_plus)) / (2.0 * gap)


def tv_periodic(chain: TruncatedChain, estimate: StationaryEstimate, t: int, l: int) -> float:
    """Distance sum_x |P(X_{2t+l} = x) - pi_l(x)| from the origin start,
    with pi_l the parity-l component of the stationary law."""
    if l not in (0, 1):
        raise ValueError("l must be 0 or 1")
    d = np.zeros(chain.n_states)
    d[0] = 1.0  # the origin comes first
    for _ in range(2 * t + l):
        d = chain.PT @ d
    target = estimate.pi_even if l == 0 else estimate.pi_odd
    return float(np.abs(d - target).sum())


@dataclass(frozen=True)
class ReplicaMetrics:
    replica: int
    growth: float
    matched_fraction: float
    perfect_rate: float
    returns_to_zero: int
    first_return: int | None
    ergodic_avg_final: float


@dataclass(frozen=True, eq=False)
class MetricsSummary:
    replicas: tuple[ReplicaMetrics, ...]
    growth_values: np.ndarray
    growth_mean: float
    perfect_rate: float
    matched_fraction_mean: float
    n_returned: int
    mean_return_time: float  # nan when no replica returned

    @property
    def n_replicas(self) -> int:
        return len(self.replicas)


def metrics(trajectories: Sequence[Trajectory]) -> MetricsSummary:
    """Per-replica and pooled summary statistics of simulation runs."""
    if not trajectories:
        raise ValueError("no trajectories given")
    rows = []
    returns = []
    for k, tr in enumerate(trajectories):
        if tr.T < 1:
            raise ValueError(f"metrics need at least one arrival, got T = {tr.T}")
        live = tr.t_grid > 0
        perfect_rate = float(tr.perfect[live].mean()) if live.any() else 0.0
        rows.append(ReplicaMetrics(
            replica=k,
            growth=sup_norm(tr.final_x) / tr.T,
            matched_fraction=2.0 * tr.matched_total / tr.T,
            perfect_rate=perfect_rate,
            returns_to_zero=tr.returns_to_zero,
            first_return=tr.first_return,
            ergodic_avg_final=float(tr.ergodic_avg[-1]),
        ))
        if tr.first_return is not None:
            returns.append(tr.first_return)
    growth = np.asarray([r.growth for r in rows])
    return MetricsSummary(
        replicas=tuple(rows),
        growth_values=growth,
        growth_mean=float(growth.mean()),
        perfect_rate=float(np.mean([r.perfect_rate for r in rows])),
        matched_fraction_mean=float(np.mean([r.matched_fraction for r in rows])),
        n_returned=len(returns),
        mean_return_time=float(np.mean(returns)) if returns else math.nan,
    )


@dataclass(frozen=True)
class SweepRow:
    id: str
    eta: float
    ncond: bool
    growth: float
    perfect_rate: float
    mean_return_time: float


def eta_sweep(entries: Sequence[tuple[str, ModelSpec]], T: int, base_seed: int,
              replicas: int, weight: WeightFunction = W1) -> list[SweepRow]:
    """Simulated growth against the stability margin across a family of models.

    Each model gets its own policy, with the default tie-break alpha (the
    models have their own classes) and a threshold from its own rho_min, and
    its own seed block (base_seed, row, replica).
    """
    rows: list[SweepRow] = []
    for row_idx, (label, spec) in enumerate(entries):
        stab = stability(spec)
        policy = make_policy(spec, weight)
        trajs = [run(spec, policy, T, (base_seed, row_idx, r)) for r in range(replicas)]
        summary = metrics(trajs)
        rows.append(SweepRow(
            id=label,
            eta=stab.eta,
            ncond=stab.ncond,
            growth=summary.growth_mean,
            perfect_rate=summary.perfect_rate,
            mean_return_time=summary.mean_return_time,
        ))
    return rows
