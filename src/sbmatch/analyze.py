"""Stationary analysis of the count chain and summaries of simulation runs.

The chain is truncated to the sup-norm ball reachable from the origin;
arrivals that would leave the ball are rejected in place, which shows up as
a boundary self-loop.  The stationary law of the truncation is one sparse
solve: pi(origin) is pinned to 1, the origin's balance equation is dropped,
and BiCGSTAB solves the rest of (I - P^T) pi = 0.  The chain is periodic
with period two away from the boundary (each arrival changes the total
count by one), so the per-parity components of the stationary law are
exposed for convergence diagnostics.
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

# Any solve whose residual exceeds RESIDUAL_TOL is refused.  BiCGSTAB
# restarts from its own iterate while the normalised vector misses it, for
# at most STATIONARY_RUNS runs: a first run can stagnate just above the
# target on large chains.
RESIDUAL_TOL = 1e-10
STATIONARY_RUNS = 3
# Boundary mass above which the stationary verb warns that the cap is too
# small for the truncated law to stand in for the untruncated one.
BOUNDARY_WARN = 1e-3


class ConvergenceError(RuntimeError):
    """Raised when a stationary solve fails its residual target."""


@dataclass(frozen=True, eq=False)
class TruncatedChain:
    spec: ModelSpec
    policy: PolicyConfig
    cap: int
    states: np.ndarray  # (n, C) int64 count vectors in sorted order, the origin first
    P: sp.csr_matrix
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
                          P=P, sup_norms=norms,
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
    iterations: int  # BiCGSTAB iterations, summed over its runs


def stationary(chain: TruncatedChain) -> StationaryEstimate:
    """Solve pi P = pi on the truncated chain.

    pi(origin) is pinned to 1 (the origin is states[0]) and the origin's
    balance equation dropped, which leaves a nonsingular system for the
    other states; BiCGSTAB solves it from the all-ones vector.  A residual
    above RESIDUAL_TOL after STATIONARY_RUNS runs raises ConvergenceError
    rather than returning a bad estimate.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import bicgstab

    A = (sp.identity(chain.n_states, format="csr") - chain.P.T).tocsr()[1:, 1:]
    b = chain.P[0].toarray().ravel()[1:]  # minus the origin's column of I - P^T
    rest = np.ones(chain.n_states - 1)
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    for _ in range(STATIONARY_RUNS):
        rest, _ = bicgstab(A, b, x0=rest, rtol=1e-13, atol=0.0, callback=count)
        pi = np.concatenate(([1.0], np.where(rest > 0.0, rest, 0.0)))
        pi /= pi.sum()
        residual = float(np.abs(pi @ chain.P - pi).sum())
        if residual <= RESIDUAL_TOL:
            break
    else:
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
        d = chain.P.T @ d
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
