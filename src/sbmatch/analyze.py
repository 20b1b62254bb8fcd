"""Stationary analysis of the count chain and summaries of simulation runs.

The chain is truncated to the sup-norm ball reachable from the origin;
arrivals that would leave the ball are rejected in place, which shows up as
a boundary self-loop.  The stationary law of the truncation is solved
directly for moderate state counts and by power iteration on the two-step
kernel otherwise.  The chain is periodic with period two away from the
boundary (each arrival changes the total count by one), so the power method
averages the two parity phases, and the per-parity components of the
stationary law are exposed for convergence diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .kernel import BOX_MAX_STATES, transition_table
# Kept as a module attribute: the benchmark's layer tracer
# (perfbench/tracing.py) wraps analyze.transition_row.
from .kernel import transition_row  # noqa: F401
from .model import ModelSpec, root_graph, stability
from .policy import PolicyConfig, State, make_policy, sup_norm
from .simulate import Trajectory, run

# LU fill-in, not the state count, is what makes the direct solve explode
# on these lattice-shaped graphs, so the direct route is reserved for
# genuinely small chains; everything else converges in a handful of
# two-step power iterations anyway.
DIRECT_SOLVE_MAX_STATES = 5000


class ConvergenceError(RuntimeError):
    """Raised when a stationary solve fails its residual target."""


@dataclass(frozen=True, eq=False)
class TruncatedChain:
    spec: ModelSpec
    policy: PolicyConfig
    cap: int
    states: tuple[State, ...]
    index: dict[State, int]
    P: sp.csr_matrix
    PT: sp.csr_matrix  # P transposed, for the forward pushes of the solvers
    sup_norms: np.ndarray
    parity: np.ndarray
    boundary: np.ndarray  # sup norm within one unit of the cap

    @property
    def n_states(self) -> int:
        return len(self.states)


def truncate(spec: ModelSpec, policy: PolicyConfig, cap: int,
             max_states: int = BOX_MAX_STATES) -> TruncatedChain:
    """Build the truncated chain on the sup-norm ball of radius cap.

    The raw kernel is built over the whole box {0..cap}^C and restricted to
    the states reachable from the origin; states are in sorted order.
    max_states bounds the box size (cap + 1) ** C and is checked before
    anything is allocated.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    grid, P = transition_table(spec, policy, cap, max_states)
    states = tuple(map(tuple, grid.tolist()))
    norms = grid.max(axis=1).astype(np.int64)
    return TruncatedChain(spec=spec, policy=policy, cap=cap, states=states,
                          index={x: k for k, x in enumerate(states)},
                          P=P, PT=P.T.tocsr(), sup_norms=norms,
                          parity=grid.sum(axis=1).astype(np.int64) & 1,
                          boundary=norms >= cap - 1)


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


def _direct_solve(P: sp.csr_matrix) -> np.ndarray:
    n = P.shape[0]
    A = (P.T - sp.identity(n, format="csr")).tocsr()
    A = sp.vstack([A[: n - 1, :], sp.csr_matrix(np.ones((1, n)))]).tocsr()
    b = np.zeros(n)
    b[n - 1] = 1.0
    pi = spla.spsolve(A.tocsc(), b)
    return pi


def _power_solve(PT: sp.csr_matrix, tol: float, max_iter: int,
                 parity_average: bool) -> tuple[np.ndarray, int]:
    n = PT.shape[0]
    u = np.full(n, 1.0 / n)
    if not parity_average:
        for it in range(1, max_iter + 1):
            nxt = PT @ (PT @ u)
            if np.abs(nxt - u).sum() < tol:
                return nxt, it
            u = nxt
        return u, max_iter
    w = PT @ u
    avg = 0.5 * (u + w)
    for it in range(1, max_iter + 1):
        u = PT @ w
        w = PT @ u
        nxt = 0.5 * (u + w)
        if np.abs(nxt - avg).sum() < tol:
            return nxt, it
        avg = nxt
    return avg, max_iter


def stationary(chain: TruncatedChain, method: str = "auto", tol: float = 1e-12,
               residual_tol: float = 1e-10, max_iter: int = 100_000,
               parity_average: bool = True) -> StationaryEstimate:
    """Solve pi P = pi on the truncated chain.

    method "direct" solves the sparse linear system, "power" iterates the
    two-step kernel (averaging the two parity phases unless disabled), and
    "auto" picks direct below 5000 states.  A residual above residual_tol
    raises ConvergenceError rather than returning a bad estimate.
    """
    n = chain.n_states
    if method == "auto":
        method = "direct" if n < DIRECT_SOLVE_MAX_STATES else "power"
    if method == "direct":
        pi = _direct_solve(chain.P)
        iterations = 0
    elif method == "power":
        pi, iterations = _power_solve(chain.PT, tol, max_iter, parity_average)
    else:
        raise ValueError(f"unknown method {method!r}")

    pi = np.where(pi > 0.0, pi, 0.0)
    total = pi.sum()
    if not math.isfinite(total) or total <= 0.0:
        raise ConvergenceError("stationary solve produced a degenerate vector")
    pi = pi / total
    residual = float(np.abs(pi @ chain.P - pi).sum())
    if residual > residual_tol:
        raise ConvergenceError(f"stationary residual {residual:.3e} exceeds {residual_tol:.1e}")

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
    origin = (0,) * chain.spec.n_classes
    d = np.zeros(chain.n_states)
    d[chain.index[origin]] = 1.0
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
              replicas: int, weight=None, alpha=None, n_check: int = 10_000) -> list[SweepRow]:
    """Simulated growth against the stability margin across a family of models.

    Each model gets its own policy (the threshold depends on its rho_min) and
    its own seed block (base_seed, row, replica).
    """
    from .policy import W1

    rows: list[SweepRow] = []
    for row_idx, (label, spec) in enumerate(entries):
        stab = stability(spec)
        policy = make_policy(spec, weight if weight is not None else W1,
                             alpha=alpha, n_check=n_check)
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
