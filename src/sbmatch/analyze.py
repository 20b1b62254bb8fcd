"""Stationary analysis of the count chain and the margin-versus-growth sweep.

The chain is truncated to the sup-norm ball reachable from the origin;
arrivals that would leave the ball are rejected in place, which shows up as
a boundary self-loop.  The stationary law of the truncation is one sparse
solve: pi(origin) is pinned to 1, the origin's balance equation is dropped,
and BiCGSTAB solves the rest of (I - P^T) pi = 0.  The chain is periodic
with period two away from the boundary (each arrival changes the total
count by one), so the per-parity components of the stationary law are
exposed for convergence diagnostics.  eta_sweep sets each model's margin
beside the growth, perfect rate and return time of its simulated paths,
which it reads off one path at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .kernel import transition_table
# Kept as a module attribute: the benchmark's layer tracer
# (perfbench/tracing.py) wraps analyze.transition_row.
from .kernel import transition_row  # noqa: F401
from .model import ModelSpec, root_graph, stability
from .policy import W1, PolicyConfig, WeightFunction, make_policy, sup_norm
from .simulate import run

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

    A chain with a reached state other than the origin that has no step down
    is refused with a ValueError naming the first such state.  Every move
    changes one count by one unit and the states are sorted, so a step down
    out of row k is exactly an entry left of the diagonal: the test compares
    each row's first column with k.  It suffices for any weight: a reached
    state steps down to a reached state, so by induction on the total count
    every reached state has a way back to the origin, and stationary's
    pinned solve (pi(origin) = 1) is well posed.  Under check_assumption's
    hypothesis 1 (w(n, r) > 0 iff n > 0 and r > 0) it is also necessary in
    exact arithmetic, since a state with no step down then holds only classes
    with no compatible class, whose counts never fall.  So the refusal may be
    conservative for a weight outside hypothesis 1, or for a positive rho
    that rounds a match probability to 0.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    grid, P = transition_table(spec, policy, cap)
    stuck = np.flatnonzero(P.indices[P.indptr[1:-1]] >= np.arange(1, len(grid)))
    if len(stuck):
        raise ValueError(f"state {tuple(grid[stuck[0] + 1].tolist())} has no step down: "
                         f"the chain cannot return to the origin from it")
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
    even_sum: float
    odd_sum: float
    iterations: int  # BiCGSTAB iterations, summed over its runs


def _parity_component(chain: TruncatedChain, pi: np.ndarray, l: int) -> np.ndarray:
    """pi_l = 2 pi on the states of parity l and 0 elsewhere."""
    return np.where(chain.parity == l, 2.0 * pi, 0.0)


def _converged(r: np.ndarray, atol: float, steps: int) -> bool:
    """|r| < atol; raises ConvergenceError when |r| is not finite."""
    norm = math.sqrt(np.dot(r, r))  # np.linalg.norm of a real vector
    if not math.isfinite(norm):
        raise ConvergenceError(f"BiCGSTAB residual is {norm} after {steps} steps")
    return norm < atol


def _csr_product(A: sp.csr_matrix) -> Callable[[np.ndarray, np.ndarray], None]:
    """product(v, out) writes A @ v into out, bit for bit.

    It calls the CSR kernel that A @ v itself ends in,
    scipy.sparse._sparsetools.csr_matvec, which adds each row's products in
    storage order onto out; out is zeroed first, as A @ v zeroes its fresh
    result.  It skips the dispatch of A @ v and its allocation.  The kernel
    is a private name of scipy: the CI pin of scipy guards this call.
    """
    from scipy.sparse._sparsetools import csr_matvec

    if A.format != "csr" or A.dtype != np.float64:
        raise TypeError(f"a float64 CSR matrix is needed, got {A.format} {A.dtype}")
    n_row, n_col = A.shape
    indptr, indices, data = A.indptr, A.indices, A.data

    def product(v: np.ndarray, out: np.ndarray) -> None:
        out.fill(0.0)
        csr_matvec(n_row, n_col, indptr, indices, data, v, out)

    return product


def _bicgstab(A: sp.csr_matrix, b: np.ndarray, x0: np.ndarray) -> tuple[np.ndarray, int]:
    """Unpreconditioned BiCGSTAB on A x = b from x0, as (x, full steps taken).

    This is scipy.sparse.linalg.bicgstab of scipy 1.17 with rtol 1e-13 and
    atol 0, in its operation order: it stops once |r| < 1e-13 |b|, after
    10 n steps, or on a breakdown (|rho| or |omega| below eps^2, or
    rtilde . v = 0), and a step that stops at its half-step residual is not
    counted.  So x and the count, which is scipy's number of callbacks, are
    bit-identical to scipy's.  scipy's shortcut for b = 0 is left out:
    stationary's b is never 0, as the origin stores every arrival class.
    A residual that is not finite, which fails every stop test, raises
    ConvergenceError at once: the iterate can no longer meet any target.

    A run allocates its vectors once and updates them in place, and each
    product goes straight to scipy's CSR kernel (_csr_product), into a
    preallocated vector; each update keeps scipy's IEEE operations.
    """
    product = _csr_product(A)
    n = len(b)
    atol = 1e-13 * math.sqrt(np.dot(b, b))
    tiny = np.finfo(float).eps ** 2
    x = x0.astype(float)  # a copy: the caller's x0 is left as it is
    r, p, v, t, tmp = (np.empty(n) for _ in range(5))
    product(x, v)
    np.subtract(b, v, out=r)
    rtilde = r.copy()
    steps = 0
    for _ in range(10 * n):
        if _converged(r, atol, steps):
            break
        rho = float(np.dot(rtilde, r))
        if abs(rho) < tiny:
            break
        if steps:
            if abs(omega) < tiny:
                break
            beta = (rho / rho_prev) * (alpha / omega)
            np.multiply(v, omega, out=tmp)
            p -= tmp
            p *= beta
            p += r
        else:
            np.copyto(p, r)
        product(p, v)
        rv = float(np.dot(rtilde, v))
        if rv == 0:
            break
        alpha = rho / rv
        np.multiply(v, alpha, out=tmp)
        r -= tmp
        np.multiply(p, alpha, out=tmp)
        if _converged(r, atol, steps):
            x += tmp
            break
        product(r, t)
        # numpy's division: t . t = 0 gives inf or nan, as in scipy, not an exception
        omega = float(np.dot(t, r) / np.dot(t, t))
        x += tmp
        np.multiply(r, omega, out=tmp)
        x += tmp
        np.multiply(t, omega, out=tmp)
        r -= tmp
        rho_prev = rho
        steps += 1
    return x, steps


def stationary(chain: TruncatedChain) -> StationaryEstimate:
    """Solve pi P = pi on the truncated chain.

    pi(origin) is pinned to 1 (the origin is states[0]) and the origin's
    balance equation dropped, which leaves a nonsingular system for the
    other states; _bicgstab solves it from b, the origin's one-step column.
    A residual above RESIDUAL_TOL after STATIONARY_RUNS runs raises
    ConvergenceError rather than returning a bad estimate; it names the
    steps taken and the step budget fixed before the solve, STATIONARY_RUNS
    runs of at most 10 (n - 1) steps each.
    """
    import scipy.sparse as sp

    P = chain.P
    A = (sp.identity(chain.n_states, format="csr") - P.T).tocsr()[1:, 1:]
    first = slice(P.indptr[0], P.indptr[1])  # the origin's row; its columns are distinct
    b = np.zeros(chain.n_states)
    b[P.indices[first]] = P.data[first]
    b = b[1:]  # minus the origin's column of I - P^T
    rest = b
    iterations, budget = 0, STATIONARY_RUNS * 10 * len(b)
    for _ in range(STATIONARY_RUNS):
        rest, steps = _bicgstab(A, b, rest)
        iterations += steps
        pi = np.concatenate(([1.0], np.where(rest > 0.0, rest, 0.0)))
        pi /= pi.sum()
        residual = float(np.abs(pi @ chain.P - pi).sum())
        if residual <= RESIDUAL_TOL:
            break
    else:
        raise ConvergenceError(f"stationary residual {residual:.3e} after {iterations} of "
                               f"at most {budget} steps exceeds {RESIDUAL_TOL:.1e}")

    return StationaryEstimate(
        pi=pi,
        mean_sup_norm=float(pi @ chain.sup_norms),
        residual=residual,
        boundary_mass=float(pi[chain.boundary].sum()),
        even_sum=float(_parity_component(chain, pi, 0).sum()),
        odd_sum=float(_parity_component(chain, pi, 1).sum()),
        iterations=iterations,
    )


def invariant_mean_bound(spec: ModelSpec, policy: PolicyConfig) -> float:
    """Upper bound on the stationary mean sup norm implied by the drift
    certificate: (1 + 2 n* (1 + g) + 4 K (1 + #selfloop)) / (2 g) with
    g = min(eta, smallest nu over self-loop classes); inf where a positive
    exact margin rounds 2 g to 0.0 or the quotient overflows."""
    graph = root_graph(spec)
    stab = stability(spec)
    if not stab.ncond:
        raise ValueError("the stationary mean bound requires a positive stability margin")
    floor_nu = min((spec.nu[i] for i in graph.selfloop_classes), default=math.inf)
    # finite: eta is +inf only when no class is loop-free, and then every
    # class has a self-loop
    gap = min(stab.eta, floor_nu)
    if 2.0 * gap == 0.0:
        return math.inf
    n_plus = len(graph.selfloop_classes)
    return (1.0 + 2.0 * policy.n_star * (1.0 + gap) + 4.0 * graph.K * (1 + n_plus)) / (2.0 * gap)


def tv_periodic(chain: TruncatedChain, estimate: StationaryEstimate, t: int, l: int) -> float:
    """Distance sum_x |P(X_{2t+l} = x) - pi_l(x)| from the origin start,
    with pi_l the parity-l component of the stationary law."""
    if l not in (0, 1):
        raise ValueError("l must be 0 or 1")
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    d = np.zeros(chain.n_states)
    d[0] = 1.0  # the origin comes first
    for _ in range(2 * t + l):
        d = chain.P.T @ d
    return float(np.abs(d - _parity_component(chain, estimate.pi, l)).sum())


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
    its own seed block (base_seed, row, replica).  Each path is reduced to
    its growth sup_norm(x_T) / T, its perfect rate past the start and its
    first return before the next one runs; a row holds their means over the
    replicas (mean_return_time is nan when no replica returned).
    """
    if T < 1 or replicas < 1:
        raise ValueError(f"a sweep needs T and replicas of at least 1, "
                         f"got T = {T}, replicas = {replicas}")
    rows: list[SweepRow] = []
    for row_idx, (label, spec) in enumerate(entries):
        stab = stability(spec)
        policy = make_policy(spec, weight)
        growth, perfect, returns = [], [], []
        for r in range(replicas):
            tr = run(spec, policy, T, (base_seed, row_idx, r))
            growth.append(sup_norm(tr.final_x) / T)
            perfect.append(float(tr.perfect[tr.t_grid > 0].mean()))
            if tr.first_return is not None:
                returns.append(tr.first_return)
        rows.append(SweepRow(id=label, eta=stab.eta, ncond=stab.ncond,
                             growth=float(np.mean(growth)), perfect_rate=float(np.mean(perfect)),
                             mean_return_time=float(np.mean(returns)) if returns else math.nan))
    return rows
