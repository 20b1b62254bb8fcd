"""Exact one-step law of the unmatched-count chain and its drift certificates.

The chain lives on non-negative integer count vectors, one coordinate per
class.  An arrival of class i targets the class j chosen by the greedy
policy; it matches there with probability 1 - (1 - rho(i, j)) ** x(j)
(decrementing j) and is stored otherwise (incrementing i).  Two derived
kernels support the drift analysis: the homogenized kernel replaces every
positive rho entry by rho_min, the binarized kernel by 1.

The central certificate bounds the one-step drift of q(x) = sum x(i)^2 by a
quantity that is negative far from the origin whenever the stability margin
eta is positive.  verify_drift_chain checks the individual reduction
inequalities that compose the certificate, each under its own hypothesis on
the state.

box_moves is the per-arrival-class pass over an (n, C) array of states,
read from the weight and miss tables of move_tables.  transition_table folds
it into the truncated kernel on the states that _reach's sweeps along the
axes find reachable from the origin, and drift_q_over, theorem_bound_over and
verify_drift_chain_over sum it into the certificate sweeps, bit for bit as
the scalar functions of one state, which stay as their oracles.  drift_sweep
and chain_sweep are the sweeps: those sums and their checks over a box.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .model import ModelSpec, root_graph, stability
from .policy import WEIGHT_TOL, PolicyConfig, State, select_class, support, sup_norm

# scipy is imported inside the functions that use it, so that importing the
# package does not load it (tests/test_import.py).
if TYPE_CHECKING:
    import scipy.sparse as sp

INEQ_TOL = 1e-9


class KernelError(ValueError):
    """Raised on kernel precondition violations."""


def kernel_variant(spec: ModelSpec, tag: str) -> tuple[tuple[float, ...], ...]:
    """The compatibility matrix of a variant: "raw", "homogenized" or "binarized"."""
    if tag == "raw":
        return spec.rho
    graph = root_graph(spec)
    if tag == "homogenized":
        if graph.rho_min is None:
            raise KernelError("homogenization needs at least one positive rho entry")
        fill = graph.rho_min
    elif tag == "binarized":
        fill = 1.0
    else:
        raise KernelError(f"unknown kernel variant {tag!r}")
    return tuple(tuple(fill if graph.adjacency[i][j] else 0.0 for j in range(graph.n_classes))
                 for i in range(graph.n_classes))


def pow_int(base: float, n: int) -> float:
    """base ** n for integer n >= 0 by squaring, with 0 ** 0 = 1."""
    if n < 0:
        raise KernelError("negative exponent")
    result = 1.0
    b = base
    while n:
        if n & 1:
            result *= b
        n >>= 1
        if n:
            b *= b
    return result


def _pow_int_over(base: np.ndarray, n: np.ndarray) -> np.ndarray:
    """pow_int elementwise over broadcast arrays of bases and counts n >= 0,
    bit for bit: the bits of n, lowest first, multiply the product by the
    base squared as many times as pow_int squares it, in pow_int's order."""
    b = np.asarray(base, dtype=float)
    n = np.asarray(n)
    result = np.ones(np.broadcast_shapes(b.shape, n.shape))
    while n.any():
        result = np.where(n & 1, result * b, result)
        n = n >> 1
        b = b * b
    return result


@dataclass(frozen=True)
class TransitionRow:
    """Non-zero one-step probabilities out of a single state."""

    state: State
    entries: tuple[tuple[State, float], ...]

    def as_dict(self) -> dict[State, float]:
        return dict(self.entries)

    def total(self) -> float:
        return sum(p for _, p in self.entries)


def _arrival_moves(spec: ModelSpec, policy: PolicyConfig, rho, x: State):
    """Per arrival class i: the class j targeted under rho, the probability
    of a match there (a decrement of j) and of none (an increment of i)."""
    for i in range(spec.n_classes):
        j = select_class(policy.weight, policy.alpha, x, rho[i])
        miss = pow_int(1.0 - rho[i][j], x[j])
        yield i, j, spec.nu[i] * (1.0 - miss), spec.nu[i] * miss


def transition_row(spec: ModelSpec, policy: PolicyConfig, variant, x: Sequence[int]) -> TransitionRow:
    """The full transition row out of x for the given kernel variant.

    Every successor differs from x in exactly one coordinate by one unit;
    decrements to the same target class are merged across arrival classes.
    """
    rho = kernel_variant(spec, variant)
    x = tuple(int(v) for v in x)
    if any(v < 0 for v in x):
        raise KernelError("negative count")
    probs: dict[State, float] = {}
    for i, j, p_yes, p_no in _arrival_moves(spec, policy, rho, x):
        if p_yes > 0.0:
            y = x[:j] + (x[j] - 1,) + x[j + 1:]
            probs[y] = probs.get(y, 0.0) + p_yes
        if p_no > 0.0:
            y = x[:i] + (x[i] + 1,) + x[i + 1:]
            probs[y] = probs.get(y, 0.0) + p_no
    return TransitionRow(state=x, entries=tuple(sorted(probs.items())))


def drift_q(spec: ModelSpec, policy: PolicyConfig, variant, x: Sequence[int]) -> float:
    """Drift of q(x) = sum x(i)^2 via the closed form
    1 + sum_i 2 x(i) P(x, x + e_i) - sum_j 2 x(j) P(x, x - e_j)."""
    x = tuple(int(v) for v in x)
    total = 0.0
    for i, j, p_yes, p_no in _arrival_moves(spec, policy, kernel_variant(spec, variant), x):
        total += p_no * (2 * x[i] + 1) + p_yes * (1 - 2 * x[j])
    return total


def theorem_bound(spec: ModelSpec, policy: PolicyConfig, x: Sequence[int]) -> float:
    """Certified upper bound on the drift of q at x.

    Requires a positive stability margin.  The bound is
    -2 eta ||x||_loopfree - sum over selfloop classes with x(i) >= n_star of
    2 x(i) nu(i), plus the constant 1 + 2 n_star + 4 K (1 + #selfloop).
    When every class has a self loop there is no loopfree coordinate and the
    eta term vanishes identically, which also covers eta = +inf.
    """
    graph = root_graph(spec)
    stab = stability(spec)
    if not stab.ncond:
        raise KernelError("the drift certificate requires a positive stability margin")
    x = tuple(int(v) for v in x)
    n_plus = len(graph.selfloop_classes)
    const = 1.0 + 2.0 * policy.n_star + 4.0 * graph.K * (1 + n_plus)
    eta_term = 0.0
    if graph.loopfree_classes:
        eta_term = 2.0 * stab.eta * max(x[i] for i in graph.loopfree_classes)
    loop_term = sum(2.0 * x[i] * spec.nu[i]
                    for i in graph.selfloop_classes if x[i] >= policy.n_star)
    return -eta_term - loop_term + const


@dataclass(frozen=True)
class DriftReport:
    state: State
    drift: float
    bound: float
    slack: float
    passed: bool


def check_main_drift(spec: ModelSpec, policy: PolicyConfig, x: Sequence[int]) -> DriftReport:
    """Compare the exact drift of q at x against the certified bound."""
    x = tuple(int(v) for v in x)
    d = drift_q(spec, policy, "raw", x)
    b = theorem_bound(spec, policy, x)
    slack = b - d
    return DriftReport(state=x, drift=d, bound=b, slack=slack, passed=slack >= -INEQ_TOL)


def threshold_map(x: Sequence[int], n_star: int) -> State:
    """Zero every coordinate below the policy threshold."""
    return tuple(v if v >= n_star else 0 for v in map(int, x))


def restrict_support(x: Sequence[int], keep: Iterable[int]) -> State:
    keep = set(keep)
    return tuple(v if i in keep else 0 for i, v in enumerate(map(int, x)))


def reduce_to_independent_support(spec: ModelSpec, policy: PolicyConfig,
                                  x: Sequence[int]) -> State:
    """Zero every support class that has a support neighbour with a larger
    (count, alpha) pair, leaving an independent support with the same sup
    norm.  Requires the support to avoid self-loop classes and all its
    counts to be at least n_star.

    This is the round rule's map: zero the smallest class of every
    connected component of the support with more than one class, and
    repeat.  A class with a larger support neighbour j is always zeroed,
    since j is never the smallest class of a component that still holds
    it; a class with no larger support neighbour never is, since every
    component holding it and another class holds a smaller neighbour of it.
    """
    graph = root_graph(spec)
    x = tuple(int(v) for v in x)
    s = support(x)
    if not s <= graph.loopfree_classes:
        raise KernelError("support touches a self-loop class")
    if any(x[i] < policy.n_star for i in s):
        raise KernelError("support counts below the policy threshold")
    key = tuple(zip(x, policy.alpha))
    return tuple(0 if any(graph.adjacency[i][j] and key[j] > key[i] for j in s) else v
                 for i, v in enumerate(x))


@dataclass(frozen=True)
class ChainStep:
    name: str
    applicable: bool
    lhs: float | None
    rhs: float | None
    slack: float | None
    passed: bool | None


@dataclass(frozen=True)
class ChainReport:
    state: State
    steps: tuple[ChainStep, ...]

    def ok(self) -> bool:
        return all(s.passed for s in self.steps if s.applicable)

    def step(self, name: str) -> ChainStep:
        for s in self.steps:
            if s.name == name:
                return s
        raise KeyError(name)


def _skipped(name: str) -> ChainStep:
    return ChainStep(name, False, None, None, None, None)


def _checked(name: str, lhs: float, rhs: float) -> ChainStep:
    slack = rhs - lhs
    return ChainStep(name, True, lhs, rhs, slack, slack >= -INEQ_TOL)


def verify_drift_chain(spec: ModelSpec, policy: PolicyConfig, x: Sequence[int]) -> ChainReport:
    """Check each reduction inequality of the drift certificate at x.

    Steps, each reported with its hypothesis gate:
      threshold       raw drift vs homogenized drift at the thresholded state,
                      plus 2 n_star; holds for every state.
      selfloops       homogenized drift vs the same with self-loop classes
                      zeroed, plus 4 K #selfloop minus the matched mass those
                      classes drain; needs all support counts >= n_star.
      independent     homogenized drift vs the reduced independent-support
                      state, plus 2 K; needs loopfree support with counts
                      >= n_star.
      certain_match   homogenized drift vs binarized drift, plus 2 K; same
                      hypothesis plus an independent support.
      margin          binarized drift vs 1 - 2 eta ||x||; needs a positive
                      stability margin and an independent loopfree support.
    """
    graph = root_graph(spec)
    stab = stability(spec)
    x = tuple(int(v) for v in x)
    ns = policy.n_star
    s = support(x)
    counts_ok = all(x[i] >= ns for i in s)
    loopfree_ok = s <= graph.loopfree_classes
    indep_ok = all(not graph.adjacency[i][j] for i in s for j in s)

    steps: list[ChainStep] = []

    d_raw = drift_q(spec, policy, "raw", x)
    d_hom_thr = drift_q(spec, policy, "homogenized", threshold_map(x, ns))
    steps.append(_checked("threshold", d_raw, d_hom_thr + 2.0 * ns))

    d_hom = drift_q(spec, policy, "homogenized", x) if counts_ok else None
    if counts_ok:
        stripped = restrict_support(x, graph.loopfree_classes)
        drained = sum(2.0 * x[i] * spec.nu[i] for i in graph.selfloop_classes)
        rhs = drift_q(spec, policy, "homogenized", stripped) \
            + 4.0 * graph.K * len(graph.selfloop_classes) - drained
        steps.append(_checked("selfloops", d_hom, rhs))
    else:
        steps.append(_skipped("selfloops"))

    if loopfree_ok and counts_ok:
        reduced = reduce_to_independent_support(spec, policy, x)
        steps.append(_checked("independent", d_hom,
                              drift_q(spec, policy, "homogenized", reduced) + 2.0 * graph.K))
    else:
        steps.append(_skipped("independent"))

    bin_ok = loopfree_ok and indep_ok
    d_bin = drift_q(spec, policy, "binarized", x) \
        if bin_ok and (counts_ok or stab.ncond) else None
    if bin_ok and counts_ok:
        steps.append(_checked("certain_match", d_hom, d_bin + 2.0 * graph.K))
    else:
        steps.append(_skipped("certain_match"))

    if bin_ok and stab.ncond:
        norm = sup_norm(x)
        rhs = 1.0 if norm == 0 else 1.0 - 2.0 * stab.eta * norm
        steps.append(_checked("margin", d_bin, rhs))
    else:
        steps.append(_skipped("margin"))

    return ChainReport(state=x, steps=tuple(steps))


#: Bound on the number of states in the box {0..R}^C.
BOX_MAX_STATES = 2_000_000
#: States per chunk of drift_sweep and chain_sweep and per block of stationary
#: rows; each chunk's rows are written before the next is built, so peak
#: memory is set by this and not by the radius or the state count.
SWEEP_CHUNK = 320


def _box_side(n_classes: int, radius: int) -> int:
    """radius + 1, once the box {0..radius}^C is checked against BOX_MAX_STATES."""
    if radius < 0:
        raise KernelError(f"the radius must be non-negative, got {radius}")
    if (radius + 1) ** n_classes > BOX_MAX_STATES:
        raise KernelError(f"the box {{0..{radius}}}^{n_classes} exceeds {BOX_MAX_STATES} states")
    return radius + 1


def _ball(n_classes: int, radius: int):
    """The box {0..radius}^C in itertools.product order, as (n, C) arrays of
    at most SWEEP_CHUNK rows; the box is checked before any chunk is built."""
    side = _box_side(n_classes, radius)
    total = side ** n_classes
    return (np.stack(np.unravel_index(np.arange(k, min(k + SWEEP_CHUNK, total)),
                                      (side,) * n_classes), axis=1)
            for k in range(0, total, SWEEP_CHUNK))


def move_tables(spec: ModelSpec, policy: PolicyConfig, variant: str,
                cap: int) -> tuple[np.ndarray, np.ndarray]:
    """w(k, rho[i][j]) and (1 - rho[i][j]) ** k at [i, j, k] for the variant's
    rho and the counts k = 0..cap, from the scalar weight and _pow_int_over, so
    that they equal select_class's and _arrival_moves' values.  The weight
    takes one scalar call per count because numpy's array power can differ
    from the scalar ** in the last bit of w2 (numpy 2.4.6 on AVX-512: 62 of
    counts 0..200,000 at r = 1e-3, 11,762 at r = 1e-7).  They hold
    2 C^2 (cap + 1) floats: a sweep builds them once and drops them at its end."""
    rho = kernel_variant(spec, variant)
    C, side = spec.n_classes, cap + 1
    weights = np.asarray([[[float(policy.weight.fn(k, rho[i][j])) for k in range(side)]
                           for j in range(C)] for i in range(C)])
    miss = _pow_int_over(1.0 - np.asarray(rho, dtype=float)[:, :, None], np.arange(side))
    return weights, miss


def chain_tables(spec: ModelSpec, policy: PolicyConfig,
                 cap: int) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """move_tables of the three variants that verify_drift_chain_over reads."""
    return {v: move_tables(spec, policy, v, cap) for v in ("raw", "homogenized", "binarized")}


def box_moves(spec: ModelSpec, policy: PolicyConfig, tables, X: np.ndarray):
    """_arrival_moves over the rows of the (n, C) state array X: per arrival
    class i in ascending order, (i, j, p_yes, p_no) with the target class j,
    the match probability and the store probability as arrays over the rows.

    The weights and miss probabilities are looked up in tables, the
    move_tables of one variant over counts up to at least X's; ties are broken
    by select_class's rule, weights within WEIGHT_TOL of the maximum tied and
    the largest alpha winning.  So every entry is bit-identical to
    _arrival_moves' at the same state.
    """
    weight, miss = tables
    X = np.asarray(X)
    alpha = np.asarray(policy.alpha)
    rows, cols = np.arange(len(X)), np.arange(spec.n_classes)
    for i in range(spec.n_classes):
        w = weight[i, cols, X]
        tied = w >= w.max(axis=1, keepdims=True) - WEIGHT_TOL
        j = np.argmax(np.where(tied, alpha, -1), axis=1)
        m = miss[i, j, X[rows, j]]
        yield i, j, spec.nu[i] * (1.0 - m), spec.nu[i] * m


def drift_q_over(spec: ModelSpec, policy: PolicyConfig, tables, X: np.ndarray,
                 match: int = -1) -> np.ndarray:
    """drift_q at every row of X under the variant of tables (match = -1), or,
    with the raw tables and match = +1, the drift sweep's negative control:
    every matching step flipped upward, 1 + 2 x(j) for 1 - 2 x(j).  Summed
    over ascending arrival classes as drift_q sums, so bit-identical."""
    X = np.asarray(X)
    rows = np.arange(len(X))
    total = np.zeros(len(X))
    for i, j, p_yes, p_no in box_moves(spec, policy, tables, X):
        total = total + (p_no * (2 * X[:, i] + 1) + p_yes * (1 + 2 * match * X[rows, j]))
    return total


def _selfloop_sum(spec: ModelSpec, X: np.ndarray) -> np.ndarray:
    """sum of 2 x(i) nu(i) over the self-loop classes at every row of X, in
    the iteration order of the scalar sums.  A zero count adds 0.0, which
    leaves the non-negative sum as the scalar sum that skips it."""
    total = np.zeros(len(X))
    for i in root_graph(spec).selfloop_classes:
        total = total + 2.0 * X[:, i] * spec.nu[i]
    return total


def theorem_bound_over(spec: ModelSpec, policy: PolicyConfig, X: np.ndarray) -> np.ndarray:
    """theorem_bound at every row of X, bit-identical to it."""
    graph = root_graph(spec)
    stab = stability(spec)
    if not stab.ncond:
        raise KernelError("the drift certificate requires a positive stability margin")
    X = np.asarray(X)
    n_plus = len(graph.selfloop_classes)
    const = 1.0 + 2.0 * policy.n_star + 4.0 * graph.K * (1 + n_plus)
    eta_term = 0.0
    if graph.loopfree_classes:
        eta_term = 2.0 * stab.eta * X[:, sorted(graph.loopfree_classes)].max(axis=1)
    loop_term = _selfloop_sum(spec, np.where(X >= policy.n_star, X, 0))
    return -eta_term - loop_term + const


@dataclass(frozen=True)
class StepArrays:
    """A ChainStep at every row of a state array.  lhs, rhs and slack hold
    the step's values where it is applicable, and passed is slack >= -INEQ_TOL."""

    name: str
    applicable: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    slack: np.ndarray
    passed: np.ndarray


def _checked_over(name: str, applicable: np.ndarray, lhs: np.ndarray, rhs: np.ndarray) -> StepArrays:
    """The check lhs <= rhs, up to INEQ_TOL, at every row of the arrays."""
    slack = rhs - lhs
    return StepArrays(name, applicable, lhs, rhs, slack, slack >= -INEQ_TOL)


def verify_drift_chain_over(spec: ModelSpec, policy: PolicyConfig, tables,
                            X: np.ndarray) -> tuple[StepArrays, ...]:
    """verify_drift_chain at every row of X, with the same gates and
    bit-identical lhs and rhs; tables is chain_tables over counts up to at
    least X's.

    The thresholded, self-loop-stripped and reduced states only zero
    coordinates, so they lie in the same box as X; the reduction is
    reduce_to_independent_support's one-pass local maximum on (x, alpha).
    The four homogenized drifts are one drift_q_over call.
    """
    graph = root_graph(spec)
    stab = stability(spec)
    X = np.asarray(X)
    n = len(X)
    ns = policy.n_star
    loops = sorted(graph.selfloop_classes)
    adjacency = np.asarray(graph.adjacency, dtype=bool)
    alpha = np.asarray(policy.alpha)
    held = X > 0
    counts_ok = np.all(~held | (X >= ns), axis=1)
    loopfree_ok = ~held[:, loops].any(axis=1)
    indep_ok = ~(held[:, :, None] & held[:, None, :] & adjacency).any(axis=(1, 2))
    bin_ok = loopfree_ok & indep_ok

    thresholded = np.where(X >= ns, X, 0)
    stripped = X.copy()
    stripped[:, loops] = 0
    xi, xj = X[:, :, None], X[:, None, :]
    beaten = (xj > xi) | ((xj == xi) & (alpha[None, :] > alpha[:, None]))  # [r, i, j]: key j > key i
    reduced = np.where((beaten & adjacency).any(axis=2), 0, X)

    d_raw = drift_q_over(spec, policy, tables["raw"], X)
    d_hom_thr, d_hom, d_hom_stripped, d_hom_reduced = drift_q_over(
        spec, policy, tables["homogenized"],
        np.concatenate([thresholded, X, stripped, reduced])).reshape(4, n)
    d_bin = drift_q_over(spec, policy, tables["binarized"], X)
    norm = X.max(axis=1)
    with np.errstate(invalid="ignore"):  # eta = inf at norm 0, where 1.0 is taken
        margin = np.where(norm == 0, 1.0, 1.0 - 2.0 * stab.eta * norm)
    return (
        _checked_over("threshold", np.ones(n, dtype=bool), d_raw, d_hom_thr + 2.0 * ns),
        _checked_over("selfloops", counts_ok, d_hom,
                      d_hom_stripped + 4.0 * graph.K * len(loops) - _selfloop_sum(spec, X)),
        _checked_over("independent", loopfree_ok & counts_ok, d_hom, d_hom_reduced + 2.0 * graph.K),
        _checked_over("certain_match", bin_ok & counts_ok, d_hom, d_bin + 2.0 * graph.K),
        _checked_over("margin", bin_ok & stab.ncond, d_bin, margin),
    )


def drift_sweep(spec: ModelSpec, policy: PolicyConfig, radius: int, match: int = -1):
    """Per chunk X of _ball, X and the check of drift_q_over (match as there)
    against theorem_bound_over.  The box is checked and the raw tables built
    on the call, each chunk when it is asked for."""
    ball = _ball(spec.n_classes, radius)
    tables = move_tables(spec, policy, "raw", radius)
    return ((X, _checked_over("drift", np.ones(len(X), dtype=bool),
                              drift_q_over(spec, policy, tables, X, match=match),
                              theorem_bound_over(spec, policy, X)))
            for X in ball)


def chain_sweep(spec: ModelSpec, policy: PolicyConfig, radius: int):
    """Per chunk X of _ball, X and verify_drift_chain_over's steps, checked and
    built as in drift_sweep."""
    ball = _ball(spec.n_classes, radius)
    tables = chain_tables(spec, policy, radius)
    return ((X, verify_drift_chain_over(spec, policy, tables, X)) for X in ball)


def _box_kernel(spec: ModelSpec, policy: PolicyConfig,
                cap: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The raw kernel on the whole box {0..cap}^C as (X, val, offsets): X
    holds the box states in sorted (C) order, and row r of val the
    probabilities of the moves from X[r] to the box state r + offsets.  The
    box size (cap + 1) ** C is checked against BOX_MAX_STATES before
    anything is allocated.

    Row r of the box has entries only at the 2C + 1 columns r - stride[j]
    (a match at class j), r (the self-loop into which an increment leaving
    the box folds) and r + stride[i] (arrival i stored), with the strides
    descending over the classes.  So offsets holds those columns in
    ascending order: the decrements by class, the fold, then the increments
    in reverse class order; an entry is 0.0 where its move is impossible.

    Each entry is bit-identical to transition_row's: the moves are
    box_moves', decrements to the same class accumulate over ascending
    arrival classes, and the fold sums increments over descending classes
    (the order of the sorted row).
    """
    C = spec.n_classes
    side = _box_side(C, cap)
    X = np.indices((side,) * C).reshape(C, -1).T  # C order = sorted tuples
    N = X.shape[0]
    rows = np.arange(N)
    stride = side ** np.arange(C - 1, -1, -1)
    offsets = np.concatenate([-stride, [0], stride[::-1]])
    val = np.zeros((N, 2 * C + 1))
    p_yes = val[:, :C]  # a view of val, merged per target class
    p_no = val[:, :C:-1]  # a view of val, per arrival class i in column 2C - i
    for i, j, yes, no in box_moves(spec, policy, move_tables(spec, policy, "raw", cap), X):
        p_yes[rows, j] += yes
        p_no[:, i] = no
    at_cap = X == cap
    for i in range(C - 1, -1, -1):
        val[:, C] += np.where(at_cap[:, i], p_no[:, i], 0.0)
    p_no[at_cap] = 0.0
    return X, val, offsets


def _steps(positive: np.ndarray, cap: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """(up, down) of the box kernel, where positive is _box_kernel's val > 0:
    up[i] and down[i], views of shape (cap + 1,) * C, say at x whether the
    chain steps from x to x + e_i and to x - e_i.  up[i] is False at
    x_i = cap and down[i] at x_i = 0."""
    C = positive.shape[1] // 2
    shape = (cap + 1,) * C
    return ([positive[:, 2 * C - i].reshape(shape) for i in range(C)],
            [positive[:, j].reshape(shape) for j in range(C)])


def _reach(up: list[np.ndarray], down: list[np.ndarray]) -> np.ndarray:
    """The box states that unit steps along up and down (as _steps gives
    them) reach from the origin, as a flat mask in C order.

    A round sweeps every axis up and down.  Along a line of the box, a state
    is reached when a reached state lies below it with a step up from each
    state between them, or above it with a step down from each.  So the
    upward sweep marks a reached state at position k with 2k + 1, and else
    marks 2k where no step up comes from k - 1 (always at k = 0); the running
    maximum of the marks is odd exactly where the sweep reaches.  The
    downward sweep is the upward one on the flipped line.  Rounds repeat
    until one adds nothing or every state is reached: the closure of a
    breadth-first search, for O(C N) numpy work per round.
    """
    C, shape = len(up), up[0].shape
    reached = np.zeros(shape, dtype=bool)
    reached[(0,) * C] = True
    sweeps = []
    for i in range(C):
        k = np.arange(shape[i], dtype=np.int32).reshape([-1 if a == i else 1 for a in range(C)])
        for R, step in ((reached, up[i]), (np.flip(reached, i), np.flip(down[i], i))):
            # the roll brings the last position's step, which is never there, to k = 0
            sweeps.append((i, R, 2 * k + 1, ~np.roll(step, 1, axis=i) * (2 * k)))
    count = 1
    while True:
        for i, R, mark, start in sweeps:
            R |= (np.maximum.accumulate(np.maximum(R * mark, start), axis=i) & 1) > 0
        last, count = count, np.count_nonzero(reached)
        if count == last or count == reached.size:
            return reached.ravel()


def transition_table(spec: ModelSpec, policy: PolicyConfig,
                     cap: int) -> tuple[np.ndarray, sp.csr_matrix]:
    """The raw kernel on the states of the box {0..cap}^C reachable from the
    origin, as (grid, P): grid holds one count vector per state in sorted
    (lexicographic) order, the origin first, and P is the transition matrix
    in that order.  The box size (cap + 1) ** C is checked against
    BOX_MAX_STATES before anything is allocated.

    P keeps the positive entries of _box_kernel's val on the rows of the
    reached states, and each entry's column is its box state's index among
    them: a reached state moves only to reached states, so no row loses an
    entry, and the columns stay ascending.
    """
    import scipy.sparse as sp

    X, val, offsets = _box_kernel(spec, policy, cap)
    positive = val > 0.0
    reached = _reach(*_steps(positive, cap))
    positive[~reached] = False
    index = np.cumsum(reached) - 1  # each reached box state's index among them
    n = index[-1] + 1
    entry = np.flatnonzero(positive)  # reached rows only, in row-major order
    r, c = np.divmod(entry, val.shape[1])
    P = sp.csr_matrix((val.ravel()[entry], index[r + offsets[c]],
                       np.concatenate([[0], np.cumsum(np.bincount(index[r], minlength=n))])),
                      shape=(n, n))
    return X[reached], P


def propagate_distribution(spec: ModelSpec, policy: PolicyConfig,
                           steps: int) -> dict[State, float]:
    """The law of the chain after a given number of steps from the origin,
    as {state: probability} over the states of positive probability.

    The pushes run over transition_table with cap = steps: reaching the cap
    takes steps arrivals, so no mass is folded and nothing is truncated.
    """
    if steps < 0:
        raise KernelError(f"steps must be non-negative, got {steps}")
    grid, P = transition_table(spec, policy, steps)
    p = np.zeros(len(grid))
    p[0] = 1.0
    for _ in range(steps):
        p = p @ P
    live = p > 0.0
    return dict(zip(map(tuple, grid[live].tolist()), p[live].tolist()))
