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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order

from .model import ModelSpec, root_graph, stability
from .policy import (WEIGHT_TOL, PolicyConfig, State, select_class, support, sup_norm,
                     sup_norm_over)

INEQ_TOL = 1e-9

VARIANT_TAGS = ("raw", "homogenized", "binarized")


class KernelError(ValueError):
    """Raised on kernel precondition violations."""


@dataclass(frozen=True)
class KernelVariant:
    """A tag plus the effective compatibility matrix it induces."""

    tag: str
    rho: tuple[tuple[float, ...], ...]


@lru_cache(maxsize=None)
def kernel_variant(spec: ModelSpec, tag: str) -> KernelVariant:
    if tag == "raw":
        return KernelVariant("raw", spec.rho)
    graph = root_graph(spec)
    if tag == "homogenized":
        if graph.rho_min is None:
            raise KernelError("homogenization needs at least one positive rho entry")
        fill = graph.rho_min
    elif tag == "binarized":
        fill = 1.0
    else:
        raise KernelError(f"unknown kernel variant {tag!r}")
    rho = tuple(tuple(fill if graph.adjacency[i][j] else 0.0 for j in range(graph.n_classes))
                for i in range(graph.n_classes))
    return KernelVariant(tag, rho)


def _resolve_variant(spec: ModelSpec, variant) -> KernelVariant:
    if isinstance(variant, KernelVariant):
        return variant
    return kernel_variant(spec, variant)


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


@dataclass(frozen=True)
class TransitionRow:
    """Non-zero one-step probabilities out of a single state."""

    state: State
    entries: tuple[tuple[State, float], ...]

    def as_dict(self) -> dict[State, float]:
        return dict(self.entries)

    def total(self) -> float:
        return sum(p for _, p in self.entries)


def transition_row(spec: ModelSpec, policy: PolicyConfig, variant, x: Sequence[int]) -> TransitionRow:
    """The full transition row out of x for the given kernel variant.

    Every successor differs from x in exactly one coordinate by one unit;
    decrements to the same target class are merged across arrival classes.
    """
    var = _resolve_variant(spec, variant)
    x = tuple(int(v) for v in x)
    if any(v < 0 for v in x):
        raise KernelError("negative count")
    n = spec.n_classes
    probs: dict[State, float] = {}
    for i in range(n):
        j = select_class(policy.weight, policy.alpha, x, var.rho[i])
        miss = pow_int(1.0 - var.rho[i][j], x[j])
        p_no = spec.nu[i] * miss
        p_yes = spec.nu[i] * (1.0 - miss)
        if p_yes > 0.0:
            y = x[:j] + (x[j] - 1,) + x[j + 1:]
            probs[y] = probs.get(y, 0.0) + p_yes
        if p_no > 0.0:
            y = x[:i] + (x[i] + 1,) + x[i + 1:]
            probs[y] = probs.get(y, 0.0) + p_no
    return TransitionRow(state=x, entries=tuple(sorted(probs.items())))


def quadratic(x: Sequence[int]) -> float:
    return float(sum(v * v for v in x))


def drift(spec: ModelSpec, policy: PolicyConfig, variant, h: Callable[[State], float],
          x: Sequence[int]) -> float:
    """One-step expected change of h at x: sum_y P(x, y) h(y) - h(x)."""
    row = transition_row(spec, policy, variant, x)
    return sum(p * h(y) for y, p in row.entries) - h(row.state)


def drift_q(spec: ModelSpec, policy: PolicyConfig, variant, x: Sequence[int]) -> float:
    """Drift of q(x) = sum x(i)^2 via the closed form
    1 + sum_i 2 x(i) P(x, x + e_i) - sum_j 2 x(j) P(x, x - e_j)."""
    var = _resolve_variant(spec, variant)
    x = tuple(int(v) for v in x)
    n = spec.n_classes
    total = 0.0
    for i in range(n):
        j = select_class(policy.weight, policy.alpha, x, var.rho[i])
        miss = pow_int(1.0 - var.rho[i][j], x[j])
        p_no = spec.nu[i] * miss
        p_yes = spec.nu[i] * (1.0 - miss)
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
        eta_term = 2.0 * stab.eta * sup_norm_over(x, graph.loopfree_classes)
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


def _components(adjacency, members: frozenset[int]) -> list[set[int]]:
    """Connected components of the subgraph induced on members (self loops
    ignored for connectivity)."""
    seen: set[int] = set()
    comps = []
    for start in sorted(members):
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        seen.add(start)
        while queue:
            u = queue.popleft()
            for v in members:
                if v not in comp and v != u and adjacency[u][v]:
                    comp.add(v)
                    queue.append(v)
                    seen.add(v)
        comps.append(comp)
    return comps


def reduce_to_independent_support(spec: ModelSpec, policy: PolicyConfig,
                                  x: Sequence[int]) -> State:
    """Zero classes until the support is independent, preserving the sup norm.

    In every connected component of the support with more than one class the
    class with the smallest (count, alpha) pair is zeroed, and the process
    repeats.  Requires the support to avoid self-loop classes and all its
    counts to be at least n_star.
    """
    graph = root_graph(spec)
    y = list(map(int, x))
    s = support(tuple(y))
    if not s <= graph.loopfree_classes:
        raise KernelError("support touches a self-loop class")
    if any(y[i] < policy.n_star for i in s):
        raise KernelError("support counts below the policy threshold")
    while True:
        s = frozenset(i for i, v in enumerate(y) if v > 0)
        big = [c for c in _components(graph.adjacency, s) if len(c) > 1]
        if not big:
            return tuple(y)
        for comp in big:
            k = min(comp, key=lambda i: (y[i], policy.alpha[i]))
            y[k] = 0


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

    if counts_ok:
        d_hom = drift_q(spec, policy, "homogenized", x)
        stripped = restrict_support(x, graph.loopfree_classes)
        drained = sum(2.0 * x[i] * spec.nu[i] for i in graph.selfloop_classes)
        rhs = drift_q(spec, policy, "homogenized", stripped) \
            + 4.0 * graph.K * len(graph.selfloop_classes) - drained
        steps.append(_checked("selfloops", d_hom, rhs))
    else:
        steps.append(_skipped("selfloops"))

    if loopfree_ok and counts_ok:
        d_hom = drift_q(spec, policy, "homogenized", x)
        reduced = reduce_to_independent_support(spec, policy, x)
        steps.append(_checked("independent", d_hom,
                              drift_q(spec, policy, "homogenized", reduced) + 2.0 * graph.K))
    else:
        steps.append(_skipped("independent"))

    if loopfree_ok and counts_ok and indep_ok:
        d_hom = drift_q(spec, policy, "homogenized", x)
        steps.append(_checked("certain_match", d_hom,
                              drift_q(spec, policy, "binarized", x) + 2.0 * graph.K))
    else:
        steps.append(_skipped("certain_match"))

    if stab.ncond and loopfree_ok and indep_ok:
        d_bin = drift_q(spec, policy, "binarized", x)
        norm = sup_norm(x)
        rhs = 1.0 if norm == 0 else 1.0 - 2.0 * stab.eta * norm
        steps.append(_checked("margin", d_bin, rhs))
    else:
        steps.append(_skipped("margin"))

    return ChainReport(state=x, steps=tuple(steps))


#: Default bound on the number of states in the box {0..cap}^C.
BOX_MAX_STATES = 2_000_000


def transition_table(spec: ModelSpec, policy: PolicyConfig, cap: int,
                     max_states: int = BOX_MAX_STATES) -> tuple[np.ndarray, sp.csr_matrix]:
    """The raw kernel on the states of the box {0..cap}^C reachable from the
    origin, as (grid, P).

    grid holds one count vector per state, in sorted (lexicographic) order
    with the origin first, and P is the transition matrix in that order.
    The kernel is built over the whole box at once and then restricted; an
    increment that would leave the box folds into a self-loop.

    The weights and miss probabilities come from the scalar weight and
    pow_int, and every sum runs in transition_row's order, so each entry is
    bit-identical to the scalar row: decrements to the same class
    accumulate over ascending arrival classes, and the folded self-loop sums
    increments over descending classes (the order of the sorted row).
    max_states bounds the box size (cap + 1) ** C before anything is
    allocated.
    """
    if cap < 0:
        raise KernelError("cap must be non-negative")
    C = spec.n_classes
    side = cap + 1
    if side ** C > max_states:
        raise KernelError(f"the box {{0..{cap}}}^{C} exceeds {max_states} states")
    rho = spec.rho
    weight = np.asarray([[[float(policy.weight(k, rho[i][j])) for k in range(side)]
                          for j in range(C)] for i in range(C)])
    miss = np.asarray([[[pow_int(1.0 - rho[i][j], k) for k in range(side)]
                        for j in range(C)] for i in range(C)])
    alpha = np.asarray(policy.alpha)

    X = np.indices((side,) * C).reshape(C, -1).T  # C order = sorted tuples
    N = X.shape[0]
    rows = np.arange(N)
    cols = np.arange(C)
    p_yes = np.zeros((N, C))  # merged per target class
    p_no = np.empty((N, C))  # per arrival class
    for i in range(C):
        w = weight[i, cols, X]
        tied = w >= w.max(axis=1, keepdims=True) - WEIGHT_TOL
        j = np.argmax(np.where(tied, alpha, -1), axis=1)
        m = miss[i, j, X[rows, j]]
        p_yes[rows, j] += spec.nu[i] * (1.0 - m)
        p_no[:, i] = spec.nu[i] * m
    at_cap = X == cap
    fold = np.zeros(N)
    for i in range(C - 1, -1, -1):
        fold += np.where(at_cap[:, i], p_no[:, i], 0.0)

    stride = side ** np.arange(C - 1, -1, -1)
    src = np.concatenate([np.repeat(rows, C), np.repeat(rows, C), rows])
    dst = np.concatenate([(rows[:, None] - stride).ravel(),
                          (rows[:, None] + stride).ravel(), rows])
    val = np.concatenate([p_yes.ravel(), np.where(at_cap, 0.0, p_no).ravel(), fold])
    keep = val > 0.0
    src, dst, val = src[keep], dst[keep], val[keep]

    box = sp.csr_matrix((val, (src, dst)), shape=(N, N))
    reached = np.zeros(N, dtype=bool)
    reached[breadth_first_order(box, 0, return_predecessors=False)] = True
    renumber = np.cumsum(reached) - 1
    n = int(reached.sum())
    keep = reached[src]
    P = sp.coo_matrix((val[keep], (renumber[src[keep]], renumber[dst[keep]])),
                      shape=(n, n)).tocsr()
    return X[reached], P


@dataclass(frozen=True)
class ReachabilityReport:
    cap: int
    states_explored: int
    all_return: bool
    unreturned: tuple[State, ...]


def reachable_check(spec: ModelSpec, policy: PolicyConfig, cap: int) -> ReachabilityReport:
    """Explore the chain from the origin inside the sup-norm ball of radius
    cap and verify every reached state has a positive-probability path back.

    Requires every class to have at least one compatible class, since an
    isolated class blocks all returns once one of its nodes arrives, and a
    box (cap + 1) ** C of at most BOX_MAX_STATES states.
    """
    graph = root_graph(spec)
    for i in range(graph.n_classes):
        if not any(graph.adjacency[i]):
            raise KernelError(f"class {spec.classes[i]!r} is isolated in the compatibility graph")
    grid, P = transition_table(spec, policy, cap)
    back = np.zeros(len(grid), dtype=bool)
    back[breadth_first_order(P.T, 0, return_predecessors=False)] = True
    missing = tuple(map(tuple, grid[~back].tolist()))
    return ReachabilityReport(cap=cap, states_explored=len(grid),
                              all_return=not missing, unreturned=missing)


def propagate_distribution(spec: ModelSpec, policy: PolicyConfig, variant,
                           dist: dict[State, float], steps: int) -> dict[State, float]:
    """Push a distribution over states through the kernel a given number of
    steps, dropping nothing (no truncation)."""
    row_cache: dict[State, TransitionRow] = {}
    current = dict(dist)
    for _ in range(steps):
        nxt: dict[State, float] = {}
        for x, p in current.items():
            row = row_cache.get(x)
            if row is None:
                row = transition_row(spec, policy, variant, x)
                row_cache[x] = row
            for y, q in row.entries:
                nxt[y] = nxt.get(y, 0.0) + p * q
        current = nxt
    return current
