"""Static description of the matching model.

A model is a finite set of node classes, an arrival distribution over the
classes, and a symmetric compatibility matrix rho whose entry rho(i, j) is
the probability that a new node of class i draws an edge to a given present
node of class j.  Everything downstream (policies, kernels, simulation)
consumes the immutable ModelSpec defined here, together with the derived
compatibility graph and the stability margin eta computed over independent
sets of that graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

PROB_TOL = 1e-12

# Independent-set enumeration is exponential in the number of classes; this
# cap keeps the worst case bounded.
ENUMERATION_CAP = 24


class InvalidModelError(ValueError):
    """Raised when a model description violates a structural requirement."""


@dataclass(frozen=True)
class ModelSpec:
    """Immutable model: class labels, arrival law nu, compatibility matrix rho.

    nu_exact carries the arrival probabilities as fractions when the model was
    built from rational input, in which case the stability margin is computed
    in exact arithmetic.
    """

    classes: tuple
    nu: tuple[float, ...]
    rho: tuple[tuple[float, ...], ...]
    nu_exact: tuple[Fraction, ...] | None = None

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def class_index(self, label) -> int:
        return self.classes.index(label)


@dataclass(frozen=True)
class RootGraph:
    """Compatibility graph on classes: adjacency is the sign pattern of rho.

    selfloop_classes holds the classes whose nodes can match among themselves,
    loopfree_classes the rest.  rho_min is the smallest positive entry of rho
    and K the largest value of n * (1 - rho_min) ** n over non-negative n;
    both are None when rho has no positive entry at all.
    """

    classes: tuple
    adjacency: tuple[tuple[bool, ...], ...]
    selfloop_classes: frozenset[int]
    loopfree_classes: frozenset[int]
    rho_min: float | None
    K: float | None

    @property
    def n_classes(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of the stability check.

    eta is the minimum of nu(N(I)) - nu(I) over non-empty independent sets I
    of the compatibility graph, +inf when there is no such set.  The chain is
    positive recurrent under the greedy policies exactly when eta > 0, which
    is what the ncond flag records.
    """

    eta: float
    ncond: bool
    independent_sets: tuple[frozenset[int], ...]
    minimizer: frozenset[int] | None
    eta_exact: Fraction | None = None


@dataclass(frozen=True)
class WalkSpec:
    """Constants of the one-dimensional comparison walk attached to an
    independent set I.

    The walk gains +1 when an arrival lands in I and loses 1 when it lands in
    the neighborhood N(I), so its per-step drift is mu = nu(I) - nu(N(I)),
    which equals -eta when I attains the stability margin.  sigma2 is the
    second moment nu(I) + nu(N(I)) of the increment, and c_bound is the
    Gaussian tail constant 1 - Phi(C / sigma) with C the number of classes.
    """

    independent_set: frozenset[int]
    mu: float
    sigma2: float
    c_bound: float


def _as_prob_matrix(rho: Sequence[Sequence[float]], n: int) -> tuple[tuple[float, ...], ...]:
    if len(rho) != n or any(len(row) != n for row in rho):
        raise InvalidModelError(f"rho must be a {n}x{n} matrix")
    out = tuple(tuple(float(v) for v in row) for row in rho)
    for row in out:
        for v in row:
            if not (0.0 <= v <= 1.0) or math.isnan(v):
                raise InvalidModelError(f"rho entries must lie in [0, 1], got {v!r}")
    return out


def make_spec(classes: Sequence, nu: Sequence, rho: Sequence[Sequence[float]]) -> ModelSpec:
    """Build and validate a ModelSpec.

    nu entries may be floats or Fractions.  Fractions are kept alongside the
    float values so that the stability margin can be computed exactly.
    """
    classes = tuple(classes)
    if len(classes) == 0:
        raise InvalidModelError("at least one class is required")
    if len(set(classes)) != len(classes):
        raise InvalidModelError("duplicate class labels")

    exact = all(isinstance(v, Fraction) for v in nu)
    nu_exact = tuple(nu) if exact else None
    nu_f = tuple(float(v) for v in nu)
    if len(nu_f) != len(classes):
        raise InvalidModelError("nu length does not match the number of classes")
    if any(v <= 0.0 for v in nu_f):
        raise InvalidModelError("nu must be strictly positive")
    if exact:
        if sum(nu_exact) != 1:
            raise InvalidModelError("nu not normalized")
    elif abs(sum(nu_f) - 1.0) > PROB_TOL:
        raise InvalidModelError("nu not normalized")

    rho_t = _as_prob_matrix(rho, len(classes))
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            a, b = rho_t[i][j], rho_t[j][i]
            if abs(a - b) > PROB_TOL or (a > 0.0) != (b > 0.0):
                raise InvalidModelError(f"rho asymmetric at ({classes[i]!r}, {classes[j]!r})")

    return ModelSpec(classes=classes, nu=nu_f, rho=rho_t, nu_exact=nu_exact)


def validate(spec: ModelSpec) -> ModelSpec:
    """Re-run all structural checks on an existing spec and return it."""
    return make_spec(spec.classes, spec.nu_exact if spec.nu_exact is not None else spec.nu, spec.rho)


@lru_cache(maxsize=None)
def root_graph(spec: ModelSpec) -> RootGraph:
    """Derive the compatibility graph and the constants rho_min and K."""
    n = spec.n_classes
    adjacency = tuple(tuple(v > 0.0 for v in row) for row in spec.rho)
    selfloop = frozenset(i for i in range(n) if adjacency[i][i])
    loopfree = frozenset(range(n)) - selfloop

    positive = [v for row in spec.rho for v in row if v > 0.0]
    if not positive:
        return RootGraph(spec.classes, adjacency, selfloop, loopfree, None, None)
    rho_min = min(positive)

    # n * (1 - rho_min) ** n is log-concave in n with its real maximum at
    # -1 / log1p(-rho_min) (0 when rho_min = 1), so the integer maximum sits
    # at the floor or the ceiling of that point.
    peak = -1.0 / math.log1p(-rho_min) if rho_min < 1.0 else 0.0
    ns = np.array([math.floor(peak), math.ceil(peak)], dtype=float)
    K = float(np.max(ns * (1.0 - rho_min) ** ns))
    return RootGraph(spec.classes, adjacency, selfloop, loopfree, rho_min, K)


def neighborhood(graph: RootGraph, subset: Iterable[int]) -> frozenset[int]:
    """Classes adjacent to at least one member of the subset."""
    out: set[int] = set()
    for i in subset:
        out.update(j for j in range(graph.n_classes) if graph.adjacency[i][j])
    return frozenset(out)


def _independent_set_masks(graph: RootGraph) -> list[int]:
    """All non-empty independent sets as bitmasks, in lexicographic order."""
    n = graph.n_classes
    if n > ENUMERATION_CAP:
        raise InvalidModelError(f"independent-set enumeration capped at {ENUMERATION_CAP} classes, got {n}")
    nb = [0] * n
    for i in range(n):
        for j in range(n):
            if graph.adjacency[i][j]:
                nb[i] |= 1 << j
    free = [i for i in range(n) if not (nb[i] >> i) & 1]

    masks: list[int] = []

    def extend(pos: int, mask: int) -> None:
        for k in range(pos, len(free)):
            j = free[k]
            if nb[j] & mask:
                continue
            new = mask | (1 << j)
            masks.append(new)
            extend(k + 1, new)

    extend(0, 0)
    return masks


def independent_sets(graph: RootGraph) -> tuple[frozenset[int], ...]:
    bits = _independent_set_masks(graph)
    return tuple(frozenset(i for i in range(graph.n_classes) if (m >> i) & 1) for m in bits)


@lru_cache(maxsize=None)
def stability(spec: ModelSpec) -> StabilityReport:
    """Compute eta = min over non-empty independent sets I of nu(N(I)) - nu(I).

    With no independent set the minimum is vacuous and eta is +inf, since no
    class can then starve a neighborhood; the ncond flag is true in that case.
    Uses exact fraction arithmetic whenever the spec carries exact nu.
    """
    graph = root_graph(spec)
    n = graph.n_classes
    masks = _independent_set_masks(graph)
    sets = tuple(frozenset(i for i in range(n) if (m >> i) & 1) for m in masks)
    if not masks:
        return StabilityReport(eta=math.inf, ncond=True, independent_sets=(),
                               minimizer=None, eta_exact=None)

    nb = [0] * n
    for i in range(n):
        for j in range(n):
            if graph.adjacency[i][j]:
                nb[i] |= 1 << j

    exact = spec.nu_exact is not None
    weights = spec.nu_exact if exact else spec.nu

    def mass(mask: int):
        total = Fraction(0) if exact else 0.0
        for i in range(n):
            if (mask >> i) & 1:
                total += weights[i]
        return total

    best = None
    best_idx = -1
    for idx, m in enumerate(masks):
        hood = 0
        probe = m
        while probe:
            i = (probe & -probe).bit_length() - 1
            hood |= nb[i]
            probe &= probe - 1
        margin = mass(hood) - mass(m)
        if best is None or margin < best:
            best, best_idx = margin, idx

    eta_exact = best if exact else None
    eta = float(best)
    ncond = (best > 0) if exact else (eta > 0.0)
    return StabilityReport(eta=eta, ncond=ncond, independent_sets=sets,
                           minimizer=sets[best_idx], eta_exact=eta_exact)


def _std_normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def walk_spec(spec: ModelSpec, independent_set: Iterable[int]) -> WalkSpec:
    """Constants of the comparison walk for one independent set."""
    graph = root_graph(spec)
    members = frozenset(independent_set)
    if not members:
        raise InvalidModelError("the walk needs a non-empty independent set")
    for i in members:
        if not 0 <= i < graph.n_classes:
            raise InvalidModelError(f"class index {i} out of range")
    for i in members:
        for j in members:
            if graph.adjacency[i][j]:
                raise InvalidModelError("the set is not independent in the compatibility graph")

    hood = neighborhood(graph, members)
    nu_in = sum(spec.nu[i] for i in members)
    nu_out = sum(spec.nu[j] for j in hood)
    mu = nu_in - nu_out
    sigma2 = nu_in + nu_out
    sigma = math.sqrt(sigma2)
    c_bound = 1.0 - _std_normal_cdf(graph.n_classes / sigma)
    return WalkSpec(independent_set=members, mu=mu, sigma2=sigma2, c_bound=c_bound)
