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
import sys
from dataclasses import dataclass, field
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
    built from rational input; the stability margin then uses them as given.
    It is compared but not hashed: the per-spec caches hash on every lookup,
    and nu, its float image, already sets the hash.
    """

    classes: tuple
    nu: tuple[float, ...]
    rho: tuple[tuple[float, ...], ...]
    nu_exact: tuple[Fraction, ...] | None = field(default=None, hash=False)

    @property
    def n_classes(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class RootGraph:
    """Compatibility graph on classes: adjacency is the sign pattern of rho.

    selfloop_classes holds the classes whose nodes can match among themselves,
    loopfree_classes the rest.  rho_min is the smallest positive entry of rho
    and K the largest value of n * (1 - rho_min) ** n over non-negative n;
    both are None when rho has no positive entry at all.
    """

    n_classes: int
    adjacency: tuple[tuple[bool, ...], ...]
    selfloop_classes: frozenset[int]
    loopfree_classes: frozenset[int]
    rho_min: float | None
    K: float | None


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of the stability check.

    eta is the minimum of nu(N(I)) - nu(I) over non-empty independent sets I
    of the compatibility graph, +inf when there is no such set.  The chain is
    positive recurrent under the greedy policies exactly when eta > 0, which
    is what the ncond flag records.  eta_exact is the margin as a fraction,
    None when eta is +inf.  Each set is the tuple of its members, ascending.
    """

    eta: float
    ncond: bool
    independent_sets: tuple[tuple[int, ...], ...]
    minimizer: tuple[int, ...] | None
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
            if 0.0 < v < sys.float_info.min:  # K's trial peak -1 / log1p(-v) overflows
                raise InvalidModelError(f"positive rho entries must be at least "
                                        f"{sys.float_info.min!r}, got {v!r}")
    return out


def make_spec(classes: Sequence, nu: Sequence, rho: Sequence[Sequence[float]]) -> ModelSpec:
    """Build and validate a ModelSpec.

    nu entries may be floats or Fractions.  Fractions are kept alongside the
    float values, and the stability margin uses them as given.  The labels
    must be hashable and differ both by value and as str() prints them (the
    outputs name the classes by str()), so two NaN labels or 1 and "1" are
    refused.
    """
    classes = tuple(classes)
    if len(classes) == 0:
        raise InvalidModelError("at least one class is required")
    shown = set()
    for label in classes:
        try:
            hash(label)
        except TypeError:
            raise InvalidModelError(f"class labels must be hashable, got {label!r}") from None
        if str(label) in shown:
            raise InvalidModelError(f"class labels must print differently, {str(label)!r} repeats")
        shown.add(str(label))
    if len(set(classes)) != len(classes):
        raise InvalidModelError("duplicate class labels")

    exact = all(isinstance(v, Fraction) for v in nu)
    nu_exact = tuple(nu) if exact else None
    nu_f = tuple(float(v) for v in nu)
    if len(nu_f) != len(classes):
        raise InvalidModelError("nu length does not match the number of classes")
    if not all(v > 0.0 for v in nu_f):  # also rejects NaN
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


def trial_peak(r: float) -> float:
    """The real maximiser of n (1 - r)^n: -1 / log1p(-r), or 0 when r = 1."""
    return -1.0 / math.log1p(-r) if r < 1.0 else 0.0


@lru_cache(maxsize=1)
def root_graph(spec: ModelSpec) -> RootGraph:
    """Derive the compatibility graph and the constants rho_min and K."""
    n = spec.n_classes
    adjacency = tuple(tuple(v > 0.0 for v in row) for row in spec.rho)
    selfloop = frozenset(i for i in range(n) if adjacency[i][i])
    loopfree = frozenset(range(n)) - selfloop

    positive = [v for row in spec.rho for v in row if v > 0.0]
    if not positive:
        return RootGraph(n, adjacency, selfloop, loopfree, None, None)
    rho_min = min(positive)

    # n * (1 - rho_min) ** n is log-concave, so its integer maximum sits at the
    # floor or the ceiling of its real maximum.
    peak = trial_peak(rho_min)
    ns = np.array([math.floor(peak), math.ceil(peak)], dtype=float)
    K = float(np.max(ns * (1.0 - rho_min) ** ns))
    return RootGraph(n, adjacency, selfloop, loopfree, rho_min, K)


def neighborhood(graph: RootGraph, subset: Iterable[int]) -> frozenset[int]:
    """Classes adjacent to at least one member of the subset."""
    out: set[int] = set()
    for i in subset:
        out.update(j for j in range(graph.n_classes) if graph.adjacency[i][j])
    return frozenset(out)


def _independent_sets(graph: RootGraph, units: Sequence[int]) -> list[tuple[tuple[int, ...], int]]:
    """All non-empty independent sets in lexicographic order, each as its
    sorted members and its margin units(N(I)) - units(I), where units(S) sums
    the units of the classes in S.  The depth-first search carries the
    margin: adding class j to I adds the units of the classes that j brings
    into the neighbourhood and subtracts units[j]."""
    n = graph.n_classes
    if n > ENUMERATION_CAP:
        raise InvalidModelError(f"independent-set enumeration capped at {ENUMERATION_CAP} classes, got {n}")
    nb = [sum(1 << j for j in range(n) if graph.adjacency[i][j]) for i in range(n)]
    free = [i for i in range(n) if not (nb[i] >> i) & 1]
    bit_units = {1 << i: u for i, u in enumerate(units)}

    sets: list[tuple[tuple[int, ...], int]] = []

    def extend(pos: int, mask: int, hood: int, members: tuple[int, ...], margin: int) -> None:
        for k in range(pos, len(free)):
            j = free[k]
            if nb[j] & mask:
                continue
            added, grown = nb[j] & ~hood, margin - units[j]
            while added:
                low = added & -added
                grown += bit_units[low]
                added ^= low
            grown_members = members + (j,)
            sets.append((grown_members, grown))
            extend(k + 1, mask | (1 << j), hood | nb[j], grown_members, grown)

    extend(0, 0, 0, (), 0)
    return sets


def independent_sets(graph: RootGraph) -> tuple[tuple[int, ...], ...]:
    """All non-empty independent sets of the graph in lexicographic order,
    each as its sorted members."""
    return tuple(m for m, _ in _independent_sets(graph, [0] * graph.n_classes))


@lru_cache(maxsize=1)
def stability(spec: ModelSpec) -> StabilityReport:
    """Compute eta = min over non-empty independent sets I of nu(N(I)) - nu(I).

    With no independent set the minimum is vacuous and eta is +inf, since no
    class can then starve a neighborhood; the ncond flag is true in that case.
    The margin is computed in fraction arithmetic: from nu_exact when the
    spec carries it, else from the decimal form of each float rate, so a
    critical model is never certified stable by float rounding.  eta is the
    float of the exact margin eta_exact, and the minimizer is the first set,
    in the order of independent_sets, that attains it.
    """
    exact = spec.nu_exact if spec.nu_exact is not None \
        else tuple(Fraction(str(v)) for v in spec.nu)
    # Margins are summed as integers in units of 1/den, the common denominator.
    den = math.lcm(*(v.denominator for v in exact))
    found = _independent_sets(root_graph(spec), [int(v * den) for v in exact])
    if not found:
        return StabilityReport(eta=math.inf, ncond=True, independent_sets=(),
                               minimizer=None, eta_exact=None)

    sets, margins = zip(*found)
    best = min(margins)
    eta_exact = Fraction(best, den)
    return StabilityReport(eta=float(eta_exact), ncond=best > 0, independent_sets=sets,
                           minimizer=sets[margins.index(best)], eta_exact=eta_exact)


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
    if any(graph.adjacency[i][j] for i in members for j in members):
        raise InvalidModelError("the set is not independent in the compatibility graph")

    hood = neighborhood(graph, members)
    nu_in = sum(spec.nu[i] for i in members)
    nu_out = sum(spec.nu[j] for j in hood)
    mu = nu_in - nu_out
    sigma2 = nu_in + nu_out
    sigma = math.sqrt(sigma2)
    c_bound = 1.0 - _std_normal_cdf(graph.n_classes / sigma)
    return WalkSpec(independent_set=members, mu=mu, sigma2=sigma2, c_bound=c_bound)
