"""Greedy max-weight matching policies.

A policy scores each candidate class j for an arrival of class i by
w(x(j), rho(i, j)), where x(j) is the number of unmatched nodes of class j,
and picks the class with the largest score; ties are broken by a fixed
priority bijection alpha, larger value winning.  The weight w must be
positive exactly when a match is possible, monotone in both arguments, and
eventually dominate its own one-step history (the threshold property below),
which together make the greedy choice insensitive to the fine structure of
rho once queues are long.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .model import ModelSpec, root_graph, trial_peak

WEIGHT_TOL = 1e-12

State = tuple[int, ...]


class PolicyError(ValueError):
    """Raised for invalid policy configurations or failed weight checks."""


def support(x: State) -> frozenset[int]:
    return frozenset(i for i, v in enumerate(x) if v > 0)


def sup_norm(x: State) -> int:
    return max(x) if x else 0


def sup_norm_over(x: State, subset: Iterable[int]) -> int:
    """max of x over a class subset, 0 for the empty subset."""
    return max((x[i] for i in subset), default=0)


@dataclass(frozen=True)
class WeightFunction:
    """A matching weight w(n, r) on counts n >= 0 and edge probabilities r.

    fn must accept a scalar or a numpy array for n with scalar r.  threshold,
    when set, is n_star(self, r) in closed form, without the scan's window;
    the built-in weights carry one, and make_policy uses it.
    """

    name: str
    fn: Callable
    threshold: Callable[[float], int] | None = None

    def __call__(self, n, r: float):
        return self.fn(n, r)


def _w1(n, r: float):
    if type(n) is int or np.ndim(n) == 0:
        return float(n) if r > 0.0 else 0.0
    n = np.asarray(n, dtype=float)
    return n.copy() if r > 0.0 else np.zeros_like(n)


def _w2(n, r: float):
    if type(n) is int or np.ndim(n) == 0:
        n = float(n)
        return n * (1.0 - (1.0 - r) ** n)
    n = np.asarray(n, dtype=float)
    return n * (1.0 - (1.0 - r) ** n)


def _scan(fn: Callable, r: float, lo: int, hi: int) -> int | None:
    """Smallest m in [lo, hi] such that w(n-1, 1) < w(n, r) and
    w(n, 1) < w(n+1, r) for every n in [m, hi]; None when the test fails at hi."""
    n = np.arange(lo - 1, hi + 2)
    # below[k] is w(n[k], 1) < w(n[k] + 1, r); the test at n[k] is below[k - 1] & below[k].
    below = np.asarray(fn(n, 1.0))[:-1] < np.asarray(fn(n, r))[1:]
    ok = below[:-1] & below[1:]
    if not ok[-1]:
        return None
    bad = np.nonzero(~ok)[0]
    return lo + int(bad[-1]) + 1 if bad.size else lo


# Counts either side of the exact root over which the scan's test settles the
# threshold of w2; past 2**53 a float no longer tells n from n + 1.
W2_SETTLE = 4
W2_THRESHOLD_MAX = 2**53


def _w2_threshold(r: float) -> int:
    """n_star(W2, r) without a window.  As w2(n, 1) = n, the test at n is
    f(n) < 1 and f(n+1) < 1 with f(k) = k (1 - r)^k, log-concave with its peak
    at trial_peak(r).  So the threshold is k + 1 for the largest k with
    f(k) >= 1 (1 when there is none): k is bisected on log k + k log1p(-r)
    past the peak, then settled by the scan's own test, so floats decide as
    they do in the scan."""
    peak = trial_peak(r)
    k, hi = max(1, math.ceil(peak)), W2_THRESHOLD_MAX
    if peak > math.e and math.log(k) >= k / peak:  # f(k) >= 1
        if math.log(hi) >= hi / peak:
            raise PolicyError(f"the threshold of w2 at r={r} exceeds 2**53, past which "
                              "float weights do not tell n from n + 1")
        while hi - k > 1:
            mid = (k + hi) // 2
            k, hi = (mid, hi) if math.log(mid) >= mid / peak else (k, mid)
    lo = max(1, k - W2_SETTLE)
    m = _scan(_w2, r, lo, k + W2_SETTLE)
    if m is None or (m == lo > 1):
        raise PolicyError(f"float weights do not settle the threshold of w2 at r={r} "
                          f"within {W2_SETTLE} counts of its exact root")
    return m


#: Count of matchable nodes: w1(n, r) = n when r > 0, else 0.
W1 = WeightFunction("w1", _w1, threshold=lambda r: 1)

#: Expected number of successful trials proxy: w2(n, r) = n (1 - (1 - r)^n).
W2 = WeightFunction("w2", _w2, threshold=_w2_threshold)

BUILTIN_WEIGHTS = {"w1": W1, "w2": W2}


def n_star(weight: WeightFunction, r: float, n_check: int = 10_000) -> int:
    """Smallest m >= 1 with w(n-1, 1) < w(n, r) and w(n, 1) < w(n+1, r) for
    every n in [m, n_check].

    The scan is windowed, so it stands for the whole range only when the
    property is known to persist past the window.  It serves weights without
    a closed-form threshold, and is the oracle the closed forms are tested on.
    """
    if not (0.0 < r <= 1.0):
        raise PolicyError(f"r must lie in (0, 1], got {r!r}")
    if n_check < 1:
        raise PolicyError("n_check must be at least 1")
    m = _scan(weight, r, 1, n_check)
    if m is None:
        raise PolicyError(f"no threshold m found in [1, {n_check}] for r={r}")
    return m


@dataclass(frozen=True)
class AssumptionReport:
    """Result of checking the three weight hypotheses on a finite window."""

    ok: bool
    nonneg_ok: bool
    hyp1_ok: bool
    hyp2_ok: bool
    hyp3_ok: bool
    n_star_by_r: tuple[tuple[float, int], ...]
    violations: tuple[str, ...]
    n_check: int
    window_certified: bool

    def window_m(self) -> int:
        """Largest threshold over the checked r grid."""
        if not self.n_star_by_r:
            raise PolicyError("no positive r was checked")
        return max(m for _, m in self.n_star_by_r)


_R_GRID = (0.0, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)


def check_assumption(weight: WeightFunction, n_check: int = 10_000) -> AssumptionReport:
    """Verify on [0, n_check] that the weight is admissible.

    hyp1: w(n, r) > 0 iff n > 0 and r > 0 (and w never negative).
    hyp2: w is non-decreasing in n and in r.
    hyp3: the threshold of n_star exists within the window for each r > 0.

    The r grid _R_GRID spans (0, 1] plus r = 0 for hyp1.
    """
    ns = np.arange(0, n_check + 1)
    violations: list[str] = []
    nonneg_ok = hyp1_ok = hyp2_ok = hyp3_ok = True

    values = {}
    for r in _R_GRID:
        values[r] = np.asarray(weight(ns, r), dtype=float)

    for r in _R_GRID:
        vals = values[r]
        if np.any(vals < 0.0):
            nonneg_ok = False
            violations.append(f"negative weight at r={r}")
        should = (ns > 0) & (r > 0.0)
        if not np.array_equal(vals > 0.0, should):
            hyp1_ok = False
            violations.append(f"positivity pattern wrong at r={r}")
        if np.any(np.diff(vals) < -WEIGHT_TOL):
            hyp2_ok = False
            violations.append(f"not non-decreasing in n at r={r}")

    for lo, hi in zip(_R_GRID, _R_GRID[1:]):
        if np.any(values[lo] > values[hi] + WEIGHT_TOL):
            hyp2_ok = False
            violations.append(f"not non-decreasing in r between {lo} and {hi}")

    thresholds: list[tuple[float, int]] = []
    for r in _R_GRID:
        if r <= 0.0:
            continue
        try:
            thresholds.append((r, n_star(weight, r, n_check)))
        except PolicyError:
            hyp3_ok = False
            violations.append(f"no threshold within [1, {n_check}] at r={r}")

    ok = nonneg_ok and hyp1_ok and hyp2_ok and hyp3_ok
    return AssumptionReport(ok=ok, nonneg_ok=nonneg_ok, hyp1_ok=hyp1_ok,
                            hyp2_ok=hyp2_ok, hyp3_ok=hyp3_ok,
                            n_star_by_r=tuple(thresholds),
                            violations=tuple(violations), n_check=n_check,
                            window_certified=weight.threshold is not None)


@dataclass(frozen=True)
class PolicyConfig:
    """A weight, a tie-break bijection alpha (values 1..C per class index),
    and the threshold n_star derived from the model's smallest positive rho."""

    weight: WeightFunction
    alpha: tuple[int, ...]
    n_star: int


def make_policy(spec: ModelSpec, weight: WeightFunction = W1,
                alpha: Sequence[int] | None = None) -> PolicyConfig:
    """Build a policy for a model, deriving n_star from rho_min: by the
    weight's closed-form threshold when it has one, else by the n_star scan.

    alpha gives the tie-break value of each class in class order; it defaults
    to 1..C so that later classes win ties.
    """
    graph = root_graph(spec)
    n = spec.n_classes
    if alpha is None:
        alpha_t = tuple(range(1, n + 1))
    else:
        alpha_t = tuple(int(a) for a in alpha)
        if sorted(alpha_t) != list(range(1, n + 1)):
            raise PolicyError(f"alpha must be a bijection onto 1..{n}")
    if graph.rho_min is None:
        raise PolicyError("the model has no positive rho entry; no policy threshold exists")
    r = graph.rho_min
    ns = weight.threshold(r) if weight.threshold is not None else n_star(weight, r)
    return PolicyConfig(weight=weight, alpha=alpha_t, n_star=ns)


def select_class(weight: WeightFunction, alpha: Sequence[int], x: Sequence[int],
                 rho_row: Sequence[float]) -> int:
    """Greedy choice: argmax over j of (w(x(j), rho_row(j)), alpha(j)).

    Weights within WEIGHT_TOL of the maximum count as tied and the largest alpha
    wins.  For integer-valued weights such as w1 this reduces to exact
    lexicographic comparison.
    """
    ws = [float(weight.fn(n, r)) for n, r in zip(x, rho_row)]  # .fn: no __call__ frame
    w_floor = max(ws) - WEIGHT_TOL
    best = -1
    best_alpha = -1
    for j, wj in enumerate(ws):
        if wj >= w_floor and alpha[j] > best_alpha:
            best, best_alpha = j, alpha[j]
    return best


def phi(policy: PolicyConfig, spec: ModelSpec, x: Sequence[int], i: int) -> int:
    """Class targeted by an arrival of class i in state x."""
    if len(x) != spec.n_classes:
        raise PolicyError("state length does not match the number of classes")
    return select_class(policy.weight, policy.alpha, x, spec.rho[i])
