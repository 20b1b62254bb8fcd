"""Shared fixtures and independent oracles for the test-suite.

The oracles here deliberately re-derive quantities from first principles
(subset enumeration, sequential Bernoulli scanning, hand-built adjacency)
so the library is never checked against itself.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from sbmatch import ModelSpec, make_spec, transition_row
from sbmatch import scenarios


@pytest.fixture
def triangle_spec() -> ModelSpec:
    return scenarios.triangle()


@pytest.fixture
def bipartite_spec() -> ModelSpec:
    return scenarios.bipartite()


@pytest.fixture
def solo_spec() -> ModelSpec:
    return scenarios.single_selfloop()


@pytest.fixture
def mixed_spec() -> ModelSpec:
    return scenarios.mixed_selfloop()


@pytest.fixture
def path3_spec() -> ModelSpec:
    return scenarios.path3()


def brute_force_eta(spec: ModelSpec):
    """Exact stability margin by direct enumeration of all class subsets.

    Returns (eta, ncond, minimizing subset) with eta a Fraction when exact
    arrival rates are available, computed without touching the library's
    graph helpers.
    """
    C = spec.n_classes
    nu = spec.nu_exact if spec.nu_exact is not None else spec.nu
    edges = {(i, j) for i in range(C) for j in range(C) if spec.rho[i][j] > 0.0}

    best = None
    best_set = None
    for size in range(1, C + 1):
        for subset in itertools.combinations(range(C), size):
            if any((i, j) in edges for i in subset for j in subset):
                continue
            closed = {j for i in subset for j in range(C) if (i, j) in edges}
            margin = sum(nu[j] for j in closed) - sum(nu[i] for i in subset)
            if best is None or margin < best:
                best, best_set = margin, frozenset(subset)
    if best is None:
        return Fraction(0), True, None  # no independent set: margin vacuous
    return best, best > 0, best_set


def random_model(rng: np.random.Generator, max_classes: int = 4) -> ModelSpec:
    """A random small model with at least one compatibility edge."""
    C = int(rng.integers(1, max_classes + 1))
    while True:
        rho = np.zeros((C, C))
        for i in range(C):
            for j in range(i, C):
                if rng.random() < 0.6:
                    rho[i][j] = rho[j][i] = round(float(rng.uniform(0.05, 1.0)), 3)
        if rho.max() > 0.0:
            break
    raw = rng.uniform(0.1, 1.0, size=C)
    nu = raw / raw.sum()
    # push the vector to exact normalization so validation cannot trip
    nu[-1] = 1.0 - nu[:-1].sum()
    labels = tuple(f"k{i}" for i in range(C))
    return make_spec(labels, tuple(float(v) for v in nu),
                     tuple(tuple(float(v) for v in row) for row in rho))


def random_state(rng: np.random.Generator, n_classes: int, high: int = 12) -> tuple[int, ...]:
    return tuple(int(v) for v in rng.integers(0, high + 1, size=n_classes))


def scalar_truncate(spec: ModelSpec, policy, cap: int):
    """The truncated chain by breadth-first search from the origin, one
    scalar transition row per state.

    Returns (states, index, P, sup_norms, parity, boundary) as truncate
    builds them; arrivals that would leave the ball fold into a self-loop.
    """
    origin = (0,) * spec.n_classes
    seen = {origin}
    queue = deque([origin])
    rows = {}
    while queue:
        u = queue.popleft()
        entries = transition_row(spec, policy, "raw", u).entries
        rows[u] = entries
        for y, p in entries:
            if p > 0.0 and max(y) <= cap and y not in seen:
                seen.add(y)
                queue.append(y)

    states = tuple(sorted(seen))
    index = {x: k for k, x in enumerate(states)}
    data, ri, ci = [], [], []
    for x, k in index.items():
        keep = 0.0
        for y, p in rows[x]:
            if max(y) <= cap:
                ri.append(k)
                ci.append(index[y])
                data.append(p)
            else:
                keep += p
        if keep > 0.0:
            ri.append(k)
            ci.append(k)
            data.append(keep)
    n = len(states)
    P = sp.csr_matrix((data, (ri, ci)), shape=(n, n))
    norms = np.asarray([max(x) for x in states], dtype=np.int64)
    parity = np.asarray([sum(x) & 1 for x in states], dtype=np.int64)
    return states, index, P, norms, parity, norms >= cap - 1


def scalar_reachable(spec: ModelSpec, policy, cap: int):
    """(states explored, states with no path back to the origin) by forward
    and reverse breadth-first search inside the sup-norm ball."""
    origin = (0,) * spec.n_classes
    forward = {}
    queue = deque([origin])
    seen = {origin}
    while queue:
        u = queue.popleft()
        succs = []
        for y, p in transition_row(spec, policy, "raw", u).entries:
            if p > 0.0 and max(y) <= cap:
                succs.append(y)
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        forward[u] = succs

    reverse = {u: [] for u in seen}
    for u, succs in forward.items():
        for y in succs:
            reverse[y].append(u)
    can_return = {origin}
    queue = deque([origin])
    while queue:
        u = queue.popleft()
        for v in reverse[u]:
            if v not in can_return:
                can_return.add(v)
                queue.append(v)
    return len(seen), tuple(sorted(seen - can_return))
