"""Shared fixtures and independent oracles for the test-suite.

The oracles here deliberately re-derive quantities from first principles
(subset enumeration, sequential Bernoulli scanning, hand-built adjacency)
so the library is never checked against itself.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import breadth_first_order

from sbmatch import KernelError, ModelSpec, kernel_variant, make_spec, root_graph, transition_row
from sbmatch import analyze, scenarios
from sbmatch.kernel import TransitionRow, _arrival_moves, _box_kernel, pow_int
from sbmatch.policy import PolicyConfig, State, select_class, support
from sbmatch.simulate import Trajectory, _draw_arrivals, _sample_grid, _seed_seq, coupled_walk


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


def direct_stationary(chain) -> np.ndarray:
    """Stationary law of a truncated chain by a sparse LU solve of the
    origin-pinned system: pi(origin) = 1, the origin's balance equation
    dropped, then normalised."""
    n = chain.n_states
    A = (sp.identity(n, format="csc") - chain.P.T).tocsc()[1:, 1:]
    pi = np.concatenate(([1.0], spla.spsolve(A, chain.P[0].toarray().ravel()[1:])))
    return pi / pi.sum()


def origin_pinned_system(chain) -> tuple[sp.csr_matrix, np.ndarray]:
    """(A, b) of analyze.stationary's solve: A = (I - P^T) without the
    origin's row and column, b the origin's one-step column."""
    A = (sp.identity(chain.n_states, format="csr") - chain.P.T).tocsr()[1:, 1:]
    return A, chain.P[0].toarray().ravel()[1:]


def scipy_bicgstab(A, b, x0) -> tuple[np.ndarray, int]:
    """(x, callbacks) of scipy.sparse.linalg.bicgstab with rtol 1e-13 and
    atol 0, the settings analyze._bicgstab reproduces."""
    calls = 0

    def count(_):
        nonlocal calls
        calls += 1

    x, _ = spla.bicgstab(A, b, x0=x0, rtol=1e-13, atol=0.0, callback=count)
    return x, calls


def scipy_stationary(chain) -> tuple[np.ndarray, int]:
    """(pi, iterations) of analyze.stationary's solve run on
    scipy.sparse.linalg.bicgstab: the same origin-pinned system, rtol 1e-13,
    restarts and residual gate, with one iteration per callback."""
    A, b = origin_pinned_system(chain)
    rest, iterations = b, 0
    for _ in range(analyze.STATIONARY_RUNS):
        rest, steps = scipy_bicgstab(A, b, rest)
        iterations += steps
        pi = np.concatenate(([1.0], np.where(rest > 0.0, rest, 0.0)))
        pi /= pi.sum()
        if float(np.abs(pi @ chain.P - pi).sum()) <= analyze.RESIDUAL_TOL:
            break
    return pi, iterations


def box_reach(spec: ModelSpec, policy, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """(forward, backward) masks over the box {0..cap}^C in C order: the
    states that scipy's breadth_first_order reaches from the origin on the
    box kernel's positive entries, and on their transpose."""
    X, val, offsets = _box_kernel(spec, policy, cap)
    N = len(X)
    keep = val > 0.0
    box = sp.csr_matrix((val[keep], (np.arange(N)[:, None] + offsets)[keep],
                         np.concatenate([[0], np.cumsum(keep.sum(axis=1))])), shape=(N, N))
    forward, backward = np.zeros((2, N), dtype=bool)
    forward[breadth_first_order(box, 0, return_predecessors=False)] = True
    backward[breadth_first_order(box.T.tocsr(), 0, return_predecessors=False)] = True
    return forward, backward


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


def quadratic(x) -> float:
    return float(sum(v * v for v in x))


def drift(spec: ModelSpec, policy, variant, h, x) -> float:
    """One-step expected change of h at x: sum_y P(x, y) h(y) - h(x)."""
    row = transition_row(spec, policy, variant, x)
    return sum(p * h(y) for y, p in row.entries) - h(row.state)


def corrupted_drift_q(spec: ModelSpec, policy, x) -> float:
    """Drift of q under the raw kernel with every matching step flipped
    upward, as a sign error in the match indicator would make it: drift_q's
    closed form with 2 x(j) + 1 for 1 - 2 x(j), summed in drift_q's order."""
    x = tuple(int(v) for v in x)
    total = 0.0
    for i, j, p_yes, p_no in _arrival_moves(spec, policy, kernel_variant(spec, "raw"), x):
        total += p_no * (2 * x[i] + 1) + p_yes * (1 + 2 * x[j])
    return total


def scalar_corrupted_drift(spec: ModelSpec, policy, x) -> float:
    """Drift of q under the raw kernel with every matching step flipped
    upward, summed over the scalar transition row out of x."""
    row = transition_row(spec, policy, "raw", x)
    d = -quadratic(x)
    for y, p in row.entries:
        if sum(y) < sum(x):
            y = tuple(2 * a - b for a, b in zip(x, y))
        d += p * quadratic(y)
    return d


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


def scalar_reduce_to_independent_support(spec: ModelSpec, policy: PolicyConfig,
                                         x) -> State:
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


def scalar_propagate_distribution(spec: ModelSpec, policy: PolicyConfig, variant,
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


def scalar_run(spec: ModelSpec, policy: PolicyConfig, T: int, seed,
               sample_every: int | None = None,
               track_walks: Iterable[Iterable[int]] = ()) -> Trajectory:
    """The lazy engine's path, one arrival at a time, without an edge
    table: every arrival calls select_class, and matches iff its probe
    uniform (drawn after all the arrival classes) is below
    1 - pow_int(1 - rho, x(j)).

    track_walks lists independent sets whose comparison walks are evaluated
    on the same arrival stream and sampled on the same grid.
    """
    rng = np.random.default_rng(_seed_seq(seed))
    arrivals = _draw_arrivals(spec, T, rng)
    probes = rng.random(T)
    rho = spec.rho
    C = spec.n_classes

    grid = _sample_grid(T, sample_every)
    S = grid.size
    samp_x = np.zeros((S, C), dtype=np.int64)
    samp_matched = np.zeros(S, dtype=np.int64)
    samp_erg = np.zeros(S, dtype=np.float64)

    x = [0] * C
    total = 0
    matched_pairs = 0
    cum_norm = 0.0
    returns_to_zero = 0
    first_return: int | None = None

    gi = 0
    if grid[0] == 0:
        gi = 1  # the zero row is already all zeros
    next_sample = int(grid[gi]) if gi < S else -1

    for t in range(1, T + 1):
        c = int(arrivals[t - 1])
        j = select_class(policy.weight, policy.alpha, x, rho[c])
        xj = x[j]
        r = rho[c][j]
        if xj > 0 and r > 0.0 and probes[t - 1] < 1.0 - pow_int(1.0 - r, xj):
            x[j] = xj - 1
            matched_pairs += 1
            total -= 1
        else:
            x[c] += 1
            total += 1
        cum_norm += max(x)
        if total == 0:
            returns_to_zero += 1
            if first_return is None:
                first_return = t
        if t == next_sample:
            samp_x[gi] = x
            samp_matched[gi] = matched_pairs
            samp_erg[gi] = cum_norm / t
            gi += 1
            next_sample = int(grid[gi]) if gi < S else -1

    sup = samp_x.max(axis=1)
    perfect = sup == 0
    walks: dict[frozenset[int], np.ndarray] = {}
    for members in track_walks:
        key = frozenset(members)
        walks[key] = coupled_walk(spec, key, arrivals)[grid]

    return Trajectory(T=T, t_grid=grid, x=samp_x, sup_norm=sup,
                      matched_pairs=samp_matched, perfect=perfect,
                      ergodic_avg=samp_erg, walks=walks,
                      returns_to_zero=returns_to_zero, first_return=first_return,
                      final_x=tuple(int(v) for v in x), matched_total=matched_pairs)


def scalar_final_states(spec: ModelSpec, policy: PolicyConfig, T: int, base_seed: int,
                        replicas: int) -> np.ndarray:
    """Final count vectors of many short replicas, without path bookkeeping."""
    C = spec.n_classes
    rho = spec.rho
    out = np.zeros((replicas, C), dtype=np.int64)
    for rep in range(replicas):
        rng = np.random.default_rng(_seed_seq((base_seed, rep)))
        arrivals = _draw_arrivals(spec, T, rng)
        probes = rng.random(T)
        x = [0] * C
        for t in range(T):
            c = int(arrivals[t])
            j = select_class(policy.weight, policy.alpha, x, rho[c])
            xj = x[j]
            r = rho[c][j]
            if xj > 0 and r > 0.0 and probes[t] < 1.0 - pow_int(1.0 - r, xj):
                x[j] = xj - 1
            else:
                x[c] += 1
        out[rep] = x
    return out


# The full-graph engine: every node and edge indicator, the ground truth the
# lazy engine and the kernel are checked against at small horizons.
FULL_GRAPH_MAX_T = 1000
ENUMERATION_MAX_T = 6


@dataclass(frozen=True, eq=False)
class FullGraphRun:
    """Outcome of the node-level engine: a sampled trajectory plus the realized
    matching (pairs of node ids, arrival order) and, optionally, the edges."""

    T: int
    seed: object
    t_grid: np.ndarray
    x: np.ndarray
    sup_norm: np.ndarray
    matched_pairs: np.ndarray
    node_class: np.ndarray
    unmatched: np.ndarray
    matching: tuple[tuple[int, int], ...]
    edges: tuple[tuple[int, int], ...] | None
    final_x: State


def full_graph_run(spec: ModelSpec, policy: PolicyConfig, T: int, seed,
                   sample_every: int | None = None,
                   retain_graph: bool = False) -> FullGraphRun:
    """Run the node-level engine, materializing every edge indicator.

    Quadratic in T, capped at T = 1000.  When the targeted class has an
    edge to the arrival among its unmatched nodes, the arrival is matched to
    the eligible node that arrived first.
    """
    if T > FULL_GRAPH_MAX_T:
        raise ValueError(f"full-graph engine capped at T = {FULL_GRAPH_MAX_T}")
    rng = np.random.default_rng(_seed_seq(seed))
    arrivals = _draw_arrivals(spec, T, rng)
    rho_arr = np.asarray(spec.rho)
    C = spec.n_classes

    grid = _sample_grid(T, sample_every)
    S = grid.size
    samp_x = np.zeros((S, C), dtype=np.int64)
    samp_matched = np.zeros(S, dtype=np.int64)

    node_class = np.zeros(T, dtype=np.int64)
    unmatched = np.zeros(T, dtype=bool)
    psi = np.zeros(T, dtype=bool)
    x = [0] * C
    matched_pairs = 0
    matching: list[tuple[int, int]] = []
    edges: list[tuple[int, int]] | None = [] if retain_graph else None

    sample_row = {t: k for k, t in enumerate(grid.tolist())}

    for t in range(1, T + 1):
        c = int(arrivals[t - 1])
        nv = t - 1
        if nv:
            np.less(rng.random(nv), rho_arr[c, node_class[:nv]], out=psi[:nv])
            if edges is not None:
                edges.extend((v, nv) for v in np.nonzero(psi[:nv])[0])
        j = select_class(policy.weight, policy.alpha, x, spec.rho[c])
        node_class[nv] = c
        unmatched[nv] = True
        partner = -1
        if nv and x[j] > 0:
            elig = psi[:nv] & unmatched[:nv] & (node_class[:nv] == j)
            hits = np.nonzero(elig)[0]
            if hits.size:
                partner = int(hits[0])
        if partner >= 0:
            unmatched[partner] = False
            unmatched[nv] = False
            matching.append((partner, nv))
            x[j] -= 1
            matched_pairs += 1
        else:
            x[c] += 1
        k = sample_row.get(t)
        if k is not None:
            samp_x[k] = x
            samp_matched[k] = matched_pairs

    return FullGraphRun(T=T, seed=seed, t_grid=grid, x=samp_x,
                        sup_norm=samp_x.max(axis=1), matched_pairs=samp_matched,
                        node_class=node_class, unmatched=unmatched,
                        matching=tuple(matching),
                        edges=None if edges is None else tuple(edges),
                        final_x=tuple(int(v) for v in x))


def enumerate_exact_distribution(spec: ModelSpec, policy: PolicyConfig, T: int) -> dict[State, float]:
    """Exact law of the count vector after T arrivals of the full-graph
    engine, by enumeration of every arrival class and edge indicator."""
    if T > ENUMERATION_MAX_T:
        raise ValueError(f"exact enumeration capped at T = {ENUMERATION_MAX_T}")
    C = spec.n_classes
    rho = spec.rho
    nu = spec.nu
    out: dict[State, float] = {}

    def counts(nodes) -> list[int]:
        x = [0] * C
        for cl, um in nodes:
            if um:
                x[cl] += 1
        return x

    def rec(t: int, nodes: tuple, prob: float) -> None:
        if t > T:
            key = tuple(counts(nodes))
            out[key] = out.get(key, 0.0) + prob
            return
        nv = len(nodes)
        for c in range(C):
            pc = nu[c]
            for bits in range(1 << nv):
                p_edges = 1.0
                for v in range(nv):
                    r = rho[c][nodes[v][0]]
                    p_edges *= r if (bits >> v) & 1 else 1.0 - r
                    if p_edges == 0.0:
                        break
                if p_edges == 0.0:
                    continue
                x = counts(nodes)
                j = select_class(policy.weight, policy.alpha, x, rho[c])
                partner = -1
                if x[j] > 0:
                    for v in range(nv):
                        if nodes[v][1] and nodes[v][0] == j and (bits >> v) & 1:
                            partner = v
                            break
                if partner >= 0:
                    new_nodes = tuple((cl, um and v != partner)
                                      for v, (cl, um) in enumerate(nodes)) + ((c, False),)
                else:
                    new_nodes = nodes + ((c, True),)
                rec(t + 1, new_nodes, prob * pc * p_edges)

    rec(1, (), 1.0)
    return out
