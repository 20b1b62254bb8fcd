"""Monte Carlo engines for the matching dynamics.

The lazy engine works on class counts only: an arrival targets the class
chosen by the policy and probes its unmatched nodes one Bernoulli trial at a
time until the first hit, which is a truncated geometric draw.  (The
full-graph engine, which materializes every node and edge indicator, is a
test oracle in tests/conftest.py.)

run, final_states and step share one per-arrival core, SimState.advance.
The seeded paths of run and final_states equal those of the plain reference
loop: the arrival classes are drawn up front, the greedy choice is
select_class's, and each distinct positive rho value has its own buffer of
rng.geometric(r, size=GEOM_BLOCK) blocks, drawn in order of need.  Only the
cost differs.  run serves a whole path in one advance call, which records
the grid samples itself.  The greedy choice is memoised on one integer code
of (c, x): c in the low KEY_BITS-bit field and x(i) in field i + 1; advance
derives it from x once per call and then adds one field unit per arrival.
A count never exceeds the arrivals served, so a path is refused past
2**KEY_BITS - 1 arrivals.  Every engine call on one (model, policy) pair
shares one memo, kept by an lru_cache of CHOICE_MEMOS memos for the life of
the process.  A memo holds at most CHOICE_MEMO_MAX entries, past which
choices are computed without being stored, so the memos hold at most
CHOICE_MEMOS * CHOICE_MEMO_MAX entries in all.  step draws each arrival's
class when it is called, so its stream interleaves class draws with the
probe blocks.

Streams are split by seed tuple: replica r of a batch with base seed s draws
from SeedSequence((s, r)).  Nothing is ever seeded from the clock; a seed is
always required.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .model import ModelSpec, neighborhood, root_graph, walk_spec
from .policy import W1, PolicyConfig, State, select_class

# Most entries one memo of greedy choices, code of (c, x) -> class, may hold.
CHOICE_MEMO_MAX = 1 << 16
# Memos of greedy choices kept at once, one per (model, policy) pair.
CHOICE_MEMOS = 8
# Width of each field of a memo key; a path serves fewer than 2**KEY_BITS
# arrivals, so no count overflows its field.
KEY_BITS = 32
# Geometric draws per refill of a probe buffer.
GEOM_BLOCK = 4096
DEFAULT_SAMPLES = 512


def _seed_seq(seed) -> np.random.SeedSequence:
    if seed is None:
        raise ValueError("a seed is required; wall-clock seeding is not supported")
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, (tuple, list)):
        return np.random.SeedSequence(tuple(int(v) for v in seed))
    return np.random.SeedSequence(int(seed))


def _sample_grid(T: int, sample_every: int | None) -> np.ndarray:
    if sample_every is not None:
        if sample_every < 1:
            raise ValueError("sample_every must be positive")
        ts = list(range(0, T + 1, sample_every))
        if ts[-1] != T:
            ts.append(T)
        return np.asarray(ts, dtype=np.int64)
    ts = np.linspace(0, T, num=min(T, DEFAULT_SAMPLES) + 1)
    return np.unique(np.concatenate([ts.astype(np.int64), [T]]))


def _check_path_length(t: int) -> None:
    if t >= 1 << KEY_BITS:
        raise ValueError(f"a path is capped at 2**{KEY_BITS} - 1 arrivals")


def _draw_arrivals(spec: ModelSpec, T: int, rng: np.random.Generator) -> np.ndarray:
    cum = np.cumsum(spec.nu)
    idx = np.searchsorted(cum, rng.random(T), side="right")
    return np.minimum(idx, spec.n_classes - 1).astype(np.int64)


@lru_cache(maxsize=CHOICE_MEMOS)
def _cumulative_nu(spec: ModelSpec) -> tuple[float, ...]:
    """The cumulative arrival rates that _draw_arrivals searches, as floats."""
    return tuple(np.cumsum(spec.nu).tolist())


class _Choice:
    """The greedy choice of the targeted class, memoised on the code of (c, x):
    c plus x(i) * units[i], where units[i] = 2**(KEY_BITS * (i + 1)).

    A miss calls select_class, which holds the tie rule (WEIGHT_TOL, then the
    largest alpha), except under W1.  There the weights are the counts of
    the classes c can match, exact in a float, so select_class's choice is
    the integer argmax of x(j) (C + 1) + alpha(j) over those classes, or the
    class with the largest alpha when all their counts are 0 and every
    weight ties at 0; w1_choice computes that.  The memo holds at most
    CHOICE_MEMO_MAX entries; once it is full, further choices are computed
    and not stored.
    """

    def __init__(self, spec: ModelSpec, policy: PolicyConfig):
        self.memo: dict[int, int] = {}
        self.weight, self.alpha, self.rho = policy.weight, policy.alpha, spec.rho
        self.units = [1 << (KEY_BITS * (i + 1)) for i in range(spec.n_classes)]
        # Under W1, the (class, alpha) pairs each arrival class can match.
        self.matchable = [[(j, a) for j, (r, a) in enumerate(zip(row, policy.alpha)) if r > 0.0]
                          for row in spec.rho] if policy.weight is W1 else None
        self.scale = spec.n_classes + 1
        self.top = policy.alpha.index(max(policy.alpha))

    def code(self, x: Sequence[int]) -> int:
        """The key of (0, x); the key of (c, x) is this plus c."""
        return sum(v * u for v, u in zip(x, self.units))

    def w1_choice(self, c: int, x: Sequence[int]) -> int:
        scale = self.scale
        best, score = self.top, scale - 1  # alpha(j) alone never exceeds C = scale - 1
        for j, a in self.matchable[c]:
            s = x[j] * scale + a
            if s > score:
                best, score = j, s
        return best

    def miss(self, key: int, c: int, x: Sequence[int]) -> int:
        j = select_class(self.weight, self.alpha, x, self.rho[c]) if self.matchable is None \
            else self.w1_choice(c, x)
        if len(self.memo) < CHOICE_MEMO_MAX:
            self.memo[key] = j
        return j

    def __call__(self, c: int, x: Sequence[int]) -> int:
        key = self.code(x) + c
        j = self.memo.get(key)
        return self.miss(key, c, x) if j is None else j


@lru_cache(maxsize=CHOICE_MEMOS)
def _shared_choice(spec: ModelSpec, policy: PolicyConfig) -> _Choice:
    """The one memo of greedy choices of a (model, policy) pair."""
    return _Choice(spec, policy)


class SimState:
    """One lazy-engine realization: the counts, the pathwise counters, and one
    list-backed buffer of geometric draws per distinct positive rho value.

    A buffer is refilled with rng.geometric(r, size=GEOM_BLOCK) when a probe
    finds it empty, so the blocks come off the stream in order of need.
    """

    def __init__(self, spec: ModelSpec, rng: np.random.Generator):
        self.rng, self.rho = rng, spec.rho
        pools: dict[float, list[int]] = {}
        self.buffers = [[pools.setdefault(r, []) if r > 0.0 else None for r in row]
                        for row in spec.rho]
        self.x = [0] * spec.n_classes
        self.t = self.matched_pairs = self.returns_to_zero = 0
        self.cum_norm = 0.0
        self.first_return: int | None = None

    def refill(self, buf: list[int], r: float) -> None:
        buf.extend(self.rng.geometric(r, size=GEOM_BLOCK)[::-1].tolist())

    def advance(self, choice: _Choice, arrivals: Sequence[int],
                sample_at: Sequence[int] = ()) -> list[tuple[list[int], int, float]]:
        """Serve the given arrivals one by one.  The arrival of class c
        targets class j = choice(c, x) and probes its x[j] unmatched nodes;
        the first geometric trial at or below x[j] matches one of them,
        otherwise the arrival joins its own class.

        Returns (x, matched_pairs, cum_norm) as they stand after each
        arrival whose time t is in sample_at, an ascending list of times
        past the current one.
        """
        _check_path_length(self.t + len(arrivals))
        x, buffers, rho, units = self.x, self.buffers, self.rho, choice.units
        memo, miss = choice.memo, choice.miss
        t, matched, cum_norm = self.t, self.matched_pairs, self.cum_norm
        code, top = choice.code(x), max(x)  # the key of (0, x) and max(x)
        times = iter(sample_at)
        due = next(times, 0)
        samples = []
        for c in arrivals:
            t += 1
            key = code + c
            j = memo.get(key)  # _Choice.__call__, inlined
            if j is None:
                j = miss(key, c, x)
            xj = x[j]
            buf = buffers[c][j]
            hit = False
            if xj and buf is not None:
                if not buf:
                    self.refill(buf, rho[c][j])
                hit = buf.pop() <= xj
            if hit:
                x[j] = xj - 1
                code -= units[j]
                matched += 1
                if xj == top:
                    top = max(x)
                    if not top:
                        self.returns_to_zero += 1
                        if self.first_return is None:
                            self.first_return = t
            else:
                xc = x[c] = x[c] + 1
                code += units[c]
                if xc > top:
                    top = xc
            cum_norm += top
            if t == due:
                samples.append((x.copy(), matched, cum_norm))
                due = next(times, 0)
        self.t, self.matched_pairs, self.cum_norm = t, matched, cum_norm
        return samples


@dataclass(frozen=True)
class StepEvent:
    t: int
    arrival: int
    chosen: int
    matched: bool
    trials: int


def new_sim(spec: ModelSpec, seed) -> SimState:
    return SimState(spec, np.random.default_rng(_seed_seq(seed)))


def step(spec: ModelSpec, policy: PolicyConfig, sim: SimState) -> StepEvent:
    """Draw one arrival's class and serve it with SimState.advance.

    trials is the number of nodes probed: the geometric draw that advance
    pops for this arrival, capped at x(j); or x(j) when rho(c, j) = 0
    (probing a class with no edges burns all its nodes).
    """
    # _draw_arrivals(spec, 1, rng) on the same stream, without the arrays
    c = min(bisect_right(_cumulative_nu(spec), sim.rng.random()), spec.n_classes - 1)
    choice = _shared_choice(spec, policy)
    j = choice(c, sim.x)
    xj, buf = sim.x[j], sim.buffers[c][j]
    trials = xj
    if xj and buf is not None:
        if not buf:
            sim.refill(buf, sim.rho[c][j])
        trials = min(buf[-1], xj)
    matched = sim.matched_pairs
    sim.advance(choice, (c,))
    return StepEvent(t=sim.t, arrival=c, chosen=j, matched=sim.matched_pairs > matched,
                     trials=trials)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled path of one realization plus pathwise counters."""

    T: int
    seed: object
    t_grid: np.ndarray
    x: np.ndarray
    sup_norm: np.ndarray
    matched_pairs: np.ndarray
    perfect: np.ndarray
    ergodic_avg: np.ndarray
    walks: dict[frozenset[int], np.ndarray]
    returns_to_zero: int
    first_return: int | None
    final_x: State
    matched_total: int
    arrivals: np.ndarray | None = None


def coupled_walk(spec: ModelSpec, independent_set: Iterable[int],
                 arrivals: Sequence[int]) -> np.ndarray:
    """Path of the comparison walk driven by a given arrival sequence.

    The walk starts at 0, gains 1 on arrivals in the set and loses 1 on
    arrivals in its neighborhood; the unmatched count summed over the set
    dominates this walk pathwise, whatever the policy does.
    """
    graph = root_graph(spec)
    members = walk_spec(spec, independent_set).independent_set  # refuses a dependent set
    delta = np.zeros(spec.n_classes, dtype=np.int64)
    for j in neighborhood(graph, members):
        delta[j] = -1
    for i in members:
        delta[i] = 1
    xi = delta[np.asarray(arrivals, dtype=np.int64)]
    out = np.empty(len(xi) + 1, dtype=np.int64)
    out[0] = 0
    np.cumsum(xi, out=out[1:])
    return out


def run(spec: ModelSpec, policy: PolicyConfig, T: int, seed,
        sample_every: int | None = None,
        track_walks: Iterable[Iterable[int]] = (),
        keep_arrivals: bool = False) -> Trajectory:
    """Run the lazy engine for T arrivals and sample the path on a grid.

    track_walks lists independent sets whose comparison walks are evaluated
    on the same arrival stream and sampled on the same grid.
    """
    _check_path_length(T)  # before the T draws are made
    rng = np.random.default_rng(_seed_seq(seed))
    arrivals = _draw_arrivals(spec, T, rng)
    path = SimState(spec, rng)

    grid = _sample_grid(T, sample_every)
    S = grid.size
    samp_x = np.zeros((S, spec.n_classes), dtype=np.int64)
    samp_matched = np.zeros(S, dtype=np.int64)
    samp_erg = np.zeros(S, dtype=np.float64)
    ts = grid[1:]  # the grid starts at 0, whose row stays all zeros
    samples = path.advance(_shared_choice(spec, policy), arrivals.tolist(), ts.tolist())
    if samples:
        xs, matched, cum_norm = zip(*samples)
        samp_x[1:], samp_matched[1:] = xs, matched
        samp_erg[1:] = np.divide(cum_norm, ts)

    sup = samp_x.max(axis=1)
    perfect = sup == 0
    walks: dict[frozenset[int], np.ndarray] = {}
    for members in track_walks:
        key = frozenset(members)
        walks[key] = coupled_walk(spec, key, arrivals)[grid]

    return Trajectory(T=T, seed=seed, t_grid=grid, x=samp_x, sup_norm=sup,
                      matched_pairs=samp_matched, perfect=perfect,
                      ergodic_avg=samp_erg, walks=walks,
                      returns_to_zero=path.returns_to_zero, first_return=path.first_return,
                      final_x=tuple(path.x), matched_total=path.matched_pairs,
                      arrivals=arrivals if keep_arrivals else None)


def run_replicas(spec: ModelSpec, policy: PolicyConfig, T: int, base_seed: int,
                 replicas: int, **kwargs) -> list[Trajectory]:
    """Independent replicas on split streams (base_seed, r)."""
    return [run(spec, policy, T, (base_seed, r), **kwargs) for r in range(replicas)]


def final_states(spec: ModelSpec, policy: PolicyConfig, T: int, base_seed: int,
                 replicas: int) -> np.ndarray:
    """Final count vectors of many short replicas."""
    _check_path_length(T)  # before any draws are made
    choice = _shared_choice(spec, policy)
    out = np.zeros((replicas, spec.n_classes), dtype=np.int64)
    for rep in range(replicas):
        rng = np.random.default_rng(_seed_seq((base_seed, rep)))
        path = SimState(spec, rng)
        path.advance(choice, _draw_arrivals(spec, T, rng).tolist())
        out[rep] = path.x
    return out
