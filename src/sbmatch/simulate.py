"""Monte Carlo engines for the matching dynamics.

The lazy engine works on class counts only.  A path draws its T arrival
classes up front and then one probe uniform u(t) per arrival from the same
generator, in blocks of BLOCK.  Arrival t of class c targets the class j
chosen by the policy and matches one of its x(j) unmatched nodes iff
u(t) < 1 - pow_int(1 - rho(c, j), x(j)), the kernel's match probability bit
for bit (0 when x(j) = 0 or rho(c, j) = 0); otherwise it joins its own
class.  (The full-graph engine, which materializes every node and edge
indicator, is a test oracle in tests/conftest.py.)

run, final_states and step share one per-arrival core, SimState.advance, on
a path that new_sim starts from its seed.
Every state x has one integer code, x(i) in field i of KEY_BITS bits,
and, once a path visits it, a dense id: its C edges, one per arrival class,
sit in C consecutive slots of one flat table.  An edge holds the match
probability, and the successor's table base and the move of a match and of
a miss; a miss of the table builds it from select_class's choice (under W1,
from the integer rule that equals it) and enters both successors.  So each
arrival costs one list index, one compare and one entry on a move log; run
then works out the grid samples, the matched pairs (t - sum x) / 2, the
running sup-norm sum behind ergodic_avg, the returns to zero and the final
counts from the log with numpy, one block at a time, so that memory stays
bounded by the arrival array and one block.
A count never exceeds the arrivals served, so a path is refused past
2**KEY_BITS - 1 arrivals.  Engine calls on one (model, policy) pair share
one table, which an lru_cache keeps until a call on another pair replaces
it: no verb returns to a pair it has left.  A table holds at most
CHOICE_MEMO_MAX slots: when a miss could pass that, the table is emptied in
place and refilled from the current state (a flush).  step draws each
arrival's class and then its probe when it is called, so its stream
interleaves the two.

Streams are split by seed tuple: replica r of a batch with base seed s draws
from SeedSequence((s, r)).  Nothing is ever seeded from the clock; a seed is
always required.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from struct import Struct
from typing import Iterable, Iterator, Sequence

import numpy as np

from .kernel import pow_int
from .model import ModelSpec, neighborhood, root_graph, walk_spec
from .policy import W1, PolicyConfig, State, select_class

# Most slots, C per state, one table of edges may hold.  A full table takes
# about 16 MB under CPython 3.11 (about 120 bytes a slot).
CHOICE_MEMO_MAX = 1 << 17
# Width of each field of a state's code; a path serves fewer than
# 2**KEY_BITS arrivals, so no count overflows its field.
KEY_BITS = 32
_FIELD = (1 << KEY_BITS) - 1
# Arrivals per block of probe draws, move log and run's bookkeeping.
BLOCK = 1 << 15
DEFAULT_SAMPLES = 512


def _seed_seq(seed) -> np.random.SeedSequence:
    if seed is None:
        raise ValueError("a seed is required; wall-clock seeding is not supported")
    if isinstance(seed, (tuple, list)):
        return np.random.SeedSequence(tuple(int(v) for v in seed))
    return np.random.SeedSequence(int(seed))


def _sample_grid(T: int, sample_every: int | None) -> np.ndarray:
    if sample_every is not None:
        if sample_every < 1:
            raise ValueError("sample_every must be positive")
        ts = np.arange(0, T + 1, sample_every, dtype=np.int64)
        return ts if ts[-1] == T else np.append(ts, T)
    # ascending and ending at T, so np.unique's result without its sort
    ts = np.linspace(0, T, num=min(T, DEFAULT_SAMPLES) + 1).astype(np.int64)
    return ts[np.append(True, ts[1:] != ts[:-1])]


def _check_path_length(t: int) -> None:
    if t < 0:
        raise ValueError(f"T must be non-negative, got {t}")
    if t >= 1 << KEY_BITS:
        raise ValueError(f"a path is capped at 2**{KEY_BITS} - 1 arrivals")


def _draw_arrivals(spec: ModelSpec, T: int, rng: np.random.Generator) -> np.ndarray:
    idx = np.searchsorted(np.cumsum(spec.nu), rng.random(T), side="right")
    return np.minimum(idx, spec.n_classes - 1, out=idx).astype(np.int64, copy=False)


class _Choice:
    """The edges of the (c, x) states, in a flat table indexed by dense
    state ids.

    A state x that a path starts from, or that an edge leads to, gets the
    next C slots of the table, from its base on; the edge of (c, x) sits in
    slot base + c, None until a miss builds it.  The state's identity stays its code, sum of x(i) * units[i]
    with units[i] = 2**(KEY_BITS * i): ids maps a code to its base and
    codes[base // C] is the code of a base.

    An edge is (p_yes, base_yes, m_yes, base_no, m_no): the probability that
    an arrival of class c matches in state x, and the successor base and
    move of a match and of a miss.  Move c is a count added to class c; move
    C + j is a count taken from class j, the targeted class, which m_yes
    names even when p_yes is 0 (base_yes is then None, as no probe is below
    0).

    A miss calls select_class, which holds the tie rule (WEIGHT_TOL, then the
    largest alpha), except under W1.  There the weights are the counts of
    the classes c can match, exact in a float, so select_class's choice is
    the integer argmax of x(j) (C + 1) + alpha(j) over those classes, or the
    class with the largest alpha when all their counts are 0 and every
    weight ties at 0; miss computes that inline.  The table holds at
    most CHOICE_MEMO_MAX slots: a miss that could pass that, or a new state
    that would, first empties it (flush) and enters the current state again.
    A miss enters at most two states, so the bound holds whenever
    CHOICE_MEMO_MAX >= 3C.
    """

    def __init__(self, spec: ModelSpec, policy: PolicyConfig):
        self.ids: dict[int, int] = {}
        self.codes: list[int] = []
        self.table: list[tuple[float, int | None, int, int, int] | None] = []
        self.weight, self.alpha, self.rho = policy.weight, policy.alpha, spec.rho
        self.n = C = spec.n_classes
        self.blank = [None] * C
        # Integer codes, not tuple keys: tuple keys made sweep/w1 about 9% slower.
        self.units = [1 << (KEY_BITS * i) for i in range(C)]
        # A code as its C fields, read from its little-endian bytes ("I" is
        # 32 bits, KEY_BITS); about twice as fast as C shifts at C = 4.
        self.fields = Struct(f"<{C}I")
        # One byte per move while the 2C moves fit in one (an array("I") was
        # no faster); column m of steps is the change of the counts by move m.
        self.log_type = bytearray if 2 * C <= 256 else list
        eye = np.eye(C, dtype=np.int64)
        self.steps = np.hstack([eye, -eye])
        # Under W1, the (class, alpha, field shift) of each class that each
        # arrival class can match; miss's inline argmax over them takes
        # sweep/w1 about 30% less time than select_class.
        self.matchable = [[(j, a, KEY_BITS * j)
                           for j, (r, a) in enumerate(zip(row, policy.alpha)) if r > 0.0]
                          for row in spec.rho] if policy.weight is W1 else None
        self.scale = C + 1
        self.top = policy.alpha.index(max(policy.alpha))

    def code(self, x: Sequence[int]) -> int:
        """The code of state x."""
        return sum(v * u for v, u in zip(x, self.units))

    def counts(self, code: int) -> list[int]:
        """The x of the state whose code is code."""
        return list(self.fields.unpack(code.to_bytes(self.fields.size, "little")))

    def flush(self) -> None:
        self.ids.clear()
        self.codes.clear()
        self.table.clear()

    def enter(self, code: int) -> int:
        """The base of the state whose code is code; a new state gets the
        next C slots."""
        base = self.ids.get(code)
        if base is None:
            base = self.ids[code] = len(self.table)
            self.codes.append(code)
            self.table += self.blank
        return base

    def start(self, x: Sequence[int]) -> int:
        """The base of state x, entered after a flush if it is new and its
        slots would pass the bound."""
        code = self.code(x)
        if code not in self.ids and len(self.table) + self.n > CHOICE_MEMO_MAX:
            self.flush()
        return self.enter(code)

    def miss(self, slot: int) -> tuple[float, int | None, int, int, int]:
        """Build and store the edge of table slot slot."""
        C, units, table = self.n, self.units, self.table
        code, c = self.codes[slot // C], slot % C
        if self.matchable is None:
            x = self.counts(code)
            j = select_class(self.weight, self.alpha, x, self.rho[c])
            xj = x[j]
        else:
            # When the top-alpha fallback is taken, x(j) is read as 0: it is 0
            # if c can match j, and p_yes is 0 whatever it is if c cannot.
            scale = self.scale
            j, score, xj = self.top, scale - 1, 0  # alpha(j) alone never exceeds C = scale - 1
            for i, a, shift in self.matchable[c]:
                v = (code >> shift) & _FIELD
                s = v * scale + a
                if s > score:
                    j, score, xj = i, s, v
        p_yes = 1.0 - pow_int(1.0 - self.rho[c][j], xj)
        if len(table) + 2 * C > CHOICE_MEMO_MAX:
            self.flush()
            slot = self.enter(code) + c
        base_yes = self.enter(code - units[j]) if p_yes > 0.0 else None
        table[slot] = edge = (p_yes, base_yes, C + j, self.enter(code + units[c]), c)
        return edge

    def edge(self, c: int, x: Sequence[int]) -> tuple[float, int | None, int, int, int]:
        slot = self.start(x) + c
        return self.table[slot] or self.miss(slot)


@lru_cache(maxsize=1)
def _shared_choice(spec: ModelSpec, policy: PolicyConfig) -> _Choice:
    """The table of edges of the last (model, policy) pair served."""
    return _Choice(spec, policy)


class SimState:
    """One lazy-engine realization: its generator, counts and time."""

    def __init__(self, spec: ModelSpec, rng: np.random.Generator):
        self.rng = rng
        self.x = [0] * spec.n_classes
        self.t = 0

    def advance(self, choice: _Choice, arrivals: Sequence[int],
                probes: Sequence[float]) -> bytearray | list[int]:
        """Serve the given arrivals one by one, arrival k with the probe
        uniform probes[k]: it matches iff that probe is below its edge's
        p_yes.  Returns the move log, one move per arrival (see _Choice).
        """
        _check_path_length(self.t + len(arrivals))
        table, miss = choice.table, choice.miss
        log = choice.log_type()
        append = log.append
        s = choice.start(self.x)
        for c, u in zip(arrivals, probes):
            e = table[s + c] or miss(s + c)
            if u < e[0]:
                s = e[1]
                append(e[2])
            else:
                s = e[3]
                append(e[4])
        self.x = choice.counts(choice.codes[s // choice.n])
        self.t += len(log)
        return log


def _serve(path: SimState, choice: _Choice,
           arrivals: np.ndarray) -> Iterator[tuple[int, bytearray | list[int]]]:
    """Serve a path's arrivals in blocks of BLOCK, each with as many probe
    uniforms drawn from the path's generator; yields each block's first
    index and move log."""
    for start in range(0, len(arrivals), BLOCK):
        block = arrivals[start:start + BLOCK]
        probes = memoryview(path.rng.random(len(block)))  # yields floats, like tolist, but lazily
        yield start, path.advance(choice, block.tolist(), probes)


@dataclass(frozen=True)
class StepEvent:
    t: int
    arrival: int
    chosen: int
    matched: bool
    trials: int


def new_sim(spec: ModelSpec, seed) -> SimState:
    return SimState(spec, np.random.default_rng(_seed_seq(seed)))


def _trials(u: float, r: float, n: int) -> int:
    """The nodes a match probes: the least k <= n with
    u < 1 - pow_int(1 - r, k), which holds at k = n, found by bisection."""
    lo, hi = 1, n
    while lo < hi:
        mid = (lo + hi) // 2
        if u < 1.0 - pow_int(1.0 - r, mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def step(spec: ModelSpec, policy: PolicyConfig, sim: SimState) -> StepEvent:
    """Draw one arrival's class and then its probe uniform, and serve it with
    SimState.advance.

    trials is the number of nodes probed: on a match, the least k with
    u < 1 - (1 - rho(c, j)) ** k, the first hit of a geometric trial
    sequence coupled to the probe; otherwise all x(j) of them (probing a
    class with no edges burns all its nodes).
    """
    choice = _shared_choice(spec, policy)
    c = int(_draw_arrivals(spec, 1, sim.rng)[0])
    u = sim.rng.random()
    p_yes, _, move, _, _ = choice.edge(c, sim.x)
    j = move - choice.n
    xj = sim.x[j]
    sim.advance(choice, (c,), (u,))
    matched = u < p_yes
    return StepEvent(t=sim.t, arrival=c, chosen=j, matched=matched,
                     trials=_trials(u, spec.rho[c][j], xj) if matched else xj)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled path of one realization plus pathwise counters."""

    T: int
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
        track_walks: Iterable[Iterable[int]] = ()) -> Trajectory:
    """Run the lazy engine for T arrivals and sample the path on a grid.

    track_walks lists independent sets whose comparison walks are evaluated
    on the same arrival stream and sampled on the same grid.
    """
    _check_path_length(T)  # before the T draws are made
    path = new_sim(spec, seed)
    arrivals = _draw_arrivals(spec, T, path.rng)
    C = spec.n_classes

    grid = _sample_grid(T, sample_every)
    samp_x = np.zeros((grid.size, C), dtype=np.int64)
    samp_erg = np.zeros(grid.size, dtype=np.float64)
    choice = _shared_choice(spec, policy)
    x = np.zeros((C, 1), dtype=np.int64)  # the counts before the block
    cum_norm, returns, first_return = 0.0, 0, None
    for start, log in _serve(path, choice, arrivals):
        X = np.take(choice.steps, np.asarray(log), axis=1)
        np.cumsum(X, axis=1, out=X)
        X += x  # (C, n): the counts after each arrival of the block
        x = X[:, -1:].copy()
        top = X.max(axis=0)
        empty = np.flatnonzero(top == 0)
        returns += empty.size
        if first_return is None and empty.size:
            first_return = start + int(empty[0]) + 1
        # the float running sum, added in arrival order like a scalar loop
        cum = np.cumsum(np.concatenate(([cum_norm], top)))[1:]
        cum_norm = cum[-1]
        lo, hi = np.searchsorted(grid, (start, start + len(log)), side="right")
        k = grid[lo:hi] - (start + 1)
        samp_x[lo:hi] = X[:, k].T
        samp_erg[lo:hi] = cum[k] / grid[lo:hi]

    sup = samp_x.max(axis=1)
    walks: dict[frozenset[int], np.ndarray] = {}
    for members in track_walks:
        key = frozenset(members)
        walks[key] = coupled_walk(spec, key, arrivals)[grid]

    return Trajectory(T=T, t_grid=grid, x=samp_x, sup_norm=sup,
                      matched_pairs=(grid - samp_x.sum(axis=1)) // 2, perfect=sup == 0,
                      ergodic_avg=samp_erg, walks=walks,
                      returns_to_zero=returns, first_return=first_return,
                      final_x=tuple(path.x), matched_total=(T - sum(path.x)) // 2)


def run_replicas(spec: ModelSpec, policy: PolicyConfig, T: int, base_seed: int,
                 replicas: int, **kwargs) -> list[Trajectory]:
    """Independent replicas on split streams (base_seed, r)."""
    return [run(spec, policy, T, (base_seed, r), **kwargs) for r in range(replicas)]


def final_states(spec: ModelSpec, policy: PolicyConfig, T: int, base_seed: int,
                 replicas: int) -> np.ndarray:
    """Final count vectors of many short replicas."""
    if replicas < 0:
        raise ValueError(f"replicas must be non-negative, got {replicas}")
    _check_path_length(T)  # before any draws are made
    choice = _shared_choice(spec, policy)
    out = np.zeros((replicas, spec.n_classes), dtype=np.int64)
    for rep in range(replicas):
        path = new_sim(spec, (base_seed, rep))
        for _ in _serve(path, choice, _draw_arrivals(spec, T, path.rng)):
            pass
        out[rep] = path.x
    return out
