"""Monte Carlo engines for the matching dynamics.

The lazy engine works on class counts only.  A path draws its T arrival
classes up front and then one probe uniform u(t) per arrival from the same
generator, in blocks of BLOCK.  Arrival t of class c targets the class j
chosen by the policy and matches one of its x(j) unmatched nodes iff
u(t) < 1 - pow_int(1 - rho(c, j), x(j)), the kernel's match probability bit
for bit (0 when x(j) = 0 or rho(c, j) = 0); otherwise it joins its own
class.  (The full-graph engine, which materializes every node and edge
indicator, is a test oracle in tests/conftest.py.)

run and final_states are the two ways in.  Each builds a path's generator
from its seed, checks the path length once and serves the path with one
block server, _serve.
Every state x has one integer code, x(i) in field i of KEY_BITS bits,
and, once a path visits it, a dense id: its C edges, one per arrival class,
sit in C consecutive slots of one flat table.  An edge holds the match
probability, and the successor's table base and the move of a match and of
a miss; a miss of the table builds it from select_class's choice (under W1,
from the integer rule that equals it), with the weights and the match
probability read from memos by count, and enters the successors a probe can
reach: a match's when the match probability is above 0, a miss's when it is
below 1.  From a count n_sure(rho) on, fixed per rate, the match probability
is exactly 1 in floats, so a miss there reads it without a memo.  So each
arrival costs one list index, one compare and one entry on a move log; run
then works out the grid samples, the matched pairs (t - sum x) / 2, the
running sup-norm sum behind ergodic_avg, the returns to zero and the final
counts from the log with numpy, one block at a time, so that memory stays
bounded by the arrival array and one block.
A count never exceeds the arrivals served, so a path is refused past
2**KEY_BITS - 1 arrivals.  Engine calls on one (model, policy) pair share
one table, which an lru_cache keeps until a call on another pair replaces
it: no verb returns to a pair it has left.  A table holds at most
CHOICE_MEMO_MAX slots: when a miss could pass that, the table and the memos
are emptied in place and refilled from the current state (a flush).

Streams are split by seed tuple: replica r of a batch with base seed s draws
from SeedSequence((s, r)).  Nothing is ever seeded from the clock; a seed is
always required.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from struct import Struct
from typing import Iterable, Iterator, Sequence

import numpy as np

from .kernel import pow_int
from .model import ModelSpec, neighborhood, root_graph, walk_spec
from .policy import W1, PolicyConfig, State, top_class
# Kept as a module attribute: the benchmark's layer tracer
# (perfbench/tracing.py) wraps simulate.select_class.
from .policy import select_class  # noqa: F401

# Most slots, C per state, one table of edges may hold.  A full table takes
# about 17 MB under CPython 3.11 (about 130 bytes a slot); its memos add at
# most C + 1 entries per built edge.
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
    # np.linspace(0, T, n + 1) truncated, as linspace computes it: k (T / n)
    # and then T itself last; ascending, so np.unique's result without its sort
    n = min(T, DEFAULT_SAMPLES) or 1
    ts = (np.arange(n + 1) * (T / n)).astype(np.int64)
    ts[-1] = T
    return ts[np.append(True, ts[1:] != ts[:-1])]


def _check_path_length(t: int) -> None:
    if t < 0:
        raise ValueError(f"T must be non-negative, got {t}")
    if t >= 1 << KEY_BITS:
        raise ValueError(f"a path is capped at 2**{KEY_BITS} - 1 arrivals")


def _draw_arrivals(spec: ModelSpec, T: int, rng: np.random.Generator) -> np.ndarray:
    idx = np.cumsum(spec.nu).searchsorted(rng.random(T), side="right")
    return np.minimum(idx, spec.n_classes - 1, out=idx).astype(np.int64, copy=False)


def _n_sure(q: float) -> int:
    """A count n_sure from which 1.0 - pow_int(q, n) is exactly 1.0: the
    least n with q ** n <= 2**-60 by logs, a margin that puts pow_int's
    result below 2**-54, whatever its rounding, and 1.0 minus that rounds to
    1.0.  1 when q is 0; past every count a path reaches when q is 1.0."""
    if q == 0.0:
        return 1
    if q == 1.0:
        return 1 << KEY_BITS
    return math.ceil(-60.0 / math.log2(q))


class _Memo(dict):
    """f(n) by count n, each computed on the first lookup of n."""

    __slots__ = ("f",)

    def __init__(self, f):
        super().__init__()
        self.f = f

    def __missing__(self, n: int):
        v = self[n] = self.f(n)
        return v


class _Choice:
    """The edges of the (c, x) states, in a flat table indexed by dense
    state ids.

    A state x that a path starts from, or that an edge leads to, gets the
    next C slots of the table, from its base on; the edge of (c, x) sits in
    slot base + c, None until a miss builds it.  The state's identity stays
    its code, sum of x(i) * units[i] with units[i] = 2**(KEY_BITS * i): ids
    maps a code to its base and codes[base // C] is the code of a base.

    An edge is (p_yes, base_yes, m_yes, base_no, m_no): the probability that
    an arrival of class c matches in state x, and the successor base and
    move of a match and of a miss.  Move c is a count added to class c; move
    C + j is a count taken from class j, the targeted class, which m_yes
    names even when p_yes is 0 (base_yes is then None, as no probe is below
    0); base_no is None when p_yes is 1.0, as every probe is below 1.

    A miss takes select_class's choice without calling it: it reads the
    weight w(x(j), rho(c, j)) of every class j from weights[c][j], a memo
    by the count x(j), and hands them to top_class, select_class's tie rule
    (WEIGHT_TOL, then the largest alpha).  Under W1 the weights are the
    counts of the classes c can match, exact in a float, so the choice is
    the integer argmax of x(j) (C + 1) + alpha(j) over those classes, or the
    class with the largest alpha when all their counts are 0 and every
    weight ties at 0; miss computes that inline.  p_yes is read from
    p_yes[c][j], a memo by the count x(j) of 1 - pow_int(1 - rho(c, j),
    x(j)), while x(j) is below sure[c][j] = _n_sure(1 - rho(c, j)); from
    that count on p_yes is 1.0 and the memo is not read.  A miss enters the
    successors a probe can reach and adds at most C + 1 memo entries.  The
    table holds at most CHOICE_MEMO_MAX slots: a miss that could pass that,
    or a new state that would, first empties it and the memos (flush) and
    enters the current state again.  A miss enters at most two states, so
    the bound holds whenever CHOICE_MEMO_MAX >= 3C.
    """

    def __init__(self, spec: ModelSpec, policy: PolicyConfig):
        self.ids: dict[int, int] = {}
        self.codes: list[int] = []
        self.table: list[tuple[float, int | None, int, int | None, int] | None] = []
        self.alpha = policy.alpha
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
        # sweep/w1 a third less time than the other weights' top_class path.
        self.matchable = [[(j, a, KEY_BITS * j)
                           for j, (r, a) in enumerate(zip(row, policy.alpha)) if r > 0.0]
                          for row in spec.rho] if policy.weight is W1 else None
        self.scale = C + 1
        self.top = policy.alpha.index(max(policy.alpha))
        # weights[c][j] and p_yes[c][j]: the weight and the match probability
        # of target j for arrival class c, by count x(j); both depend on
        # rho(c, j) alone, so the pairs of one rate share one memo of each
        fn, rates = policy.weight.fn, set().union(*spec.rho)
        weight = {r: _Memo(lambda n, r=r: float(fn(n, r))) for r in rates}
        p_yes = {r: _Memo(lambda n, q=1.0 - r: 1.0 - pow_int(q, n)) for r in rates}
        self.weights = None if policy.weight is W1 else \
            [[weight[r] for r in row] for row in spec.rho]
        self.p_yes = [[p_yes[r] for r in row] for row in spec.rho]
        self.sure = [[_n_sure(1.0 - r) for r in row] for row in spec.rho]
        self.memos = [*weight.values(), *p_yes.values()]

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
        for memo in self.memos:
            memo.clear()

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

    def miss(self, slot: int) -> tuple[float, int | None, int, int | None, int]:
        """Build and store the edge of table slot slot."""
        C, units, table, ids, codes = self.n, self.units, self.table, self.ids, self.codes
        code, c = codes[slot // C], slot % C
        if self.matchable is None:
            x = self.counts(code)
            j = top_class([w[n] for w, n in zip(self.weights[c], x)], self.alpha)
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
        p_yes = 1.0 if xj >= self.sure[c][j] else self.p_yes[c][j][xj]
        if len(table) + 2 * C > CHOICE_MEMO_MAX:
            self.flush()
            slot = self.enter(code) + c
        # the successors a probe can reach, entered as enter enters them
        base_yes = base_no = None
        if p_yes > 0.0:
            to = code - units[j]
            base_yes = ids.get(to)
            if base_yes is None:
                base_yes = ids[to] = len(table)
                codes.append(to)
                table += self.blank
        if p_yes < 1.0:
            to = code + units[c]
            base_no = ids.get(to)
            if base_no is None:
                base_no = ids[to] = len(table)
                codes.append(to)
                table += self.blank
        table[slot] = edge = (p_yes, base_yes, C + j, base_no, c)
        return edge

    def edge(self, c: int, x: Sequence[int]) -> tuple[float, int | None, int, int | None, int]:
        slot = self.start(x) + c
        return self.table[slot] or self.miss(slot)


@lru_cache(maxsize=1)
def _shared_choice(spec: ModelSpec, policy: PolicyConfig) -> _Choice:
    """The table of edges of the last (model, policy) pair served."""
    return _Choice(spec, policy)


def _serve(choice: _Choice, rng: np.random.Generator, arrivals: np.ndarray
           ) -> Iterator[tuple[int, bytearray | list[int], list[int]]]:
    """Serve a path's arrivals from the origin in blocks of BLOCK, each with
    as many probe uniforms drawn from rng: arrival k matches iff its probe is
    below its edge's p_yes.  Yields each block's first index, its move log,
    one move per arrival (see _Choice), and the counts after it."""
    table, miss = choice.table, choice.miss
    x = [0] * choice.n
    for start in range(0, len(arrivals), BLOCK):
        block = arrivals[start:start + BLOCK]
        probes = memoryview(rng.random(len(block)))  # yields floats, like tolist, but lazily
        log = choice.log_type()
        append = log.append
        s = choice.start(x)
        for c, u in zip(block.tolist(), probes):
            p_yes, base_yes, m_yes, base_no, m_no = table[s + c] or miss(s + c)
            if u < p_yes:
                s = base_yes
                append(m_yes)
            else:
                s = base_no
                append(m_no)
        x = choice.counts(choice.codes[s // choice.n])
        yield start, log, x


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
    rng = np.random.default_rng(_seed_seq(seed))
    arrivals = _draw_arrivals(spec, T, rng)
    C = spec.n_classes

    grid = _sample_grid(T, sample_every)
    samp_x = np.zeros((grid.size, C), dtype=np.int64)
    samp_erg = np.zeros(grid.size, dtype=np.float64)
    choice = _shared_choice(spec, policy)
    x = [0] * C  # the counts before the block
    cum_norm, returns, first_return = 0.0, 0, None
    for start, log, after in _serve(choice, rng, arrivals):
        X = choice.steps.take(np.asarray(log), axis=1)
        X[:, 0] += x
        X.cumsum(axis=1, out=X)  # (C, n): the counts after each arrival of the block
        x = after
        top = X.max(axis=0)
        empty = (top == 0).nonzero()[0]
        returns += empty.size
        if first_return is None and empty.size:
            first_return = start + int(empty[0]) + 1
        # the float running sum, added in arrival order like a scalar loop:
        # cum_norm + top[0] first, then each next top
        cum = top.astype(np.float64)
        cum[0] += cum_norm
        cum.cumsum(out=cum)
        cum_norm = cum[-1]
        lo, hi = grid.searchsorted((start, start + len(log)), side="right")
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
                      final_x=tuple(x), matched_total=(T - sum(x)) // 2)


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
        rng = np.random.default_rng(_seed_seq((base_seed, rep)))
        for _, _, x in _serve(choice, rng, _draw_arrivals(spec, T, rng)):
            out[rep] = x
    return out
