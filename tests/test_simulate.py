"""Monte Carlo engines against the exact kernel and each other."""

import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from sbmatch import (
    W1,
    W2,
    PolicyConfig,
    WeightFunction,
    coupled_walk,
    final_states,
    make_policy,
    make_spec,
    new_sim,
    propagate_distribution,
    run,
    run_replicas,
    select_class,
    stability,
    step,
    transition_row,
)
from sbmatch import scenarios, simulate
from sbmatch.kernel import box_moves, move_tables, pow_int

from conftest import enumerate_exact_distribution, full_graph_run, scalar_final_states, scalar_run


def chi_square_ok(observed_counts, expected_probs, n, significance=1e-3):
    """Pearson test with pooling of sparse cells; True when not rejected."""
    keys = sorted(expected_probs)
    obs, exp, o_pool, e_pool = [], [], 0.0, 0.0
    for k in keys:
        o, e = observed_counts.get(k, 0), n * expected_probs[k]
        if e < 5.0:
            o_pool += o
            e_pool += e
        else:
            obs.append(o)
            exp.append(e)
    if e_pool > 0.0:
        obs.append(o_pool)
        exp.append(e_pool)
    exp = np.asarray(exp) * (sum(obs) / sum(exp))  # guard rounding drift
    _, p = stats.chisquare(obs, exp)
    return p > significance


def test_seed_is_mandatory(triangle_spec):
    pol = make_policy(triangle_spec)
    with pytest.raises(ValueError, match="seed"):
        run(triangle_spec, pol, 10, None)


def test_same_seed_reproduces_everything(triangle_spec):
    pol = make_policy(triangle_spec)
    a = run(triangle_spec, pol, 5000, (42, 0), sample_every=100)
    b = run(triangle_spec, pol, 5000, (42, 0), sample_every=100)
    assert a.final_x == b.final_x
    assert a.matched_total == b.matched_total
    np.testing.assert_array_equal(a.x, b.x)
    c = run(triangle_spec, pol, 5000, (42, 1), sample_every=100)
    assert (a.final_x != c.final_x) or (a.matched_total != c.matched_total)


def test_step_events_have_consistent_bookkeeping(triangle_spec):
    pol = make_policy(triangle_spec)
    sim = new_sim(triangle_spec, 9)
    matched = 0
    for t in range(1, 201):
        ev = step(triangle_spec, pol, sim)
        matched += ev.matched
        assert ev.t == t == sim.t
        assert sum(sim.x) + 2 * matched == t
        assert sum(sim.x) % 2 == t % 2


def test_step_trials_when_rate_is_zero():
    spec = scenarios.bipartite(Fraction(1, 2), r=0.0)  # no edges at all
    pol = make_policy(scenarios.bipartite(Fraction(1, 2)))
    sim = new_sim(spec, 3)
    events = [step(spec, pol, sim) for _ in range(50)]
    assert all(not ev.matched for ev in events)
    # scanning x incompatible nodes burns x trials even though none can match
    assert any(ev.trials > 0 for ev in events)
    assert sum(sim.x) == 50


@pytest.mark.parametrize("weight", [W1, W2])
def test_step_trials_when_rate_is_positive(weight):
    # every class pair has an edge, so each probe is a geometric draw capped
    # at the targeted count
    spec = make_spec("ab", (0.45, 0.55), ((0.3, 0.6), (0.6, 0.2)))
    pol = make_policy(spec, weight)
    sim = new_sim(spec, 5)
    matched = missed = 0
    for _ in range(3000):
        xj = list(sim.x)
        ev = step(spec, pol, sim)
        xj = xj[ev.chosen]
        if ev.matched:
            assert 1 <= ev.trials <= xj
            matched += 1
        else:
            assert ev.trials == xj
            missed += xj > 0
    assert matched > 100 and missed > 100


def test_single_step_distribution_matches_kernel(bipartite_spec):
    pol = make_policy(bipartite_spec)
    n = 20000
    for k, x0 in enumerate(((0, 2), (3, 1), (0, 0))):
        row = transition_row(bipartite_spec, pol, "raw", x0).as_dict()
        sim = new_sim(bipartite_spec, (77, k))
        counts: dict = {}
        for _ in range(n):
            sim.x = list(x0)
            step(bipartite_spec, pol, sim)
            y = tuple(sim.x)
            counts[y] = counts.get(y, 0) + 1
        assert chi_square_ok(counts, row, n)


def test_lazy_engine_matches_kernel_distribution():
    # the buffered-geometric fast path must still realize the kernel's law
    spec = scenarios.bipartite(Fraction(1, 2))
    pol = make_policy(spec)
    T, n = 4, 20000
    expected = propagate_distribution(spec, pol, T)
    counts: dict = {}
    for row in final_states(spec, pol, T, 99, n):
        x = tuple(int(v) for v in row)
        counts[x] = counts.get(x, 0) + 1
    assert chi_square_ok(counts, expected, n)


def test_run_grid_and_walks(bipartite_spec):
    pol = make_policy(bipartite_spec)
    tr = run(bipartite_spec, pol, 1000, (3, 1), sample_every=50, track_walks=[{0}])
    assert tr.t_grid[0] == 0 and tr.t_grid[-1] == 1000
    assert tr.x.shape == (len(tr.t_grid), 2)
    walk = tr.walks[frozenset({0})]
    arrivals = simulate._draw_arrivals(bipartite_spec, 1000,
                                       np.random.default_rng(simulate._seed_seq((3, 1))))
    full = coupled_walk(bipartite_spec, {0}, arrivals)
    np.testing.assert_array_equal(walk, full[tr.t_grid])
    # the class-one count dominates its walk at every sampled time
    assert np.all(tr.x[:, 0] >= walk)


def test_coupled_walk_small_case(bipartite_spec):
    walk = coupled_walk(bipartite_spec, {0}, [0, 1, 0, 0, 1])
    np.testing.assert_array_equal(walk, [0, 1, 0, 1, 2, 1])


def test_coupled_walk_rejects_dependent_set(triangle_spec):
    with pytest.raises(ValueError):
        coupled_walk(triangle_spec, {0, 1}, [0, 1])


def test_engine_refuses_an_overlong_path_before_drawing(monkeypatch, triangle_spec):
    def no_draws(*args):
        raise AssertionError("arrivals drawn for a path past the bound")

    monkeypatch.setattr(simulate, "_draw_arrivals", no_draws)
    pol = make_policy(triangle_spec)
    T = 1 << simulate.KEY_BITS
    with pytest.raises(ValueError, match="capped"):
        run(triangle_spec, pol, T, 1)
    with pytest.raises(ValueError, match="capped"):
        final_states(triangle_spec, pol, T, 1, 1)


def test_engine_refuses_a_negative_path_length_before_drawing(monkeypatch, triangle_spec):
    def no_draws(*args):
        raise AssertionError("arrivals drawn for a path of negative length")

    monkeypatch.setattr(simulate, "_draw_arrivals", no_draws)
    pol = make_policy(triangle_spec)
    with pytest.raises(ValueError, match="T must be non-negative, got -1"):
        run(triangle_spec, pol, -1, 1)
    with pytest.raises(ValueError, match="T must be non-negative, got -1"):
        final_states(triangle_spec, pol, -1, 1, 2)


def test_final_states_refuses_a_negative_replica_count(triangle_spec):
    with pytest.raises(ValueError, match="replicas must be non-negative, got -1"):
        final_states(triangle_spec, make_policy(triangle_spec), 10, 1, -1)


def test_run_replicas_and_final_states_agree(triangle_spec):
    pol = make_policy(triangle_spec)
    trajs = run_replicas(triangle_spec, pol, 300, 11, 4)
    finals = final_states(triangle_spec, pol, 300, 11, 4)
    for k, tr in enumerate(trajs):
        assert tr.final_x == tuple(finals[k])


def test_exact_enumeration_matches_kernel_at_tiny_horizon():
    spec = scenarios.bipartite(Fraction(1, 2))
    pol = make_policy(spec)
    for T in (1, 2, 3):
        exact = enumerate_exact_distribution(spec, pol, T)
        kernel = propagate_distribution(spec, pol, T)
        assert set(exact) == set(kernel)
        for x, p in kernel.items():
            assert exact[x] == pytest.approx(p, abs=1e-12)


def test_full_graph_engine_matches_kernel_distribution():
    spec = scenarios.bipartite(Fraction(1, 2))
    pol = make_policy(spec)
    T, n = 4, 20000
    expected = propagate_distribution(spec, pol, T)
    counts: dict = {}
    for rep in range(n):
        out = full_graph_run(spec, pol, T, (13, rep))
        x = out.final_x
        counts[x] = counts.get(x, 0) + 1
    assert chi_square_ok(counts, expected, n)


def test_full_graph_bookkeeping(triangle_spec):
    pol = make_policy(triangle_spec)
    out = full_graph_run(triangle_spec, pol, 60, 21, retain_graph=True)
    assert len(out.node_class) == 60
    assert 2 * len(out.matching) + int(out.unmatched.sum()) == 60
    assert sum(out.final_x) == int(out.unmatched.sum())
    edge_set = set(out.edges)
    for u, v in out.matching:
        assert u < v  # partner existed before the arrival
        assert (u, v) in edge_set
        assert triangle_spec.rho[out.node_class[u]][out.node_class[v]] > 0.0


ORACLE_MODELS = {
    "triangle": scenarios.triangle,
    "bipartite_1_2": lambda: scenarios.bipartite(Fraction(1, 2)),
    "bipartite_3_5": lambda: scenarios.bipartite(Fraction(3, 5)),
    "mixed_selfloop": scenarios.mixed_selfloop,
    "single_selfloop": scenarios.single_selfloop,
}


def assert_same_engine_output(spec, pol, seed):
    walks = stability(spec).independent_sets[:2]
    for every in (None, 37):
        a = run(spec, pol, 2000, (seed, 0), sample_every=every, track_walks=walks)
        b = scalar_run(spec, pol, 2000, (seed, 0), sample_every=every, track_walks=walks)
        for field in ("t_grid", "x", "sup_norm", "matched_pairs", "perfect", "ergodic_avg"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field
        assert a.walks.keys() == b.walks.keys()
        for key in a.walks:
            assert np.array_equal(a.walks[key], b.walks[key])
        assert (a.returns_to_zero, a.first_return, a.final_x, a.matched_total) \
            == (b.returns_to_zero, b.first_return, b.final_x, b.matched_total)
    assert np.array_equal(final_states(spec, pol, 60, seed, 30),
                          scalar_final_states(spec, pol, 60, seed, 30))


@pytest.mark.parametrize("weight", [W1, W2], ids=["w1", "w2"])
@pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
def test_engine_matches_scalar_oracle(name, weight):
    # the memoised core must reproduce the unmemoised loop's seeded paths exactly
    spec = ORACLE_MODELS[name]()
    pol = make_policy(spec, weight)
    for seed in (1, 2, 3):
        assert_same_engine_output(spec, pol, seed)


def test_engine_matches_scalar_oracle_past_the_memo_bound(monkeypatch):
    monkeypatch.setattr(simulate, "CHOICE_MEMO_MAX", 8)
    simulate._shared_choice.cache_clear()  # a table warmed by earlier tests is past no bound
    spec = scenarios.bipartite(Fraction(3, 5))  # unstable: nearly every state is new
    for weight in (W1, W2):
        pol = make_policy(spec, weight)
        choice = simulate._Choice(spec, pol)
        for n in range(40):
            x = (n, n // 3)
            j = select_class(pol.weight, pol.alpha, x, spec.rho[0])
            p_yes = 1.0 - pow_int(1.0 - spec.rho[0][j], x[j])
            code, units = choice.code(x), choice.units
            e_p, base_yes, m_yes, base_no, m_no = choice.edge(0, x)
            assert (e_p, m_yes, m_no) == (p_yes, 2 + j, 0)
            assert choice.codes[base_no // 2] == code + units[0]
            assert base_yes is None if p_yes == 0.0 else choice.codes[base_yes // 2] == code - units[j]
        assert len(choice.table) <= 8
        for seed in (4, 5, 6):
            assert_same_engine_output(spec, pol, seed)
        assert len(simulate._shared_choice(spec, pol).table) <= 8
    # the triangle at a bound of 10 >= 3C slots: a replica that starts at the
    # origin after a miss has filled the table flushes it in start
    monkeypatch.setattr(simulate, "CHOICE_MEMO_MAX", 10)
    spec = scenarios.triangle()
    start, sizes = simulate._Choice.start, []

    def checked_start(self, x):
        base = start(self, x)
        sizes.append((len(self.ids), len(self.table)))
        return base

    monkeypatch.setattr(simulate._Choice, "start", checked_start)
    for weight in (W1, W2):
        pol = make_policy(spec, weight)
        sizes.clear()
        assert np.array_equal(final_states(spec, pol, 10, 3, 20),
                              scalar_final_states(spec, pol, 10, 3, 20))
        assert (1, 3) in sizes[1:]  # start emptied the table and entered the origin again
        assert max(n for _, n in sizes) <= 10
        assert len(simulate._shared_choice(spec, pol).table) <= 10


def test_the_edge_table_flushes_at_its_bound(monkeypatch):
    # an unstable model at the real bound: the path visits more states than
    # the table holds, so it is emptied and refilled, and never grows past
    # CHOICE_MEMO_MAX slots
    spec = scenarios.bipartite(Fraction(3, 5))
    pol = make_policy(spec, W1)
    visited, sizes, flushes = set(), [], []
    miss, flush = simulate._Choice.miss, simulate._Choice.flush

    def counted_miss(self, slot):
        visited.add(self.codes[slot // self.n])
        edge = miss(self, slot)
        sizes.append(len(self.table))
        return edge

    def counted_flush(self):
        flushes.append(len(self.table))
        flush(self)

    monkeypatch.setattr(simulate._Choice, "miss", counted_miss)
    monkeypatch.setattr(simulate._Choice, "flush", counted_flush)
    simulate._shared_choice.cache_clear()
    run(spec, pol, 400_000, 7)
    assert len(visited) > simulate.CHOICE_MEMO_MAX // 2
    assert flushes and max(sizes + flushes) <= simulate.CHOICE_MEMO_MAX
    assert np.array_equal(final_states(spec, pol, 60, 7, 30),
                          scalar_final_states(spec, pol, 60, 7, 30))
    assert len(simulate._shared_choice(spec, pol).table) <= simulate.CHOICE_MEMO_MAX


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_w1_misses_choose_as_select_class(data):
    # random rho patterns (some classes, or all, without a partner) and
    # alpha orders; counts mostly 0, so all-zero neighbourhoods are common
    C = data.draw(st.integers(1, 6))
    rho = [[0.0] * C for _ in range(C)]
    for i in range(C):
        for j in range(i, C):
            rho[i][j] = rho[j][i] = data.draw(st.sampled_from([0.0, 0.0, 0.05, 0.5, 1.0]))
    spec = make_spec(range(C), [Fraction(1, C)] * C, rho)
    alpha = tuple(data.draw(st.permutations(range(1, C + 1))))
    pol = PolicyConfig(W1, alpha, 1)
    choice = simulate._Choice(spec, pol)
    x = tuple(data.draw(st.lists(st.one_of(st.integers(0, 2), st.integers(0, 2**32 - 1)),
                                 min_size=C, max_size=C)))
    for c in range(C):
        assert choice.edge(c, x)[2] - C == select_class(W1, alpha, x, rho[c])


# A weight that is not built in, with no integer shortcut; n r ties within
# WEIGHT_TOL but not exactly across classes: 3 x 0.05 = 0.15000000000000002
# against 1 x 0.15, and 3 x 0.1 against 2 x 0.15.
N_TIMES_R = WeightFunction("n_times_r", lambda n, r: n * r)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_misses_choose_as_select_class(data):
    # the w1 test's rho patterns, with more rates, and alpha orders under w2
    # and n r; several states in one table, their counts mostly 0 to 3 and
    # 10, so later misses read weights and match probabilities that earlier
    # ones stored
    C = data.draw(st.integers(1, 6))
    rates = st.sampled_from([0.0, 0.0, 0.05, 0.1, 0.15, 0.5, 1.0])
    rho = [[0.0] * C for _ in range(C)]
    for i in range(C):
        for j in range(i, C):
            rho[i][j] = rho[j][i] = data.draw(rates)
    spec = make_spec(range(C), [Fraction(1, C)] * C, rho)
    alpha = tuple(data.draw(st.permutations(range(1, C + 1))))
    weight = data.draw(st.sampled_from([W2, N_TIMES_R]))
    choice = simulate._Choice(spec, PolicyConfig(weight, alpha, 1))
    counts = st.one_of(st.integers(0, 3), st.just(10), st.integers(0, 2**32 - 1))
    for x in data.draw(st.lists(st.lists(counts, min_size=C, max_size=C), min_size=1, max_size=5)):
        for c in range(C):
            p_yes, _, move, _, _ = choice.edge(c, x)
            j = select_class(weight, alpha, x, rho[c])
            assert (move - C, p_yes) == (j, 1.0 - pow_int(1.0 - rho[c][j], x[j]))


def test_a_flush_empties_the_memos_with_the_table(monkeypatch):
    # an unstable model at a bound of 8 slots: the memos fill between
    # flushes, hold at most C + 1 entries per built edge, and every flush
    # empties them together with the table, its id map and its code list
    monkeypatch.setattr(simulate, "CHOICE_MEMO_MAX", 8)
    spec = scenarios.bipartite(Fraction(3, 5))
    C = spec.n_classes
    for weight in (W1, W2):
        choice = simulate._Choice(spec, make_policy(spec, weight))
        # each distinct memo once: pairs of one rate share theirs
        memos = list({id(m): m for rows in (choice.weights or [], choice.p_yes)
                      for row in rows for m in row}.values())
        flush, before, after = choice.flush, [], []

        def checked_flush():
            before.append(sum(map(len, memos)))
            flush()
            after.append((len(choice.table), len(choice.ids), len(choice.codes),
                          sum(map(len, memos))))

        choice.flush = checked_flush
        for n in range(40):
            for c in range(C):
                choice.edge(c, (n, n // 3))
                built = sum(e is not None for e in choice.table)
                assert sum(map(len, memos)) <= (C + 1) * built
        assert len(before) > 5 and min(before) > 0
        assert set(after) == {(0, 0, 0, 0)}


def test_one_memo_per_model_and_policy():
    # runs on one model under both weights and two alpha orders, and on a
    # second model, interleaved: a memo warmed by one pair must never answer
    # for another (on the triangle, alpha breaks every tie of equal counts)
    simulate._shared_choice.cache_clear()
    tri, mixed = scenarios.triangle(), scenarios.mixed_selfloop()
    pairs = [(tri, make_policy(tri, weight, alpha=alpha))
             for alpha in ((1, 2, 3), (3, 1, 2)) for weight in (W1, W2)]
    pairs += [(mixed, make_policy(mixed, weight)) for weight in (W1, W2)]
    for seed in (1, 2):
        for spec, pol in pairs:
            a = run(spec, pol, 2000, (seed, 0), sample_every=1)
            b = scalar_run(spec, pol, 2000, (seed, 0), sample_every=1)
            assert np.array_equal(a.x, b.x)
            assert (a.returns_to_zero, a.first_return) == (b.returns_to_zero, b.first_return)


@pytest.mark.parametrize("T,every", [(0, None), (0, 1), (1, None), (1, 1), (1, 5), (7, 1),
                                     (7, 10), (23, 5), (600, None), (1000, 7)])
def test_run_samples_the_grid_like_the_scalar_loop(T, every):
    # T = 0 and 1, every arrival sampled, a step longer than the path, a
    # path that ends between steps, and the default grid past 512 samples
    spec = scenarios.mixed_selfloop()
    pol = make_policy(spec, W2)
    for seed in (1, 2):
        a = run(spec, pol, T, seed, sample_every=every)
        b = scalar_run(spec, pol, T, seed, sample_every=every)
        for field in ("t_grid", "x", "sup_norm", "matched_pairs", "perfect", "ergodic_avg"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field
        assert (a.returns_to_zero, a.first_return, a.final_x, a.matched_total) \
            == (b.returns_to_zero, b.first_return, b.final_x, b.matched_total)


@pytest.mark.parametrize("T,every", [(10**6, 1), (10**6, 7), (10, 3), (0, 1), (1, 1), (5, 10)])
def test_sample_grid_every_step_ends_at_T(T, every):
    ts = list(range(0, T + 1, every))
    if ts[-1] != T:
        ts.append(T)
    grid = simulate._sample_grid(T, every)
    assert grid.dtype == np.int64 and np.array_equal(grid, ts)


def test_default_grid_is_numpys_linspace_truncated():
    # the default grid keeps the bits of np.linspace(0, T, min(T, 512) + 1)
    # cast to integers, duplicates dropped: every T to 3,000 and some far past
    Ts = [*range(3001), *np.random.default_rng(5).integers(3001, 2**32 - 1, 1000).tolist()]
    for T in Ts:
        ts = np.linspace(0, T, num=min(T, simulate.DEFAULT_SAMPLES) + 1).astype(np.int64)
        grid = simulate._sample_grid(T, None)
        assert grid.dtype == np.int64 and np.array_equal(grid, np.unique(ts)), T


def test_step_shares_the_memo(monkeypatch, triangle_spec):
    # each (c, x) misses the table once, however many steps reach it
    calls = []
    miss = simulate._Choice.miss

    def counted(self, *args):
        calls.append(args)
        return miss(self, *args)

    monkeypatch.setattr(simulate._Choice, "miss", counted)
    for weight in (W1, W2):
        calls.clear()
        simulate._shared_choice.cache_clear()
        pol = make_policy(triangle_spec, weight)
        sim = new_sim(triangle_spec, 3)
        for _ in range(300):
            step(triangle_spec, pol, sim)
        table = simulate._shared_choice(triangle_spec, pol).table
        assert len(calls) == sum(e is not None for e in table) < 300


@pytest.mark.parametrize("name", ["mixed_selfloop", "triangle", "path3"])
def test_step_draws_the_class_as_draw_arrivals_does(name):
    # step draws its class with one rng.random() and a bisection, then its
    # probe with one more; the oracle draws the class with
    # _draw_arrivals(spec, 1, rng) and the probe with rng.random(1) from a
    # twin generator, and serves both with the core
    spec = getattr(scenarios, name)()
    pol = make_policy(spec)
    sim, ref = new_sim(spec, 21), new_sim(spec, 21)
    choice = simulate._shared_choice(spec, pol)
    for _ in range(20_000):
        ev = step(spec, pol, sim)
        c = int(simulate._draw_arrivals(spec, 1, ref.rng)[0])
        ref.advance(choice, (c,), ref.rng.random(1).tolist())
        assert ev.arrival == c and sim.x == ref.x
    assert sim.rng.bit_generator.state == ref.rng.bit_generator.state


@pytest.mark.parametrize("block", [1, 7, 64])
def test_engine_matches_scalar_oracle_across_blocks(monkeypatch, block):
    # paths split into many blocks of probes, move log and bookkeeping must
    # carry the counts, the running sup-norm sum and the first return across
    monkeypatch.setattr(simulate, "BLOCK", block)
    for name in ("triangle", "bipartite_3_5", "mixed_selfloop"):
        spec = ORACLE_MODELS[name]()
        assert_same_engine_output(spec, make_policy(spec, W1), 8)


@pytest.mark.parametrize("weight", [W1, W2], ids=["w1", "w2"])
@pytest.mark.parametrize("name", ["triangle", "mixed_selfloop", "path3"])
def test_memo_edges_carry_the_kernels_match_probability(name, weight):
    # every (c, x) of {0..4}^C: the edge targets box_moves' class, and its
    # p_yes is 1 - m with m the kernel's miss probability, bit for bit
    spec = getattr(scenarios, name)()
    pol = make_policy(spec, weight)
    C, cap = spec.n_classes, 4
    X = np.asarray(list(itertools.product(range(cap + 1), repeat=C)), dtype=np.int64)
    tables = move_tables(spec, pol, "raw", cap)
    miss = tables[1]
    choice = simulate._Choice(spec, pol)
    for c, targets, _, _ in box_moves(spec, pol, tables, X):
        for x, j in zip(X.tolist(), targets.tolist()):
            p_yes, base_yes, m_yes, base_no, m_no = choice.edge(c, x)
            assert (m_yes, m_no) == (C + j, c)
            code = choice.code(x)
            assert choice.codes[base_no // C] == code + choice.units[c]
            assert base_yes is None if p_yes == 0.0 else \
                choice.codes[base_yes // C] == code - choice.units[j]
            assert p_yes == 1.0 - float(miss[c, j, x[j]])


def test_long_run_peak_memory():
    # the probes, the move log and the bookkeeping are held one block at a
    # time; the engine that drew geometric blocks peaked at 24.0 MB on this path
    spec = scenarios.mixed_selfloop()
    pol = make_policy(spec, W1)
    run(spec, pol, 1000, 0)  # the edge table and the module state exist before tracing
    tracemalloc.start()
    try:
        run(spec, pol, 10**6, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24_000_000


def test_engine_matches_scalar_oracle_past_one_byte_moves():
    # 129 classes on a path: the 2C = 258 moves no longer fit in a byte
    C = 129
    rho = [[0.0] * C for _ in range(C)]
    for i in range(C - 1):
        rho[i][i + 1] = rho[i + 1][i] = 0.5
    spec = make_spec([f"k{i}" for i in range(C)], [Fraction(1, C)] * C, rho)
    for weight in (W1, W2):
        pol = make_policy(spec, weight)
        a = run(spec, pol, 3000, 1, sample_every=7)
        b = scalar_run(spec, pol, 3000, 1, sample_every=7)
        for field in ("x", "matched_pairs", "ergodic_avg"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field
        assert (a.returns_to_zero, a.first_return, a.final_x) \
            == (b.returns_to_zero, b.first_return, b.final_x)
        assert np.array_equal(final_states(spec, pol, 50, 3, 20),
                              scalar_final_states(spec, pol, 50, 3, 20))
