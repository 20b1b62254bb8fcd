"""Transition rows, drift bounds, and the inequality-chain verifier."""

import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from sbmatch import (
    W1,
    W2,
    KernelError,
    PolicyConfig,
    WeightFunction,
    check_main_drift,
    drift_q,
    kernel_variant,
    make_policy,
    make_spec,
    propagate_distribution,
    reachable_check,
    reduce_to_independent_support,
    restrict_support,
    theorem_bound,
    threshold_map,
    transition_row,
    verify_drift_chain,
)
from sbmatch import kernel, scenarios, truncate
from sbmatch.kernel import (INEQ_TOL, chain_sweep, chain_tables, drift_q_over, drift_sweep,
                            move_tables, pow_int, theorem_bound_over, transition_table,
                            verify_drift_chain_over)
from sbmatch.model import root_graph, stability

from conftest import (corrupted_drift_q, drift, quadratic, random_model, random_state,
                      scalar_corrupted_drift, scalar_propagate_distribution, scalar_reachable,
                      scalar_reduce_to_independent_support)


def connected_selfloop_model():
    """Path a-b-c with a self-matching class d attached to c.

    The support reduction that strips self-loop classes is not valid for
    this shape at large states: once d's tokens are gone, d's arrivals
    redirect their matches onto c and keep draining the system, which the
    stripped-support inequality does not credit.  Kept as the negative
    control for the chain verifier.
    """
    nu = (Fraction(1, 5), Fraction(3, 10), Fraction(1, 5), Fraction(3, 10))
    rho = (
        (0.0, 0.6, 0.0, 0.0),
        (0.6, 0.0, 0.3, 0.0),
        (0.0, 0.3, 0.0, 0.5),
        (0.0, 0.0, 0.5, 0.7),
    )
    return make_spec(("a", "b", "c", "d"), nu, rho)


def test_pow_int_conventions():
    assert pow_int(0.0, 0) == 1.0
    assert pow_int(0.0, 3) == 0.0
    assert pow_int(0.7, 15) == pytest.approx(0.7 ** 15, rel=1e-15)


def test_move_tables_miss_equals_scalar_pow_int():
    # bases 1 - rho of 0, 1, and rates whose powers run into subnormals and 0
    rates = (0.0, 1.0, 0.05, 0.3, 0.5, 0.7, 0.999, 1e-3)
    C = len(rates)
    rho = [[rates[max(i, j)] if min(i, j) == 0 else rates[i] if i == j else 0.0
            for j in range(C)] for i in range(C)]
    spec = make_spec(range(C), [Fraction(1, C)] * C, rho)
    cap = 4096
    powers = {}
    for variant in ("raw", "homogenized", "binarized"):
        _, miss = move_tables(spec, make_policy(spec, W2), variant, cap)
        for i, row in enumerate(kernel_variant(spec, variant)):
            for j, r in enumerate(row):
                b = 1.0 - r
                if b not in powers:
                    powers[b] = np.array([pow_int(b, k) for k in range(cap + 1)])
                assert miss[i, j].tobytes() == powers[b].tobytes()
    assert len(powers) == len(rates)


def test_transition_row_bipartite_example():
    spec = scenarios.bipartite(Fraction(1, 2))
    pol = make_policy(spec, alpha=(1, 2))
    row = transition_row(spec, pol, "raw", (0, 2))
    assert row.as_dict() == pytest.approx({
        (1, 2): 0.125,
        (0, 1): 0.375,
        (0, 3): 0.5,
    })


def test_transition_row_binarized_matches_with_certainty():
    spec = scenarios.bipartite(Fraction(1, 2))
    pol = make_policy(spec)
    row = transition_row(spec, pol, "binarized", (0, 2)).as_dict()
    assert row[(0, 1)] == pytest.approx(0.5)  # arrival one always matches
    assert (1, 2) not in row


def test_variant_matrices_preserve_sign_pattern(mixed_spec):
    hom = kernel_variant(mixed_spec, "homogenized")
    bin_ = kernel_variant(mixed_spec, "binarized")
    for i in range(4):
        for j in range(4):
            edge = mixed_spec.rho[i][j] > 0.0
            assert (hom[i][j] > 0.0) == edge
            assert bin_[i][j] == (1.0 if edge else 0.0)
            if edge:
                assert hom[i][j] == pytest.approx(0.3)


def test_unknown_variant_rejected(triangle_spec):
    with pytest.raises(KernelError):
        kernel_variant(triangle_spec, "squared")


def test_homogenized_variant_needs_a_positive_rho():
    spec = scenarios.bipartite(Fraction(1, 2), r=0.0)
    with pytest.raises(KernelError, match="positive rho"):
        kernel_variant(spec, "homogenized")


def test_rows_are_stochastic_with_unit_steps():
    rng = np.random.default_rng(3)
    for _ in range(200):
        spec = random_model(rng)
        pol = make_policy(spec, weight=W2 if rng.random() < 0.5 else W1)
        x = random_state(rng, spec.n_classes)
        for tag in ("raw", "homogenized", "binarized"):
            row = transition_row(spec, pol, tag, x)
            assert row.total() == pytest.approx(1.0, abs=1e-12)
            for y, p in row.entries:
                assert 0.0 < p <= 1.0
                diff = [y[k] - x[k] for k in range(spec.n_classes)]
                assert sorted(map(abs, diff)) == [0] * (spec.n_classes - 1) + [1]


def test_drift_closed_form_equals_generic():
    rng = np.random.default_rng(5)
    for _ in range(200):
        spec = random_model(rng)
        pol = make_policy(spec, weight=W2)
        x = random_state(rng, spec.n_classes)
        tag = ("raw", "homogenized", "binarized")[int(rng.integers(3))]
        assert drift_q(spec, pol, tag, x) == pytest.approx(
            drift(spec, pol, tag, quadratic, x), abs=1e-9)


def test_drift_value_bipartite_example():
    spec = scenarios.bipartite(Fraction(1, 2))
    pol = make_policy(spec)
    assert drift_q(spec, pol, "raw", (0, 2)) == pytest.approx(1.5)


def test_theorem_bound_frozen_values(triangle_spec, solo_spec):
    tri_pol = make_policy(triangle_spec)
    assert theorem_bound(triangle_spec, tri_pol, (0, 0, 0)) == pytest.approx(7.116)
    solo_pol = make_policy(solo_spec)
    assert theorem_bound(solo_spec, solo_pol, (4,)) == pytest.approx(-1.0)


def test_theorem_bound_needs_positive_margin(bipartite_spec):
    pol = make_policy(bipartite_spec)
    with pytest.raises(KernelError):
        theorem_bound(bipartite_spec, pol, (0, 0))
    with pytest.raises(KernelError, match="positive stability margin"):
        theorem_bound_over(bipartite_spec, pol, np.zeros((1, 2), dtype=np.int64))


def test_check_main_drift_at_origin(triangle_spec):
    pol = make_policy(triangle_spec)
    rep = check_main_drift(triangle_spec, pol, (0, 0, 0))
    assert rep.passed
    assert rep.drift == pytest.approx(1.0)
    assert rep.slack == pytest.approx(6.116)


@pytest.mark.parametrize("name, weight, radius, failing", [
    ("triangle", W2, 6, 173),
    ("triangle", W1, 8, 702),
    ("mixed_selfloop", W2, 5, 0),
])
def test_corrupted_drift_matches_scalar_oracle(name, weight, radius, failing):
    # the negative control's closed form against the flipped transition row
    spec = getattr(scenarios, name)()
    pol = make_policy(spec, weight)
    failed = 0
    for x in itertools.product(range(radius + 1), repeat=spec.n_classes):
        closed = corrupted_drift_q(spec, pol, x)
        oracle = scalar_corrupted_drift(spec, pol, x)
        assert abs(closed - oracle) <= 1e-12
        bound = theorem_bound(spec, pol, x)
        verdict = bound - closed >= -INEQ_TOL
        assert verdict == (bound - oracle >= -INEQ_TOL)
        failed += not verdict
    assert failed == failing


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def assert_ball_pass_matches(spec, pol, X):
    """The array pass over the rows of X against the scalar functions, bit for bit."""
    X = np.asarray(X)
    states = X.tolist()
    tables = chain_tables(spec, pol, int(X.max()))
    for variant in ("raw", "homogenized", "binarized"):
        assert np.array_equal(bits(drift_q_over(spec, pol, tables[variant], X)),
                              bits([drift_q(spec, pol, variant, x) for x in states])), variant
    assert np.array_equal(bits(drift_q_over(spec, pol, tables["raw"], X, match=1)),
                          bits([corrupted_drift_q(spec, pol, x) for x in states]))
    if stability(spec).ncond:
        assert np.array_equal(bits(theorem_bound_over(spec, pol, X)),
                              bits([theorem_bound(spec, pol, x) for x in states]))
    steps = verify_drift_chain_over(spec, pol, tables, X)
    for k, x in enumerate(states):
        for st, arr in zip(verify_drift_chain(spec, pol, x).steps, steps, strict=True):
            assert (arr.name, bool(arr.applicable[k])) == (st.name, st.applicable), x
            if st.applicable:
                assert np.array_equal(bits([arr.lhs[k], arr.rhs[k]]), bits([st.lhs, st.rhs])), (x, st)
                assert bool(arr.passed[k]) == st.passed, (x, st)


@pytest.mark.parametrize("name", ["triangle", "mixed_selfloop", "single_selfloop", "path3", "random"])
def test_ball_pass_matches_the_scalar_oracle(name):
    if name != "random":
        # every state of {0..6}^C, under both weights and two tie-break orders
        spec = getattr(scenarios, name)()
        ball = list(itertools.product(range(7), repeat=spec.n_classes))
        for weight in (W1, W2):
            for alpha in (None, tuple(range(spec.n_classes, 0, -1))):
                assert_ball_pass_matches(spec, make_policy(spec, weight, alpha=alpha), ball)
        return
    # 2,000 states over 200 random models; the self-loop sums run over sets of
    # two or more classes in many of them
    rng = np.random.default_rng(13)
    several_loops = 0
    for k in range(200):
        spec = random_model(rng, max_classes=5)
        alpha = tuple(int(a) + 1 for a in rng.permutation(spec.n_classes))
        pol = make_policy(spec, (W1, W2)[k % 2], alpha=alpha)
        high = max(12, 2 * pol.n_star + 4)
        assert_ball_pass_matches(spec, pol, [random_state(rng, spec.n_classes, high)
                                             for _ in range(10)])
        several_loops += len(root_graph(spec).selfloop_classes) >= 2
    assert several_loops >= 50


def test_threshold_map_examples():
    assert threshold_map((3, 1, 7), 2) == (3, 0, 7)
    assert threshold_map((0, 0), 4) == (0, 0)
    assert threshold_map((3, 3), 4) == (0, 0)


def test_restrict_support_examples():
    assert restrict_support((3, 5), {1}) == (0, 5)
    assert restrict_support((3, 5), {0, 1}) == (3, 5)
    assert restrict_support((3, 5), ()) == (0, 0)


def test_reduce_to_independent_support_path(path3_spec):
    pol = make_policy(path3_spec, weight=W2)
    # b has a support neighbour with a larger count, so it is zeroed;
    # a and c are local maxima of (count, alpha) and stay
    assert reduce_to_independent_support(path3_spec, pol, (5, 4, 6)) == (5, 0, 6)


def test_reduce_keeps_already_independent_support(path3_spec):
    pol = make_policy(path3_spec, weight=W2)
    # a and c are not neighbours: each is a local maximum and stays
    assert reduce_to_independent_support(path3_spec, pol, (5, 0, 6)) == (5, 0, 6)


def test_reduce_breaks_count_ties_by_alpha(triangle_spec):
    pol = make_policy(triangle_spec, weight=W2)
    # all counts equal: only c, with the largest alpha, has no support
    # neighbour with a larger (count, alpha) pair
    assert reduce_to_independent_support(triangle_spec, pol, (5, 5, 5)) == (0, 0, 5)


def test_reduce_rejects_selfloop_support(mixed_spec):
    pol = make_policy(mixed_spec, weight=W2)
    with pytest.raises(KernelError):
        reduce_to_independent_support(mixed_spec, pol, (5, 0, 0, 5))


def test_reduce_rejects_subthreshold_counts():
    spec = scenarios.path3(0.3)
    pol = make_policy(spec, weight=W2)
    assert pol.n_star == 4
    with pytest.raises(KernelError):
        reduce_to_independent_support(spec, pol, (5, 2, 6))


def test_reduce_matches_the_round_rule_on_random_states():
    # random models up to 9 classes with self loops, random alpha and n_star,
    # and supports of loop-free classes with counts at least n_star
    rng = np.random.default_rng(20240611)
    checked = 0
    while checked < 20_000:
        spec = random_model(rng, max_classes=9)
        loopfree = [i for i in range(spec.n_classes) if spec.rho[i][i] == 0.0]
        if not loopfree:
            continue
        for _ in range(20):
            pol = PolicyConfig(W1, tuple(int(a) for a in rng.permutation(spec.n_classes) + 1),
                               int(rng.integers(1, 4)))
            x = [0] * spec.n_classes
            for i in loopfree:
                if rng.random() < 0.7:
                    x[i] = pol.n_star + int(rng.integers(0, 4))
            x = tuple(x)
            assert reduce_to_independent_support(spec, pol, x) \
                == scalar_reduce_to_independent_support(spec, pol, x), (spec, pol, x)
            checked += 1


@pytest.mark.parametrize("name", ["path3", "triangle", "mixed_selfloop"])
@pytest.mark.parametrize("weight", [W1, W2], ids=["w1", "w2"])
def test_reduce_matches_the_round_rule_on_the_box(name, weight):
    spec = getattr(scenarios, name)()
    for alpha in (None, tuple(range(spec.n_classes, 0, -1))):
        pol = make_policy(spec, weight, alpha=alpha)
        for x in itertools.product(range(9), repeat=spec.n_classes):
            try:
                expected = scalar_reduce_to_independent_support(spec, pol, x)
            except KernelError:
                with pytest.raises(KernelError):
                    reduce_to_independent_support(spec, pol, x)
                continue
            assert reduce_to_independent_support(spec, pol, x) == expected, (alpha, x)


def test_chain_margin_step_triangle_example(triangle_spec):
    pol = make_policy(triangle_spec)
    rep = verify_drift_chain(triangle_spec, pol, (9, 0, 0))
    margin = rep.step("margin")
    assert margin.applicable
    assert margin.rhs == pytest.approx(1 - 2 * (1 / 3) * 9)
    assert margin.passed


def test_chain_all_steps_hold_at_origin(triangle_spec):
    pol = make_policy(triangle_spec)
    rep = verify_drift_chain(triangle_spec, pol, (0, 0, 0))
    assert rep.ok()
    assert rep.step("threshold").applicable


def test_chain_skips_inapplicable_steps(mixed_spec):
    pol = make_policy(mixed_spec, weight=W2)
    # a sub-threshold support never qualifies for the support reductions
    rep = verify_drift_chain(mixed_spec, pol, (1, 1, 0, 0))
    assert rep.step("threshold").applicable
    assert not rep.step("selfloops").applicable
    assert not rep.step("margin").applicable


def test_chain_detects_selfloop_border_violation():
    spec = connected_selfloop_model()
    pol = make_policy(spec, weight=W2)
    rep = verify_drift_chain(spec, pol, (5, 15, 15, 15))
    step = rep.step("selfloops")
    assert step.applicable
    assert not step.passed
    assert step.slack < -1.0
    # the end-to-end drift certificate is still intact at the same state
    assert check_main_drift(spec, pol, (5, 15, 15, 15)).passed


def bordered_selfloop(ell):
    """mixed_selfloop with its self-loop class d bordering a at rate ell."""
    base = scenarios.mixed_selfloop()
    rho = [list(row) for row in base.rho]
    rho[0][3] = rho[3][0] = ell
    return make_spec(base.classes, base.nu_exact, rho)


@pytest.mark.parametrize("ell,failures", [(0.2, 33), (0.5, 4912)])
def test_a_bordering_selfloop_class_breaks_only_the_selfloops_step(ell, failures):
    # ROADMAP item 8's finding, recorded at radius 16 under w1: the appendix
    # chain fails its selfloops step alone, while the drift bound it serves
    # holds at every state of the ball; the margin stays 1/5
    spec = bordered_selfloop(ell)
    pol = make_policy(spec, W1)
    assert stability(spec).eta_exact == Fraction(1, 5)
    bad = dict.fromkeys(("threshold", "selfloops", "independent", "certain_match", "margin"), 0)
    for _, steps in chain_sweep(spec, pol, 16):
        for st in steps:
            bad[st.name] += int(np.count_nonzero(st.applicable & ~st.passed))
    assert bad == {"threshold": 0, "selfloops": failures, "independent": 0,
                   "certain_match": 0, "margin": 0}
    assert all(st.passed.all() for _, st in drift_sweep(spec, pol, 16))


def test_reachable_check_bipartite_cap(bipartite_spec):
    pol = make_policy(bipartite_spec)
    rep = reachable_check(bipartite_spec, pol, 6)
    assert rep.all_return
    assert rep.unreturned == ()
    assert rep.states_explored > 0


def test_reachable_check_single_selfloop(solo_spec):
    pol = make_policy(solo_spec)
    assert reachable_check(solo_spec, pol, 12).all_return


def test_reachable_check_reports_the_states_with_no_way_back():
    # under a zero weight every arrival targets class 0, the larger alpha:
    # class 1 is never drained, so every state with x(1) >= 1 is stuck
    spec = scenarios.bipartite()
    pol = PolicyConfig(WeightFunction("zero", lambda n, r: 0.0 * n), (2, 1), 1)
    rep = reachable_check(spec, pol, 3)
    assert not rep.all_return
    assert rep.states_explored == 16
    assert rep.unreturned == tuple((a, b) for a in range(4) for b in range(1, 4))
    assert (rep.states_explored, rep.unreturned) == scalar_reachable(spec, pol, 3)


def test_reachable_check_rejects_isolated_class():
    spec = make_spec(("a", "b", "c"), (Fraction(1, 3),) * 3,
                     ((0.0, 0.5, 0.0), (0.5, 0.0, 0.0), (0.0, 0.0, 0.0)))
    pol = make_policy(spec)
    with pytest.raises(KernelError):
        reachable_check(spec, pol, 5)


def test_propagate_distribution_conserves_mass_and_parity(triangle_spec):
    pol = make_policy(triangle_spec)
    for t in range(1, 6):
        dist = propagate_distribution(triangle_spec, pol, t)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(sum(x) % 2 == t % 2 for x in dist)


PUSH_CASES = ([("bipartite", W1, T) for T in (1, 2, 3, 4, 50)]
              + [("triangle", W2, T) for T in (1, 5, 12)]
              + [("mixed_selfloop", W2, 10), ("path3", W1, 20)])


@pytest.mark.parametrize("name,weight,T", PUSH_CASES,
                         ids=[f"{n}-{w.name}-T{T}" for n, w, T in PUSH_CASES])
def test_propagate_distribution_matches_the_dict_push(name, weight, T):
    spec = scenarios.bipartite(Fraction(1, 2)) if name == "bipartite" \
        else getattr(scenarios, name)()
    pol = make_policy(spec, weight)
    got = propagate_distribution(spec, pol, T)
    expected = scalar_propagate_distribution(spec, pol, "raw", {(0,) * spec.n_classes: 1.0}, T)
    assert set(got) == set(expected)
    assert max(abs(got[x] - p) for x, p in expected.items()) <= 1e-15


def test_propagate_distribution_refuses_a_negative_step_count(triangle_spec):
    with pytest.raises(KernelError, match="steps must be non-negative, got -1"):
        propagate_distribution(triangle_spec, make_policy(triangle_spec), -1)


def test_propagate_distribution_refuses_a_push_past_the_box_bound():
    # (1414 + 1) ** 2 states exceed BOX_MAX_STATES: refused before the box is built
    spec = scenarios.bipartite(Fraction(1, 2))
    pol = make_policy(spec, W1)
    tracemalloc.start()
    try:
        with pytest.raises(KernelError, match="states"):
            propagate_distribution(spec, pol, 1414)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_transition_table_peak_memory_per_box_state():
    # the box kernel is one (N, 2C+1) array plus the CSR built from it,
    # about 500 B per box state at the peak
    spec = scenarios.mixed_selfloop()
    pol = make_policy(spec, W1)
    cap = 16
    tracemalloc.start()
    try:
        transition_table(spec, pol, cap)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 600 * (cap + 1) ** spec.n_classes


# Every entry point that builds or walks the box {0..R}^C, called at radius R.
BOX_ENTRY_POINTS = {"transition_table": transition_table, "truncate": truncate,
                    "propagate_distribution": propagate_distribution,
                    "reachable_check": reachable_check,
                    "drift_sweep": drift_sweep, "chain_sweep": chain_sweep}


@pytest.mark.parametrize("entry", BOX_ENTRY_POINTS)
def test_the_box_bound_at_its_edge(monkeypatch, entry):
    # a matches itself and b, b only a: margin 1/5, from the set {b}
    spec = make_spec(("a", "b"), (Fraction(3, 5), Fraction(2, 5)), ((0.5, 0.5), (0.5, 0.0)))
    pol = make_policy(spec, W1)
    call = BOX_ENTRY_POINTS[entry]
    monkeypatch.setattr(kernel, "BOX_MAX_STATES", 64)
    accepted = call(spec, pol, 7)  # 8^2 = 64 states
    if entry.endswith("_sweep"):
        assert sum(len(X) for X, _ in accepted) == 64
    with pytest.raises(KernelError) as exc:
        call(spec, pol, 8)  # 9^2 = 81 states; a sweep refuses it before any chunk is asked for
    assert str(exc.value) == "the box {0..8}^2 exceeds 64 states"
