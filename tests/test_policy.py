"""Weight functions, thresholds, and the greedy class choice."""

from fractions import Fraction

import numpy as np
import pytest

from sbmatch import (
    W1,
    W2,
    PolicyError,
    WeightFunction,
    check_assumption,
    make_policy,
    make_spec,
    n_star,
    run,
    select_class,
    simulate,
    truncate,
)
from sbmatch.policy import WEIGHT_TOL

from conftest import random_model, random_state, scalar_run, scalar_truncate


def brute_threshold(weight, r, window=400):
    """Smallest m such that both threshold inequalities hold on the window."""
    def ok(n):
        return (weight(n - 1, 1.0) < weight(n, r)
                and weight(n, 1.0) < weight(n + 1, r))
    for m in range(1, window):
        if all(ok(n) for n in range(m, window)):
            return m
    raise AssertionError("no threshold in the brute-force window")


def test_w1_values():
    assert W1(0, 0.7) == 0
    assert W1(5, 0.0) == 0
    assert W1(5, 0.7) == 5


def test_w2_values():
    assert W2(0, 0.3) == pytest.approx(0.0)
    assert W2(5, 0.3) == pytest.approx(5 * (1 - 0.7 ** 5))
    assert W2(1, 1.0) == pytest.approx(1.0)


def test_weights_accept_arrays():
    ns = np.arange(6)
    np.testing.assert_allclose(W1(ns, 0.5), ns)
    np.testing.assert_allclose(W2(ns, 0.5), ns * (1 - 0.5 ** ns))


WEIGHT_RATES = (0.0, 1e-7, 1e-3, 0.05, 0.3, 0.5, 0.6, 0.9999, 1.0)


def explicit_w1(n, r):
    if np.ndim(n) == 0:
        return float(n) if r > 0.0 else 0.0
    n = np.asarray(n, dtype=float)
    return n.copy() if r > 0.0 else np.zeros_like(n)


def explicit_w2(n, r):
    n = float(n) if np.ndim(n) == 0 else np.asarray(n, dtype=float)
    return n * (1.0 - (1.0 - r) ** n)


@pytest.mark.parametrize("weight,explicit", [(W1, explicit_w1), (W2, explicit_w2)],
                         ids=["w1", "w2"])
def test_weights_keep_the_bits_of_their_explicit_float_forms(weight, explicit):
    # one expression serves ints and arrays: it must give the floats that
    # converting the count first gave, bit for bit
    counts = [*range(3000), 10**6, 2**40, 2**53 - 1]
    ns = np.arange(200_001)
    for r in WEIGHT_RATES:
        got = [weight.fn(n, r) for n in counts]
        assert all(type(v) is float for v in got)
        want = [explicit(n, r) for n in counts]
        assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64)), r
        got, want = weight.fn(ns, r), explicit(ns, r)
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), r


def test_n_star_w1_is_one_for_every_rate():
    for r in (0.05, 0.1, 0.3, 0.5, 0.9, 1.0):
        assert n_star(W1, r) == 1


def test_n_star_w2_known_thresholds():
    assert n_star(W2, 0.3) == 4
    for r in (0.1, 0.2, 0.3, 0.5, 0.9):
        assert n_star(W2, r) == brute_threshold(W2, r)


def test_n_star_rejects_rate_zero():
    with pytest.raises(PolicyError):
        n_star(W1, 0.0)


def four_evaluation_n_star(weight, r, n_check):
    """The threshold scan with each side of both inequalities evaluated on
    its own shifted range; None when no threshold lies in the window."""
    n = np.arange(1, n_check + 1)
    ok = (np.asarray(weight(n - 1, 1.0)) < np.asarray(weight(n, r))) \
        & (np.asarray(weight(n, 1.0)) < np.asarray(weight(n + 1, r)))
    if not ok[-1]:
        return None
    bad = np.nonzero(~ok)[0]
    return int(bad[-1]) + 2 if bad.size else 1


@pytest.mark.parametrize("n_check", [50, 500, 10_000])
def test_n_star_matches_the_four_evaluation_scan(n_check):
    saturating = WeightFunction("saturating", lambda n, r: n * -np.expm1(-np.multiply(n, r)))
    for weight in (W1, W2, saturating):
        for r in np.linspace(1.0, 1e-3, 300).tolist() + [0.3, 0.5]:
            expected = four_evaluation_n_star(weight, r, n_check)
            if expected is None:
                with pytest.raises(PolicyError):
                    n_star(weight, r, n_check)
            else:
                assert n_star(weight, r, n_check) == expected, (weight.name, r)


def test_make_policy_threshold_equals_the_scan():
    # the closed forms of w1 and w2 against the windowed scan, each window
    # 3 ln(1/r) / r + 100 wide so that the scan decides every rate
    rates = np.geomspace(1e-4, 1.0, 1000).tolist() + np.linspace(1.0, 1e-3, 300).tolist()
    for r in rates + [0.3, 0.5]:
        spec = make_spec(("a", "b"), (Fraction(1, 2), Fraction(1, 2)), ((0.0, r), (r, 0.0)))
        window = int(3 * np.log(1 / r) / r) + 100
        for weight in (W1, W2):
            assert make_policy(spec, weight).n_star == n_star(weight, r, window), (weight.name, r)


def test_w2_threshold_past_the_scan_window_and_past_float_resolution():
    spec = make_spec(("a", "b"), (Fraction(1, 2), Fraction(1, 2)), ((0.0, 7e-4), (7e-4, 0.0)))
    assert make_policy(spec, W2).n_star == n_star(W2, 7e-4, 100_000) == 13_592
    # near 1e-8 float rounding moves the scan's crossing off the exact root;
    # past 2**53 a float no longer tells n from n + 1
    with pytest.raises(PolicyError, match="settle"):
        W2.threshold(1e-9)
    with pytest.raises(PolicyError, match=r"2\*\*53"):
        W2.threshold(1e-20)


def test_check_assumption_passes_for_builtins():
    for weight in (W1, W2):
        rep = check_assumption(weight)
        assert rep.ok
        assert rep.window_certified
        assert rep.violations == ()
    rep = check_assumption(W1)
    assert all(m == 1 for _, m in rep.n_star_by_r)
    assert rep.window_m() == 1


def test_check_assumption_flags_decreasing_weight():
    bad = WeightFunction(name="bad", fn=lambda n, r: (n > 0) * (r > 0) / (1.0 + n))
    rep = check_assumption(bad, n_check=200)
    assert not rep.ok
    assert not rep.hyp2_ok


def test_check_assumption_flags_wrong_positivity():
    bad = WeightFunction(name="const", fn=lambda n, r: np.ones_like(np.asarray(n, dtype=float)))
    rep = check_assumption(bad, n_check=50)
    assert not rep.hyp1_ok


def test_select_class_prefers_positive_weight(bipartite_spec):
    pol = make_policy(bipartite_spec)
    assert select_class(pol.weight, pol.alpha, (0, 2), bipartite_spec.rho[0]) == 1


def test_select_class_breaks_ties_by_larger_alpha(bipartite_spec):
    pol = make_policy(bipartite_spec, alpha=(1, 2))
    assert select_class(pol.weight, pol.alpha, (0, 0), bipartite_spec.rho[0]) == 1
    flipped = make_policy(bipartite_spec, alpha=(2, 1))
    assert select_class(flipped.weight, flipped.alpha, (0, 0), bipartite_spec.rho[0]) == 0


def test_select_class_triangle_example(triangle_spec):
    pol = make_policy(triangle_spec, weight=W2)
    assert select_class(pol.weight, pol.alpha, (3, 5, 0), triangle_spec.rho[0]) == 1


def test_phi_ignores_incompatible_classes(path3_spec):
    pol = make_policy(path3_spec)
    # arrival a only sees b, whatever the counts elsewhere
    assert select_class(pol.weight, pol.alpha, (0, 1, 9), path3_spec.rho[0]) == 1


def test_make_policy_defaults(triangle_spec):
    pol = make_policy(triangle_spec)
    assert pol.alpha == (1, 2, 3)
    assert pol.n_star == 1
    pol2 = make_policy(triangle_spec, weight=W2)
    assert pol2.n_star == 4


def test_make_policy_rejects_bad_alpha(triangle_spec):
    with pytest.raises(PolicyError):
        make_policy(triangle_spec, alpha=(1, 1, 2))


def test_make_policy_needs_a_positive_rate():
    from sbmatch import make_spec
    blank = make_spec(("a", "b"), (0.5, 0.5), ((0.0, 0.0), (0.0, 0.0)))
    with pytest.raises(PolicyError):
        make_policy(blank)


def test_support_rule_randomized():
    rng = np.random.default_rng(7)
    for _ in range(300):
        spec = random_model(rng)
        pol = make_policy(spec, weight=W2 if rng.random() < 0.5 else W1)
        x = random_state(rng, spec.n_classes)
        i = int(rng.integers(spec.n_classes))
        j = select_class(pol.weight, pol.alpha, x, spec.rho[i])
        eligible = [k for k in range(spec.n_classes)
                    if spec.rho[i][k] > 0.0 and x[k] > 0]
        if eligible:
            assert j in eligible


def test_indistinguishability_above_threshold():
    rng = np.random.default_rng(11)
    for _ in range(300):
        spec = random_model(rng)
        pol = make_policy(spec, weight=W2)
        x = tuple(int(v) for v in rng.integers(pol.n_star, pol.n_star + 8,
                                               size=spec.n_classes))
        i = int(rng.integers(spec.n_classes))
        neigh = [k for k in range(spec.n_classes) if spec.rho[i][k] > 0.0]
        if not neigh:
            continue
        j = select_class(pol.weight, pol.alpha, x, spec.rho[i])
        assert x[j] == max(x[k] for k in neigh)


def _near_tie(n, r):
    # n plus a sub-tolerance bonus growing with r: classes with equal counts
    # and different rho differ by less than WEIGHT_TOL
    n = np.asarray(n, dtype=float)
    return np.where((n > 0) & (r > 0.0), n + 1e-13 * r, 0.0)


NEAR_TIE = WeightFunction("near_tie", _near_tie)


def test_weights_within_tolerance_tie_and_the_larger_alpha_wins():
    # a star centred at a: an arrival of a weighs b (rho 0.6) against c
    # (rho 0.3); with x_b = x_c, b is heavier by only 3e-14, inside
    # WEIGHT_TOL, so the tie goes to c, whose alpha is larger
    spec = make_spec(("a", "b", "c"), (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
                     ((0.0, 0.6, 0.3), (0.6, 0.0, 0.0), (0.3, 0.0, 0.0)))
    pol = make_policy(spec, NEAR_TIE)
    assert pol.alpha[2] > pol.alpha[1]
    choice = simulate._Choice(spec, pol)
    for n in range(1, 6):
        x = (0, n, n)
        w_b, w_c = (float(NEAR_TIE(v, r)) for v, r in zip(x[1:], spec.rho[0][1:]))
        assert 0.0 < w_b - w_c < WEIGHT_TOL
        assert select_class(pol.weight, pol.alpha, x, spec.rho[0]) == 2
        assert choice.edge(0, x)[2] - spec.n_classes == 2
    cap = 4
    ch = truncate(spec, pol, cap)
    states, _, P, _, _, _ = scalar_truncate(spec, pol, cap)
    rows = set(map(tuple, ch.states.tolist()))
    assert all((0, n, n) in rows for n in range(1, cap + 1))
    assert ch.states.tolist() == [list(x) for x in states]
    assert np.array_equal(ch.P.indptr, P.indptr)
    assert np.array_equal(ch.P.indices, P.indices)
    assert np.array_equal(ch.P.data.view(np.int64), P.data.view(np.int64))
    for seed in (1, 2, 3):
        a = run(spec, pol, 500, seed, sample_every=1)
        b = scalar_run(spec, pol, 500, seed, sample_every=1)
        assert np.array_equal(a.x, b.x)
