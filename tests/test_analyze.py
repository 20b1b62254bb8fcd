"""Truncated-chain solver, stationary summaries, and the sweep driver."""

import math
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest

from sbmatch import (
    analyze,
    eta_sweep,
    invariant_mean_bound,
    kernel,
    make_policy,
    reachable_check,
    run,
    run_replicas,
    scenarios,
    stability,
    stationary,
    truncate,
    tv_periodic,
)
from sbmatch.policy import W1, W2

from conftest import (box_reach, direct_stationary, origin_pinned_system, scalar_reachable,
                      scalar_truncate, scipy_bicgstab, scipy_stationary)


@pytest.fixture(scope="module")
def tri_chain():
    tri = scenarios.triangle()
    pol = make_policy(tri)
    return truncate(tri, pol, 12)


def test_truncate_rows_are_stochastic(tri_chain):
    ch = tri_chain
    assert ch.n_states == 13 ** 3
    sums = np.asarray(ch.P.sum(axis=1)).ravel()
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)
    # steps move by one unit, so self-loops only carry truncated mass at the rim
    diag = ch.P.diagonal()
    assert (diag > 0.0).any()
    assert np.all(ch.sup_norms[diag > 0.0] == ch.cap)
    assert np.array_equal(ch.boundary, ch.sup_norms >= ch.cap - 1)
    # the states are sorted and distinct, so each one's row is its index
    keys = np.ravel_multi_index(ch.states.T, (ch.cap + 1,) * ch.states.shape[1])
    assert np.all(np.diff(keys) > 0)
    for k, x in enumerate(ch.states.tolist()):
        assert ch.parity[k] == sum(x) % 2


def test_truncate_keeps_the_grid_of_the_transition_table(monkeypatch):
    tri = scenarios.triangle()
    tables = []

    def table(*args):
        tables.append(kernel.transition_table(*args))
        return tables[-1]

    monkeypatch.setattr(analyze, "transition_table", table)
    ch = truncate(tri, make_policy(tri), 3)
    assert ch.states is tables[0][0]
    assert ch.states.dtype == np.int64 and ch.states.shape == (ch.n_states, 3)
    assert not hasattr(ch, "index")


def test_truncate_guards():
    tri = scenarios.triangle()
    pol = make_policy(tri)
    with pytest.raises(ValueError):
        truncate(tri, pol, 0)
    with pytest.raises(ValueError, match="states"):
        truncate(tri, pol, 200)


ORACLE_CASES = [(name, weight, cap)
                for name in ("triangle", "mixed_selfloop", "single_selfloop")
                for weight in (W1, W2) for cap in (1, 4, 5, 12)]


TRUNCATE_CASES = (ORACLE_CASES + [("bipartite_rho1", W1, 6)]
                  + [("path3", weight, cap) for weight in (W1, W2) for cap in (4, 12)])


def _case_spec(name):
    # rho = 1 on the bipartite model leaves every state with both counts
    # positive unreachable, so the box is only partly reached
    return scenarios.bipartite(r=1.0) if name == "bipartite_rho1" else getattr(scenarios, name)()


@pytest.mark.parametrize("name,weight,cap", TRUNCATE_CASES, ids=lambda v: getattr(v, "name", v))
def test_truncate_matches_scalar_oracle(name, weight, cap):
    spec = _case_spec(name)
    pol = make_policy(spec, weight)
    ch = truncate(spec, pol, cap)
    states, index, P, norms, parity, boundary = scalar_truncate(spec, pol, cap)
    assert np.array_equal(ch.P.indptr, P.indptr)
    assert np.array_equal(ch.P.indices, P.indices)
    assert np.array_equal(ch.P.data.view(np.int64), P.data.view(np.int64))
    assert ch.states.tolist() == [list(x) for x in states]
    assert [index[x] for x in map(tuple, ch.states.tolist())] == list(range(ch.n_states))
    assert np.array_equal(ch.parity, parity)
    assert np.array_equal(ch.sup_norms, norms)
    assert np.array_equal(ch.boundary, boundary)
    rep = reachable_check(spec, pol, cap)
    assert (rep.states_explored, rep.unreturned) == scalar_reachable(spec, pol, cap)


@pytest.mark.parametrize("name,p,weight,cap",
                         [(name, None, weight, cap) for name, weight, cap in TRUNCATE_CASES]
                         + [("single_selfloop", p, weight, cap) for p in (0.3, 0.5, 0.7, 0.95)
                            for weight in (W1, W2) for cap in (300, 1000)]
                         + [("single_selfloop", 0.01, W1, 200_000)],
                         ids=lambda v: getattr(v, "name", v))
def test_reach_matches_breadth_first_order(name, p, weight, cap):
    # over the whole box, forward from the origin and backward to it; at
    # p = 0.01 the origin reaches 74,142 of the 200,001 states, and every
    # state reaches the origin
    spec = _case_spec(name) if p is None else scenarios.single_selfloop(p)
    pol = make_policy(spec, weight)
    _, val, _ = kernel._box_kernel(spec, pol, cap)
    up, down = kernel._steps(val > 0.0, cap)
    forward, backward = box_reach(spec, pol, cap)
    assert np.array_equal(kernel._reach(up, down), forward)
    assert np.array_equal(kernel._reach(*kernel._backward(up, down)), backward)


# on an unstable model, on a long run (9,261 states, 227 steps) and on a box
# that is only partly reached, besides ORACLE_CASES
STATIONARY_CASES = TRUNCATE_CASES + [("path3", W1, 20)]


@pytest.mark.parametrize("name,weight,cap", STATIONARY_CASES, ids=lambda v: getattr(v, "name", v))
def test_stationary_matches_scipy_bicgstab_bit_for_bit(name, weight, cap):
    spec = _case_spec(name)
    ch = truncate(spec, make_policy(spec, weight), cap)
    est = stationary(ch)
    pi, iterations = scipy_stationary(ch)
    assert np.array_equal(est.pi.view(np.int64), pi.view(np.int64))
    assert est.iterations == iterations


def _bits(x):
    return x.view(np.int64)


@pytest.mark.parametrize("name,weight,cap", STATIONARY_CASES, ids=lambda v: getattr(v, "name", v))
def test_bicgstab_restarts_from_its_own_result(name, weight, cap):
    # stationary restarts the solve from its last result: the rerun must
    # leave that result's bits alone and follow scipy from it, and it takes
    # no step where the result's true residual already meets the target
    spec = _case_spec(name)
    A, b = origin_pinned_system(truncate(spec, make_policy(spec, weight), cap))
    x, _ = analyze._bicgstab(A, b, b)
    first = x.copy()
    again, steps = analyze._bicgstab(A, b, x)
    assert np.array_equal(_bits(x), _bits(first))
    ref, callbacks = scipy_bicgstab(A, b, first.copy())
    assert np.array_equal(_bits(again), _bits(ref)) and steps == callbacks
    if np.linalg.norm(b - A @ first) < 1e-13 * np.linalg.norm(b):
        assert steps == 0 and np.array_equal(_bits(again), _bits(first))


@pytest.mark.parametrize("name,weight,cap", STATIONARY_CASES, ids=lambda v: getattr(v, "name", v))
def test_csr_product_matches_matmul_bit_for_bit(name, weight, cap):
    spec = _case_spec(name)
    A, _ = origin_pinned_system(truncate(spec, make_policy(spec, weight), cap))
    n = A.shape[0]
    rng = np.random.default_rng(29)
    special = rng.standard_normal(n)
    special[rng.integers(n, size=3)] = [math.inf, -math.inf, math.nan]
    product = analyze._csr_product(A)
    out = np.full(n, 7.0)  # what out held before must not reach the product
    for v in (rng.standard_normal(n), special):
        product(v, out)
        assert np.array_equal(_bits(out), _bits(A @ v))
    with pytest.raises(TypeError, match="CSR"):
        analyze._csr_product(A.tocsc())


@pytest.mark.parametrize("x0,shown", [([1e300, 1.0], "inf"), ([math.nan, 1.0], "nan")],
                         ids=["overflow", "nan"])
def test_bicgstab_stops_at_the_first_residual_that_is_not_finite(x0, shown, monkeypatch):
    # the first product overflows (or starts from NaN), so the first
    # residual is not finite and fails every stop test: the solve raises
    # there, where scipy's loop would run on through all its 10 n steps
    import scipy.sparse as sp

    make, products = analyze._csr_product, []

    def counted(A):
        product = make(A)

        def count(v, out):
            products.append(v)
            product(v, out)

        return count

    monkeypatch.setattr(analyze, "_csr_product", counted)
    A = sp.csr_matrix(np.diag([1e300, 1.0]))
    with pytest.raises(analyze.ConvergenceError, match=f"residual is {shown} after 0 steps"):
        analyze._bicgstab(A, np.ones(2), np.array(x0))
    assert len(products) == 1


@pytest.mark.parametrize("p", [0.3, 0.7])
def test_single_selfloop_matches_birth_death_product_form(p):
    # one class: up with probability (1-p)^x, down with 1-(1-p)^x, so
    # detailed balance gives pi(x+1)/pi(x) = (1-p)^x / (1-(1-p)^(x+1));
    # the up-move at the cap folds into a self-loop and leaves it intact
    solo = scenarios.single_selfloop(p)
    ch = truncate(solo, make_policy(solo), 30)
    weights = [1.0]
    for x in range(30):
        weights.append(weights[-1] * (1.0 - p) ** x / (1.0 - (1.0 - p) ** (x + 1)))
    expected = np.asarray(weights) / sum(weights)
    assert ch.states.tolist() == [[x] for x in range(31)]
    np.testing.assert_allclose(stationary(ch).pi, expected, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("weight", [W1, W2], ids=["w1", "w2"])
@pytest.mark.parametrize("cap", [300, 1000])
@pytest.mark.parametrize("p", [0.3, 0.5, 0.7, 0.95])
def test_long_single_selfloop_chain_matches_birth_death_product_form(p, cap, weight):
    # the law falls below the float range long before these caps; a solve
    # started from the all-ones vector stalled far above the residual gate.
    # Where (1-p)^x underflows, the up-move and the law's weight are both 0,
    # so the reached states are the ones of positive weight.
    solo = scenarios.single_selfloop(p)
    ch = truncate(solo, make_policy(solo, weight), cap)
    weights = [1.0]
    for x in range(cap):
        weights.append(weights[-1] * (1.0 - p) ** x / (1.0 - (1.0 - p) ** (x + 1)))
    expected = np.asarray(weights) / sum(weights)
    n = ch.n_states
    assert ch.states.tolist() == [[x] for x in range(n)]
    assert not expected[n:].any()
    est = stationary(ch)
    assert est.residual <= analyze.RESIDUAL_TOL
    np.testing.assert_allclose(est.pi, expected[:n], rtol=0.0, atol=1e-12)


def test_two_state_chain_solved_exactly():
    # cap 1 on the self-matching class: pi(0) = r / (1 + r) by hand
    solo = scenarios.single_selfloop(0.5)
    ch = truncate(solo, make_policy(solo), 1)
    assert ch.states.tolist() == [[0], [1]]  # the origin comes first
    est = stationary(ch)
    pi0 = est.pi[0]
    assert pi0 == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert est.mean_sup_norm == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_stationary_matches_the_oracle():
    tri = scenarios.triangle()
    ch = truncate(tri, make_policy(tri), 18)
    est = stationary(ch)
    oracle = direct_stationary(ch)
    assert np.abs(est.pi - oracle).sum() < 1e-10
    assert est.mean_sup_norm == pytest.approx(float(oracle @ ch.sup_norms), abs=1e-10)
    assert est.iterations > 0


@pytest.mark.parametrize("name,weight,cap",
                         [("mixed_selfloop", weight, cap)
                          for weight in (W1, W2) for cap in range(2, 17)]
                         + [("triangle", weight, cap) for weight in (W1, W2) for cap in (5, 12)],
                         ids=lambda v: getattr(v, "name", v))
def test_stationary_meets_the_residual_gate(name, weight, cap):
    # a power iteration stops above the gate on mixed_selfloop at caps 8 to
    # 14 and on the triangle at caps 5 and 12
    spec = getattr(scenarios, name)()
    ch = truncate(spec, make_policy(spec, weight), cap)
    est = stationary(ch)
    assert est.residual <= analyze.RESIDUAL_TOL
    if ch.n_states < 5000:
        assert np.abs(est.pi - direct_stationary(ch)).sum() < 1e-10


def test_parity_components(tri_chain):
    est = stationary(tri_chain)
    assert est.even_sum == pytest.approx(1.0, abs=1e-3)
    assert est.odd_sum == pytest.approx(1.0, abs=1e-3)
    assert est.even_sum + est.odd_sum == pytest.approx(2.0, abs=1e-12)
    # the parity-l component of pi is 2 pi on the states of parity l, 0 elsewhere
    d = np.zeros(tri_chain.n_states)
    d[0] = 1.0  # the origin, then its law after one step
    for l in (0, 1):
        pi_l = 2.0 * est.pi * (tri_chain.parity == l)
        assert tv_periodic(tri_chain, est, 0, l) == np.abs(d - pi_l).sum()
        d = tri_chain.P.T @ d
    assert est.boundary_mass == pytest.approx(3.562e-4, rel=1e-2)


def test_tv_periodic_decays(tri_chain):
    est = stationary(tri_chain)
    early = tv_periodic(tri_chain, est, 1, 0)
    late0 = tv_periodic(tri_chain, est, 60, 0)
    late1 = tv_periodic(tri_chain, est, 60, 1)
    assert early > 1.0
    assert late0 < 0.01 and late1 < 0.01
    with pytest.raises(ValueError):
        tv_periodic(tri_chain, est, 10, 2)


def test_tv_periodic_refuses_a_negative_t():
    # 2t + l pushes would be none at t = -1, the distance at the origin
    tri = scenarios.triangle()
    ch = truncate(tri, make_policy(tri), 3)
    est = stationary(ch)
    for l in (0, 1):
        with pytest.raises(ValueError, match="t must be non-negative, got -1"):
            tv_periodic(ch, est, -1, l)


def test_mean_bound_values():
    tri = scenarios.triangle()
    assert invariant_mean_bound(tri, make_policy(tri, W1)) == pytest.approx(11.674, abs=1e-4)
    assert invariant_mean_bound(tri, make_policy(tri, W2)) == pytest.approx(23.674, abs=1e-4)
    solo = scenarios.single_selfloop(0.5)
    assert invariant_mean_bound(solo, make_policy(solo)) == pytest.approx(4.5, abs=1e-9)


def test_mean_bound_requires_stability(bipartite_spec):
    with pytest.raises(ValueError, match="margin"):
        invariant_mean_bound(bipartite_spec, make_policy(bipartite_spec))


def test_stationary_mean_within_bound(tri_chain):
    est = stationary(tri_chain)
    bound = invariant_mean_bound(tri_chain.spec, tri_chain.policy)
    assert est.mean_sup_norm <= bound


@pytest.mark.parametrize("T", [1, 2000])  # at T = 1 no path returns to the origin
def test_eta_sweep_columns_are_means_over_the_paths(T):
    entries = [("triangle", scenarios.triangle()), ("tilted", scenarios.bipartite(Fraction(3, 5)))]
    base_seed, replicas = 17, 5
    rows = eta_sweep(entries, T, base_seed, replicas)
    for row_idx, ((label, spec), row) in enumerate(zip(entries, rows)):
        pol = make_policy(spec)
        trajs = [run(spec, pol, T, (base_seed, row_idx, r)) for r in range(replicas)]
        returns = [tr.first_return for tr in trajs if tr.first_return is not None]
        stab = stability(spec)
        np.testing.assert_equal(astuple(row), (
            label, stab.eta, stab.ncond,
            float(np.mean([max(tr.final_x) / T for tr in trajs])),
            float(np.mean([tr.perfect[tr.t_grid > 0].mean() for tr in trajs])),
            float(np.mean(returns)) if returns else math.nan))


def test_ergodic_average_matches_stationary_mean():
    tri = scenarios.triangle()
    pol = make_policy(tri)
    chain_mean = stationary(truncate(tri, pol, 18)).mean_sup_norm
    trajs = run_replicas(tri, pol, 200_000, 31, 8)
    erg = np.asarray([t.ergodic_avg[-1] for t in trajs])
    assert abs(erg.mean() - chain_mean) < 4.0 * erg.std(ddof=1) / np.sqrt(len(erg))


def test_eta_sweep_over_arrival_imbalance():
    entries = [(f"p={p}", scenarios.bipartite(Fraction(p, 100)))
               for p in (40, 45, 50, 55, 60)]
    rows = eta_sweep(entries, T=20_000, base_seed=7, replicas=3)
    assert [r.id for r in rows] == [e[0] for e in entries]
    assert [r.eta for r in rows] == [-0.2, -0.1, 0.0, -0.1, -0.2]
    assert not any(r.ncond for r in rows)
    by_id = {r.id: r for r in rows}
    assert by_id["p=50"].growth < 0.02
    for pid in ("p=40", "p=45", "p=55", "p=60"):
        assert by_id[pid].growth > 0.05
