"""Model validation, root-graph derivation, and stability margins."""

import gc
import importlib
import itertools
import math
import pkgutil
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from sbmatch import (
    InvalidModelError,
    independent_sets,
    make_spec,
    neighborhood,
    root_graph,
    stability,
    walk_spec,
)
import sbmatch
from sbmatch import scenarios

from conftest import brute_force_eta, random_model


def test_make_spec_rejects_empty_class_list():
    with pytest.raises(InvalidModelError):
        make_spec((), (), ())


def test_make_spec_rejects_duplicate_labels():
    with pytest.raises(InvalidModelError):
        make_spec(("a", "a"), (0.5, 0.5), ((0.0, 0.5), (0.5, 0.0)))
    # equal by value though they print differently
    with pytest.raises(InvalidModelError, match="^duplicate class labels$"):
        make_spec((1, 1.0), (0.5, 0.5), ((0.0, 0.5), (0.5, 0.0)))


@pytest.mark.parametrize("classes,shown", [(("a", float("nan"), float("nan")), "nan"),
                                           ((1, "1", "b"), "1")], ids=["nan", "1"])
def test_make_spec_rejects_labels_that_print_alike(classes, shown):
    # two distinct NaN objects differ by value (nan != nan) and 1 != "1", so
    # a set keeps both of each pair, but each pair prints alike
    with pytest.raises(InvalidModelError,
                       match=f"^class labels must print differently, '{shown}' repeats$"):
        make_spec(classes, (0.25, 0.25, 0.5), ((0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0)))


@pytest.mark.parametrize("label", [["a"], ("a", {"b": 1})], ids=["list", "tuple-of-dict"])
def test_make_spec_rejects_unhashable_labels(label):
    with pytest.raises(InvalidModelError,
                       match=f"^class labels must be hashable, got {re.escape(repr(label))}$"):
        make_spec((label, "b"), (0.5, 0.5), ((0.0, 0.5), (0.5, 0.0)))


def test_make_spec_rejects_unnormalized_nu():
    with pytest.raises(InvalidModelError, match="nu not normalized"):
        make_spec(("a", "b"), (0.5, 0.6), ((0.0, 0.5), (0.5, 0.0)))
    # exact rates are summed exactly
    with pytest.raises(InvalidModelError, match="^nu not normalized$"):
        make_spec(("a", "b"), (Fraction(1, 3), Fraction(1, 3)), ((0.0, 0.5), (0.5, 0.0)))


def test_make_spec_rejects_nonpositive_nu():
    with pytest.raises(InvalidModelError):
        make_spec(("a", "b"), (1.0, 0.0), ((0.0, 0.5), (0.5, 0.0)))


def test_make_spec_rejects_asymmetric_sign_pattern():
    with pytest.raises(InvalidModelError, match="rho asymmetric"):
        make_spec(("a", "b"), (0.5, 0.5), ((0.0, 0.5), (0.0, 0.0)))


def test_make_spec_rejects_probabilities_outside_unit_interval():
    with pytest.raises(InvalidModelError):
        make_spec(("a", "b"), (0.5, 0.5), ((0.0, 1.5), (1.5, 0.0)))


@pytest.mark.parametrize("r", [1e-320, 5e-324])
def test_make_spec_rejects_subnormal_rho(r):
    # K's trial peak -1 / log1p(-r) overflows below the smallest normal float
    with pytest.raises(InvalidModelError, match=repr(r)):
        make_spec(("a", "b"), (0.5, 0.5), ((0.0, r), (r, 0.0)))


def test_make_spec_accepts_the_smallest_normal_rho():
    spec = make_spec(("a", "b"), (0.5, 0.5), ((0.0, 3e-308), (3e-308, 0.0)))
    assert root_graph(spec).rho_min == 3e-308


def test_make_spec_rejects_ragged_rho():
    with pytest.raises(InvalidModelError):
        make_spec(("a", "b"), (0.5, 0.5), ((0.0, 0.5), (0.5,)))


def test_exact_rates_survive_in_nu_exact():
    spec = scenarios.triangle()
    assert spec.nu_exact == (Fraction(1, 3),) * 3
    assert spec.nu == pytest.approx((1 / 3, 1 / 3, 1 / 3))


def test_root_graph_adjacency_is_sign_pattern(mixed_spec):
    graph = root_graph(mixed_spec)
    for i in range(4):
        for j in range(4):
            assert graph.adjacency[i][j] == (mixed_spec.rho[i][j] > 0.0)


def test_root_graph_splits_selfloop_classes(mixed_spec):
    graph = root_graph(mixed_spec)
    assert graph.selfloop_classes == frozenset({3})
    assert graph.loopfree_classes == frozenset({0, 1, 2})


def test_root_graph_constants_triangle(triangle_spec):
    graph = root_graph(triangle_spec)
    assert graph.rho_min == pytest.approx(0.3)
    # max of n(0.7)^n sits at n=3: 3 * 0.343
    assert graph.K == pytest.approx(1.029)


def test_root_graph_constants_single_selfloop(solo_spec):
    graph = root_graph(solo_spec)
    assert graph.rho_min == pytest.approx(0.5)
    assert graph.K == pytest.approx(0.5)


def _scanned_K(r: float) -> float:
    """max of n (1 - r)^n over every n in 0..max(1000, 4 / r)."""
    n_max = max(1000, math.ceil(4.0 / r))
    ns = np.arange(n_max + 1, dtype=float)
    return float(np.max(ns * (1.0 - r) ** ns))


@pytest.mark.parametrize("r", [1.0, 0.99, 0.7, 0.5, 0.3, 0.1, 1e-2, 1e-3, 3.7e-4, 1e-5])
def test_root_graph_K_matches_dense_scan(r):
    spec = make_spec(("a", "b"), (0.5, 0.5), ((0.0, r), (r, 0.0)))
    assert root_graph(spec).K == _scanned_K(r)


def test_root_graph_K_tiny_rho_min_without_large_allocation():
    spec = make_spec(("a", "b"), (0.5, 0.5), ((0.0, 1e-8), (1e-8, 0.0)))
    tracemalloc.start()
    try:
        graph = root_graph.__wrapped__(spec)  # bypass the cache
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the maximum of n (1 - r)^n is about 1 / (e r)
    assert graph.K == pytest.approx(1.0 / (math.e * 1e-8), rel=1e-6)


def test_root_graph_all_zero_rho_has_no_rho_min():
    spec = make_spec(("a", "b"), (0.5, 0.5), ((0.0, 0.0), (0.0, 0.0)))
    graph = root_graph(spec)
    assert graph.rho_min is None
    assert graph.K is None


def test_neighborhood_reads_off_adjacency(triangle_spec, bipartite_spec):
    tri = root_graph(triangle_spec)
    assert neighborhood(tri, {0}) == frozenset({1, 2})
    bip = root_graph(bipartite_spec)
    assert neighborhood(bip, {0}) == frozenset({1})


def test_independent_sets_triangle(triangle_spec):
    graph = root_graph(triangle_spec)
    assert set(independent_sets(graph)) == {(0,), (1,), (2,)}


def test_independent_sets_exclude_selfloop_classes(mixed_spec):
    graph = root_graph(mixed_spec)
    sets = independent_sets(graph)
    assert all(3 not in s for s in sets)
    assert set(sets) == {(0,), (1,), (2,)}


def test_independent_sets_path3(path3_spec):
    graph = root_graph(path3_spec)
    assert set(independent_sets(graph)) == {(0,), (1,), (2,), (0, 2)}


def test_independent_sets_empty_when_every_class_loops(solo_spec):
    assert independent_sets(root_graph(solo_spec)) == ()


def test_stability_triangle_is_exact(triangle_spec):
    rep = stability(triangle_spec)
    assert rep.ncond
    assert rep.eta_exact == Fraction(1, 3)
    assert rep.eta == pytest.approx(1 / 3)
    assert rep.minimizer in {(0,), (1,), (2,)}


def test_stability_bipartite_is_negative(bipartite_spec):
    rep = stability(bipartite_spec)
    assert not rep.ncond
    assert rep.eta_exact == Fraction(-1, 5)
    assert rep.minimizer == (0,)


def test_stability_bipartite_family_margin_is_minus_abs():
    for p in (Fraction(2, 5), Fraction(1, 2), Fraction(3, 5)):
        rep = stability(scenarios.bipartite(p))
        assert rep.eta_exact == -abs(1 - 2 * p)
    assert not stability(scenarios.bipartite(Fraction(1, 2))).ncond


def test_stability_mixed_scenario(mixed_spec):
    rep = stability(mixed_spec)
    assert rep.ncond
    assert rep.eta_exact == Fraction(1, 5)
    assert rep.minimizer == (1,)


def test_stability_float_rates_decide_the_sign_exactly():
    # c's neighbourhood {a, b} carries exactly c's rate: float sums round the
    # margin of {c} to 5.55e-17, the decimals give exactly 0, so not stable
    rho = ((0.0, 0.5, 0.5, 0.0), (0.5, 0.0, 0.5, 0.0),
           (0.5, 0.5, 0.0, 0.0), (0.0, 0.0, 0.0, 0.5))
    assert 0.1 + 0.2 - 0.3 > 0.0
    rep = stability(make_spec("abcd", (0.1, 0.2, 0.3, 0.4), rho))
    assert rep.eta_exact == 0 and rep.eta == 0.0
    assert not rep.ncond
    assert rep.minimizer == (2,)
    exact = stability(make_spec("abcd", tuple(Fraction(k, 10) for k in range(1, 5)), rho))
    assert (exact.eta_exact, exact.ncond) == (rep.eta_exact, rep.ncond)


@pytest.mark.parametrize("r,exact_first", [(0.41, True), (0.43, False)])
def test_exact_and_float_rates_share_a_hash_but_not_a_cache_entry(r, exact_first):
    # nu_exact is left out of the hash, so these two specs collide in the
    # per-spec caches; equality still tells them apart, whatever the order
    rho = ((0.0, r, r), (r, 0.0, r), (r, r, 0.0))
    exact = make_spec("xyz", (Fraction(1, 3),) * 3, rho)
    approx = make_spec("xyz", (1 / 3,) * 3, rho)
    assert hash(exact) == hash(approx)
    assert exact != approx
    order = (exact, approx) if exact_first else (approx, exact)
    got = {id(spec): stability(spec).eta_exact for spec in order}
    assert got[id(exact)] == Fraction(1, 3)
    assert got[id(approx)] == Fraction(3333333333333333, 10 ** 16)


def test_every_package_cache_is_bounded():
    # an lru_cache without a maxsize keeps every model a loop passes it
    caches = []
    for info in pkgutil.iter_modules(sbmatch.__path__, "sbmatch."):
        module = importlib.import_module(info.name)
        caches += [(info.name, name) for name, value in vars(module).items()
                   if callable(getattr(value, "cache_info", None))
                   and value.cache_parameters()["maxsize"] is None]
    assert caches == []


def test_stability_keeps_no_model_it_has_left():
    # one report of a 12-class model with one edge lists 3,071 sets in about
    # 0.3 MB; fifty such reports kept would hold about 15 MB
    C = 12

    def spec(k):
        rho = [[0.0] * C for _ in range(C)]
        rho[0][1] = rho[1][0] = (k + 1) / 100
        return make_spec(tuple(f"c{i}" for i in range(C)), (Fraction(1, C),) * C, rho)

    stability.cache_clear()
    root_graph.cache_clear()
    tracemalloc.start()
    try:
        for k in range(50):
            assert len(stability(spec(k)).independent_sets) == 3071
        gc.collect()  # count what is kept, not garbage that awaits a collection
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 5 << 20


def test_stability_vacuous_when_no_independent_set(solo_spec):
    rep = stability(solo_spec)
    assert rep.ncond
    assert rep.eta == math.inf
    assert rep.independent_sets == ()


def test_stability_matches_brute_force_on_random_models():
    rng = np.random.default_rng(20240817)
    checked = 0
    for _ in range(150):
        spec = random_model(rng)
        eta, ncond, _ = brute_force_eta(spec)
        rep = stability(spec)
        if rep.independent_sets:
            assert rep.eta == pytest.approx(float(eta), abs=1e-12)
            assert rep.ncond == ncond
            checked += 1
        else:
            assert rep.eta == math.inf
    assert checked > 50


def test_stability_shares_the_set_order_and_takes_the_first_minimizer():
    # uniform rates tie many margins; the minimizer is the first set, in the
    # order independent_sets lists them, whose exact margin is the minimum.
    # The sets are every independent subset, in lexicographic order.
    rng = np.random.default_rng(4242)
    tied = 0
    for k in range(120):
        spec = random_model(rng, max_classes=10)
        C = spec.n_classes
        if k % 2:
            spec = make_spec(spec.classes, (Fraction(1, C),) * C, spec.rho)
        rep = stability(spec)
        assert rep.independent_sets == independent_sets(root_graph(spec))
        brute = [s for size in range(1, C + 1) for s in itertools.combinations(range(C), size)
                 if not any(spec.rho[i][j] > 0.0 for i in s for j in s)]
        assert [tuple(sorted(s)) for s in rep.independent_sets] == sorted(brute)
        if not rep.independent_sets:
            continue
        nu = spec.nu_exact or tuple(Fraction(str(v)) for v in spec.nu)
        margins = [sum(nu[j] for j in range(C) if any(spec.rho[i][j] > 0.0 for i in s))
                   - sum(nu[i] for i in s) for s in rep.independent_sets]
        assert rep.eta_exact == min(margins)
        assert rep.minimizer == rep.independent_sets[margins.index(min(margins))]
        tied += margins.count(min(margins)) > 1
    assert tied > 10


def test_walk_spec_bipartite_constants(bipartite_spec):
    walk = walk_spec(bipartite_spec, {0})
    assert walk.mu == pytest.approx(0.2)
    assert walk.sigma2 == pytest.approx(1.0)
    assert walk.c_bound == pytest.approx(0.02275013194817921, abs=1e-15)


def test_walk_spec_balanced_has_zero_mean():
    walk = walk_spec(scenarios.bipartite(Fraction(1, 2)), {0})
    assert walk.mu == pytest.approx(0.0)
    assert walk.sigma2 == pytest.approx(1.0)


def test_walk_spec_triangle_singleton(triangle_spec):
    walk = walk_spec(triangle_spec, {0})
    # gains nu(I)=1/3, loses nu(N(I))=2/3
    assert walk.mu == pytest.approx(-1 / 3)
    assert walk.sigma2 == pytest.approx(1.0)


def test_walk_spec_rejects_dependent_set(triangle_spec):
    with pytest.raises(ValueError):
        walk_spec(triangle_spec, {0, 1})
    with pytest.raises(ValueError):
        walk_spec(triangle_spec, ())
    for i in (5, -1):
        with pytest.raises(InvalidModelError, match=f"^class index {i} out of range$"):
            walk_spec(triangle_spec, {0, i})
