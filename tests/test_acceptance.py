"""Acceptance suite: every shipped guarantee, one printed verdict per item.

Each criterion prints a single "criterion N PASS/FAIL" line (visible in the
summary section of `pytest -rA`) and fails loudly on any violation.  Runtime
budgets are asserted where a guarantee includes one.
"""

import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from sbmatch import (
    check_assumption,
    final_states,
    invariant_mean_bound,
    make_policy,
    n_star,
    phi,
    propagate_distribution,
    run_replicas,
    scenarios,
    stability,
    stationary,
    transition_row,
    truncate,
    tv_periodic,
)
from sbmatch.cli import _ball as ball_chunks
from sbmatch.kernel import (INEQ_TOL, chain_tables, drift_q_over, move_tables, theorem_bound_over,
                            verify_drift_chain_over)
from sbmatch.policy import W1, W2

from conftest import enumerate_exact_distribution, random_model, random_state


def report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def bundled():
    return (("triangle", scenarios.triangle()),
            ("mixed", scenarios.mixed_selfloop()),
            ("solo", scenarios.single_selfloop()))


def chi_square_ok(observed_counts, expected_probs, n, significance=1e-3):
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
    exp = np.asarray(exp) * (sum(obs) / sum(exp))
    _, p = stats.chisquare(obs, exp)
    return p > significance


@pytest.fixture(scope="module")
def triangle_station():
    spec = scenarios.triangle()
    chain = truncate(spec, make_policy(spec), 30)
    return chain, stationary(chain)


def test_criterion_1_kernel_rows_are_unit_steps():
    rng = np.random.default_rng(20240811)
    t0 = time.monotonic()
    triples = 0
    bad = 0
    while triples < 10_000:
        spec = random_model(rng)
        pol = make_policy(spec, weight=W2 if rng.random() < 0.5 else W1)
        for _ in range(20):
            x = random_state(rng, spec.n_classes)
            triples += 1
            for variant in ("raw", "homogenized", "binarized"):
                row = transition_row(spec, pol, variant, x)
                if abs(row.total() - 1.0) > 1e-12:
                    bad += 1
                for y, p in row.entries:
                    diffs = [yi - xi for yi, xi in zip(y, x)]
                    if sorted(map(abs, diffs)) != [0] * (len(x) - 1) + [1]:
                        bad += 1
            if triples >= 10_000:
                break
    elapsed = time.monotonic() - t0
    report(1, bad == 0 and elapsed < 10.0,
           f"{triples} random states x 3 kernel variants, {bad} violations, "
           f"{elapsed:.1f}s (budget 10s)")


def test_criterion_2_drift_bound_sweep():
    # the drift verb's array pass, chunk by chunk (its agreement with
    # check_main_drift is test_kernel.py's oracle test)
    t0 = time.monotonic()
    checked = 0
    bad = 0
    for _, spec in bundled():
        pol = make_policy(spec)
        tables = move_tables(spec, pol, "raw", 20)
        for X in ball_chunks(spec.n_classes, 20):
            slack = theorem_bound_over(spec, pol, X) - drift_q_over(spec, pol, tables, X)
            checked += len(X)
            bad += int(np.count_nonzero(~(slack >= -INEQ_TOL)))
    elapsed = time.monotonic() - t0
    report(2, bad == 0 and elapsed < 60.0,
           f"drift certificate on {checked} states (three scenarios, "
           f"sup norm <= 20), {bad} violations, {elapsed:.1f}s (budget 60s)")


def test_criterion_3_inequality_chain_sweep():
    # the appendix verb's array pass, chunk by chunk (its agreement with
    # verify_drift_chain is test_kernel.py's oracle test)
    t0 = time.monotonic()
    applicable = 0
    bad = 0
    for _, spec in bundled():
        pol = make_policy(spec)
        tables = chain_tables(spec, pol, 15)
        for X in ball_chunks(spec.n_classes, 15):
            for st in verify_drift_chain_over(spec, pol, tables, X):
                applicable += int(np.count_nonzero(st.applicable))
                bad += int(np.count_nonzero(st.applicable & ~st.passed))
    elapsed = time.monotonic() - t0
    report(3, bad == 0 and elapsed < 120.0,
           f"{applicable} applicable chain inequalities (sup norm <= 15), "
           f"{bad} violations, {elapsed:.1f}s (budget 120s)")


def test_criterion_4_engines_realize_the_kernel():
    spec = scenarios.bipartite(Fraction(1, 2))
    pol = make_policy(spec)

    exact = enumerate_exact_distribution(spec, pol, 3)
    kern3 = propagate_distribution(spec, pol, 3)
    enum_gap = max(abs(exact.get(x, 0.0) - kern3.get(x, 0.0))
                   for x in set(exact) | set(kern3))

    T, n = 50, 100_000
    expected = propagate_distribution(spec, pol, T)
    counts: dict = {}
    for fx in final_states(spec, pol, T, 2024, n):
        key = tuple(int(v) for v in fx)
        counts[key] = counts.get(key, 0) + 1
    fit = chi_square_ok(counts, expected, n)

    report(4, enum_gap <= 1e-12 and fit,
           f"exact enumeration gap {enum_gap:.2e} at T=3; lazy engine "
           f"chi-square at T=50 over {n} replicas "
           f"{'not rejected' if fit else 'REJECTED'} at 1e-3")


def test_criterion_5_phase_transition():
    t0 = time.monotonic()
    T, reps = 100_000, 100

    bip = scenarios.bipartite(Fraction(3, 5))
    trajs = run_replicas(bip, make_policy(bip), T, 1905, reps, sample_every=T)
    n_grow = sum(1 for t in trajs if max(t.final_x) / T >= 0.05)

    tri = scenarios.triangle()
    trajs = run_replicas(tri, make_policy(tri), T, 1906, reps, sample_every=T)
    n_flat = sum(1 for t in trajs if max(t.final_x) / T <= 0.01)
    n_returned = sum(1 for t in trajs if t.returns_to_zero >= 1)

    elapsed = time.monotonic() - t0
    report(5, n_grow >= 95 and n_flat >= 95 and n_returned == reps
           and elapsed < 300.0,
           f"unstable arrivals grow in {n_grow}/100, stable stay flat in "
           f"{n_flat}/100 and empty again in {n_returned}/100, "
           f"{elapsed:.0f}s (budget 300s)")


def test_criterion_6_pathwise_lower_bound():
    bad = 0
    points = 0
    for label, spec in (("triangle", scenarios.triangle()),
                        ("mixed", scenarios.mixed_selfloop())):
        pol = make_policy(spec)
        sets = stability(spec).independent_sets
        C = spec.n_classes
        trajs = run_replicas(spec, pol, 2000, 61, 20,
                             sample_every=1, track_walks=sets)
        for tr in trajs:
            sup = tr.sup_norm
            for members, walk in tr.walks.items():
                part = tr.x[:, sorted(members)].sum(axis=1)
                points += walk.size
                bad += int(np.sum(part < walk))
                bad += int(np.sum(C * sup < part))
    report(6, bad == 0,
           f"count sum dominates its comparison walk under shared arrivals "
           f"at {points} sampled points, {bad} violations")


def test_criterion_7_parity_and_periodic_convergence(triangle_station):
    spec = scenarios.triangle()
    pol = make_policy(spec)
    bad = 0
    for tr in run_replicas(spec, pol, 4000, 71, 5, sample_every=1):
        sums = tr.x.sum(axis=1)
        bad += int(np.sum((sums - tr.t_grid) % 2 != 0))
    chain, est = triangle_station
    tv0 = tv_periodic(chain, est, 200, 0)
    tv1 = tv_periodic(chain, est, 200, 1)
    report(7, bad == 0 and tv0 < 1e-6 and tv1 < 1e-6,
           f"parity holds at every step ({bad} violations); TV to the "
           f"parity components after 400/401 steps {tv0:.1e}, {tv1:.1e} "
           f"(tolerance 1e-6)")


def test_criterion_8_stationary_mean_bound(triangle_station):
    lines = []
    ok = True
    for label, spec, cap in (("triangle", scenarios.triangle(), 30),
                             ("mixed", scenarios.mixed_selfloop(), 28),
                             ("solo", scenarios.single_selfloop(), 30)):
        pol = make_policy(spec)
        if label == "triangle":
            chain, est = triangle_station
        else:
            chain = truncate(spec, pol, cap)
            est = stationary(chain)
        bound = invariant_mean_bound(spec, pol)
        good = est.mean_sup_norm <= bound and est.boundary_mass < 1e-6
        ok = ok and good
        lines.append(f"{label} {est.mean_sup_norm:.3f}<={bound:.3f} "
                     f"(rim mass {est.boundary_mass:.0e})")

    solo = scenarios.single_selfloop(0.5)
    two = truncate(solo, make_policy(solo), 1)
    pi0 = stationary(two).pi[0]  # the origin comes first in the grid
    hand_gap = abs(pi0 - 0.5 / 1.5)
    ok = ok and two.states.tolist() == [[0], [1]] and hand_gap <= 1e-12

    report(8, ok, "; ".join(lines) + f"; two-state chain off by {hand_gap:.1e}")


def test_criterion_9_policy_properties():
    rng = np.random.default_rng(3)
    cases = 0
    bad = 0
    while cases < 10_000:
        spec = random_model(rng)
        pol = make_policy(spec, weight=W2 if rng.random() < 0.5 else W1)
        above = rng.random() < 0.5
        if above:
            x = tuple(int(v) for v in rng.integers(pol.n_star, pol.n_star + 8,
                                                   size=spec.n_classes))
        else:
            x = random_state(rng, spec.n_classes)
        i = int(rng.integers(spec.n_classes))
        j = phi(pol, spec, x, i)
        cases += 1
        eligible = [k for k in range(spec.n_classes)
                    if spec.rho[i][k] > 0.0 and x[k] > 0]
        if eligible and j not in eligible:
            bad += 1
        neigh = [k for k in range(spec.n_classes) if spec.rho[i][k] > 0.0]
        if above and neigh and x[j] != max(x[k] for k in neigh):
            bad += 1

    hyp = all(check_assumption(w, n_check=10_000).ok for w in (W1, W2))
    thresholds = all(n_star(W1, r) == 1
                     for r in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0))

    report(9, bad == 0 and hyp and thresholds,
           f"support rule and top-count rule over {cases} randomized cases "
           f"({bad} violations); weight hypotheses certified to 10^4; "
           f"w1 threshold is 1 on the whole rate grid")
