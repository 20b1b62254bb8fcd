"""Compute the reference values that the benchmark's output checks use.

    python3 perfbench/reference.py > perfbench/reference.json

Run from the repository root.  The values come from the package's scalar
code paths (``truncate``, ``check_main_drift``, ``verify_drift_chain``,
enumeration in ``stability``) and from exact arithmetic, with one addition:
stationary laws are iterated here until their residual is below 1e-13, so a
reference exists also where the package's own solve stops early.  The file
is recorded once; regenerating it from a later commit would make the checks
compare the program against itself.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import tempfile
from fractions import Fraction

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from sbmatch import analyze, cli, kernel, make_policy, stability  # noqa: E402

import workloads  # noqa: E402

RESIDUAL = 1e-13


def converged_pi(P) -> np.ndarray:
    """Parity-averaged power iteration until pi P = pi to RESIDUAL (l1)."""
    PT = P.T.tocsr()
    n = P.shape[0]
    u = np.full(n, 1.0 / n)
    for _ in range(200_000):
        w = PT @ u
        pi = 0.5 * (u + w)
        pi /= pi.sum()
        if np.abs(pi @ P - pi).sum() < RESIDUAL:
            return pi
        u = PT @ w
    raise RuntimeError("reference solve did not converge")


def spec_and_policy(doc: dict):
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        cfg = cli.load_config(path)
    return cfg, make_policy(cfg.spec, cfg.weight, alpha=cfg.alpha, n_check=cfg.n_check)


def stationary_ref(doc: dict) -> dict:
    cfg, policy = spec_and_policy(doc)
    chain = analyze.truncate(cfg.spec, policy, cfg.analyze.cap)
    pi = converged_pi(chain.P)
    return {"n_states": chain.n_states, "mean_sup_norm": float(pi @ chain.sup_norms)}


def sup_norm_pmf_even(doc: dict, cap: int) -> list[float]:
    cfg, policy = spec_and_policy(doc)
    chain = analyze.truncate(cfg.spec, policy, cap)
    pi = converged_pi(chain.P)
    even = np.where(chain.parity == 0, 2.0 * pi, 0.0)
    # The simulate check compares a few hundred samples, so mass below 1e-8
    # beyond the cap cannot matter.
    tail = float(even[chain.boundary].sum())
    if tail > 1e-8:
        raise RuntimeError(f"cap {cap} leaves mass {tail:.2e} at the boundary")
    pmf = np.bincount(chain.sup_norms, weights=even, minlength=cap + 1)
    last = int(np.nonzero(pmf > 1e-15)[0].max())
    return [float(p) for p in pmf[: last + 1]]


def ncond_ref(model: dict) -> dict:
    spec = cli._parse_model(model)
    stab = stability(spec)
    ref = {"ncond": stab.ncond, "eta": stab.eta,
           "independent_sets": len(stab.independent_sets)}
    if stab.eta_exact is not None:
        ref["eta_exact"] = str(stab.eta_exact)
    return ref


def sweep_refs(doc: dict, max_norm: int) -> tuple[dict, dict]:
    cfg, policy = spec_and_policy(doc)
    states = list(itertools.product(range(max_norm + 1), repeat=cfg.spec.n_classes))
    reports = [kernel.check_main_drift(cfg.spec, policy, x) for x in states]
    drift = {"n_states": len(states),
             "drift_sum": sum(r.drift for r in reports),
             "bound_sum": sum(r.bound for r in reports)}
    applicable = sum(st.applicable for x in states
                     for st in kernel.verify_drift_chain(cfg.spec, policy, x).steps)
    return drift, {"n_states": len(states), "applicable": applicable}


def main() -> None:
    docs = workloads.configs()
    drift, appendix = sweep_refs(docs["mixed-w2"], workloads.MAX_NORM)
    out: dict = {
        "stationary": {f"mixed-{w}-cap{c}": stationary_ref(docs[f"mixed-{w}-cap{c}"])
                       for w, c, _ in workloads.CHAIN},
        "ncond_wide": ncond_ref(docs["wide"]["model"]),
        "drift": drift,
        "appendix": appendix,
    }
    out["triangle_w2_sup_norm_pmf_even"] = sup_norm_pmf_even(docs["triangle-w2"], cap=31)
    etas, nconds = {}, {}
    for label, model in workloads.SWEEP_MODELS:
        stab = stability(cli._parse_model(model))
        etas[label] = cli._fmt(stab.eta)
        nconds[label] = cli._fmt(stab.ncond)
    out["sweep"] = {"eta": etas, "ncond": nconds}
    # The same rates as exact decimals: the verdict float rounding must match.
    exact = dict(workloads.FLOAT_SIGN, nu=[str(Fraction(str(v))) for v in workloads.FLOAT_SIGN["nu"]])
    out["ncond_float_sign"] = {k: v for k, v in ncond_ref(exact).items() if k != "eta_exact"}
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
