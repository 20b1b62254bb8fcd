"""The benchmark's workloads: scenario configs, CLI operations and output checks.

Each workload is a fixed list of operations.  An operation is one call of
``sbmatch.cli.main(argv)`` on a config written to the work directory, plus a
check of its exit code, its stdout summary and its output file.  Checks
compare against values recorded from the seed's scalar code paths in
``reference.json`` (see ``reference.py``), never against the program's own
output from the same run.

Workloads (why each exists is in BENCHMARK.json):
  chain    stationary on mixed_selfloop: truncate + row building + solve
  engine   simulate (many short replicas, w2) and sweep (few long, w1)
  certify  ncond on a wide model, drift (+ negative control) and appendix

Operations tagged ``known_defect`` reproduce a defect that the program has
at the commit the benchmark was written against.  They are run, timed and
counted in ``failed`` like every other operation; the tag only keeps a
recorded defect from marking the whole run as incorrect.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("chain", "engine", "certify")

# Sizes.  Each operation takes a few hundredths of a second, so that a run
# holds many repeats and each repeat sees a nearly constant machine speed
# between the reference loops around it (see worker.py).
CHAIN = (("w1", 4, "power"), ("w2", 5, "power"))  # (weight, cap, solver)
SIM_REPLICAS, SIM_T, SIM_EVERY = 16, 500, 50
SWEEP_T, SWEEP_REPLICAS = 4000, 2
WIDE_TRIANGLES = 5
MAX_NORM = 3
# The negative control needs a ball large enough for the corrupted kernel to
# break the bound somewhere: radius 5 on the triangle, 6 on mixed_selfloop.
CORRUPT_MAX_NORM = 6

# Stationary solves are checked against a converged reference; the solver's
# own target is a residual of 1e-10, which bounds the error of the mean far
# below this tolerance.
MEAN_RTOL = 1e-7
SUM_RTOL = 1e-9
# Limits of the simulate check's two tests, both with a false-alarm rate
# near 1e-6.  Outputs are deterministic for a seed, so that is per seed.
CHI2_PVALUE_FLOOR = 1e-6
MEAN_Z_MAX = 5.0


class Mismatch(Exception):
    """An operation's exit code or output differs from the expected one."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise Mismatch(msg)


# ---------------------------------------------------------------- models

MIXED = {
    "classes": ["a", "b", "c", "d"],
    "nu": ["1/4", "3/10", "1/4", "1/5"],
    "rho": [[0.0, 0.6, 0.5, 0.0], [0.6, 0.0, 0.3, 0.0],
            [0.5, 0.3, 0.0, 0.0], [0.0, 0.0, 0.0, 0.7]],
}
TRIANGLE = {
    "classes": ["a", "b", "c"],
    "nu": ["1/3", "1/3", "1/3"],
    "rho": [[0.0, 0.3, 0.3], [0.3, 0.0, 0.3], [0.3, 0.3, 0.0]],
}
# ROADMAP 5a: c's neighbourhood {a, b} has exactly c's arrival rate, so the
# exact margin is 0 and the model is not stable; float rates round it to
# 5.55e-17 > 0.
FLOAT_SIGN = {
    "classes": ["a", "b", "c", "d"],
    "nu": [0.1, 0.2, 0.3, 0.4],
    "rho": [[0.0, 0.5, 0.5, 0.0], [0.5, 0.0, 0.5, 0.0],
            [0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.0, 0.5]],
}


def bipartite(p: str) -> dict:
    q = str(1 - Fraction(p))
    return {"classes": ["one", "two"], "nu": [p, q],
            "rho": [[0.0, 0.5], [0.5, 0.0]]}


def wide(n_triangles: int) -> dict:
    """Triangles linked in a chain (last class of one to first of the next);
    uniform arrivals, so eta = 1/C and the independent sets are many."""
    C = 3 * n_triangles
    rho = [[0.0] * C for _ in range(C)]
    for b in range(n_triangles):
        block = range(3 * b, 3 * b + 3)
        for i in block:
            for j in block:
                if i != j:
                    rho[i][j] = 0.5
        if b + 1 < n_triangles:
            rho[3 * b + 2][3 * b + 3] = rho[3 * b + 3][3 * b + 2] = 0.5
    return {"classes": [f"c{i}" for i in range(C)], "nu": [f"1/{C}"] * C, "rho": rho}


SWEEP_MODELS = (("even", bipartite("1/2")), ("tilted", bipartite("3/5")),
                ("triangle", TRIANGLE), ("mixed", MIXED))
# Growth sup_norm(x_T)/T of the sweep models: 0.2 for the tilted bipartite
# model (3/5 - 2/5), 0 otherwise.  The tolerance covers a few standard
# deviations of a diffusive sup norm.
SWEEP_GROWTH = {"even": 0.0, "tilted": 0.2, "triangle": 0.0, "mixed": 0.0}


def configs() -> dict[str, dict]:
    """Every config document a workload writes, by file stem."""
    docs = {}
    for weight, cap, solver in CHAIN:
        docs[f"mixed-{weight}-cap{cap}"] = {
            "model": MIXED, "policy": {"weight": weight},
            "analyze": {"cap": cap, "solver": solver}}
    docs["triangle-w2"] = {
        "model": TRIANGLE,
        "policy": {"weight": "w2", "alpha": ["b", "a", "c"], "n_check": 10000},
        "run": {"T": SIM_T, "replicas": SIM_REPLICAS, "sample_every": SIM_EVERY},
        "sweep": {"models": [{"id": k, "model": m} for k, m in SWEEP_MODELS],
                  "T": SWEEP_T, "replicas": SWEEP_REPLICAS},
    }
    docs["sweep-w1"] = dict(docs["triangle-w2"], policy={"weight": "w1"})
    docs["wide"] = {"model": wide(WIDE_TRIANGLES)}
    docs["float-sign"] = {"model": FLOAT_SIGN}
    docs["mixed-w2"] = {"model": MIXED, "policy": {"weight": "w2"}}
    return docs


# ---------------------------------------------------------------- operations

@dataclass
class OpResult:
    code: int | None  # None when cli.main raised
    stdout: str
    stderr: str
    error: str | None = None


@dataclass
class Op:
    name: str
    verb: str
    config: str
    check: Callable[["Op", OpResult, str], None]
    ref: dict
    args: tuple[str, ...] = ()
    trailing: tuple[str, ...] = ()
    known_defect: str | None = None

    def argv(self, workdir: str) -> list[str]:
        return ["--config", os.path.join(workdir, self.config + ".json"),
                "--out", self.out_path(workdir), *self.args, self.verb, *self.trailing]

    def out_path(self, workdir: str) -> str:
        ext = "json" if self.verb == "ncond" else "csv"
        return os.path.join(workdir, f"{self.name.replace('/', '_')}.{ext}")


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path: str) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def last_line(text: str) -> str:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    return lines[-1] if lines else ""


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


def expect_exit(res: OpResult, code: int) -> None:
    expect(res.error is None, f"raised {res.error}")
    expect(res.code == code, f"exit code {res.code}, expected {code}"
           + (f" ({res.stderr.strip()[-200:]})" if res.stderr.strip() else ""))


# ---------------------------------------------------------------- checks

def check_stationary(op: Op, res: OpResult, out: str) -> None:
    ref = op.ref
    expect_exit(res, 0)
    doc = json.loads(last_line(res.stdout))
    expect(doc["n_states"] == ref["n_states"], f"n_states {doc['n_states']} != {ref['n_states']}")
    expect(doc["bound_ok"] is True, f"bound_ok {doc['bound_ok']}")
    expect(doc["residual"] <= 1e-10, f"residual {doc['residual']}")
    expect(close(doc["mean_sup_norm"], ref["mean_sup_norm"], MEAN_RTOL),
           f"mean_sup_norm {doc['mean_sup_norm']!r} != {ref['mean_sup_norm']!r}")
    rows = read_csv(out)
    expect(len(rows) == 1 + ref["n_states"], f"{len(rows) - 1} pi rows")
    pi = [float(r[-1]) for r in rows[1:]]
    expect(min(pi) >= 0.0, "negative pi entry")
    expect(abs(sum(pi) - 1.0) <= SUM_RTOL, f"pi sums to {sum(pi)!r}")
    mean = sum(p * max(int(v) for v in r[:-1]) for p, r in zip(pi, rows[1:]))
    expect(close(mean, ref["mean_sup_norm"], MEAN_RTOL), f"CSV mean sup norm {mean!r}")


def check_simulate(op: Op, res: OpResult, out: str) -> None:
    ref = op.ref
    expect_exit(res, 0)
    rows = read_csv(out)
    head = rows[0]
    xs = [k for k, h in enumerate(head) if h.startswith("x_")]
    col = {h: k for k, h in enumerate(head)}
    grid = list(range(0, ref["T"] + 1, ref["every"]))
    expect(len(rows) - 1 == ref["replicas"] * len(grid), f"{len(rows) - 1} simulate rows")
    finals = []
    for k, r in enumerate(rows[1:]):
        rep, t = int(r[col["replica"]]), int(r[col["t"]])
        expect((rep, t) == (k // len(grid), grid[k % len(grid)]), f"row {k + 1} is ({rep}, {t})")
        x = [int(r[j]) for j in xs]
        matched = int(r[col["matched_pairs"]])
        sup = int(r[col["sup_norm"]])
        expect(min(x) >= 0 and matched >= 0, f"negative count in row {k + 1}")
        expect(2 * matched + sum(x) == t, f"2*matched + sum(x) != t in row {k + 1}")
        expect(sum(x) % 2 == t % 2, f"parity broken in row {k + 1}")
        expect(sup == max(x), f"sup_norm wrong in row {k + 1}")
        expect(r[col["perfect"]] == ("1" if sup == 0 else "0"), f"perfect wrong in row {k + 1}")
        if t == ref["T"]:
            finals.append(sup)
    # The final sup norm against the parity component of the exact chain
    # (T is even, so the even one): its mean by a z-test, and its law by a
    # chi-square over runs of consecutive values, each closed once its
    # expected count reaches 5, with the tail pooled into the last.
    pmf = ref["sup_norm_pmf_even"]
    n = len(finals)
    mean = sum(s * p for s, p in enumerate(pmf))
    var = sum(s * s * p for s, p in enumerate(pmf)) - mean * mean
    z = (sum(finals) / n - mean) / math.sqrt(var / n)
    expect(abs(z) <= MEAN_Z_MAX, f"final sup norm mean is {z:.1f} standard errors off")
    starts = [0]
    acc = 0.0
    for s, p in enumerate(pmf):
        acc += p
        if acc * n >= 5 and (1.0 - sum(pmf[: s + 1])) * n >= 5:
            starts.append(s + 1)
            acc = 0.0
    stat = 0.0
    for k, lo in enumerate(starts):
        hi = starts[k + 1] if k + 1 < len(starts) else math.inf
        expected = n * (sum(pmf[lo:hi]) if k + 1 < len(starts) else 1.0 - sum(pmf[:lo]))
        seen = sum(1 for s in finals if lo <= s < hi)
        stat += (seen - expected) ** 2 / expected
    df = len(starts) - 1
    from scipy.stats import chi2  # heavy import, kept out of the timed set-up
    pvalue = float(chi2.sf(stat, df)) if df > 0 else 1.0
    expect(pvalue >= CHI2_PVALUE_FLOOR,
           f"final sup norm does not follow the exact law (chi2 {stat:.1f}, p {pvalue:.2e})")


def check_sweep(op: Op, res: OpResult, out: str) -> None:
    ref = op.ref
    expect_exit(res, 0)
    rows = read_csv(out)
    expect(rows[0] == ["id", "eta", "ncond", "growth", "perfect_rate", "mean_return_time"],
           f"sweep header {rows[0]}")
    expect([r[0] for r in rows[1:]] == [k for k, _ in SWEEP_MODELS], "sweep ids")
    tol = 5.0 / math.sqrt(ref["T"])
    for r in rows[1:]:
        label = r[0]
        expect(r[1] == ref["eta"][label], f"{label}: eta {r[1]} != {ref['eta'][label]}")
        expect(r[2] == ref["ncond"][label], f"{label}: ncond {r[2]}")
        growth, perfect = float(r[3]), float(r[4])
        expect(abs(growth - SWEEP_GROWTH[label]) <= tol, f"{label}: growth {growth}")
        expect(0.0 <= perfect <= 1.0, f"{label}: perfect_rate {perfect}")
        if r[2] == "1":
            expect(perfect > 0.0 and float(r[5]) >= 1.0, f"{label}: stable model never empties")


def check_ncond(op: Op, res: OpResult, out: str) -> None:
    ref = op.ref
    expect_exit(res, 0)
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    expect(doc["ncond"] is ref["ncond"], f"ncond {doc['ncond']}, expected {ref['ncond']}")
    if "eta_exact" in ref:
        expect(doc["eta_exact"] == ref["eta_exact"], f"eta_exact {doc['eta_exact']}")
    expect(close(float(doc["eta"]), ref["eta"], 1e-15), f"eta {doc['eta']!r}, expected {ref['eta']!r}")
    expect(len(doc["independent_sets"]) == ref["independent_sets"],
           f"{len(doc['independent_sets'])} independent sets")
    if ref["ncond"]:
        expect(bool(doc["minimizer"]) and doc["walk"] is not None, "no minimizer or walk")


def _drift_rows(out: str, n_states: int) -> list[list[str]]:
    rows = read_csv(out)
    expect(len(rows) == 1 + n_states, f"{len(rows) - 1} drift rows")
    return rows[1:]


def check_drift(op: Op, res: OpResult, out: str) -> None:
    ref = op.ref
    expect_exit(res, 0)
    expect(last_line(res.stdout) == f"drift: {ref['n_states']} states, 0 failures",
           f"summary {last_line(res.stdout)!r}")
    rows = _drift_rows(out, ref["n_states"])
    expect(all(r[-1] == "pass" for r in rows), "a drift row failed")
    drift = sum(float(r[-4]) for r in rows)
    bound = sum(float(r[-3]) for r in rows)
    expect(close(drift, ref["drift_sum"], SUM_RTOL), f"drift sum {drift!r}")
    expect(close(bound, ref["bound_sum"], SUM_RTOL), f"bound sum {bound!r}")


def check_corrupt(op: Op, res: OpResult, out: str) -> None:
    ref = op.ref
    expect_exit(res, 1)
    rows = _drift_rows(out, ref["n_states"])
    fails = sum(1 for r in rows if r[-1] == "fail")
    expect(fails > 0, "the negative control found no failure")
    expect(last_line(res.stdout) == f"drift: {ref['n_states']} states, {fails} failures",
           f"summary {last_line(res.stdout)!r}")


def check_appendix(op: Op, res: OpResult, out: str) -> None:
    ref = op.ref
    expect_exit(res, 0)
    expect(last_line(res.stdout) == f"appendix: {ref['applicable']} applicable checks, 0 failures",
           f"summary {last_line(res.stdout)!r}")
    rows = read_csv(out)[1:]
    expect(len(rows) == 5 * ref["n_states"], f"{len(rows)} appendix rows")
    expect(sum(1 for r in rows if r[-1] == "pass") == ref["applicable"], "applicable count")
    expect(all(r[-1] in ("pass", "skipped") for r in rows), "an appendix row failed")


# ---------------------------------------------------------------- workloads

def operations(workload: str, seed: int, reference: dict) -> list[Op]:
    """The operations of one pass of a workload, in order."""
    if workload == "chain":
        ops = []
        for weight, cap, _ in CHAIN:
            name = f"mixed-{weight}-cap{cap}"
            ops.append(Op(f"stationary/{name}", "stationary", name, check_stationary,
                          reference["stationary"][name],
                          known_defect="ROADMAP 5d: power solve stops above its residual target"
                          if weight == "w2" else None))
        return ops
    if workload == "engine":
        sim_ref = {"T": SIM_T, "every": SIM_EVERY, "replicas": SIM_REPLICAS,
                   "sup_norm_pmf_even": reference["triangle_w2_sup_norm_pmf_even"]}
        return [
            Op("simulate/triangle-w2", "simulate", "triangle-w2", check_simulate, sim_ref,
               args=("--seed", str(seed))),
            Op("sweep/w1", "sweep", "sweep-w1", check_sweep,
               dict(reference["sweep"], T=SWEEP_T), args=("--seed", str(seed))),
        ]
    if workload == "certify":
        ball = ("--max-norm", str(MAX_NORM))
        return [
            Op("ncond/wide", "ncond", "wide", check_ncond, reference["ncond_wide"]),
            Op("ncond/float-sign", "ncond", "float-sign", check_ncond,
               reference["ncond_float_sign"],
               known_defect="ROADMAP 5a: float rounding certifies a critical model"),
            Op("drift/mixed-w2", "drift", "mixed-w2", check_drift, reference["drift"], args=ball),
            Op("drift/triangle-w2-corrupt", "drift", "triangle-w2", check_corrupt,
               {"n_states": (CORRUPT_MAX_NORM + 1) ** 3},
               args=("--max-norm", str(CORRUPT_MAX_NORM)), trailing=("--corrupt-kernel",)),
            Op("appendix/mixed-w2", "appendix", "mixed-w2", check_appendix,
               reference["appendix"], args=ball),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def write_configs(workdir: str) -> None:
    for stem, doc in configs().items():
        with open(os.path.join(workdir, stem + ".json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def run_check(op: Op, res: OpResult, workdir: str) -> str | None:
    """None when the operation's output is right, else the reason it is not."""
    try:
        op.check(op, res, op.out_path(workdir))
    except Mismatch as exc:
        return str(exc)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None
