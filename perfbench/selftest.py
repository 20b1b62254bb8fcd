"""Self-test of the benchmark's harness and output checker.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It verifies that
  * every workload prints every metric BENCHMARK.json names, with its unit,
    untraced and traced, and that only operations tagged as known defects fail;
  * deliberately wrong outputs (a perturbed pi, a broken count invariant, a
    wrong law of the final state, flipped verdicts, wrong exit codes, a lost
    row) are each counted as failed by the checker;
  * the benchmark exits non-zero without a result when the package is absent.
Exit code 0 means every check held.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import worker  # noqa: E402
import workloads  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {msg}")


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metrics_emitted() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        ops = workloads.operations(workload, 1, workloads.load_reference())
        defects = sum(op.known_defect is not None for op in ops)
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            res = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                        "--trace", str(trace))
            require(res.returncode == 0, f"{workload} trace {trace} exited {res.returncode}: "
                    f"{res.stderr[-500:]}")
            doc = json.loads(res.stdout.strip().splitlines()[-1])
            require(set(doc) == RESULT_KEYS, f"result keys {sorted(doc)}")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in doc["metrics"].items()}
            require(got == want, f"{workload} trace {trace}: metrics {got} != {want}")
            require(doc["correct"] is True, f"{workload} trace {trace}: incorrect\n{res.stdout}")
            passes = doc["attempted"] // len(ops)
            require(doc["attempted"] == passes * len(ops) and passes >= 1 + trace,
                    f"{workload}: {doc['attempted']} ops attempted")
            require(doc["failed"] <= passes * defects, f"{workload}: unexpected failures")
            print(f"ok  {workload} trace {trace}: {len(got)} metrics, "
                  f"{doc['failed']}/{doc['attempted']} failed")


def rewrite_csv(path: str, edit) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def rewrite_json(path: str, edit) -> None:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def set_cell(r: int, c: int, value: str):
    def edit(rows):
        rows[r][c] = value
        return rows
    return edit


def bump_cell(r: int, c: int):
    def edit(rows):
        rows[r][c] = str(int(rows[r][c]) + 1)
        return rows
    return edit


def skewed_finals(rows):
    """Every replica ends at (10, 0, 0): a legal state, so only the law of
    the final sup norm is wrong."""
    head = rows[0]
    col = {h: k for k, h in enumerate(head)}
    T = max(int(r[col["t"]]) for r in rows[1:])
    for r in rows[1:]:
        if int(r[col["t"]]) == T:
            r[col["x_a"]], r[col["x_b"]], r[col["x_c"]] = "10", "0", "0"
            r[col["sup_norm"]], r[col["perfect"]] = "10", "0"
            r[col["matched_pairs"]] = str((T - 10) // 2)
    return rows


def flip(key: str):
    def edit(doc):
        doc[key] = not doc[key]
    return edit


# (operation, description, how the output is made wrong).  A perturbation
# edits the output file, or, given as a dict, replaces fields of the result.
PERTURBATIONS = {
    "stationary/mixed-w1-cap4": [
        ("perturbed pi", lambda p: rewrite_csv(p, set_cell(1, -1, "0.05"))),
        ("lost pi row", lambda p: rewrite_csv(p, lambda rows: rows[:-1])),
        ("check failed", {"code": 1}),
    ],
    "simulate/triangle-w2": [
        ("broken count invariant", lambda p: rewrite_csv(p, bump_cell(2, 2))),
        ("wrong law of the final state", lambda p: rewrite_csv(p, skewed_finals)),
    ],
    "sweep/w1": [
        ("flipped ncond", lambda p: rewrite_csv(p, set_cell(3, 2, "0"))),
        ("wrong eta", lambda p: rewrite_csv(p, set_cell(1, 1, "0.5"))),
    ],
    "ncond/wide": [
        ("flipped verdict", lambda p: rewrite_json(p, flip("ncond"))),
        ("wrong exact eta", lambda p: rewrite_json(p, lambda d: d.update(eta_exact="1/8"))),
    ],
    "drift/mixed-w2": [
        ("failing row", lambda p: rewrite_csv(p, set_cell(5, -1, "fail"))),
        ("exit 1", {"code": 1}),
    ],
    "drift/triangle-w2-corrupt": [
        ("control passed", {"code": 0}),
    ],
    "appendix/mixed-w2": [
        ("lost row", lambda p: rewrite_csv(p, lambda rows: rows[:-1])),
        ("traceback", {"code": None, "error": "RuntimeError: boom"}),
    ],
}


def check_perturbations() -> None:
    from sbmatch import analyze, cli, kernel, model, policy, simulate

    modules = (analyze, cli, kernel, model, policy, simulate)
    reference = workloads.load_reference()
    workdir = os.path.join(ROOT, ".perfbench_work", f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workloads.write_configs(workdir)
        for workload in workloads.WORKLOADS:
            for op in workloads.operations(workload, 3, reference):
                _, res = worker.run_op(cli.main, op, workdir, modules)
                reason = workloads.run_check(op, res, workdir)
                if op.known_defect:
                    continue
                require(reason is None, f"{op.name} failed on the real output: {reason}")
                out = op.out_path(workdir)
                with open(out, "rb") as fh:
                    original = fh.read()
                for label, how in PERTURBATIONS[op.name]:
                    if isinstance(how, dict):
                        wrong = workloads.OpResult(**dict(vars(res), **how))
                    else:
                        how(out)
                        wrong = res
                    reason = workloads.run_check(op, wrong, workdir)
                    require(reason is not None, f"{op.name}: {label} passed the check")
                    print(f"ok  {op.name}: {label} -> {reason}")
                    with open(out, "wb") as fh:
                        fh.write(original)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_fails_without_package() -> None:
    bare = os.path.join(ROOT, ".perfbench_work", f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        res = bench("--workload", "chain", "--seed", "1", "--seconds", "1", "--trace", "0",
                    cwd=bare)
        require(res.returncode != 0, "ran without the package")
        require("{" not in res.stdout, f"printed a result without the package: {res.stdout}")
        print(f"ok  no package: exit {res.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(bare))


def main() -> int:
    check_perturbations()
    check_metrics_emitted()
    check_fails_without_package()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
