"""sbmatch benchmark: times the CLI verbs the way users run them.

    python3 perfbench/run.py --workload chain|engine|certify --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
The workload runs in a fresh, single-threaded process (worker.py) for about
``--seconds`` seconds of passes over its CLI operations, each checked
against recorded reference outputs.  Set-up (interpreter start, ``import
sbmatch``, configs written) is timed for that process and for further fresh
interpreters started between passes; ``setup_s`` is the median, taken at
the reference speed like ``pass_s``.

With ``--trace 0`` the result holds the end-to-end metrics: ``setup_s``,
``pass_s`` (seconds of one pass over the workload's operations, each at its
median over the run and taken at a fixed reference speed of the machine, see
``op_seconds``), ``peak_rss_mb`` and ``ok_frac`` (operations with
the right exit code and output, over operations attempted).  With
``--trace 1`` it holds per-verb times and the per-layer attribution of a
traced run (see tracing.py).

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Operations that reproduce a
recorded defect count in ``failed``; only other failures make ``correct``
false.  The exit code is 0 when a result was printed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import numpy  # noqa: E402
import workloads  # noqa: E402
from worker import reference_loop  # noqa: E402

# Fresh interpreters timed for setup_s, the workload's own worker included.
SETUP_PROBES = 7
# Seconds of worker.reference_loop at the reference speed: its median on the
# machine the baseline in README.md was measured on.
REF_LOOP_S = 0.0120
REF_ARRAY = numpy.arange(1 << 15, dtype=numpy.float64)
# Every child is killed once the whole run has taken this long.
DEADLINE_S = 170.0
VERBS = ("stationary", "simulate", "sweep", "ncond", "drift", "appendix")
# BLAS and OpenMP pools pinned to one thread: the benchmark measures the
# single-threaded program, and idle pool threads add noise on small machines.
SINGLE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ, **SINGLE_THREAD)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Worker:
    """A worker process; ``seconds`` is how long it took to become ready, and
    ``ref_s`` the mean time of reference loops run here just before and after."""

    def __init__(self, args, workdir: str, setup_only: bool, started: float):
        cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
               "--workdir", workdir]
        if setup_only:
            cmd.append("--setup-only")
        self.started = started
        before = reference_loop(REF_ARRAY)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.expect("ready")
        self.seconds = time.perf_counter() - t0
        self.ref_s = (before + reference_loop(REF_ARRAY)) / 2

    def expect(self, word: str) -> None:
        left = DEADLINE_S - (time.perf_counter() - self.started)
        ready, _, _ = select.select([self.proc.stdout], [], [], max(left, 0.0))
        line = self.proc.stdout.readline() if ready else ""
        if line != word + "\n":
            self.stop()
            raise BenchError(f"worker sent {line!r} instead of {word!r} "
                             f"(exit {self.proc.returncode}); is src/sbmatch importable?")

    def run_pass(self, traced: bool) -> float:
        t0 = time.perf_counter()
        self.proc.stdin.write(f"pass {int(traced)}\n")
        self.proc.stdin.flush()
        self.expect("done")
        return time.perf_counter() - t0

    def report(self) -> dict:
        left = DEADLINE_S - (time.perf_counter() - self.started)
        try:
            out, _ = self.proc.communicate("end\n", timeout=max(left, 1.0))
        except subprocess.TimeoutExpired:
            self.stop()
            raise BenchError("worker overran the deadline") from None
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with {self.proc.returncode}")
        return json.loads(out.splitlines()[-1])

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def setup_sample(args, workdir: str, started: float) -> tuple[float, float]:
    probe = Worker(args, workdir, True, started)
    probe.stop()
    return probe.seconds, probe.ref_s


def measure(args, workdir: str, started: float) -> tuple[list[tuple[float, float]], dict]:
    """Run passes for about ``args.seconds``, with the set-up probes spread
    over the run so that they sample the machine at the same moments.
    A set-up sample is (seconds, reference loop seconds)."""
    worker = Worker(args, workdir, False, started)
    setup = [(worker.seconds, worker.ref_s)]
    try:
        t0 = time.perf_counter()
        walls: list[float] = []
        while True:
            elapsed = time.perf_counter() - t0
            if len(setup) < SETUP_PROBES and elapsed >= args.seconds * len(setup) / SETUP_PROBES:
                setup.append(setup_sample(args, workdir, started))
            walls.append(worker.run_pass(bool(args.trace) and len(walls) % 2 == 1))
            # Stop before a pass would overrun; traced and untraced passes
            # alternate, so predict from the longer of the last two.
            enough = len(walls) >= (2 if args.trace else 1)
            if enough and time.perf_counter() - t0 + max(walls[-2:]) > args.seconds:
                break
        report = worker.report()
    finally:
        worker.stop()
    while len(setup) < SETUP_PROBES:  # a run too short to spread them
        setup.append(setup_sample(args, workdir, started))
    return setup, report


def op_seconds(passes: list[dict], wall: bool = False) -> dict[str, tuple[str, float]]:
    """Each operation's median time over the passes, with its verb.

    A time is taken at the reference speed: divided by the time of the
    reference loop run around it (see worker.py), times ``REF_LOOP_S``.  On
    small shared machines an operation's wall time swings by half with the
    load of other tenants, and the reference loop swings with it; their ratio
    moves far less.  ``wall`` gives plain wall seconds instead.
    """
    times: dict[str, list[float]] = {}
    verbs: dict[str, str] = {}
    for p in passes:
        for r in p["ops"]:
            scale = 1.0 if wall else REF_LOOP_S / r["ref_s"]
            times.setdefault(r["op"], []).append(r["seconds"] * scale)
            verbs[r["op"]] = r["verb"]
    return {op: (verbs[op], statistics.median(ts)) for op, ts in times.items()}


def pass_seconds(passes: list[dict], verb: str | None = None, wall: bool = False) -> float:
    return sum(s for v, s in op_seconds(passes, wall).values() if verb in (None, v))


def end_to_end(setup: list[tuple[float, float]], report: dict) -> dict:
    plain = [p for p in report["passes"] if not p["traced"]]
    ops = [r for p in report["passes"] for r in p["ops"]]
    return {
        "setup_s": (statistics.median(s * REF_LOOP_S / ref for s, ref in setup), "s"),
        "pass_s": (pass_seconds(plain), "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        "ok_frac": (sum(r["failure"] is None for r in ops) / len(ops), "ratio"),
    }


def per_layer(setup: list[tuple[float, float]], report: dict) -> dict:
    plain = [p for p in report["passes"] if not p["traced"]]
    traced = [p for p in report["passes"] if p["traced"]]
    out = {f"verb.{verb}_s": (pass_seconds(plain, verb), "s") for verb in VERBS}
    out["pass_wall_s"] = (pass_seconds(plain, wall=True), "s")
    out["setup_wall_s"] = (statistics.median(s for s, _ in setup), "s")
    out["host.ref_loop_s"] = (statistics.median(r["ref_s"] for p in plain for r in p["ops"]), "s")
    # Layers as seen by the fastest traced pass, the one least disturbed by
    # other load.  Their times are wall seconds, not taken at reference speed.
    quiet = min(traced, key=lambda p: sum(r["seconds"] for r in p["ops"]))
    out.update((k, tuple(v)) for k, v in quiet["layers"].items())
    out["cli.rows_written"] = (sum(r["rows"] for r in quiet["ops"]), "count")
    out["trace.overhead_s"] = (pass_seconds(traced) - pass_seconds(plain), "s")
    return out


def summarize(args, setup: list[tuple[float, float]], report: dict) -> dict:
    ops = [r for p in report["passes"] for r in p["ops"]]
    failed = [r for r in ops if r["failure"] is not None]
    metrics = per_layer(setup, report) if args.trace else end_to_end(setup, report)
    passes = report["passes"]
    print(f"workload {args.workload} (seed {args.seed}): "
          f"{len(passes)} passes, {sum(p['traced'] for p in passes)} traced")
    median = op_seconds([p for p in passes if not p["traced"]])
    for r in passes[-1]["ops"]:
        verdict = "ok" if r["failure"] is None else f"FAIL: {r['failure']}"
        if r["failure"] is not None and r["known_defect"]:
            verdict += f" [known defect, {r['known_defect']}]"
        print(f"  {r['op']:<28} {median[r['op']][1]:9.4f} s  {verdict}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:.6g} {unit}")
    return {
        "correct": all(r["known_defect"] for r in failed),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    started = time.perf_counter()
    if not os.path.isdir(os.path.join(ROOT, "src", "sbmatch")):
        print("perfbench: no src/sbmatch next to perfbench/; run from a checkout", file=sys.stderr)
        return 1
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        setup, report = measure(args, workdir, started)
        result = summarize(args, setup, report)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            os.rmdir(os.path.dirname(workdir))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
