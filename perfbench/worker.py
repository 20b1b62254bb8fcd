"""One workload in a fresh, single-threaded process (started by run.py).

The worker imports sbmatch, writes the workload's configs, prints ``ready``
and then runs one pass over the workload's operations for each ``pass``
line on stdin, answering ``done``.  Each operation calls ``sbmatch.cli.main(argv)``
in this process, with the package's caches cleared first, so that every call
costs what a separate ``sbmatch`` command would, apart from the import that
``setup_s`` measures.  ``pass 1`` runs the pass traced.  After ``end`` the
worker prints a JSON record of every pass.

A fixed reference loop runs before the first operation of a pass and after
each operation.  Each operation is recorded with the mean time of the two
loops around it, so that run.py can express its time relative to the speed
the machine had at that moment.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402


def reference_loop(array) -> float:
    """Seconds taken by a fixed mix of interpreter and numpy work.

    The mix resembles the package's own: short Python loops over small lists
    and dicts, and many small numpy calls, here strided sums over ``array``
    (256 KB, which stays in cache).  On a shared machine the loop slows down
    and speeds up with the operations next to it, so their ratio is far
    steadier than either time.  A variant that summed a 4 MB array tracked
    the operations three times worse: they are not bound by memory bandwidth.
    """
    t0 = time.perf_counter()
    for _ in range(3):
        x = [0, 0, 0, 0]
        counts: dict[int, int] = {}
        for i in range(4000):
            best, bw = 0, -1
            for j in range(4):
                if x[j] > bw:
                    best, bw = j, x[j]
            x[best] = x[best] + 1 if i % 3 else max(x[best] - 2, 0)
            counts[i % 61] = counts.get(i % 61, 0) + best
        total = 0.0
        for k in range(300):
            total += float(array[k % 20::20].sum())
    return time.perf_counter() - t0


def clear_caches(modules) -> None:
    for module in modules:
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def rows_written(op: workloads.Op, workdir: str) -> int:
    """Data rows of a verb's output: CSV lines after the header, or the
    independent sets listed in an ncond report."""
    path = op.out_path(workdir)
    if not os.path.exists(path):
        return 0
    if op.verb == "ncond":
        with open(path, encoding="utf-8") as fh:
            return len(json.load(fh).get("independent_sets") or ())
    with open(path, encoding="utf-8") as fh:
        return max(sum(1 for _ in fh) - 1, 0)


def run_op(main, op: workloads.Op, workdir: str, modules) -> tuple[float, workloads.OpResult]:
    with contextlib.suppress(FileNotFoundError):
        os.remove(op.out_path(workdir))  # a failed call must not leave an old file to check
    clear_caches(modules)
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(op.argv(workdir))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an escaping exception is the op's outcome, not ours
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    return seconds, workloads.OpResult(code, out.getvalue(), err.getvalue(), error)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import numpy
    from sbmatch import analyze, cli, kernel, model, policy, simulate

    modules = {"analyze": analyze, "cli": cli, "kernel": kernel, "model": model,
               "policy": policy, "simulate": simulate}
    reference = workloads.load_reference()
    workloads.write_configs(args.workdir)
    ops = workloads.operations(args.workload, args.seed, reference)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    ref_array = numpy.arange(1 << 15, dtype=numpy.float64)
    # Everything alive now lives as long as the process; frozen, it is no
    # longer scanned by the collections that run_op makes before each call.
    gc.freeze()

    passes = []
    for line in sys.stdin:  # "pass 0", "pass 1" (traced) or "end", from run.py
        if line.split()[0] != "pass":
            break
        traced = line.split()[1] == "1"
        if traced:
            tracer = tracing.Tracer()
            tracer.install(modules)
            entry = tracer.span("cli", cli.main)
        else:
            entry = cli.main
        try:
            records = []
            ref_before = reference_loop(ref_array)
            for op in ops:
                seconds, res = run_op(entry, op, args.workdir, modules.values())
                ref_after = reference_loop(ref_array)
                reason = workloads.run_check(op, res, args.workdir)
                records.append({"op": op.name, "verb": op.verb, "seconds": seconds,
                                "ref_s": (ref_before + ref_after) / 2,
                                "failure": reason, "known_defect": op.known_defect,
                                "rows": rows_written(op, args.workdir) if traced else 0})
                ref_before = ref_after
        finally:
            if traced:
                tracer.remove()
        passes.append({"traced": traced, "ops": records,
                       "layers": tracing.layer_metrics(tracer) if traced else {}})
        print("done", flush=True)

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"passes": passes, "peak_rss_mb": peak}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
