"""Layer attribution for the traced run, from outside the package.

The tracer replaces module attributes at the layer boundaries with wrappers
that record a span (calls, inclusive time, self time) or, where a boundary
is too hot to time, only a call count.  Wrappers go in for a traced pass and
come out after it; untraced passes run the unmodified package.  Each traced
pass gets a fresh tracer, which aggregates its spans and counts in memory.

A span's self time is its duration minus the durations of the spans it
directly contains.  Each CLI verb is one root span named ``cli``, so the
``cli`` self time is argument and config parsing plus CSV/JSON writing.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

# (module, attribute) -> span name.  Names are "layer.function"; two
# attributes that reach the same function share a name.
SPANS = {
    ("cli", "stability"): "model.stability",
    ("cli", "make_policy"): "policy.make_policy",
    ("analyze", "truncate"): "analyze.truncate",
    ("analyze", "stationary"): "analyze.stationary",
    ("analyze", "eta_sweep"): "analyze.eta_sweep",
    ("analyze", "transition_row"): "kernel.transition_row",
    ("analyze", "run"): "simulate.run",
    ("simulate", "run"): "simulate.run",
    ("kernel", "drift_q"): "kernel.drift_q",
    ("kernel", "check_main_drift"): "kernel.check_main_drift",
    ("kernel", "verify_drift_chain"): "kernel.verify_drift_chain",
    ("kernel", "transition_row"): "kernel.transition_row",
}
# Called once per state per arrival class, or once per arrival: counted only.
COUNTS = {
    ("kernel", "select_class"): "policy.select_class",
    ("simulate", "select_class"): "policy.select_class",
}


def _seen_stability(tr: "Tracer", rep) -> None:
    tr.values["model.independent_sets"] += len(rep.independent_sets)


def _seen_truncate(tr: "Tracer", chain) -> None:
    tr.values["analyze.states"] += chain.n_states
    tr.values["analyze.nnz"] += chain.P.nnz


def _seen_stationary(tr: "Tracer", est) -> None:
    tr.values["analyze.iterations"] += est.iterations
    tr.maxima["analyze.residual"] = max(tr.maxima["analyze.residual"], est.residual)
    tr.maxima["analyze.boundary_mass"] = max(tr.maxima["analyze.boundary_mass"],
                                             est.boundary_mass)


def _seen_run(tr: "Tracer", traj) -> None:
    tr.values["simulate.arrivals"] += traj.T


# What each span saw, read from its return value.
SEEN = {
    "model.stability": _seen_stability,
    "analyze.truncate": _seen_truncate,
    "analyze.stationary": _seen_stationary,
    "simulate.run": _seen_run,
}


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.values: defaultdict = defaultdict(float)
        self.maxima: defaultdict = defaultdict(float)
        self._open: list[float] = []  # time covered by children of each open span
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn):
        seen = SEEN.get(name)

        def traced(*args, **kwargs):
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = time.perf_counter() - t0
                children = self._open.pop()
                self.calls[name] += 1
                self.total_s[name] += d
                self.self_s[name] += d - children
                if self._open:
                    self._open[-1] += d
            if seen is not None:
                seen(self, result)
            return result

        return traced

    def counter(self, name: str, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, modules: dict) -> None:
        """Wrap the boundaries; ``modules`` maps short names to sbmatch modules."""
        for table, wrap in ((SPANS, self.span), (COUNTS, self.counter)):
            for (mod, attr), name in table.items():
                module = modules[mod]
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, wrap(name, original))

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Layer metrics (value, unit) of one traced pass.  Layers the workload
    does not reach read 0."""
    c, tot, own, val = tr.calls, tr.total_s, tr.self_s, tr.values
    sweeps = c["kernel.check_main_drift"] + c["kernel.verify_drift_chain"]
    sweep_s = tot["kernel.check_main_drift"] + tot["kernel.verify_drift_chain"]
    return {
        "cli.self_s": (own["cli"], "s"),
        "model.stability_s": (own["model.stability"], "s"),
        "model.independent_sets": (val["model.independent_sets"], "count"),
        "policy.make_policy_s": (own["policy.make_policy"], "s"),
        "policy.select_class_calls": (c["policy.select_class"], "count"),
        "kernel.transition_row_calls": (c["kernel.transition_row"], "count"),
        "kernel.transition_row_s": (own["kernel.transition_row"], "s"),
        "kernel.drift_q_calls": (c["kernel.drift_q"], "count"),
        "kernel.drift_q_s": (own["kernel.drift_q"], "s"),
        "kernel.check_main_drift_s": (own["kernel.check_main_drift"], "s"),
        "kernel.verify_drift_chain_s": (own["kernel.verify_drift_chain"], "s"),
        "kernel.drift_states_per_s": (_rate(sweeps, sweep_s), "1/s"),
        "simulate.run_calls": (c["simulate.run"], "count"),
        "simulate.run_s": (own["simulate.run"], "s"),
        "simulate.arrivals_per_s": (_rate(val["simulate.arrivals"], tot["simulate.run"]), "1/s"),
        "analyze.truncate_s": (own["analyze.truncate"], "s"),
        "analyze.states": (val["analyze.states"], "count"),
        "analyze.nnz": (val["analyze.nnz"], "count"),
        "analyze.truncate_states_per_s": (_rate(val["analyze.states"], tot["analyze.truncate"]), "1/s"),
        "analyze.stationary_s": (own["analyze.stationary"], "s"),
        "analyze.iterations": (val["analyze.iterations"], "count"),
        "analyze.residual": (tr.maxima["analyze.residual"], "1"),
        "analyze.boundary_mass": (tr.maxima["analyze.boundary_mass"], "1"),
        "analyze.eta_sweep_s": (own["analyze.eta_sweep"], "s"),
    }
