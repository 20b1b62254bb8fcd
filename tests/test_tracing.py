"""The benchmark's layer tracer wraps package attributes by name and reads
fields of their return values; each one must still exist, or a traced
benchmark run breaks."""

import importlib
import importlib.util
from pathlib import Path

from sbmatch import make_policy, run, scenarios, stability, stationary, truncate

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_attribute_exists():
    tracing = load_tracing()
    for mod, attr in [*tracing.SPANS, *tracing.COUNTS]:
        module = importlib.import_module(f"sbmatch.{mod}")
        assert callable(getattr(module, attr, None)), f"sbmatch.{mod}.{attr}"


def test_every_seen_hook_reads_a_real_result():
    tracing = load_tracing()
    spec = scenarios.triangle()
    policy = make_policy(spec)
    chain = truncate(spec, policy, 3)
    results = {"model.stability": stability(spec), "analyze.truncate": chain,
               "analyze.stationary": stationary(chain), "simulate.run": run(spec, policy, 50, 1)}
    assert set(tracing.SEEN) == set(results)
    tr = tracing.Tracer()
    for name, seen in tracing.SEEN.items():
        seen(tr, results[name])
    layers = tracing.layer_metrics(tr)
    assert layers["analyze.states"][0] == chain.n_states
    assert layers["analyze.iterations"][0] == results["analyze.stationary"].iterations > 0
