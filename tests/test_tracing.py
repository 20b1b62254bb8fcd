"""The benchmark's layer tracer wraps package attributes by name and reads
fields of their return values; each one must still exist, or a traced
benchmark run breaks."""

import ast
import importlib
import importlib.util
from pathlib import Path

from sbmatch import make_policy, run, scenarios, stability, stationary, truncate

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


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


def test_every_unused_import_is_one_the_tracer_wraps():
    # an import kept with "noqa: F401" exists only so that the tracer can wrap
    # it by name; once the tracer drops the pair, this names the dead import
    tracing = load_tracing()
    traced = {*tracing.SPANS, *tracing.COUNTS}
    kept = []
    for path in sorted((ROOT / "src" / "sbmatch").glob("*.py")):
        lines = path.read_text().splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    "noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                kept += [(path.stem, (a.asname or a.name).split(".")[0]) for a in node.names]
    assert [pair for pair in kept if pair not in traced] == []


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
