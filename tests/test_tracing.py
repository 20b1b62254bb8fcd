"""The benchmark's layer tracer wraps package attributes by name; each one
must still exist, or a traced benchmark run breaks."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_attribute_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for mod, attr in [*tracing.SPANS, *tracing.COUNTS]:
        module = importlib.import_module(f"sbmatch.{mod}")
        assert callable(getattr(module, attr, None)), f"sbmatch.{mod}.{attr}"
