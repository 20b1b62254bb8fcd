"""Cold-start checks, each in a fresh interpreter: importing the package and
running the verbs that do no sparse linear algebra must not load scipy, and
the one verb that does (stationary) must find its deferred imports and load
scipy.sparse alone, without scipy.sparse.linalg or scipy.sparse.csgraph."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

TRIANGLE = {"classes": ["a", "b", "c"], "nu": ["1/3", "1/3", "1/3"],
            "rho": [[0.0, 0.3, 0.3], [0.3, 0.0, 0.3], [0.3, 0.3, 0.0]]}

# Runs in the fresh interpreter: the verbs through cli.main, then the list
# of scipy modules they left loaded.
SCIPY_FREE_VERBS = """
import json, os, sys
import sbmatch, sbmatch.cli
workdir, cfg = sys.argv[1], os.path.join(sys.argv[1], "cfg.json")
# (arguments, exit code); the negative control's sweep fails by design from
# radius 5 on (at radius 3 it still passes on this model)
runs = [(["ncond"], 0), (["--max-norm", "3", "drift"], 0), (["--max-norm", "3", "appendix"], 0),
        (["--max-norm", "6", "drift", "--corrupt-kernel"], 1),
        (["--seed", "1", "simulate"], 0), (["--seed", "1", "sweep"], 0)]
for k, (argv, expected) in enumerate(runs):
    out = os.path.join(workdir, f"{k}.out")
    code = sbmatch.cli.main(["--config", cfg, "--out", out, *argv])
    assert code == expected, (argv, code)
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def fresh_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_import_and_scipy_free_verbs_load_no_scipy(tmp_path):
    doc = {"model": TRIANGLE, "policy": {"weight": "w2", "n_check": 50},
           "run": {"T": 50, "replicas": 2, "sample_every": 10},
           "sweep": {"models": [{"id": "t", "model": TRIANGLE}], "T": 50, "replicas": 2}}
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    proc = fresh_python(["-c", SCIPY_FREE_VERBS, str(tmp_path)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_stationary_loads_its_solver_from_a_cold_start(tmp_path):
    doc = {"model": TRIANGLE, "analyze": {"cap": 2}}
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    out = tmp_path / "pi.csv"
    proc = fresh_python(["-m", "sbmatch.cli", "--config", "cfg.json", "--out", str(out),
                         "stationary"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["n_states"] == 27
    assert len(out.read_text().splitlines()) == 1 + 27


# Runs in the fresh interpreter: stationary through cli.main, then
# reachable_check, each followed by the scipy modules loaded so far.
STATIONARY_THEN_REACHABILITY = """
import json, sys
import sbmatch.cli
from sbmatch import make_policy, reachable_check, scenarios
def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
code = sbmatch.cli.main(["--config", sys.argv[1], "--out", sys.argv[2], "stationary"])
assert code == 0, code
after_stationary = loaded()
tri = scenarios.triangle()
assert reachable_check(tri, make_policy(tri), 4).all_return
print(json.dumps([after_stationary, loaded()]))
"""


def test_stationary_and_reachability_load_neither_linalg_nor_csgraph(tmp_path):
    doc = {"model": TRIANGLE, "analyze": {"cap": 2}}
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    proc = fresh_python(["-c", STATIONARY_THEN_REACHABILITY, "cfg.json", "pi.csv"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    after_stationary, after_reachability = json.loads(proc.stdout.splitlines()[-1])
    assert "scipy.sparse" in after_stationary
    for loaded in (after_stationary, after_reachability):
        for heavy in ("scipy.sparse.linalg", "scipy.sparse.csgraph"):
            assert not [m for m in loaded if m == heavy or m.startswith(heavy + ".")], heavy
