"""End-to-end checks of the command line verbs on temp-file configs."""

import csv
import gc
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import astuple, fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sbmatch import analyze, kernel, simulate
from sbmatch.cli import ConfigError, load_config, main
from sbmatch.model import ENUMERATION_CAP, make_spec, stability, walk_spec
from sbmatch.policy import make_policy

from conftest import random_model

SRC = str(Path(__file__).resolve().parents[1] / "src")


def triangle_cfg():
    return {
        "model": {
            "classes": ["a", "b", "c"],
            "nu": ["1/3", "1/3", "1/3"],
            "rho": [[0.0, 0.3, 0.3], [0.3, 0.0, 0.3], [0.3, 0.3, 0.0]],
        },
        "run": {"T": 400, "replicas": 2, "base_seed": 11, "sample_every": 100},
    }


def write_cfg(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_config_fractions_weight_alpha(tmp_path):
    doc = triangle_cfg()
    doc["policy"] = {"weight": "w2", "alpha": ["b", "a", "c"], "n_check": 500}
    cfg = load_config(write_cfg(tmp_path, doc))
    assert cfg.spec.nu_exact == (Fraction(1, 3),) * 3
    assert cfg.weight.name == "w2"
    # priority list b > a > c, stored as per-class values with the largest first
    assert cfg.alpha == (2, 3, 1)
    assert cfg.run.T == 400 and cfg.run.base_seed == 11


def test_config_rejections(tmp_path):
    bad = triangle_cfg()
    bad["policy"] = {"alpha": ["a", "b"]}
    with pytest.raises(ConfigError, match="alpha"):
        load_config(write_cfg(tmp_path, bad, "a.json"))
    bad = triangle_cfg()
    bad["policy"] = {"weight": "w9"}
    with pytest.raises(ConfigError, match="weight"):
        load_config(write_cfg(tmp_path, bad, "b.json"))
    bad = triangle_cfg()
    bad["model"]["nu"] = ["1/3", "1/3", "nope"]
    with pytest.raises(ConfigError, match="nu"):
        load_config(write_cfg(tmp_path, bad, "c.json"))
    with pytest.raises(ConfigError, match="model"):
        load_config(write_cfg(tmp_path, {"run": {}}, "d.json"))
    # labels the outputs would print alike: the header's x_1 twice
    bad = triangle_cfg()
    bad["model"]["classes"] = [1, "1", "c"]
    with pytest.raises(ConfigError, match="print differently, '1' repeats"):
        load_config(write_cfg(tmp_path, bad, "e.json"))
    assert main(["--config", str(tmp_path / "missing.json"), "ncond"]) == 2


def test_ncond_report(tmp_path, capsys):
    out = tmp_path / "ncond.json"
    assert main(["--config", write_cfg(tmp_path, triangle_cfg()),
                 "--out", str(out), "ncond"]) == 0
    doc = json.loads(out.read_text())
    assert doc["ncond"] is True
    assert doc["eta"] == pytest.approx(1 / 3)
    assert doc["eta_exact"] == "1/3"
    assert doc["independent_sets"] == [["a"], ["b"], ["c"]]
    assert len(doc["minimizer"]) == 1
    assert doc["walk"]["mu"] == pytest.approx(-1 / 3)
    assert doc["walk"]["sigma2"] > 0.0


def test_ncond_without_independent_sets(tmp_path):
    doc = {"model": {"classes": ["s"], "nu": ["1"], "rho": [[0.7]]}}
    out = tmp_path / "solo.json"
    assert main(["--config", write_cfg(tmp_path, doc),
                 "--out", str(out), "ncond"]) == 0
    rep = json.loads(out.read_text())
    assert rep["eta"] == "inf"
    assert rep["ncond"] is True
    assert rep["independent_sets"] == []
    assert rep["minimizer"] is None and rep["walk"] is None


def encoded_ncond(spec) -> str:
    """The ncond report as json.dumps(doc, sort_keys=True, indent=2) writes
    it, with the document built from the API."""
    stab = stability(spec)

    def labels(members):
        return [str(spec.classes[i]) for i in sorted(members)]

    doc = {
        "classes": [str(c) for c in spec.classes],
        "eta": "inf" if math.isinf(stab.eta) else stab.eta,
        "eta_exact": str(stab.eta_exact) if stab.eta_exact is not None else None,
        "ncond": stab.ncond,
        "independent_sets": [labels(s) for s in stab.independent_sets],
        "minimizer": labels(stab.minimizer) if stab.minimizer is not None else None,
        "walk": None,
    }
    if stab.minimizer is not None:
        ws = walk_spec(spec, stab.minimizer)
        doc["walk"] = {"set": labels(ws.independent_set), "mu": ws.mu,
                       "sigma2": ws.sigma2, "c_bound": ws.c_bound}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# Labels with a quote, a backslash, non-ASCII text and numbers, which the
# listing must quote as json.dumps does.
ODD_LABELS = ['a"b', "c\\d", "\u00e9t\u00e9", "\u65e5\u672c", "tab\tnl\n", "", 7, 2.5, "x", "y"]


def test_ncond_bytes_equal_the_encoders(tmp_path):
    rng = np.random.default_rng(1515)
    models = []
    for k in range(40):
        spec = random_model(rng, max_classes=8)
        C = spec.n_classes
        if k % 4 == 3:  # every class loops, so the listing is empty
            spec = make_spec(spec.classes, spec.nu, [[0.5] * C for _ in range(C)])
        labels = [ODD_LABELS[i] for i in rng.permutation(len(ODD_LABELS))[:C]] if k % 2 \
            else list(spec.classes)
        models.append({"classes": labels, "nu": list(spec.nu),
                       "rho": [list(row) for row in spec.rho]})
    C = len(ODD_LABELS)  # a path without self-loops lists every label
    models.append({"classes": ODD_LABELS, "nu": [f"1/{C}"] * C,
                   "rho": [[0.5 if abs(i - j) == 1 else 0.0 for j in range(C)] for i in range(C)]})
    out = tmp_path / "ncond.json"
    for model in models:
        path = write_cfg(tmp_path, {"model": model})
        assert main(["--config", path, "--out", str(out), "ncond"]) == 0
        assert out.read_bytes() == encoded_ncond(load_config(path).spec).encode()


def test_ncond_above_the_enumeration_cap_exits_2(tmp_path, capsys):
    C = ENUMERATION_CAP + 1
    doc = {"model": {"classes": [f"c{i}" for i in range(C)], "nu": [f"1/{C}"] * C,
                     "rho": [[0.5 if abs(i - j) == 1 else 0.0 for j in range(C)]
                             for i in range(C)]}}
    out = tmp_path / "ncond.json"
    assert main(["--config", write_cfg(tmp_path, doc), "--out", str(out), "ncond"]) == 2
    assert "capped" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_requires_seed(tmp_path, capsys):
    doc = triangle_cfg()
    del doc["run"]["base_seed"]
    assert main(["--config", write_cfg(tmp_path, doc), "simulate"]) == 2
    assert "seed" in capsys.readouterr().err


def test_simulate_csv_is_deterministic(tmp_path):
    doc = triangle_cfg()
    doc["run"]["walk_set"] = ["a"]
    cfg = write_cfg(tmp_path, doc)
    f1, f2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(["--config", cfg, "--out", str(f1), "--seed", "5", "simulate"]) == 0
    assert main(["--config", cfg, "--out", str(f2), "--seed", "5", "simulate"]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    rows = read_csv(f1)
    assert rows[0] == ["replica", "t", "x_a", "x_b", "x_c",
                       "sup_norm", "matched_pairs", "perfect", "walk_S"]
    t0 = [r for r in rows[1:] if r[1] == "0"]
    assert len(t0) == 2  # one start row per replica
    assert all(r[2:7] == ["0", "0", "0", "0", "0"] for r in t0)
    assert {r[7] for r in rows[1:]} <= {"0", "1"}


def test_drift_sweep_and_negative_control(tmp_path, capsys):
    cfg = write_cfg(tmp_path, triangle_cfg())
    out = tmp_path / "drift.csv"
    assert main(["--config", cfg, "--max-norm", "5",
                 "--out", str(out), "drift"]) == 0
    assert "0 failures" in capsys.readouterr().out
    rows = read_csv(out)
    assert rows[0][-1] == "status"
    assert len(rows) == 1 + 6 ** 3
    assert all(r[-1] == "pass" for r in rows[1:])

    assert main(["--config", cfg, "--max-norm", "5",
                 "--out", str(tmp_path / "bad.csv"), "drift", "--corrupt-kernel"]) == 1
    assert "failures" in capsys.readouterr().out
    rows = read_csv(tmp_path / "bad.csv")  # a failed check keeps its whole file
    assert len(rows) == 1 + 6 ** 3 and any(r[-1] == "fail" for r in rows[1:])


@pytest.mark.parametrize("verb", ["ncond", "appendix", "simulate", "stationary", "sweep"])
def test_corrupt_kernel_is_drift_only(tmp_path, capsys, verb):
    out = tmp_path / "out.txt"
    with pytest.raises(SystemExit) as exc:
        main(["--config", write_cfg(tmp_path, triangle_cfg()), "--out", str(out),
              verb, "--corrupt-kernel"])
    assert exc.value.code == 2
    assert "--corrupt-kernel" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb,args,analyze", [
    ("drift", ["--max-norm", "-3"], {}),
    ("appendix", [], {"max_norm": -1}),
], ids=["drift", "appendix"])
def test_negative_sweep_radius_exits_2(tmp_path, capsys, verb, args, analyze):
    doc = dict(triangle_cfg(), analyze=analyze)
    out = tmp_path / "sweep.csv"
    assert main(["--config", write_cfg(tmp_path, doc), "--out", str(out), *args, verb]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "radius" in captured.err
    assert captured.out == "" and not out.exists()


def test_oversize_sweep_ball_exits_2_before_the_sweep(tmp_path, capsys):
    # 15 classes in a chain of linked triangles: 5^15 states at radius 4
    C = 15
    rho = [[0.5 if i != j and (i // 3 == j // 3 or abs(i - j) == 1) else 0.0
            for j in range(C)] for i in range(C)]
    doc = {"model": {"classes": [f"c{i}" for i in range(C)], "nu": [f"1/{C}"] * C, "rho": rho}}
    out = tmp_path / "drift.csv"
    assert main(["--config", write_cfg(tmp_path, doc), "--out", str(out),
                 "--max-norm", "4", "drift"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "exceeds" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("verb", ["drift", "appendix"])
def test_a_sweep_one_state_past_the_box_bound_exits_2(tmp_path, capsys, monkeypatch, verb):
    monkeypatch.setattr(kernel, "BOX_MAX_STATES", 64)
    doc = {"model": {"classes": ["a", "b"], "nu": ["3/5", "2/5"],
                     "rho": [[0.5, 0.5], [0.5, 0.0]]}}
    cfg, out = write_cfg(tmp_path, doc), tmp_path / "sweep.csv"
    assert main(["--config", cfg, "--out", str(out), "--max-norm", "7", verb]) in (0, 1)
    rows = read_csv(out)[1:]
    assert len({tuple(r[:2]) for r in rows}) == 64
    out.unlink()
    capsys.readouterr()
    assert main(["--config", cfg, "--out", str(out), "--max-norm", "8", verb]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: the box {0..8}^2 exceeds 64 states\n"
    assert captured.out == "" and not out.exists()


# numpy's message when it cannot allocate, and a MemoryError without one
OUT_OF_MEMORY = [("Unable to allocate 32.0 GiB for an array with shape (4294967295,) "
                  "and data type float64", None), ("", "out of memory")]


@pytest.mark.parametrize("message,shown", OUT_OF_MEMORY, ids=["numpy", "bare"])
@pytest.mark.parametrize("verb", ["simulate", "sweep", "stationary"])
def test_an_allocation_failure_exits_2(tmp_path, capsys, monkeypatch, verb, message, shown):
    def refused(*args):
        raise MemoryError(message)

    if verb == "stationary":  # the box of the truncated chain
        monkeypatch.setattr(analyze, "transition_table", refused)
    else:  # the T arrival classes of a path
        monkeypatch.setattr(simulate, "_draw_arrivals", refused)
    out = tmp_path / "out.csv"
    assert main(["--config", write_cfg(tmp_path, sweep_cfg()), "--out", str(out), verb]) == 2
    assert capsys.readouterr().err == f"error: {shown or message}\n"


@pytest.mark.parametrize("verb", ["simulate", "sweep"])
def test_a_failure_on_the_second_replica_leaves_no_out_file(tmp_path, capsys, monkeypatch, verb):
    draw, paths = simulate._draw_arrivals, []

    def second_refused(*args):
        paths.append(args)
        if len(paths) == 2:
            raise MemoryError("out of memory on the second path")
        return draw(*args)

    monkeypatch.setattr(simulate, "_draw_arrivals", second_refused)
    doc = sweep_cfg()
    doc["sweep"]["replicas"] = 2
    out = tmp_path / "out.csv"
    assert main(["--config", write_cfg(tmp_path, doc), "--out", str(out), verb]) == 2
    assert capsys.readouterr().err == "error: out of memory on the second path\n"
    assert len(paths) == 2 and not out.exists()


def test_a_failure_removes_a_regular_out_file_only(tmp_path, capsys, monkeypatch):
    # a verb that raises after --out is open removes a file it made, but
    # never a device such as /dev/null (nor /dev/stdout, a pipe behind it)
    def refused(*args):
        raise MemoryError("refused")

    removed = []
    monkeypatch.setattr(simulate, "_draw_arrivals", refused)
    monkeypatch.setattr(os, "remove", removed.append)  # records, removes nothing
    cfg = write_cfg(tmp_path, sweep_cfg())
    for out in (os.devnull, str(tmp_path / "out.csv")):
        assert main(["--config", cfg, "--out", out, "simulate"]) == 2
        assert capsys.readouterr().err == "error: refused\n"
    assert removed == [str(tmp_path / "out.csv")]


def _cli_process(tmp_path, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-m", "sbmatch.cli", *argv], cwd=tmp_path, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


@pytest.mark.parametrize("read_header", [True, False], ids=["after-the-header", "at-once"])
def test_a_reader_that_closes_stdout_early_ends_the_verb_with_exit_2(tmp_path, read_header):
    # sbmatch simulate | head -1: 20,001 rows overrun the pipe's buffer after
    # the header; the broken pipe is reported in one line, with no traceback
    # and no second error from the interpreter's flush at exit
    doc = triangle_cfg()
    doc["run"].update(T=20_000, replicas=1, sample_every=1)
    with _cli_process(tmp_path, "--config", write_cfg(tmp_path, doc), "simulate") as proc:
        if read_header:
            assert proc.stdout.readline() == b"replica,t,x_a,x_b,x_c,sup_norm,matched_pairs,perfect\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=120)
    assert code == 2, err
    assert err == "error: cannot write stdout: Broken pipe\n"


def test_convergence_error_exits_2(tmp_path, capsys, monkeypatch):
    from sbmatch import analyze

    def fails(chain):
        raise analyze.ConvergenceError("stationary residual 2.0e-09 exceeds 1.0e-10")

    monkeypatch.setattr(analyze, "stationary", fails)
    doc = {"model": {"classes": ["s"], "nu": ["1"], "rho": [[0.5]]}, "analyze": {"cap": 6}}
    assert main(["--config", write_cfg(tmp_path, doc), "--out", str(tmp_path / "pi.csv"),
                 "stationary"]) == 2
    err = capsys.readouterr().err
    assert err == "error: stationary residual 2.0e-09 exceeds 1.0e-10\n"


def test_a_stationary_residual_miss_exits_2_without_out(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(analyze, "RESIDUAL_TOL", -1.0)  # no residual meets it
    doc = {"model": {"classes": ["s"], "nu": ["1"], "rho": [[0.5]]}, "analyze": {"cap": 6}}
    out = tmp_path / "s.csv"
    assert main(["--config", write_cfg(tmp_path, doc), "--out", str(out), "stationary"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: stationary residual ")
    assert captured.err.endswith(" exceeds -1.0e+00\n") and captured.err.count("\n") == 1
    assert not out.exists()


def test_a_spent_stationary_names_its_steps_and_budget(tmp_path, capsys, monkeypatch):
    # no residual meets a gate of 0, so every run is spent: the error names
    # the steps the runs took and the budget of STATIONARY_RUNS runs of at
    # most 10 (n - 1) steps, and the verb exits 2 with that one line
    monkeypatch.setattr(analyze, "RESIDUAL_TOL", 0.0)
    solve, steps = analyze._bicgstab, []

    def counted(A, b, x0):
        x, n = solve(A, b, x0)
        steps.append(n)
        return x, n

    monkeypatch.setattr(analyze, "_bicgstab", counted)
    cfg = write_cfg(tmp_path, dict(triangle_cfg(), analyze={"cap": 4}))
    spec = load_config(cfg).spec
    chain = analyze.truncate(spec, make_policy(spec), 4)
    with pytest.raises(analyze.ConvergenceError) as exc:
        analyze.stationary(chain)
    budget = analyze.STATIONARY_RUNS * 10 * (chain.n_states - 1)
    assert len(steps) == analyze.STATIONARY_RUNS and 0 < sum(steps) < budget
    assert f" after {sum(steps)} of at most {budget} steps exceeds 0.0e+00" in str(exc.value)
    assert main(["--config", cfg, "stationary"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {exc.value}\n")


@pytest.mark.parametrize("out", [[], ["--out", "-"]], ids=["no-out", "dash"])
def test_drift_without_an_out_file_writes_the_csv_to_stdout(tmp_path, capsys, out):
    cfg = write_cfg(tmp_path, triangle_cfg())
    path = tmp_path / "drift.csv"
    assert main(["--config", cfg, "--max-norm", "3", "--out", str(path), "drift"]) == 0
    summary = capsys.readouterr().out
    assert summary == "drift: 64 states, 0 failures\n"
    assert main(["--config", cfg, "--max-norm", "3", *out, "drift"]) == 0
    assert capsys.readouterr().out == path.read_text(encoding="utf-8") + summary


def test_a_sweep_entry_without_an_id_exits_2(tmp_path, capsys):
    doc = sweep_cfg()
    del doc["sweep"]["models"][0]["id"]
    assert main(["--config", write_cfg(tmp_path, doc), "--seed", "1", "sweep"]) == 2
    assert capsys.readouterr().err == "config error: sweep entries need id and model: 'id'\n"


def test_drift_needs_stability(tmp_path, capsys):
    doc = {"model": {"classes": ["one", "two"], "nu": ["3/5", "2/5"],
                     "rho": [[0.0, 0.5], [0.5, 0.0]]}}
    assert main(["--config", write_cfg(tmp_path, doc), "drift"]) == 2
    assert "margin" in capsys.readouterr().err


def test_appendix_rows(tmp_path, capsys):
    cfg = write_cfg(tmp_path, triangle_cfg())
    out = tmp_path / "appendix.csv"
    assert main(["--config", cfg, "--max-norm", "2",
                 "--out", str(out), "appendix"]) == 0
    summary = capsys.readouterr().out
    rows = read_csv(out)
    head = rows[0]
    si, ai = head.index("step"), head.index("applicable")
    applicable = [r for r in rows[1:] if r[ai] == "1"]
    skipped = [r for r in rows[1:] if r[ai] == "0"]
    assert applicable and skipped
    assert all(r[-1] == "pass" for r in applicable)
    assert all(r[-1] == "skipped" for r in skipped)
    assert f"{len(applicable)} applicable checks, 0 failures" in summary
    assert {r[si] for r in rows[1:]} == {"threshold", "selfloops", "independent",
                                         "certain_match", "margin"}


def test_stationary_report(tmp_path, capsys):
    doc = {"model": {"classes": ["s"], "nu": ["1"], "rho": [[0.5]]}, "analyze": {"cap": 6}}
    out = tmp_path / "pi.csv"
    path = write_cfg(tmp_path, doc)
    assert main(["--config", path, "--out", str(out), "stationary"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["n_states"] == 7
    # a birth-death chain: 6 steps up, 6 down, and the self-loop at the cap
    assert rep["nnz"] == 13
    spec = load_config(path).spec
    assert rep["iterations"] == analyze.stationary(analyze.truncate(spec, make_policy(spec), 6)).iterations
    assert rep["mean_bound"] == pytest.approx(4.5)
    assert rep["bound_ok"] is True
    rows = read_csv(out)
    assert rows[0] == ["x_s", "pi"]
    assert sum(float(r[1]) for r in rows[1:]) == pytest.approx(1.0, abs=1e-12)


def test_stationary_with_a_margin_below_the_float_range(tmp_path, capsys):
    # eta_exact = 2e-400 > 0 prints as eta 0.0; the mean bound is then inf
    e = Fraction(1, 10 ** 400)
    doc = triangle_cfg()
    doc["model"]["nu"] = [str(Fraction(1, 2) - e), str((Fraction(1, 2) + e) / 2),
                          str((Fraction(1, 2) + e) / 2)]
    doc["analyze"] = {"cap": 4}
    path = write_cfg(tmp_path, doc)
    assert main(["--config", path, "ncond"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert Fraction(rep["eta_exact"]) > 0 and rep["eta"] == 0.0
    assert main(["--config", path, "--out", str(tmp_path / "pi.csv"), "stationary"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["mean_bound"] == "inf" and rep["bound_ok"] is True


@pytest.mark.parametrize("solver", ["power", "lu", ["power"]], ids=["power", "lu", "power-list"])
def test_a_leftover_solver_key_is_ignored(tmp_path, capsys, solver):
    doc = {"model": {"classes": ["s"], "nu": ["1"], "rho": [[0.5]]}, "analyze": {"cap": 6}}
    outs = []
    for name, analyze in (("plain.json", doc["analyze"]),
                          ("solver.json", {**doc["analyze"], "solver": solver})):
        assert main(["--config", write_cfg(tmp_path, {**doc, "analyze": analyze}, name),
                     "--out", str(tmp_path / "pi.csv"), "stationary"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("section", [(), ("model",), ("policy",), ("run",), ("analyze",),
                                     ("sweep",), ("sweep", "models", 0),
                                     ("sweep", "models", 0, "model")])
def test_load_config_ignores_keys_it_does_not_read(tmp_path, section):
    # perfbench's configs write analyze.solver and policy.n_check, which the
    # loader no longer reads; refusing them would make those runs exit 2
    doc = sweep_cfg()
    plain = load_config(write_cfg(tmp_path, doc, "plain.json"))
    node = doc
    for key in section:
        node = node[key]
    node.update({"solver": "power", "n_check": 10_000, "note": ["x", {"T": None}]})
    assert load_config(write_cfg(tmp_path, doc, "extra.json")) == plain


@pytest.mark.parametrize("model,cap,warns", [
    # boundary mass 0.99 on the triangle at cap 2; 7.1e-4 on the
    # self-matching class at cap 6, just under the 1e-3 threshold
    (triangle_cfg()["model"], 2, True),
    ({"classes": ["s"], "nu": ["1"], "rho": [[0.5]]}, 6, False),
], ids=["triangle-cap2", "solo-cap6"])
def test_stationary_warns_on_a_heavy_rim(tmp_path, capsys, model, cap, warns):
    out = str(tmp_path / "pi.csv")
    assert main(["--config", write_cfg(tmp_path, {"model": model, "analyze": {"cap": cap}}),
                 "--out", out, "stationary"]) == 0
    captured = capsys.readouterr()
    rep = json.loads(captured.out)
    assert (rep["boundary_mass"] > 1e-3) == warns
    if warns:
        assert captured.err.startswith("warning: boundary mass") and captured.err.count("\n") == 1
    else:
        assert captured.err == ""


@pytest.mark.parametrize("rho,cap", [
    # class c has no compatible class, so its count never falls
    ([[0.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]], 6),
    # every match probability rounds to 0: 1 - 1e-17 == 1.0
    ([[0.0, 1e-17, 1e-17], [1e-17, 0.0, 1e-17], [1e-17, 1e-17, 0.0]], 4),
], ids=["isolated-class", "rho-1e-17"])
def test_stationary_refuses_a_chain_with_no_way_back(tmp_path, capsys, rho, cap):
    doc = {"model": {**triangle_cfg()["model"], "rho": rho}, "analyze": {"cap": cap}}
    out = tmp_path / "pi.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--config", write_cfg(tmp_path, doc), "--out", str(out), "stationary"]) == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: state (0, 0, 1) has no step down: "
                            "the chain cannot return to the origin from it\n")
    assert not out.exists()


def test_sweep_csv(tmp_path, capsys):
    def bip(p):
        q = Fraction(1) - Fraction(p)
        return {"classes": ["one", "two"], "nu": [str(Fraction(p)), str(q)],
                "rho": [[0.0, 0.5], [0.5, 0.0]]}

    doc = triangle_cfg()
    doc["sweep"] = {"models": [{"id": "even", "model": bip("1/2")},
                               {"id": "tilted", "model": bip("3/5")}],
                    "T": 2000, "replicas": 2}
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "sweep.csv"
    assert main(["--config", cfg, "--out", str(out), "sweep"]) == 0
    rows = read_csv(out)
    assert rows[0] == ["id", "eta", "ncond", "growth", "perfect_rate",
                       "mean_return_time"]
    byid = {r[0]: r for r in rows[1:]}
    assert set(byid) == {"even", "tilted"}
    assert float(byid["even"][1]) == pytest.approx(0.0)
    assert float(byid["tilted"][1]) == pytest.approx(-0.2)
    assert byid["even"][2] == "0" and byid["tilted"][2] == "0"
    assert float(byid["tilted"][3]) > float(byid["even"][3])

    no_models = triangle_cfg()
    assert main(["--config", write_cfg(tmp_path, no_models, "nm.json"),
                 "sweep"]) == 2
    no_seed = doc.copy()
    no_seed["run"] = {"T": 100}
    assert main(["--config", write_cfg(tmp_path, no_seed, "ns.json"),
                 "sweep"]) == 2


def test_sweep_without_arrivals_exits_2(tmp_path, capsys):
    doc = triangle_cfg()
    doc["sweep"] = {"T": 0, "replicas": 1,
                    "models": [{"id": "t", "model": triangle_cfg()["model"]}]}
    out = tmp_path / "sweep.csv"
    assert main(["--config", write_cfg(tmp_path, doc), "--out", str(out), "sweep"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("section,key", [
    ("run", "T"), ("run", "replicas"), ("sweep", "T"), ("sweep", "replicas"),
])
def test_load_config_refuses_negative_counts(tmp_path, section, key):
    doc = sweep_cfg()
    doc[section][key] = -1
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        load_config(write_cfg(tmp_path, doc))


@pytest.mark.parametrize("where", ["config", "flag"])
def test_negative_seed_is_refused_by_name(tmp_path, capsys, where):
    doc = triangle_cfg()
    flag = []
    if where == "config":
        doc["run"]["base_seed"] = -1
    else:
        flag = ["--seed", "-1"]
    out = tmp_path / "sim.csv"
    assert main(["--config", write_cfg(tmp_path, doc), "--out", str(out), *flag,
                 "simulate"]) == 2
    err = capsys.readouterr().err
    assert ("run.base_seed" if where == "config" else "--seed") in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("verb", ["appendix", "drift"])
def test_sweep_memory_does_not_grow_with_the_radius(tmp_path, capsys, verb):
    # rows are written as they are made: 343 and 2197 states at radii 6 and
    # 12 must peak alike (holding appendix rows would cost about 860 B per state)
    cfg, out = write_cfg(tmp_path, triangle_cfg()), str(tmp_path / "sweep.csv")
    main(["--config", cfg, "--out", out, "--max-norm", "1", verb])  # warm the caches
    peaks = []
    for radius in (6, 12):
        gc.collect()
        tracemalloc.start()
        try:
            assert main(["--config", cfg, "--out", out, "--max-norm", str(radius), verb]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 200_000, peaks


def test_simulate_memory_does_not_grow_with_the_replicas(tmp_path):
    # each replica's rows are written before the next path is run: 20 and
    # 200 replicas must peak alike (holding the paths would cost about 30 kB
    # per replica on the default grid)
    doc = triangle_cfg()
    doc["run"] = {"T": 2000, "replicas": 20, "base_seed": 11}
    out = str(tmp_path / "sim.csv")
    main(["--config", write_cfg(tmp_path, doc), "--out", out, "simulate"])  # warm the caches
    peaks = []
    for replicas in (20, 200):
        doc["run"]["replicas"] = replicas
        cfg = write_cfg(tmp_path, doc)
        gc.collect()
        tracemalloc.start()
        try:
            assert main(["--config", cfg, "--out", out, "simulate"]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 500_000, peaks


def test_sweep_memory_does_not_grow_with_the_replicas(tmp_path):
    # each path is reduced to its three numbers before the next one runs: 20
    # and 200 replicas must peak alike (holding the paths would cost about
    # 30 kB per replica on the default grid)
    doc = sweep_cfg()
    doc["policy"] = {"weight": "w1"}
    doc["sweep"].update(T=2000, replicas=20)
    out = str(tmp_path / "sweep.csv")
    main(["--config", write_cfg(tmp_path, doc), "--out", out, "sweep"])  # warm the caches
    peaks = []
    for replicas in (20, 200):
        doc["sweep"]["replicas"] = replicas
        cfg = write_cfg(tmp_path, doc)
        gc.collect()
        tracemalloc.start()
        try:
            assert main(["--config", cfg, "--out", out, "sweep"]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 500_000, peaks


@pytest.mark.parametrize("key", ["T", "replicas"])
def test_an_empty_sweep_exits_2_before_it_opens_out(tmp_path, capsys, key):
    doc = sweep_cfg()
    doc["sweep"][key] = 0
    out = tmp_path / "sweep.csv"
    assert main(["--config", write_cfg(tmp_path, doc), "--out", str(out), "sweep"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: a sweep needs T and replicas of at least 1")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not out.exists()


def test_simulate_refuses_an_overlong_path_before_it_opens_out(tmp_path, capsys):
    doc = triangle_cfg()
    doc["run"]["T"] = 2**32
    out = tmp_path / "sim.csv"
    assert main(["--config", write_cfg(tmp_path, doc), "--out", str(out), "simulate"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "2**32 - 1 arrivals" in err
    assert err.count("\n") == 1
    assert not out.exists()


# Arguments a verb refuses before it opens --out.
REFUSED_FIRST = {"drift": ["--max-norm", "-1"], "appendix": ["--max-norm", "-1"],
                 "simulate": ["--seed", "-1"], "sweep": ["--seed", "-1"]}


@pytest.mark.parametrize("verb", ["ncond", "drift", "appendix", "simulate", "stationary", "sweep"])
def test_an_unwritable_out_exits_2(tmp_path, capsys, verb):
    cfg, missing = write_cfg(tmp_path, sweep_cfg()), tmp_path / "missing" / "out.csv"
    for out in (missing, tmp_path):  # no such folder; a folder
        assert main(["--config", cfg, "--out", str(out), verb]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: "), captured.err
        assert captured.err.count("\n") == 1
    if verb in REFUSED_FIRST:
        assert main(["--config", cfg, "--out", str(missing), *REFUSED_FIRST[verb], verb]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "cannot write" not in err, err


@pytest.mark.parametrize("section,key,value,match", [
    ("run", "walk_set", ["a", "b"], "walk_set"),
    ("run", "sample_every", 0, "run.sample_every"),
    ("analyze", "cap", 0, "analyze.cap"),
], ids=["walk-set-not-independent", "sample-every-zero", "cap-zero"])
def test_load_config_refuses_bad_solver_and_walk_set(tmp_path, section, key, value, match):
    doc = sweep_cfg()
    doc[section][key] = value
    with pytest.raises(ConfigError, match=match):
        load_config(write_cfg(tmp_path, doc))


@pytest.mark.parametrize("value", [0, False, "", {}, 1, "a", {"a": 1}])
def test_load_config_refuses_a_walk_set_that_is_not_a_list(tmp_path, value):
    doc = sweep_cfg()
    doc["run"]["walk_set"] = value
    with pytest.raises(ConfigError, match=r"^run\.walk_set must be a list, got "):
        load_config(write_cfg(tmp_path, doc))


def test_an_unknown_walk_set_label_is_named_and_exits_2(tmp_path, capsys):
    doc = triangle_cfg()
    doc["run"]["walk_set"] = ["a", "z"]
    cfg = write_cfg(tmp_path, doc)
    with pytest.raises(ConfigError, match=r"^run\.walk_set label 'z' is not a class label$"):
        load_config(cfg)
    assert main(["--config", cfg, "--seed", "1", "simulate"]) == 2
    assert "run.walk_set label 'z' is not a class label" in capsys.readouterr().err


@pytest.mark.parametrize("key,labels", [("alpha", [True, 0]), ("walk_set", [True])],
                         ids=["alpha", "walk_set"])
def test_a_boolean_is_not_a_class_label(tmp_path, capsys, key, labels):
    # true == 1 in Python, but the model section refuses true as a label, so
    # policy.alpha and run.walk_set must not find class 1 through it
    doc = {"model": {"classes": [0, 1], "nu": ["1/2", "1/2"], "rho": [[0.0, 0.5], [0.5, 0.0]]},
           "policy": {}, "run": {"T": 10, "base_seed": 1}}
    doc["policy" if key == "alpha" else "run"][key] = labels
    cfg = write_cfg(tmp_path, doc)
    for verb in ("ncond", "simulate"):
        assert main(["--config", cfg, verb]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
        assert f"{key} label True is not a class label" in captured.err, captured.err


@pytest.mark.parametrize("value", [None, []])
def test_a_null_or_empty_walk_set_walks_nothing(tmp_path, value):
    doc = sweep_cfg()
    doc["run"]["walk_set"] = value
    assert load_config(write_cfg(tmp_path, doc)).run.walk_set is None


@pytest.mark.parametrize("section,key,value", [
    ("model", "classes", [["a"], "b", "c"]),   # unhashable label
    ("run", "T", "many"),
    ("model", "rho", [[0.0, "x", 0.3], [0.3, 0.0, 0.3], [0.3, 0.3, 0.0]]),
    ("model", "classes", ["a", "nan", math.nan]),   # labels that print alike
    ("model", "nu", ["1/3", "1/3", "1/2"]),   # exact rates that do not sum to 1
])
def test_bad_config_values_exit_2(tmp_path, capsys, section, key, value):
    doc = triangle_cfg()
    doc[section][key] = value
    assert main(["--config", write_cfg(tmp_path, doc), "--seed", "1", "simulate"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("rho", [1e-320, 1e-309])
@pytest.mark.parametrize("verb", ["ncond", "simulate", "drift", "appendix", "stationary"])
def test_a_subnormal_rho_exits_2(tmp_path, capsys, verb, rho):
    doc = triangle_cfg()
    doc["model"]["rho"] = [[0.0, rho, rho], [rho, 0.0, rho], [rho, rho, 0.0]]
    assert main(["--config", write_cfg(tmp_path, doc), "--seed", "1", verb]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and repr(rho) in captured.err
    assert captured.err.count("\n") == 1


def test_a_subnormal_rho_in_a_sweep_model_exits_2(tmp_path, capsys):
    doc = sweep_cfg()
    doc["sweep"]["models"][0]["model"]["rho"] = [[0.0, 1e-310, 0.3], [1e-310, 0.0, 0.3],
                                                 [0.3, 0.3, 0.0]]
    assert main(["--config", write_cfg(tmp_path, doc), "sweep"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "1e-310" in err and err.count("\n") == 1


def test_integral_float_counts_are_integers(tmp_path, capsys):
    doc = triangle_cfg()
    doc["run"] = {"T": 1e3, "replicas": 1, "base_seed": 3}
    cfg = write_cfg(tmp_path, doc)
    assert load_config(cfg).run.T == 1000
    out = tmp_path / "sim.csv"
    assert main(["--config", cfg, "--out", str(out), "simulate"]) == 0
    assert read_csv(out)[-1][1] == "1000"
    doc["run"]["T"] = 2.5
    assert main(["--config", write_cfg(tmp_path, doc, "half.json"), "simulate"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "run.T" in err and err.count("\n") == 1


def sweep_cfg():
    doc = triangle_cfg()
    doc["policy"] = {"weight": "w2", "alpha": ["b", "a", "c"], "n_check": 50}
    doc["analyze"] = {"cap": 4, "max_norm": 3}
    doc["sweep"] = {"models": [{"id": "t", "model": triangle_cfg()["model"]}],
                    "T": 10, "replicas": 1}
    doc["run"]["walk_set"] = ["a"]
    return doc


# Every place a config value is read, as a path into the document.
CONFIG_PATHS = [
    (), ("model",), ("model", "classes"), ("model", "classes", 0), ("model", "nu"),
    ("model", "nu", 1), ("model", "rho"), ("model", "rho", 0), ("model", "rho", 1, 2),
    ("policy",), ("policy", "weight"), ("policy", "alpha"), ("policy", "alpha", 0),
    ("run",), ("run", "T"), ("run", "replicas"),
    ("run", "base_seed"), ("run", "sample_every"), ("run", "walk_set"),
    ("run", "walk_set", 0), ("analyze",), ("analyze", "cap"), ("analyze", "max_norm"),
    ("sweep",), ("sweep", "models"), ("sweep", "models", 0),
    ("sweep", "models", 0, "id"), ("sweep", "models", 0, "model"),
    ("sweep", "models", 0, "model", "nu", 0), ("sweep", "T"), ("sweep", "replicas"),
]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(["a", "b", "1/3", "0/0", "1e400", "many", "w1", ""]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["a", "classes", "nu", "rho", "T", "x"]), inner,
                      max_size=3),
    max_leaves=8)


def replace_at(doc, path, value):
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(st.tuples(st.sampled_from(CONFIG_PATHS), json_values),
                      min_size=1, max_size=3))
def test_load_config_fuzz_raises_only_config_errors(tmp_path, edits):
    doc = sweep_cfg()
    for path, value in edits:
        try:
            doc = replace_at(doc, path, value)
        except (KeyError, IndexError, TypeError):
            pass  # an earlier edit removed the path
    cfg_path = tmp_path / "fuzz.json"
    cfg_path.write_text(json.dumps(doc))
    try:
        cfg = load_config(str(cfg_path))
    except ConfigError:
        return
    assert all(v > 0.0 for v in cfg.spec.nu)


def key_paths(node, path=()):
    """The path to every dict key of a JSON document."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield path + (key,)
            yield from key_paths(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from key_paths(child, path + (i,))


def test_readme_config_loads_and_sets_only_keys_the_loader_reads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("A config looks like:", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    doc = json.loads(block)
    load_config(write_cfg(tmp_path, doc))
    for path in key_paths(doc):
        if path[:4] == ("sweep", "models", 0, "model"):
            path = path[3:]  # a sweep entry's model is read like the model section
        assert path in CONFIG_PATHS, path


def test_readme_commands_run_on_the_readme_config(tmp_path, capsys):
    # the seven lines of the "Command line" block, each on the config block,
    # with every --out moved under tmp_path; only the negative control fails
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    lines = section.split("```\n", 1)[1].split("```", 1)[0].splitlines()
    block = section.split("A config looks like:", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    cfg = write_cfg(tmp_path, json.loads(block))
    codes = []
    for line in lines:
        argv = shlex.split(line)
        assert argv[:3] == ["sbmatch", "--config", "cfg.json"], line
        argv[2] = cfg
        if "--out" in argv:
            k = argv.index("--out") + 1
            argv[k] = str(tmp_path / argv[k])
        codes.append(main(argv[1:]))
        assert capsys.readouterr().err == "", line
    assert len(lines) == 7
    assert codes == [1 if "--corrupt-kernel" in line else 0 for line in lines]
    assert (tmp_path / "runs.csv").stat().st_size and (tmp_path / "sweep.csv").stat().st_size


@pytest.mark.parametrize("rho,code", [(7e-4, 0), (1e-20, 2)])
def test_drift_at_small_rates_under_w2(tmp_path, capsys, rho, code):
    # the threshold of w2 is 13,592 at rho 7e-4, past the old 10,000-entry scan;
    # at 1e-20 it exceeds 2**53 and is refused with one error line
    doc = triangle_cfg()
    doc["policy"] = {"weight": "w2"}
    doc["model"]["rho"] = [[0.0, rho, rho], [rho, 0.0, rho], [rho, rho, 0.0]]
    out = str(tmp_path / "drift.csv")
    assert main(["--config", write_cfg(tmp_path, doc), "--out", out, "--max-norm", "2",
                 "drift"]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == ""


def fmt_cell(v) -> str:
    """The cell rule of the verbs' CSV bodies: 1/0 for flags, str for ints
    and text, 17 significant digits for floats."""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return v
    return "%.17g" % float(v)


def oracle_csv(header, rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt_cell(v) for v in row])
    return buf.getvalue().encode("utf-8")


SOLO = {"classes": ["s"], "nu": ["1"], "rho": [[0.5]]}


@pytest.mark.parametrize("run", [
    {"T": 400, "replicas": 2, "sample_every": 100, "walk_set": ["a"]},
    {"T": 3000, "replicas": 3},
], ids=["walk-set", "default-grid"])
def test_simulate_csv_matches_the_api(tmp_path, capsys, run):
    doc = {**triangle_cfg(), "policy": {"weight": "w2", "alpha": ["b", "a", "c"]}, "run": run}
    path, out = write_cfg(tmp_path, doc), tmp_path / "sim.csv"
    assert main(["--config", path, "--out", str(out), "--seed", "5", "simulate"]) == 0
    cfg = load_config(path)
    spec = cfg.spec
    walks = [cfg.run.walk_set] if cfg.run.walk_set is not None else []
    trajs = simulate.run_replicas(spec, make_policy(spec, cfg.weight, alpha=cfg.alpha),
                                  cfg.run.T, 5, cfg.run.replicas,
                                  sample_every=cfg.run.sample_every, track_walks=walks)
    header = ["replica", "t"] + [f"x_{c}" for c in spec.classes] \
        + ["sup_norm", "matched_pairs", "perfect"] + ["walk_S"] * len(walks)
    rows = [[rep, *row] for rep, tr in enumerate(trajs)
            for row in zip(tr.t_grid.tolist(), *tr.x.T.tolist(), tr.sup_norm.tolist(),
                           tr.matched_pairs.tolist(), tr.perfect.tolist(),
                           *(tr.walks[frozenset(w)].tolist() for w in walks))]
    assert out.read_bytes() == oracle_csv(header, rows)


@pytest.mark.parametrize("model,policy,cap", [
    (triangle_cfg()["model"], {"weight": "w2", "alpha": ["b", "a", "c"]}, 9),
    (SOLO, {}, 200),
], ids=["triangle-w2", "single-selfloop"])
def test_stationary_csv_matches_the_api(tmp_path, capsys, model, policy, cap):
    # 1,000 states on the triangle: several 320-state chunks, the last one partial
    path = write_cfg(tmp_path, {"model": model, "policy": policy, "analyze": {"cap": cap}})
    out = tmp_path / "pi.csv"
    assert main(["--config", path, "--out", str(out), "stationary"]) == 0
    cfg = load_config(path)
    spec = cfg.spec
    chain = analyze.truncate(spec, make_policy(spec, cfg.weight, alpha=cfg.alpha), cap)
    pi = analyze.stationary(chain).pi
    header = [f"x_{c}" for c in spec.classes] + ["pi"]
    assert out.read_bytes() == oracle_csv(header, ([*x.tolist(), p]
                                                   for x, p in zip(chain.states, pi)))


@pytest.mark.parametrize("T", [1, 300])
def test_sweep_csv_matches_the_api(tmp_path, capsys, T):
    # ids that csv must quote, or must not; a model with only self-loop
    # classes (eta = inf); at T = 1 no replica returns (mean_return_time nan)
    bip = {"classes": ["one", "two"], "nu": ["3/5", "2/5"], "rho": [[0.0, 0.5], [0.5, 0.0]]}
    loops = {"classes": ["p", "q"], "nu": ["1/2", "1/2"], "rho": [[0.4, 0.0], [0.0, 0.6]]}
    models = [("a,b", triangle_cfg()["model"]), ('a"b', loops), ("a\nb", bip),
              ("", SOLO), ("a\rb", bip), ("plain", loops)]
    doc = {**triangle_cfg(), "policy": {"weight": "w2"},
           "sweep": {"models": [{"id": i, "model": m} for i, m in models],
                     "T": T, "replicas": 2}}
    path, out = write_cfg(tmp_path, doc), tmp_path / "sweep.csv"
    assert main(["--config", path, "--out", str(out), "--seed", "3", "sweep"]) == 0
    cfg = load_config(path)
    rows = analyze.eta_sweep(cfg.sweep_models, T, 3, 2, weight=cfg.weight)
    assert {r.eta for r in rows[1::2]} == {float("inf")}
    assert all(r.mean_return_time != r.mean_return_time for r in rows) == (T == 1)
    assert out.read_bytes() == oracle_csv([f.name for f in fields(analyze.SweepRow)],
                                          map(astuple, rows))
