"""Golden outputs of the verbs whose bytes depend only on Python float
arithmetic: ncond, drift (with its negative control) and appendix.  The
digests are sha256 of the output file and of stdout; a change to how the
verbs are written must keep them.  The configs are the benchmark's
(perfbench/workloads.py).  simulate, sweep and stationary are left out,
because their bytes depend on the numpy and scipy builds."""

import hashlib
import json

import pytest

from sbmatch.cli import main

TRIANGLE_W2 = {
    "model": {"classes": ["a", "b", "c"], "nu": ["1/3", "1/3", "1/3"],
              "rho": [[0.0, 0.3, 0.3], [0.3, 0.0, 0.3], [0.3, 0.3, 0.0]]},
    "policy": {"weight": "w2", "alpha": ["b", "a", "c"], "n_check": 10000},
}
MIXED_W2 = {
    "model": {"classes": ["a", "b", "c", "d"], "nu": ["1/4", "3/10", "1/4", "1/5"],
              "rho": [[0.0, 0.6, 0.5, 0.0], [0.6, 0.0, 0.3, 0.0],
                      [0.5, 0.3, 0.0, 0.0], [0.0, 0.0, 0.0, 0.7]]},
    "policy": {"weight": "w2"},
}


def wide(n_triangles):
    """Triangles linked in a chain, last class of one to first of the next."""
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
    return {"model": {"classes": [f"c{i}" for i in range(C)], "nu": [f"1/{C}"] * C, "rho": rho}}


# (config, arguments, exit code, sha256 of the output file, sha256 of stdout)
GOLDEN = {
    "ncond/wide": (
        wide(5), ["ncond"], 0,
        "e49934dd337d625f3e014657219b716c449fa4dc4dffb0869f8048a996fa8712",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "drift/mixed-w2": (
        MIXED_W2, ["--max-norm", "3", "drift"], 0,
        "a6793eabeb768ab165bd79f291dc925f208dbfdc56bf0d254729dfb8841d5f35",
        "c555424496fbbcdc3a269e3d27c455e56d609008839c7a37d455e7772f7e939b"),
    "appendix/mixed-w2": (
        MIXED_W2, ["--max-norm", "3", "appendix"], 0,
        "7d9f895849744e99f984c72ff5738a68f154c8e27fd282e1b79c6f5fc7d10e84",
        "585f07b3f95f3569f0c820069c3c697c28269acdeb3ddb2c115f0e2e4b22a4a5"),
    "drift/triangle-w2-corrupt": (
        TRIANGLE_W2, ["--max-norm", "6", "drift", "--corrupt-kernel"], 1,
        "b2fa233c43e7574beaf319eb75a0ea4d48303f7ca723452fe72f1e0be2796a41",
        "2669f0761e978923a4097850569a8f01cf3790a4e2326129ff693d159257a040"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(tmp_path, capsys, name):
    doc, args, code, out_digest, stdout_digest = GOLDEN[name]
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps(doc))
    assert main(["--config", str(cfg), "--out", str(out), *args]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == out_digest
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_digest
