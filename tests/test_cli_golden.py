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
MIXED_W1 = {**MIXED_W2, "policy": {"weight": "w1"}}


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
    # Balls of 2,197 and 4,096 states: several sweep chunks, the last one partial.
    "appendix/triangle-w2-r12": (
        TRIANGLE_W2, ["--max-norm", "12", "appendix"], 0,
        "b0263fdb4f6ebbf54d6ca7a11e008895279f69d49f8a1ac5b513e6676dab996b",
        "a17dfcb8624e156293cce3804bbb14593feefc20ff253aa1b3ac91b60cf00d81"),
    "drift/mixed-w1-r7": (
        MIXED_W1, ["--max-norm", "7", "drift"], 0,
        "1e6c507d575b68f69334a12cf8a2c0626f52591317763b938102b8f8ef6948d2",
        "a68e26f32f612d961aedd052032d3667ecf7e27f1024a79283ac545beb6f7daa"),
    # The one-state ball {0}^C.
    "drift/mixed-w2-r0": (
        MIXED_W2, ["--max-norm", "0", "drift"], 0,
        "7e09e472cc963f044a5d6451f7f88cba6922cd8648a62895603f83a2eef0d277",
        "2eb34e363e9bd3fb2a6a0080ce9a331df13c15c66526eaa57b65356d80f297fc"),
    "drift/triangle-w2-corrupt-r0": (
        TRIANGLE_W2, ["--max-norm", "0", "drift", "--corrupt-kernel"], 0,
        "6499099fc407ccc049fbabf6dbf2b689890e9268f9020f23d3a41037e0d0b39c",
        "2eb34e363e9bd3fb2a6a0080ce9a331df13c15c66526eaa57b65356d80f297fc"),
    "appendix/mixed-w2-r0": (
        MIXED_W2, ["--max-norm", "0", "appendix"], 0,
        "d703654a0d826a258d92a101b760499a51d69a2013ba3f8fc2cfb54f4f300c32",
        "fffd4450b47a6760bb6b7f02a7cf5f508dc3434cc9aaabe75df6799e9973264a"),
}


def check_golden(tmp_path, capsys, name):
    doc, args, code, out_digest, stdout_digest = GOLDEN[name]
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps(doc))
    assert main(["--config", str(cfg), "--out", str(out), *args]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == out_digest
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_digest


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(tmp_path, capsys, name):
    check_golden(tmp_path, capsys, name)


def test_one_parser_keeps_no_state_between_calls(tmp_path, capsys):
    # main builds its parser once per process: neither --corrupt-kernel and
    # --max-norm 6 nor a usage error may leave a trace in the next call, whose
    # radius comes from the config
    check_golden(tmp_path, capsys, "drift/triangle-w2-corrupt")
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main(["--config", str(cfg), "drfit"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: sbmatch") and "invalid choice: 'drfit'" in err
    doc, args, code, out_digest, stdout_digest = GOLDEN["drift/mixed-w2"]
    assert args == ["--max-norm", "3", "drift"]
    cfg.write_text(json.dumps({**doc, "analyze": {"max_norm": 3}}))
    assert main(["--config", str(cfg), "--out", str(out), "drift"]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == out_digest
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_digest
