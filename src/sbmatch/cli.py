"""Command line front end.

Verbs:
  ncond       stability report: margin, independent sets, walk constants
  drift       sweep the drift certificate over a sup-norm ball
  appendix    check every reduction inequality of the certificate chain
  simulate    lazy-engine replicas to CSV
  stationary  truncated stationary law, mean bound check
  sweep       margin and simulated growth across a family of models

All output is deterministic: floats are printed with 17 significant digits,
rows are sorted, and randomized verbs require an explicit seed (from the
config or --seed; there is no clock fallback).  The exit status is 0 only
when every asserted check passes, 1 when a check fails, and 2 on usage or
configuration errors, an --out that cannot be opened, an output whose
reader closes before it is written (a broken pipe), a sweep box refused
before it starts, a stationary solve that misses its residual target and an
allocation that fails.  A verb that raises after its --out file is open
removes the file (a regular file only: never a pipe or a device such as
/dev/stdout); one that exits 1 keeps it whole.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import stat
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import astuple, dataclass, fields
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import analyze, kernel, simulate
from .model import InvalidModelError, ModelSpec, make_spec, stability, walk_spec
from .policy import BUILTIN_WEIGHTS, PolicyConfig, WeightFunction, make_policy


class ConfigError(ValueError):
    pass


class UsageError(Exception):
    """A verb that refuses to start; its message is printed as is, exit 2."""


@dataclass(frozen=True)
class RunParams:
    T: int
    replicas: int
    base_seed: int | None
    sample_every: int | None
    walk_set: tuple[int, ...] | None


@dataclass(frozen=True)
class AnalyzeParams:
    cap: int
    max_norm: int


@dataclass(frozen=True)
class ScenarioConfig:
    spec: ModelSpec
    weight: WeightFunction
    alpha: tuple[int, ...] | None
    run: RunParams
    analyze: AnalyzeParams
    sweep_models: tuple[tuple[str, ModelSpec], ...]
    sweep_T: int
    sweep_replicas: int


def _typed(node, kind: type, what: str):
    if not isinstance(node, kind):
        raise ConfigError(f"{what} must be a {kind.__name__}, got {node!r}")
    return node


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_label(v) -> bool:
    return isinstance(v, str) or _is_number(v)


def _int(value, what: str) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return value


def _count(value, what: str) -> int:
    n = _int(value, what)
    if n < 0:
        raise ConfigError(f"{what} must be non-negative, got {n}")
    return n


def _positive(value, what: str) -> int:
    n = _int(value, what)
    if n < 1:
        raise ConfigError(f"{what} must be at least 1, got {n}")
    return n


def _parse_nu_entry(v):
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad nu entry {v!r}: {exc}") from exc
    if _is_number(v):
        return v
    raise ConfigError(f"bad nu entry {v!r}")


def _parse_model(node) -> ModelSpec:
    try:
        classes, nu_raw, rho = node["classes"], node["nu"], node["rho"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"model section needs classes, nu, rho: {exc}") from exc
    for label in _typed(classes, list, "classes"):
        if not _is_label(label):
            raise ConfigError(f"class labels must be strings or numbers, got {label!r}")
    nu = [_parse_nu_entry(v) for v in _typed(nu_raw, list, "nu")]
    for row in _typed(rho, list, "rho"):
        for v in _typed(row, list, "a rho row"):
            if not _is_number(v):
                raise ConfigError(f"rho entries must be numbers, got {v!r}")
    try:
        return make_spec(classes, nu, rho)
    except (InvalidModelError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc


def _label_index(spec: ModelSpec, label, what: str) -> int:
    """The index of a class label.  The label must pass the model section's
    label test, so true never finds class 1, though true == 1."""
    if _is_label(label):
        for k, c in enumerate(spec.classes):
            if c == label:
                return k
    raise ConfigError(f"{what} label {label!r} is not a class label")


def _alpha_from_labels(spec: ModelSpec, labels) -> tuple[int, ...]:
    """Priority list (highest first) to alpha values (largest wins ties)."""
    index = [_label_index(spec, label, "policy.alpha") for label in _typed(labels, list, "alpha")]
    if sorted(index) != list(range(spec.n_classes)):
        raise ConfigError("alpha must list every class label exactly once")
    values = [0] * spec.n_classes
    for pos, k in enumerate(index):
        values[k] = spec.n_classes - pos
    return tuple(values)


def load_config(path: str) -> ScenarioConfig:
    """Parse and validate a JSON config.  Every malformed config raises
    ConfigError, which the CLI reports with exit status 2."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if "model" not in _typed(raw, dict, "the config"):
        raise ConfigError("config has no model section")
    spec = _parse_model(raw["model"])

    pol = _typed(raw.get("policy", {}), dict, "policy")
    weight_id = pol.get("weight", "w1")
    if not isinstance(weight_id, str) or weight_id not in BUILTIN_WEIGHTS:
        raise ConfigError(f"unknown weight {weight_id!r} (choose from {sorted(BUILTIN_WEIGHTS)})")
    weight = BUILTIN_WEIGHTS[weight_id]
    alpha = _alpha_from_labels(spec, pol["alpha"]) if "alpha" in pol else None

    rn = _typed(raw.get("run", {}), dict, "run")
    walk_set, labels = None, rn.get("walk_set")
    if labels is not None and _typed(labels, list, "run.walk_set"):  # null and [] walk nothing
        walk_set = tuple(_label_index(spec, lb, "run.walk_set") for lb in labels)
        try:
            walk_spec(spec, walk_set)
        except InvalidModelError as exc:
            raise ConfigError(f"walk_set: {exc}") from exc
    run_params = RunParams(
        T=_count(rn.get("T", 10_000), "run.T"),
        replicas=_count(rn.get("replicas", 1), "run.replicas"),
        base_seed=_count(rn["base_seed"], "run.base_seed") if "base_seed" in rn else None,
        sample_every=_positive(rn["sample_every"], "run.sample_every")
        if rn.get("sample_every") is not None else None,
        walk_set=walk_set,
    )

    an = _typed(raw.get("analyze", {}), dict, "analyze")
    analyze_params = AnalyzeParams(
        cap=_positive(an.get("cap", 30), "analyze.cap"),
        max_norm=_int(an.get("max_norm", 10), "analyze.max_norm"),
    )

    sw = _typed(raw.get("sweep", {}), dict, "sweep")
    sweep_models = []
    for entry in _typed(sw.get("models", []), list, "sweep.models"):
        try:
            sweep_models.append((str(entry["id"]), _parse_model(entry["model"])))
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"sweep entries need id and model: {exc}") from exc
    return ScenarioConfig(
        spec=spec, weight=weight, alpha=alpha,
        run=run_params, analyze=analyze_params,
        sweep_models=tuple(sweep_models),
        sweep_T=_count(sw.get("T", run_params.T), "sweep.T"),
        sweep_replicas=_count(sw.get("replicas", run_params.replicas), "sweep.replicas"),
    )


@contextmanager
def _output(path: str | None):
    """stdout, or the file at path, removed again if the body raises and it
    is a regular file."""
    if path is None or path == "-":
        yield sys.stdout
        return
    try:
        fh = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise UsageError(f"error: cannot write {path}: {exc.strerror or exc}") from exc
    regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
    try:
        with fh:
            yield fh
    except BaseException:
        if regular:
            os.remove(path)
        raise


def _write_chunks(path: str | None, header: list[str], chunks) -> None:
    """The header through csv.writer, then each chunk, an iterable of lines
    from %-templates (config text through csv.writer), as it comes."""
    with _output(path) as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for chunk in chunks:
            fh.writelines(chunk)


def cmd_ncond(cfg: ScenarioConfig, args: argparse.Namespace) -> int:
    spec = cfg.spec
    stab = stability(spec)
    minimizer = None if stab.minimizer is None else [str(spec.classes[i]) for i in stab.minimizer]
    doc = {
        "classes": [str(c) for c in spec.classes],
        "eta": "inf" if math.isinf(stab.eta) else stab.eta,
        "eta_exact": str(stab.eta_exact) if stab.eta_exact is not None else None,
        "ncond": stab.ncond,
        "independent_sets": [],  # written below from templates
        "minimizer": minimizer,
        "walk": None,
    }
    if stab.minimizer is not None:
        ws = walk_spec(spec, stab.minimizer)
        doc["walk"] = {
            "set": minimizer,
            "mu": ws.mu,
            "sigma2": ws.sigma2,
            "c_bound": ws.c_bound,
        }
    text = json.dumps(doc, sort_keys=True, indent=2)
    if stab.independent_sets:
        # The listing as json.dumps(..., indent=2) writes it, without its
        # pure-Python encoder (about 4x faster on 779 sets).  The key cannot
        # occur inside a string, where every quote is escaped.
        label = ["\n      " + json.dumps(str(c)) for c in spec.classes]
        listing = ",\n    ".join(["[" + ",".join(map(label.__getitem__, s)) + "\n    ]"
                                   for s in stab.independent_sets])
        text = text.replace('"independent_sets": []', f'"independent_sets": [\n    {listing}\n  ]', 1)
    with _output(args.out) as fh:
        fh.write(text + "\n")
    return 0


def _policy(cfg: ScenarioConfig) -> PolicyConfig:
    return make_policy(cfg.spec, cfg.weight, alpha=cfg.alpha)


def _seed(cfg: ScenarioConfig, args: argparse.Namespace) -> int:
    """--seed, else run.base_seed; there is no clock fallback."""
    if args.seed is not None and args.seed < 0:
        raise UsageError(f"{args.verb}: --seed must be non-negative, got {args.seed}")
    seed = args.seed if args.seed is not None else cfg.run.base_seed
    if seed is None:
        raise UsageError(f"{args.verb}: no seed given (set run.base_seed or pass --seed)")
    return seed


def cmd_drift(cfg: ScenarioConfig, args: argparse.Namespace) -> int:
    spec = cfg.spec
    if not stability(spec).ncond:
        raise UsageError("drift: the certificate needs a positive stability margin")
    # negative control: matching steps flipped upward, so the sweep must then fail
    sweep = kernel.drift_sweep(spec, _policy(cfg), args.max_norm,
                               match=1 if args.corrupt_kernel else -1)
    header = [f"x_{c}" for c in spec.classes] + ["drift", "bound", "slack", "status"]
    row = "%d," * spec.n_classes + "%.17g,%.17g,%.17g,%s\n"
    seen = Counter()

    def chunks():
        for X, st in sweep:
            seen["states"] += len(X)
            seen["fail"] += int(np.count_nonzero(~st.passed))
            status = np.where(st.passed, "pass", "fail").tolist()
            yield map(row.__mod__, zip(*X.T.tolist(), st.lhs.tolist(), st.rhs.tolist(),
                                       st.slack.tolist(), status))

    _write_chunks(args.out, header, chunks())
    print(f"drift: {seen['states']} states, {seen['fail']} failures")
    return 1 if seen["fail"] else 0


def cmd_appendix(cfg: ScenarioConfig, args: argparse.Namespace) -> int:
    spec = cfg.spec
    sweep = kernel.chain_sweep(spec, _policy(cfg), args.max_norm)
    header = [f"x_{c}" for c in spec.classes] + ["step", "applicable", "lhs", "rhs", "slack", "status"]
    state = "%d," * spec.n_classes
    checked = "%s,1,%.17g,%.17g,%.17g,%s\n"  # step, lhs, rhs, slack, status
    seen = Counter()

    def tails(st: kernel.StepArrays):
        """The part of each state's row after the state, for one step."""
        skipped = f"{st.name},0,,,,skipped\n"
        status = np.where(st.passed, "pass", "fail").tolist()
        values = zip(itertools.repeat(st.name), st.lhs.tolist(), st.rhs.tolist(),
                     st.slack.tolist(), status)
        return (checked % v if app else skipped for app, v in zip(st.applicable.tolist(), values))

    def chunks():
        for X, steps in sweep:
            for st in steps:
                seen["applicable"] += int(np.count_nonzero(st.applicable))
                seen["fail"] += int(np.count_nonzero(st.applicable & ~st.passed))
            heads = map(state.__mod__, map(tuple, X.tolist()))
            yield (x + tail for x, row in zip(heads, zip(*map(tails, steps))) for tail in row)

    _write_chunks(args.out, header, chunks())
    print(f"appendix: {seen['applicable']} applicable checks, {seen['fail']} failures")
    return 1 if seen["fail"] else 0


def cmd_simulate(cfg: ScenarioConfig, args: argparse.Namespace) -> int:
    spec = cfg.spec
    base_seed = _seed(cfg, args)
    policy = _policy(cfg)
    walks = [cfg.run.walk_set] if cfg.run.walk_set is not None else []
    header = ["replica", "t"] + [f"x_{c}" for c in spec.classes] \
        + ["sup_norm", "matched_pairs", "perfect"] + ["walk_S"] * len(walks)
    row = ",".join(["%d"] * len(header)) + "\n"
    simulate._check_path_length(cfg.run.T)  # before the output file opens

    def chunks():
        for rep in range(cfg.run.replicas):  # run_replicas' streams, one path at a time
            tr = simulate.run(spec, policy, cfg.run.T, (base_seed, rep),
                              sample_every=cfg.run.sample_every, track_walks=walks)
            cols = [tr.t_grid, *tr.x.T, tr.sup_norm, tr.matched_pairs, tr.perfect, *tr.walks.values()]
            yield map(row.__mod__, zip(itertools.repeat(rep), *(c.tolist() for c in cols)))

    _write_chunks(args.out, header, chunks())
    return 0


def cmd_stationary(cfg: ScenarioConfig, args: argparse.Namespace) -> int:
    spec = cfg.spec
    policy = _policy(cfg)
    chain = analyze.truncate(spec, policy, cfg.analyze.cap)
    est = analyze.stationary(chain)
    bound = analyze.invariant_mean_bound(spec, policy) if stability(spec).ncond else None
    bound_ok = (est.mean_sup_norm <= bound + kernel.INEQ_TOL) if bound is not None else None
    header = [f"x_{c}" for c in spec.classes] + ["pi"]
    row = "%d," * spec.n_classes + "%.17g\n"
    blocks = (slice(k, k + kernel.SWEEP_CHUNK)
              for k in range(0, chain.n_states, kernel.SWEEP_CHUNK))
    _write_chunks(args.out, header, (map(row.__mod__, zip(*chain.states[b].T.tolist(),
                                                          est.pi[b].tolist())) for b in blocks))
    doc = {
        "n_states": chain.n_states,
        "cap": cfg.analyze.cap,
        "mean_sup_norm": est.mean_sup_norm,
        "residual": est.residual,
        "boundary_mass": est.boundary_mass,
        "even_sum": est.even_sum,
        "odd_sum": est.odd_sum,
        "mean_bound": bound if bound is None or math.isfinite(bound) else "inf",
        "bound_ok": bound_ok,
    }
    print(json.dumps(doc, sort_keys=True))
    if est.boundary_mass > analyze.BOUNDARY_WARN:
        print(f"warning: boundary mass {est.boundary_mass:.3g} exceeds {analyze.BOUNDARY_WARN:g}; "
              f"raise analyze.cap", file=sys.stderr)
    return 0 if bound_ok is None or bound_ok else 1


def cmd_sweep(cfg: ScenarioConfig, args: argparse.Namespace) -> int:
    base_seed = _seed(cfg, args)
    if not cfg.sweep_models:
        raise UsageError("sweep: config has no sweep.models")
    rows = analyze.eta_sweep(cfg.sweep_models, cfg.sweep_T, base_seed,
                             cfg.sweep_replicas, weight=cfg.weight)

    def line(r: analyze.SweepRow) -> str:
        buf = io.StringIO()  # the id as csv.writer quotes it among other cells, with its ","
        csv.writer(buf, lineterminator="\n").writerow([r.id, ""])
        return buf.getvalue()[:-1] + "%.17g,%d,%.17g,%.17g,%.17g\n" % astuple(r)[1:]

    _write_chunks(args.out, [f.name for f in fields(analyze.SweepRow)], [map(line, rows)])
    return 0


VERBS = {"ncond": cmd_ncond, "drift": cmd_drift, "appendix": cmd_appendix,
         "simulate": cmd_simulate, "stationary": cmd_stationary, "sweep": cmd_sweep}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sbmatch",
                                     description="online matching on stochastic block models")
    parser.add_argument("verb", choices=VERBS)
    parser.add_argument("--config", required=True, help="path to a JSON scenario config")
    parser.add_argument("--out", default=None, help="output file (default: stdout)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the base seed of randomized verbs")
    parser.add_argument("--max-norm", type=int, default=None,
                        help="sup-norm radius for drift and appendix sweeps")
    parser.add_argument("--corrupt-kernel", action="store_true",
                        help="drift only, negative control: flip every matching step upward")
    return parser


def _drop_stdout() -> bool:
    """True when stdout's reader has gone; stdout then points at os.devnull,
    so that the interpreter's own flush at exit raises no second
    BrokenPipeError."""
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return True
    return False


def main(argv: Sequence[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.corrupt_kernel and args.verb != "drift":
        parser.error(f"--corrupt-kernel applies to drift only, not {args.verb}")

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.max_norm is None:
        args.max_norm = cfg.analyze.max_norm
    try:
        code = VERBS[args.verb](cfg, args)
        sys.stdout.flush()  # a reader that has gone shows here, not at exit
        return code
    except BrokenPipeError as exc:  # stdout's reader, or a pipe given as --out, has gone
        to_stdout = _drop_stdout() or args.out in (None, "-")
        print(f"error: cannot write {'stdout' if to_stdout else args.out}: {exc.strerror}",
              file=sys.stderr)
        return 2
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    except (ValueError, analyze.ConvergenceError) as exc:  # model, policy, kernel errors too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's message names the allocation it refused
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
