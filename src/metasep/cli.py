"""Experiment runner.

Subcommands:

* dynamics   - meta-interpolation trajectory trace (CSV + summary JSON)
* growth     - spike growth vs the high-probability bound over task counts
* separation - sample-complexity table: convex sweep vs spiked first layer
* verify     - oracles.run_suites: JSON report, exit 1 if a suite fails
* risk       - one Monte-Carlo excess-risk query
* nsearch    - sample-complexity search on an explicit n grid

Configuration is a flat JSON file (--config); command-line flags
override file values, and both must have the type of the option's
default. Every command takes --seed and --out; growth, separation, risk
and nsearch also take --workers. main writes each runner's data files and a
<out>.manifest.json with the config echo, seed, version, wall time and
sha256 of each data file. Data files contain no timestamps and are
byte-identical for a fixed seed regardless of --workers.

Exit codes: 0 success, 1 verification-suite failure, 2 config error (a
ValueError, in every command also an r above about 6.7e153, whose 4 r^2
overflows, or a sigma or kappa whose square does, and in risk and nsearch
a w0 whose ||w0||^2 does), 3 numerical failure (an
ArithmeticError: an overflow, or linalg.NumericalError when a computed
matrix, spike, Reptile step or growth a_T is not finite, a vector is not
in a matrix's range, a risk estimate overflows other than by a gd_step
past its stability limit, whose risk points write null, or a file value
is inf or NaN). Failures write no file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from functools import partial
from itertools import repeat

import numpy as np

from . import __version__
from .convex import GdRegSpec, GdStepSpec
from .linalg import NumericalError, SpikedIdentity
from .meta_learners import (ReptileSpec, reptile_growth_bound, reptile_spike, reptile_tau_schedule,
                            replearn_tasks_for_alpha, run_replearn, run_reptile)
from .rng import SeedSpec, gaussian_vector
from .tasks import MetaInstance
from .risk import (AlgSpec, checked_grid, convex_lower_bound_exact, mc_excess_risk,
                   sample_complexity_search)


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# option tables: every command's settings, with defaults


_COMMON = {
    "seed": 42,
    "out": None,       # defaults to the command name
}
_WORKERS = {"workers": 0}  # 0 means machine core count

# the one algorithm that risk and nsearch score (_make_alg) and its instance
_ALG = {"family": "gd_reg", "lam": 0.0, "eta": 0.1, "t0": 100, "alpha": 1.0,
        "kappa": 0.1, "w0": "zero", "d": 20, "r": 1.0, "sigma": 1.0}

_OPTIONS = {
    "dynamics": {**_COMMON, "t_tasks": 1000, "tau": 0.3, "kappa": 0.1, "r": 1.0},
    "growth": {**_COMMON, **_WORKERS, "t_list": [1000, 10000, 100000], "seeds": 20,
               "delta": 0.1, "kappa": 0.1, "r": 1.0, "d": 2},
    "separation": {**_COMMON, **_WORKERS, "d": 50, "r": 1.0, "sigma": 1.0,
                   "epsilon": 0.05, "trials": 400, "kappa": 0.1, "alpha_target": 1e4,
                   "lam_sweep": [0.0, 0.1, 1.0],
                   "convex_grid": [100, 300, 500, 700, 900],
                   "nonconvex_grid": [20, 40, 60, 80, 100]},
    "verify": {**_COMMON},
    "risk": {**_COMMON, **_WORKERS, **_ALG, "n": 20, "trials": 2000},
    "nsearch": {**_COMMON, **_WORKERS, **_ALG, "epsilon": 0.05, "trials": 400,
                "n_grid": [5, 10, 20, 40, 80, 160]},
}

# settings that do not affect the science output; kept out of config echoes
_NON_SCIENCE = {"out", "workers"}


def build_parser(command: str) -> argparse.ArgumentParser:
    """One command's parser: --config and its flags, each by its full name only."""
    parser = argparse.ArgumentParser(prog=f"metasep {command}", allow_abbrev=False)
    parser.set_defaults(command=command)
    parser.add_argument("--config", type=str, default=None,
                        help="flat JSON config; flags override file values")
    for key, default in _OPTIONS[command].items():
        parser.add_argument("--" + key.replace("_", "-"), default=None,
                            help="comma-separated values" if isinstance(default, list) else None)
    return parser


def _typed(key: str, value, default, flag: bool):
    """value as the type of default (str when default is None). A flag's
    text is parsed; a file value must have that type already, except
    that an int stands for a float. A float must be finite. A list
    default takes a list of its element type, or from a flag
    comma-separated text."""
    if isinstance(default, list):
        if flag:
            value = [p for p in value.split(",") if p.strip()]
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        return [_typed(key, v, default[0], flag) for v in value]
    kind = str if default is None else type(default)
    typed = None
    if flag:
        try:
            typed = kind(value)
        except ValueError:
            pass
    elif type(value) is kind or (kind is float and type(value) is int):
        typed = kind(value)
    if typed is None:
        raise ConfigError(f"{key} must be {kind.__name__}, got {value!r}")
    if kind is float and not math.isfinite(typed):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return typed


def _resolve_config(args) -> dict:
    defaults = _OPTIONS[args.command]
    cfg = dict(defaults)
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}")
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config {args.config} must hold a JSON object")
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config keys for {args.command}: {sorted(unknown)}")
        cfg.update({k: _typed(k, v, defaults[k], False) for k, v in file_cfg.items()})
    for key in defaults:
        value = getattr(args, key)
        if value is not None:
            cfg[key] = _typed(key, value, defaults[key], True)
    if cfg["out"] is None:
        cfg["out"] = args.command
    kappa = cfg.get("kappa", 0.0)  # squared by every command that reads it, as are r and sigma
    if not kappa * kappa < math.inf:
        raise ConfigError(f"kappa must have kappa^2 finite, got {kappa!r}")
    if "workers" in cfg:
        if cfg["workers"] < 0:
            raise ConfigError(f"workers must be >= 0 (0 means the CPU count), got {cfg['workers']}")
        cfg["workers"] = cfg["workers"] or os.cpu_count() or 1
    return cfg


def _science_config(cfg: dict) -> dict:
    return {k: v for k, v in cfg.items() if k not in _NON_SCIENCE}


# ---------------------------------------------------------------------------
# output helpers


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _render(path: str, body) -> str:
    """A data file's text: CSV of (header, rows) for a .csv path, else JSON.
    An inf or NaN is a numerical failure, never a literal in the file."""
    if path.endswith(".csv"):
        header, rows = body
        lines = [",".join(header)]
        for row in rows:
            for key, v in zip(header, row):
                if isinstance(v, (float, np.floating)) and not math.isfinite(v):
                    raise NumericalError(f"cannot write {path}: {key} is {_fmt(v)}")
            lines.append(",".join(_fmt(v) for v in row))
        return "\n".join(lines) + "\n"
    try:
        return json.dumps(body, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalError(f"cannot write {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _finite_or_none(x: float):
    """x, or None (JSON null) when inf or NaN: strict JSON has no such numbers."""
    return x if math.isfinite(x) else None


def _efficiency(stderr: float, wall: float):
    """1 / (stderr^2 wall_s), the precision an estimate bought per second
    of its stage, or None (JSON null) when stderr is 0 or the value is
    not finite."""
    denom = stderr * stderr * wall
    return _finite_or_none(1.0 / denom) if 0.0 < denom < math.inf else None


def _point_record(n: int, est) -> dict:
    """JSON-ready record of one search point and its RiskEstimate."""
    return {"n": n, "mean": _finite_or_none(est.mean), "stderr": _finite_or_none(est.stderr)}


def _report_nonfinite(command: str, estimates) -> None:
    """One stderr line counting the trials whose excess risk is inf or
    NaN, and one counting the estimates of finite trials whose mean or
    stderr overflows; their records hold null."""
    bad = sum(e.nonfinite for e in estimates)
    if bad:
        total = sum(e.trials for e in estimates)
        print(f"{command}: {bad} of {total} trials gave a non-finite excess risk "
              f"(a divergent learner); mean/stderr written as null", file=sys.stderr)
    spread = sum(not (e.nonfinite or math.isfinite(e.mean) and math.isfinite(e.stderr))
                 for e in estimates)
    if spread:
        print(f"{command}: the mean or stderr of {spread} of {len(estimates)} estimates overflows "
              f"from finite trials (a divergent learner); written as null", file=sys.stderr)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# commands: each returns (files, manifest extras, exit code); files maps an
# extension to a CSV's (header, rows) or a JSON body, which main writes


def cmd_dynamics(cfg: dict):
    from .twolayer import flow_limit  # no other command calls twolayer
    spec = ReptileSpec(cfg["tau"], cfg["kappa"], cfg["t_tasks"])
    # the meta-step reads only r, so d = 1 serves every instance
    inst = MetaInstance.from_config(1, cfg["r"], 0.0)
    traj = run_reptile(spec, inst, SeedSpec(cfg["seed"]))
    a_list, b_list = traj.a_values.tolist(), traj.b_values.tolist()
    for i, (a, b) in enumerate(zip(a_list, b_list)):
        if not (math.isfinite(a) and math.isfinite(b)):
            raise NumericalError(f"meta-step {i} is not finite: a = {a}, b = {b}")
    rows = list(zip(range(len(a_list)), [0] + traj.signs, a_list, b_list))
    geometry = []
    for i, (s, a, b) in enumerate(zip(traj.signs, a_list, b_list)):
        c = a * a - b * b
        a_bar, b_bar = flow_limit(c, cfg["r"], s)
        # the step-i geometry: the iterate moves along the segment toward
        # the point (a_bar, b_bar) on the curves xy = s*r and y^2 - x^2 = c
        geometry.append({"i": i + 1, "s": s, "c": c, "a_bar": a_bar, "b_bar": b_bar})
    summary = {
        "final_a": a_list[-1],
        "a_monotone": bool(np.all(np.diff(traj.a_values) >= 0.0)),
        "max_abs_b": float(np.max(np.abs(traj.b_values))),
        "geometry": geometry,
    }
    print(f"dynamics: T={cfg['t_tasks']} final a={summary['final_a']:.6g} "
          f"monotone={summary['a_monotone']}")
    return {".csv": (("i", "s", "a", "b"), rows), ".json": summary}, {}, 0


def _reptile_spike(spec: ReptileSpec, inst: MetaInstance, seed: SeedSpec) -> float:
    """reptile_spike as the target of growth's process pool, which pickles
    it by name: perfbench's tracer swaps each public metasep function for
    a closure that does not pickle, and leaves private ones alone."""
    return reptile_spike(spec, inst, seed)


def cmd_growth(cfg: dict):
    if cfg["seeds"] < 1:
        raise ConfigError(f"seeds must be >= 1, got {cfg['seeds']}")
    # each T keys its own fraction and manifest stage
    if not cfg["t_list"] or len(set(cfg["t_list"])) < len(cfg["t_list"]):
        raise ConfigError(f"t_list must be non-empty with distinct values, got {cfg['t_list']}")
    inst = MetaInstance.from_config(cfg["d"], cfg["r"], 0.0)
    master = SeedSpec(cfg["seed"])
    # the runs read only their own streams, so a stage's seeds map over
    # worker processes in one contiguous chunk per worker. They are forked:
    # a spawned worker would import numpy and metasep again, about as long
    # as the default run saves, and a run calls no BLAS, so the workers
    # need none of OpenBLAS's threads that fork leaves behind
    workers = min(cfg["workers"], cfg["seeds"])
    pool, spikes_of = None, map  # lazy, so the first non-finite a_T stops the run
    if workers > 1:
        from concurrent.futures.process import ProcessPoolExecutor
        from multiprocessing import get_context
        pool = ProcessPoolExecutor(workers, mp_context=get_context("fork"))
        spikes_of = partial(pool.map, chunksize=math.ceil(cfg["seeds"] / workers))
    rows = []
    fractions = {}
    stages = {}
    try:
        for ti, t_tasks in enumerate(cfg["t_list"]):
            stage_start = time.monotonic()
            tau = reptile_tau_schedule(t_tasks, cfg["delta"])
            bound = reptile_growth_bound(t_tasks, tau, cfg["delta"], cfg["r"])
            spec = ReptileSpec(tau, cfg["kappa"], t_tasks)
            seeds = [master.child(ti, si) for si in range(cfg["seeds"])]
            spikes = spikes_of(_reptile_spike, repeat(spec), repeat(inst), seeds)
            hits = 0
            for si, a_t in enumerate(spikes):
                if not math.isfinite(a_t):
                    raise NumericalError(f"a_final is {a_t!r} at T={t_tasks}, seed index {si}")
                ok = a_t >= bound
                hits += int(ok)
                rows.append((t_tasks, tau, si, a_t, bound, ok))
            fractions[str(t_tasks)] = hits / cfg["seeds"]
            stages[str(t_tasks)] = {"runs": cfg["seeds"], "meta_steps": cfg["seeds"] * t_tasks,
                                    "wall_s": time.monotonic() - stage_start}
    finally:
        if pool is not None:
            pool.shutdown()
    for t_tasks, frac in fractions.items():
        print(f"growth: T={t_tasks} bound satisfied in {frac:.0%} of runs")
    header = ("t_tasks", "tau", "seed_index", "a_final", "bound", "satisfied")
    return ({".csv": (header, rows), ".json": {"satisfaction_fraction": fractions}},
            {"stages": stages}, 0)


def _search(command: str, half: str, algs, inst: MetaInstance, cfg: dict, grid,
            seed: SeedSpec, stages: dict):
    """One paired search over algs at cfg's epsilon, trials and workers.
    Prints a progress line per grid point and records its stage under
    "<half>/<n>" ("<n>" when half is empty), with the statistical
    efficiency of each algorithm scored there (_efficiency); returns the
    n_eps list and each algorithm's (n, RiskEstimate) points."""
    labels = [a.label() for a in algs]
    points = [[] for _ in algs]
    last = time.monotonic()

    def collect(n, scored):
        nonlocal last
        now = time.monotonic()
        wall, last = now - last, now
        for j, est in scored.items():
            points[j].append((n, est))
        scored_labels = [labels[j] for j in scored]
        stages[f"{half}/{n}" if half else str(n)] = {
            "algorithms": scored_labels, "trials": cfg["trials"],
            "nonfinite": sum(est.nonfinite for est in scored.values()), "wall_s": wall,
            "efficiency": [_efficiency(est.stderr, wall) for est in scored.values()]}
        where = f"{half} n={n}" if half else f"n={n}"
        print(f"{command}: {where} open={','.join(scored_labels)} {wall:.2f} s",
              file=sys.stderr)

    found = sample_complexity_search(algs, inst, cfg["epsilon"], grid, cfg["trials"], seed,
                                     workers=cfg["workers"], collect=collect)
    return found, points


def cmd_separation(cfg: dict):
    if not cfg["lam_sweep"]:
        raise ConfigError("lam_sweep must be non-empty")
    # a repeated lambda would score the same learner twice
    if len(set(cfg["lam_sweep"])) < len(cfg["lam_sweep"]):
        raise ConfigError(f"lam_sweep must have distinct values, got {cfg['lam_sweep']}")
    for key in ("convex_grid", "nonconvex_grid"):
        checked_grid(key, cfg[key])
    d, r, sigma = cfg["d"], cfg["r"], cfg["sigma"]
    inst = MetaInstance.from_config(d, r, sigma)
    master = SeedSpec(cfg["seed"])
    eps = cfg["epsilon"]
    stages = {}
    try:
        t_tasks = replearn_tasks_for_alpha(cfg["alpha_target"], cfg["kappa"], r)
    except OverflowError:
        raise ConfigError(f"alpha_target is too large: its RepLearn task count "
                          f"overflows, got {cfg['alpha_target']!r}") from None

    # the learned layer first: a spike that overflows fails the run before
    # any risk work
    learned = run_replearn(t_tasks, cfg["kappa"], inst)
    alpha = learned.spike
    lam2 = _gd2_lam(0.0, alpha)

    # grid point idx of the convex half reads master.child(0, idx), shared
    # by every lambda; of the nonconvex half, master.child(1, idx)
    convex_found, convex_points = _search(
        "separation", "convex",
        [AlgSpec("gd_reg", GdRegSpec(lam), np.zeros(d)) for lam in cfg["lam_sweep"]],
        inst, cfg, cfg["convex_grid"], master.child(0), stages)
    sweep = [{"lam": lam, "n_eps": found, "points": [_point_record(n, e) for n, e in pts]}
             for lam, found, pts in zip(cfg["lam_sweep"], convex_found, convex_points)]
    convex_n = min((found for found in convex_found if found is not None), default=None)

    (nonconvex_n,), (points,) = _search(
        "separation", "nonconvex", [AlgSpec("gd2_reg", GdRegSpec(lam2), learned)],
        inst, cfg, cfg["nonconvex_grid"], master.child(1), stages)

    max_n = cfg["convex_grid"][-1]
    table = {
        "epsilon": eps,
        "convex": {"n_eps": convex_n,
                   "lower_bound_at_max_n": convex_lower_bound_exact(d, max_n, r, sigma),
                   "sweep": sweep},
        "nonconvex": {"n_eps": nonconvex_n, "alpha": alpha,
                      "t_tasks": t_tasks, "lam": lam2,
                      "points": [_point_record(n, e) for n, e in points]},
    }
    _report_nonfinite("separation", [e for pts in convex_points + [points] for _, e in pts])
    print(f"separation: convex n_eps={convex_n} nonconvex n_eps={nonconvex_n} "
          f"(alpha={alpha:.4g})")
    return {".json": table}, {"stages": stages}, 0


def _make_w0(cfg: dict, inst: MetaInstance, seed: SeedSpec) -> np.ndarray:
    spec = str(cfg["w0"])
    if spec == "zero":
        return np.zeros(inst.d)
    if spec == "wstar":
        return inst.w_star.copy()
    if spec.startswith("random:"):
        scale = _typed("w0 scale", spec.split(":", 1)[1], 1.0, True)
        g = gaussian_vector(seed.child(101), inst.d)
        return scale * g / np.linalg.norm(g)
    raise ConfigError(f"w0 must be 'zero', 'wstar' or 'random:<scale>', got {spec!r}")


def _gd2_lam(lam: float, alpha: float) -> float:
    """gd2_reg's ridge penalty: lam, or alpha^1.5 when lam is 0."""
    if lam == 0.0:
        try:  # complex below 0, 0 at 0 or on underflow, OverflowError above
            lam = alpha ** 1.5 if alpha > 0.0 else 0.0
        except OverflowError:
            lam = 0.0
        if lam == 0.0:
            raise ConfigError(f"alpha must make alpha^1.5, the penalty when lam is 0, "
                              f"positive and finite, got {alpha!r}")
    return lam


def _make_alg(cfg: dict, inst: MetaInstance, seed: SeedSpec) -> AlgSpec:
    family = cfg["family"]
    if family == "gd_step":
        return AlgSpec("gd_step", GdStepSpec(cfg["eta"], cfg["t0"]),
                       _make_w0(cfg, inst, seed))
    if family == "gd_reg":
        return AlgSpec("gd_reg", GdRegSpec(cfg["lam"]), _make_w0(cfg, inst, seed))
    if family == "gd2_reg":
        first = SpikedIdentity(inst.w_star / inst.r, cfg["alpha"], cfg["kappa"])
        return AlgSpec("gd2_reg", GdRegSpec(_gd2_lam(cfg["lam"], cfg["alpha"])), first)
    raise ConfigError(f"unknown family {family!r}")


def cmd_risk(cfg: dict):
    inst = MetaInstance.from_config(cfg["d"], cfg["r"], cfg["sigma"])
    seed = SeedSpec(cfg["seed"])
    alg = _make_alg(cfg, inst, seed)
    est = mc_excess_risk(alg, inst, cfg["n"], cfg["trials"], seed,
                         workers=cfg["workers"])
    record = {"alg": alg.label(), "d": inst.d, "r": inst.r, "sigma": inst.sigma,
              "trials": est.trials, "seed": seed.master_seed, **_point_record(cfg["n"], est)}
    _report_nonfinite("risk", [est])
    print(f"risk: {record['alg']} n={cfg['n']} mean={est.mean:.6g} "
          f"stderr={est.stderr:.3g}")
    return {".json": record}, {"nonfinite": est.nonfinite}, 0


def cmd_nsearch(cfg: dict):
    inst = MetaInstance.from_config(cfg["d"], cfg["r"], cfg["sigma"])
    seed = SeedSpec(cfg["seed"])
    stages = {}
    (found,), (points,) = _search("nsearch", "", [_make_alg(cfg, inst, seed)], inst, cfg,
                                  cfg["n_grid"], seed, stages)
    result = {
        "epsilon": cfg["epsilon"],
        "n_eps": found,
        "points": [_point_record(n, e) for n, e in points],
    }
    _report_nonfinite("nsearch", [e for _, e in points])
    print(f"nsearch: n_eps={found}")
    return {".json": result}, {"stages": stages}, 0


def cmd_verify(cfg: dict):
    # the oracles are test machinery: no other command loads them
    from . import oracles

    report, stages = oracles.run_suites(SeedSpec(cfg["seed"]))
    for s in report:
        shifted = stages[s["suite"]]["perturbed_residual"]
        note = " (oracle did not converge)" if s["oracle_converged"] is False else ""
        note += f" (blind to a {oracles.SHIFT:g} shift)" if not shifted > s["tol"] else ""
        print(f"verify: {s['suite']:24s} residual={s['residual']:.3e} shifted={shifted:.3e} "
              f"tol={s['tol']:.0e} {'ok' if s['passed'] else 'FAIL'}{note}")
    passed = all(s["passed"] for s in report)
    return {".json": {"passed": passed, "suites": report}}, {"stages": stages}, 0 if passed else 1


_RUNNERS = {
    "dynamics": cmd_dynamics,
    "growth": cmd_growth,
    "separation": cmd_separation,
    "verify": cmd_verify,
    "risk": cmd_risk,
    "nsearch": cmd_nsearch,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in _OPTIONS:  # no command: the help, or a usage error
        front = argparse.ArgumentParser(prog="metasep",
                                        description="meta-learning separation experiments")
        front.add_argument("command", choices=_OPTIONS)
        front.parse_args(argv[:1])  # a lone token that names no command: exits
    args = build_parser(argv[0]).parse_args(argv[1:])
    try:
        cfg = _resolve_config(args)
        start = time.monotonic()
        files, extra, code = _RUNNERS[args.command](cfg)
        echo = {"config": _science_config(cfg), "seed": cfg["seed"]}
        # render every data file before writing any, so a failure leaves none
        texts = {cfg["out"] + ext: _render(cfg["out"] + ext,
                                           body if ext == ".csv" else {**echo, **body})
                 for ext, body in files.items()}
        for path, text in texts.items():
            _write(path, text)
        manifest = cfg["out"] + ".manifest.json"
        _write(manifest, _render(manifest, {
            **echo,
            "command": args.command,
            "version": __version__,
            "wall_time_s": time.monotonic() - start,
            "outputs": {os.path.basename(p): _sha256(p) for p in texts},
            "environment": {"numpy": np.__version__, "cpu_count": os.cpu_count(),
                            "threads": {k: v for k, v in sorted(os.environ.items())
                                        if k.endswith("_NUM_THREADS")}},
            **extra,
        }))
        return code
    except ArithmeticError as exc:  # NumericalError, or an overflow that no check foresaw
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # ConfigError, or a value outside its domain (MetaInstance, specs)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
