"""Experiment runner.

Subcommands:

* dynamics   - meta-interpolation trajectory trace (CSV + summary JSON)
* growth     - spike growth vs the high-probability bound over task counts
* separation - sample-complexity table: convex sweep vs spiked first layer
* verify     - closed-form-vs-oracle suites, JSON report, exit 1 on failure
* risk       - one Monte-Carlo excess-risk query
* nsearch    - sample-complexity search on an explicit n grid

Configuration is a flat JSON file (--config); command-line flags
override file values. Every run writes its data files plus a
<out>.manifest.json with the config echo, seed, version, wall time and
sha256 of each data file. Data files contain no timestamps and are
byte-identical for a fixed seed regardless of --workers.

Exit codes: 0 success, 1 verification-suite failure, 2 config error,
3 numerical failure (a matrix that must be positive definite is not).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .convex import GdRegSpec, GdStepSpec, gd_reg, gd_step, linear_flow_solve, linear_step_solve
from .linalg import NotPsdError, SpikedIdentity
from .meta_learners import (ReptileSpec, reptile_growth_bound, reptile_tau_schedule,
                            replearn_alpha, replearn_tasks_for_alpha,
                            run_replearn, run_reptile)
from .rng import SeedSpec, gaussian_matrix, gaussian_vector
from .tasks import MetaInstance, Task, sample_dataset, sample_task
from .twolayer import TwoLayerParams, flow_limit, gd2_reg, gd_pop_flow_numeric
from . import oracles
from .risk import (AlgSpec, convex_lower_bound_exact, mc_excess_risk, risk_record,
                   sample_complexity_search)


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# option tables: every command's settings, with defaults


_COMMON = {
    "seed": 42,
    "out": None,       # defaults to the command name
    "workers": 0,      # 0 means machine core count
}

_OPTIONS = {
    "dynamics": {**_COMMON, "t_tasks": 1000, "tau": 0.3, "kappa": 0.1,
                 "r": 1.0, "d": 2},
    "growth": {**_COMMON, "t_list": [1000, 10000, 100000], "seeds": 20,
               "delta": 0.1, "kappa": 0.1, "r": 1.0, "d": 2},
    "separation": {**_COMMON, "d": 50, "r": 1.0, "sigma": 1.0, "epsilon": 0.05,
                   "trials": 400, "kappa": 0.1, "alpha_target": 1e4,
                   "lam_sweep": [0.0, 0.1, 1.0],
                   "convex_grid": [100, 300, 500, 700, 900],
                   "nonconvex_grid": [20, 40, 60, 80, 100]},
    "verify": {**_COMMON, "self_test_perturb": False},
    "risk": {**_COMMON, "family": "gd_reg", "lam": 0.0, "eta": 0.1, "t0": 100,
             "alpha": 1.0, "kappa": 0.1, "w0": "zero", "d": 20, "r": 1.0,
             "sigma": 1.0, "n": 20, "trials": 2000},
    "nsearch": {**_COMMON, "family": "gd_reg", "lam": 0.0, "eta": 0.1, "t0": 100,
                "alpha": 1.0, "kappa": 0.1, "w0": "zero", "d": 20, "r": 1.0,
                "sigma": 1.0, "epsilon": 0.05, "trials": 400,
                "n_grid": [5, 10, 20, 40, 80, 160]},
}

_LIST_KEYS = {"t_list", "lam_sweep", "convex_grid", "nonconvex_grid", "n_grid"}
# settings that do not affect the science output; kept out of config echoes
_NON_SCIENCE = {"out", "workers"}


def _parse_list(value, elem=float):
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip()]
        return [elem(p) for p in parts]
    return [elem(v) for v in value]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="metasep",
                                     description="meta-learning separation experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, opts in _OPTIONS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=str, default=None,
                        help="flat JSON config; flags override file values")
        for key, default in opts.items():
            flag = "--" + key.replace("_", "-")
            if isinstance(default, bool):
                sp.add_argument(flag, action="store_const", const=True, default=None)
            elif key in _LIST_KEYS:
                sp.add_argument(flag, type=str, default=None,
                                help="comma-separated values")
            elif isinstance(default, int):
                sp.add_argument(flag, type=int, default=None)
            elif isinstance(default, float):
                sp.add_argument(flag, type=float, default=None)
            else:
                sp.add_argument(flag, type=str, default=None)
    return parser


def _resolve_config(args) -> dict:
    defaults = _OPTIONS[args.command]
    cfg = dict(defaults)
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}")
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config keys for {args.command}: {sorted(unknown)}")
        cfg.update(file_cfg)
    for key in defaults:
        value = getattr(args, key)
        if value is not None:
            cfg[key] = value
    for key in _LIST_KEYS & set(cfg):
        elem = int if key in ("t_list", "convex_grid", "nonconvex_grid", "n_grid") else float
        cfg[key] = _parse_list(cfg[key], elem)
    if cfg["out"] is None:
        cfg["out"] = args.command
    if cfg["workers"] in (None, 0):
        cfg["workers"] = os.cpu_count() or 1
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


def write_csv(path: str, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()


def write_manifest(command: str, cfg: dict, paths, wall: float, **extra) -> str:
    manifest = {
        "command": command,
        "config": _science_config(cfg),
        "seed": cfg["seed"],
        "version": __version__,
        "wall_time_s": wall,
        "outputs": {os.path.basename(p): _sha256(p) for p in paths},
        **extra,
    }
    path = cfg["out"] + ".manifest.json"
    write_json(path, manifest)
    return path


# ---------------------------------------------------------------------------
# commands


def cmd_dynamics(cfg: dict) -> int:
    start = time.monotonic()
    spec = ReptileSpec(cfg["tau"], cfg["kappa"], cfg["t_tasks"])
    inst = MetaInstance.from_config(cfg["d"], cfg["r"], 0.0)
    _, traj = run_reptile(spec, inst, SeedSpec(cfg["seed"]))
    a_list, b_list = traj.a_values.tolist(), traj.b_values.tolist()
    rows = list(zip(range(len(a_list)), [0] + traj.signs, a_list, b_list))
    geometry = []
    for i, (s, a, b) in enumerate(zip(traj.signs, a_list, b_list)):
        c = a * a - b * b
        a_bar, b_bar = flow_limit(c, cfg["r"], s)
        # the step-i geometry: the iterate moves along the segment toward
        # the point (a_bar, b_bar) on the curves xy = s*r and y^2 - x^2 = c
        geometry.append({"i": i + 1, "s": s, "c": c, "a_bar": a_bar, "b_bar": b_bar})
    csv_path = cfg["out"] + ".csv"
    write_csv(csv_path, ("i", "s", "a", "b"), rows)
    a_vals = traj.a_values
    summary = {
        "config": _science_config(cfg),
        "seed": cfg["seed"],
        "final_a": float(a_vals[-1]),
        "a_monotone": bool(np.all(np.diff(a_vals) >= 0.0)),
        "max_abs_b": float(np.max(np.abs(traj.b_values))),
        "geometry": geometry,
    }
    json_path = cfg["out"] + ".json"
    write_json(json_path, summary)
    write_manifest("dynamics", cfg, [csv_path, json_path], time.monotonic() - start)
    print(f"dynamics: T={cfg['t_tasks']} final a={summary['final_a']:.6g} "
          f"monotone={summary['a_monotone']}")
    return 0


def cmd_growth(cfg: dict) -> int:
    start = time.monotonic()
    inst = MetaInstance.from_config(cfg["d"], cfg["r"], 0.0)
    master = SeedSpec(cfg["seed"])
    rows = []
    fractions = {}
    stages = {}
    for ti, t_tasks in enumerate(cfg["t_list"]):
        stage_start = time.monotonic()
        tau = reptile_tau_schedule(t_tasks, cfg["delta"])
        bound = reptile_growth_bound(t_tasks, tau, cfg["delta"], cfg["r"])
        spec = ReptileSpec(tau, cfg["kappa"], t_tasks)
        hits = 0
        for si in range(cfg["seeds"]):
            _, traj = run_reptile(spec, inst, master.child(ti, si))
            a_t = float(traj.a_values[-1])
            ok = a_t >= bound
            hits += int(ok)
            rows.append((t_tasks, tau, si, a_t, bound, ok))
        fractions[str(t_tasks)] = hits / cfg["seeds"]
        stages[str(t_tasks)] = {"runs": cfg["seeds"], "meta_steps": cfg["seeds"] * t_tasks,
                                "wall_s": time.monotonic() - stage_start}
    csv_path = cfg["out"] + ".csv"
    write_csv(csv_path, ("t_tasks", "tau", "seed_index", "a_final", "bound", "satisfied"), rows)
    summary = {"config": _science_config(cfg), "seed": cfg["seed"],
               "satisfaction_fraction": fractions}
    json_path = cfg["out"] + ".json"
    write_json(json_path, summary)
    write_manifest("growth", cfg, [csv_path, json_path], time.monotonic() - start, stages=stages)
    for t_tasks, frac in fractions.items():
        print(f"growth: T={t_tasks} bound satisfied in {frac:.0%} of runs")
    return 0


def cmd_separation(cfg: dict) -> int:
    start = time.monotonic()
    d, r, sigma = cfg["d"], cfg["r"], cfg["sigma"]
    inst = MetaInstance.from_config(d, r, sigma)
    master = SeedSpec(cfg["seed"])
    eps = cfg["epsilon"]

    sweep = []
    convex_hits = []
    for li, lam in enumerate(cfg["lam_sweep"]):
        points = []
        found = sample_complexity_search(
            lambda n: AlgSpec("gd_reg", GdRegSpec(lam), np.zeros(d)),
            inst, eps, cfg["convex_grid"], cfg["trials"], master.child(0, li),
            workers=cfg["workers"], collect=points)
        sweep.append({"lam": lam, "n_eps": found,
                      "points": [{"n": n, "mean": e.mean, "stderr": e.stderr}
                                 for n, e in points]})
        if found is not None:
            convex_hits.append(found)
    convex_n = min(convex_hits) if convex_hits else None

    t_tasks = replearn_tasks_for_alpha(cfg["alpha_target"], cfg["kappa"], r)
    learned = run_replearn(t_tasks, cfg["kappa"], inst)
    alpha = learned.spike
    lam2 = alpha ** 1.5
    points = []
    nonconvex_n = sample_complexity_search(
        lambda n: AlgSpec("gd2_reg", GdRegSpec(lam2), learned),
        inst, eps, cfg["nonconvex_grid"], cfg["trials"], master.child(1),
        workers=cfg["workers"], collect=points)

    max_n = cfg["convex_grid"][-1]
    table = {
        "config": _science_config(cfg),
        "seed": cfg["seed"],
        "epsilon": eps,
        "convex": {"n_eps": convex_n,
                   "lower_bound_at_max_n": convex_lower_bound_exact(d, max_n, r, sigma),
                   "sweep": sweep},
        "nonconvex": {"n_eps": nonconvex_n, "alpha": alpha,
                      "t_tasks": t_tasks, "lam": lam2,
                      "points": [{"n": n, "mean": e.mean, "stderr": e.stderr}
                                 for n, e in points]},
    }
    json_path = cfg["out"] + ".json"
    write_json(json_path, table)
    write_manifest("separation", cfg, [json_path], time.monotonic() - start)
    print(f"separation: convex n_eps={convex_n} nonconvex n_eps={nonconvex_n} "
          f"(alpha={alpha:.4g})")
    return 0


def _make_w0(cfg: dict, inst: MetaInstance, seed: SeedSpec) -> np.ndarray:
    spec = str(cfg["w0"])
    if spec == "zero":
        return np.zeros(inst.d)
    if spec == "wstar":
        return inst.w_star.copy()
    if spec.startswith("random:"):
        scale = float(spec.split(":", 1)[1])
        g = gaussian_vector(seed.child(101), inst.d)
        return scale * g / np.linalg.norm(g)
    raise ConfigError(f"w0 must be 'zero', 'wstar' or 'random:<scale>', got {spec!r}")


def _make_alg(cfg: dict, inst: MetaInstance, seed: SeedSpec) -> AlgSpec:
    family = cfg["family"]
    if family == "gd_step":
        return AlgSpec("gd_step", GdStepSpec(cfg["eta"], cfg["t0"]),
                       _make_w0(cfg, inst, seed))
    if family == "gd_reg":
        return AlgSpec("gd_reg", GdRegSpec(cfg["lam"]), _make_w0(cfg, inst, seed))
    if family == "gd2_reg":
        first = SpikedIdentity(inst.w_star / inst.r, cfg["alpha"], cfg["kappa"])
        lam = cfg["lam"] if cfg["lam"] > 0 else cfg["alpha"] ** 1.5
        return AlgSpec("gd2_reg", GdRegSpec(lam), first)
    raise ConfigError(f"unknown family {family!r}")


def cmd_risk(cfg: dict) -> int:
    start = time.monotonic()
    inst = MetaInstance.from_config(cfg["d"], cfg["r"], cfg["sigma"])
    seed = SeedSpec(cfg["seed"])
    alg = _make_alg(cfg, inst, seed)
    est = mc_excess_risk(alg, inst, cfg["n"], cfg["trials"], seed,
                         workers=cfg["workers"])
    record = risk_record(alg, inst, cfg["n"], est, seed)
    record["config"] = _science_config(cfg)
    json_path = cfg["out"] + ".json"
    write_json(json_path, record)
    write_manifest("risk", cfg, [json_path], time.monotonic() - start)
    print(f"risk: {record['alg']} n={cfg['n']} mean={est.mean:.6g} "
          f"stderr={est.stderr:.3g}")
    return 0


def cmd_nsearch(cfg: dict) -> int:
    start = time.monotonic()
    inst = MetaInstance.from_config(cfg["d"], cfg["r"], cfg["sigma"])
    seed = SeedSpec(cfg["seed"])
    points = []
    found = sample_complexity_search(
        lambda n: _make_alg(cfg, inst, seed), inst, cfg["epsilon"],
        cfg["n_grid"], cfg["trials"], seed, workers=cfg["workers"],
        collect=points)
    result = {
        "config": _science_config(cfg),
        "seed": cfg["seed"],
        "epsilon": cfg["epsilon"],
        "n_eps": found,
        "points": [{"n": n, "mean": e.mean, "stderr": e.stderr} for n, e in points],
    }
    json_path = cfg["out"] + ".json"
    write_json(json_path, result)
    write_manifest("nsearch", cfg, [json_path], time.monotonic() - start)
    print(f"nsearch: n_eps={found}")
    return 0


# ---------------------------------------------------------------------------
# verification suites: each returns (worst residual, oracle converged), the
# flag None when the suite's oracle has no convergence criterion


def _suite_gd_step(seed: SeedSpec, bump: float) -> tuple[float, bool | None]:
    worst = 0.0
    for k in range(30):
        sk = seed.child(k)
        d = 2 + k % 6
        n = 3 + k % 10
        inst = MetaInstance.from_config(d, 1.0, 0.5)
        task = sample_task(inst, sk.child(0))
        ds = sample_dataset(task, n, sk.child(1))
        w0 = gaussian_vector(sk.child(2), d)
        eta, t0 = 0.02 + 0.01 * (k % 3), 5 + 7 * (k % 5)
        closed = gd_step(GdStepSpec(eta, t0), ds, w0) + bump
        explicit = oracles.gd_iteration(ds, w0, eta, t0)
        worst = max(worst, float(np.linalg.norm(closed - explicit)
                                 / max(1.0, np.linalg.norm(explicit))))
    return worst, None


def _suite_gd_reg(seed: SeedSpec, bump: float) -> tuple[float, bool | None]:
    worst = 0.0
    for k in range(30):
        sk = seed.child(k)
        d = 2 + k % 6
        n = 3 + k % 10
        lam = 0.0 if k % 4 == 0 else 0.1 + 0.3 * (k % 3)
        inst = MetaInstance.from_config(d, 1.0, 0.5)
        task = sample_task(inst, sk.child(0))
        ds = sample_dataset(task, n, sk.child(1))
        w0 = gaussian_vector(sk.child(2), d)
        closed = gd_reg(GdRegSpec(lam), ds, w0) + bump
        reference = oracles.gd_reg_pinv_oracle(ds, w0, lam)
        worst = max(worst, float(np.linalg.norm(closed - reference)
                                 / max(1.0, np.linalg.norm(reference))))
    return worst, None


def _suite_linear_flow(seed: SeedSpec, bump: float) -> tuple[float, bool | None]:
    worst = 0.0
    for k in range(10):
        sk = seed.child(k)
        d = 4
        g = gaussian_matrix(sk.child(0), d, d)
        m = g @ g.T / d
        b = m @ gaussian_vector(sk.child(1), d)
        w0 = gaussian_vector(sk.child(2), d)
        closed = linear_flow_solve(m, b, w0, 2.0) + bump
        numeric = oracles.linear_flow_rk4(m, b, w0, 2.0)
        worst = max(worst, float(np.linalg.norm(closed - numeric)))
    return worst, None


def _suite_linear_step(seed: SeedSpec, bump: float) -> tuple[float, bool | None]:
    worst = 0.0
    for k in range(10):
        sk = seed.child(k)
        d = 5
        g = gaussian_matrix(sk.child(0), d, d)
        m = g @ g.T / d
        b = m @ gaussian_vector(sk.child(1), d)
        w0 = gaussian_vector(sk.child(2), d)
        eta = 0.5 / float(np.linalg.norm(m, 2))
        closed = linear_step_solve(m, b, w0, eta, 57) + bump
        w = w0.copy()
        for _ in range(57):
            w = w - eta * (m @ w - b)
        worst = max(worst, float(np.linalg.norm(closed - w)))
    return worst, None


def _suite_twolayer_fp(seed: SeedSpec, bump: float) -> tuple[float, bool | None]:
    worst, converged = 0.0, True
    for k in range(4):
        sk = seed.child(k)
        d = 5
        inst = MetaInstance.from_config(d, 0.5 + 0.5 * k, 0.0)
        sgn = 1 if k % 2 == 0 else -1
        a0, b0 = 0.4 + 0.1 * k, 0.1
        first = SpikedIdentity(inst.w_star / inst.r, a0, 0.1).to_dense()
        params = TwoLayerParams(first, b0 * inst.w_star / inst.r)
        out, ok = gd_pop_flow_numeric(params, Task(inst, sgn), t_max=400.0, tol=1e-9)
        converged = converged and ok
        a_bar, b_bar = flow_limit(a0 * a0 - b0 * b0, inst.r, sgn)
        w_hat = inst.w_star / inst.r
        a_num = float(w_hat @ out.first_dense() @ w_hat) + bump
        b_num = float(w_hat @ out.second)
        worst = max(worst, abs(a_num - a_bar), abs(b_num - b_bar))
    return worst, converged


def _suite_gd2_reg(seed: SeedSpec, bump: float) -> tuple[float, bool | None]:
    worst = 0.0
    for k in range(5):
        sk = seed.child(k)
        d, n, lam = 4, 8, 0.3
        inst = MetaInstance.from_config(d, 1.0, 0.5)
        task = sample_task(inst, sk.child(0))
        ds = sample_dataset(task, n, sk.child(1))
        g = gaussian_matrix(sk.child(2), d, d)
        a0 = g @ g.T / d + 0.5 * np.eye(d)
        out = gd2_reg(lam, ds, a0)
        m = a0 @ (ds.x.T @ ds.x / n) @ a0 + lam * np.eye(d)
        b = a0 @ (ds.x.T @ ds.y / n)
        numeric = oracles.linear_flow_rk4(m, b, np.zeros(d), 50.0 / float(np.linalg.eigvalsh(m)[0]))
        worst = max(worst, float(np.linalg.norm(out.second + bump - numeric)))
        # identity first layer reduces to the one-layer ridge solution
        reduced = gd2_reg(lam, ds, np.eye(d)).second
        ridge = gd_reg(GdRegSpec(lam), ds, np.zeros(d))
        worst = max(worst, float(np.linalg.norm(reduced - ridge)))
    return worst, None


def _suite_replearn(seed: SeedSpec, bump: float) -> tuple[float, bool | None]:
    expected = math.sqrt((0.01 + math.sqrt(4e4 + 1e-4)) / 2.0)
    worst = abs(replearn_alpha(10 ** 4, 0.1, 1.0) + bump - expected)
    inst = MetaInstance.from_config(4, 1.0, 0.0)
    signs = [1, -1, 1]
    a, _, converged = oracles.replearn_joint_flow(inst, signs, 0.1, t_max=400.0, tol=1e-8)
    w_hat = inst.w_star
    spike = float(w_hat @ a @ w_hat)
    worst = max(worst, abs(spike - replearn_alpha(3, 0.1, 1.0)))
    return worst, converged


_SUITES = [
    ("gd-step-closed-form", _suite_gd_step, 1e-8),
    ("gd-reg-closed-form", _suite_gd_reg, 1e-10),
    ("linear-flow", _suite_linear_flow, 1e-8),
    ("linear-step", _suite_linear_step, 1e-10),
    ("twolayer-fixed-point", _suite_twolayer_fp, 1e-6),
    ("second-layer-ridge", _suite_gd2_reg, 1e-6),
    ("replearn-fixed-point", _suite_replearn, 1e-5),
]


def cmd_verify(cfg: dict) -> int:
    start = time.monotonic()
    seed = SeedSpec(cfg["seed"])
    # the perturbation shifts each closed form by a small constant; every
    # suite must then notice, which certifies the checks have teeth
    bump = 1e-4 if cfg["self_test_perturb"] else 0.0
    report = []
    stages = {}
    all_ok = True
    for i, (name, fn, tol) in enumerate(_SUITES):
        suite_start = time.monotonic()
        residual, converged = fn(seed.child(i), bump)
        stages[name] = {"wall_s": time.monotonic() - suite_start}
        ok = residual <= tol and converged is not False
        all_ok = all_ok and ok
        report.append({"suite": name, "residual": residual, "tol": tol,
                       "oracle_converged": converged, "passed": ok})
        note = "" if converged is not False else " (oracle did not converge)"
        print(f"verify: {name:24s} residual={residual:.3e} tol={tol:.0e} "
              f"{'ok' if ok else 'FAIL'}{note}")
    json_path = cfg["out"] + ".json"
    write_json(json_path, {"config": _science_config(cfg), "seed": cfg["seed"],
                           "passed": all_ok, "suites": report})
    write_manifest("verify", cfg, [json_path], time.monotonic() - start, stages=stages)
    return 0 if all_ok else 1


_RUNNERS = {
    "dynamics": cmd_dynamics,
    "growth": cmd_growth,
    "separation": cmd_separation,
    "verify": cmd_verify,
    "risk": cmd_risk,
    "nsearch": cmd_nsearch,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return _RUNNERS[args.command](cfg)
    except NotPsdError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
