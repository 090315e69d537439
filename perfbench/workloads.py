"""One benchmark pass in its own process: set up, run, check.

Usage (run.py starts this; it is not meant to be typed by hand):

    python3 perfbench/workloads.py --workload NAME --seed N --t0 T \
        --out DIR [--trace] [--delay-ms MS] [--setup-only] [--memory-probe]

--t0 is the parent's time.monotonic() just before it started this
process, so set-up time counts interpreter start, imports and input
construction; reference time stops once numpy is imported, before
metasep is. With --memory-probe the process runs the workload's
memory probe (see MEMORY_PROBES) instead of a pass. The pass writes
DIR/result.json with its set-up and run
times, the correctness verdict of every op, the risk points, the sha256
of each output and, when traced, the per-function span aggregates.
Exit code 3 means metasep could not be imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")

WORKERS = {"separation": 2, "lower-bound-sweep": 1, "growth": 1, "oracle-check": 1}
# The paper configuration of the separation table, passed explicitly so a
# change of CLI defaults cannot silently change the workload. The trial
# count is the pass length: 12 trials take about 5 s at --workers 2. Fewer
# would make the "no convex lambda reaches eps by n = 900" gate flaky:
# lambda = 0.1 sits at 0.056 there, and with 6 trials mean + 2 stderr
# falls below 0.05 in about 1 pass in 400 (simulated from the per-trial
# spread at that point).
SEPARATION_ARGS = ["--d", "50", "--r", "1.0", "--sigma", "1.0", "--epsilon", "0.05",
                   "--kappa", "0.1", "--alpha-target", "1e4",
                   "--lam-sweep", "0,0.1,1", "--convex-grid", "100,300,500,700,900",
                   "--nonconvex-grid", "20,40,60,80,100",
                   "--trials", "12", "--workers", str(WORKERS["separation"])]
# metasep growth at its defaults: T in {1e3, 1e4, 1e5} x 20 seeds.
GROWTH_ARGS = ["--t-list", "1000,10000,100000", "--seeds", "20", "--delta", "0.1",
               "--kappa", "0.1", "--r", "1.0", "--d", "2"]
SWEEP_D, SWEEP_NS, SWEEP_TRIALS = 20, (5, 20, 80), 100
# The separation table's trial count, for its memory probe.
PAPER_TRIALS = 400


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return _sha256_bytes(fh.read())


def _finite(x) -> bool:
    return x is not None and math.isfinite(x)


def _cli_outputs(prefix: str, code: int) -> dict:
    """sha256 of each data file the CLI wrote, checked against its manifest."""
    if code != 0:
        raise RuntimeError(f"metasep exited with code {code}")
    with open(prefix + ".manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    out_dir = os.path.dirname(prefix)
    actual = {name: _sha256_file(os.path.join(out_dir, name)) for name in manifest["outputs"]}
    if actual != manifest["outputs"]:
        raise RuntimeError("data files do not match their manifest sha256")
    return actual


# ---------------------------------------------------------------------------
# workloads: setup(seed, out_dir) -> (run, check); run() does the timed work,
# check(output) returns {"ops": [bool, ...], "points": [[mean, stderr], ...],
# "sha256": {...}, ...}


def _separation(seed: int, out_dir: str):
    from metasep import cli

    prefix = os.path.join(out_dir, "separation")
    argv = ["separation", *SEPARATION_ARGS, "--seed", str(seed), "--out", prefix]

    def run():
        return cli.main(argv)

    def check(code):
        sha = _cli_outputs(prefix, code)
        with open(prefix + ".json", encoding="utf-8") as fh:
            table = json.load(fh)
        eps = table["epsilon"]
        ops, points = [], []
        bound_ok = table["convex"]["lower_bound_at_max_n"] > eps
        # no convex lambda may reach eps anywhere on its grid up to n = 900
        for sweep in table["convex"]["sweep"]:
            ok = bound_ok and sweep["n_eps"] is None
            for p in sweep["points"]:
                ops.append(ok and _finite(p["mean"]) and _finite(p["stderr"]))
                points.append([p["mean"], p["stderr"]])
        nonconvex = table["nonconvex"]
        ok = bound_ok and nonconvex["n_eps"] is not None and nonconvex["n_eps"] <= 100
        for p in nonconvex["points"]:
            ops.append(ok and _finite(p["mean"]) and _finite(p["stderr"]))
            points.append([p["mean"], p["stderr"]])
        return {"ops": ops, "points": points, "sha256": sha,
                "nonconvex_n_eps": nonconvex["n_eps"]}

    return run, check


def _separation_memory(seed: int, out_dir: str):
    """One convex grid point of the separation table at the paper's trial
    count: d=50, n=900, lambda=0.1, 400 trials, at the separation
    workload's worker count. A pass runs 12 trials, so a pass cannot show
    an implementation that holds every trial's design at once (trials x n
    x d doubles: 144 MB here against about 35 MB of peak RSS); this
    process can. The check is the convex lower bound at n=900."""
    import numpy as np

    from metasep import convex, risk, rng, tasks

    d, n = 50, 900
    inst = tasks.MetaInstance.from_config(d, 1.0, 1.0)
    alg = risk.AlgSpec("gd_reg", convex.GdRegSpec(0.1), np.zeros(d))

    def run():
        return risk.mc_excess_risk(alg, inst, n, PAPER_TRIALS, rng.SeedSpec(seed),
                                   workers=WORKERS["separation"])

    def check(est):
        bound = risk.convex_lower_bound_exact(d, n, 1.0, 1.0)
        ok = _finite(est.mean) and _finite(est.stderr) and est.mean + 3.0 * est.stderr >= bound
        blob = json.dumps([repr(est.mean), repr(est.stderr)]).encode()
        return {"ops": [ok], "points": [[est.mean, est.stderr]],
                "sha256": {"estimate": _sha256_bytes(blob)}}

    return run, check


def _lower_bound_sweep(seed: int, out_dir: str):
    import numpy as np

    from metasep import convex, risk, rng, tasks

    d = SWEEP_D
    inst = tasks.MetaInstance.from_config(d, 1.0, 1.0)
    master = rng.SeedSpec(seed)
    g = rng.gaussian_vector(master.child(606), d)
    inits = (np.zeros(d), inst.w_star.copy(), 5.0 * g / np.linalg.norm(g))
    algs = []
    for w0 in inits:
        algs += [risk.AlgSpec("gd_reg", convex.GdRegSpec(lam), w0)
                 for lam in (0.0, 0.1, 1.0, 10.0)]
        algs += [risk.AlgSpec("gd_step", convex.GdStepSpec(eta, t0), w0)
                 for eta in (0.01, 0.1) for t0 in (10, 100, 1000)]

    def run():
        return [risk.mc_excess_risk_many(algs, inst, n, SWEEP_TRIALS, master.child(n),
                                         workers=1)
                for n in SWEEP_NS]

    def check(per_n):
        ops, points = [], []
        for n, ests in zip(SWEEP_NS, per_n):
            bound = risk.convex_lower_bound_exact(d, n, 1.0, 1.0)
            for e in ests:
                ops.append(_finite(e.mean) and _finite(e.stderr)
                           and e.mean + 3.0 * e.stderr >= bound)
                points.append([e.mean, e.stderr])
        blob = json.dumps([[repr(m), repr(s)] for m, s in points]).encode()
        return {"ops": ops, "points": points, "sha256": {"estimates": _sha256_bytes(blob)}}

    return run, check


def _growth(seed: int, out_dir: str):
    from metasep import cli

    prefix = os.path.join(out_dir, "growth")
    argv = ["growth", *GROWTH_ARGS, "--seed", str(seed), "--out", prefix]

    def run():
        return cli.main(argv)

    def check(code):
        sha = _cli_outputs(prefix, code)
        with open(prefix + ".csv", encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        by_t = {}
        for t_tasks, _tau, _si, a_final, bound, satisfied in rows:
            a, b = float(a_final), float(bound)
            sound = _finite(a) and _finite(b) and (satisfied == "1") == (a >= b)
            by_t.setdefault(t_tasks, []).append((sound, satisfied == "1"))
        ops, fractions = [], {}
        for t_tasks, runs in by_t.items():
            fractions[t_tasks] = sum(s for _, s in runs) / len(runs)
            ops += [sound and fractions[t_tasks] >= 0.9 for sound, _ in runs]
        return {"ops": ops, "points": [], "sha256": sha, "satisfaction": fractions}

    return run, check


def _oracle_check(seed: int, out_dir: str):
    """The closed-form-vs-oracle pairings of `metasep verify` on
    seed-derived instances, sized so that a pass takes a few seconds.
    Tolerances are those of the verify suites."""
    import numpy as np

    from metasep import convex, linalg, meta_learners, oracles, rng, tasks, twolayer

    master = rng.SeedSpec(seed)

    def rel(a, b):
        return float(np.linalg.norm(a - b) / max(1.0, np.linalg.norm(b)))

    def spd(sk, d):
        g = rng.gaussian_matrix(sk, d, d)
        return g @ g.T / d

    def dataset(sk, d, n):
        inst = tasks.MetaInstance.from_config(d, 1.0, 0.5)
        return tasks.sample_dataset(tasks.sample_task(inst, sk.child(0)), n, sk.child(1))

    def run():
        items = []  # (pairing, residual, tol, oracle converged)
        for k in range(10):
            sk = master.child(0, k)
            d, n = 2 + k % 6, 3 + k % 10
            ds, w0 = dataset(sk, d, n), rng.gaussian_vector(sk.child(2), d)
            eta, t0 = 0.02 + 0.01 * (k % 3), 5 + 7 * (k % 5)
            items.append(("gd-step", rel(convex.gd_step(convex.GdStepSpec(eta, t0), ds, w0),
                                         oracles.gd_iteration(ds, w0, eta, t0)), 1e-8, True))
            lam = 0.0 if k % 4 == 0 else 0.1 + 0.3 * (k % 3)
            items.append(("gd-reg", rel(convex.gd_reg(convex.GdRegSpec(lam), ds, w0),
                                        oracles.gd_reg_pinv_oracle(ds, w0, lam)), 1e-10, True))
        for k in range(5):
            sk = master.child(1, k)
            m = spd(sk.child(0), 4)
            b, w0 = m @ rng.gaussian_vector(sk.child(1), 4), rng.gaussian_vector(sk.child(2), 4)
            closed = convex.linear_flow_solve(m, b, w0, 2.0)
            items.append(("linear-flow", float(np.linalg.norm(
                closed - oracles.linear_flow_rk4(m, b, w0, 2.0))), 1e-8, True))
        inst = tasks.MetaInstance.from_config(5, 1.0, 0.0)
        sgn = int(rng.rademacher_signs(master.child(2), 1)[0])
        w_hat = inst.w_star / inst.r
        first = linalg.SpikedIdentity(w_hat, 0.5, 0.1).to_dense()
        out, converged = twolayer.gd_pop_flow_numeric(
            twolayer.TwoLayerParams(first, 0.1 * w_hat), tasks.Task(inst, sgn),
            t_max=400.0, tol=1e-9)
        fp = twolayer.gd_pop_fixed_point(twolayer.ScalarPair(0.5, 0.1), 0.1, inst.r, sgn)
        items.append(("twolayer-fixed-point",
                      max(abs(float(w_hat @ out.first_dense() @ w_hat) - fp.a),
                          abs(float(w_hat @ out.second) - fp.b)), 1e-6, converged))
        for k in range(2):
            sk = master.child(3, k)
            ds, lam = dataset(sk, 4, 8), 1.0
            a0 = spd(sk.child(2), 4) + 0.5 * np.eye(4)
            m = a0 @ (ds.x.T @ ds.x / ds.n) @ a0 + lam * np.eye(4)
            b = a0 @ (ds.x.T @ ds.y / ds.n)
            evals = np.linalg.eigvalsh(m)
            numeric = oracles.linear_flow_rk4(m, b, np.zeros(4), 50.0 / float(evals[0]),
                                              h=min(1e-3, 0.1 / float(evals[-1])))
            items.append(("second-layer-ridge",
                          float(np.linalg.norm(twolayer.gd2_reg(lam, ds, a0).second - numeric)),
                          1e-6, True))
        inst = tasks.MetaInstance.from_config(4, 1.0, 0.0)
        a, _, converged = oracles.replearn_joint_flow(inst, [1, -1, 1], 0.1,
                                                      t_max=400.0, tol=1e-8)
        items.append(("replearn-fixed-point",
                      abs(float(inst.w_star @ a @ inst.w_star)
                          - meta_learners.replearn_alpha(3, 0.1, 1.0)), 1e-5, converged))
        return items

    def check(items):
        ops = [bool(conv) and _finite(res) and res <= tol for _, res, tol, conv in items]
        blob = json.dumps([[name, repr(res)] for name, res, _, _ in items]).encode()
        worst = {}
        for name, res, _, _ in items:
            worst[name] = max(worst.get(name, 0.0), res)
        return {"ops": ops, "points": [], "sha256": {"residuals": _sha256_bytes(blob)},
                "worst_residual": worst}

    return run, check


WORKLOADS = {
    "separation": _separation,
    "lower-bound-sweep": _lower_bound_sweep,
    "growth": _growth,
    "oracle-check": _oracle_check,
}
# Workloads whose passes are too small to show their memory cost: their
# peak_rss_mb comes from one probe process per run instead.
MEMORY_PROBES = {"separation": _separation_memory}


# ---------------------------------------------------------------------------
# trace counters: exact counts computed at the layer boundaries from call
# arguments and results

def _words_uniforms(args, kwargs, result, add):
    add("rng.words", int(args[1] if len(args) > 1 else kwargs["count"]))


def _words_signs(args, kwargs, result, add):
    add("rng.words", int(args[1] if len(args) > 1 else kwargs["t"]))


def _risk_many(args, kwargs, result, add):
    add("risk.trials", int(args[3] if len(args) > 3 else kwargs["trials"]))
    add("risk.nonfinite", sum(not math.isfinite(e.mean) for e in result))


COUNTERS = {
    "rng.uniforms": _words_uniforms,
    "rng.rademacher_signs": _words_signs,
    "risk.mc_excess_risk_many": _risk_many,
}


def _environment() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "numpy": np.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version")},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in ("name", "version")},
        "python": platform.python_version(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up: a set-up time sample, no ops")
    parser.add_argument("--memory-probe", action="store_true",
                        help="run the workload's memory probe instead of a pass")
    parser.add_argument("--delay-ms", type=float, default=0.0,
                        help="traced passes only: sleep this long inside every "
                             "linalg.sym_eigen span (attribution self-check)")
    args = parser.parse_args(argv)

    # The machine-speed reference: interpreter start, the benchmark's own
    # imports and numpy's, none of it metasep's (run.py).
    import numpy  # noqa: F401
    reference_s = time.monotonic() - args.t0
    sys.path.insert(0, _SRC)
    try:
        import metasep  # noqa: F401
    except ImportError as exc:
        print(f"cannot import metasep from {_SRC}: {exc}", file=sys.stderr)
        return 3

    factory = MEMORY_PROBES[args.workload] if args.memory_probe else WORKLOADS[args.workload]
    run, check = factory(args.seed, args.out)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as fh:
            json.dump({"setup_s": setup_s, "reference_s": reference_s}, fh)
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        delays = {"linalg.sym_eigen": args.delay_ms / 1e3} if args.delay_ms else {}
        tracer = Tracer(COUNTERS, delays, cpu_functions={"risk.mc_excess_risk_many"})
        tracer.install()
    result = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s,
              "reference_s": reference_s}
    start = time.perf_counter()
    try:
        output = run()
    except Exception as exc:  # a failed pass is reported, not raised
        result["error"] = f"{type(exc).__name__}: {exc}"
        output = None
    result["run_s"] = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.report()
    if output is not None:
        try:
            result.update(check(output))
        except (OSError, ValueError, KeyError, RuntimeError) as exc:
            result["error"] = f"{type(exc).__name__}: {exc}"
    result.setdefault("ops", [False])
    result["env"] = _environment()
    with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
