"""metasep benchmark: end-to-end and per-module metrics for four workloads.

Run from the root of a checkout (no install needed; metasep is imported
from ./src):

    python3 perfbench/run.py --workload separation --seed 1 --seconds 30 --trace 0

Workloads (see README.md for why each was chosen): separation,
lower-bound-sweep, growth, oracle-check. Each pass runs in its own
process (perfbench/workloads.py). Passes of fixed size repeat until
--seconds is spent, at least one. An untraced run also starts, first,
on separation, one memory probe that gives peak_rss_mb and, spread
between the passes, set-up-only processes (set-up time samples). Pass 0
runs fixed reference inputs (metasep seed 0), which give the precision
factor of time_to_1pct_s; pass i >= 1 runs inputs made from (--seed, i).
The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the full record
(per-pass numbers, sample counts, gate results, output sha256s and the
environment).

--trace 0 reports the end-to-end metrics, with tracing off, timings in
reference seconds (see REFERENCE_S). --trace 1
alternates untraced and traced passes on the inputs of pass 1 and
reports the per-module metrics of the traced ones, plus the ratio of
traced to untraced run time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import MODULES  # noqa: E402
from workloads import MEMORY_PROBES, WORKERS, WORKLOADS  # noqa: E402

RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")
RUN_LIMIT_S = 170.0  # a pass still running this long after the run began is killed
# set-up-only processes per untraced run, on top of one set-up per pass:
# a workload with few long passes still gets a steady set-up median
SETUP_PROBES = 24
# The machine-speed reference is the time from a pass process's start
# until numpy is imported, before any metasep code runs, so no change to
# metasep can move it. The machine this benchmark was defined on (a
# shared 2-CPU VM) changes speed by up to 1.6x over minutes, and its
# setup_s tracked that drift where a pure-Python loop timed between passes
# did not. Timings are reported in reference seconds: scaled to a
# machine whose median reference time is REFERENCE_S, near the lowest run
# median seen on that VM (0.155 s; 0.18-0.25 s is usual there).
REFERENCE_S = 0.15
HOT_FUNCTIONS = (
    "linalg.sym_eigen", "linalg.cholesky_solve", "rng.gaussian_matrix",
    "tasks.sample_dataset", "tasks.emp_covariance", "risk.predict_vector",
    "twolayer.gd2_reg", "twolayer.gd_pop_fixed_point", "oracles.linear_flow_rk4",
    "twolayer.gd_pop_flow_numeric", "risk.mc_excess_risk_many",
)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class PackageMissing(RuntimeError):
    pass


REFERENCE_SEED = 0


def pass_seed(seed: int, index: int) -> int:
    """metasep seed of pass `index` of a run with benchmark seed `seed`.

    Pass 0 always runs the reference inputs, so the precision factor of
    time_to_1pct_s, taken from that pass, is bit-identical across seeds
    for a given estimator; every later pass runs inputs of its own."""
    return REFERENCE_SEED if index == 0 else seed * 1000 + index


def blas_pin(workload: str) -> dict:
    """BLAS threads for pass processes, pinned so that workers x BLAS
    threads <= the CPUs this process may run on."""
    nproc = len(os.sched_getaffinity(0))
    workers = WORKERS[workload]
    return {"nproc": nproc, "workers": workers, "blas_threads": max(1, nproc // workers)}


def run_pass(workload: str, seed: int, out_dir: str, pin: dict, trace: bool = False,
             delay_ms: float = 0.0, timeout_s: float = RUN_LIMIT_S,
             setup_only: bool = False, memory_probe: bool = False) -> dict:
    """Run one pass in a fresh process and return its result.json plus the
    process's wall time, CPU seconds and peak RSS as the parent saw them."""
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(pin["blas_threads"])
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--t0", repr(t0), "--out", out_dir]
    if trace:
        cmd.append("--trace")
    if delay_ms:
        cmd += ["--delay-ms", repr(delay_ms)]
    if setup_only:
        cmd.append("--setup-only")
    if memory_probe:
        cmd.append("--memory-probe")
    with open(os.path.join(out_dir, "stdout.txt"), "wb") as out, \
            open(os.path.join(out_dir, "stderr.txt"), "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=out_dir)
        killed = False
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if not killed and time.monotonic() - t0 > timeout_s:
                proc.kill()
                killed = True
            time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.monotonic() - t0
    if proc.returncode == 3:
        raise PackageMissing(_tail(os.path.join(out_dir, "stderr.txt")))
    try:
        with open(os.path.join(out_dir, "result.json"), encoding="utf-8") as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        reason = "killed after timeout" if killed else f"exit code {proc.returncode}"
        # a pass that never reported counts its whole wall time as both
        # set-up and run time; its one op has failed
        result = {"ops": [False], "setup_s": wall, "run_s": wall,
                  "trace": {"functions": {}, "counts": {}},
                  "error": f"{reason}: " + _tail(os.path.join(out_dir, "stderr.txt"))}
    result.update({"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                   "peak_rss_mb": usage.ru_maxrss / 1024.0, "traced": trace})
    return result


def _tail(path: str, lines: int = 5) -> str:
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            return " | ".join(fh.read().strip().splitlines()[-lines:])
    except OSError:
        return ""


def _quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) >= 2 else [values[0]] * 3


def precision_factor(reference: dict) -> float:
    """Median over the reference pass's risk points of (stderr/mean)^2,
    divided by 1e-4: run time times this is the projected time to bring
    the typical risk point to 1% relative stderr. 1 when a workload has
    no Monte-Carlo risk point (its output is exact once computed).

    One fixed pass, not a pool over the run's passes: with a pass's few
    trials the factor estimated from seed-varied inputs swings 16% (IQR
    over 10 seeds on lower-bound-sweep), which would drown the timing.
    The median, not the mean, because some points have no finite
    variance (gd_reg at lam = 0 and n = d on lower-bound-sweep): their
    (stderr/mean)^2 swings fourfold between seeds and would set the mean
    alone."""
    relvars = [(stderr / mean) ** 2 for mean, stderr in reference.get("points", [])
               if mean > 0 and math.isfinite(mean) and math.isfinite(stderr)]
    return statistics.median(relvars) / 1e-4 if relvars else 1.0


def end_to_end(passes, setup_probes, memory) -> tuple[dict, dict]:
    """End-to-end metrics, the timings in reference seconds: the median
    wall or CPU seconds times REFERENCE_S over the run's median
    reference time. The record keeps the raw medians."""
    run_s = [p["run_s"] for p in passes]
    setup_s = [p["setup_s"] for p in passes + setup_probes]
    references = [p["reference_s"] for p in passes + setup_probes + [memory]
                  if p and "reference_s" in p]
    scale = REFERENCE_S / statistics.median(references)
    raw = {"run_s": statistics.median(run_s),
           "cpu_s": statistics.median([p["cpu_s"] for p in passes]),
           "setup_s": statistics.median(setup_s)}
    values = {
        "run_s": (raw["run_s"] * scale, "s"),
        "time_to_1pct_s": (raw["run_s"] * scale * precision_factor(passes[0]), "s"),
        "cpu_s": (raw["cpu_s"] * scale, "s"),
        "peak_rss_mb": (memory["peak_rss_mb"] if memory else
                        statistics.median([p["peak_rss_mb"] for p in passes]), "MB"),
        "setup_s": (raw["setup_s"] * scale, "s"),
    }
    spread = {"raw": raw, "reference_s": statistics.median(references), "speed_scale": scale,
              "reference_samples": len(references), "run_s_quartiles": _quartiles(run_s),
              "setup_s_quartiles": _quartiles(setup_s), "setup_samples": len(setup_s)}
    return values, spread


def layer_row(trace: dict) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    fns, counts = trace["functions"], trace["counts"]
    row = {}
    for module in MODULES:
        mine = [f for f in fns.values() if f["module"] == module]
        row[f"{module}.self_s"] = (sum(f["self_s"] for f in mine), "s")
        row[f"{module}.calls"] = (sum(f["calls"] for f in mine), "count")
    for name in HOT_FUNCTIONS:
        f = fns.get(name)
        row[f"{name}.p50_ms"] = (f["p50_ms"] if f else 0.0, "ms")
        row[f"{name}.p99_ms"] = (f["p99_ms"] if f else 0.0, "ms")
    trials = counts.get("risk.trials", 0)
    row["rng.words"] = (counts.get("rng.words", 0), "count")
    for metric, fn in (("eigen", "linalg.sym_eigen"), ("solve", "linalg.cholesky_solve")):
        calls = fns.get(fn, {}).get("calls", 0)
        row[f"linalg.{metric}_per_trial"] = (calls / trials if trials else 0.0, "per_trial")
    row["risk.trials"] = (trials, "count")
    row["risk.nonfinite"] = (counts.get("risk.nonfinite", 0), "count")
    wall = counts.get("risk.mc_excess_risk_many.wall_s", 0.0)
    row["risk.cpu_per_wall"] = (
        counts.get("risk.mc_excess_risk_many.cpu_s", 0.0) / wall if wall else 0.0, "ratio")
    return row


def per_layer(traced, untraced) -> dict:
    """Per-layer metrics, each the median over the traced passes (counts
    repeat exactly: every pass of a traced run has the same inputs), plus
    the ratio of traced to untraced median run time."""
    rows = [layer_row(p["trace"]) for p in traced]
    metrics = {name: (statistics.median([row[name][0] for row in rows]), unit)
               for name, (_, unit) in rows[0].items()}
    ratio = (statistics.median([p["run_s"] for p in traced])
             / statistics.median([p["run_s"] for p in untraced]))
    metrics["tracing.overhead_ratio"] = (ratio, "ratio")
    return metrics


def tracing_detail(traced) -> dict:
    """The wrapper costs per call that per_layer's self times are
    corrected for, and each module's uncorrected self time: medians over
    the traced passes."""
    def raw(trace, module):
        return sum(f["self_s_raw"] for f in trace["functions"].values() if f["module"] == module)

    detail = {f"{kind}_overhead_us": statistics.median(
                  [1e6 * p["trace"].get(f"{kind}_overhead_s", 0.0) for p in traced])
              for kind in ("child", "span")}
    detail["self_s_raw"] = {m: statistics.median([raw(p["trace"], m) for p in traced])
                            for m in MODULES}
    return detail


def git_commit(root: str):
    """HEAD commit read from .git without running git; None outside a repo."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256(root: str) -> str:
    """sha256 over the package sources, a commit stand-in for checkouts
    that are not git repositories."""
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "metasep")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def environment(pin: dict, pass_env: dict) -> dict:
    return {
        **pass_env,
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "blas_pin": pin,
        "git_commit": git_commit(ROOT),
        "source_sha256": source_sha256(ROOT),
    }


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    pin = blas_pin(workload)
    os.makedirs(RUNS_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=RUNS_DIR)
    start = time.monotonic()
    deadline = start + seconds
    passes, memory = [], None

    def remaining():
        return start + RUN_LIMIT_S - time.monotonic()

    def setup_probe():
        probe = run_pass(workload, pass_seed(seed, 0), os.path.join(work, f"setup{len(probes)}"),
                         pin, setup_only=True, timeout_s=remaining())
        probes.append(probe)
        return probe["wall_s"]

    probes, probe_wall = [], 0.0
    want_probes = 0 if trace else SETUP_PROBES
    try:
        if not trace and workload in MEMORY_PROBES:
            memory = run_pass(workload, pass_seed(seed, 0), os.path.join(work, "memory"), pin,
                              memory_probe=True, timeout_s=remaining())
        while True:
            # set-up probes keep pace with the elapsed share of the run,
            # so a slow or fast spell of the machine cannot set their
            # median alone; never more than want_probes of them
            elapsed_share = min(1.0, (time.monotonic() - start) / seconds)
            if len(probes) < want_probes * elapsed_share:
                probe_wall = setup_probe()
                continue
            index = len(passes)
            traced = trace and index % 2 == 1
            p = run_pass(workload, pass_seed(seed, 1 if trace else index),
                         os.path.join(work, str(index)), pin, trace=traced,
                         timeout_s=remaining())
            passes.append(p)
            if trace and index == 0:
                continue  # a traced run has at least one traced pass
            # start the next pass only if it and the probes still due
            # should end by the deadline, judging by the last pass of its
            # kind and the last probe
            next_traced = trace and not traced
            last = [q["wall_s"] for q in passes if q["traced"] == next_traced][-1]
            due = (want_probes - len(probes)) * probe_wall
            if time.monotonic() + last + due > deadline:
                break
        while len(probes) < want_probes:
            setup_probe()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checked = passes + ([memory] if memory else [])
    attempted = sum(len(p["ops"]) for p in checked)
    failed = sum(not ok for p in checked for ok in p["ops"])
    untraced = [p for p in passes if not p["traced"]]
    if trace:
        metrics = per_layer([p for p in passes if p["traced"]], untraced)
        spread = {"tracing": tracing_detail([p for p in passes if p["traced"]])}
    else:
        metrics, spread = end_to_end(passes, probes, memory)
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": {name: {"value": value, "unit": unit}
                           for name, (value, unit) in metrics.items()}}
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "passes": len(passes), "samples": len(passes) - len(untraced) if trace else len(passes),
        "fail_ratio": failed / attempted, **spread,
        "per_pass": [{k: p.get(k) for k in ("seed", "traced", "setup_s", "reference_s", "run_s",
                                            "wall_s", "cpu_s", "peak_rss_mb", "error", "sha256",
                                            "nonconvex_n_eps", "satisfaction",
                                            "worst_residual")
                      if p.get(k) is not None} for p in passes],
        "memory_probe": memory and {k: memory.get(k) for k in (
            "seed", "run_s", "peak_rss_mb", "error", "sha256") if memory.get(k) is not None},
        "environment": environment(pin, passes[0].get("env", {})),
    }
    return summary, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="metasep benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "metasep", "__init__.py")):
        print(f"error: no metasep package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        summary, detail = run_benchmark(args.workload, args.seed, args.seconds,
                                        bool(args.trace))
    except PackageMissing as exc:
        print(f"error: metasep cannot be imported: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"detail": detail}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
