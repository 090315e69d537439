"""Run the benchmark over several seeds and report each metric's median
and quartile spread, as a share of the median.

    python3 perfbench/spread.py --workloads separation,growth --seeds 10
    python3 perfbench/spread.py --workloads all --seeds 10 --out spread.json

Runs `perfbench/run.py --trace 0` once per (workload, seed 1..N), one
at a time, with the run length and bounds from BENCHMARK.json. An
end-to-end metric is steady when its spread, (Q3 - Q1) / median with
the quartiles of statistics.quantiles(values, n=4), is below a third of
its bound; setup_s is held to the same rule. Exits 0 when every run was
correct and every metric steady, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.strip().splitlines()
    return {"summary": json.loads(lines[-1]), "detail": json.loads(lines[-2])["detail"]}


def spread(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description="run-to-run spread of the benchmark")
    parser.add_argument("--workloads", default="all",
                        help=f"comma-separated subset of {names}, or all")
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..N, one run each")
    parser.add_argument("--out", default=None, help="also write the report here as JSON")
    args = parser.parse_args(argv)
    workloads = names if args.workloads == "all" else args.workloads.split(",")

    report, ok = {}, True
    for workload in workloads:
        runs = []
        for seed in range(1, args.seeds + 1):
            runs.append(run_once(workload, seed, bench["run_seconds"]))
            s = runs[-1]["summary"]
            print(f"{workload} seed {seed}: correct={s['correct']} "
                  f"attempted={s['attempted']} failed={s['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in s["metrics"].items()),
                  flush=True)
        rows = {"correct": all(r["summary"]["correct"] for r in runs),
                "passes": [r["detail"]["passes"] for r in runs],
                "raw": [dict(r["detail"]["raw"], reference_s=r["detail"]["reference_s"])
                        for r in runs],
                "metrics": {}}
        ok = ok and rows["correct"]
        for metric in bench["end_to_end"]:
            values = [r["summary"]["metrics"][metric["name"]]["value"] for r in runs]
            row = spread(values) if len(values) >= 2 else {"values": values}
            if row.get("spread") is not None:
                row["bound"] = metric["bound"]
                row["steady"] = row["spread"] < metric["bound"] / 3
                ok = ok and row["steady"]
                print(f"  {workload} {metric['name']}: median {row['median']:.6g} "
                      f"spread {row['spread']:.3f} (bound {metric['bound']})")
            rows["metrics"][metric["name"]] = row
        rows["environment"] = runs[0]["detail"]["environment"]
        report[workload] = rows
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
