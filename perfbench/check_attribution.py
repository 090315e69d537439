"""Attribution self-check: a delay injected into linalg.sym_eigen must
show up as linalg self time on separation and nowhere on growth.

    python3 perfbench/check_attribution.py

Runs one traced pass of each workload with and without a fixed sleep
inside every linalg.sym_eigen span (same inputs both times) and checks:

* separation: linalg.self_s rises by at least a quarter of the injected
  time, no other module's self time rises by more than a tenth of it,
  and every module's call count is unchanged. Not by all of it: self
  time is wall time, and with two pool threads about half of a
  sym_eigen span is spent waiting for the GIL; the sleep releases the
  GIL, so the other thread's sym_eigen spans wait less (measured: a
  3.0 s injection raised linalg.self_s by 1.4 s);
* growth: linalg makes no call and has no self time either way, and
  every module's call count is unchanged.

Exits 0 when every check holds, 1 otherwise. Takes about a minute.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

from run import MODULES, RUNS_DIR, blas_pin, layer_row, pass_seed, run_pass

DELAY_MS = 100.0


def traced_row(workload: str, delay_ms: float, work: str) -> dict:
    """Per-layer metrics of one traced pass, plus its sym_eigen call count."""
    out = os.path.join(work, f"{workload}-{delay_ms:g}")
    result = run_pass(workload, pass_seed(1, 0), out, blas_pin(workload), trace=True,
                      delay_ms=delay_ms)
    if result.get("error") or not all(result["ops"]):
        raise SystemExit(f"{workload} pass failed: {result.get('error')}")
    row = {name: value for name, (value, _) in layer_row(result["trace"]).items()}
    row["sym_eigen_calls"] = result["trace"]["functions"].get(
        "linalg.sym_eigen", {}).get("calls", 0)
    return row


def main() -> int:
    os.makedirs(RUNS_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="attribution-", dir=RUNS_DIR)
    failures = []
    try:
        base, slow = (traced_row("separation", d, work) for d in (0.0, DELAY_MS))
        injected = slow["sym_eigen_calls"] * DELAY_MS / 1e3
        rise = slow["linalg.self_s"] - base["linalg.self_s"]
        print(f"separation: injected {injected:.2f} s into sym_eigen; "
              f"linalg.self_s {base['linalg.self_s']:.2f} -> {slow['linalg.self_s']:.2f} s")
        if injected <= 0 or rise < 0.25 * injected:
            failures.append(f"separation: linalg.self_s rose {rise:.2f} s, "
                            f"want >= {0.25 * injected:.2f} s")
        for module in MODULES:
            other = slow[f"{module}.self_s"] - base[f"{module}.self_s"]
            if module != "linalg" and other > 0.1 * injected:
                failures.append(f"separation: {module}.self_s rose {other:.2f} s")
            if slow[f"{module}.calls"] != base[f"{module}.calls"]:
                failures.append(f"separation: {module}.calls changed")

        base, slow = (traced_row("growth", d, work) for d in (0.0, DELAY_MS))
        print(f"growth: linalg.calls {base['linalg.calls']} -> {slow['linalg.calls']}, "
              f"linalg.self_s {base['linalg.self_s']} -> {slow['linalg.self_s']}")
        for row in (base, slow):
            if row["linalg.calls"] != 0 or row["linalg.self_s"] != 0.0:
                failures.append("growth: linalg was called")
        for module in MODULES:
            if slow[f"{module}.calls"] != base[f"{module}.calls"]:
                failures.append(f"growth: {module}.calls changed")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in failures:
        print("FAIL", failure)
    print("attribution self-check", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
