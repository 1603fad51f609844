#!/usr/bin/env python3
"""Time the benchmark's three long-horizon runs at a given horizon T, each in
a fresh process, as a library with no files written: the µs per step of the
run (certification included) and how far the run raises the process's peak
RSS over its baseline after the imports.

The runs are those of bench/workloads.py's long-horizon workload at seed 0
(which draws their x0), which this script imports and does not change; T
replaces their 20,000 steps.

Usage:
    python scripts/long_run.py [T]

Exits 1 when a certificate fails or a run's peak-RSS growth exceeds its
limit: GROWTH_PER_BYTE times the bytes of its trace's columns, plus
GROWTH_ALLOWANCE_MIB.
"""

import argparse
import dataclasses
import json
import pathlib
import resource
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402

from gdcert.harness import run_experiment  # noqa: E402

# a run's peak-RSS growth limit, per byte of its trace's float64 columns:
# recording in blocks takes about 2 bytes per column byte (p3 agm2), and
# the certificates of p2 smooth-gd keep up to 5; keeping one object per
# recorded row took 9 (p3 agm2, at T = 2e5 and 1e6 alike)
GROWTH_PER_BYTE = 6
# and beyond it, what a run's growth reads at small T (2 MiB at T = 1e4)
GROWTH_ALLOWANCE_MIB = 4


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_one(steps: int, index: int) -> dict:
    """Run config ``index`` in this process; its timing, RSS growth and the
    bytes of its trace's columns."""
    spec = dataclasses.replace(workloads.make_workload("long-horizon", 0)[index],
                               steps=steps)
    config = spec.config("", f"{index:02d}")  # no format: no files written
    baseline = _peak_rss_mib()
    start = time.perf_counter()
    result = run_experiment(config)
    wall = time.perf_counter() - start
    columns = [getattr(result.trace, f.name) for f in dataclasses.fields(result.trace)
               if f.name != "meta"]
    return {"run": f"{spec.problem} {spec.method}", "steps": steps,
            "us_per_step": 1e6 * wall / steps,
            "baseline_mib": baseline, "growth_mib": _peak_rss_mib() - baseline,
            "columns_mib": sum(col.nbytes for col in columns if col is not None) / 2**20,
            "passed": all(rep.passed for rep in result.reports)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("steps", nargs="?", type=int, default=100_000)
    ap.add_argument("--run", type=int, default=None,
                    help="run this one config here and print its JSON line")
    args = ap.parse_args()
    if args.run is not None:
        print(json.dumps(run_one(args.steps, args.run)))
        return 0
    failed = False
    count = len(workloads.make_workload("long-horizon", 0))
    print(f"{'run':32s} {'us/step':>8s} {'base MiB':>9s} {'growth MiB':>11s} "
          f"{'limit MiB':>10s}  verdict")
    for index in range(count):
        child = subprocess.run(
            [sys.executable, __file__, str(args.steps), "--run", str(index)],
            capture_output=True, text=True, check=True)
        row = json.loads(child.stdout)
        limit = GROWTH_PER_BYTE * row["columns_mib"] + GROWTH_ALLOWANCE_MIB
        verdict = "pass" if row["passed"] else "FAIL"
        print(f"{row['run']:32s} {row['us_per_step']:8.2f} {row['baseline_mib']:9.1f} "
              f"{row['growth_mib']:11.1f} {limit:10.1f}  {verdict}")
        if row["growth_mib"] > limit:
            print(f"  peak RSS grew {row['growth_mib']:.1f} MiB, over the limit of "
                  f"{limit:.1f}", file=sys.stderr)
        failed |= row["growth_mib"] > limit or not row["passed"]
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
