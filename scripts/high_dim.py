#!/usr/bin/env python3
"""Write the seed-0 d = 1000 runs of the benchmark's high-dim workload, each
as a JSON and as a CSV trace with its report, for pinning their bytes.

The runs come from bench/workloads.py, which this script imports and does
not change. Exit code mirrors the CLI convention: 0 when every certificate
passes.

Usage:
    python scripts/high_dim.py [output_dir]
    (cd output_dir && sha256sum -c ../scripts/high_dim.sha256)
"""

import dataclasses
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402

from gdcert.harness import run_experiment  # noqa: E402


def main() -> int:
    out_dir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "high-dim-out")
    out_dir.mkdir(parents=True, exist_ok=True)
    worst = 0
    try:
        specs = workloads.make_workload("high-dim", 0)
        for i, spec in enumerate(specs):
            stem = f"{i:02d}-{spec.problem}-{spec.method}"
            for fmt in ("json", "csv"):
                config = dataclasses.replace(spec, fmt=fmt).config(str(out_dir), stem)
                result = run_experiment(config)
                for rep in result.reports:
                    mark = "pass" if rep.passed else "FAIL"
                    print(f"{stem}.{fmt:5s} {rep.theorem:24s} {mark}")
                worst = max(worst, result.exit_code)
    finally:
        workloads.unregister_high_dim()
    print(f"\nwrote traces and reports to {out_dir}/")
    return worst


if __name__ == "__main__":
    sys.exit(main())
