#!/usr/bin/env python3
"""Benchmark for gdcert: certified-step throughput and verdict latency end to
end, and a traced run that breaks the time down by module.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {suite,long-horizon,high-dim} \
        --seed N --seconds S --trace {0,1}

Each workload is a list of runs through ``gdcert.harness.run_experiment``
(see ``bench/workloads.py``). A *pass* makes every run once. The benchmark
makes whole passes until ``--seconds`` would be exceeded (at least one), in a
single process on a single thread.

``--trace 0`` reports the end-to-end metrics, measured with tracing off. The
host this benchmark was written on slows every process by 40-75 % for
stretches of a minute or more (other tenants; the same slowdown shows in any
CPU-bound loop, in CPU time as well as wall time). A 38 s run cannot average
that out, so every time metric is *host-normalized*: a fixed probe kernel
that does not touch gdcert (``probe``) is timed before and after each run,
and the run's wall time is scaled by ``PROBE_REF_S / probe time``, the time
the run would take on a host where the probe takes ``PROBE_REF_S`` (the probe
time of that host when idle). Raw wall figures are printed alongside.

* ``steps_per_s``: steps run and certified per second, median over passes
  of (sum of T over the pass's runs) / (sum of their normalized latencies).
* ``verdict_s_p50`` / ``verdict_s_tail``: normalized latency of one run, from
  building its ``RunConfig`` to its verdict, files written included, pooled
  over passes; median and 90th percentile (inclusive interpolation). The tail
  percentile is fixed so that a faster program, which fits more passes,
  measures the same statistic; the line printed before the result gives the
  sample count and how many samples lie beyond it (at least 10 on ``suite``;
  the two other workloads make three runs a pass and have fewer).
* ``setup_s``: median over seven fresh processes of the normalized time from
  process start to exit after importing gdcert and generating the workload's
  inputs.
* ``peak_rss_mb``: peak resident memory of the benchmark process, MiB.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``bench/tracer.py`` (raw wall times), plus
``bench.trace_overhead`` (median normalized traced pass time / median
normalized untraced pass time). Spans are written to ``.bench_out/`` when
the run ends.

Every run is checked: each certificate's verdict must be the expected one and
every written file must parse and agree with the in-memory run. The last line
of standard output is one JSON object with ``correct``, ``attempted``
(certificates attempted), ``failed`` (certificates whose run raised, returned
an error, gave a different verdict or wrote a bad file) and ``metrics``. The
exit code is 0 only when nothing failed; it is 2, with no result printed,
when the program's sources are missing.
"""

import os

# Pin BLAS/OpenMP pools to one thread before numpy is imported anywhere.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOAD_NAMES = ("suite", "long-horizon", "high-dim")
SETUP_REPEATS = 7
WARM_UP_STEPS = 50
TAIL_PERCENTILE = 90
PROBE_ITERATIONS = 4000
# probe time on an idle 2-vCPU x86-64 KVM guest (Python 3.11, numpy 2.4)
PROBE_REF_S = 0.009

END_TO_END = {
    "steps_per_s": "1/s",
    "verdict_s_p50": "s",
    "verdict_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# theorem ids at the commit that added the benchmark; one certify metric each
THEOREM_IDS = (
    "gd-regret", "sc-regret", "sc-average", "smooth-value-log",
    "smooth-value-scaled", "smooth-value-distance", "smooth-projected",
    "frank-wolfe-log", "frank-wolfe", "well-conditioned",
    "well-conditioned-distance", "mirror-regret", "agm-smooth", "agm-mirror",
    "agm-sc", "failed-potential",
)
RUNNER_MODULES = ("descent", "smooth", "mirror", "accel")
LAYERS = ("driver", "problems", "core") + RUNNER_MODULES + ("certify", "harness")

PER_LAYER = {
    "problems.gradient_calls_per_step": "count",
    "problems.value_calls_per_step": "count",
    "problems.oracle_us_per_step": "us",
    "problems.minimizer_ms_per_run": "ms",
    "core.as_vector_calls_per_step": "count",
    "core.project_us_per_step": "us",
    **{f"{m}.run_self_us_per_step": "us" for m in RUNNER_MODULES},
    "accel.general_norm_step_ms": "ms",
    "mirror.bregman_calls_per_step": "count",
    "certify.us_per_step": "us",
    **{f"certify.us_per_step.{tid}": "us" for tid in THEOREM_IDS},
    "certify.potential_calls_per_step": "count",
    "certify.self_us_per_step": "us",
    "harness.json_us_per_step": "us",
    "harness.json_calls_per_step": "count",
    "harness.to_dict_us_per_step": "us",
    "harness.csv_us_per_step": "us",
    "harness.write_us_per_step": "us",
    "harness.bytes_per_step": "bytes",
    "harness.output_mb": "MiB",
    "harness.self_share": "share",
    "bench.trace_overhead": "ratio",
}


class ProgramMissing(RuntimeError):
    """The checkout holds no gdcert sources to benchmark."""


def load_program():
    """Import gdcert from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "gdcert" / "__init__.py").is_file():
        raise ProgramMissing(f"no gdcert sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gdcert
    if Path(gdcert.__file__).resolve().parent != SRC / "gdcert":
        raise ProgramMissing(f"gdcert imported from {gdcert.__file__}, not {SRC}")


@dataclass
class Run:
    """One timed run: its latency and what its checks found."""

    latency: float
    steps: int
    attempted: int
    failed: int
    fmt: str | None
    bytes_written: int
    host: float = 0.0  # mean probe time just before and just after the run

    @property
    def normalized(self) -> float:
        return self.latency * PROBE_REF_S / self.host


@dataclass
class Pass:
    runs: list = field(default_factory=list)
    traced: bool = False
    wall: float = 0.0  # whole pass, checks and collections included

    @property
    def run_time(self) -> float:
        return sum(r.normalized for r in self.runs)


def probe() -> float:
    """Time a fixed kernel that does not touch gdcert: small numpy updates,
    Python float arithmetic and 17-digit formatting, the mix gdcert's runs
    spend their time in."""
    t0 = time.perf_counter()
    v = np.ones(3)
    total = 0.0
    parts = []
    for _ in range(PROBE_ITERATIONS):
        v = v * 0.999 + 0.001
        total += float(np.dot(v, v))
        parts.append(format(total, ".17g"))
    ",".join(parts)
    return time.perf_counter() - t0


def run_one(spec, stem: str, tmp_root: Path, tracer=None) -> Run:
    from gdcert import harness
    from workloads import files_ok, verdict_ok

    gc.collect()
    out_dir = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    try:
        t0 = time.perf_counter()
        config = spec.config(out_dir, stem)
        try:
            if tracer is None:
                result = harness.run_experiment(config)
            else:
                result = tracer.call(harness.run_experiment, config)
        except Exception:  # a raising run is counted as failed, not fatal
            traceback.print_exc(file=sys.stderr)
            result = None
        latency = time.perf_counter() - t0
        ok = result is not None and verdict_ok(spec, result)
        if ok:
            try:
                ok = files_ok(spec, result, config)
            except (OSError, ValueError, KeyError, TypeError):
                traceback.print_exc(file=sys.stderr)
                ok = False
        if not ok:
            print(f"check failed: {stem} {spec}", file=sys.stderr)
        written = sum(p.stat().st_size for p in Path(out_dir).iterdir())
    finally:
        shutil.rmtree(out_dir)
    n = len(spec.theorems)
    steps = result.trace.T if result is not None and result.trace is not None else spec.steps
    return Run(latency=latency, steps=steps, attempted=n, failed=0 if ok else n,
               fmt=spec.fmt, bytes_written=written)


def run_pass(specs, tmp_root: Path, tracer=None) -> Pass:
    t0 = time.perf_counter()
    p = Pass(traced=tracer is not None)
    before = probe()
    for i, spec in enumerate(specs):
        run = run_one(spec, f"{i:02d}-{spec.problem}-{spec.method}", tmp_root, tracer)
        after = probe()
        run.host, before = (before + after) / 2, after
        p.runs.append(run)
    p.wall = time.perf_counter() - t0
    return p


def warm_up(specs, tmp_root: Path) -> None:
    """Run every config briefly so lazy imports and first-call costs are paid
    before timing; verdicts at this horizon are not checked."""
    from gdcert import harness

    for i, spec in enumerate(specs):
        short = replace(spec, steps=min(spec.steps, WARM_UP_STEPS))
        out_dir = tempfile.mkdtemp(prefix="warm-", dir=tmp_root)
        try:
            harness.run_experiment(short.config(out_dir, f"warm{i:02d}"))
        except Exception:  # the timed runs report any failure
            pass
        finally:
            shutil.rmtree(out_dir)


def measure_setup(workload: str, seed: int) -> float:
    """Median normalized wall time of fresh processes that import gdcert,
    generate the workload's inputs and exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    times = []
    before = probe()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        wall = time.perf_counter() - t0
        after = probe()
        times.append(wall * PROBE_REF_S / ((before + after) / 2))
        before = after
        if proc.returncode != 0:
            raise RuntimeError(f"setup process failed: {proc.stderr.decode()}")
    return statistics.median(times)


def measure(specs, seconds: float, tmp_root: Path, tracer=None) -> list:
    """Whole passes until the next one would overrun ``seconds``. With a
    tracer, untraced and traced passes alternate, at least one of each."""
    kinds = [None] if tracer is None else [None, tracer]
    deadline = time.perf_counter() + seconds
    passes = []
    while True:
        kind = kinds[len(passes) % len(kinds)]
        if kind is None:
            passes.append(run_pass(specs, tmp_root))
        else:
            with kind:
                passes.append(run_pass(specs, tmp_root, kind))
        if len(passes) < len(kinds):
            continue
        nxt = kinds[len(passes) % len(kinds)] is not None
        predicted = statistics.median(p.wall for p in passes if p.traced == nxt)
        if time.perf_counter() + predicted > deadline:
            return passes


def tail(values: list) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[TAIL_PERCENTILE - 1]


def end_to_end_metrics(passes: list, setup_s: float) -> dict:
    latency = [r.normalized for p in passes for r in p.runs]
    raw = [r.latency for p in passes for r in p.runs]
    hosts = [r.host for p in passes for r in p.runs]
    steps = sum(r.steps for r in passes[0].runs)
    beyond = sum(1 for v in latency if v > tail(latency))
    print(f"passes={len(passes)} samples={len(latency)} "
          f"tail=p{TAIL_PERCENTILE} with {beyond} samples beyond it")
    print(f"host probe median {statistics.median(hosts) * 1e3:.2f} ms "
          f"(reference {PROBE_REF_S * 1e3:.2f} ms); raw wall: "
          f"steps_per_s={statistics.median(steps / sum(r.latency for r in p.runs) for p in passes):.6g} "
          f"verdict_s_p50={statistics.median(raw):.6g} verdict_s_tail={tail(raw):.6g}")
    return {
        "steps_per_s": statistics.median(steps / p.run_time for p in passes),
        "verdict_s_p50": statistics.median(latency),
        "verdict_s_tail": tail(latency),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer, runs: list, overhead: float,
                      output_mb: float) -> tuple[dict, dict]:
    """Per-layer figures from the traced runs, and each layer's share of
    their self time; ``runs[i]`` is the bench's view of ``tracer.runs[i]``.
    A layer that did not run reports 0."""
    from tracer import MINIMIZER

    def total(bucket, name):
        return sum(getattr(rec, bucket).total[name] for rec in tracer.runs)

    def count(name):
        return sum(rec.main.count[name] for rec in tracer.runs)

    def self_time(name):
        return sum(rec.main.self_time[name] + rec.solve.self_time[name]
                   for rec in tracer.runs)

    def steps_where(pred):
        return sum(run.steps for rec, run in zip(tracer.runs, runs) if pred(rec, run))

    for rec in tracer.runs:
        if abs(rec.self_time_sum() - rec.wall) > 1e-6 * rec.wall + 1e-9:
            raise RuntimeError(f"self times of traced run {rec.run_id} sum to "
                               f"{rec.self_time_sum()!r}, its wall is {rec.wall!r}")

    steps = sum(run.steps for run in runs)
    cert_steps = sum(run.steps * run.attempted for run in runs)
    json_steps = steps_where(lambda rec, run: run.fmt == "json")
    csv_steps = steps_where(lambda rec, run: run.fmt == "csv")
    wall = sum(rec.wall for rec in tracer.runs)
    m = {
        "problems.gradient_calls_per_step": _ratio(count("problems.gradient"), steps),
        "problems.value_calls_per_step": _ratio(count("problems.value"), steps),
        "problems.oracle_us_per_step": 1e6 * _ratio(
            total("main", "problems.gradient") + total("main", "problems.value"), steps),
        "problems.minimizer_ms_per_run": 1e3 * _ratio(total("main", MINIMIZER), len(runs)),
        "core.as_vector_calls_per_step": _ratio(count("core.as_vector"), steps),
        "core.project_us_per_step": 1e6 * _ratio(total("main", "core.project"), steps),
    }
    for mod in RUNNER_MODULES:
        name = f"{mod}.run"
        m[f"{mod}.run_self_us_per_step"] = 1e6 * _ratio(
            self_time(name), steps_where(lambda rec, run: rec.main.count[name] > 0))
    m["accel.general_norm_step_ms"] = 1e3 * _ratio(
        total("main", "accel.general_norm_step"), count("accel.general_norm_step"))
    m["mirror.bregman_calls_per_step"] = _ratio(
        count("mirror.bregman"),
        steps_where(lambda rec, run: rec.main.count["mirror.bregman"] > 0))
    m["certify.us_per_step"] = 1e6 * _ratio(total("main", "certify.trace"), cert_steps)
    by_theorem = {tid: [0.0, 0] for tid in THEOREM_IDS}
    for run_id, _, _, name, label, t0, t1 in tracer.spans:
        if name == "certify.trace" and label in by_theorem:
            by_theorem[label][0] += t1 - t0
            by_theorem[label][1] += runs[run_id].steps
    for tid, (seconds, n) in by_theorem.items():
        m[f"certify.us_per_step.{tid}"] = 1e6 * _ratio(seconds, n)
    m["certify.potential_calls_per_step"] = _ratio(count("certify.potential"), cert_steps)
    m["certify.self_us_per_step"] = 1e6 * _ratio(self_time("certify.trace"), cert_steps)
    bytes_written = sum(run.bytes_written for run in runs)
    m.update({
        "harness.json_us_per_step": 1e6 * _ratio(total("main", "harness.json"), json_steps),
        "harness.json_calls_per_step": _ratio(count("harness.json"), json_steps),
        "harness.to_dict_us_per_step": 1e6 * _ratio(total("main", "harness.to_dict"), json_steps),
        "harness.csv_us_per_step": 1e6 * _ratio(total("main", "harness.csv"), csv_steps),
        "harness.write_us_per_step": 1e6 * _ratio(self_time("harness.write"),
                                                   json_steps + csv_steps),
        "harness.bytes_per_step": _ratio(bytes_written, json_steps + csv_steps),
    })
    m["harness.output_mb"] = output_mb
    shares = layer_self_shares(tracer, wall)
    m["harness.self_share"] = shares["harness"]
    m["bench.trace_overhead"] = overhead
    return m, shares


def layer_self_shares(tracer, wall: float) -> dict:
    shares = dict.fromkeys(LAYERS, 0.0)
    for rec in tracer.runs:
        shares["driver"] += rec.root_self
        for stats in (rec.main, rec.solve):
            for name, seconds in stats.self_time.items():
                shares[name.split(".", 1)[0]] += seconds
    return {layer: _ratio(seconds, wall) for layer, seconds in shares.items()}


def write_spans(tracer, workload: str, seed: int) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    keys = ("run_id", "span_id", "parent_id", "name", "label", "start", "end")
    with open(path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(dict(zip(keys, span))) + "\n")
    return path


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and generate inputs, then exit (setup_s probe)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    specs = workloads.make_workload(args.workload, args.seed)
    if args.setup_only:
        return 0
    setup_s = measure_setup(args.workload, args.seed) if args.trace == 0 else None

    OUT.mkdir(exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    try:
        warm_up(specs, tmp_root)
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
        passes = measure(specs, args.seconds, tmp_root, tracer)
    finally:
        shutil.rmtree(tmp_root)

    attempted = sum(r.attempted for p in passes for r in p.runs)
    failed = sum(r.failed for p in passes for r in p.runs)
    print(f"workload={args.workload} seed={args.seed} attempted={attempted} "
          f"failed={failed} failed_share={_ratio(failed, attempted):.4g}")
    if args.trace == 0:
        values = end_to_end_metrics(passes, setup_s)
        units = END_TO_END
    else:
        plain = statistics.median(p.run_time for p in passes if not p.traced)
        traced = statistics.median(p.run_time for p in passes if p.traced)
        traced_runs = [r for p in passes if p.traced for r in p.runs]
        output_mb = statistics.median(
            sum(r.bytes_written for r in p.runs) for p in passes) / 2 ** 20
        values, shares = per_layer_metrics(tracer, traced_runs, traced / plain,
                                           output_mb)
        print("self-time share: " + " ".join(
            f"{layer}={share:.3f}" for layer, share in shares.items()))
        print(f"spans written to {write_spans(tracer, args.workload, args.seed)}")
        units = PER_LAYER
    for name, unit in units.items():
        print(f"{name:42s} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
