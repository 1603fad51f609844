"""Tests of the benchmark itself: tracing counts, span accounting, seeded
inputs, output checks and the metric names in BENCHMARK.json.

Run from the root of a checkout with ``python3 -m pytest -q bench``.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np

import run

run.load_program()

import tracer  # noqa: E402
import workloads  # noqa: E402
from gdcert import accel, core, harness, mirror  # noqa: E402


def _small(specs, steps=60):
    return [replace(s, steps=min(s.steps, steps)) for s in specs]


def _traced(specs, out_dir):
    with tracer.Tracer() as tr:
        for i, spec in enumerate(specs):
            tr.call(harness.run_experiment, spec.config(str(out_dir), f"r{i}"))
    return tr


def test_two_traced_runs_give_identical_counts(tmp_path):
    try:
        specs = _small(workloads.make_workload("suite", 0)
                       + workloads.make_workload("long-horizon", 0)
                       + workloads.make_workload("high-dim", 0))
        first = _traced(specs, tmp_path)
        second = _traced(specs, tmp_path)
    finally:
        workloads.unregister_high_dim()
    counts = [[(dict(r.main.count), dict(r.solve.count)) for r in tr.runs]
              for tr in (first, second)]
    assert counts[0] == counts[1]
    assert all(main["problems.gradient"] > 0 for main, _ in counts[0])


def test_self_times_add_up_to_each_runs_wall(tmp_path):
    tr = _traced(_small(workloads.make_workload("suite", 1)), tmp_path)
    assert len(tr.runs) == len(workloads.SUITE)
    for rec in tr.runs:
        assert abs(rec.self_time_sum() - rec.wall) <= 1e-9 * rec.wall + 1e-12


def test_recursion_is_counted_not_timed():
    with tracer.Tracer() as tr:
        text = tr.call(harness.json_dumps, {"a": [1.5, [2, 3]], "b": None})
    assert json.loads(text) == {"a": [1.5, [2, 3]], "b": None}
    rec = tr.runs[0]
    # dict, list, 1.5, inner list, 2, 3, None
    assert rec.main.count["harness.json"] == 7
    assert [s[3] for s in tr.spans].count("harness.json") == 1


def test_oracle_calls_inside_a_minimizer_solve_are_kept_apart():
    problem = workloads.problems.get_problem("p2")
    with tracer.Tracer() as tr:
        tr.call(problem.minimizer_over, core.Ball(np.array([3.0, 3.0]), 1.0))
    rec = tr.runs[0]
    assert rec.main.count["problems.minimizer"] == 1
    assert rec.main.count["problems.gradient"] == 0
    assert rec.solve.count["problems.gradient"] > 0


def test_wrappers_are_removed_on_exit():
    originals = {mod: dict(vars(mod)) for mod in tracer.MODULES}
    methods = {cls: vars(cls)[name] for cls, name in tracer.TIMED["problems.value"]}
    with tracer.Tracer():
        assert harness.json_dumps is not originals[harness]["json_dumps"]
        assert accel.mirror_step is mirror.mirror_step  # patched by name too
        assert core.as_vector is accel.as_vector
    for mod, attrs in originals.items():
        assert {k: v for k, v in vars(mod).items() if k in attrs} == attrs
    assert {cls: vars(cls)[name] for cls, name in tracer.TIMED["problems.value"]} == methods


def test_seeded_inputs_repeat_and_differ_by_seed():
    for name in ("suite", "long-horizon"):
        assert workloads.make_workload(name, 5) == workloads.make_workload(name, 5)
    assert workloads.make_workload("long-horizon", 5) != workloads.make_workload("long-horizon", 6)
    try:
        workloads.make_workload("high-dim", 5)
        a = workloads.problems.get_problem(workloads.QUAD_ID)
        workloads.make_workload("high-dim", 5)
        b = workloads.problems.get_problem(workloads.QUAD_ID)
        workloads.make_workload("high-dim", 6)
        c = workloads.problems.get_problem(workloads.QUAD_ID)
    finally:
        workloads.unregister_high_dim()
    assert np.array_equal(a.diag, b.diag) and np.array_equal(a.shift, b.shift)
    assert not np.array_equal(a.shift, c.shift)
    assert (a.strong_convexity_alpha, a.smoothness_beta) == (1.0, 100.0)


def test_checks_reject_wrong_verdicts_and_bad_files(tmp_path):
    diag = workloads.RunSpec("p3", "smooth-gd", 1_000, ("failed-potential",), fmt="json")
    config = diag.config(str(tmp_path), "diag")
    result = harness.run_experiment(config)
    assert workloads.verdict_ok(diag, result)
    assert workloads.files_ok(diag, result, config)

    # too short to reach the violating step: the diagnostic must not pass
    short = replace(diag, steps=2)
    assert not workloads.verdict_ok(short, harness.run_experiment(short.config(str(tmp_path), "s")))

    trace = json.loads(open(config.out).read())
    trace["meta"]["final"]["x"][0] = np.nextafter(trace["meta"]["final"]["x"][0], 1.0)
    with open(config.out, "w") as fh:
        fh.write(harness.json_dumps(trace))
    assert not workloads.files_ok(diag, result, config)


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert set(run.THEOREM_IDS) == {t for raw in workloads.SUITE for t in raw["theorems"]}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "suite",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
