import errno
import itertools
import json
import os
import pathlib
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from gdcert import accel, core, descent, mirror, problems, smooth
from gdcert import trace as trace_module
from gdcert.certify import THEOREMS
from gdcert.cli import _build_parser, _config_from_args, _config_from_dict, main
from gdcert.core import Ball, Simplex, Unconstrained
from gdcert.descent import run_online_gd
from gdcert.harness import (
    METHODS,
    SETS,
    ConfigError,
    RunConfig,
    RunResult,
    default_x0,
    emit_report,
    emit_trace,
    json_dumps,
    make_set,
    registry_listing,
    run_experiment,
    trace_to_csv,
    trace_to_dict,
    validate_config,
)
from gdcert.mirror import EuclideanMap, NegEntropyMap, run_mirror_descent
from gdcert.problems import ADVERSARIES, PROBLEMS, FixedAdversary, get_problem
from oracles import Constant


class TestConfigValidation:
    def test_unknown_ids_rejected(self):
        with pytest.raises(ConfigError):
            validate_config(RunConfig(problem="p9", method="gd", steps=5))
        with pytest.raises(ConfigError):
            validate_config(RunConfig(problem="p1", method="warp", steps=5))
        with pytest.raises(ConfigError):
            validate_config(RunConfig(problem="p1", method="gd", steps=5,
                                      feasible_set="torus"))

    def test_bad_steps(self):
        with pytest.raises(ConfigError):
            validate_config(RunConfig(problem="p1", method="gd", steps=0))

    def test_incompatible_theorem_method(self):
        with pytest.raises(ConfigError):
            validate_config(RunConfig(problem="p1", method="gd", steps=5,
                                      certify=True, theorems=["agm-smooth"]))

    def test_set_shape_requirements(self):
        with pytest.raises(ConfigError):
            validate_config(RunConfig(problem="p2", method="smooth-gd", steps=5,
                                      feasible_set="ball", certify=True,
                                      theorems=["smooth-value-scaled"]))
        with pytest.raises(ConfigError):
            validate_config(RunConfig(problem="p2", method="smooth-gd", steps=5,
                                      certify=True, theorems=["smooth-projected"]))

    def test_schedule_requirements(self):
        with pytest.raises(ConfigError):
            validate_config(RunConfig(problem="p2", method="frank-wolfe", steps=5,
                                      feasible_set="simplex", schedule="fw-1t",
                                      certify=True, theorems=["frank-wolfe"]))

    def test_certify_resolves_the_theorems_once(self):
        config = RunConfig(problem="p2", method="smooth-gd", steps=5, certify=True)
        assert validate_config(config).theorems == (
            "smooth-value-log", "smooth-value-scaled", "smooth-value-distance")
        config.certify = False
        assert validate_config(config).theorems == ()

    def test_theorems_require_certify(self):
        with pytest.raises(ConfigError):
            validate_config(RunConfig(problem="p1", method="gd", steps=5,
                                      theorems=["gd-regret"]))

    def test_wrong_schedule_for_method(self):
        with pytest.raises(ConfigError):
            validate_config(RunConfig(problem="p1", method="gd", steps=5,
                                      schedule="agm-smooth"))

    def test_x0_dimension_checked(self):
        with pytest.raises(ConfigError):
            run_experiment(RunConfig(problem="p2", method="smooth-gd", steps=5,
                                     x0=[1.0, 2.0, 3.0]))

    def test_every_combination_runs_or_is_rejected(self):
        # anything else escaping (a ValueError from a runner, a NaN step
        # size) is a combination the boundary let through
        for problem, (method, entry), set_id in itertools.product(
                sorted(PROBLEMS) + sorted(ADVERSARIES), METHODS.items(), SETS):
            for schedule in entry.schedules or (None,):
                config = RunConfig(problem=problem, method=method, steps=20,
                                   feasible_set=set_id, schedule=schedule,
                                   certify=True)
                try:
                    result = run_experiment(config)
                except ConfigError:
                    continue
                for rep in result.reports:
                    assert all(np.isfinite(s.phi) for s in rep.step_checks), config

    def test_theorems_name_methods_and_their_schedules(self):
        # a typo in either table would only show as a theorem that never applies
        for tid, th in THEOREMS.items():
            for method in th.methods:
                assert method in METHODS, (tid, method)
                for schedule in th.schedules or ():
                    assert schedule in METHODS[method].schedules, (tid, method, schedule)


class TestDefaults:
    def test_default_x0_per_set(self):
        np.testing.assert_allclose(default_x0("unconstrained", 3), np.ones(3))
        np.testing.assert_allclose(default_x0("simplex", 4), np.full(4, 0.25))
        np.testing.assert_allclose(np.linalg.norm(default_x0("ball", 2)), 1.0)
        np.testing.assert_allclose(default_x0("box", 2), np.ones(2))

    def test_make_set(self):
        assert make_set("unconstrained", 2).member(np.array([9.0, 9.0]))
        assert make_set("simplex", 3).dim == 3
        with pytest.raises(ConfigError):
            make_set("plane", 2)

    def test_registry_listing_complete(self):
        listing = registry_listing()
        assert "p1" in listing["problems"]
        assert "experts-alt" in listing["problems"]
        assert "agm2" in listing["methods"]
        assert "agm-smooth" in listing["theorems"]


class TestDeterminism:
    def test_trace_json_byte_identical(self):
        cfg = dict(problem="p2", method="agm2", steps=50, certify=True)
        a = run_experiment(RunConfig(**cfg))
        b = run_experiment(RunConfig(**cfg))
        assert json_dumps(trace_to_dict(a.trace)) == json_dumps(trace_to_dict(b.trace))

    def test_json_round_trip(self):
        res = run_experiment(RunConfig(problem="p2", method="smooth-gd", steps=20,
                                       certify=True))
        text = json_dumps(trace_to_dict(res.trace))
        parsed = json.loads(text)
        assert parsed["steps"][0]["x"] == list(res.trace.x[0])
        assert parsed["steps"][7]["f"] == res.trace.f[7]
        assert parsed["meta"]["final"]["x"] == list(res.trace.final_x)

    def test_seventeen_digit_floats(self):
        assert json_dumps(0.1) == "0.10000000000000001"
        assert json.loads(json_dumps(0.1)) == 0.1
        assert json_dumps([1.0, None, True]) == "[1,null,true]"


class TestEmission:
    def test_csv_row_count(self, tmp_path):
        res = run_experiment(RunConfig(problem="p2", method="smooth-gd", steps=40))
        text = trace_to_csv(res.trace)
        lines = text.strip().split("\n")
        assert len(lines) == 41  # header + T rows
        assert lines[0].startswith("t,x0,x1,f")

    def test_csv_round_trip_values(self):
        res = run_experiment(RunConfig(problem="p2", method="smooth-gd", steps=5))
        lines = trace_to_csv(res.trace).strip().split("\n")
        header = lines[0].split(",")
        first = lines[1].split(",")
        f_col = header.index("f")
        assert float(first[f_col]) == res.trace.f[0]

    def test_emit_files(self, tmp_path):
        out = tmp_path / "run.json"
        res = run_experiment(RunConfig(problem="p2", method="agm2", steps=30,
                                       certify=True, theorems=["agm-smooth"],
                                       out=str(out)))
        assert out.exists()
        report_path = tmp_path / "run.report.json"
        assert report_path.exists()
        payload = json.loads(report_path.read_text())
        assert payload["passed"] is True
        assert payload["certificates"][0]["theorem"] == "agm-smooth"

    def test_empty_report_is_empty_document(self, tmp_path):
        path = tmp_path / "empty.json"
        emit_report(run_experiment(RunConfig(problem="p1", method="smooth-gd", steps=3)),
                    str(path))
        assert json.loads(path.read_text()) == {}

    def test_report_csv_rows(self, tmp_path):
        res = run_experiment(RunConfig(problem="p2", method="smooth-gd", steps=25,
                                       certify=True, theorems=["smooth-value-scaled"]))
        path = tmp_path / "rep.csv"
        emit_report(res, str(path), fmt="csv")
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 26  # header + one row per step check

    def test_trace_csv_emission(self, tmp_path):
        res = run_experiment(RunConfig(problem="p1", method="smooth-gd", steps=3))
        path = emit_trace(res.trace, str(tmp_path / "t.csv"), fmt="csv")
        assert pathlib.Path(path).read_text().count("\n") == 4


class TestTraceContracts:
    def test_single_step_run_trivially_passes(self):
        res = run_experiment(RunConfig(problem="p1", method="smooth-gd", steps=1,
                                       certify=True))
        assert res.passed
        assert res.trace.final("f") == pytest.approx(0.0)

    def test_gaps_nonnegative_at_true_optimum(self):
        res = run_experiment(RunConfig(problem="p2", method="smooth-gd", steps=100))
        f_star = res.trace.constants["f_star"]
        for f in res.trace.f:
            assert f - f_star >= -1e-10

    def test_steps_contiguous_from_zero(self):
        res = run_experiment(RunConfig(problem="p2", method="agm2", steps=20))
        steps = json.loads(json_dumps(trace_to_dict(res.trace)))["steps"]
        assert [s["t"] for s in steps] == list(range(20))


class TestRunResult:
    def test_exit_codes(self):
        ok = run_experiment(RunConfig(problem="p2", method="agm2", steps=20,
                                      certify=True))
        assert ok.exit_code == 0
        failing = run_experiment(RunConfig(problem="p2", method="smooth-gd",
                                           steps=50, certify=True,
                                           theorems=["failed-potential"]))
        assert failing.exit_code == 1  # no violating step on this instance
        err = RunResult(config=RunConfig(problem="p1", method="gd", steps=1),
                        trace=None, reports=[], error="numeric failure: boom")
        assert err.exit_code == 1

    def test_divergence_raises_cleanly(self):
        adv = FixedAdversary(get_problem("p1"))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError):
                run_online_gd(adv, Unconstrained(1), [1.0], Constant(1e300), 10)
            with pytest.raises(FloatingPointError):
                run_mirror_descent(adv, EuclideanMap(), Unconstrained(1), [1.0],
                                   1e300, 10)


class TestCli:
    def test_run_exit_zero(self, tmp_path, capsys):
        code = main(["run", "--problem", "p2", "--method", "agm2",
                     "--steps", "50", "--certify", "--theorems", "agm-smooth",
                     "--out", str(tmp_path / "out.json")])
        assert code == 0
        assert "pass" in capsys.readouterr().out

    def test_run_certification_failure_exit_one(self, tmp_path, capsys):
        code = main(["run", "--problem", "p2", "--method", "smooth-gd",
                     "--steps", "50", "--theorems", "failed-potential",
                     "--out", str(tmp_path / "out.json")])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_config_error_exit_two(self, tmp_path, capsys):
        code = main(["run", "--problem", "p1", "--method", "gd",
                     "--steps", "10", "--theorems", "agm-smooth",
                     "--out", str(tmp_path / "out.json")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("set_id, constant", [
        # |x0 - x*| = 1e308, whose squared norm overflows
        ("unconstrained", "D"),
        # the box's diameter is finite; |grad f(x0)| = 1e200 squares to inf
        ("box", "G"),
    ])
    def test_overflowing_step_size_constant_exit_two(self, tmp_path, capsys,
                                                       set_id, constant):
        x0 = "1e308" if constant == "D" else "1e200"
        code = main(["run", "--problem", "p1", "--method", "gd", "--set", set_id,
                     "--x0", x0, "--steps", "50", "--certify",
                     "--out", str(tmp_path / "out.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"and {constant}, " in err and "is not finite" in err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_ball_distance_exit_two(self, tmp_path, capsys):
        # |x0 - center| squares to inf: x0 is not in the ball, which is a
        # config error, with no overflow warning on the way
        code = main(["run", "--problem", "p2", "--method", "mirror-euclidean",
                     "--set", "ball", "--x0", "1e308,1e308", "--steps", "20",
                     "--certify", "--out", str(tmp_path / "out.json")])
        assert code == 2
        assert "needs x0 in the ball set" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    def test_sc_gd_estimated_g_bounds_every_gradient(self, tmp_path):
        # p2 declares no G; at x0 the gradient norm is 4.12 but the run's
        # gradients reach 12, so G must come from the whole trajectory
        out = tmp_path / "out.json"
        code = main(["run", "--problem", "p2", "--method", "sc-gd", "--steps", "20",
                     "--certify", "--out", str(out)])
        assert code == 0
        trace = json.loads(out.read_text())
        report = json.loads((tmp_path / "out.report.json").read_text())
        assert [c["theorem"] for c in report["certificates"]] == ["sc-regret", "sc-average"]
        for cert in report["certificates"]:
            G = cert["constants"]["G"]
            assert G == max(s["grad_norm"] for s in trace["steps"]) == 12.0
            assert "trajectory-estimated-G" in cert["flags"]
            assert cert["step_failures"] == 0

    def test_x0_parsing(self, tmp_path):
        code = main(["run", "--problem", "p2", "--method", "smooth-gd",
                     "--steps", "5", "--x0", "0.3,0.7",
                     "--out", str(tmp_path / "out.json")])
        assert code == 0
        data = json.loads((tmp_path / "out.json").read_text())
        assert data["steps"][0]["x"] == [0.3, 0.7]

    def test_non_finite_x0_exit_two(self, tmp_path, capsys):
        """Every method's run rejects a non-finite x0 where it enters, with
        exit 2 and nothing written: the step loop checks no x0 again."""
        out = tmp_path / "out.json"
        for method, bad in itertools.product(METHODS, ["nan", "inf"]):
            cfg = GRADIENT_COUNT_RUNS[method]
            dim = problems.get_adversary(cfg["problem"]).dim
            code = main(["run", "--problem", cfg["problem"], "--method", method,
                         "--set", cfg.get("feasible_set", "unconstrained"),
                         "--steps", "5", "--x0", ",".join(["1"] * (dim - 1) + [bad]),
                         "--out", str(out)])
            assert code == 2, (method, bad)
            assert "x0" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["--problem", "p1", "--method", "mirror-negentropy", "--set", "ball"],
        ["--problem", "experts-alt", "--method", "gd"],
        ["--problem", "lse3", "--method", "mirror-euclidean"],
        ["--problem", "lse3", "--method", "wellcond-gd"],
        ["--problem", "lse3", "--method", "sc-agm"],
        ["--problem", "p1", "--method", "gd", "--set", "simplex"],
        ["--problem", "p2", "--method", "frank-wolfe", "--set", "simplex",
         "--x0", "0.7,0.7"],
        ["--problem", "p2", "--method", "mirror-negentropy", "--set", "simplex",
         "--x0", "0,1"],
        ["--problem", "p2", "--method", "mirror-euclidean", "--set", "ball",
         "--x0", "3,3"],
        ["--problem", "lse3", "--method", "agm2-negentropy", "--set", "simplex",
         "--x0", "0.5,0.5,0.5"],
        # no declared gradient bound and a zero gradient at x0: G = 0
        ["--problem", "p2", "--method", "mirror-euclidean", "--x0", "0,0"],
        ["--problem", "p2", "--method", "mirror-euclidean", "--set", "ball",
         "--x0", "0,0"],
        ["--problem", "p2", "--method", "gd", "--set", "ball", "--x0", "0,0"],
        # the weight-recurrence schedule runs unconstrained only
        ["--problem", "p2", "--method", "agm2", "--schedule", "agm-lambda",
         "--set", "ball"],
        # --certify with no theorem that applies to the run
        ["--problem", "p3", "--method", "agm1"],
        ["--problem", "p3", "--method", "restart-agm"],
        ["--problem", "p3", "--method", "agm2", "--schedule", "agm-lambda"],
    ], ids=["negentropy-ball", "experts-unconstrained", "lse3-unconstrained",
            "lse3-wellcond", "lse3-sc-agm", "one-point-simplex",
            "fw-x0-outside", "negentropy-x0-on-face", "mirror-x0-outside",
            "agm-negentropy-x0-off-simplex", "mirror-zero-G",
            "mirror-ball-zero-G", "gd-ball-zero-G", "agm-lambda-ball",
            "agm1-no-theorem", "restart-agm-no-theorem", "agm-lambda-no-theorem"])
    def test_unstartable_run_exit_two(self, tmp_path, capsys, args):
        out = tmp_path / "out.json"
        code = main(["run", *args, "--steps", "10", "--certify", "--out", str(out)])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad", [
        {"steps": "ten"},
        {"steps": 1.5},
        {"x0": ["a", 1]},
        {"x0": [0.5, float("inf")]},
        {"x0": "0.3,abc"},
        {"format": "yaml"},
        {"format": "JSON"},
        {"problem": "lse3", "method": "wellcond-gd"},
        {"method": "frank-wolfe", "set": "simplex", "x0": [0.7, 0.7]},
        {"method": "agm2", "schedule": "agm-lambda", "set": "ball"},
        {"method": "agm1", "certify": True},
        # a value of the wrong JSON type, or an entry that is no object
        {"out": 1},
        {"out": ["t.json"]},
        {"certify": "false"},
        {"certify": 1},
        {"problem": ["p1"]},
        {"method": None},
        {"set": {"ball": 1}},
        {"format": ["json"]},
        {"schedule": 2},
        {"theorems": [["smooth-value-log"]]},
        {"theorems": "smooth-value-log"},
        1,
        ["p2", "smooth-gd", 5],
    ], ids=["steps-text", "steps-fraction", "x0-text-coordinate",
            "x0-infinite", "x0-text-unparsable", "format-yaml", "format-upper",
            "no-curvature-constants", "fw-x0-outside", "agm-lambda-ball",
            "agm1-no-theorem", "out-int", "out-list", "certify-text", "certify-int",
            "problem-list", "method-null", "set-object", "format-list",
            "schedule-int", "theorems-nested", "theorems-text", "entry-int",
            "entry-list"])
    def test_suite_bad_entry_exit_two_writes_nothing(self, tmp_path, capsys, bad):
        """No file is written, and the error names the entry's bad key."""
        good = {"problem": "p2", "method": "smooth-gd", "steps": 5,
                "out": str(tmp_path / "first.json")}
        entry = bad
        if isinstance(bad, dict):
            entry = {**good, "out": str(tmp_path / "bad.json"), **bad}
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps([good, entry]))
        assert main(["suite", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "Traceback" not in err
        assert any(key in err for key in bad) if isinstance(bad, dict) else (
            "JSON object" in err)
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("x0", ["1,,2", "1,2,", ",1,2", "1, ,2", ""])
    def test_empty_x0_coordinate_exit_two(self, tmp_path, capsys, x0):
        out = tmp_path / "out.json"
        assert main(["run", "--problem", "p2", "--method", "smooth-gd", "--x0", x0,
                     "--steps", "3", "--out", str(out)]) == 2
        assert "empty coordinate" in capsys.readouterr().err
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps([{"problem": "p2", "method": "smooth-gd", "steps": 3,
                                    "x0": x0, "out": str(out)}]))
        assert main(["suite", "--config", str(cfg)]) == 2
        assert "empty coordinate" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_run_arguments_equal_suite_entry(self):
        argv = ["run", "--problem", "p2", "--method", "smooth-gd", "--steps", "20",
                "--set", "ball", "--theorems", "smooth-projected,failed-potential",
                "--x0", "0.5,-0.25", "--out", "t.csv", "--format", "csv"]
        entry = {"problem": "p2", "method": "smooth-gd", "steps": 20, "set": "ball",
                 "theorems": ["smooth-projected", "failed-potential"],
                 "x0": [0.5, -0.25], "out": "t.csv", "format": "csv"}
        from_args = _config_from_args(_build_parser().parse_args(argv))
        assert from_args == _config_from_dict(entry)
        assert from_args.certify and from_args.feasible_set == "ball"
        default_args = _build_parser().parse_args(
            ["run", "--problem", "p1", "--method", "gd", "--steps", "5",
             "--certify", "--out", "t.json"])
        assert _config_from_args(default_args) == _config_from_dict(
            {"problem": "p1", "method": "gd", "steps": 5, "certify": True,
             "out": "t.json"})

    def test_suite_x0_string_is_parsed(self, tmp_path):
        out = tmp_path / "out.json"
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps([{"problem": "p2", "method": "smooth-gd",
                                    "steps": 5, "x0": "0.3,0.7",
                                    "out": str(out)}]))
        assert main(["suite", "--config", str(cfg)]) == 0
        assert json.loads(out.read_text())["steps"][0]["x"] == [0.3, 0.7]

    def test_csv_format_flag(self, tmp_path):
        code = main(["run", "--problem", "p2", "--method", "smooth-gd",
                     "--steps", "5", "--format", "csv",
                     "--out", str(tmp_path / "out.csv")])
        assert code == 0
        assert (tmp_path / "out.csv").read_text().startswith("t,x0,x1")

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "problems:" in out and "agm2" in out and "mirror-regret" in out

    def test_list_stops_quietly_when_stdout_closes(self, monkeypatch):
        """A reader that closed early (``gdcert list | head``) gets exit code
        141 and no traceback; stdout then writes to the null device."""
        read_end, write_end = os.pipe()

        class Closed:
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

            def flush(self):
                pass

            def fileno(self):
                return write_end

        monkeypatch.setattr(sys, "stdout", Closed())
        try:
            assert main(["list"]) == 141
            os.write(write_end, b"dropped")
            assert os.read(read_end, 1) == b""  # the pipe lost its writer
        finally:
            os.close(read_end)
            os.close(write_end)

    def test_closed_pipe_exits_without_traceback(self):
        """The whole process, exit flush included, on a pipe with no reader."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(accel.__file__).parents[1]))
        try:
            proc = subprocess.run([sys.executable, "-m", "gdcert.cli", "list"],
                                  stdout=write_end, stderr=subprocess.PIPE,
                                  text=True, env=env)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, "")

    def test_suite_command(self, tmp_path, capsys):
        configs = [
            {"problem": "p2", "method": "agm2", "steps": 40, "certify": True,
             "theorems": ["agm-smooth"], "out": str(tmp_path / "a.json")},
            {"problem": "p3", "method": "wellcond-gd", "steps": 60, "certify": True,
             "out": str(tmp_path / "b.json")},
        ]
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps(configs))
        assert main(["suite", "--config", str(cfg)]) == 0
        assert (tmp_path / "a.json").exists()
        assert (tmp_path / "b.json").exists()

    def test_suite_bad_file_exit_two(self, tmp_path):
        assert main(["suite", "--config", str(tmp_path / "missing.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["suite", "--config", str(bad)]) == 2

    def test_seed_is_not_an_option(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--problem", "p2", "--method", "smooth-gd", "--steps", "5",
                  "--out", str(out), "--seed", "3"])
        assert exc.value.code == 2
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps([{"problem": "p2", "method": "smooth-gd",
                                    "steps": 5, "out": str(out), "seed": 0}]))
        assert main(["suite", "--config", str(cfg)]) == 2
        assert "seed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_suite_unknown_key_exit_two(self, tmp_path):
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps([{"problem": "p1", "method": "gd",
                                    "steps": 5, "stride": 2}]))
        assert main(["suite", "--config", str(cfg)]) == 2


# one startable run per method, 40 steps unless given
GRADIENT_COUNT_RUNS = {
    "gd": dict(problem="p1"),
    "sc-gd": dict(problem="p2"),
    "smooth-gd": dict(problem="p2", feasible_set="ball"),
    "frank-wolfe": dict(problem="p2", feasible_set="simplex", x0=[0.5, 0.5]),
    "wellcond-gd": dict(problem="p3"),
    "mirror-euclidean": dict(problem="p2", feasible_set="ball"),
    "mirror-negentropy": dict(problem="experts-alt", feasible_set="simplex"),
    "agm2": dict(problem="p2", feasible_set="simplex", x0=[0.5, 0.5]),
    "agm1": dict(problem="p3"),
    "agm2-negentropy": dict(problem="lse3", feasible_set="simplex", steps=5),
    "sc-agm": dict(problem="p3"),
    # two 40-step epochs
    "restart-agm": dict(problem="p3", steps=80),
}

ORACLES = (problems.DiagQuadratic, problems.LogSumExp, problems.LinearLoss)
SOLVES = ([(cls, "minimizer_over") for cls in ORACLES]
          + [(problems.FixedAdversary, "comparator_over"),
             (problems.ExpertsAdversary, "comparator_over")])
RUNNERS = [(mod, name) for mod in (descent, smooth, mirror, accel)
           for name in vars(mod) if name.startswith("run_")]
RUNNERS.append((accel, "restart_accelerated"))


class TestOneGradientPerStep:
    def test_every_method_has_a_run(self):
        assert sorted(GRADIENT_COUNT_RUNS) == sorted(METHODS)

    @pytest.mark.parametrize("method", METHODS)
    def test_one_gradient_per_recorded_step(self, method, monkeypatch):
        """Gradient calls made inside the runner, minimizer and comparator
        solves excluded, equal the number of recorded steps."""
        depth = {"run": 0, "solve": 0}
        calls = []

        def scoped(fn, key):
            def wrapper(*args, **kwargs):
                depth[key] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[key] -= 1
            return wrapper

        def counted(fn):
            def wrapper(*args, **kwargs):
                if depth["run"] and not depth["solve"]:
                    calls.append(1)
                return fn(*args, **kwargs)
            return wrapper

        for owner, name in RUNNERS:
            monkeypatch.setattr(owner, name, scoped(getattr(owner, name), "run"))
        for owner, name in SOLVES:
            monkeypatch.setattr(owner, name, scoped(vars(owner)[name], "solve"))
        for cls in ORACLES:
            monkeypatch.setattr(cls, "gradient", counted(vars(cls)["gradient"]))

        cfg = {"steps": 40, **GRADIENT_COUNT_RUNS[method]}
        trace = run_experiment(RunConfig(method=method, **cfg)).trace
        assert trace.T == cfg["steps"]
        assert len(calls) == trace.T


@pytest.mark.parametrize("method", METHODS)
def test_trace_records_only_the_constants_the_run_used(method):
    """No trace carries a constant only a proof reads: the rate gamma, a
    Bregman start term, or a D or G its method's step size does not read."""
    cfg = {"steps": 40, **GRADIENT_COUNT_RUNS[method]}
    trace = run_experiment(RunConfig(method=method, **cfg)).trace
    assert not {"gamma", "bregman_x_star_x0", "bregman_x_star_z0"} & set(trace.constants)
    assert ("G" in trace.constants) == ("D" in METHODS[method].needs)
    assert ("G_dual" in trace.constants) == method.startswith("mirror-")
    if method == "sc-gd":
        assert "D" not in trace.constants
        assert "trajectory-estimated-G" not in trace.flags


# every runner called directly, from the given x0
RUNNER_CALLS = {
    "run_online_gd": lambda x0: descent.run_online_gd(
        FixedAdversary(get_problem("p2")), Unconstrained(2), x0, Constant(0.1), 5),
    "run_strongly_convex_gd": lambda x0: descent.run_strongly_convex_gd(
        FixedAdversary(get_problem("p2")), Unconstrained(2), x0, 1.0, 5),
    "run_smooth_gd": lambda x0: smooth.run_smooth_gd(get_problem("p2"), x0, 5),
    "run_frank_wolfe": lambda x0: smooth.run_frank_wolfe(
        get_problem("p2"), Simplex(2), x0, 5),
    "run_well_conditioned": lambda x0: smooth.run_well_conditioned(
        get_problem("p2"), x0, 5),
    "run_mirror_descent": lambda x0: mirror.run_mirror_descent(
        problems.make_alternating_experts(2), EuclideanMap(), Ball(np.zeros(2), 1.0),
        x0, 0.1, 5),
    "run_agm2": lambda x0: accel.run_agm2(get_problem("p2"), x0, 5),
    "run_agm1": lambda x0: accel.run_agm1(get_problem("p2"), x0, 5),
    "run_general_norm_agm": lambda x0: accel.run_general_norm_agm(
        get_problem("p2"), NegEntropyMap(), Simplex(2), x0, 5),
    "run_sc_agm": lambda x0: accel.run_sc_agm(get_problem("p2"), x0, 5),
    "restart_accelerated": lambda x0: accel.restart_accelerated(
        get_problem("p2"), x0, 1e-6, max_epochs=2),
}


class TestValidatedWhereItEnters:
    """Data is checked once, where it enters a run; the step loop's
    oracles, set calls and step kernels trust what ``trace.record`` checked."""

    def test_every_runner_has_a_call(self):
        assert sorted(RUNNER_CALLS) == sorted(name for _, name in RUNNERS)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("runner", sorted(RUNNER_CALLS))
    def test_direct_run_rejects_non_finite_x0(self, runner, bad):
        assert RUNNER_CALLS[runner]([0.5, 0.5]).T >= 1
        with pytest.raises(ValueError, match="non-finite"):
            RUNNER_CALLS[runner]([0.5, bad])

    @pytest.mark.parametrize("method", METHODS)
    def test_step_loop_makes_no_as_vector_call(self, method, monkeypatch):
        """No ``core.as_vector`` call inside ``trace.record``, wherever a
        module imported it by name; the x0 checks at the start stay."""
        original, record = core.as_vector, trace_module.record
        depth, calls = [0], []

        def counted(*args, **kwargs):
            calls.append(depth[0])
            return original(*args, **kwargs)

        def scoped(fn):
            def wrapper(*args, **kwargs):
                depth[0] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[0] -= 1
            return wrapper

        modules = [m for name, m in sys.modules.items()
                   if name == "gdcert" or name.startswith("gdcert.")]
        for module in modules:
            for name, value in vars(module).items():
                if value is original:
                    monkeypatch.setattr(module, name, counted)
                elif value is record:
                    monkeypatch.setattr(module, name, scoped(record))
        cfg = {"steps": 40, **GRADIENT_COUNT_RUNS[method]}
        trace = run_experiment(RunConfig(method=method, **cfg)).trace
        assert trace.T == cfg["steps"]
        assert 0 in calls  # the counter sees the checks made at the start
        assert sum(1 for d in calls if d) == 0


# one step of each method's public kernels from x, its gradient g and the
# earlier iterates y, z: every input read-only, so a kernel that writes into
# an array it was given, or into one a set or map handed back unchanged,
# raises
STEP_KERNELS = {
    "gd": lambda x, g, y, z: [descent.gd_step(x, g, 0.1),
                              descent.projected_gd_step(Ball([0.0, 0.0], 2.0), x, g, 0.1)],
    "sc-gd": lambda x, g, y, z: [descent.projected_gd_step(Unconstrained(2), x, g, 0.5)],
    "smooth-gd": lambda x, g, y, z: [
        smooth.smooth_gd_step(x, g, 4.0),
        smooth.projected_smooth_step(Ball([0.0, 0.0], 2.0), x, g, 40.0)],
    "frank-wolfe": lambda x, g, y, z: [smooth.frank_wolfe_step(s, x, g, 0.5) for s in
                                       (Ball([0.0, 0.0], 2.0), core.Box([0.0, 0.0], [1.0, 1.0]),
                                        Simplex(2))],
    "wellcond-gd": lambda x, g, y, z: [smooth.smooth_gd_step(x, g, 4.0),
                                       smooth.general_norm_smooth_step(core.Norm.L1, x, g, 4.0)],
    "mirror-euclidean": lambda x, g, y, z: [
        mirror.mirror_step(EuclideanMap(), s, x, g, eta)
        for s in (Unconstrained(2), Ball([0.0, 0.0], 2.0), Simplex(2)) for eta in (0.01, 10.0)],
    "mirror-negentropy": lambda x, g, y, z: [
        mirror.mirror_step(NegEntropyMap(), s, x, g, 0.1) for s in (Unconstrained(2), Simplex(2))],
    "agm2": lambda x, g, y, z: [
        accel.agm2_step(accel.AccelState(x, y, z), g, 4.0, accel.AgmSchedule(kind, 5), 0.1)
        for kind in accel.AgmSchedule.KINDS] + [
        accel.constrained_agm_step(Ball([0.0, 0.0], 2.0), accel.AccelState(x, y, z), g, 4.0, 0.1)],
    "agm1": lambda x, g, y, z: [accel.agm1_step(x, g, y, 1.0, 2.0, 4.0),
                                accel.agm1_to_agm2_state(x, y, 2.0)],
    "agm2-negentropy": lambda x, g, y, z: [
        accel.general_norm_agm_step(m, Simplex(2), accel.AccelState(x, y, z), g, 4.0, 0.1)
        for m in (EuclideanMap(), NegEntropyMap())],
    "sc-agm": lambda x, g, y, z: [accel.sc_agm_step(x, g, y, 4.0, 4.0),
                                  accel.sc_agm_z(x, y, 4.0)],
    "restart-agm": lambda x, g, y, z: [
        accel.agm2_step(accel.AccelState(x, y, z), g, 4.0, accel.AgmSchedule(), 0.1)],
}


def _read_only(*values) -> list:
    arrays = [np.array(v, dtype=float) for v in values]
    for a in arrays:
        a.flags.writeable = False
    return arrays


class TestReadOnlyInputs:
    """The step kernels and the sets' projections write into no array they
    are given: a Euclidean mirror step and a projection onto a ball may hand
    an input back without a copy."""

    def test_every_method_has_its_kernels(self):
        assert sorted(STEP_KERNELS) == sorted(METHODS)

    @pytest.mark.parametrize("method", sorted(STEP_KERNELS))
    def test_one_step_on_read_only_arrays(self, method):
        x, g, y, z = _read_only([0.25, 0.75], [1.0, -0.5], [0.5, 0.5], [0.4, 0.6])
        for out in STEP_KERNELS[method](x, g, y, z):
            if isinstance(out, accel.AccelState):
                out = (out.x, out.y, out.z)
            assert np.isfinite(out).all()

    @pytest.mark.parametrize("point", [[0.25, 0.75], [3.0, -4.0], [0.0, 0.0]])
    def test_every_set_projects_read_only_points(self, point):
        (x,) = _read_only(point)
        sets = [Unconstrained(2), Ball([0.0, 0.0], 2.0), Ball([0.25, 0.75], 1.0),
                core.Box([0.0, 0.0], [1.0, 1.0]), Simplex(2)]
        for s in sets:
            p = s.project(x)
            assert s.member(p)
        # an interior point of the ball comes back as it was given
        assert Ball([0.0, 0.0], 5.0).project(x) is x


class _OracleCalls(list):
    """The name of every oracle call, in order; ``points`` counts the points
    each name evaluated, one per row of a stacked call."""

    def __init__(self):
        super().__init__()
        self.points = Counter()


class TestGradientCallsPerRun:
    """Every gradient call of a whole run, start checks and certification
    included: one per step, plus the x0 gradient that fixes G where the step
    size reads a G the problem does not declare."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = _OracleCalls()

        def counted(fn, name):
            def wrapper(oracle, x, *args, **kwargs):
                calls.append(name)
                calls.points[name] += len(x) if np.ndim(x) == 2 else 1
                return fn(oracle, x, *args, **kwargs)
            return wrapper

        for cls in ORACLES:
            for name in ("gradient", "value"):
                monkeypatch.setattr(cls, name, counted(vars(cls)[name], name))
        return calls

    @pytest.mark.parametrize("cfg, expected", [
        (dict(problem="p1", method="gd", steps=200), 201),
        (dict(problem="p1", method="sc-gd", steps=200), 200),
        (dict(problem="p3", method="sc-agm", steps=200, certify=True), 200),
    ])
    def test_gradient_calls(self, cfg, expected, calls):
        result = run_experiment(RunConfig(**cfg))
        assert result.error is None and result.passed
        assert calls.count("gradient") == expected

    def test_suite_checks_and_runs_with_one_start(self, tmp_path, calls):
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps([{"problem": "p1", "method": "gd", "steps": 200}]))
        assert main(["suite", "--config", str(cfg)]) == 0
        assert calls.count("gradient") == 201

    def test_projected_certificate_reads_the_recorded_steps(self, calls):
        """The projected-step check makes no oracle call: the run's T
        gradients and T + 1 values, f* and the f(x0) of the sublevel
        diameter are all. The run's T + 1 values are one call."""
        result = run_experiment(RunConfig(problem="p2", method="smooth-gd", steps=1000,
                                          feasible_set="ball", certify=True))
        assert result.passed
        assert "smooth-projected" in [r.theorem for r in result.reports]
        assert calls.count("gradient") == 1000
        assert calls.points["value"] == 1003
        assert calls.count("value") <= 3


class TestChecksPerRun:
    """The checks a step kernel makes for a direct caller (the entropy
    interior, set membership, matching dimensions) run once per run, where
    it starts: the step loop's transitions make none, so a run makes as
    many at T = 800 as at T = 80."""

    CHECKS = [(mirror.NegEntropyMap, "interior"), (Simplex, "member"),
              (core.Box, "member")]

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = Counter()

        def counted(fn, name):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for cls, name in self.CHECKS:
            monkeypatch.setattr(cls, name, counted(vars(cls)[name], f"{cls.__name__}.{name}"))
        # wherever a module imported it by name
        original = core.check_same_dim
        for module in [m for name, m in sys.modules.items()
                       if name == "gdcert" or name.startswith("gdcert.")]:
            for name, value in vars(module).items():
                if value is original:
                    monkeypatch.setattr(module, name, counted(original, "check_same_dim"))
        return calls

    # restart-agm reaches its tolerance on p3 within 80 steps whatever the
    # horizon, so its horizon does not set its step count
    @pytest.mark.parametrize("method", [m for m in METHODS if m != "restart-agm"])
    def test_checks_do_not_grow_with_the_horizon(self, method, calls):
        cfg = GRADIENT_COUNT_RUNS[method]
        made = []
        for steps in (80, 800):
            calls.clear()
            result = run_experiment(RunConfig(method=method, **{**cfg, "steps": steps}))
            assert result.error is None and result.trace.T == steps
            made.append(dict(calls))
        assert made[0] == made[1]

    @pytest.mark.parametrize("cfg", [
        dict(problem="experts-alt", method="mirror-negentropy", feasible_set="simplex"),
        dict(problem="p2", method="frank-wolfe", feasible_set="simplex", x0=[0.5, 0.5]),
        dict(problem="p2", method="frank-wolfe", feasible_set="box"),
    ])
    def test_a_run_checks_its_start(self, cfg, calls):
        run_experiment(RunConfig(steps=50, **cfg))
        assert calls  # the counters see the checks made at the start


class TestComparatorSolvesPerRun:
    """An online run solves for its comparator once: the start checks' D
    and the run share it."""

    RUNS = [dict(problem="p1", method="gd", steps=50),
            dict(problem="experts-alt", method="gd", steps=50, feasible_set="ball"),
            dict(problem="p2", method="sc-gd", steps=50),
            dict(problem="experts-alt", method="mirror-negentropy", steps=50,
                 feasible_set="simplex")]

    @pytest.fixture
    def solves(self, monkeypatch):
        solves = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                solves.append(1)
                return fn(*args, **kwargs)
            return wrapper

        for cls in (problems.FixedAdversary, problems.ExpertsAdversary):
            monkeypatch.setattr(cls, "comparator_over",
                                counted(vars(cls)["comparator_over"]))
        return solves

    @pytest.mark.parametrize("cfg", RUNS)
    def test_one_solve_per_run(self, cfg, solves):
        assert run_experiment(RunConfig(certify=True, **cfg)).passed
        assert len(solves) == 1

    def test_one_solve_per_suite_entry(self, tmp_path, solves):
        path = tmp_path / "suite.json"
        # the suite file names the set "set", as the CLI does
        path.write_text(json.dumps([{("set" if k == "feasible_set" else k): v
                                     for k, v in cfg.items()} for cfg in self.RUNS]))
        assert main(["suite", "--config", str(path)]) == 0
        assert len(solves) == len(self.RUNS)
