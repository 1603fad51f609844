import json

import numpy as np
import pytest

from gdcert.cli import main
from gdcert.core import Unconstrained
from gdcert.descent import Constant, run_online_gd
from gdcert.harness import (
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
from gdcert.problems import FixedAdversary, get_problem


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
        assert parsed["steps"][0]["x"] == list(res.trace.steps[0].x)
        assert parsed["steps"][7]["f"] == res.trace.steps[7].f
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
        assert float(first[f_col]) == res.trace.steps[0].f

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
        emit_report([], str(path))
        assert json.loads(path.read_text()) == {}

    def test_report_csv_rows(self, tmp_path):
        res = run_experiment(RunConfig(problem="p2", method="smooth-gd", steps=25,
                                       certify=True, theorems=["smooth-value-scaled"]))
        path = tmp_path / "rep.csv"
        emit_report(res.reports, str(path), fmt="csv")
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 26  # header + one row per step check

    def test_trace_csv_emission(self, tmp_path):
        res = run_experiment(RunConfig(problem="p1", method="smooth-gd", steps=3))
        path = emit_trace(res.trace, str(tmp_path / "t.csv"), fmt="csv")
        assert open(path).read().count("\n") == 4


class TestTraceContracts:
    def test_single_step_run_trivially_passes(self):
        res = run_experiment(RunConfig(problem="p1", method="smooth-gd", steps=1,
                                       certify=True))
        assert res.passed
        assert res.trace.final_f == pytest.approx(0.0)

    def test_gaps_nonnegative_at_true_optimum(self):
        res = run_experiment(RunConfig(problem="p2", method="smooth-gd", steps=100))
        f_star = res.trace.constants["f_star"]
        for s in res.trace.steps:
            assert s.f - f_star >= -1e-10

    def test_steps_contiguous_from_zero(self):
        res = run_experiment(RunConfig(problem="p2", method="agm2", steps=20))
        assert [s.t for s in res.trace.steps] == list(range(20))


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

    def test_x0_parsing(self, tmp_path):
        code = main(["run", "--problem", "p2", "--method", "smooth-gd",
                     "--steps", "5", "--x0", "0.3,0.7",
                     "--out", str(tmp_path / "out.json")])
        assert code == 0
        data = json.loads((tmp_path / "out.json").read_text())
        assert data["steps"][0]["x"] == [0.3, 0.7]

    def test_non_finite_x0_exit_two(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        code = main(["run", "--problem", "p2", "--method", "smooth-gd",
                     "--steps", "5", "--x0", "1,nan", "--out", str(out)])
        assert code == 2
        assert "x0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", [
        {"steps": "ten"},
        {"steps": 1.5},
        {"x0": ["a", 1]},
        {"x0": [0.5, float("inf")]},
        {"x0": "0.3,abc"},
        {"format": "yaml"},
        {"format": "JSON"},
    ], ids=["steps-text", "steps-fraction", "x0-text-coordinate",
            "x0-infinite", "x0-text-unparsable", "format-yaml", "format-upper"])
    def test_suite_bad_entry_exit_two_writes_nothing(self, tmp_path, capsys, bad):
        good = {"problem": "p2", "method": "smooth-gd", "steps": 5,
                "out": str(tmp_path / "first.json")}
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps([good, {**good, "out": str(tmp_path / "bad.json"),
                                          **bad}]))
        assert main(["suite", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

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

    def test_suite_unknown_key_exit_two(self, tmp_path):
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps([{"problem": "p1", "method": "gd",
                                    "steps": 5, "stride": 2}]))
        assert main(["suite", "--config", str(cfg)]) == 2
