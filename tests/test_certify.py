import ast
import copy
import dataclasses
import itertools
import pathlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gdcert.certify
from gdcert.certify import (
    DEFAULT_TOL,
    PotentialKind,
    THEOREMS,
    certify_trace,
    potential,
    rate_comparison,
    _envelope_column,
)
from gdcert.core import Unconstrained
from gdcert.descent import run_online_gd, run_strongly_convex_gd
from gdcert.mirror import get_map
from gdcert.harness import (
    RunConfig,
    json_dumps,
    run_experiment,
    trace_to_dict,
)
from gdcert.problems import PROBLEMS, FixedAdversary, get_problem
from gdcert.smooth import run_smooth_gd, run_well_conditioned
from gdcert.accel import restart_accelerated, run_agm2, run_sc_agm
from gdcert.trace import Trace
import oracles
from oracles import Constant, replay_certificate


def view(x, f=None, y=None, z=None, f_y=None):
    """One point of a run, as ``potential`` reads it."""
    def vec(v):
        return None if v is None else np.atleast_1d(np.asarray(v, dtype=float))
    return SimpleNamespace(x=vec(x), f=f, y=vec(y), z=vec(z), f_y=f_y)


def empty_trace():
    return Trace(x=np.zeros((1, 1)), f=np.zeros(0), grad=np.zeros((0, 1)), eta=np.zeros(0))


class TestPotentialValues:
    def test_distance_kind_worked_case(self):
        # ||x - x*||^2 / (2 eta) at x = 1, x* = 0, eta = 0.1
        c = {"eta": 0.1, "x_star": np.array([0.0]), "f_star": 0.0}
        assert potential(PotentialKind.DISTANCE, c, view(1.0, f=0.5), 0) == pytest.approx(5.0)

    def test_agm_kind_at_start(self):
        # t = 0 kills the value term; 2 beta ||z0 - x*||^2 = 2
        c = {"beta": 1.0, "x_star": np.array([0.0]), "f_star": 0.0}
        s = view(1.0, f=0.5, y=1.0, z=1.0, f_y=0.5)
        assert potential(PotentialKind.AGM, c, s, 0) == pytest.approx(2.0)

    def test_zero_at_reference(self):
        for kind, consts in [(PotentialKind.VALUE, {}),
                             (PotentialKind.VALUE_DISTANCE, {"beta": 2.0}),
                             (PotentialKind.EXP_VALUE, {"gamma": 0.5})]:
            c = {**consts, "x_star": np.array([0.0]), "f_star": 0.0}
            assert potential(kind, c, view(0.0, f=0.0), 3) == pytest.approx(0.0)

    def test_missing_constants_rejected(self):
        c = {"x_star": np.array([0.0]), "f_star": 0.0}
        with pytest.raises(ValueError, match="needs constant 'eta'"):
            potential(PotentialKind.DISTANCE, c, view(1.0, f=0.5), 0)

    def test_failed_kind_uses_doubled_distance_weight(self):
        c = {"beta": 4.0, "x_star": np.zeros(2), "f_star": 0.0}
        s = view([1.0, 1.0], f=2.5)
        # a = 4 beta so the distance term is 2 beta ||x||^2 = 16
        assert potential(PotentialKind.FAILED, c, s, 0) == pytest.approx(16.0)


class TestCertifyStep:
    def test_amortized_worked_chain(self):
        # P1, x_t = 1, eta = 0.1: phi 5 -> 4.05, amortized -0.45 <= 0.05
        trace = Trace(x=np.array([[1.0], [0.9]]), f=np.array([0.5]),
                      grad=np.array([[1.0]]), eta=np.array([0.1]), f_ref=np.array([0.0]))
        trace.constants.update({"eta": 0.1, "G": 1.0, "D": 1.0, "x_star": np.array([0.0]),
                                "f_star": 0.0})
        (chk,) = certify_trace("gd-regret", trace).step_checks
        assert chk.phi == pytest.approx(5.0)
        assert chk.dphi == pytest.approx(-0.95)
        assert chk.amortized == pytest.approx(-0.45)
        assert chk.allowed == pytest.approx(0.05)
        assert chk.ok

    def test_violation_is_recorded_not_raised(self):
        trace = Trace(x=np.array([[1.0], [1.0]]), f=np.array([1.0, 1.0]),
                      grad=np.array([[0.0]]), eta=np.array([1.0]))
        trace.constants.update({"gamma": 1.0, "kappa": 2.0, "x_star": np.array([0.0]),
                                "f_star": 0.0})
        report = certify_trace("well-conditioned", trace)
        (worse,) = report.step_checks
        assert not report.passed
        assert not worse.ok  # (1+gamma)^t growth with a flat gap must fail


class TestCertifyTrace:
    def test_telescoping_residual_small(self):
        trace = run_smooth_gd(get_problem("p2"), [1.0, 1.0], 500)
        report = certify_trace("smooth-value-distance", trace)
        assert report.telescoping_ok
        assert report.telescoping_residual <= 1e-9 * (1.0 + 16.0)

    def test_consistency_crosscheck_runs(self):
        trace = run_smooth_gd(get_problem("p2"), [1.0, 1.0], 100)
        report = certify_trace("smooth-value-scaled", trace)
        assert report.consistency_ok is True

    def test_trace_steps_do_not_depend_on_certification(self):
        theorems = ["smooth-value-log", "smooth-value-scaled", "smooth-value-distance"]

        def run(order):
            cfg = RunConfig(problem="p2", method="smooth-gd", steps=50,
                            certify=bool(order), theorems=order)
            return run_experiment(cfg).trace

        def steps_json(trace):
            return json_dumps(trace_to_dict(trace)["steps"])

        def columns(trace):
            return {name: col.tobytes() if isinstance(col, np.ndarray) else col
                    for name, col in vars(trace).items() if name != "meta"}

        uncertified = run([])
        before = columns(uncertified)
        for tid in theorems:
            certify_trace(tid, uncertified)
        assert columns(uncertified) == before
        plain = steps_json(uncertified)
        assert steps_json(run(theorems)) == plain
        assert steps_json(run(theorems[::-1])) == plain

    def test_certifying_leaves_meta_unchanged(self):
        # the run sets no flag: reading the flags must not add the key
        trace = run_smooth_gd(get_problem("p2"), [1.0, 1.0], 50)
        assert "flags" not in trace.meta
        before = copy.deepcopy(trace.meta)
        for tid in ("smooth-value-log", "smooth-value-scaled", "smooth-value-distance"):
            assert certify_trace(tid, trace).passed
        assert json_dumps(trace.meta) == json_dumps(before)

    def test_empty_trace_is_vacuous(self):
        report = certify_trace("agm-smooth", empty_trace())
        assert report.end_checks[0].vacuous
        assert report.passed

    @pytest.mark.parametrize("theorem_id", sorted(THEOREMS))
    def test_zero_step_run_is_vacuous(self, theorem_id):
        # restarting at the optimum ends before the first step
        trace = restart_accelerated(get_problem("p2"), [0.0, 0.0], 1e-8)
        assert trace.T == 0
        report = certify_trace(theorem_id, trace)
        assert report.error is None
        assert [e.label for e in report.end_checks] == ["no-steps"]

    def test_missing_constants_marked_not_certifiable(self):
        adv = FixedAdversary(get_problem("p1"))
        trace = run_online_gd(adv, Unconstrained(1), [1.0], Constant(0.1), 10)
        # no alpha recorded: the strongly convex certificate cannot run
        report = certify_trace("sc-regret", trace)
        assert report.error is not None
        assert not report.passed

    @pytest.mark.parametrize("theorem_id", ["gd-regret", "sc-regret"])
    def test_amortized_check_needs_comparator_values(self, theorem_id):
        # f* does not stand in for the comparator's round values
        trace = run_strongly_convex_gd(FixedAdversary(get_problem("p1")), Unconstrained(1),
                                       [1.0], 1.0, 10)
        trace.f_ref = None
        trace.constants["f_star"] = 0.0
        report = certify_trace(theorem_id, trace)
        assert report.error == "not certifiable: trace has no comparator values"
        assert not report.passed

    def test_unknown_theorem_rejected(self):
        with pytest.raises(KeyError):
            certify_trace("fermat-last", empty_trace())

    def test_end_bound_values_frozen(self):
        p2 = get_problem("p2")
        trace = run_smooth_gd(p2, [1.0, 1.0], 100)
        report = certify_trace("smooth-value-scaled", trace)
        (end,) = report.end_checks
        # 2 beta D^2/(T+1) with beta = 4, D^2 = 5
        assert end.rhs == pytest.approx(2.0 * 4.0 * 5.0 / 101.0)

    def test_agm_envelope_frozen(self):
        p1 = get_problem("p1")
        trace = run_agm2(p1, [1.0], 20)
        assert _envelope_column("agm-smooth", trace, 11)[10] == pytest.approx(2.0 / 110.0)


# one run per potential kind, with a theorem certified on that kind
ONE_RUN_PER_KIND = {
    "gd-regret": dict(problem="p1", method="gd"),
    "sc-regret": dict(problem="p1", method="sc-gd"),
    "smooth-value-log": dict(problem="p2", method="smooth-gd"),
    "smooth-value-scaled": dict(problem="p2", method="smooth-gd"),
    "smooth-value-distance": dict(problem="p2", method="smooth-gd"),
    "well-conditioned": dict(problem="p3", method="wellcond-gd"),
    "mirror-regret": dict(problem="experts-alt", method="mirror-negentropy",
                          feasible_set="simplex"),
    "agm-smooth": dict(problem="p3", method="agm2"),
    "agm-mirror": dict(problem="lse3", method="agm2-negentropy",
                       feasible_set="simplex", x0=[0.6, 0.3, 0.1]),
    "agm-sc": dict(problem="p3", method="sc-agm"),
    "failed-potential": dict(problem="p3", method="smooth-gd"),
}


def test_one_run_per_kind_covers_every_kind():
    assert {THEOREMS[tid].kind for tid in ONE_RUN_PER_KIND} == set(PotentialKind)


@pytest.mark.parametrize("theorem_id", sorted(ONE_RUN_PER_KIND))
def test_potential_evaluated_once_per_point(theorem_id, monkeypatch):
    """One evaluation covers t = 0..T, each t exactly once."""
    T = 12
    cfg = RunConfig(steps=T, **ONE_RUN_PER_KIND[theorem_id])
    trace = run_experiment(cfg).trace
    problem = get_problem(cfg.problem) if cfg.problem in PROBLEMS else None
    calls = []
    evaluate = gdcert.certify._bracket

    def counted(*args):
        calls.append(args[-1])
        return evaluate(*args)

    monkeypatch.setattr(gdcert.certify, "_bracket", counted)
    report = certify_trace(theorem_id, trace, problem=problem)
    assert report.error is None
    assert len(report.step_checks) == T
    assert len(calls) == 1
    assert calls[0].tolist() == list(range(T + 1))


# the theorems that read each constant the certifier estimates from a trace
# that lacks it, and the flag the estimate raises
ESTIMATED = {
    "G": ({"gd-regret", "sc-regret", "sc-average"}, "trajectory-estimated-G"),
    "G_dual": ({"mirror-regret"}, "trajectory-estimated-G"),
    "D": ({"gd-regret", "smooth-value-log", "smooth-value-scaled", "frank-wolfe-log",
           "frank-wolfe"}, "trajectory-estimated-D"),
}


class TestEstimatedConstants:
    def test_sc_theorems_report_the_same_estimated_g(self):
        p2 = get_problem("p2")
        trace = run_strongly_convex_gd(FixedAdversary(p2), Unconstrained(2), [1.0, 1.0],
                                       p2.strong_convexity_alpha, 30)
        trace.constants["f_star"] = p2.value(p2.minimizer_over(Unconstrained(2)))
        reports = [certify_trace(tid, trace, problem=p2)
                   for tid in ("sc-regret", "sc-average")]
        g_max = max(float(np.linalg.norm(g)) for g in trace.grad)
        for report in reports:
            assert report.error is None and report.passed
            assert report.constants["G"] == g_max
            assert "trajectory-estimated-G" in report.flags
        (end,) = reports[1].end_checks
        assert end.rhs == g_max ** 2 / (p2.strong_convexity_alpha * 31.0)

    @pytest.mark.parametrize("theorem_id", sorted(THEOREMS))
    def test_estimates_only_for_their_readers(self, theorem_id):
        p2 = get_problem("p2")
        trace = run_smooth_gd(p2, [1.0, 1.0], 20)
        del trace.constants["D"]  # a trace with no D, G or G_dual
        report = certify_trace(theorem_id, trace, problem=p2)
        norms = [float(np.linalg.norm(g)) for g in trace.grad]
        expected = {"G": max(norms), "G_dual": max(norms),
                    "D": max(float(np.linalg.norm(x - trace.constants["x_star"]))
                             for x in trace.x)}
        for name, (readers, flag) in ESTIMATED.items():
            if theorem_id in readers:
                assert report.constants[name] == expected[name], name
                assert flag in report.flags, name
            else:
                assert name not in report.constants, name
        raised = {flag for readers, flag in ESTIMATED.values() if theorem_id in readers}
        assert set(report.flags) == raised


class TestFailedPotentialSemantics:
    def test_fires_on_badly_conditioned_instance(self):
        trace = run_smooth_gd(get_problem("p3"), [1.0, 1.0], 400)
        report = certify_trace("failed-potential", trace)
        assert report.expected_fail
        assert report.step_failures >= 1
        assert report.passed  # inverted semantics

    def test_does_not_fire_on_fast_instance(self):
        # every coordinate of P1 contracts in one step: the broken potential
        # happens to decrease, so the diagnostic correctly reports no witness
        trace = run_smooth_gd(get_problem("p1"), [1.0], 100)
        report = certify_trace("failed-potential", trace)
        assert report.step_failures == 0
        assert not report.passed

    def test_excluded_from_default_certification(self):
        from gdcert.harness import RunConfig, run_experiment

        res = run_experiment(RunConfig(problem="p2", method="smooth-gd",
                                       steps=10, certify=True))
        assert "failed-potential" not in [r.theorem for r in res.reports]


class TestRateComparison:
    def test_empty(self):
        table = rate_comparison([], [])
        assert table["rows"] == []
        assert table["columns"] == ["t"]

    def test_single_trace_single_column(self):
        trace = run_smooth_gd(get_problem("p2"), [1.0, 1.0], 20)
        table = rate_comparison([trace], [])
        assert table["columns"] == ["t", "gap:smooth-gd"]
        assert len(table["rows"]) == 21

    def test_accelerated_beats_plain_on_p3(self):
        p3 = get_problem("p3")
        agm = run_agm2(p3, [1.0, 1.0], 60)
        plain = run_well_conditioned(p3, [1.0, 1.0], 60)
        table = rate_comparison([agm, plain], ["agm-smooth"])
        row = table["rows"][40]
        gap_agm, gap_plain = row[1], row[2]
        assert gap_agm < gap_plain

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_envelope_columns_read_their_own_runs(self, order):
        """Each envelope column is its theorem's envelope on the run of the
        method it certifies, whatever the trace order: on p3 from x0 = (1, 1),
        f(x0) - f* = 50.5, ||x0 - x*||^2 = 2, beta = 100 and kappa = 100."""
        p3, T = get_problem("p3"), 30
        traces = [run_well_conditioned(p3, [1.0, 1.0], T), run_agm2(p3, [1.0, 1.0], T),
                  run_sc_agm(p3, [1.0, 1.0], T)]
        theorems = ["well-conditioned", "agm-smooth", "agm-sc"]
        closed_forms = [lambda t: np.exp(-t / 100.0) * 50.5,
                        lambda t: 2.0 * 100.0 * 2.0 / (t * (t + 1.0)),
                        # (alpha+beta)/2 ||x0-x*||^2 (1 + 1/(sqrt(kappa)-1))^-t
                        lambda t: 0.5 * (1.0 + 100.0) * 2.0 * (1.0 + 1.0 / 9.0) ** -t]
        table = rate_comparison([traces[i] for i in order], theorems)
        for k, (tid, trace, bound) in enumerate(zip(theorems, traces, closed_forms)):
            column = [row[4 + k] for row in table["rows"]]
            assert column == _envelope_column(tid, trace, T + 1), tid
            assert column[1:] == pytest.approx([bound(t) for t in range(1, T + 1)],
                                               rel=1e-12), tid

    def test_envelope_without_its_column_is_none(self):
        # agm-mirror's envelope reads z0, which an uncoupled run does not record
        trace = run_smooth_gd(get_problem("p2"), [1.0, 1.0], 20)
        table = rate_comparison([trace], ["agm-mirror"])
        assert [row[2] for row in table["rows"]] == [None] * 21

    def test_envelope_missing_a_constant_is_none(self):
        # agm-smooth reads x* when its envelope is built, smooth-value-log
        # reads beta when it is evaluated
        trace = run_smooth_gd(get_problem("p2"), [1.0, 1.0], 20)
        del trace.constants["x_star"], trace.constants["beta"]
        table = rate_comparison([trace], ["agm-smooth", "smooth-value-log"])
        assert [row[2:] for row in table["rows"]] == [[None, None]] * 21

    def test_envelope_built_once_per_theorem(self, monkeypatch):
        p3 = get_problem("p3")
        traces = [run_sc_agm(p3, [1.0, 1.0], 30), run_agm2(p3, [1.0, 1.0], 30)]
        theorems = ["agm-smooth", "agm-sc", "smooth-value-distance"]
        calls = []
        sq_dist = gdcert.certify._sq_dist

        def counted(*args):
            calls.append(args)
            return sq_dist(*args)

        monkeypatch.setattr(gdcert.certify, "_sq_dist", counted)
        table = rate_comparison(traces, theorems)
        assert len(calls) == len(theorems)
        assert all(v is not None for row in table["rows"][1:] for v in row[3:])

    def test_unknown_theorem_rejected(self):
        with pytest.raises(KeyError):
            rate_comparison([], ["who-knows"])


class TestCertifyRun:
    def test_condition_one_special_case(self):
        p1 = get_problem("p1")
        trace = run_sc_agm(p1, [1.0], 30)
        report = certify_trace("agm-sc", trace, problem=p1)
        assert report.passed
        assert report.end_checks[0].label == "single-step-gap"
        assert not report.step_checks  # no potential without a growth rate

    @pytest.mark.filterwarnings("error")
    def test_agm_sc_envelope_reaches_zero_without_overflow(self):
        # p2 has gamma = 1: (1 + gamma)^t overflows from t = 1025 on, where
        # the envelope's true value is below every double
        p2 = get_problem("p2")
        trace = run_sc_agm(p2, [1.0, 1.0], 2000)
        c = {"alpha": 1.0, "beta": 4.0, "gamma": 1.0, "x_star": [0.0, 0.0]}
        t = np.arange(1, 2001)
        envelope = gdcert.certify._agm_sc_envelope(trace, c)(t)
        with np.errstate(over="ignore"):
            growth = np.exp(t * np.log1p(1.0))
        finite = np.isfinite(growth)
        # (alpha + beta) / 2 * ||x0 - x*||^2 = 5, divided as before
        assert envelope[finite].tolist() == (5.0 / growth[finite]).tolist()
        assert (~finite).sum() == 976
        assert envelope[~finite].tolist() == [0.0] * 976
        # the end check gives a verdict, and so do the step checks, which
        # read psi_t = Phi_t / (1 + gamma)^t
        report = certify_trace("agm-sc", trace, problem=p2)
        assert {e.label: e.ok for e in report.end_checks}["anytime-gap"]
        assert report.passed


class TestContractingPotentials:
    """well-conditioned and agm-sc: Phi_t = (1 + gamma)^t psi_t, whose factor
    overflows once t > 709.78 / log1p(gamma), after the gap reaches 0."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("problem, method, theorem, T", [
        ("p2", "sc-agm", "agm-sc", 2000),              # overflow from t = 1025
        ("p2", "wellcond-gd", "well-conditioned", 3000),  # from t = 2468
        ("p3", "sc-agm", "agm-sc", 10_000),            # from t = 6737
    ])
    def test_converged_run_passes_past_the_overflow(self, problem, method, theorem, T):
        result = run_experiment(RunConfig(problem=problem, method=method, steps=T,
                                          certify=True, theorems=[theorem]))
        (report,) = result.reports
        assert report.passed and report.step_failures == 0
        assert report.telescoping_ok and report.consistency_ok
        # Phi_t as before wherever (1 + gamma)^t is finite, and past it
        # psi_t's zero (not inf * 0 = nan), since the run has converged
        trace, c = result.trace, report.constants
        t = np.arange(T + 1)
        with np.errstate(over="ignore"):
            growth = np.exp(t * np.log1p(c["gamma"]))
        gap = (trace.f_y if trace.f_y is not None else trace.f) - c["f_star"]
        if trace.z is not None:
            d = trace.z - np.asarray(c["x_star"])
            psi = gap + 0.5 * c["alpha"] * np.vecdot(d, d)
        else:
            psi = gap
        finite = np.isfinite(growth)
        assert not finite.all()
        phi = np.append(report.steps["phi"], np.nan)  # the table stops at T - 1
        assert phi[finite].tolist() == (growth[finite] * psi[finite]).tolist()
        assert not psi[~finite].any() and not phi[~finite][:-1].any()
        assert "potential-overflow" not in report.flags

    @pytest.mark.filterwarnings("error")
    def test_gap_that_stops_contracting_still_fails(self):
        p2 = get_problem("p2")
        trace = run_sc_agm(p2, [1.0, 1.0], 2000)
        f_y = trace.f_y.copy()
        assert f_y[1500] == 0.0 < f_y[500]
        f_y[1500] = f_y[500]  # step 500's gap, long after the overflow at t = 1025
        report = certify_trace("agm-sc", dataclasses.replace(trace, f_y=f_y), problem=p2)
        assert not report.passed
        steps = report.steps
        assert steps["t"][~steps["ok"]].tolist() == [1499]
        # Phi_1500 exceeds every double; the report says its checks read psi
        assert steps["phi"][1500] == np.inf
        assert "potential-overflow" in report.flags


def test_every_theorem_has_a_claim():
    for tid, spec in THEOREMS.items():
        assert spec.claim
        assert spec.theorem_id == tid


# one run per potential kind on p2, p3, lse3 and experts-alt, plus the
# online gd and Euclidean-map runs, whose comparator values and divergences
# take other paths; each gets a start point from the strategy of its set
COLUMNAR_RUNS = {
    "gd-regret": dict(problem="p2", method="gd"),
    "sc-regret": dict(problem="p3", method="sc-gd"),
    "smooth-value-log": dict(problem="lse3", method="smooth-gd"),
    "smooth-value-scaled": dict(problem="p2", method="smooth-gd"),
    "smooth-value-distance": dict(problem="p3", method="smooth-gd"),
    "well-conditioned": dict(problem="p2", method="wellcond-gd"),
    "mirror-regret": dict(problem="experts-alt", method="mirror-negentropy",
                          feasible_set="simplex"),
    "agm-smooth": dict(problem="p3", method="agm2"),
    "agm-mirror": dict(problem="lse3", method="agm2-negentropy",
                       feasible_set="simplex"),
    "agm-sc": dict(problem="p3", method="sc-agm"),
    "failed-potential": dict(problem="p3", method="smooth-gd"),
    "gd-regret/online": dict(problem="experts-alt", method="gd", feasible_set="ball"),
    "mirror-regret/euclidean": dict(problem="experts-alt", method="mirror-euclidean",
                                    feasible_set="ball"),
}


def test_columnar_runs_cover_every_kind():
    assert {THEOREMS[name.split("/")[0]].kind
            for name in COLUMNAR_RUNS} == set(PotentialKind)


def _start(draw, cfg):
    dim = 3 if cfg["problem"] == "lse3" else 2
    if cfg.get("feasible_set") == "simplex":
        w = draw(st.lists(st.floats(0.05, 1.0), min_size=dim, max_size=dim))
        return [v / sum(w) for v in w]
    coord = st.floats(0.1, 2.0).flatmap(lambda v: st.sampled_from([v, -v]))
    x0 = draw(st.lists(coord, min_size=dim, max_size=dim))
    if cfg.get("feasible_set") == "ball":  # inside the unit ball
        return [v / (2.0 * np.linalg.norm(x0)) for v in x0]
    return x0


def _bits(value):
    """Floats by their bit pattern, so that nan equals nan and 0.0 differs
    from -0.0; everything else as it is."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    return value


@pytest.mark.parametrize("name", sorted(COLUMNAR_RUNS))
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_columns_match_scalar_replay(name, data):
    """Every step check, the telescoping residual and every end check of the
    columnar certifier equal, bit for bit, a point-by-point replay."""
    cfg = COLUMNAR_RUNS[name]
    theorem_id = name.split("/")[0]
    config = RunConfig(steps=30, x0=_start(data.draw, cfg), certify=True,
                       theorems=[theorem_id], **cfg)
    result = run_experiment(config)
    (report,) = result.reports
    assert report.error is None
    problem = get_problem(cfg["problem"]) if cfg["problem"] in PROBLEMS else None
    ref = replay_certificate(theorem_id, report.potential_kind, result.trace,
                             problem=problem, tol=report.tol)
    steps = [(c.t, c.phi, c.dphi, c.allowed, c.ok, c.slack, c.amortized)
             for c in report.step_checks]
    assert _bits(steps) == _bits(ref["steps"])
    assert _bits(report.telescoping_residual) == _bits(ref["telescoping_residual"])
    ends = [(e.label, e.lhs, e.rhs, e.ok, e.note) for e in report.end_checks]
    assert _bits(ends) == _bits(ref["end_checks"])


# the constants every potential may read, drawn over several decades
POSITIVE = st.floats(1e-3, 1e3)


@st.composite
def potential_cases(draw):
    """One point at one t for any kind: whether the coordinates are positive
    (the entropy map's domain, used by the Bregman kinds), x*, the point, the
    value at it, the constants and t. At the reference, the point is x* and
    the value f*, so psi_t is 0."""
    dim = draw(st.integers(1, 3))
    entropy = draw(st.booleans())
    coord = st.floats(0.01, 10.0) if entropy else st.floats(-10.0, 10.0)
    x_star = draw(st.lists(coord, min_size=dim, max_size=dim))
    at_reference = draw(st.booleans())
    point = x_star if at_reference else draw(st.lists(coord, min_size=dim, max_size=dim))
    f_star = draw(st.floats(-10.0, 10.0))
    value = f_star if at_reference else draw(st.floats(-10.0, 10.0))
    constants = {"f_star": f_star, "eta": draw(POSITIVE), "alpha": draw(POSITIVE),
                 "beta": draw(POSITIVE), "alpha_h": draw(POSITIVE),
                 "gamma": draw(st.floats(1e-3, 10.0))}
    t = draw(st.one_of(st.integers(0, 100), st.integers(0, 10 ** 6)))
    return entropy, x_star, point, value, constants, t


@pytest.mark.parametrize("kind", list(PotentialKind))
@settings(max_examples=80, deadline=None)
@given(case=potential_cases())
# (1 + gamma)^t overflows at a zero gap: Phi_t is 0, with no warning
@example(case=(False, [1.0], [1.0], 0.0, {"f_star": 0.0, "eta": 1.0, "alpha": 1.0,
                                          "beta": 1.0, "alpha_h": 1.0, "gamma": 1.0}, 1025))
def test_potential_matches_scalar_phi(kind, case):
    """``potential`` at one point equals the oracle's Phi_t bit for bit, the
    distance computed by the oracle, at t past the overflow of
    (1 + gamma)^t too, where Phi_t is +-inf or psi_t's zero; ``potential``
    raises no floating-point warning on the way."""
    entropy, x_star, point, value, constants, t = case
    entropy = entropy and kind.value in oracles.DIVERGENCE
    map_id = "negentropy" if entropy else "euclidean"
    x_star, point = np.array(x_star), np.array(point)
    c = {**constants, "x_star": x_star, "map": get_map(map_id)}

    gap = None if kind.value in oracles.AMORTIZED else value - c["f_star"]
    dist = None
    if kind.value in oracles.SQUARED_DISTANCE:
        dist = oracles._sq(point - x_star)
    elif kind.value in oracles.DIVERGENCE:
        dist = oracles._divergence(map_id, x_star, point)
    got = potential(kind, c, view(point, f=value, z=point, f_y=value), t)
    # the oracle takes (1 + gamma)^t past its overflow and meets inf * 0
    # where psi_t is 0 before it keeps the zero
    with np.errstate(over="ignore", invalid="ignore"):
        expected = oracles._phi(kind.value, c, t, gap, dist)
    assert _bits(float(got)) == _bits(float(expected))


def test_oracles_import_nothing_from_gdcert():
    """The reference implementations share no code with what they check:
    ``tests/oracles.py`` imports no gdcert module, at its top or inside a
    function."""
    tree = ast.parse(pathlib.Path(oracles.__file__).read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert modules and not [m for m in modules if m.split(".")[0] == "gdcert"]


def test_caller_tol_kept_past_1e5_steps():
    """The caller's tol holds at every horizon: a p2 smooth-gd trace of
    100,001 steps is certified at the default 1e-9, and passes."""
    result = run_experiment(RunConfig(problem="p2", method="smooth-gd", steps=100_001))
    p2 = get_problem("p2")
    for theorem_id in ("smooth-value-log", "smooth-value-scaled", "smooth-value-distance"):
        report = certify_trace(theorem_id, result.trace, problem=p2)
        assert report.tol == DEFAULT_TOL == 1e-9
        assert report.passed, theorem_id
