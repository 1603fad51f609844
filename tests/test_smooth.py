import numpy as np
import pytest

from gdcert.certify import certify_trace
from gdcert.core import Ball, Box, Norm, Simplex, Unconstrained, dual_norm
from gdcert.problems import get_problem
from gdcert.smooth import (
    FW_STEP_SIZES,
    frank_wolfe_step,
    general_norm_smooth_step,
    projected_smooth_step,
    run_frank_wolfe,
    run_smooth_gd,
    run_well_conditioned,
    smooth_gd_step,
)
from oracles import (
    descent_lemma_gap,
    grid_refine_box,
    projected_smoothness_gap,
    sample_member,
)


@pytest.fixture(scope="module")
def p2():
    return get_problem("p2")


class TestSmoothStep:
    def test_condition_one_single_step(self):
        p1 = get_problem("p1")
        out = smooth_gd_step([1.0], p1.gradient([1.0]), p1.smoothness_beta)
        assert out[0] == pytest.approx(0.0)

    def test_p2_step(self, p2):
        out = smooth_gd_step([1.0, 1.0], p2.gradient([1.0, 1.0]), 4.0)
        np.testing.assert_allclose(out, [0.75, 0.0])

    def test_zero_gradient_fixed_point(self):
        np.testing.assert_allclose(smooth_gd_step([2.0, 3.0], [0.0, 0.0], 2.0),
                                   [2.0, 3.0])

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            smooth_gd_step([1.0], [1.0], 0.0)


class TestDescentLemma:
    def test_exact_for_matching_curvature(self):
        assert descent_lemma_gap(get_problem("p1"), [1.0], 1.0) == pytest.approx(0.0)

    def test_p2_worked_case(self, p2):
        # f(0.75, 0) = 0.28125 vs bound 2.5 - 17/8 = 0.375
        assert descent_lemma_gap(p2, [1.0, 1.0], 4.0) == pytest.approx(-0.09375)

    def test_zero_at_minimizer(self, p2):
        assert descent_lemma_gap(p2, [0.0, 0.0], 4.0) == pytest.approx(0.0)

    def test_nonpositive_at_random_points(self, p2):
        rng = np.random.default_rng(31)
        lse = get_problem("lse3")
        for _ in range(500):
            assert descent_lemma_gap(p2, rng.normal(size=2), 4.0) <= 1e-9
            assert descent_lemma_gap(lse, rng.normal(size=3), 1.0) <= 1e-9


class TestProjectedSmoothStep:
    def test_unconstrained_matches_plain(self, p2):
        x = np.array([1.0, 1.0])
        g = p2.gradient(x)
        np.testing.assert_array_equal(
            projected_smooth_step(Unconstrained(2), x, g, 4.0),
            smooth_gd_step(x, g, 4.0))

    def test_exit_is_projected_back(self, p2):
        ball = Ball(np.array([2.0, 2.0]), 1.0)
        x = np.array([2.0, 2.0])
        out = projected_smooth_step(ball, x, p2.gradient(x), 4.0)
        assert ball.member(out)
        assert np.linalg.norm(out - ball.center) == pytest.approx(1.0)

    def test_constrained_optimum_is_fixed_point(self, p2):
        xs = p2.minimizer_over(Simplex(2))  # (0.8, 0.2)
        out = projected_smooth_step(Simplex(2), xs, p2.gradient(xs), 4.0)
        np.testing.assert_allclose(out, xs, atol=1e-10)


class TestProjectedSmoothnessGap:
    def test_zero_at_optimum_with_itself(self, p2):
        xs = p2.minimizer_over(Simplex(2))
        assert projected_smoothness_gap(Simplex(2), p2, xs, xs, 4.0) == \
            pytest.approx(0.0, abs=1e-12)

    def test_property_over_ball(self, p2):
        rng = np.random.default_rng(37)
        ball = Ball(np.zeros(2), 1.0)
        x_star = p2.minimizer_over(ball)
        for _ in range(1000):
            x = sample_member(rng, ball, 2)
            assert projected_smoothness_gap(ball, p2, x, x_star, 4.0) <= 1e-9

    def test_unconstrained_reduces_to_descent_lemma(self, p2):
        x = np.array([0.7, -0.4])
        gap = projected_smoothness_gap(Unconstrained(2), p2, x, x, 4.0)
        assert gap == pytest.approx(descent_lemma_gap(p2, x, 4.0))


class TestFrankWolfe:
    def test_full_step_returns_vertex(self):
        s = Simplex(2)
        out = frank_wolfe_step(s, [1.0, 0.0], [1.0, 0.0], 1.0)
        np.testing.assert_array_equal(out, [0.0, 1.0])

    def test_half_step_midpoint(self):
        out = frank_wolfe_step(Simplex(2), [1.0, 0.0], [1.0, 0.0], 0.5)
        np.testing.assert_allclose(out, [0.5, 0.5])

    def test_zero_step_keeps_point(self):
        out = frank_wolfe_step(Simplex(2), [0.25, 0.75], [1.0, 0.0], 0.0)
        np.testing.assert_allclose(out, [0.25, 0.75])

    def test_rejects_step_above_one(self):
        with pytest.raises(ValueError):
            frank_wolfe_step(Simplex(2), [1.0, 0.0], [1.0, 0.0], 1.5)

    def test_schedules_stay_feasible(self):
        assert FW_STEP_SIZES["fw-1t"](0) == 1.0
        assert FW_STEP_SIZES["fw-2t"](0) == 1.0
        for t in range(1000):
            assert 0.0 < FW_STEP_SIZES["fw-1t"](t) <= 1.0
            assert 0.0 < FW_STEP_SIZES["fw-2t"](t) <= 1.0

    @pytest.mark.parametrize("set_id", ["simplex", "box"])
    def test_runs_feasible_without_projection(self, p2, set_id):
        feasible = Simplex(2) if set_id == "simplex" else Box(-np.ones(2), np.ones(2))
        x0 = [0.5, 0.5] if set_id == "simplex" else [1.0, 1.0]
        trace = run_frank_wolfe(p2, feasible, x0, 300)
        for x in trace.x:
            assert feasible.member(x)

    def test_bound_certified_on_simplex(self, p2):
        trace = run_frank_wolfe(p2, Simplex(2), [0.5, 0.5], 300, schedule="fw-2t")
        report = certify_trace("frank-wolfe", trace)
        assert report.passed
        (end,) = report.end_checks
        assert end.rhs == pytest.approx(2.0 * 4.0 * 2.0 / 301.0)

    def test_log_schedule_certified(self, p2):
        trace = run_frank_wolfe(p2, Simplex(2), [0.5, 0.5], 300, schedule="fw-1t")
        report = certify_trace("frank-wolfe-log", trace)
        assert report.passed

    def test_unbounded_set_rejected(self, p2):
        with pytest.raises(ValueError):
            run_frank_wolfe(p2, Unconstrained(2), [0.0, 0.0], 10)

    def test_lmo_dispatch(self):
        np.testing.assert_array_equal(Simplex(3).lmo([3.0, 1.0, 2.0]), [0.0, 1.0, 0.0])
        with pytest.raises(ValueError):
            Unconstrained(2).lmo([1.0, 0.0])


class TestSmoothRuns:
    def test_monotone_descent(self, p2):
        trace = run_smooth_gd(p2, [1.0, 1.0], 200)
        f = trace.f
        assert np.all(np.diff(f) <= 1e-10 * (1.0 + np.abs(f[:-1])))

    def test_three_potential_arguments_certify(self, p2):
        trace = run_smooth_gd(p2, [1.0, 1.0], 400)
        for tid in ("smooth-value-log", "smooth-value-scaled", "smooth-value-distance"):
            report = certify_trace(tid, trace)
            assert report.passed, tid
            assert report.step_failures == 0

    def test_take3_potential_strictly_monotone(self, p2):
        trace = run_smooth_gd(p2, [1.0, 1.0], 200)
        report = certify_trace("smooth-value-distance", trace)
        for chk in report.step_checks:
            assert chk.dphi <= chk.slack

    def test_projected_run_certifies(self, p2):
        trace = run_smooth_gd(p2, [0.5, 0.5], 300, feasible=Simplex(2))
        report = certify_trace("smooth-projected", trace)
        assert report.passed
        labels = [e.label for e in report.end_checks]
        assert "projected-smoothness-gap" in labels

    @pytest.mark.parametrize("feasible", [Ball(np.zeros(2), 1.0), Simplex(2)],
                             ids=["ball", "simplex"])
    def test_projected_gap_matches_fresh_oracle_calls(self, p2, feasible):
        """The end check reads the recorded steps; the oracle re-runs each
        step from its point. The largest gap is the same double."""
        trace = run_smooth_gd(p2, [2.0, -1.0], 300, feasible=feasible)
        report = certify_trace("smooth-projected", trace)
        check = next(e for e in report.end_checks
                     if e.label == "projected-smoothness-gap")
        worst = max(projected_smoothness_gap(feasible, p2, x, trace.constants["x_star"],
                                             trace.constants["beta"])
                    for x in trace.x[:-1])
        assert check.lhs == worst

    def test_reference_diameter_uses_sublevel_radius(self, p2):
        trace = run_smooth_gd(p2, [1.0, 1.0], 10)
        assert trace.constants["D"] == pytest.approx(np.sqrt(5.0))
        assert "trajectory-estimated-D" not in trace.flags

    def test_lse_run_flags_estimated_constants(self):
        # no closed-form sublevel diameter: the run records no D, and the
        # certificate that reads D estimates it from the trajectory
        lse = get_problem("lse3")
        trace = run_smooth_gd(lse, np.ones(3), 50)
        assert "comparator-reference" in trace.flags
        assert "D" not in trace.constants
        report = certify_trace("smooth-value-log", trace)
        assert report.constants["D"] == max(
            float(np.linalg.norm(x - trace.constants["x_star"])) for x in trace.x)
        assert "comparator-reference" in report.flags
        assert "trajectory-estimated-D" in report.flags


class TestWellConditioned:
    def test_condition_one_stops_after_one_step(self):
        trace = run_well_conditioned(get_problem("p1"), [1.0], 50)
        assert trace.T == 1
        assert trace.final_x[0] == pytest.approx(0.0)
        assert "single-step-optimal" in trace.flags

    def test_p2_bound_at_t8(self, p2):
        trace = run_well_conditioned(p2, [1.0, 1.0], 8)
        gap = trace.final("f") - 0.0
        assert gap <= np.exp(-2.0) * 2.5
        report = certify_trace("well-conditioned", trace)
        assert report.constants["gamma"] == pytest.approx(1.0 / 3.0)

    def test_potential_nonincreasing(self, p2):
        trace = run_well_conditioned(p2, [1.0, 1.0], 100)
        report = certify_trace("well-conditioned", trace)
        assert report.passed
        assert report.step_failures == 0

    def test_distance_corollary(self):
        p3 = get_problem("p3")
        trace = run_well_conditioned(p3, [1.0, 1.0], 150)
        report = certify_trace("well-conditioned-distance", trace)
        (end,) = report.end_checks
        assert end.ok
        assert end.rhs == pytest.approx(100.0 * np.exp(-1.5) * 2.0)


class TestGeneralNormStep:
    def test_euclidean_matches_smooth_step(self, p2):
        x = np.array([1.0, 1.0])
        g = p2.gradient(x)
        np.testing.assert_array_equal(
            general_norm_smooth_step(Norm.EUCLIDEAN, x, g, 4.0),
            smooth_gd_step(x, g, 4.0))

    def test_l1_moves_single_coordinate(self):
        # largest-magnitude coordinate moves by eta ||g||_inf against its sign
        out = general_norm_smooth_step(Norm.L1, [0.0, 0.0], [1.0, -4.0], 1.0)
        np.testing.assert_allclose(out, [0.0, 4.0])

    def test_l1_tie_breaks_to_lowest_index(self):
        out = general_norm_smooth_step(Norm.L1, [0.0, 0.0], [2.0, -2.0], 1.0)
        np.testing.assert_allclose(out, [-2.0, 0.0])

    def test_zero_gradient_fixed_point(self):
        for kind in (Norm.EUCLIDEAN, Norm.L1, Norm.LINF):
            np.testing.assert_allclose(
                general_norm_smooth_step(kind, [1.0, 2.0], [0.0, 0.0], 3.0),
                [1.0, 2.0])

    @pytest.mark.parametrize("kind", [Norm.L1, Norm.LINF, Norm.EUCLIDEAN])
    def test_attains_dual_norm_objective(self, kind):
        # the step's objective value must equal -(1/2) ||eta g||_*^2,
        # cross-checked against a two-dimensional grid search
        rng = np.random.default_rng(41)
        for _ in range(20):
            x = rng.normal(size=2)
            g = rng.normal(size=2)
            beta = float(rng.uniform(0.5, 3.0))
            eta = 1.0 / beta
            out = general_norm_smooth_step(kind, x, g, beta)
            d = out - x

            def objective(disp):
                if kind is Norm.EUCLIDEAN:
                    n = np.sqrt(np.sum(disp ** 2, axis=0))
                elif kind is Norm.L1:
                    n = np.sum(np.abs(disp), axis=0)
                else:
                    n = np.max(np.abs(disp), axis=0)
                return 0.5 * n ** 2 + eta * np.tensordot(g, disp, axes=(0, 0))

            val = float(objective(d.reshape(2, 1))[0])
            expected = -0.5 * (eta * dual_norm(kind, g)) ** 2
            assert val == pytest.approx(expected, abs=1e-12)
            span = 4.0 * (abs(eta) * np.linalg.norm(g) + 1.0)
            best = grid_refine_box(objective, -span * np.ones(2), span * np.ones(2))
            assert val <= float(objective(best.reshape(2, 1))[0]) + 1e-9

    def test_smooth_decrease_in_dual_norm(self):
        # one l1-norm step on the entropy-smooth objective decreases it by
        # at least ||g||_inf^2 / (2 beta)
        lse = get_problem("lse3")
        rng = np.random.default_rng(43)
        for _ in range(100):
            x = rng.normal(size=3)
            g = lse.gradient(x)
            out = general_norm_smooth_step(Norm.L1, x, g, 1.0)
            drop = lse.value(x) - lse.value(out)
            assert drop >= 0.5 * dual_norm(Norm.L1, g) ** 2 - 1e-9
