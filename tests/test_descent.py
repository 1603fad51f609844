import numpy as np
import pytest

from gdcert.certify import certify_trace
from gdcert.core import Ball, Simplex, Unconstrained
from gdcert.descent import (
    AnytimeScaled,
    HorizonScaled,
    InverseStrongConvexity,
    gd_step,
    projected_gd_step,
    run_online_gd,
    run_strongly_convex_gd,
    weighted_average,
)
from gdcert.problems import (
    FixedAdversary,
    get_problem,
    make_experts_adversary,
)
from gdcert.trace import Trace
from oracles import Constant


class TestSteps:
    def test_zero_gradient_fixes_point(self):
        np.testing.assert_allclose(gd_step([1.0, 1.0], [0.0, 0.0], 0.1), [1.0, 1.0])

    def test_plain_step(self):
        np.testing.assert_allclose(gd_step([1.0, 1.0], [2.0, 0.0], 0.1), [0.8, 1.0])

    def test_exact_step_on_identity_quadratic(self):
        # P1 at x = 1 with eta = 1 lands on the minimizer
        assert gd_step([1.0], [1.0], 1.0)[0] == pytest.approx(0.0)

    def test_rejects_nonpositive_eta(self):
        with pytest.raises(ValueError):
            gd_step([1.0], [1.0], 0.0)

    def test_projected_unconstrained_matches_plain(self):
        x, g = np.array([0.3, -0.2]), np.array([1.0, 2.0])
        np.testing.assert_array_equal(
            projected_gd_step(Unconstrained(2), x, g, 0.05), gd_step(x, g, 0.05))

    def test_projected_onto_ball(self):
        out = projected_gd_step(Ball(np.zeros(2), 1.0), [1.0, 0.0], [-2.0, 0.0], 1.0)
        np.testing.assert_allclose(out, [1.0, 0.0])

    def test_projected_onto_simplex(self):
        out = projected_gd_step(Simplex(2), [0.5, 0.5], [1.0, 0.0], 0.2)
        np.testing.assert_allclose(out, [0.4, 0.6])


class TestSchedules:
    def test_values(self):
        assert HorizonScaled(1.0, 1.0, 100).eta(7) == pytest.approx(0.1)
        assert AnytimeScaled(2.0, 1.0).eta(0) == pytest.approx(2.0)
        assert InverseStrongConvexity(2.0).eta(0) == pytest.approx(0.5)
        assert InverseStrongConvexity(1.0, shift=0).eta(0) == pytest.approx(1.0)
        assert InverseStrongConvexity(1.0, shift=0).eta(3) == pytest.approx(1.0 / 3.0)

    def test_always_positive(self):
        for sched in (HorizonScaled(1.0, 2.0, 10), AnytimeScaled(1.0, 2.0),
                      InverseStrongConvexity(0.5)):
            assert all(sched.eta(t) > 0 for t in range(100))


class TestOnlineGd:
    def test_zero_losses_keep_start(self):
        adv = make_experts_adversary([[0.0, 0.0]])
        trace = run_online_gd(adv, Simplex(2), [0.5, 0.5], Constant(0.1), 20)
        for x in trace.x:
            np.testing.assert_allclose(x, [0.5, 0.5])
        assert float(np.sum(trace.f - trace.f_ref)) == pytest.approx(0.0)

    def test_p1_geometric_decay(self):
        # constant eta = 0.1 on f(x) = x^2/2 contracts by 0.9 per step
        adv = FixedAdversary(get_problem("p1"))
        trace = run_online_gd(adv, Unconstrained(1), [1.0], Constant(0.1), 50)
        for t, x in enumerate(trace.x):
            assert x[0] == pytest.approx(0.9 ** t, rel=1e-12)
        envelope = sum(0.5 * 0.9 ** (2 * t) for t in range(50))
        assert float(np.sum(trace.f - trace.f_ref)) <= envelope + 1e-12

    def test_regret_bound_value(self):
        # D = G = 1, T = 100: the certified bound evaluates to DG/sqrt(T) = 0.1
        adv = FixedAdversary(get_problem("p1"))
        trace = run_online_gd(adv, Unconstrained(1), [1.0],
                              HorizonScaled(1.0, 1.0, 100), 100)
        trace.constants.update({"D": 1.0, "G": 1.0,
                                "f_star": 0.0})
        report = certify_trace("gd-regret", trace)
        (end,) = report.end_checks
        assert end.rhs == pytest.approx(0.1)
        assert report.passed

    def test_amortized_per_step_bound(self):
        adv = FixedAdversary(get_problem("p1"))
        trace = run_online_gd(adv, Unconstrained(1), [1.0],
                              HorizonScaled(1.0, 1.0, 200), 200)
        trace.constants.update({"D": 1.0, "G": 1.0, "f_star": 0.0})
        report = certify_trace("gd-regret", trace)
        assert report.step_failures == 0
        bound = 0.5 * trace.eta[0]  # eta G^2 / 2 with G = 1
        for chk in report.step_checks:
            assert chk.amortized <= bound + chk.slack

    def test_projection_never_hurts_distance(self):
        adv = make_experts_adversary(np.eye(2))
        ball = Ball(np.zeros(2), 1.0)
        trace = run_online_gd(adv, ball, [0.5, 0.5], Constant(0.3), 60)
        x_star = trace.constants["x_star"]
        xs = trace.x
        for t in range(trace.T):
            pre_projection = xs[t] - trace.eta[t] * trace.grad[t]
            after = np.sum((xs[t + 1] - x_star) ** 2)
            before = np.sum((pre_projection - x_star) ** 2)
            assert after <= before + 1e-12

    def test_needs_at_least_one_round(self):
        adv = FixedAdversary(get_problem("p1"))
        with pytest.raises(ValueError):
            run_online_gd(adv, Unconstrained(1), [1.0], Constant(0.1), 0)


class TestStronglyConvexGd:
    def test_first_step_reaches_minimizer(self):
        # alpha = 1: eta_0 = 1, so x_1 = 1 - 1 * 1 = 0 on P1
        adv = FixedAdversary(get_problem("p1"))
        trace = run_strongly_convex_gd(adv, Unconstrained(1), [1.0], 1.0, 10)
        np.testing.assert_allclose(trace.x[1], [0.0], atol=1e-15)

    def test_regret_bound_value(self):
        adv = FixedAdversary(get_problem("p1"))
        T = 100
        trace = run_strongly_convex_gd(adv, Unconstrained(1), [1.0], 1.0, T)
        trace.constants.update({"G": 1.0, "f_star": 0.0})
        report = certify_trace("sc-regret", trace)
        (end,) = report.end_checks
        assert end.rhs == pytest.approx(np.log(100.0) / 200.0)
        assert report.passed

    def test_per_step_allowance_tracks_schedule(self):
        adv = FixedAdversary(get_problem("p1"))
        trace = run_strongly_convex_gd(adv, Unconstrained(1), [1.0], 1.0, 50)
        trace.constants.update({"G": 1.0, "f_star": 0.0})
        report = certify_trace("sc-regret", trace)
        assert report.step_failures == 0
        for t, chk in enumerate(report.step_checks):
            assert chk.allowed == pytest.approx(0.5 / (t + 1.0))

    def test_flags_non_strongly_convex_rounds(self):
        adv = make_experts_adversary(np.eye(2))  # linear rounds: alpha = 0
        trace = run_strongly_convex_gd(adv, Simplex(2), [0.5, 0.5], 1.0, 5)
        assert "not-strongly-convex" in trace.flags

    def test_shifted_schedule_exposed(self):
        adv = FixedAdversary(get_problem("p1"))
        trace = run_strongly_convex_gd(adv, Unconstrained(1), [1.0], 1.0, 5, shift=0)
        assert trace.constants["schedule_shift"] == 0
        assert trace.eta[1] == pytest.approx(1.0)


class TestWeightedAverage:
    def test_single_iterate(self):
        adv = FixedAdversary(get_problem("p1"))
        trace = run_online_gd(adv, Unconstrained(1), [1.0], Constant(0.5), 1)
        np.testing.assert_allclose(weighted_average(trace), trace.x[1])

    def test_two_iterate_weights(self):
        # lambda = (1/3, 2/3)
        adv = FixedAdversary(get_problem("p1"))
        trace = run_online_gd(adv, Unconstrained(1), [1.0], Constant(0.25), 2)
        xs = trace.x
        expected = xs[1] / 3.0 + 2.0 * xs[2] / 3.0
        np.testing.assert_allclose(weighted_average(trace), expected)

    @pytest.mark.parametrize("T", [1, 2, 7, 100, 1000])
    def test_weights_sum_to_one(self, T):
        weights = np.array([2.0 * t / (T * (T + 1.0)) for t in range(1, T + 1)])
        assert np.all(weights >= 0)
        assert abs(weights.sum() - 1.0) <= 1e-14

    def test_offline_convergence_bound(self):
        adv = FixedAdversary(get_problem("p1"))
        T = 100
        trace = run_strongly_convex_gd(adv, Unconstrained(1), [1.0], 1.0, T)
        xbar = weighted_average(trace)
        gap = get_problem("p1").value(xbar)
        assert gap <= 1.0 / (1.0 * (T + 1.0))

    def test_rejects_empty_horizon(self):
        trace = Trace(x=np.array([[1.0]]), f=np.array([0.5]), grad=np.zeros((0, 1)),
                      eta=np.zeros(0))
        with pytest.raises(ValueError):
            weighted_average(trace)
