import numpy as np
import pytest

from gdcert.accel import (
    AccelState,
    AgmSchedule,
    _l1_prox_on_simplex,
    agm1_step,
    agm1_to_agm2_state,
    agm2_step,
    constrained_agm_step,
    general_norm_agm_step,
    lambda_schedule,
    restart_accelerated,
    run_agm1,
    run_agm2,
    run_general_norm_agm,
    run_sc_agm,
    sc_agm_recursion_residual,
    sc_agm_step,
    sc_agm_z,
)
from gdcert.certify import certify_trace
from gdcert.core import Ball, Simplex, Unconstrained
from gdcert.mirror import EuclideanMap, NegEntropyMap
from gdcert.problems import LogSumExp, get_problem, make_diag_quadratic
from oracles import grid_refine_simplex, l1_prox_is_optimal


@pytest.fixture(scope="module")
def p1():
    return get_problem("p1")


@pytest.fixture(scope="module")
def p2():
    return get_problem("p2")


class TestLambdaSchedule:
    def test_first_values(self):
        lam = lambda_schedule(3)
        assert float(lam[0]) == 0.0
        assert float(lam[1]) == pytest.approx(1.0)
        assert float(lam[2]) == pytest.approx((1.0 + np.sqrt(5.0)) / 2.0)
        assert float(lam[3]) == pytest.approx(2.193527085331054)

    def test_defining_identity_to_1e12(self):
        lam = lambda_schedule(1000)
        res = np.abs(lam[1:] ** 2 - lam[:-1] ** 2 - lam[1:])
        assert float(res.max()) <= 1e-12

    def test_monotone_growth(self):
        lam = lambda_schedule(50)
        assert np.all(np.diff(lam.astype(float)) > 0)


class TestAgm2Step:
    def test_worked_first_step(self, p1):
        # grad = 1: y1 = 0, z1 = 1 - 0.5 = 0.5, tau1 = 2/3, x1 = 1/3
        s0 = AccelState.start([1.0])
        state = agm2_step(s0, p1.gradient(s0.x), 1.0, AgmSchedule("agm-smooth"), 0.5)
        assert state.y[0] == pytest.approx(0.0)
        assert state.z[0] == pytest.approx(0.5)
        assert state.x[0] == pytest.approx(1.0 / 3.0)
        assert state.t == 1

    def test_zero_gradient_keeps_y_and_z(self):
        p = make_diag_quadratic([1.0, 4.0], [0.5, 0.5])
        s0 = AccelState(x=np.array([0.5, 0.5]), y=np.array([0.1, 0.1]),
                        z=np.array([0.9, 0.9]), t=3)
        sched = AgmSchedule("agm-smooth")
        s1 = agm2_step(s0, p.gradient(s0.x), 4.0, sched, sched.eta(3, 4.0))
        np.testing.assert_allclose(s1.y, s0.x)
        np.testing.assert_allclose(s1.z, s0.z)

    def test_weight_recurrence_first_step(self, p1):
        # lambda_0 = 0 so eta_0 = 0: z does not move and x1 = z1 = x0
        sched = AgmSchedule("agm-lambda", T=5)
        s0 = AccelState.start([1.0])
        state = agm2_step(s0, p1.gradient(s0.x), 1.0, sched, sched.eta(0, 1.0))
        assert state.y[0] == pytest.approx(0.0)
        assert state.z[0] == pytest.approx(1.0)
        assert state.x[0] == pytest.approx(1.0)

    def test_unknown_schedule_rejected(self):
        with pytest.raises(KeyError):
            AgmSchedule("agm-warp")

    @pytest.mark.parametrize("beta", [1.0, 3.0, 0.1, 1e-300])
    def test_schedules_round_as_their_formulas(self, beta):
        """Each kind's step sizes and mixing weights, bound once, are the
        docstring's formulas bit for bit."""
        lam = lambda_schedule(41)
        formulas = {
            "agm-smooth": (lambda t: (t + 1.0) / (2.0 * beta), lambda t: 2.0 / (t + 3.0)),
            "agm-smooth-full": (lambda t: (t + 1.0) / beta, lambda t: 2.0 / (t + 3.0)),
            "agm-lambda": (lambda t: float(lam[t]) / beta, lambda t: 1.0 / float(lam[t + 1])),
        }
        for kind, (eta, tau) in formulas.items():
            sched = AgmSchedule(kind, T=40)
            step_sizes = sched.step_sizes(beta)
            for t in range(40):
                assert step_sizes(t) == sched.eta(t, beta) == eta(t), (kind, t)
                assert sched.tau_next(t) == tau(t), (kind, t)

    @pytest.mark.parametrize("schedule", AgmSchedule.KINDS)
    def test_step_with_recorded_eta_is_bit_identical(self, schedule):
        """The run records the schedule's eta_t, the step size the step once
        computed itself; each recorded state is the step from the one before
        with that eta, bit for bit."""
        problem = get_problem("lse3")
        beta = problem.smoothness_beta
        trace = run_agm2(problem, [1.0, 0.5, -1.0], 40, schedule=schedule)
        sched = AgmSchedule(schedule, T=trace.T)
        assert trace.eta.tolist() == [sched.eta(t, beta) for t in range(trace.T)]
        for k in range(trace.T):
            state = AccelState(x=trace.x[k], y=trace.y[k], z=trace.z[k], t=k)
            nxt = agm2_step(state, trace.grad[k], beta, sched, sched.eta(k, beta))
            for name in ("x", "y", "z"):
                assert getattr(nxt, name).tobytes() == getattr(trace, name)[k + 1].tobytes()


class TestAgm1:
    def test_worked_first_step(self, p1):
        lam = lambda_schedule(2)
        x1, y1 = agm1_step([1.0], p1.gradient([1.0]), [1.0], float(lam[0]),
                           float(lam[1]), 1.0)
        assert y1[0] == pytest.approx(0.0)
        assert x1[0] == pytest.approx(1.0)

    def test_momentum_vanishes_at_lambda_one(self, p2):
        x1, y1 = agm1_step([1.0, 1.0], p2.gradient([1.0, 1.0]), [0.3, 0.3],
                           1.0, 2.0, 4.0)
        np.testing.assert_allclose(x1, y1)

    def test_state_reconstruction(self):
        x = np.array([2.0, -1.0])
        y = np.array([0.5, 0.5])
        np.testing.assert_allclose(agm1_to_agm2_state(x, y, 1.0), x)
        np.testing.assert_allclose(agm1_to_agm2_state(x, y, 0.0), y)

    def test_reconstructed_z_after_first_step(self, p1):
        # x1 = 1, y1 = 0, lambda_1 = 1: z1 = 1, matching the coupled form
        np.testing.assert_allclose(agm1_to_agm2_state([1.0], [0.0], 1.0), [1.0])

    @pytest.mark.parametrize("pid,x0", [("p1", [1.0]), ("p2", [1.0, 1.0]),
                                        ("lse3", [1.0, 1.0, 1.0])])
    def test_equivalent_to_coupled_form(self, pid, x0):
        problem = get_problem(pid)
        T = 50
        a1 = run_agm1(problem, x0, T)
        a2 = run_agm2(problem, x0, T, schedule="agm-lambda")
        assert np.max(np.abs(a1.x - a2.x)) <= 1e-10
        assert np.max(np.abs(a1.y - a2.y)) <= 1e-10
        assert np.max(np.abs(a1.z - a2.z)) <= 1e-10
        assert np.max(np.abs(a1.final_x - a2.final_x)) <= 1e-10


class TestConstrainedAgm:
    def test_unconstrained_set_matches_plain_step(self, p2):
        s0 = AccelState(x=np.array([1.0, 1.0]), y=np.array([0.8, 0.2]),
                        z=np.array([0.3, 0.3]), t=2)
        sched = AgmSchedule("agm-smooth")
        g = p2.gradient(s0.x)
        plain = agm2_step(s0, g, 4.0, sched, sched.eta(2, 4.0))
        proj = constrained_agm_step(Unconstrained(2), s0, g, 4.0,
                                    sched.eta(2, 4.0))
        np.testing.assert_allclose(proj.x, plain.x)
        np.testing.assert_allclose(proj.y, plain.y)
        np.testing.assert_allclose(proj.z, plain.z)

    def test_all_sequences_stay_feasible(self, p2):
        ball = Ball(np.zeros(2), 0.5)
        x0 = np.array([0.5, 0.0])  # on the boundary
        trace = run_agm2(p2, x0, 100, feasible=ball)
        for x, y, z in zip(trace.x, trace.y, trace.z):
            assert ball.member(x) and ball.member(y) and ball.member(z)

    def test_zero_gradient_projects_x(self):
        p = make_diag_quadratic([1.0, 1.0], [0.5, 0.5])
        s0 = AccelState(x=np.array([0.5, 0.5]), y=np.array([0.4, 0.6]),
                        z=np.array([0.3, 0.7]), t=0)
        s1 = constrained_agm_step(Simplex(2), s0, p.gradient(s0.x), 1.0, 0.5)
        np.testing.assert_allclose(s1.y, [0.5, 0.5])

    @pytest.mark.parametrize("set_kind", ["ball", "simplex"])
    def test_constrained_bound_certifies(self, p2, set_kind):
        feasible = Ball(np.zeros(2), 1.0) if set_kind == "ball" else Simplex(2)
        x0 = feasible.project(np.ones(2))
        if set_kind == "simplex":
            x0 = np.array([0.5, 0.5])
        trace = run_agm2(p2, x0, 300, feasible=feasible)
        report = certify_trace("agm-smooth", trace)
        assert report.passed

    def test_alternative_step_scaling_exposed(self, p2):
        trace = run_agm2(p2, [0.5, 0.5], 100, schedule="agm-smooth-full",
                         feasible=Simplex(2))
        report = certify_trace("agm-smooth", trace)
        (end,) = report.end_checks
        assert end.ok  # the end-to-end bound holds for the doubled step too


class TestPotential:
    @pytest.mark.parametrize("pid,x0", [("p2", [1.0, 1.0]), ("p3", [1.0, 1.0]),
                                        ("lse3", [1.0, 1.0, 1.0])])
    def test_monotone_on_unconstrained_runs(self, pid, x0):
        trace = run_agm2(get_problem(pid), x0, 300)
        report = certify_trace("agm-smooth", trace)
        assert report.passed
        assert report.step_failures == 0
        assert report.telescoping_ok


class TestGeneralNormAgm:
    def test_euclidean_reduces_to_plain(self, p2):
        s0 = AccelState.start(np.array([0.5, 0.5]))
        g = p2.gradient(s0.x)
        plain = agm2_step(s0, g, 4.0, AgmSchedule("agm-smooth"), 1.0 / (2.0 * 4.0))
        gen = general_norm_agm_step(EuclideanMap(), Unconstrained(2), s0, g, 4.0,
                                    1.0 / (2.0 * 4.0))
        np.testing.assert_allclose(gen.x, plain.x, atol=1e-14)
        np.testing.assert_allclose(gen.y, plain.y, atol=1e-14)
        np.testing.assert_allclose(gen.z, plain.z, atol=1e-14)

    def test_entropy_run_potential_monotone(self):
        lse = get_problem("lse3")
        trace = run_general_norm_agm(lse, NegEntropyMap(), Simplex(3),
                                     [0.6, 0.3, 0.1], 200)
        report = certify_trace("agm-mirror", trace)
        assert report.passed
        assert report.step_failures == 0

    def test_zero_gradient_keeps_cautious_point(self):
        p = make_diag_quadratic([1.0, 1.0, 1.0], [1 / 3] * 3)
        s0 = AccelState.start(np.array([1 / 3] * 3))
        s1 = general_norm_agm_step(NegEntropyMap(), Simplex(3), s0,
                                   p.gradient(s0.x), 1.0, 0.5)
        np.testing.assert_allclose(s1.y, s0.x, atol=1e-9)
        np.testing.assert_allclose(s1.z, s0.z, atol=1e-12)

    def test_entropy_run_certifies_at_dimension_1000(self):
        d = 1000
        x0 = np.arange(1.0, d + 1.0)
        trace = run_general_norm_agm(LogSumExp(d), NegEntropyMap(), Simplex(d),
                                     x0 / x0.sum(), 100)
        report = certify_trace("agm-mirror", trace)
        assert report.passed
        assert report.step_failures == 0

    def test_unsupported_pair_rejected(self, p2):
        s0 = AccelState.start(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            general_norm_agm_step(NegEntropyMap(), Ball(np.zeros(2), 1.0), s0,
                                  p2.gradient(s0.x), 4.0, 0.125)

    @pytest.mark.parametrize("mirror_map, feasible, pid, x0", [
        (NegEntropyMap(), Simplex(3), "lse3", [0.6, 0.3, 0.1]),
        (EuclideanMap(), Ball(np.zeros(2), 1.0), "p2", [0.6, 0.3]),
    ])
    def test_step_with_recorded_eta_is_bit_identical(self, mirror_map, feasible,
                                                     pid, x0):
        """The run records eta_t = (t+1) alpha_h / (2 beta), the step size the
        step once computed itself; each recorded state is the step from the
        one before with that eta, bit for bit."""
        problem = get_problem(pid)
        beta = problem.smoothness_beta
        trace = run_general_norm_agm(problem, mirror_map, feasible, x0, 40)
        t = np.arange(trace.T)
        assert trace.eta.tolist() == ((t + 1.0) * mirror_map.alpha_h / (2.0 * beta)).tolist()
        for k in range(trace.T):
            state = AccelState(x=trace.x[k], y=trace.y[k], z=trace.z[k], t=k)
            eta = (k + 1.0) * mirror_map.alpha_h / (2.0 * beta)
            nxt = general_norm_agm_step(mirror_map, feasible, state, trace.grad[k],
                                        beta, eta)
            for name in ("x", "y", "z"):
                assert getattr(nxt, name).tobytes() == getattr(trace, name)[k + 1].tobytes()


def l1_prox_instances(rng, dim: int, count: int):
    """(x, g, beta) with faces of the simplex, tied gradients and a wide
    range of scales."""
    for k in range(count):
        x = rng.dirichlet(np.ones(dim))
        if k % 3 == 0:
            x[rng.random(dim) < 0.3] = 0.0
            x = x / x.sum() if x.sum() > 0 else np.eye(dim)[0]
        g = rng.normal(size=dim) * 10.0 ** rng.integers(-3, 3)
        if k % 4 == 0:
            g = np.round(g, 1)  # ties
        yield x, g, 10.0 ** float(rng.integers(-2, 3))


class TestL1Prox:
    """The cautious step of the entropy method: argmin over the simplex of
    <g, y-x> + (beta/2) ||y - x||_1^2."""

    @staticmethod
    def objective(points, x, g, beta):
        diff = points - x.reshape(-1, *([1] * (points.ndim - 1)))
        return np.tensordot(g, diff, axes=(0, 0)) + 0.5 * beta * np.abs(diff).sum(axis=0) ** 2

    @pytest.mark.parametrize("dim", [5, 50])
    def test_optimal_at_any_dimension(self, dim):
        rng = np.random.default_rng(dim)
        for x, g, beta in l1_prox_instances(rng, dim, 200):
            y = _l1_prox_on_simplex(x, g, beta)
            assert np.all(y >= 0.0) and abs(y.sum() - x.sum()) <= 1e-12
            assert l1_prox_is_optimal(y, x, g, beta)

    def test_oracle_rejects_a_descending_point(self):
        x = np.array([0.5, 0.3, 0.2])
        g = np.array([1.0, 0.0, 0.5])
        assert not l1_prox_is_optimal(x, x, g, 1.0)
        assert l1_prox_is_optimal(_l1_prox_on_simplex(x, g, 1.0), x, g, 1.0)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_no_worse_than_grid_refinement(self, dim):
        rng = np.random.default_rng(40 + dim)
        for x, g, beta in l1_prox_instances(rng, dim, 60):
            y = _l1_prox_on_simplex(x, g, beta)
            ref = grid_refine_simplex(lambda pts: self.objective(pts, x, g, beta), dim)
            scale = 1.0 + np.abs(g).max() + beta
            assert self.objective(y, x, g, beta) <= \
                self.objective(ref, x, g, beta) + 1e-14 * scale


class TestStronglyConvexAgm:
    def test_worked_first_step(self, p2):
        # kappa = 4, momentum 1/3: y1 = (0.75, 0), x1 = (2/3, -1/3)
        x1, y1 = sc_agm_step([1.0, 1.0], p2.gradient([1.0, 1.0]), [1.0, 1.0],
                             4.0, 4.0)
        np.testing.assert_allclose(y1, [0.75, 0.0])
        np.testing.assert_allclose(x1, [2.0 / 3.0, -1.0 / 3.0])

    def test_momentum_vanishes_near_condition_one(self, p1):
        kappa = 1.0 + 1e-12
        x1, y1 = sc_agm_step([1.0], p1.gradient([1.0]), [0.3], kappa, 1.0)
        assert abs(x1[0] - y1[0]) <= 1e-9

    def test_zero_gradient_pure_momentum(self):
        p = make_diag_quadratic([1.0, 4.0], [0.5, 0.5])
        x = np.array([0.5, 0.5])
        y_prev = np.array([0.2, 0.2])
        m = (2.0 - 1.0) / (2.0 + 1.0)
        x1, y1 = sc_agm_step(x, p.gradient(x), y_prev, 4.0, 4.0)
        np.testing.assert_allclose(y1, x)
        np.testing.assert_allclose(x1, x + m * (x - y_prev))

    def test_rejects_bad_kappa(self, p2):
        with pytest.raises(ValueError):
            sc_agm_step([1.0, 1.0], p2.gradient([1.0, 1.0]), [1.0, 1.0], 0.5, 4.0)

    def test_z_from_state(self, p2):
        x = np.array([2.0 / 3.0, -1.0 / 3.0])
        y = np.array([0.75, 0.0])
        np.testing.assert_allclose(sc_agm_z(x, y, 4.0), [0.5, -1.0])
        np.testing.assert_allclose(sc_agm_z(y, y, 4.0), y)

    def test_recursion_residual_along_run(self, p2):
        trace = run_sc_agm(p2, [1.0, 1.0], 100)
        zs = trace.z
        for t in range(trace.T):
            res = sc_agm_recursion_residual(trace.grad[t], trace.x[t], zs[t], zs[t + 1],
                                            1.0, 4.0)
            assert res <= 1e-9

    def test_condition_one_single_exact_step(self, p1):
        trace = run_sc_agm(p1, [1.0], 50)
        assert trace.T == 1
        assert trace.final_x[0] == pytest.approx(0.0)
        assert "single-step-optimal" in trace.flags

    def test_certificate_on_p3(self):
        trace = run_sc_agm(get_problem("p3"), [1.0, 1.0], 200)
        report = certify_trace("agm-sc", trace, problem=get_problem("p3"))
        assert report.passed
        assert report.step_failures == 0
        labels = {e.label for e in report.end_checks}
        assert {"anytime-gap", "initial-potential", "z-recursion-residual"} <= labels


class TestRestart:
    def test_epoch_length_from_condition_number(self, p2):
        trace = restart_accelerated(p2, [1.0, 1.0], 1e-8)
        assert trace.meta["epoch_length"] == 8  # ceil(4 sqrt(4))

    def test_distance_halves_each_epoch(self, p2):
        trace = restart_accelerated(p2, [1.0, 1.0], 1e-10)
        for epoch in trace.meta["epochs"]:
            assert epoch["end_distance"] <= 0.5 * epoch["start_distance"] + 1e-12

    def test_start_at_optimum_runs_no_epochs(self, p2):
        trace = restart_accelerated(p2, [0.0, 0.0], 1e-8)
        assert trace.meta["epochs"] == []
        assert trace.T == 0

    def test_restart_step_count_beats_plain_descent(self):
        # sqrt(kappa) log(1/eps) vs kappa log(1/eps) scaling, measured
        p3 = get_problem("p3")
        trace = restart_accelerated(p3, [1.0, 1.0], 1e-6)
        assert p3.value(trace.final_x) <= 1e-6
        x = np.array([1.0, 1.0])
        plain_steps = 0
        while p3.value(x) > 1e-6:
            x = x - p3.gradient(x) / p3.smoothness_beta
            plain_steps += 1
        assert trace.T < plain_steps

    def test_beats_plain_descent_on_large_kappa(self):
        # sqrt(kappa) vs kappa scaling: count steps to gap <= 1e-6 on P3
        p3 = get_problem("p3")
        trace = run_sc_agm(p3, [1.0, 1.0], 400)
        views = trace.y
        accel_steps = next(t for t in range(1, len(views))
                           if p3.value(views[t]) <= 1e-6)
        x = np.array([1.0, 1.0])
        plain_steps = 0
        while p3.value(x) > 1e-6:
            x = x - p3.gradient(x) / p3.smoothness_beta
            plain_steps += 1
        assert plain_steps / accel_steps >= 3.0
