import numpy as np
import pytest

from gdcert.certify import certify_trace
from gdcert.core import Ball, Box, Norm, Simplex, Unconstrained, norm_value
from gdcert.descent import run_online_gd
from gdcert.mirror import (
    EuclideanMap,
    NegEntropyMap,
    bregman_project,
    get_map,
    mirror_step,
    run_mirror_descent,
    tuned_eta,
)
from gdcert.problems import make_alternating_experts, make_experts_adversary
from oracles import (
    Constant,
    generalized_pythagorean_gap,
    grid_refine_simplex,
    hedge_closed_form,
    pythagorean_gap,
    sample_member,
)

EUC = EuclideanMap()
ENT = NegEntropyMap()


def random_interior_simplex(rng, n):
    x = rng.dirichlet(np.ones(n))
    return 0.98 * x + 0.02 / n  # keep safely off the boundary


class TestBregman:
    def test_zero_at_equal_points(self):
        x = np.array([0.4, 0.6])
        assert ENT.bregman(x, x) == pytest.approx(0.0, abs=1e-15)
        assert EUC.bregman(x, x) == 0.0

    def test_euclidean_is_half_squared_distance(self):
        assert EUC.bregman([1.0, 0.0], [0.0, 0.0]) == pytest.approx(0.5)

    def test_entropy_is_kl(self):
        assert ENT.bregman([1.0, 0.0], [0.5, 0.5]) == pytest.approx(np.log(2.0))

    def test_boundary_second_argument_rejected(self):
        with pytest.raises(ValueError):
            ENT.bregman([0.5, 0.5], [1.0, 0.0])

    def test_nonnegative_and_strongly_convex(self):
        rng = np.random.default_rng(51)
        for _ in range(1000):
            y = random_interior_simplex(rng, 3)
            x = random_interior_simplex(rng, 3)
            div = ENT.bregman(y, x)
            assert div >= -1e-15
            assert div >= 0.5 * norm_value(Norm.L1, y - x) ** 2 - 1e-9
        for _ in range(1000):
            y = rng.normal(size=3)
            x = rng.normal(size=3)
            div = EUC.bregman(y, x)
            assert div >= 0.0
            assert div >= 0.5 * norm_value(Norm.EUCLIDEAN, y - x) ** 2 - 1e-12

    def test_pinsker(self):
        rng = np.random.default_rng(53)
        for _ in range(1000):
            p = rng.dirichlet(np.ones(4))
            q = random_interior_simplex(rng, 4)
            kl = ENT.bregman(p, q)
            assert kl >= 0.5 * norm_value(Norm.L1, p - q) ** 2 - 1e-12

    def test_roundtrip_inverse_gradient(self):
        rng = np.random.default_rng(55)
        for _ in range(200):
            x = random_interior_simplex(rng, 3)
            np.testing.assert_allclose(ENT.grad_h_star(ENT.grad_h(x)), x, atol=1e-10)
            v = rng.normal(size=3)
            np.testing.assert_allclose(EUC.grad_h_star(EUC.grad_h(v)), v, atol=1e-12)

    def test_generator_strong_convexity(self):
        rng = np.random.default_rng(57)
        for _ in range(500):
            x = random_interior_simplex(rng, 3)
            y = random_interior_simplex(rng, 3)
            lhs = ENT.h(y) - ENT.h(x) - float(np.dot(ENT.grad_h(x), y - x))
            assert lhs >= 0.5 * ENT.alpha_h * norm_value(Norm.L1, y - x) ** 2 - 1e-9


class TestBregmanProjection:
    def test_member_is_fixed(self):
        x = np.array([0.25, 0.75])
        np.testing.assert_allclose(bregman_project(ENT, Simplex(2), x), x)

    def test_entropy_projection_is_rescale(self):
        out = bregman_project(ENT, Simplex(2), [0.3, 0.9])
        np.testing.assert_allclose(out, [0.25, 0.75])

    def test_rescale_matches_grid_minimizer(self):
        x_prime = np.array([0.3, 0.9, 0.4])

        def kl_to(pts):
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = np.where(pts > 0,
                                 pts * np.log(pts / x_prime.reshape(-1, *([1] * (pts.ndim - 1)))),
                                 0.0)
            return terms.sum(axis=0) + x_prime.sum() - pts.sum(axis=0)

        ref = grid_refine_simplex(kl_to, 3)
        out = bregman_project(ENT, Simplex(3), x_prime)
        np.testing.assert_allclose(out, ref, atol=1e-8)

    def test_euclidean_map_reduces_to_euclidean_projection(self):
        for feasible in (Ball(np.zeros(2), 1.0), Box(-np.ones(2), np.ones(2)), Simplex(2)):
            y = np.array([1.4, -0.3])
            np.testing.assert_array_equal(bregman_project(EUC, feasible, y),
                                          feasible.project(y))

    def test_unsupported_pair_rejected(self):
        with pytest.raises(ValueError):
            bregman_project(ENT, Ball(np.zeros(2), 1.0), [0.5, 0.5])


class TestMirrorStep:
    def test_euclidean_unconstrained_is_gd(self):
        x = np.array([0.4, -0.2])
        g = np.array([1.0, 2.0])
        out = mirror_step(EUC, Unconstrained(2), x, g, 0.3)
        np.testing.assert_array_equal(out, x - 0.3 * g)

    def test_entropy_multiplicative_update(self):
        out = mirror_step(ENT, Simplex(2), [0.5, 0.5], [1.0, 0.0], np.log(2.0))
        np.testing.assert_allclose(out, [1.0 / 3.0, 2.0 / 3.0], atol=1e-15)

    def test_zero_gradient_keeps_point(self):
        x = np.array([0.3, 0.7])
        np.testing.assert_allclose(mirror_step(ENT, Simplex(2), x, [0.0, 0.0], 0.5), x)

    def test_boundary_iterate_rejected(self):
        with pytest.raises(ValueError):
            mirror_step(ENT, Simplex(2), [1.0, 0.0], [0.1, 0.0], 0.5)

    @pytest.mark.parametrize("feasible", [Ball(np.zeros(2), 1.0),
                                          Box(np.zeros(2), np.ones(2))])
    def test_unsupported_pair_rejected(self, feasible):
        with pytest.raises(ValueError, match="unsupported"):
            mirror_step(ENT, feasible, [0.5, 0.5], [0.1, 0.0], 0.5)

    @pytest.mark.parametrize("n", [2, 3])
    def test_agrees_with_proximal_form(self, n):
        # independent route: minimize eta <g, x> + D_h(x || x_t) on the
        # simplex by grid refinement
        rng = np.random.default_rng(61)
        for _ in range(5):
            x_t = random_interior_simplex(rng, n)
            g = rng.normal(size=n)
            eta = float(rng.uniform(0.1, 1.0))
            stepped = mirror_step(ENT, Simplex(n), x_t, g, eta)

            def prox_objective(pts):
                lin = eta * np.tensordot(g, pts, axes=(0, 0))
                with np.errstate(divide="ignore", invalid="ignore"):
                    terms = np.where(pts > 0,
                                     pts * np.log(pts / x_t.reshape(-1, *([1] * (pts.ndim - 1)))),
                                     0.0)
                return lin + terms.sum(axis=0) + x_t.sum() - pts.sum(axis=0)

            ref = grid_refine_simplex(prox_objective, n, rounds=20)
            np.testing.assert_allclose(stepped, ref, atol=1e-10)


class TestMirrorDescentRuns:
    def test_zero_losses_constant_trace(self):
        adv = make_experts_adversary([[0.0, 0.0]])
        trace = run_mirror_descent(adv, ENT, Simplex(2), [0.5, 0.5], 0.3, 10)
        for x in trace.x:
            np.testing.assert_allclose(x, [0.5, 0.5])

    def test_euclidean_map_equals_projected_gd(self):
        adv = make_alternating_experts(2)
        ball = Ball(np.zeros(2), 1.0)
        eta = 0.17
        md = run_mirror_descent(adv, EUC, ball, [0.5, 0.5], eta, 200)
        gd = run_online_gd(adv, ball, [0.5, 0.5], Constant(eta), 200)
        for a, b in zip(md.x, gd.x):
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_regret_certificate_on_experts(self):
        adv = make_alternating_experts(2)
        T = 500
        x0 = np.array([0.5, 0.5])
        comparator = np.array([1.0, 0.0])
        eta = tuned_eta(ENT, comparator, x0, 1.0, T)
        trace = run_mirror_descent(adv, ENT, Simplex(2), x0, eta, T,
                                   comparator=comparator)
        trace.constants["G_dual"] = 1.0
        report = certify_trace("mirror-regret", trace)
        assert report.passed
        assert report.step_failures == 0
        labels = {e.label: e for e in report.end_checks}
        assert labels["regret"].rhs <= labels["regret-gradient-bound"].rhs + 1e-12

    def test_interior_start_required(self):
        adv = make_alternating_experts(2)
        with pytest.raises(ValueError):
            run_mirror_descent(adv, ENT, Simplex(2), [1.0, 0.0], 0.1, 5)

    @pytest.mark.parametrize("eta", [0.0, -0.1, np.nan])
    def test_positive_step_size_required(self, eta):
        adv = make_alternating_experts(2)
        with pytest.raises(ValueError, match="step size must be positive"):
            run_mirror_descent(adv, ENT, Simplex(2), [0.5, 0.5], eta, 5)

    def test_a_weight_that_underflows_ends_the_run_as_a_divergence(self):
        # step 0 moves the first weight to exp(-1000), which is 0 in float64;
        # step 1's log(0) raises under the loop's errstate
        adv = make_experts_adversary([[1.0, 0.0]])
        with pytest.raises(FloatingPointError, match="^iterate diverged at step 1$"):
            run_mirror_descent(adv, ENT, Simplex(2), [0.5, 0.5], 1000.0, 5,
                               comparator=[0.0, 1.0])


class TestHedge:
    def test_zero_gradients_return_start(self):
        x0 = np.array([0.2, 0.8])
        np.testing.assert_allclose(mirror_step(ENT, Simplex(2), x0, [0.0, 0.0], 0.5), x0)

    def test_single_round_worked_case(self):
        out = mirror_step(ENT, Simplex(2), [0.5, 0.5], [1.0, 0.0], np.log(2.0))
        np.testing.assert_allclose(out, [1.0 / 3.0, 2.0 / 3.0], atol=1e-15)

    def test_matches_iterated_mirror_descent(self):
        rng = np.random.default_rng(63)
        rows = rng.uniform(size=(10, 3))
        adv = make_experts_adversary(rows)
        x0 = np.ones(3) / 3.0
        eta = 0.37
        trace = run_mirror_descent(adv, ENT, Simplex(3), x0, eta, 10,
                                   comparator=np.array([1.0, 0.0, 0.0]))
        closed = hedge_closed_form(x0, rows.sum(axis=0), eta)
        assert np.max(np.abs(trace.final_x - closed)) <= 1e-12


class TestGeneralizedPythagorean:
    def test_member_bprime_gives_zeros(self):
        x = np.array([0.4, 0.6])
        b = bregman_project(ENT, Simplex(2), x)
        first, second = generalized_pythagorean_gap("negentropy", [0.3, 0.7], x, b)
        assert first == pytest.approx(0.0, abs=1e-12)
        assert second == pytest.approx(0.0, abs=1e-12)

    def test_worked_case(self):
        b_prime = [0.3, 0.9]
        b = bregman_project(ENT, Simplex(2), b_prime)
        first, second = generalized_pythagorean_gap("negentropy", [1.0, 0.0], b_prime, b)
        assert first <= 1e-10
        assert second >= -1e-10

    def test_euclidean_reduction(self):
        ball = Ball(np.zeros(2), 1.0)
        a = np.array([0.0, 1.0])
        b_prime = np.array([2.0, 0.0])
        b = bregman_project(EUC, ball, b_prime)
        first, second = generalized_pythagorean_gap("euclidean", a, b_prime, b)
        assert first == pytest.approx(pythagorean_gap(a, b_prime, ball.project(b_prime)))
        dist_slack = (np.sum((a - b_prime) ** 2) - np.sum((a - b) ** 2)) / 2.0
        assert second <= dist_slack + 1e-12

    def test_property_trials(self):
        rng = np.random.default_rng(67)
        for _ in range(1000):
            a = rng.dirichlet(np.ones(3))
            b_prime = rng.uniform(0.05, 2.0, size=3)
            b = bregman_project(ENT, Simplex(3), b_prime)
            first, second = generalized_pythagorean_gap("negentropy", a, b_prime, b)
            assert first <= 1e-10
            assert second >= -1e-10
        ball = Ball(np.zeros(2), 1.0)
        for _ in range(1000):
            a = sample_member(rng, ball, 2)
            b_prime = rng.normal(scale=2.0, size=2)
            b = bregman_project(EUC, ball, b_prime)
            first, second = generalized_pythagorean_gap("euclidean", a, b_prime, b)
            assert first <= 1e-10
            assert second >= -1e-10


def test_map_registry():
    assert isinstance(get_map("euclidean"), EuclideanMap)
    assert isinstance(get_map("negentropy"), NegEntropyMap)
    with pytest.raises(KeyError):
        get_map("p-norm")
