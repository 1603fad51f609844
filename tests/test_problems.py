import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gdcert.core import Ball, Box, Norm, Simplex, Unconstrained
from gdcert.problems import (
    ExpertsAdversary,
    FixedAdversary,
    LinearLoss,
    LogSumExp,
    get_adversary,
    get_problem,
    make_alternating_experts,
    make_diag_quadratic,
    make_experts_adversary,
)
from oracles import cumulative_loop, gradient_check, grid_refine_simplex, sample_member


@pytest.fixture(scope="module")
def suite():
    return {pid: get_problem(pid) for pid in ("p1", "p2", "p3", "lse3")}


class TestDiagQuadratic:
    def test_p1_values(self, suite):
        p1 = suite["p1"]
        assert p1.value([1.0]) == pytest.approx(0.5)
        np.testing.assert_allclose(p1.gradient([1.0]), [1.0])
        assert p1.kappa == 1.0

    def test_p2_values(self, suite):
        p2 = suite["p2"]
        assert p2.value([1.0, 1.0]) == pytest.approx(2.5)
        np.testing.assert_allclose(p2.gradient([1.0, 1.0]), [1.0, 4.0])
        assert p2.kappa == 4.0
        assert p2.sublevel_diameter([1.0, 1.0]) == pytest.approx(np.sqrt(5.0))

    def test_p3_condition_number(self, suite):
        assert suite["p3"].kappa == 100.0

    def test_minimizer_and_stationarity(self, suite):
        for pid in ("p1", "p2", "p3"):
            p = suite[pid]
            xs = p.minimizer_over(Unconstrained(p.dim))
            assert p.value(xs) == pytest.approx(0.0, abs=1e-12)  # f* = 0 at s = 0
            assert np.linalg.norm(p.gradient(xs)) <= 1e-10

    def test_rejects_nonpositive_diag(self):
        with pytest.raises(ValueError):
            make_diag_quadratic([1.0, 0.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            make_diag_quadratic([-1.0], [0.0])

    def test_alpha_beta_bracket_diagonal(self, suite):
        p2 = suite["p2"]
        assert p2.strong_convexity_alpha == 1.0
        assert p2.smoothness_beta == 4.0


def _rows(rng, n, d, lo, hi):
    """n normal rows, each scaled by a magnitude log-uniform in [lo, hi]."""
    return rng.normal(size=(n, d)) * 10.0 ** rng.uniform(lo, hi, (n, 1))


class TestBatchedValues:
    """``value`` on an (n, d) stack of points equals the per-row calls bit for
    bit, as do an adversary's round values and ``next_loss(t).value``: the
    trace takes each value column in one call."""

    @pytest.mark.parametrize("d", [1, 2, 3, 1000])
    def test_diag_quadratic(self, d):
        rng = np.random.default_rng(d)
        p = make_diag_quadratic(10.0 ** rng.uniform(-2.0, 2.0, d), rng.normal(size=d))
        X = _rows(rng, 300, d, -8.0, 150.0)
        assert p.value(X).tobytes() == np.array([p.value(x) for x in X]).tobytes()

    @pytest.mark.parametrize("d", [1, 3, 1000])
    def test_log_sum_exp(self, d):
        lse = LogSumExp(d)
        X = _rows(np.random.default_rng(d), 300, d, -8.0, 150.0)
        assert lse.value(X).tobytes() == np.array([lse.value(x) for x in X]).tobytes()

    @pytest.mark.parametrize("d", [1, 3, 1000])
    def test_linear_loss(self, d):
        rng = np.random.default_rng(d)
        loss = LinearLoss(rng.random(d))
        X = _rows(rng, 300, d, -8.0, 150.0)
        assert loss.value(X).tobytes() == np.array([loss.value(x) for x in X]).tobytes()

    def test_linear_gradient_is_its_row_read_only(self):
        ell = np.array([0.5, 1.0])
        loss = LinearLoss(ell)
        g = loss.gradient([1.0, -2.0])
        assert g.tobytes() == ell.tobytes() and not g.flags.writeable
        assert ell.flags.writeable  # the caller's array stays as it was
        with pytest.raises(ValueError):
            g[0] = 2.0

    def test_single_point_is_a_float(self):
        for p in (get_problem("p2"), LogSumExp(2), LinearLoss([0.5, 1.0])):
            assert type(p.value([1.0, -2.0])) is float

    @pytest.mark.parametrize("adversary", [
        FixedAdversary(make_diag_quadratic([1.0, 4.0, 9.0], [0.5, 0.0, -1.0])),
        # three loss rows played cyclically
        make_experts_adversary(np.random.default_rng(3).random((3, 3))),
    ], ids=["fixed", "experts"])
    @pytest.mark.parametrize("T", [2, 3, 10])
    def test_round_values(self, adversary, T):
        X = _rows(np.random.default_rng(T), T, 3, -8.0, 100.0)
        rounds = [adversary.next_loss(t, x).value(x) for t, x in enumerate(X)]
        assert adversary.round_values(X).tobytes() == np.array(rounds).tobytes()


class TestConstrainedMinimizers:
    def test_p2_over_simplex_analytic(self, suite):
        # stationarity on the simplex: q1 x1 = q2 x2 with x1 + x2 = 1
        xs = suite["p2"].minimizer_over(Simplex(2))
        np.testing.assert_allclose(xs, [0.8, 0.2], atol=1e-10)
        assert suite["p2"].value(xs) == pytest.approx(0.4)

    @pytest.mark.parametrize("pid", ["p2", "p3"])
    @pytest.mark.parametrize("set_id", ["ball", "box", "simplex"])
    def test_grid_refinement_agrees(self, suite, pid, set_id):
        p = suite[pid]
        feasible = {"ball": Ball(np.zeros(2), 1.0),
                    "box": Box(-np.ones(2), np.ones(2)),
                    "simplex": Simplex(2)}[set_id]
        xs = p.minimizer_over(feasible)
        assert feasible.member(xs)
        if set_id == "simplex":
            ref = grid_refine_simplex(
                lambda pts: 0.5 * np.tensordot(p.diag, (pts - p.shift.reshape(-1, *([1] * (pts.ndim - 1)))) ** 2, axes=(0, 0)),
                2)
        else:
            from oracles import grid_refine_box

            lo = feasible.lo if set_id == "box" else -np.ones(2)
            hi = feasible.hi if set_id == "box" else np.ones(2)

            def obj(pts):
                vals = 0.5 * np.tensordot(
                    p.diag, (pts - p.shift.reshape(-1, *([1] * (pts.ndim - 1)))) ** 2,
                    axes=(0, 0))
                if set_id == "ball":
                    inside = np.sqrt(np.sum(pts ** 2, axis=0)) <= 1.0 + 1e-12
                    vals = np.where(inside, vals, np.inf)
                return vals

            ref = grid_refine_box(obj, lo, hi)
        assert p.value(xs) <= p.value(feasible.project(ref)) + 1e-9

    def test_minimizer_cached(self, suite):
        p = suite["p3"]
        a = p.minimizer_over(Simplex(2))
        b = p.minimizer_over(Simplex(2))
        np.testing.assert_array_equal(a, b)


class TestLogSumExp:
    def test_value_and_gradient(self, suite):
        lse = suite["lse3"]
        x = np.array([0.0, 0.0, 0.0])
        assert lse.value(x) == pytest.approx(np.log(3.0))
        np.testing.assert_allclose(lse.gradient(x), np.ones(3) / 3.0)

    def test_gradient_is_probability_vector(self, suite):
        rng = np.random.default_rng(3)
        lse = suite["lse3"]
        for _ in range(100):
            g = lse.gradient(rng.normal(scale=5.0, size=3))
            assert np.all(g > 0)
            assert np.sum(g) == pytest.approx(1.0)

    def test_no_unconstrained_minimizer(self, suite):
        with pytest.raises(ValueError):
            suite["lse3"].minimizer_over(Unconstrained(3))

    def test_simplex_minimizer_is_uniform(self, suite):
        lse = suite["lse3"]
        xs = lse.minimizer_over(Simplex(3))
        np.testing.assert_allclose(xs, np.ones(3) / 3.0)
        # independent grid refinement over the simplex
        ref = grid_refine_simplex(lambda pts: np.log(np.sum(np.exp(pts), axis=0)), 3)
        assert lse.value(xs) <= lse.value(ref) + 1e-9

    def test_ball_minimizer(self, suite):
        lse = suite["lse3"]
        ball = Ball(np.zeros(3), 1.0)
        xs = lse.minimizer_over(ball)
        np.testing.assert_allclose(xs, -np.ones(3) / np.sqrt(3.0))
        # projected-gradient stationarity at the claimed point
        step = ball.project(xs - lse.gradient(xs) / lse.smoothness_beta)
        np.testing.assert_allclose(step, xs, atol=1e-10)


class TestGradientCheck:
    def test_quadratics_are_exact(self, suite):
        assert gradient_check(suite["p1"], [1.0], 1e-5) <= 1e-8
        assert gradient_check(suite["p2"], [1.0, 1.0], 1e-5) <= 1e-8

    def test_at_minimizer(self, suite):
        p2 = suite["p2"]
        assert gradient_check(p2, p2.minimizer_over(Unconstrained(2)), 1e-5) <= 1e-8

    @pytest.mark.parametrize("pid", ["p1", "p2", "p3", "lse3"])
    def test_random_points_relative(self, suite, pid):
        rng = np.random.default_rng(5)
        p = suite[pid]
        for _ in range(50):
            x = rng.normal(size=p.dim)
            assert gradient_check(p, x, 1e-5) <= 1e-6


class TestConvexityInvariants:
    @pytest.mark.parametrize("pid", ["p1", "p2", "p3", "lse3"])
    def test_midpoint_convexity(self, suite, pid):
        rng = np.random.default_rng(9)
        p = suite[pid]
        for _ in range(1000):
            u = rng.normal(scale=2.0, size=p.dim)
            v = rng.normal(scale=2.0, size=p.dim)
            mid = p.value(0.5 * u + 0.5 * v)
            assert mid <= 0.5 * p.value(u) + 0.5 * p.value(v) + 1e-9

    @pytest.mark.parametrize("pid", ["p1", "p2", "p3", "lse3"])
    def test_curvature_envelopes(self, suite, pid):
        rng = np.random.default_rng(10)
        p = suite[pid]
        alpha = p.strong_convexity_alpha or 0.0
        beta = p.smoothness_beta
        for _ in range(1000):
            x = rng.normal(scale=2.0, size=p.dim)
            y = rng.normal(scale=2.0, size=p.dim)
            linear = p.value(x) + float(np.dot(p.gradient(x), y - x))
            d2 = float(np.sum((y - x) ** 2))
            assert p.value(y) >= linear + 0.5 * alpha * d2 - 1e-9
            assert p.value(y) <= linear + 0.5 * beta * d2 + 1e-9

    @pytest.mark.parametrize("pid", ["p2", "p3", "lse3"])
    def test_gradient_lipschitz(self, suite, pid):
        rng = np.random.default_rng(12)
        p = suite[pid]
        for _ in range(500):
            x = rng.normal(scale=2.0, size=p.dim)
            y = rng.normal(scale=2.0, size=p.dim)
            lhs = np.linalg.norm(p.gradient(x) - p.gradient(y))
            assert lhs <= p.smoothness_beta * np.linalg.norm(x - y) + 1e-9


class TestExpertsAdversary:
    def test_single_round_inner_product(self):
        adv = make_experts_adversary([[0.0, 1.0]])
        loss = adv.next_loss(0, None)
        assert loss.value([0.5, 0.5]) == pytest.approx(0.5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            make_experts_adversary([[0.0, 1.5]])
        with pytest.raises(ValueError):
            make_experts_adversary([[-0.1, 0.5]])
        with pytest.raises(ValueError):
            make_experts_adversary([[np.nan, 0.5], [0.2, 0.3]])

    def test_alternating_best_expert(self):
        adv = make_alternating_experts(2)
        total = adv.cumulative(100)
        np.testing.assert_allclose(total, [50.0, 50.0])
        best = adv.comparator_over(Simplex(2), 100)
        assert np.dot(total, best) == pytest.approx(50.0)

    @settings(max_examples=200, deadline=None)
    @given(rows=st.tuples(st.integers(1, 6), st.integers(1, 5)).flatmap(
               lambda shape: hnp.arrays(np.float64, shape,
                                        elements=st.floats(0.0, 1.0) | st.just(-0.0))),
           T=st.integers(1, 2_999))
    def test_cumulative_matches_round_loop(self, rows, T):
        adv = make_experts_adversary(rows)
        assert adv.cumulative(T).tobytes() == cumulative_loop(rows, T).tobytes()

    @pytest.mark.parametrize("d, T", [
        (1000, 1_001),       # rows added one at a time; T past the 100 rows
        (127, 2 * 129 + 5),  # blocks of 129 rounds, the last one partial
        (3, 5_461 + 7),      # blocks of 5,461 rounds
    ])
    def test_cumulative_matches_round_loop_in_blocks(self, d, T):
        # -0.0 rows and entries, and a row count that divides neither T nor
        # the block: the sum is the loop's, bit for bit
        rng = np.random.default_rng(d)
        rows = rng.uniform(size=(100, d))
        rows[rng.uniform(size=rows.shape) < 0.3] = -0.0
        rows[[0, 7]] = -0.0
        adv = make_experts_adversary(rows)
        assert adv.cumulative(T).tobytes() == cumulative_loop(rows, T).tobytes()

    def test_grad_bounds(self):
        adv = make_alternating_experts(2)
        assert adv.grad_bound(Norm.EUCLIDEAN) == pytest.approx(1.0)
        assert adv.grad_bound(Norm.L1) == pytest.approx(1.0)  # dual is sup-norm

    def test_gradient_bound_holds_on_rows(self):
        rng = np.random.default_rng(21)
        adv = make_experts_adversary(rng.uniform(size=(20, 3)))
        G = adv.grad_bound(Norm.EUCLIDEAN)
        s = Simplex(3)
        for t in range(20):
            x = sample_member(rng, s, 3)
            assert np.linalg.norm(adv.next_loss(t, x).gradient(x)) <= G + 1e-12

    def test_fixed_adversary_wraps_problem(self):
        p = get_problem("p1")
        adv = FixedAdversary(p)
        assert adv.next_loss(17, None) is p
        assert adv.strongly_convex_alpha == 1.0

    def test_registry(self):
        assert isinstance(get_adversary("experts-alt"), ExpertsAdversary)
        assert isinstance(get_adversary("p1"), FixedAdversary)
        with pytest.raises(KeyError):
            get_problem("nope")
