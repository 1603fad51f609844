import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gdcert.core import (
    Ball,
    Box,
    Norm,
    Simplex,
    Unconstrained,
    as_vector,
    dual_norm,
    norm_value,
)
from oracles import (
    as_vector_reference,
    pythagorean_gap,
    sample_member,
    simplex_project_enumerate,
)

ALL_NORMS = [Norm.EUCLIDEAN, Norm.L1, Norm.LINF]


def set_zoo(dim=2):
    return [
        Unconstrained(dim),
        Ball(np.zeros(dim), 1.0),
        Box(-np.ones(dim), np.ones(dim)),
        Simplex(dim),
    ]


class TestNorms:
    def test_dual_norm_examples(self):
        assert dual_norm(Norm.EUCLIDEAN, [3.0, 4.0]) == pytest.approx(5.0)
        assert dual_norm(Norm.L1, [3.0, -4.0]) == pytest.approx(4.0)
        assert dual_norm(Norm.LINF, [1.0, -2.0]) == pytest.approx(3.0)

    def test_double_dual_identity(self):
        for kind in ALL_NORMS:
            assert kind.dual.dual is kind

    def test_norm_axioms_random(self):
        rng = np.random.default_rng(7)
        for kind in ALL_NORMS:
            for _ in range(300):
                x = rng.normal(size=3)
                y = rng.normal(size=3)
                c = rng.normal()
                nx = norm_value(kind, x)
                assert nx >= 0.0
                assert norm_value(kind, c * x) == pytest.approx(abs(c) * nx)
                assert norm_value(kind, x + y) <= nx + norm_value(kind, y) + 1e-12
        assert norm_value(Norm.L1, np.zeros(4)) == 0.0

    def test_generalized_cauchy_schwarz(self):
        rng = np.random.default_rng(8)
        for kind in ALL_NORMS:
            for _ in range(300):
                x = rng.normal(size=4)
                y = rng.normal(size=4)
                assert np.dot(x, y) <= norm_value(kind, x) * dual_norm(kind, y) + 1e-12

    @given(st.lists(st.floats(-1e6, 1e6).filter(lambda v: v == 0.0 or abs(v) > 1e-100),
                    min_size=1, max_size=6),
           st.sampled_from(ALL_NORMS))
    def test_norm_zero_iff_zero(self, entries, kind):
        # magnitudes below ~1e-154 underflow when squared; the identity is
        # about exact zeros, so keep entries out of the subnormal range
        x = np.array(entries)
        assert (norm_value(kind, x) == 0.0) == bool(np.all(x == 0.0))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_vector([1.0, np.nan])
        with pytest.raises(ValueError):
            norm_value(Norm.L1, [np.inf, 0.0])


# both sides of the switch between the list and the ufunc finiteness check
CHECK_SIZES = [1, 2, 3, 16, 17, 64, 1000]
finite = st.floats(allow_nan=False, allow_infinity=False)
finite32 = st.floats(allow_nan=False, allow_infinity=False, width=32)


class TestAsVector:
    """The contract of ``as_vector`` against the reference coercion."""

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.float64, st.sampled_from([0] + CHECK_SIZES), elements=finite),
           st.integers(1, 3))
    def test_valid_vector_returned_as_is(self, v, stride):
        view = v[::stride]
        assert as_vector(v) is v
        assert as_vector(view) is view
        assert as_vector_reference(view) is view

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(CHECK_SIZES), st.data(),
           st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_non_finite_entry_rejected(self, size, data, bad):
        v = data.draw(hnp.arrays(np.float64, size, elements=finite32))
        v[data.draw(st.integers(0, size - 1))] = bad
        for x in (v, v.tolist(), v.astype(np.float32)):
            with pytest.raises(ValueError, match="non-finite"):
                as_vector(x)

    @pytest.mark.parametrize("x", [np.zeros((2, 2)), [[1.0, 2.0]], np.ones((1, 1)),
                                   np.zeros((2, 0, 3)), [[1, 2], [3, 4]]])
    def test_higher_rank_rejected(self, x):
        with pytest.raises(ValueError, match="1-D"):
            as_vector_reference(x)
        with pytest.raises(ValueError, match="1-D"):
            as_vector(x)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(
        st.lists(finite, max_size=40),
        finite,
        st.integers(-2**53, 2**53),
        hnp.arrays(np.float64, st.just(()), elements=finite),
        hnp.arrays(st.sampled_from([np.int64, np.int32, np.float32, np.dtype(">f8")]),
                   st.sampled_from([0] + CHECK_SIZES),
                   elements=st.integers(-1000, 1000)),
        hnp.arrays(np.float64, st.sampled_from(CHECK_SIZES),
                   elements=finite).map(lambda a: a.view(np.recarray))))
    def test_coercion_matches_reference(self, x):
        expected = as_vector_reference(x)
        out = as_vector(x)
        assert type(out) is np.ndarray and out.dtype == np.float64 and out.ndim == 1
        assert out.tobytes() == expected.tobytes()


class TestProjection:
    def test_ball_radial(self):
        out = Ball(np.zeros(2), 1.0).project([2.0, 0.0])
        np.testing.assert_allclose(out, [1.0, 0.0])

    def test_ball_center_degenerate(self):
        ball = Ball(np.array([1.0, -1.0]), 2.0)
        np.testing.assert_array_equal(ball.project([1.0, -1.0]), [1.0, -1.0])

    def test_simplex_symmetry(self):
        out = Simplex(2).project([0.6, 0.6])
        np.testing.assert_allclose(out, [0.5, 0.5])

    def test_simplex_vertex(self):
        # cross-checked against the support-enumeration oracle
        expected = simplex_project_enumerate([1.2, -0.2])
        np.testing.assert_allclose(expected, [1.0, 0.0], atol=1e-15)
        out = Simplex(2).project([1.2, -0.2])
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_simplex_matches_enumeration_oracle(self, dim):
        rng = np.random.default_rng(11)
        s = Simplex(dim)
        for k in range(400):
            y = rng.normal(scale=2.0, size=dim)
            if k % 2:
                y = np.round(4.0 * y) / 4.0  # equal entries and equal shares
            np.testing.assert_allclose(s.project(y),
                                       simplex_project_enumerate(y), atol=1e-12)

    def test_box_clamps(self):
        box = Box([-1.0, 0.0], [1.0, 2.0])
        np.testing.assert_allclose(box.project([5.0, -3.0]), [1.0, 0.0])

    def test_unconstrained_identity(self):
        x = np.array([3.0, -7.0])
        np.testing.assert_array_equal(Unconstrained(2).project(x), x)

    @pytest.mark.parametrize("feasible", set_zoo(), ids=lambda s: type(s).__name__)
    def test_idempotent(self, feasible):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            x = rng.normal(scale=3.0, size=2)
            once = feasible.project(x)
            twice = feasible.project(once)
            np.testing.assert_allclose(twice, once, atol=1e-12)

    @pytest.mark.parametrize("feasible", set_zoo(), ids=lambda s: type(s).__name__)
    def test_membership_consistent_with_projection(self, feasible):
        rng = np.random.default_rng(17)
        for _ in range(500):
            x = rng.normal(scale=2.0, size=2)
            projected = feasible.project(x)
            assert feasible.member(projected)
            moved = float(np.linalg.norm(projected - x))
            if feasible.member(x):
                assert moved <= 1e-12
            else:
                assert moved > 1e-12

    @pytest.mark.parametrize("feasible", set_zoo()[1:], ids=lambda s: type(s).__name__)
    def test_diameter_bounds_member_pairs(self, feasible):
        rng = np.random.default_rng(19)
        for _ in range(500):
            u = sample_member(rng, feasible, 2)
            v = sample_member(rng, feasible, 2)
            assert np.linalg.norm(u - v) <= feasible.diameter + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Ball(np.zeros(2), 1.0).project([1.0, 2.0, 3.0])


class TestPythagorean:
    def test_member_gives_zero(self):
        ball = Ball(np.zeros(2), 1.0)
        b_prime = [0.3, 0.3]
        assert pythagorean_gap([0.0, 0.5], b_prime, ball.project(b_prime)) == \
            pytest.approx(0.0)

    def test_ball_worked_case(self):
        # b = (1, 0), so <a - b, b' - b> = <(-1, 1), (1, 0)> = -1
        ball = Ball(np.zeros(2), 1.0)
        b_prime = [2.0, 0.0]
        assert pythagorean_gap([0.0, 1.0], b_prime, ball.project(b_prime)) == \
            pytest.approx(-1.0)

    @pytest.mark.parametrize("feasible", set_zoo()[1:], ids=lambda s: type(s).__name__)
    def test_nonpositive_and_distance_shrinks(self, feasible):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            a = sample_member(rng, feasible, 2)
            b_prime = rng.normal(scale=3.0, size=2)
            b = feasible.project(b_prime)
            gap = pythagorean_gap(a, b_prime, b)
            assert gap <= 1e-10
            assert (np.linalg.norm(a - b) ** 2
                    <= np.linalg.norm(a - b_prime) ** 2 + 1e-10)


class TestLmo:
    def test_simplex_vertex(self):
        np.testing.assert_array_equal(Simplex(3).lmo([3.0, 1.0, 2.0]),
                                      [0.0, 1.0, 0.0])

    def test_box_signs(self):
        box = Box(-np.ones(2), np.ones(2))
        np.testing.assert_array_equal(box.lmo([2.0, -5.0]), [-1.0, 1.0])

    def test_ball_direction(self):
        out = Ball(np.zeros(2), 1.0).lmo([3.0, 4.0])
        np.testing.assert_allclose(out, [-0.6, -0.8])

    def test_ball_zero_gradient_hits_center(self):
        ball = Ball(np.array([0.5, 0.5]), 1.0)
        np.testing.assert_array_equal(ball.lmo([0.0, 0.0]), [0.5, 0.5])

    def test_simplex_tie_lowest_index(self):
        np.testing.assert_array_equal(Simplex(3).lmo([1.0, 1.0, 2.0]),
                                      [1.0, 0.0, 0.0])

    def test_unbounded_rejected(self):
        with pytest.raises(ValueError):
            Unconstrained(2).lmo([1.0, 0.0])

    @settings(max_examples=60)
    @given(st.lists(st.floats(-10, 10), min_size=3, max_size=3))
    def test_lmo_is_linear_minimizer(self, g):
        g = np.array(g)
        s = Simplex(3)
        v = s.lmo(g)
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1.0
            assert np.dot(g, v) <= np.dot(g, e) + 1e-12
