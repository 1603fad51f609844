"""The step loop's kernels take each scalar operand as a 0-d array, and the
centered quadratic's gradient skips x - 0 (README, bit-identity rule 5).
Each property checks a transition or oracle against the same operations
with Python-float or numpy-scalar operands (``tests/oracles.py``), bit for
bit, on entries that include -0.0, subnormals and +-1e300."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gdcert import accel, mirror, smooth
from gdcert.core import Ball, Simplex, Unconstrained, frozen_scalar
from gdcert.problems import DiagQuadratic, LogSumExp, make_alternating_experts
from oracles import (
    agm1_step_scalar,
    agm2_step_scalar,
    entropy_simplex_step_scalar,
    entropy_step_scalar,
    l1_prox_scalar,
    lse_gradient_scalar,
    quadratic_gradient_scalar,
    sc_agm_step_scalar,
    simplex_projection_scalar,
    smooth_step_scalar,
)

DIMS = st.sampled_from([1, 2, 3, 31, 1000])
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300]
ENTRY = st.one_of(st.floats(-1e3, 1e3), st.sampled_from(SPECIAL))
POSITIVE = st.one_of(st.floats(1e-3, 1e3), st.sampled_from([5e-324, 1e-310, 1e300]))
CONSTANT = st.floats(1e-3, 1e3)  # beta, kappa and eta: positive run constants
# few distinct values, so that sorted entries and gradients tie
TIED = st.sampled_from([-1.0, -0.0, 0.0, 0.25, 0.5, 1.0])

PROPERTY = settings(max_examples=60, deadline=None)


def vectors(draw, d, elements=ENTRY):
    return draw(arrays(np.float64, d, elements=elements))


def same_bits(new, old) -> bool:
    new, old = np.asarray(new), np.asarray(old)
    return new.shape == old.shape and new.dtype == old.dtype \
        and new.tobytes() == old.tobytes()


def both(new, old):
    """Each form's result, computed with numpy's warnings off: overflow and
    invalid operations round the same way on either path."""
    with np.errstate(all="ignore"):
        return new(), old()


@PROPERTY
@given(data=st.data(), d=DIMS, beta=CONSTANT)
def test_smooth_step(data, d, beta):
    x, g = vectors(data.draw, d), vectors(data.draw, d)
    new, old = both(lambda: smooth._smooth_gd(beta)(0, x, g, 1.0 / beta),
                    lambda: smooth_step_scalar(x, g, beta))
    assert same_bits(new, old)


@PROPERTY
@given(data=st.data(), d=DIMS, beta=CONSTANT, eta=CONSTANT,
       t=st.integers(0, 10 ** 6), projected=st.booleans())
def test_agm2_step(data, d, beta, eta, t, projected):
    x, z, g = (vectors(data.draw, d) for _ in range(3))
    project = Ball(np.zeros(d), 1.0).project if projected else None
    state = accel.AccelState(x, x, z, t)
    new, old = both(
        lambda: accel._agm2(beta, accel._tau_next, project)(t, state, g, eta),
        lambda: agm2_step_scalar(x, z, g, beta, eta, accel._tau_next(t), project))
    assert all(map(same_bits, (new.x, new.y, new.z), old))


@PROPERTY
@given(data=st.data(), d=DIMS, beta=CONSTANT, lam_t=st.floats(0.0, 1e6),
       lam_next=st.floats(1.0, 1e6))
def test_agm1_step(data, d, beta, lam_t, lam_next):
    x, g, y = (vectors(data.draw, d) for _ in range(3))
    new, old = both(
        lambda: accel._agm1_step(x, g, y, lam_t, lam_next, frozen_scalar(beta)),
        lambda: agm1_step_scalar(x, g, y, lam_t, lam_next, beta))
    assert all(map(same_bits, new, old))


@PROPERTY
@given(data=st.data(), d=DIMS, beta=CONSTANT, kappa=st.floats(1.0, 1e8,
                                                               exclude_min=True))
def test_sc_agm_step_and_z(data, d, beta, kappa):
    x, g, y = (vectors(data.draw, d) for _ in range(3))
    state = accel.AccelState(x, y, y, 0)
    new, old = both(lambda: accel._sc_agm(kappa, beta)(0, state, g, 1.0 / beta),
                    lambda: sc_agm_step_scalar(x, g, y, kappa, beta))
    assert all(map(same_bits, (new.x, new.y, new.z), old))


@PROPERTY
@given(data=st.data(), d=DIMS, beta=CONSTANT, tied=st.booleans())
def test_l1_prox(data, d, beta, tied):
    x = vectors(data.draw, d, POSITIVE)
    g = vectors(data.draw, d, TIED if tied else ENTRY)
    new, old = both(lambda: accel._l1_prox(x, g, frozen_scalar(4.0 * beta)),
                    lambda: l1_prox_scalar(x, g, beta))
    assert same_bits(new, old)


@PROPERTY
@given(data=st.data(), d=DIMS, eta=CONSTANT)
def test_entropy_step_on_the_simplex(data, d, eta):
    # one transition, two steps: the run's 0-d scratch outputs are reused
    step = mirror._mirror(mirror.NegEntropyMap(), Simplex(d))
    for _ in range(2):
        x, g = vectors(data.draw, d, POSITIVE), vectors(data.draw, d)
        new, old = both(lambda: step(0, x, g, eta),
                        lambda: entropy_simplex_step_scalar(x, g, eta))
        assert same_bits(new, old)


@PROPERTY
@given(data=st.data(), d=DIMS, eta=CONSTANT)
def test_entropy_step_on_the_whole_space(data, d, eta):
    x, g = vectors(data.draw, d, POSITIVE), vectors(data.draw, d)
    ent = mirror.NegEntropyMap()
    new, old = both(lambda: mirror._mirror(ent, Unconstrained(d))(0, x, g, eta),
                    lambda: entropy_step_scalar(x, g, eta))
    assert same_bits(new, old)
    # the map's own dispatch, which the transition binds once
    with np.errstate(all="ignore"):
        composed = ent.grad_h_star(ent.grad_h(x) - eta * g)
        composed = mirror.bregman_project(ent, Unconstrained(d), composed)
    assert same_bits(new, composed)


@PROPERTY
@given(data=st.data(), d=DIMS, eta=CONSTANT, bounded=st.booleans())
def test_euclidean_mirror_step(data, d, eta, bounded):
    x, g = vectors(data.draw, d), vectors(data.draw, d)
    euc = mirror.EuclideanMap()
    feasible = Ball(np.zeros(d), 1.0) if bounded else Unconstrained(d)

    def composed():
        theta = euc.grad_h(x) - eta * g
        return mirror.bregman_project(euc, feasible, euc.grad_h_star(theta))

    new, old = both(lambda: mirror._mirror(euc, feasible)(0, x, g, eta), composed)
    assert same_bits(new, old)


@PROPERTY
@given(data=st.data(), d=DIMS)
def test_logsumexp_gradient(data, d):
    x = vectors(data.draw, d)
    new, old = both(lambda: LogSumExp(d).gradient(x), lambda: lse_gradient_scalar(x))
    assert same_bits(new, old)


@PROPERTY
@given(data=st.data(), d=DIMS, tied=st.booleans())
def test_simplex_projection(data, d, tied):
    v = vectors(data.draw, d, TIED if tied else ENTRY)
    new, old = both(lambda: Simplex(d).project(v), lambda: simplex_projection_scalar(v))
    assert same_bits(new, old)


@PROPERTY
@given(data=st.data(), d=DIMS, centered=st.booleans())
def test_quadratic_gradient(data, d, centered):
    diag, x = vectors(data.draw, d, POSITIVE), vectors(data.draw, d)
    shift = np.zeros(d) if centered else vectors(data.draw, d)
    problem = DiagQuadratic(diag, shift)
    new, old = both(lambda: problem.gradient(x),
                    lambda: quadratic_gradient_scalar(diag, shift, x))
    assert same_bits(new, old)


class TestZeroShift:
    def test_plus_zero_shift_keeps_the_sign_of_zero(self):
        # x - (+0.0) is x, -0.0 included: the gradient at -0.0 is -0.0
        g = DiagQuadratic([1.0, 4.0], [0.0, 0.0]).gradient(np.array([-0.0, 0.0]))
        assert g.tolist() == [0.0, 0.0]
        assert np.signbit(g).tolist() == [True, False]

    def test_minus_zero_shift_subtracts(self):
        # -0.0 - (-0.0) is +0.0, which skipping the subtraction would miss
        p, x = DiagQuadratic([1.0, 4.0], [-0.0, 0.0]), np.array([-0.0, -0.0])
        g = p.gradient(x)
        assert np.signbit(g).tolist() == [False, True]
        assert same_bits(g, quadratic_gradient_scalar(p.diag, p.shift, x))


def test_entropy_weight_that_underflows_ends_the_run():
    # eta = 1000 drives expert 0's weight to exp(-1000) = 0 at step 0; the
    # next step's log(0) ends the run as on the simplex
    with pytest.raises(FloatingPointError, match="^iterate diverged at step 1$"):
        mirror.run_mirror_descent(make_alternating_experts(2), mirror.NegEntropyMap(),
                                  Unconstrained(2), [0.5, 0.5], 1000.0, 5,
                                  comparator=np.array([0.5, 0.5]))
