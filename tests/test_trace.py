"""The shared step loop: records numbered from t0, the recorded gradient is
the one the step consumes, and non-finite values end the run cleanly. The
one-gradient-per-step count over every method is in test_harness.py."""

import numpy as np
import pytest

from gdcert import problems
from gdcert.problems import get_problem
from gdcert.trace import drive

def test_step_receives_the_recorded_gradient():
    p2 = get_problem("p2")
    seen = []

    def step(t, x, g, eta):
        seen.append(g)
        return x - eta * g

    steps, x = drive(p2, np.array([1.0, 1.0]), 5, step, lambda t: 0.1, t0=7)
    assert [s.t for s in steps] == list(range(7, 12))
    assert all(s.grad is g for s, g in zip(steps, seen))
    assert all(s.f_ref is None and s.y is None for s in steps)
    # x <- x - 0.1 diag(1, 4) x, five times
    np.testing.assert_allclose(x, [0.9 ** 5, 0.6 ** 5])


class _NanAfter(problems.DiagQuadratic):
    """p1 whose gradient turns to nan at the given call."""

    def __init__(self, bad_call):
        super().__init__([1.0], [0.0])
        self.calls = 0
        self.bad_call = bad_call

    def gradient(self, x):
        self.calls += 1
        g = super().gradient(x)
        return g * np.nan if self.calls > self.bad_call else g


def test_non_finite_gradient_names_its_step():
    with pytest.raises(FloatingPointError, match="iterate diverged at step 3"):
        drive(_NanAfter(3), np.array([1.0]), 10,
              lambda t, x, g, eta: x - eta * g, lambda t: 0.5)


def test_non_finite_step_size_is_rejected():
    with pytest.raises(FloatingPointError, match="step 0"):
        drive(get_problem("p1"), np.array([1.0]), 10,
              lambda t, x, g, eta: x - eta * g, lambda t: float("inf"))

