"""The shared step loop and the trace it records: the recorded gradient is
the one the step consumes, non-finite values end the run cleanly with the
step number, and every method's columns have the row counts of the layout.
The one-gradient-per-step count over every method is in test_harness.py."""

from collections import namedtuple

import numpy as np
import pytest

from gdcert import accel, problems
from gdcert.harness import METHODS, RunConfig, run_experiment
from gdcert.problems import get_problem
from gdcert.trace import drive, record

def test_step_receives_the_recorded_gradient():
    p2 = get_problem("p2")
    seen = []

    def step(t, x, g, eta):
        seen.append(g)
        return x - eta * g

    trace = drive(p2, np.array([1.0, 1.0]), 5, step, lambda t: 0.1)
    assert trace.T == 5
    np.testing.assert_array_equal(trace.grad, seen)
    assert trace.f_ref is None and trace.y is None
    # x <- x - 0.1 diag(1, 4) x, five times
    np.testing.assert_allclose(trace.final_x, [0.9 ** 5, 0.6 ** 5])


class _NanAfter(problems.DiagQuadratic):
    """p1 (or another diagonal quadratic minimized at 0) whose gradient turns
    to nan at the given call."""

    def __init__(self, bad_call, diag=(1.0,)):
        super().__init__(diag, np.zeros(len(diag)))
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


def test_error_numbers_steps_from_t0():
    with pytest.raises(FloatingPointError, match="iterate diverged at step 10"):
        record(_NanAfter(3), np.array([1.0]), 10,
               lambda t, x, g, eta: x - eta * g, lambda t: 0.5, t0=7)


def test_non_finite_step_size_is_rejected():
    with pytest.raises(FloatingPointError, match="step 0"):
        drive(get_problem("p1"), np.array([1.0]), 10,
              lambda t, x, g, eta: x - eta * g, lambda t: float("inf"))


def _times(factor):
    return lambda t, x, g, eta: x * factor


@pytest.mark.parametrize("x0, factor, step", [
    # f(x0) = 5e319 overflows while the gradient and every point stay finite
    (1e160, 1.0, 0),
    # f(x_3) at x_3 = 1e160
    (1e100, 1e20, 3),
    # f(x_2) at x_2 = 1e200, a step before x_4 = 1e400 itself overflows
    (1.0, 1e100, 2),
])
def test_value_overflow_names_its_step(x0, factor, step):
    with pytest.raises(FloatingPointError, match=f"iterate diverged at step {step}$"):
        drive(get_problem("p1"), np.array([x0]), 10, _times(factor), lambda t: 1.0)


_Coupled = namedtuple("_Coupled", "x y z")


def test_value_overflow_at_y_names_its_step():
    # x halves, y grows by 1e20 a step from 1e100: f(y_3) overflows
    start = _Coupled(np.array([1.0]), np.array([1e100]), np.array([1.0]))
    with pytest.raises(FloatingPointError, match="iterate diverged at step 3$"):
        drive(get_problem("p1"), start, 10,
              lambda t, s, g, eta: _Coupled(0.5 * s.x, 1e20 * s.y, s.z), lambda t: 1.0)


def test_value_overflow_at_the_comparator_names_its_round():
    # round 0 loses nothing; round 1's loss at the comparator is 3.4e308
    rounds = problems.ExpertsAdversary([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(FloatingPointError, match="iterate diverged at step 1$"):
        drive(rounds, np.array([0.5, 0.5]), 10, lambda t, x, g, eta: x - eta * g,
              lambda t: 0.1, comparator=np.array([1.7e308, 1.7e308]))


class _OverflowAt(_NanAfter):
    """p2 whose gradient turns to nan at the given call, and whose value
    overflows at one point, as a row of a stacked call as at that point
    alone."""

    def __init__(self, bad_call, point):
        super().__init__(bad_call, diag=(1.0, 4.0))
        self.point = point

    def value(self, x):
        scale = np.where((np.asarray(x) == self.point).all(axis=-1), 1e308, 1.0)
        return super().value(x) * scale * scale


def test_restart_names_the_first_failing_value_across_epochs():
    # kappa = 4: epochs of 8 steps. f overflows at the first epoch's x_1, and
    # the gradient turns to nan at the second epoch's second step, step 9
    x1 = accel.restart_accelerated(get_problem("p2"), [1.0, 1.0], 1e-3).x[1]
    with pytest.raises(FloatingPointError, match="iterate diverged at step 1$"):
        accel.restart_accelerated(_OverflowAt(9, x1), [1.0, 1.0], 1e-300)


def test_final_value_is_taken_outside_the_loop_errstate():
    # the steps' values at 1e100, 1e120 and 1e140 are finite; the final row's
    # at 1e160 overflows with numpy's warning, as a value after the loop does
    with pytest.warns(RuntimeWarning, match="overflow"):
        trace = drive(get_problem("p1"), np.array([1e100]), 3, _times(1e20),
                      lambda t: 1.0)
    assert trace.f[-1] == np.inf and np.isfinite(trace.f[:-1]).all()


# one startable run per method, 12 steps unless given
LAYOUT_RUNS = {
    "gd": dict(problem="p1"),
    "sc-gd": dict(problem="p2"),
    "smooth-gd": dict(problem="p2", feasible_set="ball"),
    "frank-wolfe": dict(problem="p2", feasible_set="simplex", x0=[0.5, 0.5]),
    "wellcond-gd": dict(problem="p3"),
    "mirror-euclidean": dict(problem="p2", feasible_set="ball"),
    "mirror-negentropy": dict(problem="experts-alt", feasible_set="simplex"),
    "agm2": dict(problem="p2"),
    "agm1": dict(problem="p3"),
    "agm2-negentropy": dict(problem="lse3", feasible_set="simplex", steps=3),
    "sc-agm": dict(problem="p3"),
    # two 40-step epochs
    "restart-agm": dict(problem="p3", steps=80),
}
COUPLED = ("agm2", "agm1", "agm2-negentropy", "sc-agm")


def expected_layout(method: str) -> dict:
    """Each column's rows, as an offset from T; None where absent."""
    online = METHODS[method].online
    layout = {"x": 1, "f": 0 if online else 1, "grad": 0, "eta": 0,
              "f_ref": 0 if online else None, "y": None, "z": None, "f_y": None}
    if method in COUPLED:
        layout.update(y=1, z=1, f_y=1)
    if method == "restart-agm":  # the final block is the restart point alone
        layout.update(y=0, z=0, f_y=0)
    return layout


def test_every_method_has_a_layout_run():
    assert sorted(LAYOUT_RUNS) == sorted(METHODS)


@pytest.mark.parametrize("method", METHODS)
def test_column_layout(method):
    cfg = {"steps": 12, **LAYOUT_RUNS[method]}
    trace = run_experiment(RunConfig(method=method, **cfg)).trace
    T = trace.T
    assert T == cfg["steps"]
    dim = trace.x.shape[1]
    for name, extra in expected_layout(method).items():
        col = getattr(trace, name)
        if extra is None:
            assert col is None, name
            continue
        assert col.dtype == np.float64, name
        vector = name in ("x", "grad", "y", "z")
        assert col.shape == ((T + extra, dim) if vector else (T + extra,)), name
    assert trace.final_x.tobytes() == trace.x[-1].tobytes()
