"""The shared step loop and the trace it records: the recorded gradient is
the one the step consumes, non-finite values end the run cleanly with the
step number, and every method's columns have the row counts of the layout.
The one-gradient-per-step count over every method is in test_harness.py."""

import numpy as np
import pytest

from gdcert import problems
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


def test_error_numbers_steps_from_t0():
    with pytest.raises(FloatingPointError, match="iterate diverged at step 10"):
        record(_NanAfter(3), np.array([1.0]), 10,
               lambda t, x, g, eta: x - eta * g, lambda t: 0.5, t0=7)


def test_non_finite_step_size_is_rejected():
    with pytest.raises(FloatingPointError, match="step 0"):
        drive(get_problem("p1"), np.array([1.0]), 10,
              lambda t, x, g, eta: x - eta * g, lambda t: float("inf"))



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
