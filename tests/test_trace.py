"""The shared step loop and the trace it records: the recorded gradient is
the one the step consumes, non-finite values end the run cleanly with the
step number, and every method's columns have the row counts of the layout.
The one-gradient-per-step count over every method is in test_harness.py."""

import dataclasses
import tracemalloc
from collections import Counter, namedtuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdcert import accel, problems, trace
from gdcert.harness import METHODS, RunConfig, run_experiment
from gdcert.problems import get_problem
from gdcert.trace import Trace, drive, record

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


@pytest.mark.filterwarnings("error")
def test_restart_stops_at_an_overflowing_epoch_start():
    # f(x0) overflows at x0 = 1e160: no epoch runs, and no RuntimeWarning
    # is raised on the way
    with pytest.raises(FloatingPointError, match="iterate diverged at step 0$"):
        accel.restart_accelerated(get_problem("p2"), [1e160, 1e160], 1e-6)
    # kappa = 4: epochs of 8 steps; f overflows at the second epoch's start,
    # the restart point x_8, while every earlier row's value is finite
    x8 = accel.restart_accelerated(get_problem("p2"), [1.0, 1.0], 1e-300,
                                   max_epochs=1).x[8]
    with pytest.raises(FloatingPointError, match="iterate diverged at step 8$"):
        accel.restart_accelerated(_OverflowAt(10**9, x8), [1.0, 1.0], 1e-300)


def test_final_value_is_taken_outside_the_loop_errstate():
    # the steps' values at 1e100, 1e120 and 1e140 are finite; the final row's
    # at 1e160 overflows with numpy's warning, as a value after the loop does
    with pytest.warns(RuntimeWarning, match="overflow"):
        trace = drive(get_problem("p1"), np.array([1e100]), 3, _times(1e20),
                      lambda t: 1.0)
    assert trace.f[-1] == np.inf and np.isfinite(trace.f[:-1]).all()


class _Spoil:
    """Puts ``bad`` into the gradient (its last entry), the step size or the
    next point (its last entry) of the ``at``-th call, counted from 0, to
    that one of the three; every other value passes as it is."""

    def __init__(self, where, at, bad):
        self.where, self.at, self.bad = where, at, bad
        self.calls = Counter()

    def __call__(self, name, value):
        n = self.calls[name]
        self.calls[name] += 1
        if name != self.where or n != self.at:
            return value
        if name == "eta":
            return self.bad
        value = np.array(value, dtype=float)
        value[-1] = self.bad
        return value


class _SpoiledP2(problems.DiagQuadratic):
    """p2, f(x) = (x_1^2 + 4 x_2^2) / 2, whose gradients pass through a
    ``_Spoil``."""

    def __init__(self, spoil):
        super().__init__((1.0, 4.0), np.zeros(2))
        self.spoil = spoil

    def gradient(self, x):
        return self.spoil("grad", super().gradient(x))


_SPOILS = dict(where=st.sampled_from(["grad", "eta", "x"]),
               bad=st.sampled_from([np.nan, np.inf, -np.inf]))


def _spoiled_drive(spoil, T, t0=None):
    # from [1, 1] at step size 0.1 every value is finite, so the first
    # spoiled row names the step
    problem = _SpoiledP2(spoil)
    step = lambda t, x, g, eta: spoil("x", x - eta * g)  # noqa: E731
    eta = lambda t: spoil("eta", 0.1)  # noqa: E731
    if t0 is None:
        return drive(problem, np.array([1.0, 1.0]), T, step, eta)
    return record(problem, np.array([1.0, 1.0]), T, step, eta, t0=t0)


# the loop's block size, drawn small so that the drawn steps fall on both
# sides of a block edge
_BLOCKS = st.integers(1, 4)


def _blocks_of(block):
    return mock.patch.object(trace, "_BLOCK", block)


@settings(max_examples=60, deadline=None)
@given(at=st.integers(0, 11), block=_BLOCKS, **_SPOILS)
def test_drive_names_the_spoiled_step(where, at, bad, block):
    with _blocks_of(block), \
            pytest.raises(FloatingPointError, match=f"^iterate diverged at step {at}$"):
        _spoiled_drive(_Spoil(where, at, bad), 12)


@settings(max_examples=60, deadline=None)
@given(at=st.integers(0, 11), t0=st.integers(0, 100), block=_BLOCKS, **_SPOILS)
def test_record_names_the_spoiled_step_from_t0(where, at, t0, bad, block):
    with _blocks_of(block), \
            pytest.raises(FloatingPointError,
                          match=f"^iterate diverged at step {t0 + at}$"):
        _spoiled_drive(_Spoil(where, at, bad), 12, t0=t0)


@settings(max_examples=60, deadline=None)
@given(at=st.integers(0, 23), block=_BLOCKS, **_SPOILS)
def test_restart_names_the_spoiled_step_across_epochs(where, at, bad, block):
    # kappa = 4: three epochs of 8 steps, numbered on from one to the next;
    # each step makes one gradient, one step size and one agm2_step call
    spoil = _Spoil(where, at, bad)
    agm2_step, eta = accel.agm2_step, accel.AgmSchedule.eta

    def spoiled_step(*args):
        state = agm2_step(*args)
        return dataclasses.replace(state, x=spoil("x", state.x))

    with _blocks_of(block), mock.patch.object(accel, "agm2_step", spoiled_step), \
            mock.patch.object(accel.AgmSchedule, "eta",
                              lambda self, t, beta: spoil("eta", eta(self, t, beta))), \
            pytest.raises(FloatingPointError, match=f"^iterate diverged at step {at}$"):
        accel.restart_accelerated(_SpoiledP2(spoil), [1.0, 1.0], 1e-300, max_epochs=3)


def _outcome(run, block):
    """What ``run()`` gives with blocks of ``block`` steps: the shape and
    bytes of each column it returns, or its exception's type and message."""
    with _blocks_of(block):
        try:
            cols = run()
        except Exception as exc:
            return type(exc), str(exc)
    return {name: (col.shape, col.tobytes()) for name, col in cols.items()}


def _one_block(run):
    return _outcome(run, 10**9)


@settings(max_examples=60, deadline=None)
@given(block=_BLOCKS, t0=st.integers(0, 100))
def test_blocks_record_the_columns_of_one_block(block, t0):
    # a coupled run, whose x, y and z each carry the final row
    start = _Coupled(np.array([1.0, 1.0]), np.array([2.0, 2.0]), np.array([3.0, 3.0]))

    def run():
        return record(get_problem("p2"), start, 12,
                      lambda t, s, g, eta: _Coupled(s.x - eta * g, 0.5 * s.y, s.z + g),
                      lambda t: 0.1 / (t + 1), t0=t0)[0]

    cols = _outcome(run, block)
    assert cols == _one_block(run)
    assert {name: shape for name, (shape, _) in cols.items()} == {
        "x": (13, 2), "grad": (12, 2), "eta": (12,), "y": (13, 2), "z": (13, 2)}


@settings(max_examples=60, deadline=None)
@given(block=_BLOCKS, at=st.one_of(st.none(), st.integers(0, 11)),
       raise_at=st.integers(0, 11), **_SPOILS)
def test_blocks_raise_a_kernel_error_as_one_block(block, at, raise_at, where, bad):
    # the kernel raises its own error at step raise_at; a spoiled row at an
    # earlier step (or at that step's gradient or step size) wins
    error = ValueError("the kernel's own error")
    spoil = _Spoil(where, -1 if at is None else at, bad)

    def step(t, x, g, eta):
        if t == raise_at:
            raise error
        return spoil("x", x - eta * g)

    def run():
        return record(_SpoiledP2(spoil), np.array([1.0, 1.0]), 12, step,
                      lambda t: spoil("eta", 0.1))[0]

    outcome = _outcome(run, block)
    spoil.calls.clear()  # the one-block run counts its calls from 0 again
    assert outcome == _one_block(run)
    spoiled_first = at is not None and (at < raise_at or at == raise_at and where != "x")
    assert outcome == ((FloatingPointError, f"iterate diverged at step {at}")
                       if spoiled_first else (ValueError, "the kernel's own error"))


@settings(max_examples=60, deadline=None)
@given(block=_BLOCKS, at=st.integers(0, 11),
       raise_at=st.one_of(st.none(), st.integers(0, 11)))
def test_blocks_stack_ragged_rows_as_one_block(block, at, raise_at):
    # the gradient of step `at` has an extra entry; the kernel reads two
    # entries and may raise at step raise_at
    class Ragged(problems.DiagQuadratic):
        calls = 0

        def gradient(self, x):
            g = super().gradient(x)
            n, self.calls = self.calls, self.calls + 1
            return np.append(g, 0.0) if n == at else g

    def step(t, x, g, eta):
        if t == raise_at:
            raise RuntimeError("the kernel's own error")
        return x - eta * g[:2]

    def run():
        return record(Ragged((1.0, 4.0), np.zeros(2)), np.array([1.0, 1.0]), 12,
                      step, lambda t: 0.1)[0]

    outcome = _outcome(run, block)
    assert outcome == _one_block(run)
    if raise_at is not None:
        # rows left ragged, or none, before the kernel's error: it is raised
        assert outcome == (RuntimeError, "the kernel's own error")
    else:
        assert outcome == (ValueError, "cannot reshape array of size 25 into shape (12,2)")


def test_spoiling_no_call_leaves_every_step_finite():
    # the properties above count on one call of each kind per step
    spoil = _Spoil("grad", -1, np.nan)
    assert _spoiled_drive(spoil, 12).T == 12
    assert spoil.calls == Counter(grad=12, eta=12, x=12)


@pytest.mark.parametrize("where", ["eta", "x"])
def test_a_run_that_turns_finite_again_still_fails_at_its_row(where):
    # step 2's step size or next point is nan; every later step size is
    # finite and every later step returns the finite point 0.5
    def step(t, x, g, eta):
        return np.array([np.nan]) if where == "x" and t == 2 else np.array([0.5])

    eta = lambda t: np.nan if where == "eta" and t == 2 else 0.5  # noqa: E731
    with pytest.raises(FloatingPointError, match="^iterate diverged at step 2$"):
        drive(get_problem("p1"), np.array([1.0]), 10, step, eta)


def test_a_kernel_fed_a_non_finite_row_reports_the_divergence():
    def step(t, x, g, eta):
        if not np.isfinite(g).all():
            raise ValueError("step kernel fed a non-finite gradient")
        return x - eta * g

    with pytest.raises(FloatingPointError, match="^iterate diverged at step 3$"):
        drive(_NanAfter(3), np.array([1.0]), 10, step, lambda t: 0.5)


def test_a_kernel_error_on_finite_rows_propagates_unchanged():
    error = ValueError("the kernel's own error")

    def step(t, x, g, eta):
        if t == 2:
            raise error
        return x - eta * g

    with pytest.raises(ValueError) as info:
        drive(get_problem("p1"), np.array([1.0]), 10, step, lambda t: 0.5)
    assert info.value is error


def test_a_kernel_error_on_ragged_rows_propagates_unchanged():
    # a gradient of the wrong length, which the step rejects: the rows cannot
    # be stacked, and the step's error is the one raised
    class Ragged(problems.DiagQuadratic):
        def gradient(self, x):
            return np.append(super().gradient(x), 0.0)

    def step(t, x, g, eta):
        if g.shape != x.shape:
            raise ValueError("gradient and point differ in length")
        return x - eta * g

    with pytest.raises(ValueError, match="differ in length"):
        drive(Ragged((1.0,), np.zeros(1)), np.array([1.0]), 10, step, lambda t: 0.5)


def test_from_rows_takes_the_recorded_arrays_as_they_are():
    p2 = get_problem("p2")
    start = _Coupled(np.array([1.0, 1.0]), np.array([2.0, 2.0]), np.array([3.0, 3.0]))
    cols, final = record(p2, start, 5,
                         lambda t, s, g, eta: _Coupled(s.x - eta * g, 0.5 * s.y, s.z),
                         lambda t: 0.1)
    assert {name: col.shape for name, col in cols.items()} == {
        "x": (6, 2), "grad": (5, 2), "eta": (5,), "y": (6, 2), "z": (6, 2)}
    assert cols["x"][-1].tobytes() == final.x.tobytes()
    trace = Trace.from_rows(cols, p2)
    for name, col in cols.items():
        assert np.shares_memory(getattr(trace, name), col), name


def test_record_holds_its_columns_and_one_block():
    # tracemalloc's peak while p3 agm2 records 20,000 steps: the columns it
    # returns (x, y, z and grad at d = 2, and eta: 1.44 MB) plus one block
    # of row objects, about 600 B a step. Keeping every row's objects to
    # the end of the run would peak at about 9 times the columns
    seen = {}

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cols, state = record(*args, **kwargs)
            seen["peak"] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        seen["nbytes"] = sum(col.nbytes for col in cols.values())
        return cols, state

    with mock.patch.object(trace, "record", measured):
        run_experiment(RunConfig(problem="p3", method="agm2", steps=20_000))
    assert seen["nbytes"] == 8 * (3 * 20_001 * 2 + 20_000 * 2 + 20_000)
    assert seen["peak"] <= 2 * seen["nbytes"]


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
