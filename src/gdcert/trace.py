"""Shared run-record format consumed by the certifier and the CLI, and the
one step loop every method runs to produce it."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from gdcert.core import Vector
from gdcert.problems import OnlineAdversary

# the columns holding one vector per row; the others hold one float
_VECTORS = ("x", "grad", "y", "z")

# the errstate of the step loop, and of the values of the steps it recorded
_RAISE = dict(over="raise", divide="raise", invalid="raise")

# steps whose rows the loop keeps as Python objects (an ndarray per vector,
# a float per step size) before copying them into the run's columns. A row
# object costs about 100 B beside its data, 16 B at d = 2, so a run holds
# its columns plus at most one block of them; at 1,024 steps that block is
# under a megabyte, and its copy (one concatenate per column) costs
# nothing next to the steps
_BLOCK = 1024


@dataclass
class Trace:
    """Iterate history of one run as float64 columns, row t for the point t,
    plus the constants the run used.

    ``x`` is the played point, ``f`` the round loss there (for fixed
    objectives, the objective value), ``grad`` the gradient step t consumed,
    ``eta`` its step size and ``f_ref`` the round loss at the comparator.
    Coupled methods also record the auxiliary ``y``/``z`` points and the
    value at ``y``, ``f_y``, which is the point their guarantees speak
    about. A column's row count says where it is recorded: T + 1 rows when
    the final state carries it too (``x``; ``f`` and ``f_y`` on a fixed
    objective; ``y`` and ``z`` of a coupled run), T rows when only the steps
    do, and None when the method never records it. The step loop records
    the points; ``from_rows`` takes ``f``, ``f_y`` and ``f_ref`` after it,
    with one ``value`` call per column over the stacked rows.

    The certifier reads the columns and never writes them: per-step verdicts
    are in its report, as are the constants only a proof reads. ``meta``
    echoes the configuration and carries the run's constants and flags, e.g.
    ``meta["constants"]["beta"]`` and ``meta["flags"] = ["comparator-reference"]``.
    """

    x: np.ndarray
    f: np.ndarray
    grad: np.ndarray
    eta: np.ndarray
    f_ref: np.ndarray | None = None
    y: np.ndarray | None = None
    z: np.ndarray | None = None
    f_y: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    @classmethod
    def from_rows(cls, columns: dict, objective, comparator: Vector | None = None,
                  t0: int = 0) -> Trace:
        """The trace of ``columns``, the float64 arrays ``record`` stacked,
        taken as they are (not copied), plus the values at their points, one
        ``value`` call per column: ``f`` at ``x`` and ``f_y`` at ``y`` (on an
        online objective, round t's loss at the T step rows; on a fixed
        objective, the objective at every row), and ``f_ref``, round t's loss
        at ``comparator``.

        A step row t whose value overflows, divides by zero or is invalid
        raises ``FloatingPointError("iterate diverged at step t0 + t")`` at
        the first such t, as inside the step loop; the final row is valued
        outside that errstate, as after the loop."""
        return cls(**columns, **_values(objective, columns, comparator, t0))

    @property
    def T(self) -> int:
        return self.x.shape[0] - 1

    @property
    def final_x(self) -> Vector:
        return self.x[-1]

    def final(self, name: str):
        """Row T of a column; None where the final state does not carry it."""
        col = getattr(self, name)
        return col[self.T] if col is not None and len(col) > self.T else None

    @property
    def constants(self) -> dict:
        return self.meta.setdefault("constants", {})

    @property
    def flags(self) -> list:
        return self.meta.get("flags", [])  # reading adds no key

    def add_flag(self, flag: str) -> None:
        if flag not in self.flags:
            self.meta.setdefault("flags", []).append(flag)


def _stack(rows: list, dim: int) -> np.ndarray:
    # a column's whole list of rows at once, for rows that did not stack
    # block by block: a ragged list raises numpy's error for the whole list
    if not rows:
        return np.zeros((0, dim))
    return np.concatenate(rows, dtype=float).reshape(len(rows), dim)


class _Blocks:
    """The float64 columns of one run, allocated once, and the rows the
    loop recorded since the last ``flush``: ``rows`` maps each column's
    name to its list, which holds the state's row (``x``, ``y``, ``z``) or
    nothing (``grad``, ``eta``) when the run starts, and gains one row per
    step."""

    def __init__(self, rows: dict, T: int, dim: int):
        self.rows, self.dim = rows, dim
        self.cols = {name: np.empty((T + len(col), dim) if name in _VECTORS
                                    else T + len(col))
                     for name, col in rows.items()}
        self.filled = dict.fromkeys(rows, 0)
        self.ragged = False

    def flush(self) -> None:
        """Copy each list's rows into the column after its filled rows and
        clear the list. A block that does not stack as one ``_stack`` would
        (ragged rows) ends the copying: its rows and every later one stay
        in the lists, for ``columns`` to stack as a whole."""
        if self.ragged:
            return
        for name, rows in self.rows.items():
            if not rows:
                continue
            lo = self.filled[name]
            hi = lo + len(rows)
            col = self.cols[name][lo:hi]
            try:
                if name in _VECTORS:
                    np.concatenate(rows, out=col.reshape(-1))
                else:
                    etas = np.array(rows, dtype=float)
                    if etas.shape != col.shape:
                        raise ValueError("step sizes are not scalars")
                    col[:] = etas
            except (TypeError, ValueError):
                self.ragged = True
                return
            self.filled[name] = hi
            rows.clear()

    def columns(self) -> dict:
        """Each column's filled rows, not copied. After a ragged block, each
        column of all its rows, stacked at once as the loop's lists would
        be, which raises the same ``TypeError`` or ``ValueError`` there."""
        if not self.ragged:
            return {name: col[:self.filled[name]] for name, col in self.cols.items()}
        whole = {name: list(col[:self.filled[name]]) + self.rows[name]
                 for name, col in self.cols.items()}
        return {name: _stack(rows, self.dim) if name in _VECTORS
                else np.array(rows, dtype=float) for name, rows in whole.items()}


def _values(objective, cols: dict, comparator: Vector | None, t0: int) -> dict:
    steps = len(cols["eta"])
    online = isinstance(objective, OnlineAdversary)
    value = objective.round_values if online else objective.value
    points = {"f": cols["x"]}
    if "y" in cols:
        points["f_y"] = cols["y"]
    if comparator is not None:
        points["f_ref"] = np.broadcast_to(comparator, (steps, len(comparator)))
    values, failed = {}, []
    for name, X in points.items():
        if online:
            X = X[:steps]
        col = _evaluate(value, X)
        if col is None:
            t = _first_failing_row(value, X)
            if t < steps:
                failed.append(t)
                continue
            col = np.append(value(X[:steps]), value(X[steps]))
        values[name] = col
    if failed:
        raise FloatingPointError(f"iterate diverged at step {t0 + min(failed)}")
    return values


def _evaluate(value, X):
    """``value(X)`` under the step loop's errstate; None when it raises."""
    try:
        with np.errstate(**_RAISE):
            return value(X)
    except FloatingPointError:
        return None


def _first_failing_row(value, X) -> int:
    # bisect on prefixes, which start at row 0 as the online rounds do:
    # X[:lo] evaluates, X[:hi] raises
    lo, hi = 0, len(X)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _evaluate(value, X[:mid]) is None:
            hi = mid
        else:
            lo = mid
    return lo


def record(objective, state, T: int, step, eta, comparator: Vector | None = None,
           t0: int = 0) -> tuple[dict, object]:
    """Run T steps from ``state``; returns each column as one float64 array,
    and the final state. ``x`` (and ``y`` and ``z`` of a coupled state) has
    T + 1 rows, the final state's included; ``grad`` and ``eta`` have T.

    Each step t takes the round loss (``objective`` itself for a fixed
    objective, ``objective.next_loss(t, x)`` for an online adversary),
    evaluates its gradient g once at the played point x, records x, g and
    the step size, and passes that same g to ``step(t, state, g, eta(t))``
    for the next state. ``state`` is the played point, or for coupled
    methods an object whose ``x``, ``y`` and ``z`` are recorded too. No step
    reads a value, so none is taken here: ``Trace.from_rows`` takes them
    after the loop. ``t0`` is the step number of the first step in the error
    message; ``step`` and ``eta`` see the local t.

    Overflow, division by zero and invalid operations raise inside the loop.
    Finiteness is checked once, when the loop ends (normally or by any
    exception): each column is stacked, and the first step t whose g_t,
    eta_t or next point x_{t+1} is not finite ends the run with
    ``FloatingPointError("iterate diverged at step t0 + t")``, as does a
    ``FloatingPointError`` raised at step t with no such row before it;
    either way the value of an earlier row (at x, at y, or at
    ``comparator``) that fails first names its step instead. Any other
    exception propagates unchanged when no non-finite row came before it.

    So a step may be fed a non-finite row that did not raise (a schedule's
    Python-float step size, a user oracle's gradient), and the loop goes on
    to step T. That is bounded because no step kernel loops without bound on
    its input (``Simplex.project`` loops over the dimension); keep it so.

    Memory: the loop runs in blocks of ``_BLOCK`` steps. The columns are
    allocated once, for T steps, and each block's rows are copied into
    them when it ends (and when the loop ends), so a run holds its columns
    plus at most one block of row objects. ``Trace.from_rows`` takes the
    columns as they are: no column is copied twice.
    """
    if T < 1:
        raise ValueError("need at least one step")
    online = isinstance(objective, OnlineAdversary)
    coupled = not isinstance(state, np.ndarray)
    x = state.x if coupled else state
    xs, grads, etas = [x], [], []
    rows = {"x": xs, "grad": grads, "eta": etas}
    if coupled:
        ys, zs = rows["y"], rows["z"] = [state.y], [state.z]
    blocks = _Blocks(rows, T, len(x))
    failure = None
    try:
        with np.errstate(**_RAISE):
            for start in range(0, T, _BLOCK):
                for t in range(start, min(start + _BLOCK, T)):
                    loss = objective.next_loss(t, x) if online else objective
                    g = loss.gradient(x)
                    eta_t = eta(t)
                    grads.append(g)
                    etas.append(eta_t)
                    state = step(t, state, g, eta_t)
                    x = state.x if coupled else state
                    xs.append(x)
                    if coupled:
                        ys.append(state.y)
                        zs.append(state.z)
                blocks.flush()
    except Exception as exc:
        failure = exc
    blocks.flush()
    try:
        cols = blocks.columns()
    except (TypeError, ValueError):
        if failure is None:
            raise
        raise failure from None  # rows left ragged, which its error explains
    first = _first_non_finite(cols)
    if first is None:
        if failure is None:
            return cols, state
        if not isinstance(failure, FloatingPointError):
            raise failure
        first = t
    if first > 0:
        # the values of the complete rows before that step, which raises at
        # the first one that fails
        Trace.from_rows({name: col[:first] for name, col in cols.items()},
                        objective, comparator, t0)
    raise FloatingPointError(f"iterate diverged at step {t0 + first}")


def _first_non_finite(cols: dict) -> int | None:
    """The first step t whose gradient, step size or next point (row t + 1
    of ``x``) has a non-finite entry; None when every row is finite."""
    first = None
    for col in (cols["grad"], cols["eta"], cols["x"][1:]):
        ok = np.isfinite(col)
        if not ok.all():
            t = int(ok.argmin()) // ok[0].size  # argmin: the first False
            first = t if first is None else min(first, t)
    return first


def drive(objective, state, T: int, step, eta,
          comparator: Vector | None = None) -> Trace:
    """``record`` T steps and add the values at its columns
    (``Trace.from_rows``, which takes the arrays as they are)."""
    cols, _ = record(objective, state, T, step, eta, comparator)
    return Trace.from_rows(cols, objective, comparator)
