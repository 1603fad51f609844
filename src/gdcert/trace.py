"""Shared run-record format consumed by the certifier and the CLI, and the
one step loop every method runs to produce it."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from gdcert.core import Vector
from gdcert.problems import OnlineAdversary

# the columns holding one vector per row; the others hold one float
_VECTORS = ("x", "grad", "y", "z")

# the errstate of the step loop, and of the values of the steps it recorded
_RAISE = dict(over="raise", divide="raise", invalid="raise")


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
    def from_rows(cls, rows: dict, objective, comparator: Vector | None = None,
                  t0: int = 0) -> Trace:
        """Stack each column's list of rows once into one array, then add the
        values at the stacked points, one ``value`` call per column: ``f`` at
        ``x`` and ``f_y`` at ``y`` (on an online objective, round t's loss at
        the T step rows; on a fixed objective, the objective at every row),
        and ``f_ref``, round t's loss at ``comparator``.

        A step row t whose value overflows, divides by zero or is invalid
        raises ``FloatingPointError("iterate diverged at step t0 + t")`` at
        the first such t, as inside the step loop; the final row is valued
        outside that errstate, as after the loop."""
        dim = len(rows["x"][0])
        cols = {name: _stack(col, dim) if name in _VECTORS
                else np.array(col, dtype=float) for name, col in rows.items()}
        cols.update(_values(objective, cols, comparator, t0))
        return cls(**cols)

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
    # one concatenation copies the rows faster than np.array on the list:
    # 0.10 against 0.24 us per row at d = 2
    if not rows:
        return np.zeros((0, dim))
    return np.concatenate(rows, dtype=float).reshape(len(rows), dim)


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
    """Run T steps from ``state``; returns each column's T rows as a list,
    and the final state.

    Each step t takes the round loss (``objective`` itself for a fixed
    objective, ``objective.next_loss(t, x)`` for an online adversary),
    evaluates its gradient g once at the played point x, records x, g and
    the step size, and passes that same g to ``step(t, state, g, eta(t))``
    for the next state. ``state`` is the played point, or for coupled
    methods an object whose ``x``, ``y`` and ``z`` are recorded too. No step
    reads a value, so none is taken here: ``Trace.from_rows`` takes them
    after the loop. ``t0`` is the step number of the first step in the error
    message; ``step`` and ``eta`` see the local t.

    Overflow, division by zero and invalid operations raise inside the loop,
    and a non-finite gradient, step size or next point is rejected: either
    ends the run with ``FloatingPointError("iterate diverged at step t")``,
    unless the value of an earlier row (at x, at y, or at ``comparator``)
    fails the same way, which names that row's step instead.
    """
    if T < 1:
        raise ValueError("need at least one step")
    online = isinstance(objective, OnlineAdversary)
    coupled = not isinstance(state, np.ndarray)
    x = state.x if coupled else state
    # finite entries times zeros sum to exactly 0, an inf or nan entry to nan:
    # one BLAS call per check whatever the dimension
    zero = np.zeros_like(x)
    xs, grads, etas = [], [], []
    rows = {"x": xs, "grad": grads, "eta": etas}
    if coupled:
        ys, zs = rows["y"], rows["z"] = [], []
    try:
        with np.errstate(**_RAISE):
            for t in range(T):
                loss = objective.next_loss(t, x) if online else objective
                g = loss.gradient(x)
                eta_t = eta(t)
                if not math.isfinite(g.dot(zero) + eta_t):
                    raise FloatingPointError
                xs.append(x)
                grads.append(g)
                etas.append(eta_t)
                if coupled:
                    ys.append(state.y)
                    zs.append(state.z)
                state = step(t, state, g, eta_t)
                x = state.x if coupled else state
                if not math.isfinite(x.dot(zero)):
                    raise FloatingPointError
        return rows, state
    except FloatingPointError:
        pass
    if t > 0:
        # the values of the complete rows before t, which raises at the
        # first one that fails
        Trace.from_rows({name: col[:t] for name, col in rows.items()},
                        objective, comparator, t0)
    raise FloatingPointError(f"iterate diverged at step {t0 + t}")


def drive(objective, state, T: int, step, eta,
          comparator: Vector | None = None) -> Trace:
    """``record`` T steps, add the final state's row (x, and y, z of a
    coupled state), and stack the rows with their values
    (``Trace.from_rows``)."""
    rows, state = record(objective, state, T, step, eta, comparator)
    coupled = "y" in rows
    rows["x"].append(state.x if coupled else state)
    if coupled:
        rows["y"].append(state.y)
        rows["z"].append(state.z)
    return Trace.from_rows(rows, objective, comparator)
