"""Shared run-record format consumed by the certifier and the CLI, and the
one step loop every method runs to produce it."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from gdcert.core import Vector
from gdcert.problems import OnlineAdversary


@dataclass
class StepRecord:
    """One iteration of any method.

    ``f`` is the round loss at the played point (for fixed objectives, the
    objective value), ``f_ref`` the same round loss at the comparator, and
    ``grad`` the gradient the step consumed. Accelerated methods also carry
    the auxiliary ``y``/``z`` points and the value at ``y``, which is the
    point their guarantees speak about.
    """

    t: int
    x: Vector
    f: float
    grad: Vector
    eta: float | None = None
    f_ref: float | None = None
    y: Vector | None = None
    z: Vector | None = None
    f_y: float | None = None
    phi: float | None = None
    step_ok: bool | None = None


@dataclass
class Trace:
    """Iterate history of one run plus the constants the run used.

    ``steps`` holds one record per gradient evaluation (t = 0 .. T-1);
    ``final_x`` (and ``final_y``/``final_z`` for coupled methods) is the state
    after the last update. ``meta`` echoes the configuration and carries the
    constants and flags the certifier needs, e.g. ``meta["constants"]["D"]``
    and ``meta["flags"] = ["trajectory-estimated-D"]``.
    """

    steps: list[StepRecord]
    final_x: Vector
    meta: dict = field(default_factory=dict)
    final_y: Vector | None = None
    final_z: Vector | None = None
    final_f: float | None = None
    final_f_y: float | None = None

    @property
    def T(self) -> int:
        return len(self.steps)

    def xs(self) -> list[Vector]:
        """All iterates x_0 .. x_T including the final point."""
        return [s.x for s in self.steps] + [self.final_x]

    def ys(self) -> list[Vector]:
        out = [s.y for s in self.steps]
        out.append(self.final_y)
        return out

    def zs(self) -> list[Vector]:
        out = [s.z for s in self.steps]
        out.append(self.final_z)
        return out

    def f_values(self) -> np.ndarray:
        vals = [s.f for s in self.steps]
        if self.final_f is not None:
            vals.append(self.final_f)
        return np.asarray(vals)

    def regret(self) -> float:
        """Total loss relative to the comparator over the played rounds."""
        if any(s.f_ref is None for s in self.steps):
            raise ValueError("trace has no comparator values")
        return float(sum(s.f - s.f_ref for s in self.steps))

    @property
    def constants(self) -> dict:
        return self.meta.setdefault("constants", {})

    @property
    def flags(self) -> list:
        return self.meta.setdefault("flags", [])

    def add_flag(self, flag: str) -> None:
        if flag not in self.flags:
            self.flags.append(flag)


def drive(objective, state, T: int, step, eta, comparator: Vector | None = None,
          t0: int = 0) -> tuple[list[StepRecord], object]:
    """Run T steps from ``state``; returns the records and the final state.

    Each step t takes the round loss (``objective`` itself for a fixed
    objective, ``objective.next_loss(t, x)`` for an online adversary),
    evaluates its gradient g once at the played point x, records it, and
    passes that same g to ``step(t, state, g, eta(t))`` for the next state.
    ``state`` is the played point, or for coupled methods an object whose
    ``x``, ``y`` and ``z`` are recorded with the value at ``y``. A
    ``comparator`` adds the round loss there as ``f_ref``. Records are
    numbered from ``t0``; ``step`` and ``eta`` see the local t.

    Overflow, division by zero and invalid operations raise inside the loop,
    and a non-finite gradient, step size or next point is rejected: either
    ends the run with ``FloatingPointError("iterate diverged at step t")``.
    """
    if T < 1:
        raise ValueError("need at least one step")
    online = isinstance(objective, OnlineAdversary)
    coupled = not isinstance(state, np.ndarray)
    x = state.x if coupled else state
    # finite entries times zeros sum to exactly 0, an inf or nan entry to nan:
    # one BLAS call per check whatever the dimension
    zero = np.zeros_like(x)
    steps = []
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for t in range(T):
                loss = objective.next_loss(t, x) if online else objective
                g = loss.gradient(x)
                eta_t = eta(t)
                if not math.isfinite(g.dot(zero) + eta_t):
                    raise FloatingPointError
                f_ref = None if comparator is None else loss.value(comparator)
                if coupled:
                    steps.append(StepRecord(t0 + t, x, loss.value(x), g, eta_t, f_ref,
                                            state.y, state.z, loss.value(state.y)))
                else:
                    steps.append(StepRecord(t0 + t, x, loss.value(x), g, eta_t, f_ref))
                state = step(t, state, g, eta_t)
                x = state.x if coupled else state
                if not math.isfinite(x.dot(zero)):
                    raise FloatingPointError
    except FloatingPointError:
        raise FloatingPointError(f"iterate diverged at step {t0 + t}") from None
    return steps, state
