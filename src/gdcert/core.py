"""Vectors, norms and dual norms, feasible sets, and Euclidean projection.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads.
"""

from __future__ import annotations

import enum
import math

import numpy as np

Vector = np.ndarray

# Absolute membership tolerance per constraint; absorbs round-off from
# projection arithmetic in double precision.
MEMBER_TOL = 1e-12

# Up to this size a Python pass over ``tolist()`` checks finiteness faster
# than ``np.isfinite(v).all()``: 1.3 vs 1.8 us at d = 32, 2.1 vs 1.8 at d = 64.
_LIST_CHECK_MAX = 32


def as_vector(x) -> Vector:
    """Coerce ``x`` to a 1-D float64 array, rejecting NaN/Inf entries; a
    valid 1-D float64 ``ndarray`` is returned as it is, not copied. For data
    where it enters a run (x0, a constructor's vectors): what a step calls
    takes its points and gradients as they are, and ``trace.record`` checks
    them once the run ends."""
    if not (type(x) is np.ndarray and x.dtype == float and x.ndim == 1):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.ndim != 1:
            raise ValueError(f"expected a 1-D vector, got shape {x.shape}")
    if not (all(map(math.isfinite, x.tolist())) if x.size <= _LIST_CHECK_MAX
            else np.isfinite(x).all()):
        raise ValueError("vector has non-finite entries")
    return x


def frozen_scalar(value) -> np.ndarray:
    """``value`` as a read-only 0-d float64 array. A step's scalar operand
    goes in as one: numpy takes a 0-d array on its array path and a Python
    or numpy float on a slower scalar path (about 0.2 us a ufunc call at
    d = 2), for the same IEEE operation and the same bits."""
    a = np.array(value, dtype=float)
    a.flags.writeable = False
    return a


# the floor of ``Simplex.project``
_ZERO = frozen_scalar(0.0)


def as_points(x) -> np.ndarray:
    """One point, coerced by ``as_vector``, or an (n, d) array of recorded
    points, one per row, taken as it is."""
    x = np.asarray(x, dtype=float)
    return x if x.ndim == 2 else as_vector(x)


def check_same_dim(a: Vector, b: Vector) -> None:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")


class Norm(enum.Enum):
    """Ambient norm choices; iterates live in the primal norm, gradients are
    measured in its dual."""

    EUCLIDEAN = "l2"
    L1 = "l1"
    LINF = "linf"

    @property
    def dual(self) -> "Norm":
        return _DUAL[self]


_DUAL = {
    Norm.EUCLIDEAN: Norm.EUCLIDEAN,
    Norm.L1: Norm.LINF,
    Norm.LINF: Norm.L1,
}


def norm_value(kind: Norm, x) -> float:
    """The norm of one vector, or of each row of an (n, d) array of recorded
    vectors, rounded the same way: ``np.vecdot`` matches ``np.dot`` on every
    row bit for bit, and a sum or max along the rows matches the one over a
    single vector."""
    x = as_points(x)
    if kind is Norm.EUCLIDEAN:
        n = np.sqrt(np.vecdot(x, x))
    elif kind is Norm.L1:
        n = np.sum(np.abs(x), axis=-1)
    else:
        n = np.max(np.abs(x), axis=-1)
    return float(n) if x.ndim == 1 else n


def dual_norm(kind: Norm, y) -> float:
    """``max_{||x||=1} <x, y>`` where ``kind`` names the primal norm; one per
    row of an (n, d) array."""
    return norm_value(kind.dual, y)


class FeasibleSet:
    """Constraint geometry: membership, Euclidean projection, and (for
    bounded sets) linear minimization."""

    dim: int | None = None  # None means any dimension is accepted

    def member(self, x, tol: float = MEMBER_TOL) -> bool:
        raise NotImplementedError

    def project(self, x) -> Vector:
        raise NotImplementedError

    @property
    def diameter(self) -> float | None:
        """Euclidean diameter, when the set is bounded."""
        return None

    def lmo(self, g) -> Vector:
        """argmin over the set of ``<g, .>``; only bounded sets support it."""
        raise ValueError(f"{type(self).__name__} is unbounded: no linear minimizer")

    def _vector(self, x) -> Vector:
        """``x`` as a float array (a float64 ``ndarray`` as it is) of the
        set's dimension. Finiteness is the caller's: a run checks x0 once,
        and ``trace.record`` every point it stepped to once the run ends."""
        x = np.asarray(x, dtype=float)
        if self.dim is not None and x.shape[0] != self.dim:
            raise ValueError(f"dimension mismatch: set dim {self.dim}, vector dim {x.shape[0]}")
        return x


class Unconstrained(FeasibleSet):
    """The whole space; projection is the identity."""

    def __init__(self, dim: int | None = None):
        self.dim = dim

    def member(self, x, tol: float = MEMBER_TOL) -> bool:
        self._vector(x)
        return True

    def project(self, x) -> Vector:
        return self._vector(x).copy()

    def __repr__(self):
        return "Unconstrained()"


class Ball(FeasibleSet):
    """Euclidean ball of given center and radius."""

    def __init__(self, center, radius: float):
        self.center = as_vector(center)
        if radius <= 0:
            raise ValueError("ball radius must be positive")
        self.radius = float(radius)
        self.dim = self.center.shape[0]

    def member(self, x, tol: float = MEMBER_TOL) -> bool:
        v = self._vector(x)
        with np.errstate(over="ignore"):  # a distance that overflows is inf
            d = v - self.center
            return math.sqrt(d.dot(d)) <= self.radius + tol

    def project(self, x) -> Vector:
        v = self._vector(x)
        d = v - self.center
        n = math.sqrt(d.dot(d))  # np.linalg.norm's arithmetic on a real vector
        if n <= self.radius:
            # includes the degenerate center point: return it unchanged
            return v
        return self.center + d * (self.radius / n)

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    def lmo(self, g) -> Vector:
        g = self._vector(g)
        n = math.sqrt(g.dot(g))
        if n == 0.0:
            return self.center.copy()
        return self.center - g * (self.radius / n)

    def __repr__(self):
        return f"Ball(center={self.center.tolist()}, radius={self.radius})"


class Box(FeasibleSet):
    """Axis-aligned box with per-coordinate bounds; projection clamps."""

    def __init__(self, lo, hi):
        self.lo = as_vector(lo)
        self.hi = as_vector(hi)
        check_same_dim(self.lo, self.hi)
        if np.any(self.lo > self.hi):
            raise ValueError("box lower bound exceeds upper bound")
        self.dim = self.lo.shape[0]

    def member(self, x, tol: float = MEMBER_TOL) -> bool:
        v = self._vector(x)
        return bool(np.all(v >= self.lo - tol) and np.all(v <= self.hi + tol))

    def project(self, x) -> Vector:
        v = self._vector(x)
        return np.clip(v, self.lo, self.hi)

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.hi - self.lo))

    def lmo(self, g) -> Vector:
        # per coordinate: lower bound when the objective coefficient is
        # non-negative, upper bound otherwise (deterministic at zero)
        g = self._vector(g)
        return np.where(g >= 0, self.lo, self.hi).astype(float)

    def __repr__(self):
        return f"Box(lo={self.lo.tolist()}, hi={self.hi.tolist()})"


class Simplex(FeasibleSet):
    """Probability simplex {x >= 0, sum(x) = 1} in the given dimension."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("simplex dimension must be >= 1")
        self.dim = int(dim)

    def member(self, x, tol: float = MEMBER_TOL) -> bool:
        v = self._vector(x)
        return bool(np.all(v >= -tol) and abs(float(np.sum(v)) - 1.0) <= tol)

    def project(self, x) -> Vector:
        """Sort-then-threshold projection, O(n log n).

        Threshold-index ties break toward the larger support.
        """
        v = self._vector(x)
        s = np.sort(v)[::-1]
        css = np.cumsum(s).tolist()
        # the threshold search on Python floats, whose arithmetic is numpy
        # scalars' without their dispatch; theta goes back in as a 0-d array
        rho = 1
        for j, (s_j, css_j) in enumerate(zip(s.tolist(), css)):
            if s_j + (1.0 - css_j) / (j + 1) >= 0.0:
                rho = j + 1
        theta = np.array((css[rho - 1] - 1.0) / rho)
        return np.maximum(v - theta, _ZERO)

    @property
    def diameter(self) -> float:
        # largest distance is between two vertices
        return float(np.sqrt(2.0)) if self.dim > 1 else 0.0

    def lmo(self, g) -> Vector:
        g = self._vector(g)
        out = np.zeros(self.dim)
        out[int(np.argmin(g))] = 1.0  # argmin takes the lowest index on ties
        return out

    def uniform(self) -> Vector:
        return np.full(self.dim, 1.0 / self.dim)

    def __repr__(self):
        return f"Simplex({self.dim})"

