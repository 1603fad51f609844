"""Analytic test problems with known constants, plus online adversaries.

Each problem exposes a value/gradient oracle together with whatever constants
are known analytically: a gradient bound G, strong convexity alpha, smoothness
beta, and minimizers over the supported feasible sets. Constrained minimizers
of the quadratics are computed once by a projected-gradient solve driven to
machine tolerance and cached on the instance.
"""

from __future__ import annotations

import numpy as np

from gdcert.core import (
    Ball,
    Box,
    FeasibleSet,
    Norm,
    Simplex,
    Unconstrained,
    Vector,
    as_points,
    as_vector,
    norm_value,
)


class Problem:
    """Convex objective with a gradient oracle and declared constants."""

    name: str = "problem"
    dim: int
    lipschitz_G: float | None = None
    strong_convexity_alpha: float | None = None
    smoothness_beta: float | None = None

    def value(self, x):
        """f at one point, as a float, or at each row of an (n, d) array of
        recorded points, as an array rounded row for row as the single-point
        call (``core.as_points``)."""
        raise NotImplementedError

    def gradient(self, x) -> Vector:
        """The gradient at one point. The step loop calls it once per step
        and checks the points and gradients of the whole run once it ends,
        so it does not scan x for non-finite entries."""
        raise NotImplementedError

    @property
    def kappa(self) -> float | None:
        a, b = self.strong_convexity_alpha, self.smoothness_beta
        if a and b:
            return b / a
        return None

    def minimizer_over(self, feasible: FeasibleSet) -> Vector:
        raise NotImplementedError

    def sublevel_diameter(self, x0) -> float | None:
        """Largest distance to the minimizer within the {f <= f(x0)} sublevel
        set, when computable in closed form."""
        return None

    def __repr__(self):
        return f"{type(self).__name__}({self.name})"


def _projected_gradient_minimize(problem: Problem, feasible: FeasibleSet,
                                 x0: Vector, max_iter: int = 60000) -> Vector:
    """Drive a 1/beta projected-gradient iteration to fixed-point tolerance."""
    beta = problem.smoothness_beta
    if beta is None or beta <= 0:
        raise ValueError("projected-gradient solve needs a smoothness constant")
    x = feasible.project(x0)
    for _ in range(max_iter):
        x_next = feasible.project(x - problem.gradient(x) / beta)
        if float(np.max(np.abs(x_next - x))) <= 1e-16:
            return x_next
        x = x_next
    return x


class DiagQuadratic(Problem):
    """f(x) = 0.5 * sum_i q_i (x_i - s_i)^2 with a positive diagonal q.

    alpha = min(q), beta = max(q); the unconstrained minimizer is the shift
    and the optimal value there is 0.
    """

    def __init__(self, diag, shift, name: str = "quadratic"):
        self.diag = as_vector(diag)
        self.shift = as_vector(shift)
        if self.diag.shape != self.shift.shape:
            raise ValueError("diag and shift must share a dimension")
        if np.any(self.diag <= 0):
            raise ValueError("diagonal entries must be positive")
        self.dim = self.diag.shape[0]
        self.strong_convexity_alpha = float(np.min(self.diag))
        self.smoothness_beta = float(np.max(self.diag))
        self.name = name
        self._minimizers: dict[str, Vector] = {}

    def value(self, x):
        d = as_points(x) - self.shift
        v = 0.5 * np.vecdot(self.diag * d, d)
        return float(v) if d.ndim == 1 else v

    def gradient(self, x) -> Vector:
        return self.diag * (x - self.shift)

    def minimizer_over(self, feasible: FeasibleSet) -> Vector:
        if isinstance(feasible, Unconstrained):
            return self.shift.copy()
        key = repr(feasible)
        if key not in self._minimizers:
            if feasible.member(self.shift):
                self._minimizers[key] = feasible.project(self.shift)
            else:
                self._minimizers[key] = _projected_gradient_minimize(
                    self, feasible, self.shift)
        return self._minimizers[key].copy()

    def sublevel_diameter(self, x0) -> float:
        # f(x) >= alpha/2 ||x - x*||^2, with equality along the min-curvature
        # axis, so the sublevel radius is exactly sqrt(2 f(x0) / alpha)
        return float(np.sqrt(2.0 * self.value(x0) / self.strong_convexity_alpha))


class LogSumExp(Problem):
    """f(x) = log sum_i exp(x_i): smooth (beta = 1) but not strongly convex.

    The function is unbounded below on the whole space, so only constrained
    minimizers exist; over the simplex the minimizer is the uniform point by
    symmetry, over a centered ball it sits on the boundary along -1, and over
    a box it is the all-lower-bounds corner (f is increasing per coordinate).
    """

    def __init__(self, dim: int, name: str = "logsumexp"):
        self.dim = int(dim)
        self.smoothness_beta = 1.0
        self.lipschitz_G = 1.0  # gradient is a probability vector
        self.name = name

    def value(self, x):
        v = as_points(x)
        m = np.max(v, axis=-1, keepdims=True)
        lse = m[..., 0] + np.log(np.sum(np.exp(v - m), axis=-1))
        return float(lse) if v.ndim == 1 else lse

    def gradient(self, x) -> Vector:
        v = np.asarray(x, dtype=float)
        e = np.exp(v - v.max())
        return e / e.sum()

    def minimizer_over(self, feasible: FeasibleSet) -> Vector:
        if isinstance(feasible, Simplex):
            return feasible.uniform()
        if isinstance(feasible, Ball):
            d = np.full(self.dim, -1.0 / np.sqrt(self.dim))
            return feasible.center + feasible.radius * d
        if isinstance(feasible, Box):
            return feasible.lo.copy()
        raise ValueError("log-sum-exp has no unconstrained minimizer")


def make_diag_quadratic(diag, shift, name: str = "quadratic") -> DiagQuadratic:
    return DiagQuadratic(diag, shift, name=name)


class LinearLoss(Problem):
    """A single online round: f(x) = <ell, x>."""

    def __init__(self, ell):
        self.ell = as_vector(ell)
        self.dim = self.ell.shape[0]
        self.name = "linear"
        # the gradient: a read-only view of the row, not a copy per call
        self._grad = self.ell.view()
        self._grad.flags.writeable = False

    def value(self, x):
        v = np.vecdot(as_points(x), self.ell)
        return float(v) if v.ndim == 0 else v

    def gradient(self, x) -> Vector:
        return self._grad

    def minimizer_over(self, feasible: FeasibleSet) -> Vector:
        return feasible.lmo(self.ell)


class OnlineAdversary:
    """Produces the round-t convex loss; gradients are uniformly bounded."""

    dim: int

    def next_loss(self, t: int, x) -> Problem:
        raise NotImplementedError

    def round_values(self, X) -> np.ndarray:
        """The round-t loss at row t of the (n, d) points X, t = 0..n-1."""
        raise NotImplementedError

    def grad_bound(self, kind: Norm = Norm.EUCLIDEAN) -> float | None:
        """Uniform bound on the dual norm of every round gradient."""
        return None

    def comparator_over(self, feasible: FeasibleSet, T: int) -> Vector:
        """Best fixed point in hindsight over T rounds."""
        raise NotImplementedError

    @property
    def strongly_convex_alpha(self) -> float | None:
        return None


class FixedAdversary(OnlineAdversary):
    """Plays the same fixed objective every round."""

    def __init__(self, problem: Problem):
        self.problem = problem
        self.dim = problem.dim

    def next_loss(self, t: int, x) -> Problem:
        return self.problem

    def round_values(self, X) -> np.ndarray:
        return self.problem.value(X)

    def grad_bound(self, kind: Norm = Norm.EUCLIDEAN) -> float | None:
        return self.problem.lipschitz_G if kind is Norm.EUCLIDEAN else None

    def comparator_over(self, feasible: FeasibleSet, T: int) -> Vector:
        return self.problem.minimizer_over(feasible)

    @property
    def strongly_convex_alpha(self) -> float | None:
        return self.problem.strong_convexity_alpha


# ``ExpertsAdversary.cumulative``: the row length from which it adds the
# played rows one at a time, and the loss entries a block gathers below it
_LOOP_DIM = 128
_BLOCK_CELLS = 16_384


class ExpertsAdversary(OnlineAdversary):
    """Online linear optimization rounds f_t(x) = <ell_t, x>, entries in [0,1].

    Gradient bounds hold for both the Euclidean and the sup norm since each
    loss vector lies in the unit cube.
    """

    def __init__(self, rows):
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        # written so that NaN, which fails every comparison, is rejected too
        if not ((rows >= 0.0).all() and (rows <= 1.0).all()):
            raise ValueError("loss entries must lie in [0, 1]")
        self.rows = rows
        self.dim = rows.shape[1]
        self._losses = [LinearLoss(r) for r in rows]

    def next_loss(self, t: int, x) -> Problem:
        return self._losses[t % len(self._losses)]

    def round_values(self, X) -> np.ndarray:
        # one call per distinct loss row, over the rounds that play it
        k = len(self._losses)
        values = np.empty(len(X))
        for i, loss in enumerate(self._losses[:len(X)]):
            values[i::k] = loss.value(X[i::k])
        return values

    def grad_bound(self, kind: Norm = Norm.EUCLIDEAN) -> float:
        return max(norm_value(kind.dual, r) for r in self.rows)

    def cumulative(self, T: int) -> Vector:
        """The summed losses of rounds 0..T-1, added in round order onto
        zeros: row by row where a row is long, else a bounded block of
        rounds at a time behind the running total, through one sequential
        ``np.add.accumulate`` (about 5 ns an entry, against about 0.6 us a
        row for the loop)."""
        n, d = self.rows.shape
        if d >= _LOOP_DIM:
            total = np.zeros(d)
            for t in range(T):
                total += self.rows[t % n]
            return total
        step = _BLOCK_CELLS // d
        block = np.zeros((min(step, T) + 1, d))
        for lo in range(0, T, step):
            k = min(step, T - lo)
            self.rows.take(np.arange(lo, lo + k) % n, axis=0, out=block[1:k + 1])
            np.add.accumulate(block[:k + 1], axis=0, out=block[:k + 1])
            block[0] = block[k]
        return block[0].copy()

    def comparator_over(self, feasible: FeasibleSet, T: int) -> Vector:
        # rounds are linear, so the best fixed point is a linear minimizer
        return feasible.lmo(self.cumulative(T))


def make_experts_adversary(loss_matrix) -> ExpertsAdversary:
    return ExpertsAdversary(loss_matrix)


def make_alternating_experts(dim: int = 2) -> ExpertsAdversary:
    """Round-robin unit losses: expert t % dim pays 1, everyone else 0."""
    return ExpertsAdversary(np.eye(dim))


# --- registry -------------------------------------------------------------

def _p1():
    return make_diag_quadratic([1.0], [0.0], name="p1")


def _p2():
    return make_diag_quadratic([1.0, 4.0], [0.0, 0.0], name="p2")


def _p3():
    return make_diag_quadratic([1.0, 100.0], [0.0, 0.0], name="p3")


def _lse3():
    return LogSumExp(3, name="lse3")


PROBLEMS = {
    "p1": _p1,
    "p2": _p2,
    "p3": _p3,
    "lse3": _lse3,
}

ADVERSARIES = {
    "experts-alt": lambda: make_alternating_experts(2),
}


def get_problem(problem_id: str) -> Problem:
    if problem_id not in PROBLEMS:
        raise KeyError(f"unknown problem id {problem_id!r}")
    return PROBLEMS[problem_id]()


def get_adversary(problem_id: str) -> OnlineAdversary:
    if problem_id in ADVERSARIES:
        return ADVERSARIES[problem_id]()
    return FixedAdversary(get_problem(problem_id))
