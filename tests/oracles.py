"""Independent reference implementations used to cross-check the library.

Everything here deliberately avoids the code paths it verifies: projections
are solved by exhaustive support enumeration, minimizers by grid refinement,
the l1 smooth step is checked by its optimality conditions, the projected
step's inequality and the one-step lemmas (the Pythagorean inequality and its
Bregman form, the descent lemma, the multiplicative-weights closed form,
central differences) by fresh oracle calls, the broken potential's increasing
steps by exact rational arithmetic on the closed-form iterates, a
certificate by a scalar loop over the recorded points, and vector
validation by numpy's own coercion.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


def as_vector_reference(x) -> np.ndarray:
    """``core.as_vector`` as it was before its fast path: coerce with
    ``np.asarray``, then test every entry with ``np.isfinite``."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    return v


class Constant:
    """The step size schedule eta(t) = ``value``, for online runs that a test
    drives with a step size of its own choosing."""

    def __init__(self, value: float):
        self.value = value

    def eta(self, t: int) -> float:
        return self.value


def cumulative_loop(rows, T: int) -> np.ndarray:
    """``ExpertsAdversary.cumulative`` as a loop over the rounds: the rows
    played cyclically, added one round at a time onto zeros."""
    rows = np.asarray(rows, dtype=float)
    total = np.zeros(rows.shape[1])
    for t in range(T):
        total += rows[t % rows.shape[0]]
    return total


def weighted_average_loop(x) -> np.ndarray:
    """``descent.weighted_average`` as a loop over the steps: the iterates
    x_1 .. x_T of the (T + 1, d) column, each weighted by 2t / (T(T + 1)),
    added one step at a time onto zeros."""
    x = np.asarray(x, dtype=float)
    T = x.shape[0] - 1
    total = np.zeros(x.shape[1])
    for t in range(1, T + 1):
        total += 2.0 * t / (T * (T + 1.0)) * x[t]
    return total


def simplex_project_enumerate(y) -> np.ndarray:
    """Exact simplex projection by enumerating KKT support sets.

    For each nonempty support S, the candidate equalizes the shift
    (1 - sum y_S)/|S| on S and zeroes the rest; the feasible candidate
    closest to y is the projection. Exponential in dimension, fine for the
    small instances tested here.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    best, best_d = None, np.inf
    for size in range(1, n + 1):
        for support in itertools.combinations(range(n), size):
            idx = list(support)
            shift = (1.0 - np.sum(y[idx])) / size
            cand = np.zeros(n)
            cand[idx] = y[idx] + shift
            if np.any(cand < -1e-15):
                continue
            d = float(np.sum((cand - y) ** 2))
            if d < best_d:
                best, best_d = cand, d
    return np.maximum(best, 0.0)


def grid_refine_box(objective, lo, hi, rounds: int = 14, pts: int = 33):
    """Minimize a vectorized objective over a box by iterated grid shrinking.

    ``objective`` maps an array of shape (dim, ...) to values of shape (...).
    Returns the final grid argmin.
    """
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    dim = lo.shape[0]
    lo0, hi0 = lo.copy(), hi.copy()
    best = None
    for _ in range(rounds):
        axes = [np.linspace(lo[i], hi[i], pts) for i in range(dim)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=0)
        vals = objective(mesh)
        idx = np.unravel_index(np.argmin(vals), vals.shape)
        best = np.array([axes[i][idx[i]] for i in range(dim)])
        width = (hi - lo) / (pts - 1)
        lo = np.maximum(best - 2 * width, lo0)
        hi = np.minimum(best + 2 * width, hi0)
    return best


def grid_refine_simplex(objective, n: int, rounds: int = 16, pts: int = 33):
    """Minimize over the n-simplex: grid over the first n-1 coordinates, the
    last coordinate is implied; infeasible corners get +inf."""

    def boxed(mesh):
        last = 1.0 - mesh.sum(axis=0)
        full = np.concatenate([mesh, last[None]], axis=0)
        vals = objective(full)
        return np.where(last < -1e-15, np.inf, vals)

    free = grid_refine_box(boxed, np.zeros(n - 1), np.ones(n - 1),
                           rounds=rounds, pts=pts)
    out = np.append(free, max(1.0 - free.sum(), 0.0))
    return out / out.sum()


def projected_smoothness_gap(feasible, problem, x, y, beta: float) -> float:
    """Slack in the workhorse inequality of projected smooth descent, from
    fresh oracle calls. For the projected step x+ from x and any member y:
        f(x+) - f(y) <= beta <x - x+, x - y> - (beta/2) ||x - x+||^2.
    Returns LHS - RHS, which must be non-positive."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (feasible.member(x) and feasible.member(y)):
        raise ValueError("both points must belong to the feasible set")
    x_next = feasible.project(x - problem.gradient(x) / beta)
    lhs = problem.value(x_next) - problem.value(y)
    d = x - x_next
    rhs = beta * float(np.dot(d, x - y)) - 0.5 * beta * float(np.dot(d, d))
    return lhs - rhs


# --- the one-step lemmas of the proofs ----------------------------------------
#
# Each returns the slack of one inequality. Projected points come from the
# caller, so a test measures the library's projections against the lemma.

def pythagorean_gap(a, b_prime, b) -> float:
    """<a - b, b' - b> for b the projection of b' onto a convex set: the
    supporting hyperplane at b separates b' from the set, so this is
    non-positive for every member a."""
    a, b_prime, b = (np.asarray(v, dtype=float) for v in (a, b_prime, b))
    return float(np.dot(a - b, b_prime - b))


def generalized_pythagorean_gap(map_id: str, a, b_prime, b) -> tuple[float, float]:
    """Both slacks of the Bregman projection inequality, for b the Bregman
    projection of b' under the map ("euclidean" or "negentropy"):
        (<grad h(b') - grad h(b), a - b>,  D(a||b') - D(a||b) - D(b||b')).
    The first is non-positive and the second non-negative for every member a."""
    a, b_prime, b = (np.asarray(v, dtype=float) for v in (a, b_prime, b))
    shift = b_prime - b if map_id == "euclidean" else np.log(b_prime / b)
    second = (_divergence(map_id, a, b_prime) - _divergence(map_id, a, b)
              - _divergence(map_id, b, b_prime))
    return float(np.dot(shift, a - b)), second


def hedge_closed_form(x0, cumulative_grads, eta: float) -> np.ndarray:
    """The multiplicative-weights point after absorbing the summed gradients:
    x_i proportional to x0_i exp(-eta * sum of gradients), normalized. The
    smallest sum is subtracted first, which the normalization absorbs."""
    total = np.asarray(cumulative_grads, dtype=float)
    w = np.asarray(x0, dtype=float) * np.exp(-eta * (total - total.min()))
    return w / w.sum()


def descent_lemma_gap(problem, x, beta: float) -> float:
    """f(x - g/beta) - [f(x) - ||g||^2 / (2 beta)] with g the gradient at x:
    non-positive for every beta-smooth objective."""
    x = np.asarray(x, dtype=float)
    g = problem.gradient(x)
    bound = problem.value(x) - float(np.dot(g, g)) / (2.0 * beta)
    return problem.value(x - g / beta) - bound


def gradient_check(problem, x, h: float) -> float:
    """Largest coordinatewise deviation of the central difference with step
    h from the problem's gradient at x, relative to 1 + |gradient|."""
    x = np.asarray(x, dtype=float)
    g = problem.gradient(x)
    cd = np.array([(problem.value(x + e) - problem.value(x - e)) / (2.0 * h)
                   for e in h * np.eye(x.size)])
    return float(np.max(np.abs(cd - g) / (1.0 + np.abs(g))))


def l1_prox_is_optimal(y, x, g, beta: float, tol: float = 1e-12) -> bool:
    """Whether the member y minimizes <g, y-x> + (beta/2) ||y - x||_1^2 over
    the simplex. The objective is convex and the moves along e_a - e_b with
    y_b > 0 decompose every feasible direction conformally, so y is optimal
    when none of them descends. The one-sided derivative along e_a - e_b is
    g_a - g_b + beta ||y - x||_1 (s_a + s_b), with s_a the sign of (y - x)_a,
    s_b the sign of (x - y)_b, and 1 where the difference is zero."""
    y, x, g = (np.asarray(v, dtype=float) for v in (y, x, g))
    d = y - x
    l1 = float(np.sum(np.abs(d)))
    up = np.where(d == 0.0, 1.0, np.sign(d))
    down = np.where(d == 0.0, 1.0, -np.sign(d))
    slope = g[:, None] - g[None, :] + beta * l1 * (up[:, None] + down[None, :])
    scale = 1.0 + float(np.max(np.abs(g))) + beta * l1
    return bool(np.all(slope[:, y > 0] >= -tol * scale))


def broken_potential_increases(q, beta, x0, T: int) -> set:
    """Steps t in [0, T) at which the failed attempt's potential strictly
    increases, Phi_{t+1} > Phi_t, under plain 1/beta descent on the diagonal
    quadratic f(x) = 0.5 * sum_i q_i x_i^2 (minimizer 0, optimal value 0).

    The broken potential is Phi_t = t(t+1) f(x_t) + 2 beta ||x_t||^2, and
    descent has the closed form x_{t,i} = (1 - q_i/beta)^t x0_i, so

        Phi_t = sum_i [t(t+1) q_i/2 + 2 beta] (1 - q_i/beta)^(2t) x0_i^2.

    Every input is converted to a Fraction (exact for doubles) and Phi_t is
    evaluated without rounding; no code from the certifier is used.
    """
    if len(q) != len(x0):
        raise ValueError("q and x0 must share a dimension")
    q = [Fraction(v) for v in q]
    beta = Fraction(beta)
    # w_i = (1 - q_i/beta)^(2t) x0_i^2, advanced by one contraction per step
    w = [Fraction(v) ** 2 for v in x0]
    shrink = [(1 - qi / beta) ** 2 for qi in q]
    phis = []
    for t in range(T + 1):
        phis.append(sum((t * (t + 1) * qi / 2 + 2 * beta) * wi
                        for qi, wi in zip(q, w)))
        w = [wi * s for wi, s in zip(w, shrink)]
    return {t for t in range(T) if phis[t + 1] > phis[t]}


def sample_member(rng, feasible, dim: int) -> np.ndarray:
    """Draw a point from (roughly uniform over) the feasible set."""
    from gdcert.core import Ball, Box, Simplex, Unconstrained

    if isinstance(feasible, Unconstrained):
        return rng.normal(size=dim)
    if isinstance(feasible, Ball):
        d = rng.normal(size=dim)
        d /= np.linalg.norm(d)
        r = feasible.radius * rng.uniform() ** (1.0 / dim)
        return feasible.center + r * d
    if isinstance(feasible, Box):
        return rng.uniform(feasible.lo, feasible.hi)
    if isinstance(feasible, Simplex):
        return rng.dirichlet(np.ones(feasible.dim))
    raise TypeError(f"cannot sample from {type(feasible).__name__}")


# --- scalar replay of a certificate ------------------------------------------
#
# The certifier evaluates every potential, allowance and check over whole
# columns of the trace. This replays the same argument one point at a time,
# the way the paper states it: per-point np.dot for squared norms, Python
# floats and Python sums, and nothing from gdcert.certify.

AMORTIZED = {"distance", "sc-distance", "bregman"}
COUPLED = {"agm", "agm-bregman", "agm-sc"}
SQUARED_DISTANCE = {"distance", "sc-distance", "value-distance", "agm", "agm-sc",
                    "failed"}
DIVERGENCE = {"bregman", "agm-bregman"}
# Phi_t = (1 + gamma)^t psi_t, checked on psi_t
CONTRACTING = {"exp-value", "agm-sc"}


def _sq(d) -> float:
    return float(np.dot(d, d))


def _divergence(map_id: str, y, x):
    """D_h(y || x); None when x lies outside the entropy interior."""
    if map_id == "euclidean":
        return 0.5 * _sq(y - x)
    if np.any(x <= 0):
        return None
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(y > 0, y * np.log(y / x), 0.0)
    return float(np.sum(terms) + np.sum(x) - np.sum(y))


def _dual(map_id: str, g) -> float:
    """The map's dual norm: l2 for the Euclidean map, linf for entropy."""
    return math.sqrt(_sq(g)) if map_id == "euclidean" else float(np.max(np.abs(g)))


def _growth(gamma: float, t: int) -> float:
    return float(np.exp(t * np.log1p(gamma)))


def _psi(kind: str, c: dict, gap, dist) -> float:
    """The bracket psi_t of a contracting potential."""
    return gap if kind == "exp-value" else gap + 0.5 * c["alpha"] * dist


def _phi(kind: str, c: dict, t: int, gap, dist) -> float:
    if kind in CONTRACTING:
        # psi_t's zero where it is zero, also past the overflow of the factor
        psi = _psi(kind, c, gap, dist)
        return psi if psi == 0 else _growth(c["gamma"], t) * psi
    if kind == "distance":
        return dist / (2.0 * c["eta"])
    if kind == "sc-distance":
        return 0.5 * t * c["alpha"] * dist
    if kind == "value":
        return t * gap
    if kind == "value-scaled":
        return t * (t + 1.0) * gap
    if kind == "value-distance":
        return t * gap + 0.5 * c["beta"] * dist
    if kind == "bregman":
        return dist / c["eta"]
    if kind in ("agm", "failed"):
        return t * (t + 1.0) * gap + 2.0 * c["beta"] * dist
    if kind == "agm-bregman":
        return t * (t + 1.0) * gap + 4.0 * c["beta"] / c["alpha_h"] * dist
    raise KeyError(kind)


def _allowance(kind: str, c: dict, map_id: str, eta: float, grad, t: int) -> float:
    if kind == "distance":
        return 0.5 * c["eta"] * c["G"] ** 2
    if kind == "sc-distance":
        return 0.5 * eta * c["G"] ** 2
    if kind == "value":
        return c["beta"] * c["D"] ** 2 / (2.0 * (t + 1.0))
    if kind == "value-scaled":
        return 2.0 * c["beta"] * c["D"] ** 2 * (t + 1.0) / (t + 2.0)
    if kind == "value-distance":
        return 0.0 if c.get("projected") else -(t / (2.0 * c["beta"])) * _sq(grad)
    if kind == "bregman":
        gd = _dual(map_id, grad)
        return 0.5 * c["eta"] * gd * gd / c["alpha_h"]
    return 0.0


def _bound(label, lhs, rhs, tol, note="") -> tuple:
    return (label, float(lhs), float(rhs), bool(lhs <= rhs + tol * (1.0 + abs(rhs))),
            note)


def _anytime(c, f_ys, bound, tol) -> tuple:
    worst, arg = -math.inf, 1
    for t in range(1, len(f_ys)):
        margin = f_ys[t] - (c["f_star"] + bound(t))
        if margin > worst:
            worst, arg = margin, t
    return _bound("anytime-gap", worst, 0.0, tol, f"worst margin at t = {arg}")


def replay_certificate(theorem_id: str, kind: str | None, trace, problem=None,
                       tol: float = 1e-9) -> dict:
    """One certificate of an unconstrained run or an online run, replayed
    point by point: the step checks as tuples (t, phi, dphi, allowed, ok,
    slack, amortized), the telescoping residual, and the end checks as
    tuples (label, lhs, rhs, ok, note). Reads the trace's columns row by
    row, every value as a Python float."""
    T = trace.T
    fs, etas, grads = trace.f.tolist(), trace.eta.tolist(), list(trace.grad)
    f_refs = None if trace.f_ref is None else trace.f_ref.tolist()
    c = dict(trace.meta["constants"])
    c["x_star"] = x_star = np.asarray(c["x_star"], dtype=float)
    map_id = trace.meta.get("map", "euclidean")
    if "eta" not in c:
        c["eta"] = etas[0]
    if c.get("G") is None and kind in ("distance", "sc-distance"):
        c["G"] = max(math.sqrt(_sq(g)) for g in grads)
    if c.get("G_dual") is None and kind == "bregman":
        c["G_dual"] = max(_dual(map_id, g) for g in grads)
    xs = list(trace.x)
    if c.get("D") is None and kind in ("distance", "value", "value-scaled"):
        c["D"] = max(math.sqrt(_sq(x - x_star)) for x in xs)
    # the contraction rates of the two exponential arguments
    if theorem_id == "well-conditioned":
        c["gamma"] = 1.0 / (c["kappa"] - 1.0)
    elif theorem_id == "agm-sc":
        c["gamma"] = 1.0 / (np.sqrt(c["kappa"]) - 1.0)
    f_star = c.get("f_star")

    coupled = kind in COUPLED
    points = list(trace.z) if coupled else xs
    # the final point's value where the run records one
    values = trace.f_y.tolist() if coupled else fs + [None] * (T + 1 - len(fs))
    phis, psis = [], []
    for t in range(T + 1):
        if kind is None:
            break
        if kind not in AMORTIZED and (values[t] is None or f_star is None):
            phis.append(None)
            psis.append(None)
            continue
        gap = None if kind in AMORTIZED else values[t] - f_star
        dist = None
        if kind in SQUARED_DISTANCE:
            dist = _sq(points[t] - x_star)
        elif kind in DIVERGENCE:
            dist = _divergence(map_id, x_star, points[t])
            if dist is None:
                phis.append(None)
                psis.append(None)
                continue
        phis.append(_phi(kind, c, t, gap, dist))
        psis.append(_psi(kind, c, gap, dist) if kind in CONTRACTING else None)

    checks = []
    for t in range(T if phis else 0):
        if phis[t] is None or phis[t + 1] is None:
            continue
        dphi = phis[t + 1] - phis[t]
        allowed = _allowance(kind, c, map_id, etas[t], grads[t], t)
        slack = tol * (1.0 + abs(phis[t]))
        amortized = None
        if kind in AMORTIZED:
            f_ref = f_refs[t] if f_refs is not None else f_star
            amortized = (fs[t] - f_ref) + dphi
        ok = (dphi if amortized is None else amortized) <= allowed + slack
        if kind in CONTRACTING:
            # the same inequality divided by (1 + gamma)^t
            bound = (allowed + tol) * _growth(c["gamma"], -t) + tol * abs(psis[t])
            ok = (1.0 + c["gamma"]) * psis[t + 1] - psis[t] <= bound
        checks.append((t, phis[t], dphi, allowed, ok, slack, amortized))
    known = [p for p in phis if p is not None]
    residual = None
    if len(known) >= 2:
        residual = abs((known[-1] - known[0]) - sum(chk[2] for chk in checks))

    regret = None if f_refs is None else sum(fs[t] - f_refs[t] for t in range(T))
    r2 = float(np.sum((xs[0] - x_star) ** 2))
    final_gap = None if len(fs) == T else fs[T] - f_star
    if theorem_id == "gd-regret":
        end = [_bound("average-regret", regret / T, c["D"] * c["G"] / np.sqrt(T), tol)]
    elif theorem_id == "sc-regret":
        rhs = c["G"] ** 2 * np.log(T) / (2.0 * T * c["alpha"]) if T > 1 else 0.0
        end = [_bound("average-regret", regret / T, rhs, tol)]
    elif theorem_id == "smooth-value-log":
        rhs = c["beta"] * c["D"] ** 2 * (1.0 + np.log(T)) / (2.0 * T)
        end = [_bound("final-gap", final_gap, rhs, tol)]
    elif theorem_id == "smooth-value-scaled":
        end = [_bound("final-gap", final_gap, 2.0 * c["beta"] * c["D"] ** 2 / (T + 1.0),
                      tol)]
    elif theorem_id == "smooth-value-distance":
        end = [_bound("final-gap", final_gap, c["beta"] * r2 / (2.0 * T), tol)]
    elif theorem_id == "well-conditioned":
        rhs = float(np.exp(-T / c["kappa"]) * (fs[0] - f_star))
        end = [_bound("final-gap", final_gap, rhs, tol)]
    elif theorem_id == "mirror-regret":
        div = _divergence(map_id, x_star, xs[0])
        eta, ah = c["eta"], c["alpha_h"]
        dual_sq = sum(_dual(map_id, g) ** 2 for g in grads)
        end = [_bound("regret", regret, div / eta + eta * dual_sq / (2.0 * ah), tol),
               _bound("regret-gradient-bound", regret,
                      div / eta + eta * T * c["G_dual"] ** 2 / (2.0 * ah), tol,
                      "same envelope with the uniform G")]
    elif theorem_id == "agm-smooth":
        rz = float(np.sum((points[0] - x_star) ** 2))
        end = [_anytime(c, values, lambda t: 2.0 * c["beta"] * rz / (t * (t + 1.0)), tol)]
    elif theorem_id == "agm-mirror":
        div = _divergence(map_id, x_star, points[0])
        coef = 4.0 * c["beta"] / c["alpha_h"]
        end = [_anytime(c, values, lambda t: coef * div / (t * (t + 1.0)), tol)]
    elif theorem_id == "agm-sc":
        scale = 0.5 * (c["alpha"] + c["beta"]) * r2
        rk = np.sqrt(c["kappa"])
        worst = max(
            float(np.max(np.abs(points[t + 1] - (
                (1.0 - 1.0 / rk) * points[t] + xs[t] / rk
                - problem.gradient(xs[t]) / (c["alpha"] * rk)))))
            for t in range(T))
        end = [_anytime(c, values, lambda t: scale / _growth(c["gamma"], t), tol),
               _bound("initial-potential", phis[0], scale / _growth(c["gamma"], 0), tol,
                      "Phi_0 within (alpha+beta)/2 ||x0-x*||^2"),
               _bound("z-recursion-residual", worst, 0.0, 1e-9,
                      "implied aggressive-sequence recursion")]
    elif theorem_id == "failed-potential":
        end = [("expected-violation", 0.0, 0.0, True,
                "pass/fail decided by the per-step record")]
    else:
        raise KeyError(theorem_id)
    return {"steps": checks, "telescoping_residual": residual, "end_checks": end}


# --- the step kernels with scalar operands ------------------------------------
#
# The loop's transitions and oracles take each scalar operand as a 0-d array
# (README, bit-identity rule 5). These are the same operations in the same
# order with the operands as Python floats or numpy scalars, as the kernels
# were written before; each must give the same bits.

def smooth_step_scalar(x, g, beta: float):
    return x - g / beta


def agm2_step_scalar(x, z, g, beta: float, eta: float, tau: float, project=None):
    """The coupled step's (x, y, z); ``project`` applies to both updates."""
    project = project or (lambda v: v)
    y = project(x - g / beta)
    z = project(z - eta * g)
    return (1.0 - tau) * y + tau * z, y, z


def agm1_step_scalar(x, g, y_prev, lam_t: float, lam_next: float, beta: float):
    y_next = x - g / beta
    c = (1.0 - lam_t) / lam_next
    return (1.0 - c) * y_next + c * y_prev, y_next


def sc_agm_step_scalar(x, g, y_prev, kappa: float, beta: float):
    """The strongly convex step's (x, y) and the implied z."""
    rk = math.sqrt(kappa)
    m = (rk - 1.0) / (rk + 1.0)
    y_next = x - g / beta
    x_next = (1.0 + m) * y_next - m * y_prev
    return x_next, y_next, math.sqrt(kappa) * (x_next - y_next) + x_next


def l1_prox_scalar(x, g, beta: float):
    order = np.argsort(-g)
    j = order[-1]
    xs = x[order]
    moved_before = np.cumsum(xs) - xs
    give = np.clip((g[order] - g[j]) / (4.0 * beta) - moved_before, 0.0, xs)
    y = x.copy()
    y[order] -= give
    y[j] += give.sum()
    return y


def entropy_simplex_step_scalar(x, g, eta: float):
    logits = np.log(x) - eta * g
    w = np.exp(logits - np.maximum.reduce(logits))
    return w / float(np.add.reduce(w))


def entropy_step_scalar(x, g, eta: float):
    """The negative-entropy step on the whole space: exp(1 + ln x - eta g - 1)."""
    return np.exp(1.0 + np.log(x) - eta * g - 1.0)


def lse_gradient_scalar(x):
    e = np.exp(x - x.max())
    return e / e.sum()


def simplex_projection_scalar(v):
    """Sort-then-threshold with numpy-scalar arithmetic in the search."""
    s = np.sort(v)[::-1]
    css = np.cumsum(s)
    rho = 1
    for j in range(len(v)):
        if s[j] + (1.0 - css[j]) / (j + 1) >= 0.0:
            rho = j + 1
    theta = (css[rho - 1] - 1.0) / rho
    return np.maximum(v - theta, 0.0)


def quadratic_gradient_scalar(diag, shift, x):
    return diag * (x - shift)
