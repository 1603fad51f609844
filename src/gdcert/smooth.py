"""Methods for smooth objectives: the 1/beta step, its projected variant,
Frank-Wolfe, well-conditioned descent, and the general-norm smooth step."""

from __future__ import annotations

import numpy as np

from gdcert.core import (
    FeasibleSet,
    Norm,
    Simplex,
    Unconstrained,
    Vector,
    as_vector,
    check_same_dim,
    frozen_scalar,
)
from gdcert.problems import Problem
from gdcert.trace import Trace, drive


def smooth_gd_step(x, g, beta: float) -> Vector:
    """x - g / beta: the step size that extracts the full descent guarantee
    from beta-smoothness."""
    if beta <= 0:
        raise ValueError("smoothness constant must be positive")
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    check_same_dim(x, g)
    return _smooth_gd(beta)(0, x, g, None)


def _smooth_gd(beta: float):
    # smooth_gd_step's arithmetic as the loop's transition; it reads beta,
    # not the recorded step size 1/beta, as a 0-d array
    beta = frozen_scalar(beta)

    def step(t, x, g, eta):
        return x - g / beta
    return step


def projected_smooth_step(feasible: FeasibleSet, x, g, beta: float) -> Vector:
    return feasible.project(smooth_gd_step(x, g, beta))


def frank_wolfe_step(feasible: FeasibleSet, x, g, eta_t: float) -> Vector:
    """(1 - eta) x + eta * lmo(g); feasible by convexity, no projection.

    eta above 1 would leave the set; eta = 0 keeps the point.
    """
    if not (0.0 <= eta_t <= 1.0):
        raise ValueError("Frank-Wolfe step size must lie in [0, 1]")
    if not feasible.member(x):  # which checks x's dimension
        raise ValueError("current point must be feasible")
    return _frank_wolfe(feasible)(0, np.asarray(x, dtype=float), g, eta_t)


def _frank_wolfe(feasible: FeasibleSet):
    # frank_wolfe_step's arithmetic as the loop's transition: a run checks
    # that x0 is feasible, and its schedule keeps eta in [0, 1]
    def step(t, x, g, eta):
        return (1.0 - eta) * x + eta * feasible.lmo(g)
    return step


FW_STEP_SIZES = {  # by schedule id, the default first
    # 2/(t+2): drops the log factor (2/(t+1) would exceed 1 at t=0)
    "fw-2t": lambda t: 2.0 / (t + 2.0),
    # classic 1/(t+1): yields the log-factor rate
    "fw-1t": lambda t: 1.0 / (t + 1.0),
}


def run_smooth_gd(problem: Problem, x0, T: int,
                  feasible: FeasibleSet | None = None) -> Trace:
    """T steps of x <- Pi(x - grad/beta), recording values and gradients,
    with the gaps measured from the problem's minimizer over the (possibly
    whole-space) feasible set, and D where the sublevel set gives one."""
    beta = problem.smoothness_beta
    if beta is None:
        raise ValueError("problem declares no smoothness constant")
    x0 = as_vector(x0)
    if feasible is None:
        feasible = Unconstrained(problem.dim)
    move = _smooth_gd(beta)
    if isinstance(feasible, Unconstrained):
        step = move
    else:
        def step(t, x, g, eta):
            return feasible.project(move(t, x, g, eta))
    eta = 1.0 / beta
    trace = drive(problem, feasible.project(x0), T, step, lambda t: eta)
    trace.meta["method"] = "smooth-gd"
    trace.constants["beta"] = beta
    _attach_reference(trace, problem, feasible)
    D = problem.sublevel_diameter(x0)
    if D is not None:
        trace.constants["D"] = D
    return trace


def run_frank_wolfe(problem: Problem, feasible: FeasibleSet, x0, T: int,
                    schedule: str = "fw-2t") -> Trace:
    """Conditional gradient descent with one of the named step schedules."""
    if schedule not in FW_STEP_SIZES:
        raise KeyError(f"unknown Frank-Wolfe schedule {schedule!r}")
    beta = problem.smoothness_beta
    if beta is None:
        raise ValueError("problem declares no smoothness constant")
    if feasible.diameter is None:
        raise ValueError("Frank-Wolfe needs a bounded feasible set")
    x = as_vector(x0)
    if not feasible.member(x):
        raise ValueError("starting point must be feasible")
    trace = drive(problem, x, T, _frank_wolfe(feasible), FW_STEP_SIZES[schedule])
    trace.meta["method"] = "frank-wolfe"
    trace.meta["schedule"] = schedule
    trace.constants["beta"] = beta
    trace.constants["D"] = feasible.diameter
    _attach_reference(trace, problem, feasible)
    return trace


def run_well_conditioned(problem: Problem, x0, T: int) -> Trace:
    """1/beta descent on an alpha-strongly-convex, beta-smooth objective.

    For condition number exactly 1 a single step lands on the minimizer, so
    the run stops there and the trace is flagged.
    """
    kappa = problem.kappa
    if not kappa:
        raise ValueError("problem must declare both curvature constants")
    if kappa == 1.0:
        T = min(T, 1)
    trace = run_smooth_gd(problem, x0, T)
    trace.meta["method"] = "wellcond-gd"
    trace.constants["alpha"] = problem.strong_convexity_alpha
    trace.constants["kappa"] = kappa
    if kappa == 1.0:
        trace.add_flag("single-step-optimal")
    return trace


def _attach_reference(trace: Trace, problem: Problem, feasible: FeasibleSet) -> None:
    """Record the reference point x* the guarantees are measured against and
    f* there; when no minimizer exists over the run's set, fall back to the
    simplex one and flag the certificate (the bounds hold for any fixed
    comparator)."""
    try:
        reference = problem.minimizer_over(feasible)
    except ValueError:
        reference = problem.minimizer_over(Simplex(problem.dim))
        trace.add_flag("comparator-reference")
    reference = as_vector(reference)
    trace.constants["x_star"] = reference
    trace.constants["f_star"] = problem.value(reference)


def general_norm_smooth_step(kind: Norm, x, g, beta: float) -> Vector:
    """Smooth step under an arbitrary norm:
    argmin_u 0.5 ||u - x||^2 + (1/beta) <g, u - x>.

    The attained objective value is -||g/beta||_*^2 / 2, so the move
    decreases a beta-smooth f by at least ||g||_*^2 / (2 beta).
    """
    if beta <= 0:
        raise ValueError("smoothness constant must be positive")
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    check_same_dim(x, g)
    eta = 1.0 / beta
    if kind is Norm.EUCLIDEAN:
        return x - eta * g
    if kind is Norm.L1:
        # steepest descent direction is a single coordinate: the largest
        # |g_i| (lowest index on ties), moved by eta * ||g||_inf
        mags = np.abs(g)
        i = int(np.argmax(mags))
        d = np.zeros_like(x)
        if mags[i] > 0:
            d[i] = -np.sign(g[i]) * eta * mags[i]
        return x + d
    if kind is Norm.LINF:
        # move every coordinate against its gradient sign by eta * ||g||_1
        scale = eta * float(np.sum(np.abs(g)))
        return x - scale * np.sign(g)
    raise ValueError(f"unsupported norm {kind!r}")
