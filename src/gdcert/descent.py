"""Gradient descent for bounded-gradient objectives: online, projected, and
strongly convex variants, plus the weighted-average offline readout."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gdcert.core import FeasibleSet, Vector, as_vector, check_same_dim
from gdcert.problems import OnlineAdversary
from gdcert.trace import Trace, drive


class StepSchedule:
    """Positive step size eta(t) for every t >= 0."""

    def eta(self, t: int) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class HorizonScaled(StepSchedule):
    """eta = D / (G sqrt(T)): constant, tuned to a known horizon."""

    D: float
    G: float
    T: int

    def eta(self, t: int) -> float:
        return self.D / (self.G * np.sqrt(self.T))


@dataclass(frozen=True)
class AnytimeScaled(StepSchedule):
    """eta_t = D / (G sqrt(t+1)): horizon-free, shifted so eta_0 is defined."""

    D: float
    G: float

    def eta(self, t: int) -> float:
        return self.D / (self.G * np.sqrt(t + 1.0))


@dataclass(frozen=True)
class InverseStrongConvexity(StepSchedule):
    """eta_t = 1 / (alpha (t + shift)).

    shift=1 starts at 1/alpha; shift=0 is the one-indexed variant where the
    first step also uses 1/alpha (the t=0 denominator is clamped to 1).
    """

    alpha: float
    shift: int = 1

    def eta(self, t: int) -> float:
        denom = max(t + self.shift, 1)
        return 1.0 / (self.alpha * denom)


def gd_step(x, g, eta: float) -> Vector:
    """x - eta * g; also the minimizer of 0.5||u-x||^2 + eta <g, u>."""
    if eta <= 0:
        raise ValueError("step size must be positive")
    x = as_vector(x)
    g = as_vector(g)
    check_same_dim(x, g)
    return x - eta * g


def projected_gd_step(feasible: FeasibleSet, x, g, eta: float) -> Vector:
    """Gradient step followed by Euclidean projection back onto the set."""
    return feasible.project(gd_step(x, g, eta))


def run_online_gd(adversary: OnlineAdversary, feasible: FeasibleSet, x0,
                  schedule: StepSchedule, T: int,
                  comparator: Vector | None = None) -> Trace:
    """Play T rounds of (projected) online gradient descent.

    Records the played point, round loss, gradient, and the round loss at the
    comparator (the best fixed point in hindsight unless one is supplied).
    """
    x = feasible.project(x0)
    if comparator is None:
        comparator = adversary.comparator_over(feasible, T)
    comparator = as_vector(comparator)
    trace = drive(adversary, x, T,
                  lambda t, x, g, eta: feasible.project(x - eta * g),
                  schedule.eta, comparator=comparator)
    trace.constants["x_star"] = comparator
    trace.meta["method"] = "gd"
    return trace


def run_strongly_convex_gd(adversary: OnlineAdversary, feasible: FeasibleSet,
                           x0, alpha: float, T: int, shift: int = 1,
                           comparator: Vector | None = None) -> Trace:
    """Online gradient descent with the 1/(alpha (t+shift)) schedule."""
    if alpha is None or alpha <= 0:
        raise ValueError("strong convexity constant must be positive")
    declared = adversary.strongly_convex_alpha
    sched = InverseStrongConvexity(alpha, shift=shift)
    trace = run_online_gd(adversary, feasible, x0, sched, T, comparator=comparator)
    trace.meta["method"] = "sc-gd"
    trace.constants["alpha"] = alpha
    trace.constants["schedule_shift"] = shift
    if declared is None or declared < alpha:
        # the guarantee needs every round to be alpha-strongly convex
        trace.add_flag("not-strongly-convex")
    return trace


def weighted_average(trace: Trace) -> Vector:
    """Convex combination sum_t lambda_t x_t with lambda_t = 2t / (T(T+1)),
    taken over the iterates x_1 .. x_T produced by the run."""
    T = trace.T
    if T < 1:
        raise ValueError("need at least one iterate to average")
    weights = np.array([2.0 * t / (T * (T + 1.0)) for t in range(1, T + 1)])
    out = np.zeros_like(trace.x[0])
    for w, x in zip(weights, trace.x[1:]):
        out += w * x
    return out
