"""Accelerated gradient methods: the two-sequence coupling, the
weight-recurrence form and their equivalence, constrained and general-norm
variants, the strongly convex variant, and the restart reduction."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gdcert.core import (
    FeasibleSet,
    Simplex,
    Unconstrained,
    Vector,
    as_vector,
    check_same_dim,
)
from gdcert.mirror import MirrorMap, EuclideanMap, NegEntropyMap, _mirror
from gdcert.mirror import mirror_step  # noqa: F401 (the benchmark's tests read accel.mirror_step)
from gdcert.problems import Problem
from gdcert.smooth import _attach_reference, _smooth_gd
from gdcert.trace import _RAISE, Trace, drive, record


@dataclass(slots=True)
class AccelState:
    """Coupled iterates: x is played, y is the cautious sequence, z the
    aggressive one."""

    x: Vector
    y: Vector
    z: Vector
    t: int = 0

    @classmethod
    def start(cls, x0) -> "AccelState":
        x0 = as_vector(x0)
        return cls(x=x0.copy(), y=x0.copy(), z=x0.copy(), t=0)


def lambda_schedule(T: int) -> np.ndarray:
    """Momentum weights lambda_0 = 0, lambda_t = (1 + sqrt(1+4 lambda^2))/2.

    Computed in extended precision: the defining identity
    lambda_t^2 - lambda_{t-1}^2 = lambda_t is checked at 1e-12 absolute, which
    exceeds what float64 can represent once lambda grows past ~100.
    """
    if T < 0:
        raise ValueError("horizon must be non-negative")
    one = np.longdouble(1.0)
    lam = np.zeros(T + 1, dtype=np.longdouble)
    for t in range(1, T + 1):
        lam[t] = (one + np.sqrt(one + 4 * lam[t - 1] * lam[t - 1])) / 2
    return lam


class AgmSchedule:
    """Aggressive-step and mixing-weight schedule for the two-sequence method.

    kinds:
      * "agm-smooth":      eta_t = (t+1)/(2 beta), tau_{t+1} = 2/(t+3)
      * "agm-smooth-full": eta_t = (t+1)/beta, same tau (alternative scaling
        used when projections are involved; certified empirically)
      * "agm-lambda":      eta_t = lambda_t/beta, tau_{t+1} = 1/lambda_{t+1}
    ``tau_next`` and ``step_sizes`` are bound to the kind's formulas once.
    """

    KINDS = ("agm-smooth", "agm-smooth-full", "agm-lambda")

    def __init__(self, kind: str = "agm-smooth", T: int | None = None):
        if kind not in self.KINDS:
            raise KeyError(f"unknown acceleration schedule {kind!r}")
        self.kind = kind
        if kind == "agm-lambda":
            if T is None:
                raise ValueError("the weight-recurrence schedule needs a horizon")
            self._lam = lam = lambda_schedule(T + 1)
            self.tau_next = lambda t: 1.0 / float(lam[t + 1])
        else:
            self.tau_next = _tau_next

    def step_sizes(self, beta: float):
        """t -> eta_t for smoothness constant ``beta``."""
        if self.kind == "agm-lambda":
            lam = self._lam
            return lambda t: float(lam[t]) / beta
        # 2 beta is exact, so (t+1)/(2 beta) rounds as it did per step
        scale = 2.0 * beta if self.kind == "agm-smooth" else beta
        return lambda t: (t + 1.0) / scale

    def eta(self, t: int, beta: float) -> float:
        return self.step_sizes(beta)(t)


def _tau_next(t: int) -> float:
    """Mixing weight tau_{t+1} = 2/(t+3) applied when forming x_{t+1}."""
    return 2.0 / (t + 3.0)


def agm2_step(state: AccelState, g: Vector, beta: float,
              schedule: AgmSchedule, eta_t: float) -> AccelState:
    """One unconstrained coupled step with the gradient g at x: cautious
    y-update from x, aggressive z-update of size eta_t from z, then mix with
    the schedule's tau_{t+1}."""
    return _agm2(beta, schedule.tau_next)(state.t, state, g, eta_t)


def _agm2(beta: float, tau_next, project=None):
    """The coupled step as the transition ``trace.record`` calls; with
    ``project``, both sequence updates are projected and the mix stays
    feasible by convexity."""
    if project is None:
        def step(t, state, g, eta):
            y = state.x - g / beta
            z = state.z - eta * g
            tau = tau_next(t)
            return AccelState((1.0 - tau) * y + tau * z, y, z, t + 1)
    else:
        def step(t, state, g, eta):
            y = project(state.x - g / beta)
            z = project(state.z - eta * g)
            tau = tau_next(t)
            return AccelState((1.0 - tau) * y + tau * z, y, z, t + 1)
    return step


def constrained_agm_step(feasible: FeasibleSet, state: AccelState, g: Vector,
                         beta: float, eta_t: float) -> AccelState:
    """Constrained coupled step with the gradient g at x: both sequence
    updates are projected; the mix stays feasible by convexity."""
    return _agm2(beta, _tau_next, feasible.project)(state.t, state, g, eta_t)


def run_agm2(problem: Problem, x0, T: int, schedule: str = "agm-smooth",
             feasible: FeasibleSet | None = None) -> Trace:
    """Run the two-sequence method, projected when a bounded set is given."""
    beta = problem.smoothness_beta
    if beta is None:
        raise ValueError("problem declares no smoothness constant")
    x0 = as_vector(x0)
    sched = AgmSchedule(schedule, T=T)
    constrained = feasible is not None and not isinstance(feasible, Unconstrained)
    if feasible is None:
        feasible = Unconstrained(problem.dim)
    if constrained and sched.kind == "agm-lambda":
        raise ValueError("the weight-recurrence schedule is unconstrained-only")
    step = _agm2(beta, sched.tau_next, feasible.project if constrained else None)
    trace = drive(problem, AccelState.start(feasible.project(x0)), T, step,
                  sched.step_sizes(beta))
    trace.meta["method"] = "agm2"
    trace.meta["schedule"] = schedule
    trace.meta["constrained"] = constrained
    trace.constants["beta"] = beta
    _attach_reference(trace, problem, feasible)
    return trace


def agm1_step(x, g: Vector, y_prev, lam_t: float, lam_next: float,
              beta: float) -> tuple[Vector, Vector]:
    """Momentum form of the accelerated step with the gradient g at x:
    cautious update plus an extrapolation whose coefficient comes from the
    weight recurrence."""
    if lam_next <= 0:
        raise ValueError("next momentum weight must be positive")
    x = np.asarray(x, dtype=float)
    y_prev = np.asarray(y_prev, dtype=float)
    return _agm1_step(x, g, y_prev, lam_t, lam_next, beta)


def _agm1_step(x, g, y_prev, lam_t, lam_next, beta):
    # the loop's, with no checks: every lambda_{t+1} is at least 1
    y_next = x - g / beta
    c = (1.0 - lam_t) / lam_next
    x_next = (1.0 - c) * y_next + c * y_prev
    return x_next, y_next


def agm1_to_agm2_state(x, y, lam: float) -> Vector:
    """Reconstruct the aggressive-sequence point: z = lam x - (lam - 1) y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return lam * x - (lam - 1.0) * y


def run_agm1(problem: Problem, x0, T: int) -> Trace:
    """Momentum-form accelerated descent; the aggressive-sequence point is
    reconstructed per step so traces align with the coupled form."""
    beta = problem.smoothness_beta
    if beta is None:
        raise ValueError("problem declares no smoothness constant")
    lam = lambda_schedule(T + 1)

    def step(t, state, g, eta):
        lam_next = float(lam[t + 1])
        x, y = _agm1_step(state.x, g, state.y, float(lam[t]), lam_next, beta)
        return AccelState(x, y, agm1_to_agm2_state(x, y, lam_next), t + 1)

    trace = drive(problem, AccelState.start(x0), T, step,
                  lambda t: float(lam[t]) / beta)
    trace.meta["method"] = "agm1"
    trace.constants["beta"] = beta
    return trace


def _l1_prox_on_simplex(x, g, beta: float) -> Vector:
    """argmin over the simplex of <g, y-x> + (beta/2) ||y - x||_1^2, exactly
    (Nesterov 2005, sec. 3). Moving mass m to j = argmin g, taken from the
    highest-g coordinates first, each giving at most x_i, costs
    <g, y-x> + 2 beta m^2: a convex piecewise quadratic in m whose slope
    while coordinate i gives is g_j - g_i + 4 beta m. Each coordinate gives
    until that slope reaches zero or it is empty."""
    order = np.argsort(-g)
    j = order[-1]
    xs = x[order]
    moved_before = np.cumsum(xs) - xs
    give = np.clip((g[order] - g[j]) / (4.0 * beta) - moved_before, 0.0, xs)
    y = x.copy()
    y[order] -= give
    y[j] += give.sum()
    return y


def general_norm_agm_step(mirror_map: MirrorMap, feasible: FeasibleSet,
                          state: AccelState, g: Vector, beta: float,
                          eta_t: float) -> AccelState:
    """Coupled step under a mirror map with the gradient g at x: the
    cautious update is the smooth step in the map's norm (solved on the set),
    the aggressive update is a mirror step of size eta_t, and the mix uses
    tau_{t+1} = 2/(t+3)."""
    step = _general_norm_agm(mirror_map, feasible, beta)  # which checks the pair
    g = np.asarray(g, dtype=float)
    for v in (state.x, state.z):
        check_same_dim(np.asarray(v, dtype=float), g)
    if not (beta > 0 and eta_t > 0 and mirror_map.interior(state.z)):
        raise ValueError("needs beta > 0, eta_t > 0 and z in the map's interior")
    return step(state.t, state, g, eta_t)


def _general_norm_agm(mirror_map: MirrorMap, feasible: FeasibleSet, beta: float):
    # general_norm_agm_step's arithmetic as the loop's transition
    if isinstance(mirror_map, EuclideanMap):
        smooth_move = _smooth_gd(beta)

        def cautious(x, g):
            return feasible.project(smooth_move(0, x, g, None))
    elif isinstance(mirror_map, NegEntropyMap) and isinstance(feasible, Simplex):
        def cautious(x, g):
            return _l1_prox_on_simplex(x, g, beta)
    else:
        raise ValueError(
            f"unsupported (map, set) pair: ({mirror_map.map_id}, {type(feasible).__name__})")
    aggressive = _mirror(mirror_map, feasible)

    def step(t, state, g, eta):
        y = cautious(state.x, g)
        z = aggressive(t, state.z, g, eta)
        tau = _tau_next(t)
        return AccelState((1.0 - tau) * y + tau * z, y, z, t + 1)
    return step


def run_general_norm_agm(problem: Problem, mirror_map: MirrorMap,
                         feasible: FeasibleSet, x0, T: int) -> Trace:
    beta = problem.smoothness_beta
    if beta is None:
        raise ValueError("problem declares no smoothness constant")
    if not beta > 0:
        raise ValueError("smoothness constant must be positive")
    x0 = as_vector(x0)
    if not (feasible.member(x0) and mirror_map.interior(x0)):
        raise ValueError("starting point must be an interior member")
    trace = drive(problem, AccelState.start(x0), T,
                  _general_norm_agm(mirror_map, feasible, beta),
                  lambda t: (t + 1.0) * mirror_map.alpha_h / (2.0 * beta))
    trace.meta["method"] = f"agm2-{mirror_map.map_id}"
    trace.meta["map"] = mirror_map.map_id
    trace.constants["beta"] = beta
    trace.constants["alpha_h"] = mirror_map.alpha_h
    _attach_reference(trace, problem, feasible)
    return trace


def sc_agm_step(x, g: Vector, y_prev, kappa: float,
                beta: float) -> tuple[Vector, Vector]:
    """Accelerated step for well-conditioned objectives with the gradient g
    at x: cautious update plus fixed momentum (sqrt(kappa)-1)/(sqrt(kappa)+1)."""
    if kappa < 1:
        raise ValueError("condition number must be at least 1")
    if kappa == 1:
        raise ValueError("condition number 1 is solved by a single smooth step")
    x = np.asarray(x, dtype=float)
    y_prev = np.asarray(y_prev, dtype=float)
    return _sc_agm_step(x, g, y_prev, kappa, beta)


def _sc_agm_step(x, g, y_prev, kappa, beta):
    # the loop's, with no checks: the run checks kappa once
    rk = math.sqrt(kappa)  # np.sqrt's correctly rounded root, as a float
    m = (rk - 1.0) / (rk + 1.0)
    y_next = x - g / beta
    x_next = (1.0 + m) * y_next - m * y_prev
    return x_next, y_next


def sc_agm_z(x, y, kappa: float) -> Vector:
    """Implied aggressive-sequence point z = sqrt(kappa) (x - y) + x."""
    if kappa <= 1:
        raise ValueError("condition number must exceed 1")
    return _sc_agm_z(np.asarray(x, dtype=float), np.asarray(y, dtype=float), kappa)


def _sc_agm_z(x, y, kappa):
    return math.sqrt(kappa) * (x - y) + x


def sc_agm_recursion_residual(grad, x, z, z_next, alpha: float, kappa: float):
    """Deviation from the implied z-recursion
    z+ = (1 - 1/sqrt(kappa)) z + x/sqrt(kappa) - grad/(alpha sqrt(kappa)),
    with grad the gradient the step took at x. Each argument is one vector,
    or one row per step: then one residual per row."""
    rk = np.sqrt(kappa)
    predicted = (1.0 - 1.0 / rk) * np.asarray(z) + np.asarray(x) / rk \
        - np.asarray(grad) / (alpha * rk)
    return np.max(np.abs(np.asarray(z_next) - predicted), axis=-1)


def run_sc_agm(problem: Problem, x0, T: int) -> Trace:
    """Accelerated descent for strongly convex smooth objectives.

    Condition number exactly 1 bypasses acceleration: one exact smooth step
    reaches the minimizer.
    """
    kappa = problem.kappa
    if not kappa:
        raise ValueError("problem must declare both curvature constants")
    if kappa < 1:
        raise ValueError("condition number must be at least 1")
    beta = problem.smoothness_beta

    if kappa == 1.0:
        T = 1
        smooth_move = _smooth_gd(beta)

        def step(t, state, g, eta):
            y = smooth_move(t, state.x, g, eta)
            return AccelState(y, y, y, 1)
    else:
        def step(t, state, g, eta):
            x, y = _sc_agm_step(state.x, g, state.y, kappa, beta)
            return AccelState(x, y, _sc_agm_z(x, y, kappa), t + 1)

    trace = drive(problem, AccelState.start(x0), T, step, lambda t: 1.0 / beta)
    trace.meta["method"] = "sc-agm"
    trace.constants.update({"alpha": problem.strong_convexity_alpha, "beta": beta,
                            "kappa": kappa})
    if kappa == 1.0:
        trace.add_flag("single-step-optimal")
    _attach_reference(trace, problem, Unconstrained(problem.dim))
    return trace


def restart_accelerated(problem: Problem, x0, epsilon: float,
                        max_epochs: int = 400) -> Trace:
    """Repeatedly run the smooth two-sequence method for ceil(4 sqrt(kappa))
    steps and restart from its cautious point; the distance to the minimizer
    halves per epoch, giving linear convergence from a sublinear method."""
    kappa = problem.kappa
    if not kappa:
        raise ValueError("problem must declare both curvature constants")
    beta = problem.smoothness_beta
    x_star = problem.minimizer_over(Unconstrained(problem.dim))
    f_star = problem.value(x_star)
    epoch_len = int(np.ceil(4.0 * np.sqrt(kappa)))

    x = as_vector(x0).copy()
    # every epoch's columns without their final row, end to end; the trace's
    # final row holds the last restart point only. The empty grad and eta
    # arrays give those columns their shapes when no epoch runs
    parts = {"x": [], "grad": [np.zeros((0, x.size))], "eta": [np.zeros(0)]}
    steps, epochs = 0, []
    sched = AgmSchedule("agm-smooth")
    step, eta = _agm2(beta, sched.tau_next), sched.step_sizes(beta)

    def columns():
        return {name: np.concatenate(arrays) for name, arrays in parts.items()}

    def check_earlier_rows():
        if steps:  # an earlier epoch's row whose value fails comes first
            Trace.from_rows(columns(), problem)

    for _ in range(max_epochs):
        try:
            with np.errstate(**_RAISE):  # x is a recorded row, valued as in the loop
                gap = problem.value(x) - f_star
        except FloatingPointError:
            check_earlier_rows()
            raise FloatingPointError(f"iterate diverged at step {steps}") from None
        if gap <= epsilon:
            break
        start_dist = float(np.linalg.norm(x - x_star))
        try:
            epoch, state = record(problem, AccelState.start(x), epoch_len, step, eta,
                                  t0=steps)
        except FloatingPointError:
            check_earlier_rows()
            raise
        for name, col in epoch.items():
            parts.setdefault(name, []).append(col[:epoch_len])
        steps += epoch_len
        x = state.y.copy()
        epochs.append({"steps": epoch_len,
                       "start_distance": start_dist,
                       "end_distance": float(np.linalg.norm(x - x_star))})
    parts["x"].append(x[None])
    trace = Trace.from_rows(columns(), problem)
    trace.meta["method"] = "restart-agm"
    trace.meta["epochs"] = epochs
    trace.meta["epoch_length"] = epoch_len
    trace.constants.update({"alpha": problem.strong_convexity_alpha, "beta": beta,
                            "kappa": kappa, "x_star": x_star, "f_star": f_star,
                            "epsilon": epsilon})
    return trace
