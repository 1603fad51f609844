"""Potential-function certification engine.

Every convergence guarantee in this package is backed by a potential
argument: a scalar Phi_t of the iterates whose per-step change is bounded,
and whose telescoped value yields the end-to-end inequality. The certifier
replays that argument numerically on a recorded trace: it evaluates the
potential at every step, checks each per-step bound, verifies telescoping,
and finally checks the theorem's inequality at its stated constants.

The diagnostic "failed" potential inverts the pass semantics: it encodes a
deliberately broken argument, and its certificate passes exactly when the
trace exhibits a violating step.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from gdcert.accel import sc_agm_recursion_residual
from gdcert.core import as_vector, dual_norm
from gdcert.descent import weighted_average
from gdcert.mirror import get_map
from gdcert.problems import Problem
from gdcert.trace import Trace

DEFAULT_TOL = 1e-9


class PotentialKind(str, enum.Enum):
    """Shapes of the certified potentials.

    All are instances of s_t (a_t * (value gap) + b_t * (distance to
    reference)); each kind declares its own coefficients and distance.
    """

    DISTANCE = "distance"                  # ||x - x*||^2 / (2 eta)
    SC_DISTANCE = "sc-distance"            # t alpha/2 ||x - x*||^2
    VALUE = "value"                        # t (f - f*)
    VALUE_SCALED = "value-scaled"          # t(t+1) (f - f*)
    VALUE_DISTANCE = "value-distance"      # t (f - f*) + beta/2 ||x - x*||^2
    EXP_VALUE = "exp-value"                # (1+gamma)^t (f - f*)
    BREGMAN = "bregman"                    # D_h(x* || x) / eta
    AGM = "agm"                            # t(t+1)(f(y) - f*) + 2 beta ||z - x*||^2
    AGM_BREGMAN = "agm-bregman"            # t(t+1)(f(y) - f*) + 4 beta/alpha_h D_h(x*||z)
    AGM_SC = "agm-sc"                      # (1+gamma)^t (f(y) - f* + alpha/2 ||z - x*||^2)
    FAILED = "failed"                      # t(t+1)(f - f*) + 2 beta ||x - x*||^2


def _require(kind: PotentialKind, c: dict, names) -> None:
    for n in names:
        if c.get(n) is None:
            raise ValueError(f"potential {kind.value!r} needs constant {n!r}")


def _at_every_point(trace: Trace, name: str) -> np.ndarray:
    """The column, which must hold a row for every t = 0..T."""
    col = getattr(trace, name)
    if col is None or len(col) != trace.T + 1:
        raise ValueError(f"the trace does not record {name} at every point")
    return col


def _max_grad_norm(trace: Trace) -> float:
    """The largest Euclidean gradient norm over the T steps."""
    return float(np.max(np.sqrt(np.vecdot(trace.grad, trace.grad))))


def _regret(trace: Trace) -> float:
    """Total round loss relative to the comparator over the T steps."""
    if trace.f_ref is None:
        raise ValueError("trace has no comparator values")
    return sum((trace.f[:trace.T] - trace.f_ref).tolist())


def _growth(gamma: float, t):
    """(1 + gamma)^t: inf once t log1p(gamma) exceeds 709.78, 0 once it is
    below -745.13, the scalar 1.0 when gamma is 0."""
    return np.exp(t * np.log1p(gamma)) if gamma else 1.0


def _expand(gamma: float, t, psi):
    """Phi_t = (1 + gamma)^t psi_t as a double (psi itself at gamma = 0):
    where the factor overflows, +-inf, or psi_t's zero (not inf * 0 = nan)."""
    if not gamma:
        return psi
    return np.where(psi == 0, psi, _growth(gamma, t) * psi)[()]


def _dist2(c: dict, point):
    d = point - c["x_star"]
    return np.vecdot(d, d)


def _bregman(c: dict, point):
    return c["map"].bregman(c["x_star"], point)


# the value gap's weights a_t
_T, _T2, _ONE = (lambda t: t), (lambda t: t * (t + 1.0)), (lambda t: 1.0)


def _value_distance_allowance(c: dict, trace: Trace, t):
    if c.get("projected"):
        return 0.0
    return -(t / (2.0 * c["beta"])) * np.vecdot(trace.grad, trace.grad)


def _bregman_allowance(c: dict, trace: Trace, t):
    gd = dual_norm(c["map"].norm, trace.grad)
    return 0.5 * c["eta"] * gd * gd / c["alpha_h"]


@dataclass(frozen=True)
class _Shape:
    """One potential kind by its parts: Phi_t = s_t psi_t with the bracket
    psi_t = a_t * gap + b_t * dist, and the allowance B_t on its step-t
    change. A distance-only kind has no a_t and is charged the round's loss.
    s_t = (1 + gamma)^t when the potential needs gamma, else 1 (gamma = 0);
    the checks read psi_t, finite where s_t overflows. Every callable works
    elementwise, on one point or on a column of them."""

    needs: tuple                      # constants psi_t reads
    weight: Callable | None = None    # t -> a_t
    term: Callable | None = None      # (c, t, point or rows) -> b_t dist
    # (c, trace, t) -> B_t at every step t; monotone potentials may not increase
    allowance: Callable = lambda c, trace, t: 0.0
    bound_needs: tuple = ()           # constants B_t reads beyond those
    coupled: bool = False             # reads f(y) and z, not f(x) and x

    def rate(self, c: dict) -> float:
        """gamma of the scale (1 + gamma)^t: 0 unless the potential needs it."""
        return c["gamma"] if "gamma" in self.needs else 0.0


POTENTIALS = {
    PotentialKind.DISTANCE: _Shape(
        ("eta",), None, lambda c, t, p: _dist2(c, p) / (2.0 * c["eta"]),
        lambda c, trace, t: 0.5 * c["eta"] * c["G"] ** 2, ("G",)),
    PotentialKind.SC_DISTANCE: _Shape(
        ("alpha",), None, lambda c, t, p: 0.5 * t * c["alpha"] * _dist2(c, p),
        lambda c, trace, t: 0.5 * trace.eta * c["G"] ** 2, ("G",)),
    PotentialKind.VALUE: _Shape(
        (), _T, None, lambda c, trace, t: c["beta"] * c["D"] ** 2 / (2.0 * (t + 1.0)),
        ("beta", "D")),
    PotentialKind.VALUE_SCALED: _Shape(
        (), _T2, None,
        lambda c, trace, t: 2.0 * c["beta"] * c["D"] ** 2 * (t + 1.0) / (t + 2.0),
        ("beta", "D")),
    PotentialKind.VALUE_DISTANCE: _Shape(
        ("beta",), _T, lambda c, t, p: 0.5 * c["beta"] * _dist2(c, p),
        _value_distance_allowance),
    PotentialKind.EXP_VALUE: _Shape(("gamma",), _ONE),
    PotentialKind.BREGMAN: _Shape(
        ("eta", "map"), None, lambda c, t, p: _bregman(c, p) / c["eta"],
        _bregman_allowance, ("alpha_h",)),
    PotentialKind.AGM: _Shape(
        ("beta",), _T2, lambda c, t, p: 2.0 * c["beta"] * _dist2(c, p), coupled=True),
    PotentialKind.AGM_BREGMAN: _Shape(
        ("beta", "alpha_h", "map"), _T2,
        lambda c, t, p: 4.0 * c["beta"] / c["alpha_h"] * _bregman(c, p), coupled=True),
    PotentialKind.AGM_SC: _Shape(
        ("gamma", "alpha"), _ONE, lambda c, t, p: 0.5 * c["alpha"] * _dist2(c, p),
        coupled=True),
    # the broken argument's distance coefficient: a = 4 beta
    PotentialKind.FAILED: _Shape(
        ("beta",), _T2, lambda c, t, p: 2.0 * c["beta"] * _dist2(c, p)),
}


def potential(kind: PotentialKind, c: dict, state, t):
    """Evaluate Phi_t of ``kind`` at the constants ``c``, which hold the
    reference x* and f*, on a state carrying x and f (z and f_y when
    coupled): one point at one t, or a trace's columns at every t = 0..T,
    one value per row. For a contracting kind, Phi_t = (1 + gamma)^t psi_t
    is +-inf past the overflow of the factor, or 0 where psi_t is 0.

    Non-negative whenever the reference value is the true optimum.
    """
    psi = _bracket(kind, c, state, t)
    # the factor overflows and meets psi_t's zero as the replay's do: quietly
    with np.errstate(over="ignore", invalid="ignore"):
        return _expand(POTENTIALS[kind].rate(c), t, psi)


def _bracket(kind: PotentialKind, c: dict, state, t):
    # psi_t = a_t gap + b_t dist, which is Phi_t / (1 + gamma)^t
    shape = POTENTIALS[kind]
    _require(kind, c, shape.needs)
    point, value = (state.z, state.f_y) if shape.coupled else (state.x, state.f)
    psi = None
    if shape.weight:
        if value is None or c.get("f_star") is None:
            raise ValueError(f"potential {kind.value!r} needs an objective value and f*")
        psi = shape.weight(t) * (value - c["f_star"])
    if shape.term:
        term = shape.term(c, t, point)
        psi = term if psi is None else psi + term
    return psi


@dataclass(slots=True)
class StepCheck:
    t: int
    phi: float
    dphi: float
    allowed: float
    ok: bool
    slack: float
    amortized: float | None = None


@dataclass
class EndCheck:
    label: str
    lhs: float
    rhs: float
    ok: bool
    vacuous: bool = False
    note: str = ""

    def to_dict(self) -> dict:
        d = {"label": self.label, "lhs": self.lhs, "rhs": self.rhs, "ok": self.ok}
        if self.vacuous:
            d["vacuous"] = True
        if self.note:
            d["note"] = self.note
        return d


@dataclass
class CertReport:
    """Per-step and end-to-end verdicts for one theorem on one trace; ``steps``
    holds the step checks as columns, in ``StepCheck`` field order."""

    theorem: str
    claim: str
    potential_kind: str | None
    constants: dict
    flags: list = field(default_factory=list)
    steps: dict = field(default_factory=dict)
    end_checks: list = field(default_factory=list)
    telescoping_residual: float | None = None
    telescoping_ok: bool = True
    consistency_ok: bool | None = None
    expected_fail: bool = False
    tol: float = DEFAULT_TOL
    error: str | None = None

    @property
    def step_checks(self) -> list:
        """One ``StepCheck`` per checked step, built from ``steps``."""
        return [StepCheck(*row) for row in zip(*(c.tolist() for c in self.steps.values()))]

    @property
    def step_failures(self) -> int:
        return int(np.count_nonzero(~self.steps["ok"])) if self.steps else 0

    @property
    def passed(self) -> bool:
        if self.error:
            return False
        if self.expected_fail:
            # the diagnostic certificate passes when the violation it
            # predicts actually shows up
            return self.step_failures >= 1
        return (self.step_failures == 0
                and all(e.ok or e.vacuous for e in self.end_checks)
                and self.telescoping_ok
                and self.consistency_ok is not False)

    def to_dict(self) -> dict:
        """The report's fields; the writers add the step table from ``steps``."""
        consts = {}
        for k, v in self.constants.items():
            if isinstance(v, np.ndarray):
                consts[k] = v.tolist()
            elif isinstance(v, (int, float, str, bool)) or v is None:
                consts[k] = v
            else:
                consts[k] = repr(v)
        return {
            "theorem": self.theorem,
            "claim": self.claim,
            "potential": self.potential_kind,
            "constants": consts,
            "flags": list(self.flags),
            "expected_fail": self.expected_fail,
            "passed": self.passed,
            "step_failures": self.step_failures,
            "telescoping_residual": self.telescoping_residual,
            "telescoping_ok": self.telescoping_ok,
            "consistency_ok": self.consistency_ok,
            "tol": self.tol,
            "error": self.error,
            "end_checks": [e.to_dict() for e in self.end_checks],
        }


def _defined(shape: _Shape, c: dict, trace: Trace) -> np.ndarray:
    """The rows where Phi_t is defined: every row, unless the potential
    reads a divergence, whose point must lie in the mirror map's domain."""
    rows = np.ones(trace.T + 1, dtype=bool)
    if "map" in shape.needs:
        rows &= c["map"].interior(trace.z if shape.coupled else trace.x)
    return rows


def _phi_steps(gamma: float, phi: np.ndarray, change: np.ndarray,
               margin: np.ndarray, tol: float) -> tuple:
    """Phi's change over each step and slack_t = tol (1 + |Phi_t|): psi's
    ``change`` and ``margin`` themselves when gamma is 0, where psi is Phi."""
    if not gamma:
        return change, margin
    return phi[1:] - phi[:-1], tol * (1.0 + np.abs(phi[:-1]))


def _step_checks(shape: _Shape, c: dict, trace: Trace, phi: np.ndarray,
                 psi: np.ndarray, steps: np.ndarray, tol: float) -> dict:
    """The given steps' columns of ``CertReport.steps``, with Phi's change
    and slack. The verdict, Phi_{t+1} - Phi_t <= B_t + tol (1 + |Phi_t|)
    times w_t = (1 + gamma)^-t, reads psi: (1 + gamma) psi_{t+1} - psi_t
    <= B_t w_t + tol (w_t + |psi_t|)."""
    t = np.arange(trace.T)
    gamma = shape.rate(c)
    w = _growth(gamma, -t)
    change = (1.0 + gamma) * psi[1:] - psi[:-1]
    margin = tol * (w + np.abs(psi[:-1]))
    dphi, slack = _phi_steps(gamma, phi, change, margin, tol)
    bound = shape.allowance(c, trace, t)
    checked, amortized = change, {}
    if shape.weight is None:
        if trace.f_ref is None:
            raise ValueError("trace has no comparator values")
        # (f_t(x_t) - f_t(x*)) + dPhi <= B_t
        checked = (trace.f[:trace.T] - trace.f_ref) * w + change
        amortized = {"amortized": checked}
    columns = dict(t=t, phi=phi[:-1], dphi=dphi,
                   allowed=np.broadcast_to(bound, dphi.shape),
                   ok=checked <= bound * w + margin, slack=slack, **amortized)
    if steps.size < dphi.size:
        columns = {name: col[steps] for name, col in columns.items()}
    return columns


def _bound_check(label, lhs, rhs, tol, note="") -> EndCheck:
    return EndCheck(label, float(lhs), float(rhs),
                    ok=bool(lhs <= rhs + tol * (1.0 + abs(rhs))), note=note)


# --- gap envelopes: (trace, constants) -> (t -> bound on f - f* at iteration t)

def _sq_dist(point, c: dict) -> float:
    return float(np.sum((point - as_vector(c["x_star"])) ** 2))


def _log_envelope(trace: Trace, c: dict):
    return lambda t: c["beta"] * c["D"] ** 2 * (1.0 + np.log(t)) / (2.0 * t)


def _scaled_envelope(trace: Trace, c: dict):
    return lambda t: 2.0 * c["beta"] * c["D"] ** 2 / (t + 1.0)


def _distance_envelope(trace: Trace, c: dict):
    r2 = _sq_dist(trace.x[0], c)
    return lambda t: c["beta"] * r2 / (2.0 * t)


def _exp_envelope(trace: Trace, c: dict):
    gap0 = trace.f[0].item() - c["f_star"]
    return lambda t: float(np.exp(-t / c["kappa"]) * gap0)


def _agm_envelope(trace: Trace, c: dict):
    r2 = _sq_dist((trace.z if trace.z is not None else trace.x)[0], c)
    return lambda t: 2.0 * c["beta"] * r2 / (t * (t + 1.0))


def _agm_mirror_envelope(trace: Trace, c: dict):
    if trace.z is None:  # an uncoupled run has no z0 to measure from
        return lambda t: None
    div = c["map"].bregman(c["x_star"], trace.z[0])
    coef = 4.0 * c["beta"] / c["alpha_h"]
    return lambda t: coef * div / (t * (t + 1.0))


def _agm_sc_envelope(trace: Trace, c: dict):
    scale = 0.5 * (c["alpha"] + c["beta"]) * _sq_dist(trace.x[0], c)

    def envelope(t):
        # (1 + gamma)^t overflows to inf once the bound is below every
        # double: the quotient is then its limit, 0.0
        with np.errstate(over="ignore"):
            return scale / _growth(c["gamma"], t)

    return envelope


# --- end-to-end checks: (trace, constants, tol, **context) -> [EndCheck]

def _final_gap(trace, c, tol, envelope, **_):
    rhs = envelope(trace, c)(trace.T)
    return [_bound_check("final-gap", trace.final("f") - c["f_star"], rhs, tol)]


def _anytime_gap(trace, c, tol, envelope, **_):
    """The largest margin of f(y_t) - f* over the envelope, over t >= 1; the
    first t that attains it. A nan margin never counts as the largest."""
    if trace.final("f_y") is None:
        raise ValueError("the anytime bound needs f(y_t) at every t")
    t = np.arange(1, trace.T + 1)
    margin = trace.f_y[1:] - (c["f_star"] + envelope(trace, c)(t))
    margin[np.isnan(margin)] = -np.inf
    arg = int(np.argmax(margin))
    return [_bound_check("anytime-gap", margin[arg], 0.0, tol,
                         note=f"worst margin at t = {t[arg]}")]


def _gd_regret(trace, c, tol, **_):
    rhs = c["D"] * c["G"] / np.sqrt(trace.T)
    return [_bound_check("average-regret", _regret(trace) / trace.T, rhs, tol)]


def _sc_regret(trace, c, tol, **_):
    T = trace.T
    rhs = c["G"] ** 2 * np.log(T) / (2.0 * T * c["alpha"]) if T > 1 else 0.0
    chk = _bound_check("average-regret", _regret(trace) / T, rhs, tol)
    if T == 1:
        chk.vacuous = True
        chk.note = "log T vanishes at T = 1"
    return [chk]


def _sc_average(trace, c, tol, problem, **_):
    if problem is None:
        raise ValueError("weighted-average check needs the objective")
    lhs = problem.value(weighted_average(trace)) - c["f_star"]
    rhs = c["G"] ** 2 / (c["alpha"] * (trace.T + 1.0))
    return [_bound_check("weighted-average-gap", lhs, rhs, tol)]


def _projected(trace, c, tol, envelope, **_):
    """The final gap, and the largest gap over the steps of the projected
    step's inequality at y = x*:
    f(x+) - f(y) <= beta <x - x+, x - y> - (beta/2) ||x - x+||^2."""
    x, beta = trace.x, c["beta"]
    d = x[:-1] - x[1:]
    gap = (trace.f[1:] - c["f_star"]) - (beta * np.vecdot(d, x[:-1] - c["x_star"])
                                         - 0.5 * beta * np.vecdot(d, d))
    return _final_gap(trace, c, tol, envelope) + [_bound_check(
        "projected-smoothness-gap", np.max(gap), 0.0, tol,
        note="gap of the projected-step inequality at y = x*")]


def _final_distance(trace, c, tol, **_):
    lhs = _sq_dist(trace.final_x, c)
    rhs = c["kappa"] * np.exp(-trace.T / c["kappa"]) * _sq_dist(trace.x[0], c)
    return [_bound_check("final-distance", lhs, rhs, tol)]


def _mirror_regret(trace, c, tol, **_):
    mp = c["map"]
    div = mp.bregman(c["x_star"], trace.x[0])
    eta, ah = c["eta"], c["alpha_h"]
    # Python's float ** 2 (libm pow) is kept: numpy squares by x * x, which
    # can differ in the last bit
    dual_sq = sum([g ** 2 for g in dual_norm(mp.norm, trace.grad).tolist()])
    rhs = div / eta + eta * dual_sq / (2.0 * ah)
    regret = _regret(trace)
    out = [_bound_check("regret", regret, rhs, tol)]
    if c.get("G_dual") is not None:
        rhs_g = div / eta + eta * trace.T * c["G_dual"] ** 2 / (2.0 * ah)
        out.append(_bound_check("regret-gradient-bound", regret, rhs_g,
                                tol, note="same envelope with the uniform G"))
    return out


def _agm_sc(trace, c, tol, envelope, phi0, **_):
    if c.get("gamma") is None:
        # condition number 1: a single exact step, nothing to telescope
        return [_bound_check("single-step-gap", trace.final("f") - c["f_star"],
                             0.0, tol, note="condition number 1 reaches the "
                                            "minimizer in one step")]
    out = _anytime_gap(trace, c, tol, envelope)
    if phi0 is None:
        raise ValueError("the initial potential is undefined")
    out.append(_bound_check("initial-potential", phi0, envelope(trace, c)(0), tol,
                            note="Phi_0 within (alpha+beta)/2 ||x0-x*||^2"))
    z = _at_every_point(trace, "z")
    residual = sc_agm_recursion_residual(trace.grad, trace.x[:-1], z[:-1], z[1:],
                                         c["alpha"], c["kappa"])
    out.append(_bound_check("z-recursion-residual", np.max(residual), 0.0,
                            1e-9, note="implied aggressive-sequence recursion"))
    return out


def _rate(gamma):
    """The constants of a contraction at rate gamma(kappa): none at kappa = 1,
    where one exact step leaves nothing to telescope."""
    return lambda c: {"gamma": gamma(c["kappa"])} if c.get("kappa", 1.0) > 1.0 else {}


@dataclass(frozen=True)
class _Theorem:
    """One guarantee: its claim, the potential that proves it, the runs it
    applies to, its end-to-end checks and its gap envelope."""

    theorem_id: str
    claim: str
    kind: PotentialKind | None
    methods: tuple
    sets: str                           # "any", "unconstrained" or "bounded"
    end: Callable
    envelope: Callable | None = None
    schedules: tuple | None = None      # None: any schedule of the method
    expected_fail: bool = False
    # (constants) -> the constants the argument itself sets from them
    constants: Callable = lambda c: {}
    reads: tuple = ()                   # constants the end check reads beyond the shape's

    def mismatch(self, method: str, set_id: str, schedule: str | None) -> str | None:
        """Why a run of ``method`` on ``set_id`` with ``schedule`` cannot
        carry this certificate; None when it can."""
        if method not in self.methods:
            return f"is not certifiable on method {method!r}"
        if self.sets == "unconstrained" and set_id != "unconstrained":
            return "needs an unconstrained run"
        if self.sets == "bounded" and set_id == "unconstrained":
            return "needs a constrained run"
        if self.schedules is not None and schedule not in self.schedules:
            return f"needs one of schedules {sorted(self.schedules)}"
        return None


THEOREMS = {th.theorem_id: th for th in [
    _Theorem(
        "gd-regret",
        "average regret of gradient descent with eta = D/(G sqrt(T)) is below D G / sqrt(T)",
        PotentialKind.DISTANCE, ("gd",), "any", _gd_regret, reads=("D",)),
    _Theorem(
        "sc-regret",
        "average regret under strong convexity is below G^2 log(T) / (2 T alpha)",
        PotentialKind.SC_DISTANCE, ("sc-gd",), "any", _sc_regret),
    _Theorem(
        "sc-average",
        "the 2t/(T(T+1))-weighted average satisfies f - f* <= G^2 / (alpha (T+1))",
        None, ("sc-gd",), "unconstrained", _sc_average, reads=("G",)),
    _Theorem(
        "smooth-value-log",
        "smooth descent gap is below beta D^2 (1 + ln T) / (2T)",
        PotentialKind.VALUE, ("smooth-gd",), "unconstrained", _final_gap, _log_envelope),
    _Theorem(
        "smooth-value-scaled",
        "smooth descent gap is below 2 beta D^2 / (T+1)",
        PotentialKind.VALUE_SCALED, ("smooth-gd",), "unconstrained", _final_gap,
        _scaled_envelope),
    _Theorem(
        "smooth-value-distance",
        "smooth descent gap is below beta ||x0 - x*||^2 / (2T)",
        PotentialKind.VALUE_DISTANCE, ("smooth-gd",), "unconstrained", _final_gap,
        _distance_envelope),
    # the projected-step argument certifies plain monotonicity; the
    # unconstrained bound's gradient term is unavailable at a constrained
    # optimum
    _Theorem(
        "smooth-projected",
        "projected smooth descent gap is below (beta/2) ||x0 - x*||^2 / T",
        PotentialKind.VALUE_DISTANCE, ("smooth-gd",), "bounded", _projected,
        _distance_envelope, constants=lambda c: {"projected": True}),
    _Theorem(
        "frank-wolfe-log",
        "Frank-Wolfe gap with the 1/(t+1) schedule is below beta D^2 (1 + ln T) / (2T)",
        PotentialKind.VALUE, ("frank-wolfe",), "bounded", _final_gap, _log_envelope,
        schedules=("fw-1t",)),
    _Theorem(
        "frank-wolfe",
        "Frank-Wolfe gap with the 2/(t+2) schedule is below 2 beta D^2 / (T+1)",
        PotentialKind.VALUE_SCALED, ("frank-wolfe",), "bounded", _final_gap,
        _scaled_envelope, schedules=("fw-2t",)),
    _Theorem(
        "well-conditioned",
        "gap contracts like exp(-T/kappa) times the initial gap",
        PotentialKind.EXP_VALUE, ("wellcond-gd",), "unconstrained", _final_gap,
        _exp_envelope, constants=_rate(lambda kappa: 1.0 / (kappa - 1.0))),
    _Theorem(
        "well-conditioned-distance",
        "squared distance contracts like kappa exp(-T/kappa)",
        None, ("wellcond-gd",), "unconstrained", _final_distance),
    _Theorem(
        "mirror-regret",
        "mirror descent regret is below D_h(x*||x0)/eta + eta sum ||grad||_*^2 / (2 alpha_h)",
        PotentialKind.BREGMAN, ("mirror-euclidean", "mirror-negentropy"), "any",
        _mirror_regret, reads=("G_dual",)),
    _Theorem(
        "agm-smooth",
        "accelerated gap f(y_t) - f* is below 2 beta ||z0 - x*||^2 / (t(t+1)) at every t",
        PotentialKind.AGM, ("agm2",), "any", _anytime_gap, _agm_envelope,
        schedules=("agm-smooth", "agm-smooth-full")),
    _Theorem(
        "agm-mirror",
        "general-norm accelerated gap is below (4 beta/alpha_h) D_h(x*||z0)/(t(t+1)) at every t",
        PotentialKind.AGM_BREGMAN, ("agm2-negentropy",), "bounded", _anytime_gap,
        _agm_mirror_envelope),
    _Theorem(
        "agm-sc",
        "strongly convex accelerated gap is below (1+gamma)^{-t} (alpha+beta)/2 ||x0-x*||^2",
        PotentialKind.AGM_SC, ("sc-agm",), "unconstrained", _agm_sc, _agm_sc_envelope,
        constants=_rate(lambda kappa: 1.0 / (np.sqrt(kappa) - 1.0))),
    _Theorem(
        "failed-potential",
        "the uncoupled t(t+1) potential with a = 4 beta must increase at some step",
        PotentialKind.FAILED, ("smooth-gd",), "any",
        lambda trace, c, tol, **_: [EndCheck(
            "expected-violation", 0.0, 0.0, ok=True, vacuous=True,
            note="pass/fail decided by the per-step record")],
        expected_fail=True),
]}


def _max_distance(trace: Trace, c: dict) -> float | None:
    """The largest distance from a recorded x to x*, where x* is known."""
    if "x_star" not in c:
        return None
    d = trace.x - c["x_star"]
    return float(np.max(np.sqrt(np.vecdot(d, d))))


# constant -> (its estimate from the trace and the constants, None where it
# has none; the honesty flag the estimate raises), in the order estimated
_ESTIMATES = {
    "G": (lambda trace, c: _max_grad_norm(trace), "trajectory-estimated-G"),
    "G_dual": (lambda trace, c: float(np.max(dual_norm(c["map"].norm, trace.grad))),
               "trajectory-estimated-G"),
    "D": (_max_distance, "trajectory-estimated-D"),
}


def _gather_constants(trace: Trace, theorem: _Theorem) -> tuple[dict, list]:
    """Merge trace constants with the estimates of those the theorem reads and
    the trace lacks, then with those its argument sets; returns the
    constants plus the honesty flags the estimates raise."""
    c = dict(trace.constants)
    flags = list(trace.flags)
    shape = POTENTIALS.get(theorem.kind)
    needs = (shape.needs + shape.bound_needs if shape else ()) + theorem.reads

    if "x_star" in c:
        c["x_star"] = as_vector(c["x_star"])
    if "map" in needs:
        c["map"] = get_map(trace.meta.get("map", "euclidean"))
    if trace.T and "eta" not in c:  # no steps: no eta, G or D to estimate
        c["eta"] = trace.eta[0].item()
        if "eta" in needs and np.any(trace.eta != c["eta"]):
            flags.append("varying-eta")
    for name, (estimate, flag) in _ESTIMATES.items():
        if trace.T and name in needs and c.get(name) is None:
            value = estimate(trace, c)
            if value is not None:
                c[name] = value
                flags.append(flag)
    c.update(theorem.constants(c))
    return c, flags


def _replay(report: CertReport, kind: PotentialKind, c: dict, trace: Trace,
            tol: float) -> float | None:
    """Phi_t at every t, the step checks, the telescoping residual and the
    consistency check, into ``report``. Returns Phi_0, or None where
    undefined."""
    shape = POTENTIALS[kind]
    _require(kind, c, shape.needs + shape.bound_needs)
    try:
        _at_every_point(trace, "z" if shape.coupled else "x")
        if shape.weight:
            _at_every_point(trace, "f_y" if shape.coupled else "f")
        t = np.arange(trace.T + 1)
        psi = _bracket(kind, c, trace, t)
        defined = _defined(shape, c, trace)
    except ValueError:
        # no f* for a value potential, or no point or value of the kind it
        # reads at every t: Phi_t is undefined at every t
        return None
    gamma = shape.rate(c)
    phi = _expand(gamma, t, psi)
    steps = np.flatnonzero(defined[:-1] & defined[1:])
    if steps.size:
        report.steps = _step_checks(shape, c, trace, phi, psi, steps, tol)
    known = np.flatnonzero(defined)
    if known.size >= 2:
        first, last = known[0], known[-1]
        total = sum(report.steps["dphi"].tolist()) if report.steps else 0
        report.telescoping_residual = abs((phi[last].item() - phi[first].item()) - total)
        report.telescoping_ok = _telescopes(gamma, psi, steps, first, last, total, tol)
    # monotone-potential consistency: psi_T still dominates its value term
    # a_T (f_T - f*) when the reference is the true optimum
    if (shape.weight and defined[-1] and c.get("f_star") is not None
            and "comparator-reference" not in report.flags):
        last = psi[-1].item()
        gap = (trace.f_y if shape.coupled else trace.f)[-1].item() - c["f_star"]
        value_term = shape.weight(trace.T) * gap
        report.consistency_ok = bool(
            last >= value_term - tol * (_growth(gamma, -trace.T) + abs(last)))
    if gamma and not np.isfinite(phi).all():
        report.flags.append("potential-overflow")
    return phi[0].item() if defined[0] else None


def _telescopes(gamma: float, psi: np.ndarray, steps: np.ndarray, first: int,
                last: int, total: float, tol: float) -> bool:
    """Whether Phi_L - Phi_F, over the defined rows F..L, equals the sum of
    the checked ``steps`` up to tol (1 + |Phi_F| + |Phi_L|), both sides
    divided by (1 + gamma)^L: step t's change (1 + gamma) psi_{t+1} - psi_t
    weighs (1 + gamma)^(t-L) <= 1. At gamma = 0 that sum is Phi's ``total``."""
    w = _growth(gamma, first - last)
    if gamma:
        change = (1.0 + gamma) * psi[steps + 1] - psi[steps]
        total = sum((_growth(gamma, steps - last) * change).tolist())
    psi_f, psi_l = psi[first].item(), psi[last].item()
    residual = abs((psi_l - w * psi_f) - total)
    return bool(residual <= tol * (w + w * abs(psi_f) + abs(psi_l)))


def certify_trace(theorem_id: str, trace: Trace, problem: Problem | None = None,
                  tol: float = DEFAULT_TOL) -> CertReport:
    """Replay one theorem's potential argument on a trace.

    Produces per-step verdicts, the telescoping residual, the
    potential-vs-final-gap consistency check, and the end-to-end inequality
    at the theorem's stated constants. Every check is evaluated over the
    trace's columns at once; the totals are Python sums, in step order.
    """
    if theorem_id not in THEOREMS:
        raise KeyError(f"unknown theorem id {theorem_id!r}")
    spec = THEOREMS[theorem_id]

    consts, flags = _gather_constants(trace, spec)
    report = CertReport(theorem=theorem_id, claim=spec.claim,
                        potential_kind=spec.kind.value if spec.kind else None,
                        constants={k: v for k, v in consts.items() if k != "map"},
                        flags=flags, expected_fail=spec.expected_fail, tol=tol)

    if trace.T == 0:
        report.end_checks.append(EndCheck("no-steps", 0.0, 0.0, True, vacuous=True,
                                          note="empty trace: nothing to certify"))
        return report

    try:
        phi0 = None
        if spec.kind is not None and "single-step-optimal" not in trace.flags:
            # the columns overflow and meet inf - inf as Python floats do: quietly
            with np.errstate(over="ignore", invalid="ignore"):
                phi0 = _replay(report, spec.kind, consts, trace, tol)
        report.end_checks.extend(spec.end(
            trace, consts, tol, envelope=spec.envelope, phi0=phi0,
            problem=problem))
    except (ValueError, KeyError) as exc:
        report.error = f"not certifiable: {exc}"
    return report


def rate_comparison(traces: list, theorem_ids: list) -> dict:
    """Side-by-side per-iteration table: measured gap of each trace next to
    each theorem's envelope, on the first trace of a method the theorem
    certifies, else on the first trace. Traces must be over the same
    objective."""
    columns = ["t"]
    horizon = max((tr.T + 1 for tr in traces), default=0)
    series = [list(range(horizon))]
    for tr in traces:
        label = tr.meta.get("method", "run")
        columns.append(f"gap:{label}")
        f_star = tr.constants.get("f_star", 0.0)
        # the gap at y_t where the run records one, else at x_t, else none
        at_y = tr.f_y if tr.f_y is not None else tr.f[:0]
        gaps = (np.concatenate([at_y, tr.f[len(at_y):]]) - f_star).tolist()
        series.append(gaps + [None] * (horizon - len(gaps)))
    for tid in theorem_ids:
        if tid not in THEOREMS:
            raise KeyError(f"unknown theorem id {tid!r}")
        columns.append(f"envelope:{tid}")
        if traces:
            own = next((tr for tr in traces
                        if tr.meta.get("method") in THEOREMS[tid].methods), traces[0])
            series.append(_envelope_column(tid, own, horizon))
    return {"columns": columns, "rows": [list(row) for row in zip(*series)]}


def _envelope_column(theorem_id: str, trace: Trace, horizon: int) -> list:
    """Theoretical gap envelope at t = 0..horizon-1 at the constants the
    certificate reads on the trace, built once; None at t = 0, and at every t
    for theorems that bound no gap or whose envelope reads a constant the
    trace does not carry."""
    spec = THEOREMS[theorem_id]
    if spec.envelope is None:
        return [None] * horizon
    try:
        bound = spec.envelope(trace, _gather_constants(trace, spec)[0])
        return [None] + [bound(t) for t in range(1, horizon)]
    except KeyError:
        return [None] * horizon
