"""Run configuration, method/problem/theorem registries, the experiment
driver, and machine-readable trace/report serialization."""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from gdcert import accel, descent, mirror, smooth
from gdcert.certify import THEOREMS, certify_trace
from gdcert.core import (
    Ball,
    Box,
    FeasibleSet,
    Norm,
    Simplex,
    Unconstrained,
    as_vector,
    dual_norm,
)
from gdcert.problems import (
    ADVERSARIES,
    PROBLEMS,
    FixedAdversary,
    OnlineAdversary,
    get_adversary,
)
from gdcert.trace import Trace


class ConfigError(ValueError):
    """Invalid or unresolvable run configuration (CLI exit code 2)."""


@dataclass
class RunConfig:
    """One experiment: a problem, a method, and what to certify."""

    problem: str
    method: str
    steps: int
    feasible_set: str = "unconstrained"
    schedule: str | None = None
    x0: list | str = "default"
    certify: bool = False
    theorems: list = field(default_factory=list)
    out: str | None = None
    fmt: str = "json"
    seed: int = 0

    def echo(self) -> dict:
        return {
            "problem": self.problem,
            "method": self.method,
            "steps": self.steps,
            "set": self.feasible_set,
            "schedule": self.schedule,
            "x0": self.x0 if isinstance(self.x0, str) else list(self.x0),
            "certify": self.certify,
            "theorems": list(self.theorems),
            "format": self.fmt,
            "seed": self.seed,
        }


SETS = ("unconstrained", "ball", "box", "simplex")

FORMATS = ("json", "csv")

METHODS = ("gd", "sc-gd", "smooth-gd", "frank-wolfe", "wellcond-gd",
           "mirror-euclidean", "mirror-negentropy", "agm2", "agm1",
           "agm2-negentropy", "sc-agm", "restart-agm")

SCHEDULES = {
    "gd": ("dg-sqrt-T", "dg-sqrt-t"),
    "sc-gd": ("inv-alpha-t1", "inv-alpha-t"),
    "frank-wolfe": ("fw-2t", "fw-1t"),
    "agm2": ("agm-smooth", "agm-smooth-full", "agm-lambda"),
    "mirror-euclidean": ("md-tuned",),
    "mirror-negentropy": ("md-tuned",),
}

# Which method (and set/schedule shape) each certifiable claim applies to.
# Anything not listed here is rejected at configuration time.
COMPAT = {
    "gd-regret": {"methods": {"gd"}, "sets": "any", "schedules": None},
    "sc-regret": {"methods": {"sc-gd"}, "sets": "any", "schedules": None},
    "sc-average": {"methods": {"sc-gd"}, "sets": "unconstrained", "schedules": None},
    "smooth-value-log": {"methods": {"smooth-gd"}, "sets": "unconstrained", "schedules": None},
    "smooth-value-scaled": {"methods": {"smooth-gd"}, "sets": "unconstrained", "schedules": None},
    "smooth-value-distance": {"methods": {"smooth-gd"}, "sets": "unconstrained", "schedules": None},
    "smooth-projected": {"methods": {"smooth-gd"}, "sets": "bounded", "schedules": None},
    "frank-wolfe-log": {"methods": {"frank-wolfe"}, "sets": "bounded", "schedules": {"fw-1t"}},
    "frank-wolfe": {"methods": {"frank-wolfe"}, "sets": "bounded", "schedules": {"fw-2t"}},
    "well-conditioned": {"methods": {"wellcond-gd"}, "sets": "unconstrained", "schedules": None},
    "well-conditioned-distance": {"methods": {"wellcond-gd"}, "sets": "unconstrained", "schedules": None},
    "mirror-regret": {"methods": {"mirror-euclidean", "mirror-negentropy"},
                      "sets": "any", "schedules": None},
    "agm-smooth": {"methods": {"agm2"}, "sets": "any",
                   "schedules": {"agm-smooth", "agm-smooth-full"}},
    "agm-mirror": {"methods": {"agm2-negentropy"}, "sets": "bounded", "schedules": None},
    "agm-sc": {"methods": {"sc-agm"}, "sets": "unconstrained", "schedules": None},
    "failed-potential": {"methods": {"smooth-gd"}, "sets": "any", "schedules": None},
}


def make_set(set_id: str, dim: int) -> FeasibleSet:
    if set_id == "unconstrained":
        return Unconstrained(dim)
    if set_id == "ball":
        return Ball(np.zeros(dim), 1.0)
    if set_id == "box":
        return Box(-np.ones(dim), np.ones(dim))
    if set_id == "simplex":
        return Simplex(dim)
    raise ConfigError(f"unknown set id {set_id!r}")


def default_x0(set_id: str, dim: int) -> np.ndarray:
    """The all-ones vector scaled into the feasible set; uniform (and
    vertex-free) on the simplex."""
    ones = np.ones(dim)
    if set_id == "simplex":
        return ones / dim
    if set_id == "ball":
        return ones / float(np.linalg.norm(ones))
    if set_id == "box":
        return ones
    return ones


def _is_float(x) -> bool:
    return type(x) is float or type(x) is np.float64


def _is_int(x) -> bool:
    return type(x) is int or isinstance(x, np.integer)


def _finite_coordinates(x0) -> bool:
    if not isinstance(x0, (list, tuple, np.ndarray)):
        return False
    try:
        return all((_is_float(v) or _is_int(v)) and math.isfinite(v) for v in x0)
    except OverflowError:  # an integer beyond the float range
        return False


def validate_config(config: RunConfig) -> None:
    if config.problem not in PROBLEMS and config.problem not in ADVERSARIES:
        raise ConfigError(f"unknown problem id {config.problem!r}")
    if config.method not in METHODS:
        raise ConfigError(f"unknown method id {config.method!r}")
    if config.feasible_set not in SETS:
        raise ConfigError(f"unknown set id {config.feasible_set!r}")
    if not _is_int(config.steps):
        raise ConfigError(f"steps must be an integer, got {config.steps!r}")
    if config.steps < 1:
        raise ConfigError("steps must be >= 1")
    if isinstance(config.x0, str):
        if config.x0 != "default":
            raise ConfigError(f"x0 must be 'default' or a list of numbers, got {config.x0!r}")
    elif not _finite_coordinates(config.x0):
        raise ConfigError(f"x0 must be a list of finite numbers, got {config.x0!r}")
    if config.fmt not in FORMATS:
        raise ConfigError(f"unknown output format {config.fmt!r}; use one of {FORMATS}")
    allowed = SCHEDULES.get(config.method)
    if config.schedule is not None:
        if allowed is None or config.schedule not in allowed:
            raise ConfigError(
                f"schedule {config.schedule!r} does not apply to method {config.method!r}")
    for tid in config.theorems:
        if tid not in THEOREMS:
            raise ConfigError(f"unknown theorem id {tid!r}")
        rule = COMPAT[tid]
        if config.method not in rule["methods"]:
            raise ConfigError(
                f"theorem {tid!r} is not certifiable on method {config.method!r}")
        if rule["sets"] == "unconstrained" and config.feasible_set != "unconstrained":
            raise ConfigError(f"theorem {tid!r} needs an unconstrained run")
        if rule["sets"] == "bounded" and config.feasible_set == "unconstrained":
            raise ConfigError(f"theorem {tid!r} needs a constrained run")
        sched = config.schedule or (allowed[0] if allowed else None)
        if rule["schedules"] is not None and sched not in rule["schedules"]:
            raise ConfigError(
                f"theorem {tid!r} needs one of schedules {sorted(rule['schedules'])}")
    if config.theorems and not config.certify:
        raise ConfigError("theorem list given without --certify")


def _grad_bound_or_estimate(adversary: OnlineAdversary, x0, kind: Norm,
                            flags: list) -> float:
    G = adversary.grad_bound(kind)
    if G is None:
        g = adversary.next_loss(0, x0).gradient(x0)
        G = dual_norm(kind, g)
        flags.append("trajectory-estimated-G")
    return float(G)


def _dispatch(config: RunConfig):
    """Run the configured method; returns (trace, problem_or_None, feasible)."""
    adversary = get_adversary(config.problem)
    problem = adversary.problem if isinstance(adversary, FixedAdversary) else None
    dim = adversary.dim
    feasible = make_set(config.feasible_set, dim)
    if isinstance(config.x0, str):
        x0 = default_x0(config.feasible_set, dim)
    else:
        x0 = as_vector([float(v) for v in config.x0])
        if x0.shape[0] != dim:
            raise ConfigError(f"x0 has dimension {x0.shape[0]}, problem needs {dim}")
    T = config.steps
    sched_id = config.schedule or (SCHEDULES.get(config.method, (None,))[0])
    method = config.method

    if method in ("gd", "sc-gd"):
        flags: list = []
        comparator = adversary.comparator_over(feasible, T)
        if feasible.diameter is not None:
            D = feasible.diameter
        else:
            D = float(np.linalg.norm(as_vector(x0) - comparator))
        G = _grad_bound_or_estimate(adversary, x0, Norm.EUCLIDEAN, flags)
        if method == "gd":
            if sched_id == "dg-sqrt-t":
                schedule = descent.AnytimeScaled(D, G)
            else:
                schedule = descent.HorizonScaled(D, G, T)
            trace = descent.run_online_gd(adversary, feasible, x0, schedule, T,
                                          comparator=comparator)
        else:
            alpha = adversary.strongly_convex_alpha
            if not alpha:
                raise ConfigError(
                    f"problem {config.problem!r} declares no strong convexity")
            shift = 0 if sched_id == "inv-alpha-t" else 1
            trace = descent.run_strongly_convex_gd(
                adversary, feasible, x0, alpha, T, shift=shift, comparator=comparator)
        trace.constants["D"] = D
        trace.constants["G"] = G
        for f in flags:
            trace.add_flag(f)
        if problem is not None:
            trace.constants["f_star"] = problem.optimal_value_over(feasible)
        return trace, problem, feasible

    if method in ("mirror-euclidean", "mirror-negentropy"):
        mp = mirror.get_map(method.split("-", 1)[1])
        flags = []
        comparator = adversary.comparator_over(feasible, T)
        G_dual = adversary.grad_bound(mp.norm)
        if G_dual is None:
            g = adversary.next_loss(0, x0).gradient(x0)
            G_dual = dual_norm(mp.norm, g)
            flags.append("trajectory-estimated-G")
        eta = mirror.tuned_eta(mp, comparator, x0, G_dual, T)
        trace = mirror.run_mirror_descent(adversary, mp, feasible, x0, eta, T,
                                          comparator=comparator)
        trace.constants["G_dual"] = float(G_dual)
        for f in flags:
            trace.add_flag(f)
        if problem is not None:
            trace.constants["f_star"] = problem.optimal_value_over(feasible)
        return trace, problem, feasible

    if problem is None:
        raise ConfigError(
            f"method {method!r} needs a fixed objective, not an online adversary")

    if method == "smooth-gd":
        fs = None if config.feasible_set == "unconstrained" else feasible
        return smooth.run_smooth_gd(problem, x0, T, feasible=fs), problem, feasible
    if method == "frank-wolfe":
        if feasible.diameter is None:
            raise ConfigError("Frank-Wolfe needs a bounded set")
        return (smooth.run_frank_wolfe(problem, feasible, x0, T, schedule=sched_id),
                problem, feasible)
    if method == "wellcond-gd":
        if config.feasible_set != "unconstrained":
            raise ConfigError("well-conditioned descent runs unconstrained")
        return smooth.run_well_conditioned(problem, x0, T), problem, feasible
    if method == "agm2":
        fs = None if config.feasible_set == "unconstrained" else feasible
        return (accel.run_agm2(problem, x0, T, schedule=sched_id, feasible=fs),
                problem, feasible)
    if method == "agm1":
        if config.feasible_set != "unconstrained":
            raise ConfigError("the momentum-form method runs unconstrained")
        return accel.run_agm1(problem, x0, T), problem, feasible
    if method == "agm2-negentropy":
        if config.feasible_set != "simplex":
            raise ConfigError("the entropy-map accelerated method needs the simplex")
        mp = mirror.get_map("negentropy")
        return (accel.run_general_norm_agm(problem, mp, feasible, x0, T),
                problem, feasible)
    if method == "sc-agm":
        if config.feasible_set != "unconstrained":
            raise ConfigError("the strongly convex accelerated method runs unconstrained")
        return accel.run_sc_agm(problem, x0, T), problem, feasible
    if method == "restart-agm":
        if config.feasible_set != "unconstrained":
            raise ConfigError("the restart reduction runs unconstrained")
        kappa = problem.kappa
        if not kappa:
            raise ConfigError("the restart reduction needs both curvature constants")
        epoch = int(np.ceil(4.0 * np.sqrt(kappa)))
        max_epochs = max(1, T // epoch)
        trace = accel.restart_accelerated(problem, x0, 1e-6, max_epochs=max_epochs)
        return trace, problem, feasible
    raise ConfigError(f"unknown method id {method!r}")


@dataclass
class RunResult:
    config: RunConfig
    trace: Trace | None
    reports: list
    error: str | None = None

    @property
    def passed(self) -> bool:
        return self.error is None and all(r.passed for r in self.reports)

    @property
    def exit_code(self) -> int:
        if self.error is not None:
            return 1
        return 0 if self.passed else 1

    def report_dict(self) -> dict:
        if not self.reports and self.error is None:
            return {}
        return {
            "config": self.config.echo(),
            "passed": self.passed,
            "error": self.error,
            "certificates": [r.to_dict() for r in self.reports],
        }


def run_experiment(config: RunConfig) -> RunResult:
    """Validate, run, certify, and (when asked) write trace and report files.

    Deterministic for a fixed (config, seed): runs use no randomness and the
    serializers are order- and format-stable.
    """
    validate_config(config)
    try:
        trace, problem, feasible = _dispatch(config)
    except FloatingPointError as exc:
        return RunResult(config=config, trace=None, reports=[],
                         error=f"numeric failure: {exc}")
    trace.meta["config"] = config.echo()
    reports = []
    if config.certify:
        theorems = config.theorems or _default_theorems(config)
        for tid in theorems:
            reports.append(certify_trace(tid, trace, problem=problem,
                                         feasible=feasible))
    result = RunResult(config=config, trace=trace, reports=reports)
    if config.out:
        write_outputs(result, config.out, config.fmt)
    return result


def _default_theorems(config: RunConfig) -> list:
    sched = config.schedule or (SCHEDULES.get(config.method, (None,))[0])
    out = []
    for tid, rule in COMPAT.items():
        if config.method not in rule["methods"]:
            continue
        if rule["sets"] == "unconstrained" and config.feasible_set != "unconstrained":
            continue
        if rule["sets"] == "bounded" and config.feasible_set == "unconstrained":
            continue
        if rule["schedules"] is not None and sched not in rule["schedules"]:
            continue
        if THEOREMS[tid].expected_fail:
            continue  # the diagnostic is opt-in
        out.append(tid)
    return out


# --- serialization ---------------------------------------------------------

def _json_scalar(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    f = float(x)
    if math.isnan(f) or math.isinf(f):
        return json.dumps(str(f))
    return format(f, ".17g")


@functools.lru_cache(maxsize=32)
def _float_template(n: int) -> str:
    return ",".join(["%.17g"] * n)


def _column_format(values: list) -> str:
    """``%.17g`` or ``%d`` when the column can skip ``json_dumps``; ``%s``
    otherwise. Non-finite floats need ``_json_scalar`` to be quoted."""
    if all(map(_is_float, values)) and all(map(math.isfinite, values)):
        return "%.17g"
    if all(map(_is_int, values)):
        return "%d"
    return "%s"


def _records_json(rows: list) -> str | None:
    """A list of dicts sharing one key sequence, formatted with one row
    template; None when the key sequences differ."""
    keys = list(rows[0])
    if any(list(row) != keys for row in rows):
        return None
    formats = [_column_format([row[k] for row in rows]) for k in keys]
    template = "{" + ",".join(json.dumps(str(k)).replace("%", "%%") + ":" + f
                              for k, f in zip(keys, formats)) + "}"
    cols = [(k, f != "%s") for k, f in zip(keys, formats)]
    return "[" + ",".join(
        template % tuple([row[k] if d else json_dumps(row[k]) for k, d in cols])
        for row in rows) + "]"


def json_dumps(obj) -> str:
    """Deterministic JSON: numbers carry 17 significant digits so every
    double round-trips exactly; NaN and infinities become the strings
    ``"nan"``, ``"inf"`` and ``"-inf"``.

    Finite 1-D float64 arrays and lists of same-keyed dicts (trace and
    report rows) are formatted through templates; the output is the same
    as formatting each element on its own.
    """
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (bool, np.bool_, int, np.integer, float, np.floating)):
        return _json_scalar(obj)
    if isinstance(obj, np.ndarray):
        if obj.dtype == np.float64 and obj.ndim == 1 and np.isfinite(obj).all():
            return "[" + _float_template(obj.size) % tuple(obj.tolist()) + "]"
        return json_dumps(obj.tolist())
    if isinstance(obj, (list, tuple)):
        if obj and all(isinstance(v, dict) for v in obj):
            text = _records_json(obj)
            if text is not None:
                return text
        return "[" + ",".join(json_dumps(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = (json.dumps(str(k)) + ":" + json_dumps(v) for k, v in obj.items())
        return "{" + ",".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _csv_scalar(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))  # shortest round-trip representation


def _csv_vector(v: np.ndarray) -> str:
    """The cells of a float vector; the same text as ``_csv_scalar`` on each."""
    return ",".join(map(repr, v.tolist()))


def trace_to_dict(trace: Trace) -> dict:
    """One top-level object with ``meta`` and ``steps``, for ``json_dumps``.
    Iterates stay numpy arrays."""
    norm_kind = Norm.L1 if trace.meta.get("map") == "negentropy" else Norm.EUCLIDEAN
    consts = {}
    for k, v in trace.constants.items():
        consts[k] = v.tolist() if isinstance(v, np.ndarray) else v
    f_star = trace.constants.get("f_star")
    steps = []
    for s in trace.steps:
        gap = None
        if s.f_ref is not None:
            gap = s.f - s.f_ref
        elif f_star is not None:
            gap = s.f - f_star
        row = {"t": s.t, "x": s.x, "f": s.f, "gap": gap,
               "grad_norm": float(np.linalg.norm(s.grad)),
               "grad_dual_norm": dual_norm(norm_kind, s.grad),
               "eta": s.eta}
        if s.y is not None:
            row["y"] = s.y
            row["f_y"] = s.f_y
        if s.z is not None:
            row["z"] = s.z
        if s.phi is not None:
            row["phi"] = s.phi
            row["step_ok"] = s.step_ok
        steps.append(row)
    final = {"x": trace.final_x, "f": trace.final_f}
    if trace.final_y is not None:
        final["y"] = trace.final_y
        final["f_y"] = trace.final_f_y
    if trace.final_z is not None:
        final["z"] = trace.final_z
    meta = {k: v for k, v in trace.meta.items() if k != "constants"}
    meta["constants"] = consts
    meta["final"] = final
    return {"meta": meta, "steps": steps}


def trace_to_csv(trace: Trace) -> str:
    """Per-iteration table: header row plus one row per recorded step."""
    norm_kind = Norm.L1 if trace.meta.get("map") == "negentropy" else Norm.EUCLIDEAN
    dim = trace.final_x.shape[0]
    cols = ["t"] + [f"x{i}" for i in range(dim)]
    has_yz = trace.steps and trace.steps[0].y is not None
    if has_yz:
        cols += [f"y{i}" for i in range(dim)] + [f"z{i}" for i in range(dim)] + ["f_y"]
    cols += ["f", "gap", "grad_norm", "grad_dual_norm", "eta", "phi", "step_ok"]
    f_star = trace.constants.get("f_star")
    lines = [",".join(cols)]
    for s in trace.steps:
        gap = s.f - s.f_ref if s.f_ref is not None else (
            s.f - f_star if f_star is not None else None)
        row = [_csv_scalar(s.t), _csv_vector(s.x)]
        if has_yz:
            row += [_csv_vector(s.y), _csv_vector(s.z), _csv_scalar(s.f_y)]
        row += [_csv_scalar(v) for v in (
            s.f, gap, float(np.linalg.norm(s.grad)), dual_norm(norm_kind, s.grad),
            s.eta, s.phi, s.step_ok)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def report_to_csv(reports: list) -> str:
    cols = ["theorem", "t", "phi", "dphi", "allowed", "amortized", "ok", "slack"]
    lines = [",".join(cols)]
    for rep in reports:
        for s in rep.step_checks:
            row = [rep.theorem, s.t, s.phi, s.dphi, s.allowed, s.amortized,
                   s.ok, s.slack]
            lines.append(",".join(v if isinstance(v, str) else _csv_scalar(v)
                                  for v in row))
    return "\n".join(lines) + "\n"


def emit_trace(trace: Trace, path: str, fmt: str = "json") -> str:
    text = json_dumps(trace_to_dict(trace)) if fmt == "json" else trace_to_csv(trace)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def emit_report(result_or_reports, path: str, fmt: str = "json") -> str:
    """Write certification results; JSON is canonical, CSV is the per-step
    table. An empty report serializes to an empty JSON object."""
    if isinstance(result_or_reports, RunResult):
        payload = result_or_reports.report_dict()
        reports = result_or_reports.reports
    else:
        reports = list(result_or_reports)
        payload = {"certificates": [r.to_dict() for r in reports]} if reports else {}
    text = json_dumps(payload) if fmt == "json" else report_to_csv(reports)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def write_outputs(result: RunResult, out: str, fmt: str = "json") -> list:
    """Write the trace to ``out`` and, when certifying, the report next to it."""
    paths = []
    if result.trace is not None:
        paths.append(emit_trace(result.trace, out, fmt))
    if result.reports or result.error:
        stem, dot, ext = out.rpartition(".")
        report_path = (stem + ".report." + ext) if dot else (out + ".report")
        paths.append(emit_report(result, report_path, fmt))
    return paths


def registry_listing() -> dict:
    return {
        "problems": sorted(PROBLEMS) + sorted(ADVERSARIES),
        "methods": list(METHODS),
        "sets": list(SETS),
        "schedules": {k: list(v) for k, v in SCHEDULES.items()},
        "theorems": {tid: THEOREMS[tid].claim for tid in THEOREMS},
    }
