"""Run configuration, the METHODS table (one entry per method), the
experiment driver, and machine-readable trace/report serialization."""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

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
    Problem,
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
        }


SETS = ("unconstrained", "ball", "box", "simplex")

FORMATS = ("json", "csv")


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
    return ones


class _Prepared(NamedTuple):
    """What ``validate_config`` makes for a run. D (the set's diameter, else
    x0's distance to the comparator) and G with its flags are made where the
    step size reads them; the comparator is an online method's, and
    ``problem`` is None for an online adversary. ``theorems`` are the ids to
    certify, empty when not certifying."""

    adversary: OnlineAdversary
    problem: Problem | None
    feasible: FeasibleSet
    x0: np.ndarray
    T: int
    schedule: str | None
    mirror_map: mirror.MirrorMap | None
    G: float | None
    flags: list
    comparator: np.ndarray | None
    D: float | None
    theorems: tuple = ()


def _gd(p: _Prepared) -> Trace:
    if p.schedule == "dg-sqrt-t":
        schedule = descent.AnytimeScaled(p.D, p.G)
    else:
        schedule = descent.HorizonScaled(p.D, p.G, p.T)
    return descent.run_online_gd(p.adversary, p.feasible, p.x0, schedule, p.T,
                                 comparator=p.comparator)


def _sc_gd(p: _Prepared) -> Trace:
    return descent.run_strongly_convex_gd(
        p.adversary, p.feasible, p.x0, p.adversary.strongly_convex_alpha, p.T,
        shift=0 if p.schedule == "inv-alpha-t" else 1, comparator=p.comparator)


def _mirror_descent(p: _Prepared) -> Trace:
    eta = mirror.tuned_eta(p.mirror_map, p.comparator, p.x0, p.G, p.T)
    return mirror.run_mirror_descent(p.adversary, p.mirror_map, p.feasible, p.x0,
                                     eta, p.T, comparator=p.comparator)


def _restart_agm(p: _Prepared) -> Trace:
    epoch = int(np.ceil(4.0 * np.sqrt(p.problem.kappa)))
    return accel.restart_accelerated(p.problem, p.x0, 1e-6,
                                     max_epochs=max(1, p.T // epoch))


@dataclass(frozen=True)
class _Method:
    """One method: how it runs from what ``_prepare`` made, and the runs it
    takes. ``run`` calls its runner through the runner's module, so that a
    wrapper set on the module sees the call."""

    run: Callable                        # _Prepared -> Trace
    sets: tuple = SETS
    schedules: tuple = ()                # default first
    online: bool = False                 # plays an online adversary, with a comparator
    start_map: str | None = None         # x0 unprojected, in this mirror map's domain
    needs: tuple = ()                    # "kappa", "alpha", and D, G > 0
    unconstrained_only: tuple = ()       # schedules that take no bounded set


METHODS = {
    "gd": _Method(_gd, schedules=("dg-sqrt-T", "dg-sqrt-t"), online=True,
                  needs=("D", "G")),
    "sc-gd": _Method(_sc_gd, schedules=("inv-alpha-t1", "inv-alpha-t"),
                     online=True, needs=("alpha",)),
    "smooth-gd": _Method(
        lambda p: smooth.run_smooth_gd(p.problem, p.x0, p.T, feasible=p.feasible)),
    "frank-wolfe": _Method(
        lambda p: smooth.run_frank_wolfe(p.problem, p.feasible, p.x0, p.T,
                                         schedule=p.schedule),
        sets=("ball", "box", "simplex"), schedules=tuple(smooth.FW_STEP_SIZES),
        start_map="euclidean"),
    "wellcond-gd": _Method(
        lambda p: smooth.run_well_conditioned(p.problem, p.x0, p.T),
        sets=("unconstrained",), needs=("kappa",)),
    "mirror-euclidean": _Method(_mirror_descent, schedules=("md-tuned",),
                                online=True, start_map="euclidean", needs=("G",)),
    "mirror-negentropy": _Method(_mirror_descent, sets=("unconstrained", "simplex"),
                                 schedules=("md-tuned",), online=True,
                                 start_map="negentropy", needs=("G",)),
    "agm2": _Method(
        lambda p: accel.run_agm2(p.problem, p.x0, p.T, schedule=p.schedule,
                                 feasible=p.feasible),
        schedules=accel.AgmSchedule.KINDS, unconstrained_only=("agm-lambda",)),
    "agm1": _Method(lambda p: accel.run_agm1(p.problem, p.x0, p.T),
                    sets=("unconstrained",)),
    "agm2-negentropy": _Method(
        lambda p: accel.run_general_norm_agm(p.problem, p.mirror_map, p.feasible,
                                             p.x0, p.T),
        sets=("simplex",), start_map="negentropy"),
    "sc-agm": _Method(lambda p: accel.run_sc_agm(p.problem, p.x0, p.T),
                      sets=("unconstrained",), needs=("kappa",)),
    "restart-agm": _Method(_restart_agm, sets=("unconstrained",), needs=("kappa",)),
}


def _is_int(x) -> bool:
    return type(x) is int or isinstance(x, np.integer)


def _finite_coordinates(x0) -> bool:
    if not isinstance(x0, (list, tuple, np.ndarray)):
        return False
    try:
        return all((type(v) in (float, np.float64) or _is_int(v)) and math.isfinite(v)
                   for v in x0)
    except OverflowError:  # an integer beyond the float range
        return False


def validate_config(config: RunConfig) -> _Prepared:
    """Reject a config its run cannot take (ConfigError), certifying with no
    theorem that applies included; returns what ``_prepare`` makes for the
    run with the theorems to certify, so that the run need not make them
    again."""
    if config.problem not in PROBLEMS and config.problem not in ADVERSARIES:
        raise ConfigError(f"unknown problem id {config.problem!r}")
    if config.method not in METHODS:
        raise ConfigError(f"unknown method id {config.method!r}")
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
    if config.theorems and not config.certify:
        raise ConfigError("theorem list given without --certify")
    prepared = _prepare(config)
    if not config.certify:
        return prepared
    for tid in config.theorems:
        if tid not in THEOREMS:
            raise ConfigError(f"unknown theorem id {tid!r}")
        why = THEOREMS[tid].mismatch(config.method, config.feasible_set,
                                     prepared.schedule)
        if why:
            raise ConfigError(f"theorem {tid!r} {why}")
    # the configured theorems, else every one that applies; the expected-fail
    # diagnostic is opt-in
    theorems = config.theorems or [
        tid for tid, th in THEOREMS.items() if not th.expected_fail and th.mismatch(
            config.method, config.feasible_set, prepared.schedule) is None]
    if not theorems:
        raise ConfigError(f"no theorem certifies this run of method {config.method!r}; "
                          "run it uncertified")
    return prepared._replace(theorems=tuple(theorems))


def _prepare(config: RunConfig) -> _Prepared:
    """What the run starts from (see ``_Prepared``). Raises ConfigError for a
    run its method cannot start: a set or a schedule it does not run on, a
    constant the objective does not declare, no comparator, an x0 it cannot
    take, or a step size D/G or 1/G with D or G equal to 0 or not finite."""
    method, entry = config.method, METHODS[config.method]
    if config.schedule is not None and config.schedule not in entry.schedules:
        raise ConfigError(
            f"schedule {config.schedule!r} does not apply to method {method!r}")
    # the configured schedule, or the method's default one
    schedule = config.schedule or next(iter(entry.schedules), None)
    adversary = get_adversary(config.problem)
    feasible = make_set(config.feasible_set, adversary.dim)  # which checks the set id
    if isinstance(config.x0, str):
        x0 = default_x0(config.feasible_set, adversary.dim)
    else:
        x0 = as_vector([float(v) for v in config.x0])
        if x0.shape[0] != adversary.dim:
            raise ConfigError(
                f"x0 has dimension {x0.shape[0]}, problem needs {adversary.dim}")
    if config.feasible_set not in entry.sets:
        raise ConfigError(f"method {method!r} runs on the sets {list(entry.sets)} only")
    if schedule in entry.unconstrained_only and config.feasible_set != "unconstrained":
        raise ConfigError(f"schedule {schedule!r} runs on the unconstrained set only")
    problem = adversary.problem if isinstance(adversary, FixedAdversary) else None
    if not entry.online and problem is None:
        raise ConfigError(
            f"method {method!r} needs a fixed objective, not an online adversary")
    if "kappa" in entry.needs and not problem.kappa:
        raise ConfigError(f"method {method!r} needs both curvature constants")
    if "alpha" in entry.needs and not adversary.strongly_convex_alpha:
        raise ConfigError(f"problem {config.problem!r} declares no strong convexity")
    mp = None if entry.start_map is None else mirror.get_map(entry.start_map)
    if mp is not None and not (feasible.member(x0) and mp.interior(x0)):
        raise ConfigError(f"method {method!r} needs x0 in the {config.feasible_set} "
                          f"set and in the {entry.start_map} map's domain")
    comparator, D, G, flags = None, None, None, []
    if entry.online:
        try:
            comparator = adversary.comparator_over(feasible, config.steps)
        except ValueError as exc:
            raise ConfigError(f"problem {config.problem!r} has no comparator "
                              f"on an unconstrained run: {exc}") from exc
    if "D" in entry.needs:
        D = feasible.diameter
        if D is None:
            with np.errstate(all="ignore"):  # an overflow is rejected below
                D = float(np.linalg.norm(x0 - comparator))
        if D == 0.0:
            raise ConfigError(f"method {method!r} steps by D/(G sqrt T), and D is 0: "
                              "a one-point set, or x0 at the comparator")
        if not math.isfinite(D):
            raise ConfigError(f"method {method!r} steps by D/(G sqrt T), and D, "
                              "the distance from x0 to the comparator, is not finite")
    if "G" in entry.needs:
        # mirror descent bounds the gradients in the map's dual norm
        kind = Norm.EUCLIDEAN if mp is None else mp.norm
        G = adversary.grad_bound(kind)
        if G is None:
            with np.errstate(all="ignore"):  # an overflow is rejected below
                G = dual_norm(kind, adversary.next_loss(0, x0).gradient(x0))
            flags.append("trajectory-estimated-G")
        G = float(G)
        if G == 0.0:
            raise ConfigError(f"method {method!r} divides its step size by G, and G "
                              "is 0: no declared bound, and the gradient at x0 is 0")
        if not math.isfinite(G):
            raise ConfigError(f"method {method!r} divides its step size by G, and G, "
                              "the gradient's norm at x0, is not finite")
    return _Prepared(adversary, problem, feasible, x0, config.steps, schedule, mp,
                     G, flags, comparator, D)


def _dispatch(config: RunConfig, p: _Prepared) -> Trace:
    """Run the configured method from what ``_prepare`` made for it. The trace
    records the D and G its step size read (G as G_dual for mirror descent)
    with their flags, and an online run on a fixed objective its f*."""
    entry = METHODS[config.method]
    trace = entry.run(p)
    if "D" in entry.needs:
        trace.constants.update(D=p.D, G=p.G)
    elif "G" in entry.needs:
        trace.constants["G_dual"] = p.G
    for f in p.flags:
        trace.add_flag(f)
    if entry.online and p.problem is not None:
        smooth._attach_reference(trace, p.problem, p.feasible)
    return trace


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
        return 0 if self.passed else 1  # an error fails the run

    def report_dict(self) -> dict:
        if not self.reports and self.error is None:
            return {}
        return {
            "config": self.config.echo(),
            "passed": self.passed,
            "error": self.error,
            "certificates": [{**r.to_dict(), "steps": _Table(list(r.steps.items()), "ok")}
                             for r in self.reports],
        }


def run_experiment(config: RunConfig, prepared: _Prepared | None = None) -> RunResult:
    """Validate, run, certify, and (when asked) write trace and report files.
    ``prepared`` is what ``validate_config(config)`` returned, for a caller
    that has validated the config already.

    Deterministic for a fixed config: runs use no randomness and the
    serializers are order- and format-stable.
    """
    if prepared is None:
        prepared = validate_config(config)
    try:
        trace = _dispatch(config, prepared)
    except FloatingPointError as exc:
        return RunResult(config=config, trace=None, reports=[],
                         error=f"numeric failure: {exc}")
    trace.meta["config"] = config.echo()
    reports = [certify_trace(tid, trace, problem=prepared.problem)
               for tid in prepared.theorems]
    result = RunResult(config=config, trace=trace, reports=reports)
    if config.out:
        write_outputs(result, config.out, config.fmt)
    return result


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


# cells per chunk of a step table (one row where a row is wider): the
# kernel's temporaries, four 8-byte words a cell at most, stay within glibc's
# 128 KiB mmap threshold
_CHUNK = 4096

# the length from which a float64 vector goes through the kernel in one
# call: a shorter one costs less element by element (about 2 us an element,
# against 50-150 us for a kernel call)
_VECTOR_CELLS = 32


@dataclass(frozen=True)
class _Table:
    """A step table, which ``json_dumps`` writes as a list of objects and the
    CSV writers as lines: (key, values) columns in output order, each a
    float64 column of one value or one vector per row (integers below 2**53
    for a count) or None (JSON null, CSV empty). The boolean ``verdict``
    column, where the table has one, is written true or false."""

    columns: list
    verdict: str | None = None

    def layout(self, is_json: bool, lead: str = "") -> tuple:
        """How ``_table_rows`` lays out a row, after ``lead``, in 8-byte
        words: the row's bytes for a false and a true verdict (uint8, shape
        (2, width)), each cell's slot in place; the runs of slots that follow
        each other with no word between them, as (first cell, cells, word
        offset); the columns that fill the cells; the verdict of each row
        (None: the same bytes for all); and the rows per chunk.

        Of the text before a cell, the last byte is the slot's byte 0 and
        the rest, where there is any, takes words of its own: a JSON key
        (``{"t"``, ``,"f"``, ``,"x":``), a null or verdict column, a CSV
        lead. So a vector's cells after its first, and a CSV row's cells,
        follow slot after slot. The row's closing text takes the last
        words."""
        from gdcert._g17 import SLOT_WORDS

        parts, data = [], []
        for key, values in self.columns:
            if values is None or key == self.verdict:
                part = "\1" if key == self.verdict else "null" if is_json else ""
            else:
                part = ",".join(["\0"] * math.prod(values.shape[1:]))
                if is_json and values.ndim == 2:
                    part = f"[{part}]"
                data.append(values)
            parts.append(f"{json.dumps(key)}:{part}" if is_json else part)
        row = "{" + ",".join(parts) + "}" if is_json else ",".join(parts)
        end = "," if is_json else "\n"
        pieces = [(lead + row.replace("\1", v) + end).encode().split(b"\0")
                  for v in ("false", "true")]
        templates, words, runs = ([], []), 0, []
        for cell, texts in enumerate(zip(pieces[0][:-1], pieces[1][:-1])):
            # the last byte of the text before a cell is the same for both
            # verdicts, whose text lies within
            lit = math.ceil((max(map(len, texts)) - 1) / 8)
            for template, text in zip(templates, texts):
                template += (text[:-1].ljust(8 * lit, b"\0"),
                             text[-1:].ljust(8 * SLOT_WORDS, b"\0"))
            words += lit
            if lit or not runs:
                runs.append([cell, 0, words])
            runs[-1][1] += 1
            words += SLOT_WORDS
        tail = 8 * math.ceil(max(len(ps[-1]) for ps in pieces) / 8)
        for template, ps in zip(templates, pieces):
            template.append(ps[-1].ljust(tail, b"\0"))
        row_bytes = np.frombuffer(b"".join(map(b"".join, templates)),
                                  np.uint8).reshape(2, -1)
        ok = dict(self.columns).get(self.verdict)
        return (row_bytes, runs, data, None if ok is None else ok.astype(np.intp),
                max(1, _CHUNK // max(len(pieces[0]) - 1, 1)))


def _table_rows(table: _Table, is_json: bool, lead: str = ""):
    """The rows of ``table`` a chunk at a time, as bytes: JSON objects joined
    by commas, or CSV lines after ``lead``, each ended by a newline. One
    ``_g17`` call formats a chunk's cells into slots, which are laid, with
    the last byte of the text before each cell (a comma, a colon, a bracket)
    as the slot's byte 0, into the row templates of ``_Table.layout``;
    deleting the 0 bytes gives the text. A number is written as ``'%.17g' %``
    gives it, but a CSV float as ``repr`` does (the shortest round trip; nan
    and inf as such); a count, below 2**53, is the same either way as
    ``%d``."""
    # imported on the first table, so that a process that writes none
    # (library use) does not build the kernel's tables
    from gdcert import _g17

    row_bytes, runs, data, held, rows = table.layout(is_json, lead)
    n = len(data[0]) if data else 0
    if n == 0:
        return
    shortest = not is_json and np.repeat(
        [values.dtype.kind == "f" for values in data],
        [math.prod(values.shape[1:]) for values in data])
    fallback = _json_scalar if is_json else repr
    width = row_bytes.shape[1]
    buf = bytearray(min(rows, n) * width)  # every chunk's grid
    grid = np.frombuffer(buf, np.uint8).reshape(-1, width)
    grid[:] = row_bytes[0]  # the text before each cell, for every chunk
    cells = np.empty((len(grid), sum(count for _, count, _ in runs), _g17.SLOT_WORDS),
                     np.uint64)
    # each run's slots in the grid, its cells and its slots' template words
    # (byte 0, the last byte of the text before the cell)
    slot = row_bytes[0].view(np.uint64)
    runs = [(grid.view(np.uint64)[:, at:at + count * _g17.SLOT_WORDS].reshape(
                 len(grid), count, _g17.SLOT_WORDS),
             cells[:, first:first + count],
             slot[at:at + count * _g17.SLOT_WORDS].reshape(count, _g17.SLOT_WORDS))
            for first, count, at in runs]
    for lo in range(0, n, rows):
        block = np.column_stack([values[lo:lo + rows] for values in data])
        r = len(block)
        if held is not None:
            np.take(row_bytes, held[lo:lo + r], axis=0, out=grid[:r], mode="clip")
        _g17.format_floats(block.astype(float, copy=False), cells[:r], fallback, shortest)
        for dst, src, heads in runs:
            np.bitwise_or(src[:r], heads, out=dst[:r])
        text = (buf if r == len(grid) else buf[:r * width]).translate(None, b"\0")
        if is_json and lo + r == n:
            del text[-1]  # the last row's comma
        yield text


def _json_vector(v: np.ndarray):
    """The JSON numbers of the float64 vector ``v`` joined by commas, a
    chunk at a time, as bytes: ``_g17`` slots with a comma in each slot's
    byte 0, which the kernel leaves a hole, but the first."""
    from gdcert import _g17

    out = np.empty((min(len(v), _CHUNK), _g17.SLOT_WORDS), np.uint64)
    for lo in range(0, len(v), _CHUNK):
        slots = out[:len(v) - lo]
        _g17.format_floats(v[lo:lo + _CHUNK], slots, _json_scalar)
        slots.view(np.uint8)[:, 0] = ord(",")
        text = bytearray(slots).translate(None, b"\0")
        if lo == 0:
            del text[0]  # the first number's comma
        yield text


def json_dumps(obj, write: Callable | None = None) -> str | None:
    """Deterministic JSON: numbers carry 17 significant digits so every
    double round-trips exactly; NaN and infinities become the strings
    ``"nan"``, ``"inf"`` and ``"-inf"``.

    Returns the text, or with ``write`` passes it to ``write`` in bytes-like
    pieces as they are made (a step table a chunk at a time) and returns
    None. Step tables and long float64 vectors go through ``_g17``; the
    output is the same as formatting each element on its own.
    """
    if write is not None:
        _dump(obj, write)
        return None
    parts = []
    _dump(obj, parts.append)
    return b"".join(parts).decode()


def _dump(obj, write: Callable) -> None:
    """Write ``obj``'s JSON text; each element of a list or a dict goes
    through ``json_dumps``."""
    if isinstance(obj, _Table):
        write(b"[")
        for chunk in _table_rows(obj, is_json=True):
            write(chunk)
        write(b"]")
    elif (isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.ndim == 1
          and len(obj) >= _VECTOR_CELLS):
        write(b"[")
        for chunk in _json_vector(obj):
            write(chunk)
        write(b"]")
    elif isinstance(obj, np.ndarray):
        json_dumps(obj.tolist(), write)
    elif isinstance(obj, (list, tuple)):
        write(b"[")
        for i, v in enumerate(obj):
            if i:
                write(b",")
            json_dumps(v, write)
        write(b"]")
    elif isinstance(obj, dict):
        write(b"{")
        for i, (k, v) in enumerate(obj.items()):
            write(("," * (i > 0) + json.dumps(str(k)) + ":").encode())
            json_dumps(v, write)
        write(b"}")
    elif obj is None:
        write(b"null")
    elif isinstance(obj, str):
        write(json.dumps(obj).encode())
    elif isinstance(obj, (bool, np.bool_, int, np.integer, float, np.floating)):
        write(_json_scalar(obj).encode())
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _grad_norms(trace: Trace) -> tuple:
    """The Euclidean and the map's dual norm of every recorded gradient: the
    floats ``np.linalg.norm`` and ``dual_norm`` give row by row."""
    kind = Norm.L1 if trace.meta.get("map") == "negentropy" else Norm.EUCLIDEAN
    G = trace.grad
    if not np.isfinite(G).all():
        raise ValueError("vector has non-finite entries")
    return np.sqrt(np.vecdot(G, G)), dual_norm(kind, G)


def _step_columns(trace: Trace) -> dict:
    """The trace's step table by key in JSON order, rows t = 0..T-1. The gap is
    taken to the comparator's round value, else to f*."""
    T = trace.T
    f = trace.f[:T]
    ref = trace.constants.get("f_star") if trace.f_ref is None else trace.f_ref
    g_norm, g_dual = _grad_norms(trace)
    columns = {"t": np.arange(T), "x": trace.x[:T], "f": f,
               "gap": None if ref is None else f - ref,
               "grad_norm": g_norm, "grad_dual_norm": g_dual, "eta": trace.eta}
    if trace.y is not None:
        columns.update(y=trace.y[:T], f_y=trace.f_y[:T])
    if trace.z is not None:
        columns["z"] = trace.z[:T]
    return columns


def trace_to_dict(trace: Trace) -> dict:
    """One top-level object with ``meta`` and ``steps``, for ``json_dumps``.
    Iterates stay numpy arrays; ``steps`` is the step table."""
    final = {"x": trace.final_x, "f": trace.final("f")}
    for name in ("y", "f_y", "z"):
        if trace.final(name) is not None:
            final[name] = trace.final(name)
    meta = {k: v for k, v in trace.meta.items() if k != "constants"}
    meta.update(constants=trace.constants, final=final)
    return {"meta": meta, "steps": _Table(list(_step_columns(trace).items()))}


def trace_to_csv(trace: Trace, write: Callable | None = None) -> str | None:
    """Per-iteration table: header row plus one row per recorded step.
    Returns the text, or with ``write`` passes it on as ``json_dumps`` does."""
    columns = _step_columns(trace)
    keys = ["t", "x"] + (["y", "z", "f_y"] if trace.y is not None else [])
    keys += ["f", "gap", "grad_norm", "grad_dual_norm", "eta"]
    header = [k if columns[k] is None or columns[k].ndim == 1 else
              ",".join(f"{k}{i}" for i in range(columns[k].shape[1])) for k in keys]
    return _csv(",".join(header), [(_Table([(k, columns[k]) for k in keys]), "")],
                write)


def report_to_csv(reports: list, write: Callable | None = None) -> str | None:
    """Every certificate's step table under one header, a line per step
    after the theorem's id; returns or passes on the text as ``trace_to_csv``."""
    keys = ("t", "phi", "dphi", "allowed", "amortized", "ok", "slack")
    tables = [(_Table([(k, rep.steps.get(k)) for k in keys], "ok"), rep.theorem + ",")
              for rep in reports]
    return _csv("theorem," + ",".join(keys), tables, write)


def _csv(header: str, tables: list, write: Callable | None) -> str | None:
    """The header line, then the lines of each (table, lead)."""
    if write is None:
        parts = []
        _csv(header, tables, parts.append)
        return b"".join(parts).decode()
    write(header.encode() + b"\n")
    for table, lead in tables:
        for chunk in _table_rows(table, is_json=False, lead=lead):
            write(chunk)


def emit_trace(trace: Trace, path: str, fmt: str = "json") -> str:
    """Write the trace to the file as it is made."""
    with open(path, "wb") as fh:
        if fmt == "json":
            json_dumps(trace_to_dict(trace), fh.write)
        else:
            trace_to_csv(trace, fh.write)
    return path


def emit_report(result: RunResult, path: str, fmt: str = "json") -> str:
    """Write a run's certification results as they are made; JSON is
    canonical, CSV is the per-step table. An empty report serializes to an
    empty JSON object."""
    with open(path, "wb") as fh:
        if fmt == "json":
            json_dumps(result.report_dict(), fh.write)
        else:
            report_to_csv(result.reports, fh.write)
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
        "schedules": {k: list(m.schedules) for k, m in METHODS.items() if m.schedules},
        "theorems": {tid: THEOREMS[tid].claim for tid in THEOREMS},
    }
