"""Span and count tracing for the benchmark's traced run.

The tracer wraps public gdcert functions at each module boundary from the
outside: nothing in ``src/`` knows it exists. Two kinds of wrapper exist.

* A *timed* wrapper opens a span. A span never nests inside an open span of
  the same name: the nested call (``json_dumps`` recursing, ``comparator_over``
  calling ``minimizer_over``, ``run_well_conditioned`` calling
  ``run_smooth_gd``) is counted but not timed, so recursion costs one counter
  increment instead of two clock reads.
* A *counted* wrapper (``as_vector``, ``potential``, ``bregman``) only bumps a
  counter. These are called several times per step and carry no layer of
  their own.

Self time is a span's duration minus the durations of its direct child
spans; the self times of one run add up to the run's root span exactly.
Leaf spans (oracle calls, projections, step kernels) are aggregated per run
by name; coarse spans (the run itself, runners, certificates, serializers,
minimizer solves) are also kept as records ``(run_id, span_id, parent_id,
name, label, start, end)``.

Oracle, projection and counter activity inside a ``problems.minimizer`` span
(the projected-gradient solve behind a constrained minimizer) goes to a
separate ``solve`` bucket so that per-step counts describe the method's own
loop.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import gdcert
from gdcert import (accel, certify, core, descent, harness, mirror, problems,
                    smooth)

MODULES = (gdcert, core, problems, descent, smooth, mirror, accel, certify,
           harness)

MINIMIZER = "problems.minimizer"
ROOT = "driver"


def _methods(classes, attr):
    return [(cls, attr) for cls in classes if attr in vars(cls)]


_ORACLE_CLASSES = (problems.DiagQuadratic, problems.LogSumExp,
                   problems.LinearLoss)

# span name -> functions (or (class, method) pairs) that open it. Public step
# kernels are wrapped even where today's runners inline the step, so the
# accounting stays right when a runner starts calling them.
TIMED = {
    "problems.value": _methods(_ORACLE_CLASSES, "value"),
    "problems.gradient": _methods(_ORACLE_CLASSES, "gradient"),
    MINIMIZER: (_methods(_ORACLE_CLASSES, "minimizer_over")
                + _methods((problems.FixedAdversary, problems.ExpertsAdversary),
                           "comparator_over")),
    "core.project": _methods((core.Unconstrained, core.Ball, core.Box,
                              core.Simplex), "project"),
    "descent.run": [descent.run_online_gd, descent.run_strongly_convex_gd],
    "descent.step": [descent.gd_step, descent.projected_gd_step],
    "smooth.run": [smooth.run_smooth_gd, smooth.run_frank_wolfe,
                   smooth.run_well_conditioned],
    "smooth.step": [smooth.smooth_gd_step, smooth.projected_smooth_step,
                    smooth.frank_wolfe_step, smooth.general_norm_smooth_step],
    "mirror.run": [mirror.run_mirror_descent],
    "mirror.step": [mirror.mirror_step, mirror.bregman_project],
    "accel.run": [accel.run_agm2, accel.run_agm1, accel.run_general_norm_agm,
                  accel.run_sc_agm, accel.restart_accelerated],
    "accel.step": [accel.agm2_step, accel.constrained_agm_step,
                   accel.agm1_step, accel.sc_agm_step],
    "accel.general_norm_step": [accel.general_norm_agm_step],
    "certify.trace": [certify.certify_trace],
    "harness.to_dict": [harness.trace_to_dict],
    "harness.json": [harness.json_dumps],
    "harness.csv": [harness.trace_to_csv, harness.report_to_csv],
    "harness.write": [harness.emit_trace, harness.emit_report],
}

COUNTED = {
    "core.as_vector": [core.as_vector],
    "certify.potential": [certify.potential],
    "mirror.bregman": _methods((mirror.MirrorMap, mirror.EuclideanMap,
                                mirror.NegEntropyMap), "bregman"),
}

# spans kept as individual records; the rest are aggregated per run
RECORDED = {ROOT, MINIMIZER, "descent.run", "smooth.run", "mirror.run",
            "accel.run", "accel.general_norm_step", "certify.trace",
            "harness.to_dict", "harness.json", "harness.csv", "harness.write"}

# spans whose record carries the first positional argument as a label
LABELLED = {"certify.trace"}


class Stats:
    """Per-name call counts, total span time and self time."""

    def __init__(self):
        self.count = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)


class RunRecord:
    """Everything the tracer saw during one ``run_experiment`` call."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.main = Stats()
        self.solve = Stats()
        self.wall = 0.0
        self.root_self = 0.0

    def self_time_sum(self) -> float:
        return (self.root_self + sum(self.main.self_time.values())
                + sum(self.solve.self_time.values()))


class Tracer:
    """Installs the wrappers, owns the span stack and the collected records.

    Use as a context manager: wrappers are installed on entry and every
    patched attribute is restored on exit.
    """

    def __init__(self):
        self.runs: list[RunRecord] = []
        self.spans: list[tuple] = []
        self._undo: list[tuple] = []
        self._open = defaultdict(int)
        self._stack: list[list] = []
        self._next_id = 0
        self.stats: Stats | None = None
        self._run: RunRecord | None = None

    # --- installation -----------------------------------------------------

    def __enter__(self):
        for name, targets in TIMED.items():
            for target in targets:
                self._patch(target, self._timed_wrapper(name, _resolve(target)))
        for name, targets in COUNTED.items():
            for target in targets:
                self._patch(target, self._counted_wrapper(name, _resolve(target)))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, target, wrapper) -> None:
        if isinstance(target, tuple):
            cls, attr = target
            self._undo.append((cls, attr, vars(cls)[attr]))
            setattr(cls, attr, wrapper)
            return
        # modules that imported the function by name hold their own
        # reference: patch every one of them
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is target:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    # --- wrappers -----------------------------------------------------------

    def _counted_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.stats is not None:
                tracer.stats.count[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _timed_wrapper(self, name: str, fn):
        tracer = self
        is_open = self._open
        stack = self._stack
        recorded = name in RECORDED
        labelled = name in LABELLED
        enters_solve = name == MINIMIZER
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            outer = tracer.stats
            if outer is None:  # called outside a traced run
                return fn(*args, **kwargs)
            if is_open[name]:
                outer.count[name] += 1
                return fn(*args, **kwargs)
            parent = stack[-1]
            if recorded:
                tracer._next_id += 1
                span_id = tracer._next_id
            else:
                span_id = parent[1]
            frame = [0.0, span_id]
            stack.append(frame)
            is_open[name] = 1
            if enters_solve:
                tracer.stats = tracer._run.solve
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                is_open[name] = 0
                tracer.stats = outer
                dur = t1 - t0
                parent[0] += dur
                outer.count[name] += 1
                outer.total[name] += dur
                outer.self_time[name] += dur - frame[0]
                if recorded:
                    label = args[0] if labelled and args else None
                    tracer.spans.append((tracer._run.run_id, span_id, parent[1],
                                         name, label, t0, t1))

        return timed

    # --- runs ---------------------------------------------------------------

    def call(self, fn, *args, **kwargs):
        """Run ``fn`` as the root span of a new traced run."""
        run = RunRecord(len(self.runs))
        self._next_id += 1
        root = [0.0, self._next_id]
        self._stack.append(root)
        self._run, self.stats = run, run.main
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._run, self.stats = None, None
            run.wall = t1 - t0
            run.root_self = run.wall - root[0]
            self.spans.append((run.run_id, root[1], None, ROOT, None, t0, t1))
            self.runs.append(run)


def _resolve(target):
    if isinstance(target, tuple):
        cls, attr = target
        return vars(cls)[attr]
    return target
