"""Benchmark workloads: seeded inputs, the runs they make, and the checks
every run's verdicts and written files must pass.

A workload is a list of ``RunSpec``; one *pass* runs every spec once through
``gdcert.harness.run_experiment``, the entry point ``gdcert run`` and
``gdcert suite`` reach after argument parsing.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from gdcert import problems
from gdcert.harness import RunConfig

SMOOTH_VALUE = ["smooth-value-log", "smooth-value-scaled",
                "smooth-value-distance"]

# The sweep of scripts/certify_suite.py as of the commit that added this
# benchmark (21 runs, 28 certificates). It is copied, not imported, so that
# the workload stays fixed when the script changes.
SUITE = [
    dict(problem="p1", method="gd", steps=10_000, theorems=["gd-regret"]),
    dict(problem="experts-alt", method="gd", steps=10_000, set="ball",
         theorems=["gd-regret"]),
    dict(problem="p1", method="sc-gd", steps=10_000,
         theorems=["sc-regret", "sc-average"]),
    dict(problem="p2", method="smooth-gd", steps=1_000, theorems=SMOOTH_VALUE),
    dict(problem="lse3", method="smooth-gd", steps=1_000, theorems=SMOOTH_VALUE),
    dict(problem="p2", method="smooth-gd", steps=1_000, set="ball",
         theorems=["smooth-projected"]),
    dict(problem="p2", method="smooth-gd", steps=1_000, set="simplex",
         x0=[0.5, 0.5], theorems=["smooth-projected"]),
    dict(problem="p2", method="frank-wolfe", steps=1_000, set="simplex",
         x0=[0.5, 0.5], theorems=["frank-wolfe"]),
    dict(problem="p2", method="frank-wolfe", steps=1_000, set="box",
         schedule="fw-1t", theorems=["frank-wolfe-log"]),
    dict(problem="p2", method="wellcond-gd", steps=200,
         theorems=["well-conditioned", "well-conditioned-distance"]),
    dict(problem="p3", method="wellcond-gd", steps=200,
         theorems=["well-conditioned", "well-conditioned-distance"]),
    dict(problem="experts-alt", method="mirror-negentropy", steps=1_000,
         set="simplex", theorems=["mirror-regret"]),
    dict(problem="experts-alt", method="mirror-euclidean", steps=1_000,
         set="ball", theorems=["mirror-regret"]),
    dict(problem="p2", method="agm2", steps=500, theorems=["agm-smooth"]),
    dict(problem="p3", method="agm2", steps=500, theorems=["agm-smooth"]),
    dict(problem="lse3", method="agm2", steps=500, theorems=["agm-smooth"]),
    dict(problem="p2", method="agm2", steps=500, set="simplex",
         x0=[0.5, 0.5], theorems=["agm-smooth"]),
    dict(problem="lse3", method="agm2", steps=500, set="simplex",
         theorems=["agm-smooth"]),
    dict(problem="lse3", method="agm2-negentropy", steps=200, set="simplex",
         x0=[0.6, 0.3, 0.1], theorems=["agm-mirror"]),
    dict(problem="p3", method="sc-agm", steps=200, theorems=["agm-sc"]),
    # expected to find a violating step on the badly conditioned instance
    dict(problem="p3", method="smooth-gd", steps=1_000,
         theorems=["failed-potential"]),
]

HIGH_DIM = 1_000
HIGH_DIM_ROUNDS = 100  # loss rows of the experts adversary, played cyclically
QUAD_ID = "bench-hd-quad"
EXPERTS_ID = "bench-hd-experts"


@dataclass(frozen=True)
class RunSpec:
    """One ``RunConfig`` minus its output path."""

    problem: str
    method: str
    steps: int
    theorems: tuple
    feasible_set: str = "unconstrained"
    schedule: str | None = None
    x0: tuple | str = "default"
    fmt: str | None = None  # None: no files are written

    def config(self, out_dir: str, stem: str) -> RunConfig:
        out = None if self.fmt is None else os.path.join(out_dir, f"{stem}.{self.fmt}")
        x0 = self.x0 if isinstance(self.x0, str) else list(self.x0)
        return RunConfig(problem=self.problem, method=self.method,
                         steps=self.steps, feasible_set=self.feasible_set,
                         schedule=self.schedule, x0=x0, certify=True,
                         theorems=list(self.theorems), out=out,
                         fmt=self.fmt or "json")


def _spec(raw: dict, fmt: str | None) -> RunSpec:
    raw = dict(raw)
    x0 = raw.pop("x0", "default")
    return RunSpec(feasible_set=raw.pop("set", "unconstrained"),
                   theorems=tuple(raw.pop("theorems")),
                   x0=x0 if isinstance(x0, str) else tuple(x0), fmt=fmt, **raw)


def _suite(rng: np.random.Generator) -> list[RunSpec]:
    # The ROADMAP headline and the only workload that covers all 16
    # theorems, the per-run fixed costs (validation, constrained minimizer
    # solves, end checks) and the agm2-negentropy grid prox. The configs are
    # as shipped; the seed only permutes their order.
    return [_spec(SUITE[i], "json") for i in rng.permutation(len(SUITE))]


def _signed(rng: np.random.Generator, dim: int) -> tuple:
    """A start point away from the origin, where p2 and p3 are minimized."""
    mag = rng.uniform(0.5, 2.0, dim)
    sign = rng.choice([-1.0, 1.0], dim)
    return tuple(float(v) for v in mag * sign)


def _long_horizon(rng: np.random.Generator) -> list[RunSpec]:
    # Long runs at d <= 3 with no files written (library use, as in
    # scripts/rate_table.py): the per-step Python cost of the oracle, core,
    # the method modules and certify dominates, and serialization is
    # bypassed entirely.
    w = float(rng.uniform(0.2, 0.8))
    return [
        RunSpec("p3", "agm2", 20_000, ("agm-smooth",), x0=_signed(rng, 2)),
        RunSpec("p2", "smooth-gd", 20_000, tuple(SMOOTH_VALUE),
                x0=_signed(rng, 2)),
        RunSpec("experts-alt", "mirror-negentropy", 20_000, ("mirror-regret",),
                feasible_set="simplex", x0=(w, 1.0 - w)),
    ]


def _register_high_dim(rng: np.random.Generator) -> None:
    """Register the seeded d = 1000 inputs under bench-only ids."""
    # log-uniform spectrum in [1, 100] with both endpoints present, so
    # alpha = 1 and beta = 100 exactly
    diag = 10.0 ** rng.uniform(0.0, 2.0, HIGH_DIM)
    diag[:2] = (1.0, 100.0)
    diag = rng.permutation(diag)
    shift = rng.normal(0.0, 1.0, HIGH_DIM)
    rows = (rng.random((HIGH_DIM_ROUNDS, HIGH_DIM)) < 0.5).astype(float)
    problems.PROBLEMS[QUAD_ID] = lambda: problems.DiagQuadratic(
        diag, shift, name=QUAD_ID)
    problems.ADVERSARIES[EXPERTS_ID] = lambda: problems.ExpertsAdversary(rows)


def _high_dim(rng: np.random.Generator) -> list[RunSpec]:
    # Short runs at d = 1000 writing large traces: per-step overhead is
    # amortized and serialization dominates (JSON for agm2 and mirror, CSV
    # for smooth-gd, so a JSON gain that costs CSV shows).
    _register_high_dim(rng)
    return [
        RunSpec(QUAD_ID, "agm2", 500, ("agm-smooth",), fmt="json"),
        RunSpec(QUAD_ID, "smooth-gd", 1_000, tuple(SMOOTH_VALUE), fmt="csv"),
        RunSpec(EXPERTS_ID, "mirror-negentropy", 1_000, ("mirror-regret",),
                feasible_set="simplex", fmt="json"),
    ]


WORKLOADS = {
    "suite": _suite,
    "long-horizon": _long_horizon,
    "high-dim": _high_dim,
}


def make_workload(name: str, seed: int) -> list[RunSpec]:
    """The runs of one workload; the same seed gives the same inputs."""
    return WORKLOADS[name](np.random.default_rng(seed))


def unregister_high_dim() -> None:
    problems.PROBLEMS.pop(QUAD_ID, None)
    problems.ADVERSARIES.pop(EXPERTS_ID, None)


# --- output checks ----------------------------------------------------------

def verdict_ok(spec: RunSpec, result) -> bool:
    """Every requested certificate is present and passes. The diagnostic
    ``failed-potential`` passes only by finding its violating step."""
    if result.error is not None:
        return False
    if [r.theorem for r in result.reports] != list(spec.theorems):
        return False
    for rep in result.reports:
        if not rep.passed or rep.error is not None:
            return False
        if rep.expected_fail and rep.step_failures < 1:
            return False
    return True


def files_ok(spec: RunSpec, result, config: RunConfig) -> bool:
    """The written trace and report parse and agree with the in-memory run."""
    if spec.fmt is None:
        return True
    stem, _, ext = config.out.rpartition(".")
    report_path = f"{stem}.report.{ext}"
    if spec.fmt == "json":
        with open(config.out) as fh:
            trace = json.loads(fh.read())
        with open(report_path) as fh:
            report = json.loads(fh.read())
        final_x = np.asarray(trace["meta"]["final"]["x"], dtype=float)
        return (final_x.tobytes() == result.trace.final_x.tobytes()
                and len(trace["steps"]) == result.trace.T
                and report["passed"] is result.passed
                and len(report["certificates"]) == len(spec.theorems))
    with open(config.out) as fh:
        trace_lines = sum(1 for _ in fh)
    with open(report_path) as fh:
        report_lines = sum(1 for _ in fh)
    checks = sum(len(r.step_checks) for r in result.reports)
    return trace_lines == result.trace.T + 1 and report_lines == checks + 1
