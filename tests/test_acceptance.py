"""Acceptance suite: one test per certified claim, each printing a verdict.

Criterion 9 checks the broken-potential diagnostic from both sides. The
failed attempt's potential cannot be proved monotone under plain 1/beta
descent, but whether a run shows an increasing step depends on the
instance. On a diagonal quadratic the increasing steps have a closed form
(tests/oracles.broken_potential_increases), and the criterion asserts that
the certifier flags exactly that set: none on the kappa = 4 instance, where
the diagnostic must stay silent, and t = 4..94 on the kappa = 100 instance,
where it must fire. test_failed_attempt_fires_on_p3 is the coarser check
that the diagnostic fires at all.
"""

import numpy as np

from gdcert.accel import lambda_schedule, run_agm1, run_agm2, run_sc_agm
from gdcert.core import Ball, Simplex
from gdcert.harness import RunConfig, run_experiment
from gdcert.mirror import (
    EuclideanMap,
    NegEntropyMap,
    bregman_project,
    run_mirror_descent,
    tuned_eta,
)
from gdcert.descent import run_online_gd
from gdcert.problems import get_problem, make_alternating_experts
from oracles import (
    Constant,
    broken_potential_increases,
    generalized_pythagorean_gap,
    gradient_check,
    hedge_closed_form,
    pythagorean_gap,
    sample_member,
)

CERTIFIED_REPORTS = []


def criterion(num, summary, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"CRITERION {num:2d}: {status} - {summary}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def span(steps):
    """Format a set of steps as its runs of consecutive values: {4..94}."""
    runs = []
    for t in sorted(steps):
        if runs and t == runs[-1][1] + 1:
            runs[-1][1] = t
        else:
            runs.append([t, t])
    return "{" + ", ".join(f"{a}..{b}" if a < b else f"{a}" for a, b in runs) + "}"


def run(keep=True, **kwargs):
    result = run_experiment(RunConfig(**kwargs))
    assert result.error is None, result.error
    if keep:
        CERTIFIED_REPORTS.extend(result.reports)
    return result


def test_criterion_1_basic_gd_regret():
    T = 10_000
    fixed = run(problem="p1", method="gd", steps=T, certify=True,
                theorems=["gd-regret"])
    rep = fixed.reports[0]
    (end,) = rep.end_checks
    ok_fixed = (rep.passed and end.lhs < end.rhs + 1e-9
                and "trajectory-estimated-G" in rep.flags)

    experts = run(problem="experts-alt", method="gd", steps=T,
                  feasible_set="ball", certify=True, theorems=["gd-regret"])
    rep2 = experts.reports[0]
    (end2,) = rep2.end_checks
    ok_experts = rep2.passed and end2.lhs < end2.rhs + 1e-9
    criterion(1, "basic gradient descent average regret <= D G / sqrt(T)",
              ok_fixed and ok_experts,
              f"p1 {end.lhs:.3e} vs {end.rhs:.3e}; experts {end2.lhs:.3e} vs {end2.rhs:.3e}")


def test_criterion_2_strongly_convex_gd():
    T = 10_000
    res = run(problem="p1", method="sc-gd", steps=T, certify=True,
              theorems=["sc-regret", "sc-average"])
    by_id = {r.theorem: r for r in res.reports}
    regret = by_id["sc-regret"].end_checks[0]
    average = by_id["sc-average"].end_checks[0]
    ok = all(r.passed for r in res.reports)
    criterion(2, "strongly convex descent: log-regret and weighted-average bounds",
              ok, f"regret {regret.lhs:.3e} vs {regret.rhs:.3e}; "
                  f"average {average.lhs:.3e} vs {average.rhs:.3e}")


def test_criterion_3_smooth_descent_three_arguments():
    T = 1_000
    ok = True
    details = []
    for pid in ("p2", "lse3"):
        res = run(problem=pid, method="smooth-gd", steps=T, certify=True,
                  theorems=["smooth-value-log", "smooth-value-scaled",
                            "smooth-value-distance"])
        for rep in res.reports:
            ok = ok and rep.passed and rep.step_failures == 0
            if rep.theorem == "smooth-value-distance":
                # the combined potential must never increase
                ok = ok and all(c.dphi <= c.slack for c in rep.step_checks)
        details.append(f"{pid}: " + ",".join(
            "ok" if r.passed else "fail" for r in res.reports))
    criterion(3, "smooth descent: all three potential arguments, per-step and final",
              ok, "; ".join(details))


def test_criterion_4_projected_smooth_descent():
    T = 1_000
    ok = True
    details = []
    for set_id in ("ball", "simplex"):
        x0 = "default" if set_id == "ball" else [0.5, 0.5]
        res = run(problem="p2", method="smooth-gd", steps=T, feasible_set=set_id,
                  x0=x0, certify=True, theorems=["smooth-projected"])
        rep = res.reports[0]
        checks = {e.label: e for e in rep.end_checks}
        ok = ok and rep.passed and rep.step_failures == 0
        ok = ok and checks["projected-smoothness-gap"].ok
        details.append(f"{set_id}: gap {checks['final-gap'].lhs:.2e} "
                       f"vs {checks['final-gap'].rhs:.2e}")
    criterion(4, "projected smooth descent bound and per-step projected inequality",
              ok, "; ".join(details))


def test_criterion_5_frank_wolfe():
    T = 1_000
    ok = True
    details = []
    for set_id, x0 in (("simplex", [0.5, 0.5]), ("box", "default")):
        res = run(problem="p2", method="frank-wolfe", steps=T,
                  feasible_set=set_id, x0=x0, schedule="fw-2t",
                  certify=True, theorems=["frank-wolfe"])
        rep = res.reports[0]
        feasible = {"simplex": Simplex(2), "box": None}[set_id]
        if feasible is None:
            from gdcert.core import Box
            feasible = Box(-np.ones(2), np.ones(2))
        members = all(feasible.member(x) for x in res.trace.x)
        (end,) = rep.end_checks
        ok = ok and rep.passed and members
        details.append(f"{set_id}: {end.lhs:.2e} vs {end.rhs:.2e}")
    criterion(5, "Frank-Wolfe 2/(t+2) bound with iterates feasible by construction",
              ok, "; ".join(details))


def test_criterion_6_well_conditioned_descent():
    T = 200
    ok = True
    details = []
    for pid in ("p2", "p3"):
        res = run(problem=pid, method="wellcond-gd", steps=T, certify=True,
                  theorems=["well-conditioned", "well-conditioned-distance"])
        by_id = {r.theorem: r for r in res.reports}
        main_rep = by_id["well-conditioned"]
        ok = ok and all(r.passed for r in res.reports)
        ok = ok and main_rep.step_failures == 0
        details.append(f"{pid}: gap {main_rep.end_checks[0].lhs:.2e} "
                       f"vs {main_rep.end_checks[0].rhs:.2e}")
    criterion(6, "well-conditioned descent: exp(-T/kappa) gap, distance corollary, "
                 "monotone potential", ok, "; ".join(details))


def test_criterion_7_mirror_descent():
    T = 1_000
    res = run(problem="experts-alt", method="mirror-negentropy", steps=T,
              feasible_set="simplex", certify=True, theorems=["mirror-regret"])
    rep = res.reports[0]
    checks = {e.label: e for e in rep.end_checks}
    bound = checks["regret-gradient-bound"]  # KL(x*||x0)/eta + eta T / 2 at G = 1
    ok = rep.passed and rep.step_failures == 0

    # cross-equivalence: the Euclidean-map run is projected gradient descent
    adv = make_alternating_experts(2)
    ball = Ball(np.zeros(2), 1.0)
    eta = 0.2 / np.sqrt(T)
    md = run_mirror_descent(adv, EuclideanMap(), ball, [0.5, 0.5], eta, T)
    gd = run_online_gd(adv, ball, [0.5, 0.5], Constant(eta), T)
    euclid_gap = max(float(np.max(np.abs(a - b)))
                     for a, b in zip(md.x, gd.x))
    ok = ok and euclid_gap <= 1e-12

    # cross-equivalence: the entropy-map run is the multiplicative update
    ent = NegEntropyMap()
    x0 = np.array([0.5, 0.5])
    eta_h = tuned_eta(ent, np.array([1.0, 0.0]), x0, 1.0, T)
    md_ent = run_mirror_descent(adv, ent, Simplex(2), x0, eta_h, T,
                                comparator=np.array([1.0, 0.0]))
    closed = hedge_closed_form(x0, adv.cumulative(T), eta_h)
    hedge_gap = float(np.max(np.abs(md_ent.final_x - closed)))
    ok = ok and hedge_gap <= 1e-12
    criterion(7, "entropy mirror descent regret bound and both equivalences",
              ok, f"regret {bound.lhs:.2f} vs {bound.rhs:.2f}; "
                  f"euclid-vs-gd {euclid_gap:.1e}; hedge {hedge_gap:.1e}")


def test_criterion_8_accelerated_smooth():
    T = 500
    ok = True
    details = []
    for pid, x0 in (("p2", "default"), ("p3", "default"), ("lse3", "default")):
        res = run(problem=pid, method="agm2", steps=T, x0=x0, certify=True,
                  theorems=["agm-smooth"])
        rep = res.reports[0]
        ok = ok and rep.passed and rep.step_failures == 0
        details.append(f"{pid}:{'ok' if rep.passed else 'fail'}")
    for pid, set_id, x0 in (("p2", "ball", "default"), ("p2", "simplex", [0.5, 0.5]),
                            ("p3", "ball", "default"), ("p3", "simplex", [0.5, 0.5]),
                            ("lse3", "simplex", "default")):
        res = run(problem=pid, method="agm2", steps=T, feasible_set=set_id,
                  x0=x0, certify=True, theorems=["agm-smooth"])
        ok = ok and res.reports[0].passed
        details.append(f"{pid}/{set_id}:{'ok' if res.reports[0].passed else 'fail'}")
    # equivalence of the two formulations under the weight recurrence
    worst = 0.0
    for pid, x0 in (("p1", [1.0]), ("p2", [1.0, 1.0]), ("lse3", [1.0, 1.0, 1.0])):
        problem = get_problem(pid)
        a1 = run_agm1(problem, x0, 50)
        a2 = run_agm2(problem, x0, 50, schedule="agm-lambda")
        for col in ("x", "y", "z"):
            worst = max(worst, float(np.max(np.abs(getattr(a1, col) - getattr(a2, col)))))
    ok = ok and worst <= 1e-10
    criterion(8, "accelerated method: anytime bound, monotone potential, "
                 "constrained variant, formulation equivalence",
              ok, " ".join(details) + f"; agm1-vs-agm2 {worst:.1e}")


def test_criterion_9_failed_potential_diagnostic():
    # Plain 1/beta descent, broken potential t(t+1) gap + 2 beta ||x - x*||^2.
    # On a diagonal quadratic the potential is sum_i [t(t+1) q_i/2 + 2 beta]
    # x_i^2 with x_i shrinking by (1 - q_i/beta) per step, so its increasing
    # steps have a closed form, and the certifier's not-ok steps must equal
    # it on both instances. On p2 (q = 1, 4; beta = 4) the q = 4 coordinate
    # is zero after one step and the q = 1 factor's one-step ratio stays
    # below one (at most 0.7232, at t = 3): the set is empty, the diagnostic
    # must stay silent, and the run fails (exit code 1). On p3 (q = 1, 100;
    # beta = 100) the ratio [(t+1)(t+2)/2 + 200] / [t(t+1)/2 + 200] * 0.99^2
    # exceeds one exactly for t = 4..94: the diagnostic must fire there and
    # nowhere else, and the run passes.
    T = 1_000
    ok = True
    details = []
    for pid, q, beta, window in (("p2", (1.0, 4.0), 4.0, set()),
                                 ("p3", (1.0, 100.0), 100.0, set(range(4, 95)))):
        problem = get_problem(pid)
        assert problem.diag.tolist() == list(q) and not problem.shift.any()
        res = run(problem=pid, method="smooth-gd", steps=T, certify=True,
                  theorems=["failed-potential"], keep=False)
        rep = res.reports[0]
        found = {c.t for c in rep.step_checks if not c.ok}
        exact = broken_potential_increases(q, beta, res.trace.x[0], T)
        ok = (ok and rep.expected_fail and rep.error is None
              and rep.constants["beta"] == beta
              and len(rep.step_checks) == T
              and exact == window and found == exact
              and rep.passed == bool(window)
              and res.exit_code == (0 if window else 1))
        details.append(f"{pid}: certifier {span(found)}, closed form {span(exact)}")
    criterion(9, "broken-potential diagnostic flags exactly the closed-form "
                 "increasing steps on the kappa = 4 and kappa = 100 quadratics",
              ok, "; ".join(details))


def test_failed_attempt_fires_on_p3():
    # the same diagnostic on the kappa = 100 quadratic: the t(t+1) growth
    # outruns the slow coordinate's contraction and the potential increases
    res = run(problem="p3", method="smooth-gd", steps=1_000, certify=True,
              theorems=["failed-potential"], keep=False)
    rep = res.reports[0]
    assert rep.expected_fail
    assert rep.step_failures >= 1
    assert rep.passed
    first_bad = next(c.t for c in rep.step_checks if not c.ok)
    print(f"diagnostic fires on p3: first increasing step at t = {first_bad}")


def test_criterion_10_strongly_convex_acceleration():
    T = 200
    p3 = get_problem("p3")
    res = run(problem="p3", method="sc-agm", steps=T, certify=True,
              theorems=["agm-sc"])
    rep = res.reports[0]
    checks = {e.label: e for e in rep.end_checks}
    ok = rep.passed and rep.step_failures == 0
    ok = ok and checks["z-recursion-residual"].lhs <= 1e-9

    # steps to gap <= 1e-6, accelerated vs plain well-conditioned descent
    trace = run_sc_agm(p3, [1.0, 1.0], 400)
    ys = trace.y
    accel_steps = next(t for t in range(1, len(ys)) if p3.value(ys[t]) <= 1e-6)
    x = np.array([1.0, 1.0])
    plain_steps = 0
    while p3.value(x) > 1e-6:
        x = x - p3.gradient(x) / p3.smoothness_beta
        plain_steps += 1
    ratio = plain_steps / accel_steps
    ok = ok and ratio >= 3.0
    criterion(10, "strongly convex acceleration: anytime bound, recursion "
                  "residual, speedup over plain descent",
              ok, f"worst margin {checks['anytime-gap'].lhs:.1e}; "
                  f"residual {checks['z-recursion-residual'].lhs:.1e}; "
                  f"steps {plain_steps} vs {accel_steps} (x{ratio:.1f})")


def test_criterion_11_property_suites():
    rng = np.random.default_rng(101)
    ok = True

    # projection idempotence and the separating-hyperplane inequality
    sets = [Ball(np.zeros(2), 1.0), Simplex(2)]
    for feasible in sets:
        for _ in range(1000):
            x = rng.normal(scale=2.0, size=2)
            p1 = feasible.project(x)
            ok = ok and float(np.max(np.abs(feasible.project(p1) - p1))) <= 1e-12
            a = sample_member(rng, feasible, 2)
            ok = ok and pythagorean_gap(a, x, p1) <= 1e-10

    # Bregman projection inequality, divergence non-negativity, curvature
    ent = NegEntropyMap()
    for _ in range(1000):
        a = rng.dirichlet(np.ones(3))
        b_prime = rng.uniform(0.05, 2.0, size=3)
        b = bregman_project(ent, Simplex(3), b_prime)
        first, second = generalized_pythagorean_gap("negentropy", a, b_prime, b)
        ok = ok and first <= 1e-10 and second >= -1e-10
        q = 0.98 * rng.dirichlet(np.ones(3)) + 0.02 / 3
        div = ent.bregman(a, q)
        ok = ok and div >= -1e-15
        ok = ok and div >= 0.5 * float(np.sum(np.abs(a - q))) ** 2 - 1e-9

    # analytic gradients against central differences
    for pid in ("p1", "p2", "p3", "lse3"):
        problem = get_problem(pid)
        for _ in range(25):
            x = rng.normal(size=problem.dim)
            ok = ok and gradient_check(problem, x, 1e-5) <= 1e-6

    # momentum-weight recurrence at extended precision
    lam = lambda_schedule(1000)
    lam_res = float(np.max(np.abs(lam[1:] ** 2 - lam[:-1] ** 2 - lam[1:])))
    ok = ok and lam_res <= 1e-12

    # telescoping identity on every certificate the suite produced
    assert CERTIFIED_REPORTS, "acceptance runs must come first"
    scoped = [r for r in CERTIFIED_REPORTS if r.step_checks]
    ok = ok and all(r.telescoping_ok for r in scoped)
    criterion(11, "property suites: projections, divergences, gradients, "
                  "weight recurrence, telescoping",
              ok, f"lambda residual {lam_res:.1e}; "
                  f"{len(scoped)} certificates telescoped")
