"""Command-line entry point.

Subcommands:
  run    one experiment: trace out, optional certification, exit code 0/1/2
  suite  a JSON list of run configurations, executed in sequence
  list   registered problems, methods, sets, schedules, and theorems

Exit codes: 0 when every certification passes, 1 on any hard failure
(certificate violation or numeric abort), 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from gdcert.harness import (
    FORMATS,
    ConfigError,
    RunConfig,
    registry_listing,
    run_experiment,
    validate_config,
)


def _parse_x0(text: str):
    if text == "default":
        return "default"
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"cannot parse x0 {text!r}: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdcert",
        description="first-order methods with runtime convergence certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one configured experiment")
    run.add_argument("--problem", required=True)
    run.add_argument("--method", required=True)
    run.add_argument("--set", default="unconstrained", dest="feasible_set")
    run.add_argument("--schedule", default=None)
    run.add_argument("--steps", type=int, required=True)
    run.add_argument("--certify", action="store_true")
    run.add_argument("--theorems", default="",
                     help="comma-separated theorem ids (implies --certify)")
    run.add_argument("--x0", default="default",
                     help="comma-separated start coordinates, or 'default'")
    run.add_argument("--out", required=True)
    run.add_argument("--format", default="json", choices=FORMATS,
                     dest="fmt")
    run.add_argument("--seed", type=int, default=0)

    suite = sub.add_parser("suite", help="run a JSON list of configurations")
    suite.add_argument("--config", required=True)

    sub.add_parser("list", help="print the registries")
    return parser


def _config_from_args(args) -> RunConfig:
    theorems = [t for t in args.theorems.split(",") if t.strip()]
    return RunConfig(
        problem=args.problem,
        method=args.method,
        steps=args.steps,
        feasible_set=args.feasible_set,
        schedule=args.schedule,
        x0=_parse_x0(args.x0),
        certify=args.certify or bool(theorems),
        theorems=theorems,
        out=args.out,
        fmt=args.fmt,
        seed=args.seed,
    )


def _config_from_dict(raw: dict) -> RunConfig:
    known = {"problem", "method", "steps", "set", "schedule", "x0", "certify",
             "theorems", "out", "format", "seed"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    for key in ("problem", "method", "steps"):
        if key not in raw:
            raise ConfigError(f"configuration is missing {key!r}")
    theorems = raw.get("theorems", [])
    x0 = raw.get("x0", "default")
    return RunConfig(
        problem=raw["problem"],
        method=raw["method"],
        steps=raw["steps"],
        feasible_set=raw.get("set", "unconstrained"),
        schedule=raw.get("schedule"),
        x0=_parse_x0(x0) if isinstance(x0, str) else x0,
        certify=bool(raw.get("certify", False)) or bool(theorems),
        theorems=list(theorems),
        out=raw.get("out"),
        fmt=raw.get("format", "json"),
        seed=int(raw.get("seed", 0)),
    )


def _print_result(result) -> None:
    cfg = result.config
    head = f"[{cfg.problem} / {cfg.method} / T={cfg.steps}]"
    if result.error:
        print(f"{head} ERROR: {result.error}")
        return
    if not result.reports:
        print(f"{head} ran; no certification requested")
        return
    for rep in result.reports:
        verdict = "pass" if rep.passed else "FAIL"
        extra = f" ({rep.error})" if rep.error else ""
        fails = f", step failures: {rep.step_failures}" if rep.step_failures else ""
        print(f"{head} {rep.theorem}: {verdict}{fails}{extra}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            listing = registry_listing()
            print("problems:  " + ", ".join(listing["problems"]))
            print("methods:   " + ", ".join(listing["methods"]))
            print("sets:      " + ", ".join(listing["sets"]))
            print("schedules:")
            for method, scheds in listing["schedules"].items():
                print(f"  {method}: " + ", ".join(scheds))
            print("theorems:")
            for tid, claim in listing["theorems"].items():
                print(f"  {tid}: {claim}")
            return 0
        if args.command == "run":
            result = run_experiment(_config_from_args(args))
            _print_result(result)
            return result.exit_code
        if args.command == "suite":
            try:
                with open(args.config) as fh:
                    raw = json.load(fh)
            except OSError as exc:
                raise ConfigError(f"cannot read suite config: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise ConfigError(f"suite config is not valid JSON: {exc}") from exc
            if not isinstance(raw, list):
                raise ConfigError("suite config must be a JSON list of run configs")
            configs = [_config_from_dict(entry) for entry in raw]
            for config in configs:  # reject the suite before writing any file
                validate_config(config)
            worst = 0
            for config in configs:
                result = run_experiment(config)
                _print_result(result)
                worst = max(worst, result.exit_code)
            return worst
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
