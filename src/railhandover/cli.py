"""Command-line front end.

Verbs: `run` writes one figure table, `compare` writes all of them plus
a summary of the cross-scheme assertions, `validate` sweeps analytic
curves against their Monte Carlo estimators, `trace` prints or writes one
seeded protocol trace. Configuration is a flat key/value file; every key
matches a run field or a scenario field but `scheme`, and others are rejected.

Exit codes: 0 ok, 1 assertion failure, 2 configuration error or an
output path that cannot be written, 3 numeric non-convergence.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import sys
import typing
from enum import Enum
from pathlib import Path

from .analytics import MetricMode
from .figures import SUMMARY_FILE, Figure, RunConfig, compare_schemes, run_figure, validate_schemes
from .montecarlo import DOMAIN_PROTOCOL, SeedPolicy
from .protocol import format_trace, run_crossing
from .scenario import PositionGrid, Scenario, Scheme
from .statfun import NumericsError

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    pass


# every Scenario field but scheme (see schemes) is a config key of its annotated type
_SCENARIO_TYPES = {k: v for k, v in typing.get_type_hints(Scenario).items() if k != "scheme"}
_RUN_INT_KEYS = frozenset({"trials", "master_seed", "jobs"})


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _parse_enum(key: str, raw: str, enum_cls):
    try:
        return enum_cls(raw.strip().lower())
    except ValueError:
        legal = ", ".join(e.value for e in enum_cls)
        raise ConfigError(f"{key}: expected one of {legal}, got {raw!r}") from None


def _parse_scenario_value(key: str, raw: str):
    kind = _SCENARIO_TYPES[key]
    if kind is float:
        return _parse_float(key, raw)
    if kind is int:
        return _parse_int(key, raw)
    if isinstance(kind, type) and issubclass(kind, Enum):
        return _parse_enum(key, raw, kind)
    # the per-unit sigmas, a comma-separated list of numbers
    return tuple(_parse_float(key, part) for part in raw.split(","))


def _parse_schemes(key: str, raw: str) -> tuple[Scheme, ...]:
    names = [part.strip() for part in raw.split(",") if part.strip()]
    if not names:
        raise ConfigError(f"{key}: expected a comma-separated scheme list")
    return tuple(_parse_enum(key, name, Scheme) for name in names)


def parse_config(text: str) -> RunConfig:
    """Flat key/value configuration to a RunConfig; unset keys take the defaults.

    A leading section header is optional; sections are merged flat and a
    key may appear only once. Unknown keys or invariant violations raise
    ConfigError naming the key.
    """
    return _parse_config(text)[0]


def _parse_config(text: str) -> tuple[RunConfig, set[str]]:
    if not text.lstrip().startswith("["):
        text = "[run]\n" + text
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed configuration: {exc}") from None

    seen: dict[str, str] = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            if key in seen:
                raise ConfigError(f"{key}: duplicate key")
            seen[key] = raw

    scenario_kwargs: dict = {}
    run_kwargs: dict = {}
    for key, raw in seen.items():
        if key in _SCENARIO_TYPES:
            scenario_kwargs[key] = _parse_scenario_value(key, raw)
        elif key in _RUN_INT_KEYS:
            run_kwargs[key] = _parse_int(key, raw)
        elif key == "mode":
            run_kwargs[key] = _parse_enum(key, raw, MetricMode)
        elif key == "schemes":
            run_kwargs[key] = _parse_schemes(key, raw)
        elif key == "output_dir":
            run_kwargs[key] = Path(raw)
        else:
            hint = "; list the schemes to run in schemes" if key == "scheme" else ""
            raise ConfigError(f"unknown key {key!r}{hint}")

    try:
        scenario = Scenario(**scenario_kwargs)
        return RunConfig(scenario=scenario, **run_kwargs), set(seen)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _load_config(args: argparse.Namespace) -> tuple[RunConfig, bool]:
    """The run config of args, and whether --out or the file names output_dir."""
    config, keys = RunConfig(), set()
    if args.config is not None:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        config, keys = _parse_config(text)
    overrides: dict = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.mode is not None:
        overrides["mode"] = MetricMode(args.mode)
    if args.schemes is not None:
        overrides["schemes"] = _parse_schemes("--schemes", args.schemes)
    if args.out is not None:
        overrides["output_dir"] = Path(args.out)
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
    named = args.out is not None or "output_dir" in keys
    return (dataclasses.replace(config, **overrides) if overrides else config), named


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH",
                     help="key/value configuration file")
    sub.add_argument("--seed", type=int, metavar="U64",
                     help="master seed for all substreams")
    sub.add_argument("--trials", type=int, metavar="N",
                     help="Monte Carlo trials per estimate")
    sub.add_argument("--mode", choices=[m.value for m in MetricMode],
                     help="analytic mode for occurrence/failure/interruption")
    sub.add_argument("--schemes", metavar="LIST",
                     help="comma-separated subset of: "
                          + ", ".join(s.value for s in Scheme))
    sub.add_argument("--out", metavar="DIR", help="output directory")
    sub.add_argument("--jobs", type=int, metavar="N",
                     help="worker threads (results are identical at any count)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="railhandover",
        description="Handover performance curves for rail corridors served "
                    "by distributed antenna cells.",
        epilog="Units: distances in meters, powers in dBm, margins in dB, "
               "speed in m/s. Defaults: 3000 m cells, 4 antenna units, "
               "86 dBm transmit power, 4 dB shadowing, 2 dB hysteresis, "
               "-30 dBm usable threshold, 10 m grid step.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="compute one figure table")
    p_run.add_argument("--figure", required=True,
                       choices=[f.value for f in Figure])
    _add_common(p_run)

    p_cmp = sub.add_parser("compare",
                           help="all figures plus cross-scheme assertions")
    _add_common(p_cmp)

    p_val = sub.add_parser("validate",
                           help="analytic curves against Monte Carlo estimates")
    _add_common(p_val)

    p_trace = sub.add_parser("trace", help="emit one seeded protocol trace")
    _add_common(p_trace)
    return parser


_PARSER = _build_parser()  # once: argparse measures the terminal per argument


def _cmd_run(args: argparse.Namespace) -> int:
    config, _ = _load_config(args)
    figure = Figure(args.figure)
    table = run_figure(config, figure)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / figure.filename
    table.write(path)
    print(f"wrote {path} ({len(table.rows)} rows)")
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    config, _ = _load_config(args)
    summary, status = compare_schemes(config)
    for row in summary.rows:
        print(f"{row[2]:>12}  {row[0]}  [{row[7]}]")
    print(f"summary written to {Path(config.output_dir) / SUMMARY_FILE}")
    return EXIT_ASSERTION if status else EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    config, _ = _load_config(args)
    table, status = validate_schemes(config)
    for scheme, check, value, limit, verdict in table.rows:
        print(f"{verdict:>6}  {scheme:<12} {check:<14} {value:.4g} (limit {limit:g})")
    return EXIT_ASSERTION if status else EXIT_OK


def _cmd_trace(args: argparse.Namespace) -> int:
    config, named_out = _load_config(args)
    sc = config.scenario.with_scheme(config.schemes[0])
    rng = SeedPolicy(config.master_seed).stream(DOMAIN_PROTOCOL, 0)
    _, trace = run_crossing(sc, PositionGrid.for_scenario(sc), rng)
    text = format_trace(trace)
    if named_out:
        out_dir = Path(config.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "trace.tsv"
        path.write_text(text)
        print(f"wrote {path}")
    else:
        print(text, end="")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    handler = {
        "run": _cmd_run,
        "compare": _cmd_compare,
        "validate": _cmd_validate,
        "trace": _cmd_trace,
    }[args.verb]
    try:
        return handler(args)
    except NumericsError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:  # ConfigError included
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # reading the config is a ConfigError already
        print(f"configuration error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
