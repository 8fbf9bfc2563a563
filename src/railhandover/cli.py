"""Command-line front end.

Verbs, the rows of `_VERBS`: `run` writes one figure table, `compare`
writes all of them plus a summary of the cross-scheme assertions,
`validate` prints how the rederived analytic curves, whatever the mode,
agree with their Monte Carlo estimators and writes no file, `trace`
prints or writes one seeded protocol trace of the first listed scheme
only, which trials, mode and jobs do not change. Configuration is a flat
key/value file whose keys, the fields of Scenario but `scheme` and of
RunConfig but `scenario`, are parsed by their annotated types; others are rejected.

Exit codes: 0 ok, 1 assertion failure, 2 configuration error or an
output path that cannot be written, 3 numeric non-convergence.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import enum
import sys
import typing
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


# the config keys and their types; a flag that sets a RunConfig field has its name as dest
_SCENARIO_KEYS = {k: v for k, v in typing.get_type_hints(Scenario).items() if k != "scheme"}
_RUN_KEYS = {k: v for k, v in typing.get_type_hints(RunConfig).items() if k != "scenario"}


def _parse_value(key: str, raw: str, kind):
    """raw as a value of kind, the annotated type of the field that key sets."""
    if kind is float or kind is int:
        try:
            return kind(raw)
        except ValueError:
            expected = "a number" if kind is float else "an integer"
            raise ConfigError(f"{key}: expected {expected}, got {raw!r}") from None
    if kind is Path:
        return Path(raw)
    # not isinstance(kind, type): Python 3.10 counts a tuple[...] alias as a type
    if isinstance(kind, enum.EnumMeta):
        try:
            return kind(raw.strip().lower())
        except ValueError:
            legal = ", ".join(e.value for e in kind)
            raise ConfigError(f"{key}: expected one of {legal}, got {raw!r}") from None
    if kind == tuple[Scheme, ...]:
        names = [part.strip() for part in raw.split(",") if part.strip()]
        if not names:
            raise ConfigError(f"{key}: expected a comma-separated scheme list")
        return tuple(_parse_value(key, name, Scheme) for name in names)
    # the per-unit sigmas, a comma-separated list of numbers
    return tuple(_parse_value(key, part, float) for part in raw.split(","))


def parse_config(text: str) -> tuple[RunConfig, set[str]]:
    """Flat key/value text to a RunConfig and the keys it sets; unset keys take the defaults.

    A leading section header is optional; sections are merged flat and a
    key may appear only once. Unknown keys or invariant violations raise
    ConfigError naming the key.
    """
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

    values: dict = {}
    for key, raw in seen.items():
        kind = _SCENARIO_KEYS.get(key) or _RUN_KEYS.get(key)
        if kind is None:
            hint = "; list the schemes to run in schemes" if key == "scheme" else ""
            raise ConfigError(f"unknown key {key!r}{hint}")
        values[key] = _parse_value(key, raw, kind)

    run = {key: values.pop(key) for key in _RUN_KEYS if key in values}
    try:
        return RunConfig(Scenario(**values), **run), set(seen)
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
        config, keys = parse_config(text)
    # argparse has made the int flags ints; the string flags parse as the file's keys
    overrides = {key: _parse_value(f"--{key}", value, kind) if isinstance(value, str) else value
                 for key, kind in _RUN_KEYS.items() if (value := getattr(args, key)) is not None}
    named = args.output_dir is not None or "output_dir" in keys
    return dataclasses.replace(config, **overrides), named


def _cmd_run(args: argparse.Namespace, config: RunConfig, named_out: bool) -> int:
    figure = Figure(args.figure)
    table = run_figure(config, figure)
    path = Path(config.output_dir) / figure.filename
    path.parent.mkdir(parents=True, exist_ok=True)
    table.write(path)
    print(f"wrote {path} ({len(table.rows)} rows)")
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace, config: RunConfig, named_out: bool) -> int:
    summary, failed = compare_schemes(config)
    for name, _, status, *_, detail in summary.rows:
        print(f"{status:>12}  {name}  [{detail}]")
    print(f"summary written to {Path(config.output_dir) / SUMMARY_FILE}")
    return EXIT_ASSERTION if failed else EXIT_OK


def _cmd_validate(args: argparse.Namespace, config: RunConfig, named_out: bool) -> int:
    table, status = validate_schemes(config)
    for scheme, check, value, limit, verdict in table.rows:
        print(f"{verdict:>6}  {scheme:<12} {check:<14} {value:.4g} (limit {limit:g})")
    return EXIT_ASSERTION if status else EXIT_OK


def _cmd_trace(args: argparse.Namespace, config: RunConfig, named_out: bool) -> int:
    sc = config.scenario.with_scheme(config.schemes[0])
    rng = SeedPolicy(config.master_seed).stream(DOMAIN_PROTOCOL, 0)
    _, trace = run_crossing(sc, PositionGrid.for_scenario(sc), rng)
    text = format_trace(trace)
    if named_out:
        path = Path(config.output_dir) / "trace.tsv"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(f"wrote {path}")
    else:
        print(text, end="")
    return EXIT_OK


# the verb set: (verb, help line, handler); each handler takes (args, config, named_out)
_VERBS = (
    ("run", "compute one figure table", _cmd_run),
    ("compare", "all figures plus cross-scheme assertions", _cmd_compare),
    ("validate", "analytic curves against Monte Carlo estimates", _cmd_validate),
    ("trace", "emit one seeded protocol trace", _cmd_trace),
)


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
    for verb, help_line, handler in _VERBS:
        p = sub.add_parser(verb, help=help_line)
        p.set_defaults(handler=handler)
        if verb == "run":
            p.add_argument("--figure", required=True, choices=[f.value for f in Figure])
        p.add_argument("--config", metavar="PATH", help="key/value configuration file")
        p.add_argument("--seed", type=int, dest="master_seed", metavar="U64",
                       help="master seed for all substreams")
        p.add_argument("--trials", type=int, metavar="N", help="Monte Carlo trials per estimate")
        p.add_argument("--mode", choices=[m.value for m in MetricMode],
                       help="analytic mode for occurrence/failure/interruption")
        p.add_argument("--schemes", metavar="LIST",
                       help="comma-separated subset of: " + ", ".join(s.value for s in Scheme))
        p.add_argument("--out", dest="output_dir", metavar="DIR", help="output directory")
        p.add_argument("--jobs", type=int, metavar="N",
                       help="worker threads (results are identical at any count)")
    return parser


_PARSER = _build_parser()  # once: argparse measures the terminal per argument


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.handler(args, *_load_config(args))
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
