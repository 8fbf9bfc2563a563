"""Config parsing and the four command verbs.

Exit codes: 0 ok, 1 failed agreement assertion, 2 bad configuration,
3 numeric breakdown.
"""

import argparse
import contextlib
import dataclasses
import io
import os
import tempfile
import warnings
from enum import Enum
from pathlib import Path
from unittest import mock

import pytest

from railhandover.analytics import MetricMode
from railhandover.cli import ConfigError, main, parse_config
from railhandover.figures import Figure, RunConfig
from railhandover.scenario import Scenario, Scheme
from railhandover.statfun import NumericsError


def test_empty_config_gives_defaults():
    cfg, keys = parse_config("")
    assert (cfg, keys) == (RunConfig(), set())
    assert cfg.trials == 100_000
    assert cfg.master_seed == 12345
    assert cfg.mode is MetricMode.REDERIVED
    assert cfg.schemes == tuple(Scheme)
    assert cfg.scenario == Scenario()


def test_config_spacing_rule_follows_rau_count():
    cfg, _ = parse_config("n_raus = 8\nds = 3000")
    assert cfg.scenario.dr == 375.0


def test_config_rejects_invariant_violation():
    with pytest.raises(ConfigError, match="hysteresis must be >= 0"):
        parse_config("hysteresis = -1")


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key 'frobnicate'"):
        parse_config("frobnicate = 3")


def test_config_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="already exists"):
        parse_config("trials = 10\ntrials = 20")


def test_config_rejects_bad_enum():
    with pytest.raises(ConfigError, match="expected one of"):
        parse_config("mode = guesswork")
    with pytest.raises(ConfigError, match="expected one of"):
        parse_config("schemes = proposed, bogus")


def test_config_rejects_non_numeric():
    with pytest.raises(ConfigError, match="expected a number"):
        parse_config("ds = tall")
    with pytest.raises(ConfigError, match="expected an integer"):
        parse_config("trials = 3.5")


def _default_text(name: str) -> str:
    """The configuration text of a Scenario or RunConfig field's default value."""
    default = Scenario()
    owner = default if name in Scenario.__dataclass_fields__ else RunConfig()
    value = getattr(owner, name)
    if value is None:  # no per-unit sigmas: every unit at shadow_sigma
        value = (default.shadow_sigma,) * default.n_raus
    if isinstance(value, tuple):
        return ", ".join(v.value if isinstance(v, Enum) else str(v) for v in value)
    return value.value if isinstance(value, Enum) else str(value)


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(Scenario)
                                  if f.name != "scheme"]
                         + [f.name for f in dataclasses.fields(RunConfig)
                            if f.name != "scenario"])
def test_config_parses_every_scenario_field_from_its_default(name):
    """Each Scenario field but scheme and each RunConfig field but scenario
    is a config key; the text of its default (the per-unit sigmas spelled
    out) gives the default configuration back."""
    got, keys = parse_config(f"{name} = {_default_text(name)}")
    assert keys == {name}
    if name == "shadow_sigma_per_rau":
        assert got.scenario.shadow_sigma_per_rau == (4.0,) * 4
        got = dataclasses.replace(got, scenario=dataclasses.replace(
            got.scenario, shadow_sigma_per_rau=None))
    assert got == RunConfig()


def test_readme_lists_every_config_key():
    """The README's command-line paragraph names each config key once:
    the schema's, no more and no fewer."""
    import re

    from railhandover import cli

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    listed = re.search(r"each parsed by its annotated type: (.*?)\.", readme, re.DOTALL).group(1)
    keys = re.findall(r"`([^`]+)`", listed)
    assert len(keys) == len(set(keys))
    assert set(keys) == set(cli._SCENARIO_KEYS | cli._RUN_KEYS)


@pytest.mark.parametrize("key", ["frobnicate", "antennas", "rau_sigma", "with_scheme",
                                 "scheme"])
def test_config_rejects_scenario_attributes_that_are_not_fields(key):
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        parse_config(f"{key} = 1")


def test_scheme_key_exits_2_pointing_at_schemes(tmp_path, capsys):
    """Every verb runs the schemes of `schemes`, so a `scheme` key would
    change nothing but the fingerprint; it is a configuration error."""
    config = tmp_path / "run.cfg"
    config.write_text("measurement_step = 250\nscheme = traditional\n")
    code = main(["trace", "--config", str(config)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("configuration error: unknown key 'scheme'; "
                            "list the schemes to run in schemes\n")


def test_config_per_rau_sigma_list():
    cfg, _ = parse_config("shadow_sigma_per_rau = 4, 4, 4, 8")
    assert cfg.scenario.shadow_sigma_per_rau == (4.0, 4.0, 4.0, 8.0)
    assert cfg.scenario.rau_sigma(4) == 8.0
    assert cfg.scenario.rau_sigma(1) == 4.0


def test_config_run_options():
    cfg, keys = parse_config(
        "trials = 500\nmaster_seed = 3\nmode = paper\n"
        "schemes = traditional\noutput_dir = out/x\njobs = 2")
    assert keys == {"trials", "master_seed", "mode", "schemes", "output_dir", "jobs"}
    assert cfg.trials == 500
    assert cfg.master_seed == 3
    assert cfg.mode is MetricMode.PAPER
    assert cfg.schemes == (Scheme.TRADITIONAL,)
    assert cfg.output_dir == Path("out/x")
    assert cfg.jobs == 2


# --- verbs; every invocation goes through main(argv) ---


def _base_args(tmp_path, *extra):
    config = tmp_path / "run.cfg"
    config.write_text("measurement_step = 50\ntrials = 40\n"
                      "schemes = proposed\n")
    return ["--config", str(config), "--out", str(tmp_path / "results"),
            "--seed", "7", *extra]


def test_run_writes_figure(tmp_path, capsys):
    code = main(["run", "--figure", "trigger", *_base_args(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    path = tmp_path / "results" / "fig4_trigger.csv"
    assert path.exists()
    assert f"wrote {path} (61 rows)" in out


def test_run_is_byte_identical_across_reruns(tmp_path, capsys):
    args = lambda d: ["run", "--figure", "occurrence", *_base_args(tmp_path),
                      "--out", str(tmp_path / d)]
    assert main(args("a")) == 0
    assert main(args("b")) == 0
    capsys.readouterr()
    a = (tmp_path / "a" / "fig5_occurrence.csv").read_bytes()
    b = (tmp_path / "b" / "fig5_occurrence.csv").read_bytes()
    assert a == b


def test_run_jobs_do_not_change_output(tmp_path, capsys):
    args = lambda d, j: ["run", "--figure", "failure", *_base_args(tmp_path),
                         "--out", str(tmp_path / d), "--jobs", j]
    assert main(args("serial", "1")) == 0
    assert main(args("parallel", "8")) == 0
    capsys.readouterr()
    assert (tmp_path / "serial" / "fig6_failure.csv").read_bytes() == \
        (tmp_path / "parallel" / "fig6_failure.csv").read_bytes()


@pytest.mark.parametrize("mode", [m.value for m in MetricMode])
def test_run_writes_the_bytes_compare_writes(tmp_path, capsys, mode):
    """`run --figure F` sweeps only what F needs (mean RSS for rss alone)
    and writes the very bytes `compare` writes for F, in either mode."""
    config = tmp_path / "coarse.cfg"
    config.write_text("measurement_step = 250.0\n")
    args = ["--trials", "200", "--seed", "12345", "--mode", mode, "--config", str(config)]
    assert main(["compare", *args, "--out", str(tmp_path / "compare")]) == 1
    for figure in Figure:
        out = tmp_path / figure.value
        assert main(["run", "--figure", figure.value, *args, "--out", str(out)]) == 0
        assert (out / figure.filename).read_bytes() == \
            (tmp_path / "compare" / figure.filename).read_bytes(), figure
    capsys.readouterr()


def test_bad_config_exits_2(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("hysteresis = -1\n")
    code = main(["run", "--figure", "trigger", "--config", str(config)])
    err = capsys.readouterr().err
    assert code == 2
    assert "configuration error" in err
    assert "hysteresis" in err


def test_bad_scheme_override_exits_2(tmp_path, capsys):
    code = main(["run", "--figure", "trigger", *_base_args(tmp_path),
                 "--schemes", "bogus"])
    assert code == 2
    assert "expected one of" in capsys.readouterr().err


_VERBS = {"compare": ["compare"], "run": ["run", "--figure", "rss"], "trace": ["trace"]}


@pytest.mark.parametrize("verb, where", [
    (verb, where) for verb in _VERBS for where in ("file", "under-file", "output_dir")])
def test_unwritable_output_exits_2(tmp_path, capsys, verb, where):
    """--out or output_dir naming a regular file, or a path under one, is one
    configuration error line on stderr and exit 2, not a traceback."""
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken / "results" if where == "under-file" else taken
    config = tmp_path / "run.cfg"
    config.write_text("measurement_step = 250\nschemes = proposed\n"
                      + (f"output_dir = {out}\n" if where == "output_dir" else ""))
    args = [] if where == "output_dir" else ["--out", str(out)]
    code = main([*_VERBS[verb], "--config", str(config), "--trials", "20", *args])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("configuration error: cannot write output: ")
    assert err.count("\n") == 1 and str(taken) in err


def test_numeric_breakdown_exits_3(tmp_path, capsys, monkeypatch):
    import railhandover.cli as cli_mod

    def explode(config, figure):
        raise NumericsError("quadrature did not converge")

    monkeypatch.setattr(cli_mod, "run_figure", explode)
    code = main(["run", "--figure", "trigger", *_base_args(tmp_path)])
    assert code == 3
    assert "numeric error" in capsys.readouterr().err


@pytest.mark.parametrize("figure, stage", [
    ("rss", r"cell mean of das-single at x=\d+ m \(front antenna, (serving|target) cell\)"),
    ("failure", r"failure probability at x=\d+ m \(front antenna\)"),
])
def test_numeric_breakdown_names_stage_and_position(tmp_path, capsys, monkeypatch,
                                                    figure, stage):
    """With no bisection allowed no quadrature row converges; exit 3 names
    the stage, the antenna and a grid position that failed, and for a cell
    mean the scheme and the cell (failure integrals are shared by the
    schemes whose trigger pairs agree)."""
    import re

    from railhandover import statfun

    monkeypatch.setattr(statfun, "_MAX_DEPTH", 0)
    code = main(["run", "--figure", figure, *_base_args(tmp_path),
                 "--schemes", "das-single"])
    err = capsys.readouterr().err
    assert code == 3
    assert re.search(f"^numeric error: {stage}: quadrature did not converge .* "
                     r"after 0 bisection rounds\)$", err, re.MULTILINE), err


def test_cli_import_leaves_scipy_stats_and_integrate_out():
    """A structural check, not a timing: the command line needs numpy and
    scipy.special only."""
    import subprocess
    import sys

    probe = ("import sys, railhandover.cli; "
             "print(sorted(m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


_PROTOCOL = ("from railhandover import PositionGrid, Scenario, SeedPolicy\n"
             "from railhandover.montecarlo import estimate_protocol\n"
             "sc = Scenario()\n"
             "estimate_protocol(sc, PositionGrid.for_scenario(sc), 5, SeedPolicy(7))")
_CLI = ("from pathlib import Path\n"
        "from railhandover.cli import main\n"
        "config = Path(sys.argv[1]) / 'coarse.cfg'\n"
        "config.write_text('measurement_step = 250.0\\n')\n"
        "assert main([*{argv!r}, '--trials', '40', '--config', str(config),"
        " '--out', sys.argv[1]]) in (0, 1)")


@pytest.mark.parametrize("code", [
    "import railhandover, railhandover.cli",
    _PROTOCOL,
    "from railhandover.cli import main\nassert main(['trace']) == 0",
    _CLI.format(argv=["run", "--figure", "rss"]),
    _CLI.format(argv=["compare"]),
    _CLI.format(argv=["validate"]),
], ids=["import", "estimate_protocol", "trace", "run-rss", "compare", "validate"])
def test_cli_runs_without_scipy(tmp_path, code):
    """A structural check, each in a fresh interpreter where importing scipy
    fails: the package, the protocol estimator and every verb need numpy only
    (compare and validate exit 1 on the rules that fail by design)."""
    import subprocess
    import sys

    probe = f"import sys\nsys.modules['scipy'] = None\n{code}\nprint('ok')"
    out = subprocess.run([sys.executable, "-c", probe, str(tmp_path)], capture_output=True,
                         text=True)
    assert out.returncode == 0 and out.stdout.splitlines()[-1] == "ok", out.stderr


def test_numpy_is_the_only_runtime_dependency():
    """scipy is a test oracle (the `test` extra), not a runtime dependency."""
    import tomllib

    project = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())["project"]
    assert [d.split(">")[0] for d in project["dependencies"]] == ["numpy"]
    assert any(d.startswith("scipy") for d in project["optional-dependencies"]["test"])


def _outcome(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = f"SystemExit({exc.code})"
    return code, capsys.readouterr()


def test_one_parser_per_process_parses_like_a_fresh_one(tmp_path, capsys, monkeypatch):
    """main parses with the parser built at import. Calls in a row, each
    with other verbs and flags, exit, print and parse as they do with a
    parser built for that call alone."""
    from railhandover import cli

    argvs = [
        ["trace", "--seed", "7", "--schemes", "traditional", "--out", str(tmp_path / "t")],
        ["run", "--figure", "trigger", *_base_args(tmp_path)],
        ["trace"],
        ["run", "--figure", "trigger", "--trials", "0"],
        ["validate", "--seed", "3", "--bogus"],
        ["trace", "--seed", "7", "--mode", "paper"],
    ]

    def no_new_parser():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "_build_parser", no_new_parser)
    shared = [_outcome(argv, capsys) for argv in argvs]
    monkeypatch.undo()
    for argv, outcome in zip(argvs, shared):
        fresh = cli._build_parser()
        if argv[-1] != "--bogus":
            assert vars(cli._PARSER.parse_args(argv)) == vars(fresh.parse_args(argv))
        monkeypatch.setattr(cli, "_PARSER", fresh)
        assert _outcome(argv, capsys) == outcome
    assert [code for code, _ in shared] == [0, 0, 0, 2, "SystemExit(2)", 0]


def test_compare_single_scheme_exits_0(tmp_path, capsys):
    code = main(["compare", *_base_args(tmp_path), "--trials", "20000",
                 "--jobs", "8"])
    out = capsys.readouterr().out
    assert code == 0
    assert "summary written to" in out
    assert (tmp_path / "results" / "summary.csv").exists()


def test_validate_pinned_combo_exits_0(tmp_path, capsys):
    code = main(["validate", *_base_args(tmp_path), "--trials", "4000",
                 "--schemes", "proposed,traditional", "--jobs", "8"])
    out = capsys.readouterr().out
    assert code == 0
    assert "pass" in out


def test_trace_to_stdout(tmp_path, capsys):
    code = main(["trace", "--seed", "7", "--trials", "1"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "position_m\tphase_before\tevent_kind\tantenna\tphase_after"
    assert all(len(line.split("\t")) == 5 for line in lines[1:])


def test_trace_to_file_and_determinism(tmp_path, capsys):
    code = main(["trace", "--seed", "7", "--out", str(tmp_path / "t1")])
    assert code == 0
    assert main(["trace", "--seed", "7", "--out", str(tmp_path / "t2")]) == 0
    out = capsys.readouterr().out
    assert f"wrote {tmp_path / 't1' / 'trace.tsv'}" in out
    t1 = (tmp_path / "t1" / "trace.tsv").read_bytes()
    t2 = (tmp_path / "t2" / "trace.tsv").read_bytes()
    assert t1 == t2
    stdout_run = main(["trace", "--seed", "7"])
    assert stdout_run == 0
    assert capsys.readouterr().out.encode() == t1


@pytest.mark.parametrize("out_dir", ["results", "elsewhere"])
def test_trace_writes_to_output_dir_of_config(tmp_path, monkeypatch, capsys, out_dir):
    """A config file that names output_dir, the default `results` too,
    sends the trace to output_dir/trace.tsv, with the bytes that a run
    naming no directory prints and writes nowhere."""
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text(f"output_dir = {out_dir}\n")
    assert main(["trace", "--seed", "7"]) == 0
    printed = capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]
    assert main(["trace", "--seed", "7", "--config", str(config)]) == 0
    path = Path(out_dir) / "trace.tsv"
    assert capsys.readouterr().out == f"wrote {path}\n"
    assert path.read_text() == printed


TRACE_GOLDEN = Path(__file__).parent / "golden" / "trace"


@pytest.mark.parametrize("name,args,config", [
    ("default", [], None),
    ("traditional", ["--schemes", "traditional"], None),
    ("mean_pathloss", [], "selection = mean-pathloss\n"),
    ("traditional", ["--schemes", "traditional,proposed"], None),
], ids=["default", "traditional", "mean_pathloss", "first_listed"])
def test_trace_matches_golden(tmp_path, capsys, name, args, config):
    """`trace --seed 7` output, byte for byte. A deliberate change to the
    procedure or the trace format must come with regenerated files. trace
    runs the first listed scheme only."""
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        args = [*args, "--config", str(tmp_path / "run.cfg")]
    assert main(["trace", "--seed", "7", *args]) == 0
    assert capsys.readouterr().out == (TRACE_GOLDEN / f"{name}.tsv").read_text()


def test_trace_rejects_single_antenna_scheme(capsys):
    code = main(["trace", "--schemes", "das-single"])
    assert code == 2
    assert "needs two antennas" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["compare", "validate"])
def test_mean_pathloss_selection_runs(tmp_path, capsys, verb):
    config = tmp_path / "picky.cfg"
    config.write_text("measurement_step = 250\nselection = mean-pathloss\n")
    code = main([verb, "--config", str(config), "--trials", "200", "--seed", "3",
                 "--out", str(tmp_path / "results")])
    captured = capsys.readouterr()
    assert code in (0, 1), captured.err
    assert "Traceback" not in captured.err
    if verb == "compare":
        written = {p.name for p in (tmp_path / "results").iterdir()}
        assert written == {f.filename for f in Figure} | {"summary.csv"}


def test_trace_mean_pathloss_selection(tmp_path, capsys):
    config = tmp_path / "picky.cfg"
    config.write_text("selection = mean-pathloss\n")
    code = main(["trace", "--config", str(config), "--seed", "7"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "HoCommandFront" in captured.out


@pytest.mark.parametrize("verb", [["run", "--figure", "rss"], ["run", "--figure", "trigger"],
                                  ["compare"], ["validate"]], ids=" ".join)
def test_nonfinite_link_mean_exits_2_naming_the_link(tmp_path, capsys, verb):
    """A path-loss exponent of 1e307 sends every link mean to -inf: a
    configuration error naming the link, without a warning or traceback."""
    config = tmp_path / "steep.cfg"
    config.write_text("measurement_step = 250\npathloss_gamma = 1e307\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([*verb, "--config", str(config), "--trials", "50", "--seed", "3",
                     "--out", str(tmp_path / "results")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err == ("configuration error: link mean -inf of proposed at x=0 m "
                   "(front antenna, serving cell) is not finite\n")
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.parametrize("text, mean, named", [
    ("shadow_sigma = 90\n", "-inf", "shadow_sigma = 90"),
    ("shadow_sigma = 160\n", "nan", "shadow_sigma = 160"),
    ("shadow_sigma_per_rau = 4,90,4,4\n", "-inf", "shadow_sigma_per_rau = 4,90,4,4"),
], ids=["sigma-90", "sigma-160", "per-rau"])
def test_blanket_moment_overflow_exits_2_naming_the_sigma_key(tmp_path, capsys, text, mean,
                                                              named):
    """A shadow sigma of about 90 dB or more overflows the blanket power
    sum's moment match: a configuration error that names the sigma key."""
    config = tmp_path / "wide.cfg"
    config.write_text("measurement_step = 250\n" + text)
    code = main(["run", "--figure", "trigger", "--schemes", "das-blanket", "--config",
                 str(config), "--trials", "20", "--out", str(tmp_path / "results")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err == (f"configuration error: link mean {mean} of das-blanket at x=0 m "
                   "(front antenna, serving cell) is not finite: the blanket power sum's "
                   f"moment match overflows at {named}\n")


def test_too_small_sigmas_exit_2_naming_the_first_bad_link(tmp_path, capsys):
    """A shadow sigma of 1e-308 makes every cell mean's normal CDF arguments
    overflow: a configuration error naming the first bad link in (position,
    antenna, cell) order, not the first of the sorted distinct rows."""
    config = tmp_path / "narrow.cfg"
    config.write_text("shadow_sigma = 1e-308\nmeasurement_step = 250\nschemes = proposed\n")
    code = main(["run", "--figure", "rss", "--config", str(config),
                 "--out", str(tmp_path / "results")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err == ("configuration error: cell mean of proposed at x=0 m (front antenna, "
                   "serving cell): the normal CDF arguments are not finite; the component "
                   "sigmas are too small for their mean gaps\n")


@pytest.mark.parametrize("verb", [["compare"], ["validate"], ["trace"]], ids=" ".join)
@pytest.mark.parametrize("text, link", [
    ("du = 0\nmeasurement_step = 375\n", "proposed at x=375 m (front antenna, serving cell)"),
    ("d0 = 0\nschemes = traditional\n", "traditional at x=0 m (front antenna, serving cell)"),
], ids=["rau-under-the-track", "tower-on-the-track"])
def test_zero_link_distance_exits_2_naming_the_link(tmp_path, capsys, verb, text, link):
    """An antenna right under a transmit node has no path loss: a
    configuration error naming the link, without a traceback."""
    config = tmp_path / "zero.cfg"
    config.write_text(text)
    code = main([*verb, "--config", str(config), "--trials", "50", "--seed", "3",
                 "--out", str(tmp_path / "results")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err == (f"configuration error: link distance 0 m of {link}: "
                   "path loss requires distance > 0\n")


def test_compare_with_subnormal_sigma_exits_2(tmp_path, capsys):
    """A tiny shadow sigma leaves normal CDF arguments that are not finite:
    below about 1e-155 the blanket sum's moment-matched sigma underflows to
    0, a configuration error naming the link."""
    config = tmp_path / "tiny.cfg"
    config.write_text("measurement_step = 250\nshadow_sigma = 1e-320\n")
    code = main(["compare", "--config", str(config), "--trials", "200", "--seed", "3",
                 "--out", str(tmp_path / "results")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("configuration error: ")
    assert "finite" in err
    assert "Traceback" not in err
    config.write_text("measurement_step = 250\nshadow_sigma = 1e-170\n")
    code = main(["compare", "--config", str(config), "--trials", "200", "--seed", "3",
                 "--out", str(tmp_path / "results")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err == ("configuration error: link sigma 0 dB of das-blanket at x=0 m "
                   "(front antenna, serving cell) is not > 0: its normal CDF arguments "
                   "are not finite\n")


@pytest.mark.parametrize("text, key", [
    ("ds = inf\n", "ds must be finite (got inf)"),
    ("hysteresis = inf\n", "hysteresis must be finite (got inf)"),
    ("noise_density = nan\n", "noise_density must be finite (got nan)"),
], ids=["ds", "hysteresis", "noise_density"])
def test_nonfinite_scenario_value_exits_2_naming_the_key(tmp_path, capsys, text, key):
    """inf passes a value's range check, nan a field's without one: each is
    a configuration error naming the key, never a traceback."""
    config = tmp_path / "inf.cfg"
    config.write_text("measurement_step = 250\n" + text)
    code = main(["compare", "--config", str(config), "--trials", "20", "--seed", "3",
                 "--out", str(tmp_path / "results")])
    assert code == 2
    assert capsys.readouterr().err == f"configuration error: {key}\n"


# --- every configuration and flag error, byte for byte ---

ERRORS_GOLDEN = Path(__file__).parent / "golden" / "cli_errors.txt"
_VERB_ARGV = {"run": ["run", "--figure", "rss"], "compare": ["compare"],
              "validate": ["validate"], "trace": ["trace"]}
_COARSE = "measurement_step = 250\n"
_BAD_CONFIGS = {
    "unknown-key": _COARSE + "frobnicate = 3\n",
    "scheme-key": _COARSE + "scheme = traditional\n",
    "duplicate-key": "[a]\n" + _COARSE + "trials = 10\n[b]\ntrials = 20\n",
    "malformed-section": "[run\n" + _COARSE,
    "bad-float": _COARSE + "ds = tall\n",
    "bad-scenario-int": _COARSE + "n_raus = 2.5\n",
    "bad-run-int": _COARSE + "trials = 3.5\n",
    "bad-scenario-enum": _COARSE + "selection = best\n",
    "bad-run-enum": _COARSE + "mode = guesswork\n",
    "bad-scheme-list": _COARSE + "schemes = proposed, bogus\n",
    "empty-scheme-list": _COARSE + "schemes = ,\n",
    "bad-unit-sigma": _COARSE + "shadow_sigma_per_rau = 4, x, 4, 4\n",
    "unit-sigma-count": _COARSE + "shadow_sigma_per_rau = 4, 4\n",
    "negative-hysteresis": _COARSE + "hysteresis = -1\n",
    "nan-tx-power": _COARSE + "tx_power = nan\n",
    "infinite-ds": _COARSE + "ds = inf\n",
    "zero-jobs": _COARSE + "jobs = 0\n",
    "zero-trials": _COARSE + "trials = 0\n",
    "negative-seed": _COARSE + "master_seed = -1\n",
    "zero-units": _COARSE + "n_raus = 0\n",
    "zero-link-distance": _COARSE + "d0 = 0\nschemes = traditional\n",
    "blanket-sigma-underflow": _COARSE + "shadow_sigma = 1e-170\nschemes = das-blanket\n",
    "output-dir-is-a-file": _COARSE + "output_dir = {tmp}/taken\n",
}
_BAD_FLAGS = {
    "trials-not-an-integer": ["--trials", "x"],
    "negative-seed": ["--seed", "-1"],
    "zero-jobs": ["--jobs", "0"],
    "bad-mode": ["--mode", "bogus"],
    "empty-schemes": ["--schemes", ""],
    "bad-schemes": ["--schemes", "proposed,bogus"],
    "single-antenna-trace": ["--schemes", "das-single"],
    "out-is-a-file": ["--out", "{tmp}/taken"],
    "missing-config": ["--config", "{tmp}/missing.cfg"],
    "unknown-flag": ["--frob"],
}


def _shown(name: str, text: str) -> list[str]:
    lines = [f"{name}:"] + [f"  | {line}" for line in text.splitlines()]
    if text and not text.endswith("\n"):
        lines.append("  (no newline at end)")
    return lines


def error_transcript(work: Path) -> str:
    """Exit code, stdout and stderr of every verb on each bad config file and
    bad flag, on the 250 m grid at 20 trials, with work shown as <tmp>.

    argparse wraps its usage line to the terminal, so COLUMNS is fixed at 80;
    the runs start in work, where an output a case writes by default lands."""
    (work / "taken").write_text("")
    (work / "coarse.cfg").write_text(_COARSE)
    runs = [(f"config {name}", text.format(tmp=work), verb, [])
            for name, text in _BAD_CONFIGS.items() for verb in _VERB_ARGV]
    runs += [(f"flags {name}", None, verb, [arg.format(tmp=work) for arg in flags])
             for name, flags in _BAD_FLAGS.items() for verb in _VERB_ARGV
             if name != "single-antenna-trace" or verb == "trace"]
    lines, cwd = [], os.getcwd()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        os.chdir(work)
        try:
            for title, text, verb, flags in runs:
                config = work / "coarse.cfg"
                if text is not None:
                    config = work / "case.cfg"
                    config.write_text(text)
                argv = [*_VERB_ARGV[verb], "--config", str(config), "--trials", "20", *flags]
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    try:
                        code = main(argv)
                    except SystemExit as exc:  # argparse rejects the command line
                        code = exc.code
                lines += [f"=== {title}", "$ railhandover " + " ".join(argv), f"exit {code}"]
                lines += _shown("stdout", stdout.getvalue()) + _shown("stderr", stderr.getvalue())
        finally:
            os.chdir(cwd)
    return "\n".join(lines).replace(str(work), "<tmp>") + "\n"


def test_error_paths_match_golden(tmp_path):
    """Every configuration and flag error of every verb: one configuration
    error line and exit 2 (argparse's usage and exit 2 for a flag it
    rejects), never a traceback. Rewrite the golden after a deliberate
    change with `PYTHONPATH=src python tests/test_cli.py`."""
    assert error_transcript(tmp_path) == ERRORS_GOLDEN.read_text()


# --- the parser, action by action ---

PARSER_GOLDEN = Path(__file__).parent / "golden" / "cli_parser.txt"


def parser_transcript() -> str:
    """One line per argparse action of the top-level parser and of each verb:
    what `--help` shows, read from the actions, so no Python version's help
    layout enters it."""
    from railhandover import cli

    parser = cli._build_parser()
    verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    helps = {a.dest: a.help for a in verbs._choices_actions}
    lines = [f"[railhandover] description={parser.description!r} epilog={parser.epilog!r}"]
    for name, sub in [(None, parser), *verbs.choices.items()]:
        if name is not None:
            lines.append(f"[railhandover {name}] help={helps[name]!r}")
        for a in sub._actions:
            choices = list(a.choices) if a.choices is not None else None
            lines.append(f"  {a.option_strings} dest={a.dest!r} metavar={a.metavar!r} "
                         f"type={getattr(a.type, '__name__', a.type)} nargs={a.nargs!r} "
                         f"choices={choices} required={a.required} default={a.default!r} "
                         f"help={a.help!r}")
    return "\n".join(lines) + "\n"


def test_parser_matches_golden():
    """Every verb, flag, dest, metavar, type, choice, default and help line.
    Rewrite the golden after a deliberate change with
    `PYTHONPATH=src python tests/test_cli.py`."""
    assert parser_transcript() == PARSER_GOLDEN.read_text()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        ERRORS_GOLDEN.write_text(error_transcript(Path(work)))
    PARSER_GOLDEN.write_text(parser_transcript())
