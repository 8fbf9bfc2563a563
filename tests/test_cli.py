"""Config parsing and the four command verbs.

Exit codes: 0 ok, 1 failed agreement assertion, 2 bad configuration,
3 numeric breakdown.
"""

import dataclasses
import warnings
from enum import Enum
from pathlib import Path

import pytest

from railhandover.analytics import MetricMode
from railhandover.cli import ConfigError, main, parse_config
from railhandover.figures import Figure, RunConfig
from railhandover.scenario import Scenario, Scheme
from railhandover.statfun import NumericsError


def test_empty_config_gives_defaults():
    cfg = parse_config("")
    assert cfg == RunConfig()
    assert cfg.trials == 100_000
    assert cfg.master_seed == 12345
    assert cfg.mode is MetricMode.REDERIVED
    assert cfg.schemes == tuple(Scheme)
    assert cfg.scenario == Scenario()


def test_config_spacing_rule_follows_rau_count():
    cfg = parse_config("n_raus = 8\nds = 3000")
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
    """The configuration text of a Scenario field's default value."""
    default = Scenario()
    value = getattr(default, name)
    if value is None:  # no per-unit sigmas: every unit at shadow_sigma
        value = (default.shadow_sigma,) * default.n_raus
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return ", ".join(map(str, value))
    return str(value)


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(Scenario)])
def test_config_parses_every_scenario_field_from_its_default(name):
    """Each Scenario field is a config key; the text of its default (the
    per-unit sigmas spelled out) gives the default scenario back."""
    got = parse_config(f"{name} = {_default_text(name)}").scenario
    if name == "shadow_sigma_per_rau":
        assert got.shadow_sigma_per_rau == (4.0,) * 4
        got = dataclasses.replace(got, shadow_sigma_per_rau=None)
    assert got == Scenario()


@pytest.mark.parametrize("key", ["frobnicate", "antennas", "rau_sigma", "with_scheme"])
def test_config_rejects_scenario_attributes_that_are_not_fields(key):
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        parse_config(f"{key} = 1")


def test_config_per_rau_sigma_list():
    cfg = parse_config("shadow_sigma_per_rau = 4, 4, 4, 8")
    assert cfg.scenario.shadow_sigma_per_rau == (4.0, 4.0, 4.0, 8.0)
    assert cfg.scenario.rau_sigma(4) == 8.0
    assert cfg.scenario.rau_sigma(1) == 4.0


def test_config_run_options():
    cfg = parse_config(
        "trials = 500\nmaster_seed = 3\nmode = paper\n"
        "schemes = traditional\noutput_dir = out/x\njobs = 2")
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

    from railhandover import analytics, channel, statfun

    monkeypatch.setattr(statfun, "_MAX_DEPTH", 0)
    channel.cell_means.cache_clear()
    analytics._failure_rows.cache_clear()
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
    """Mean gaps over a subnormal sigma overflow the normal CDF arguments."""
    config = tmp_path / "tiny.cfg"
    config.write_text("measurement_step = 250\nshadow_sigma = 1e-320\n")
    code = main(["compare", "--config", str(config), "--trials", "200", "--seed", "3",
                 "--out", str(tmp_path / "results")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("configuration error: ")
    assert "finite" in err
    assert "Traceback" not in err
