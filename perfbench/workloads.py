"""The benchmark workloads: inputs, one operation, and its output check.

Each workload is one closed-loop client: the next operation starts only
after the previous one has returned and been checked. The package is
passed in as `rh`, already imported, and every call goes through a
module attribute (`rh.cli.main`, `rh.montecarlo.estimate_protocol`) so
that the tracer's wrappers are the ones called.

`check` returns the digest of what the operation produced and a list of
problems; an operation with any problem counts as failed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

FIGURE_FILES = ("fig3_rss.csv", "fig4_trigger.csv", "fig5_occurrence.csv",
                "fig6_failure.csv", "fig7_interruption.csv")
SUMMARY_FILE = "summary.csv"
# Acceptance criterion 05b fails by design at the default scenario; if it
# passes, the model has changed.
CRITERION_05B = "interruption_lowest[proposed<=traditional]"
VALIDATE_CHECKS = ("trigger", "occurrence", "interruption", "failure_z")


@dataclass
class Inputs:
    fingerprint: str
    positions: tuple[float, ...]
    schemes: tuple[str, ...]
    out_dir: Path
    argv: list[str] | None = None
    call: tuple | None = None      # positional arguments of a direct call


def _run_cli(rh, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = rh.cli.main(argv)
        except SystemExit as exc:     # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def _exit_problems(code: int, allowed: tuple[int, ...], err: str) -> list[str]:
    if code in allowed:
        return []
    return [f"exit code {code}, expected one of {allowed}: {err.strip()[-300:]}"]


class Workload:
    name: str
    trials: int
    jobs: int
    unit: str                       # what one throughput item is
    cold = True                     # clear the package's caches before each operation
    step: float | None = None       # grid step in m; None keeps the default Scenario's

    def scenario(self, rh):
        return rh.Scenario() if self.step is None else rh.Scenario(measurement_step=self.step)

    def inputs(self, rh, seed: int, out_dir: Path) -> Inputs:
        config = rh.RunConfig(scenario=self.scenario(rh), trials=self.trials,
                              master_seed=seed, jobs=self.jobs,
                              schemes=self.scheme_set(rh), output_dir=out_dir)
        grid = rh.PositionGrid.over(config.scenario.ds, config.step)
        return Inputs(config.fingerprint(), grid.positions,
                      tuple(s.value for s in config.schemes), out_dir)

    def scheme_set(self, rh) -> tuple:
        return tuple(rh.Scheme)

    def work_per_op(self, inp: Inputs) -> int:
        return len(inp.schemes) * len(inp.positions) * self.trials

    def reset(self, inp: Inputs) -> None:
        """Untimed clean-up before each operation."""

    def run(self, rh, inp: Inputs):
        raise NotImplementedError

    def check(self, inp: Inputs, result) -> tuple[str, list[str]]:
        raise NotImplementedError


class Compare(Workload):
    name = "compare-2k"
    trials = 2000
    jobs = 1
    unit = "scheme*position*trial"

    def inputs(self, rh, seed, out_dir):
        inp = super().inputs(rh, seed, out_dir / self.name)
        inp.argv = ["compare", "--trials", str(self.trials), "--jobs", str(self.jobs),
                    "--seed", str(seed), "--out", str(inp.out_dir)]
        if self.step is not None:
            config = out_dir / f"{self.name}.cfg"
            config.write_text(f"measurement_step = {self.step!r}\n")
            inp.argv += ["--config", str(config)]
        return inp

    def reset(self, inp):
        shutil.rmtree(inp.out_dir, ignore_errors=True)

    def run(self, rh, inp):
        return _run_cli(rh, inp.argv)

    def check(self, inp, result):
        code, out, err = result
        problems = _exit_problems(code, (1,), err)
        digest = hashlib.sha256()
        for filename in FIGURE_FILES + (SUMMARY_FILE,):
            path = inp.out_dir / filename
            if not path.is_file():
                problems.append(f"{filename} not written")
                continue
            header, _, body = path.read_text().partition("\n")
            if not header.startswith("# provenance: ") or \
                    f"config={inp.fingerprint}" not in header:
                problems.append(f"{filename}: provenance header lacks config={inp.fingerprint}")
            digest.update(f"{filename}\0{body}\0".encode())
            rows = list(csv.reader(io.StringIO(body)))
            if filename == SUMMARY_FILE:
                problems += _summary_problems(rows)
            else:
                problems += _figure_problems(filename, rows, inp.positions)
        return digest.hexdigest(), problems


def _summary_problems(rows: list[list[str]]) -> list[str]:
    if not rows or rows[0][:3] != ["assertion", "figure", "status"]:
        return ["summary.csv: unexpected header"]
    status = {row[0]: row[2] for row in rows[1:]}
    problems = [f"summary.csv: {name} has status {s!r}" for name, s in status.items()
                if s not in ("pass", "fail", "inconclusive")]
    if status.get(CRITERION_05B) != "fail":
        problems.append(f"summary.csv: {CRITERION_05B} is {status.get(CRITERION_05B)!r}, "
                        "expected 'fail' (criterion 05b fails by design)")
    return problems


def _figure_problems(filename: str, rows: list[list[str]],
                     positions: tuple[float, ...]) -> list[str]:
    if not rows or rows[0][0] != "position_m":
        return [f"{filename}: unexpected header"]
    columns, body = rows[0], rows[1:]
    if [float(r[0]) for r in body] != [float(f"{x:.6g}") for x in positions]:
        return [f"{filename}: rows do not follow the {len(positions)}-position grid"]
    probability = filename != "fig3_rss.csv"
    for row in body:
        for name, cell in zip(columns[1:], row[1:]):
            if cell == "":
                continue
            value = float(cell)
            bad = not math.isfinite(value)
            if probability and not name.endswith("_mc_base"):
                bad = bad or not (0.0 <= value <= 1.0)
            if bad:
                return [f"{filename}: {name} = {cell} at position {row[0]}"]
    return []


class CompareCoarse(Compare):
    # The same command on a 250 m grid: 13 positions, about 1 s an operation
    # instead of 20 to 30 s. Short operations give a steady 90th percentile
    # on a host whose speed changes in stretches of about 0.1 s; see "Noise"
    # in README.md. Criterion 05b still fails on this grid.
    name = "compare-250m"
    step = 250.0


class Validate(Workload):
    name = "validate-20k"
    trials = 20000
    jobs = 2
    unit = "scheme*position*trial"

    def inputs(self, rh, seed, out_dir):
        inp = super().inputs(rh, seed, out_dir)
        inp.argv = ["validate", "--trials", str(self.trials), "--jobs", str(self.jobs),
                    "--seed", str(seed)]
        return inp

    def run(self, rh, inp):
        return _run_cli(rh, inp.argv)

    def check(self, inp, result):
        code, out, err = result
        problems = _exit_problems(code, (0, 1), err)
        verdicts = {}
        for line in out.splitlines():
            fields = line.split()
            if len(fields) != 6 or fields[4] != "(limit" or fields[0] not in ("pass", "fail"):
                problems.append(f"unexpected verdict line {line!r}")
                continue
            verdicts[fields[1], fields[2]] = fields[0]
        expected = {(s, c) for s in inp.schemes for c in VALIDATE_CHECKS}
        if set(verdicts) != expected:
            problems.append(f"verdict table has {sorted(verdicts)}, expected {sorted(expected)}")
        if code in (0, 1) and (code == 1) != ("fail" in verdicts.values()):
            problems.append(f"exit code {code} disagrees with the verdicts")
        return hashlib.sha256(out.encode()).hexdigest(), problems


class Protocol(Workload):
    # 25 crossings (about 0.1 s) is short enough for most operations to run
    # wholly in one of the host's two speed states, so that their 90th
    # percentile stays in the slower state however a run's time splits
    # between the two; see "Noise" in README.md.
    name = "protocol-25"
    trials = 25
    jobs = 1
    unit = "crossing"
    # A library caller's repeated calls share the package's caches; cold,
    # rebuilding them would take about as long as the 25 crossings.
    cold = False

    def scheme_set(self, rh):
        return (rh.Scheme.PROPOSED,)

    def work_per_op(self, inp):
        return self.trials

    def inputs(self, rh, seed, out_dir):
        inp = super().inputs(rh, seed, out_dir)
        sc = rh.Scenario()
        inp.call = (sc, rh.PositionGrid.for_scenario(sc), self.trials, rh.SeedPolicy(seed))
        return inp

    def run(self, rh, inp):
        return rh.montecarlo.estimate_protocol(*inp.call, jobs=self.jobs)

    def check(self, inp, stats):
        hists = {name: [int(v) for v in getattr(stats, name)]
                 for name in ("front_ho_hist", "rear_ho_hist",
                              "front_attempt_hist", "front_failure_hist")}
        counters = {name: int(getattr(stats, name))
                    for name in ("trials", "completed", "front_failed_trials",
                                 "rear_failed_trials")}
        lengths = [float(v) for v in stats.interruption_lengths]
        n = counters["trials"]
        front, rear = sum(hists["front_ho_hist"]), sum(hists["rear_ho_hist"])
        attempts, failures = sum(hists["front_attempt_hist"]), sum(hists["front_failure_hist"])
        step = inp.positions[1] - inp.positions[0]
        problems = [text for bad, text in (
            (n != self.trials, f"{n} trials, expected {self.trials}"),
            (any(len(h) != len(inp.positions) for h in hists.values()),
             "histograms do not span the grid"),
            (not rear <= front <= n, f"rear {rear} <= front {front} <= trials {n} broken"),
            (counters["completed"] != rear,
             f"{counters['completed']} completed crossings but {rear} rear handovers"),
            (attempts - failures != front,
             f"{attempts} front attempts - {failures} failures != {front} front handovers"),
            (any(f > a for f, a in zip(hists["front_failure_hist"],
                                       hists["front_attempt_hist"])),
             "more failed than attempted front handovers at a position"),
            (not 0 <= counters["front_failed_trials"] <= n
             or not 0 <= counters["rear_failed_trials"] <= n,
             "failed-trial counts out of range"),
            (any(not (v > 0 and abs(v / step - round(v / step)) < 1e-9) for v in lengths),
             "an interruption length is not a positive multiple of the grid step"),
        ) if bad]
        text = repr((sorted(counters.items()), sorted(hists.items()), lengths))
        return hashlib.sha256(text.encode()).hexdigest(), problems


WORKLOADS = {w.name: w for w in (Compare(), CompareCoarse(), Validate(), Protocol())}
