"""Benchmark of the railhandover package: three workloads, end-to-end and per-layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload compare-2k --seed 12345 --seconds 35 --trace 0

With `--trace 0` the run measures operations, tracing off, for about
`--seconds` seconds (at least one) and reports the end-to-end metrics.
With `--trace 1` it runs exactly one untraced and one traced operation
(after one more that fills the caches, for a workload that keeps them)
and reports the per-layer metrics, counted per operation. The last line
of standard output is one JSON object; the lines before it, and the
JSON file written under `perfbench/out/`, carry provenance, digests and
the figures that are not metrics (sample counts, medians, extremes, error rate).
See perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Probe, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 12345
SETUP_PROBES = 3          # fresh processes timing set-up, besides this one
OUT_DIR = Path("perfbench") / "out"

# Counts measured on the seed commit at seed 12345, printed beside a
# traced run's own counts as a self-test of the tracer.
SEED_COMMIT_COUNTS = {
    "compare-2k": {"statfun.integrate.calls": 11381,
                   "montecarlo.estimate_pointwise.calls": 16},
    "compare-250m": {"statfun.integrate.calls": 492,
                     "montecarlo.estimate_pointwise.calls": 16},
    "validate-20k": {"statfun.integrate.calls": 2351,
                     "montecarlo.estimate_pointwise.calls": 12},
    "protocol-25": {"protocol.transition.calls": 7625},
}


def _pointwise_normals(args, kwargs, result):
    # Computed, not counted: trials x positions x links, where a cell under
    # RAU selection with max-RSS has one link per RAU and every other cell one.
    sc, grid, trials = args[:3]
    per_cell = sc.n_raus if (sc.scheme.name in ("PROPOSED", "DAS_SINGLE")
                             and sc.selection.name == "MAX_RSS") else 1
    return {"normals": trials * len(grid.positions) * len(sc.antennas()) * 2 * per_cell}


def _first_crossing_normals(args, kwargs, result):
    _, grid, trials = args[:3]
    return {"normals": trials * len(grid.positions) * 2}


def _written_bytes(args, kwargs, result):
    return {"bytes_written": os.path.getsize(args[1])}


PROBES = [
    Probe("statfun", "integrate", "statfun.integrate",
          count=lambda a, k, r: {"integrate_evals": r.evaluations}),
    Probe("channel", "distribution_mean", "channel.distribution_mean"),
    Probe("channel", "rss_distribution", "channel.rss_distribution"),
    *[Probe("analytics", f, f"analytics.{f}") for f in
      ("mean_rss", "trigger_curve", "occurrence_prob", "failure_prob", "interruption_prob")],
    Probe("montecarlo", "estimate_pointwise", "montecarlo.estimate_pointwise",
          count=_pointwise_normals),
    Probe("montecarlo", "estimate_first_crossing", "montecarlo.estimate_first_crossing",
          count=_first_crossing_normals),
    Probe("montecarlo", "estimate_protocol", "montecarlo.estimate_protocol"),
    Probe("protocol", "run_crossing", "protocol.run_crossing"),
    Probe("protocol", "transition", "protocol.transition"),
    Probe("figures", "FigureRunner.table", "figures.table",
          label=lambda a, k: a[1].value),
    Probe("figures", "ResultTable.write", "figures.ResultTable.write", count=_written_bytes),
    Probe("figures", "evaluate_assertions", "figures.evaluate_assertions"),
    Probe("cli", "main", "cli.main"),
]
FIGURES = ("rss", "trigger", "occurrence", "failure", "interruption")


def _import_package():
    import railhandover
    import railhandover.cli  # noqa: F401  (not imported by the package itself)
    return railhandover


def _setup(workload, seed: int):
    """Import the package (numpy and scipy included) and build the inputs.

    Returns the package, the inputs and the set-up time.
    """
    start = perf_counter()
    rh = _import_package()
    inp = workload.inputs(rh, seed, OUT_DIR)
    return rh, inp, perf_counter() - start


def _setup_probe(workload_name: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", workload_name,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _clear_caches() -> None:
    # Users pay for these on every CLI invocation, so CLI operations start cold.
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("railhandover"):
            continue
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


class Op(NamedTuple):
    wall_s: float
    digest: str | None
    problems: list[str]


def _operation(rh, workload, inp) -> Op:
    """Run and check one operation; only the run is timed."""
    workload.reset(inp)
    if workload.cold:
        _clear_caches()
    gc.collect()
    result = error = None
    start = perf_counter()
    try:
        result = workload.run(rh, inp)
    except Exception:  # an operation that raises fails; the run goes on
        error = "raised:\n" + traceback.format_exc()
    wall = perf_counter() - start
    if error is None:
        try:
            return Op(wall, *workload.check(inp, result))
        except Exception:  # output the check cannot even read fails the operation
            error = "check raised:\n" + traceback.format_exc()
    return Op(wall, None, [error])


def _provenance(rh, workload, inp, args) -> dict:
    import numpy
    import scipy

    src = Path(rh.__file__).parent
    tree = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        tree.update(f"{path.relative_to(src)}\0".encode() + path.read_bytes())
    return {
        "git_sha": _git_sha(), "src_sha256": tree.hexdigest(),
        "nproc": os.cpu_count(), "machine": platform.machine(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "package": rh.__version__,
        "workload": workload.name, "seed": args.seed, "trials": workload.trials,
        "jobs": workload.jobs, "schemes": list(inp.schemes),
        "positions": len(inp.positions), "config_fingerprint": inp.fingerprint,
        "seconds": args.seconds, "trace": args.trace,
    }


def _git_sha() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git repository.

    The ceiling keeps git from taking up a repository that encloses the checkout.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(Path.cwd().parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, env=env, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _check_digests(workload, prov: dict, digests: list, problems: list) -> None:
    """Add a problem to every operation whose digest differs from the one
    recorded for this workload, seed and source tree; the first run of such
    a triple records the most common digest of its operations."""
    store = OUT_DIR / "digests.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    key = f"{workload.name}|seed={prov['seed']}|src={prov['src_sha256']}"
    done = [d for d in digests if d is not None]
    if key not in known and done:
        known[key] = statistics.mode(done)
        store.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    for digest, found in zip(digests, problems):
        if digest is not None and digest != known[key]:
            found.append(f"digest {digest} differs from {known[key]}")


def _timed_run(rh, workload, inp, args, prov: dict, setup_s: float) -> tuple[dict, dict]:
    setup_samples = [setup_s] + [_setup_probe(workload.name, args.seed)
                                 for _ in range(SETUP_PROBES)]
    ops = []
    start = perf_counter()
    while True:
        ops.append(_operation(rh, workload, inp))
        # start another operation only if it should end within the budget
        if perf_counter() - start + max(op.wall_s for op in ops) > args.seconds:
            break
    digests, problems = [op.digest for op in ops], [op.problems for op in ops]
    walls = [op.wall_s for op in ops]
    _check_digests(workload, prov, digests, problems)
    failed = sum(1 for found in problems if found)
    # The 90th percentile, not the median: the host runs this vCPU at full
    # speed or about 45% slower, in stretches of about 0.1 s, and the share
    # of full-speed time drifts from none to over half. The median of short
    # operations jumps between the two states as that share crosses one
    # half; the 90th percentile stays in the slower one (README.md, "Noise").
    wall_p90_s = sorted(walls)[math.ceil(0.9 * len(walls)) - 1]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_p90_s": (wall_p90_s, "s"),
        "throughput": (workload.work_per_op(inp) / wall_p90_s, "trials/s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    details = {
        "attempted": len(walls), "failed": failed, "error_rate": failed / len(walls),
        "wall_s_samples": walls, "wall_s_min": min(walls),
        "wall_s_median": statistics.median(walls),
        "wall_s_high": _high_percentile(walls), "wall_s_max": max(walls),
        "setup_s_samples": setup_samples,
        "throughput_item": workload.unit, "work_per_op": workload.work_per_op(inp),
        "digests": digests, "problems": problems,
    }
    return metrics, details


def _high_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it."""
    n = len(samples)
    pct = next((p for p in range(99, 49, -1) if n - 1 - n * p // 100 >= 10), None)
    return None if pct is None else (pct, sorted(samples)[n * pct // 100])


def _traced_run(rh, workload, inp, args, prov: dict) -> tuple[dict, dict]:
    # A workload that keeps its caches first fills them, so that the two
    # compared operations both find them full, as its timed operations do.
    ops = [] if workload.cold else [_operation(rh, workload, inp)]
    plain = _operation(rh, workload, inp)
    tracer = Tracer()
    tracer.install("railhandover", PROBES)
    try:
        traced = _operation(rh, workload, inp)
    finally:
        tracer.uninstall()
    ops += [plain, traced]
    digests, problems = [op.digest for op in ops], [op.problems for op in ops]
    _check_digests(workload, prov, digests, problems)
    per, counters = tracer.summary()
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.npz"
    tracer.write(str(spans_path))
    metrics = _layer_metrics(per, counters, inp, overhead=traced.wall_s - plain.wall_s,
                             spans=tracer.span_count())
    failed = sum(1 for found in problems if found)
    details = {
        "attempted": len(ops), "failed": failed, "error_rate": failed / len(ops),
        "untraced_wall_s": plain.wall_s, "traced_wall_s": traced.wall_s,
        "digests": digests, "problems": problems,
        "missing_probes": tracer.missing, "probe_errors": sorted(tracer.errors),
        "spans_file": str(spans_path),
        "spans": {name: per[name] for name in sorted(per)},
        "seed_commit_counts": SEED_COMMIT_COUNTS[workload.name],
    }
    return metrics, details


def _layer_metrics(per, counters, inp, overhead: float, spans: int) -> dict:
    def span(name, key):
        return per.get(name, {}).get(key, 0)

    sampling_s = (span("montecarlo.estimate_pointwise", "s")
                  + span("montecarlo.estimate_first_crossing", "s"))
    m = {
        "statfun.integrate.calls": (span("statfun.integrate", "calls"), "count"),
        "statfun.integrate.evals": (counters["integrate_evals"], "count"),
        "statfun.integrate.self_s": (span("statfun.integrate", "self_s"), "s"),
        "channel.distribution_mean.calls": (span("channel.distribution_mean", "calls"),
                                            "count"),
        "channel.distribution_mean.self_s": (span("channel.distribution_mean", "self_s"),
                                             "s"),
        "channel.rss_distribution.calls": (span("channel.rss_distribution", "calls"),
                                           "count"),
    }
    for f in ("mean_rss", "trigger_curve", "occurrence_prob", "failure_prob",
              "interruption_prob"):
        m[f"analytics.{f}.s"] = (span(f"analytics.{f}", "s"), "s")
        m[f"analytics.{f}.calls"] = (span(f"analytics.{f}", "calls"), "count")
    pointwise_calls = span("montecarlo.estimate_pointwise", "calls")
    m.update({
        "montecarlo.estimate_pointwise.calls": (pointwise_calls, "count"),
        "montecarlo.estimate_pointwise.self_s": (
            span("montecarlo.estimate_pointwise", "self_s"), "s"),
        "montecarlo.sweeps_per_scheme": (pointwise_calls / len(inp.schemes), "ratio"),
        "montecarlo.normals_drawn": (counters["normals"], "count"),
        "montecarlo.normals_per_s": (counters["normals"] / sampling_s if sampling_s else 0.0,
                                     "1/s"),
        "montecarlo.estimate_first_crossing.s": (
            span("montecarlo.estimate_first_crossing", "s"), "s"),
        "montecarlo.estimate_protocol.s": (span("montecarlo.estimate_protocol", "s"), "s"),
        "protocol.run_crossing.calls": (span("protocol.run_crossing", "calls"), "count"),
        "protocol.run_crossing.self_s": (span("protocol.run_crossing", "self_s"), "s"),
        "protocol.transition.calls": (span("protocol.transition", "calls"), "count"),
        "protocol.transition.s": (span("protocol.transition", "s"), "s"),
    })
    for fig in FIGURES:
        m[f"figures.table.{fig}.s"] = (span(f"figures.table.{fig}", "s"), "s")
    m.update({
        "figures.ResultTable.write.s": (span("figures.ResultTable.write", "s"), "s"),
        "figures.bytes_written": (counters["bytes_written"], "B"),
        "figures.evaluate_assertions.s": (span("figures.evaluate_assertions", "s"), "s"),
        "cli.main.self_s": (span("cli.main", "self_s"), "s"),
        "trace.overhead_s": (overhead, "s"),
        "trace.spans": (spans, "count"),
    })
    return m


def _report(metrics: dict, details: dict, prov: dict, workload) -> dict:
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for name, (value, unit) in metrics.items():
        shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"{workload.name:>13}  {name:<40} {shown} {unit}")
    if "wall_s_samples" in details:
        high = details["wall_s_high"]
        high = f", p{high[0]} {high[1]:.4f} s" if high else ""
        print(f"{workload.name:>13}  wall_s over {details['attempted']} operations: "
              f"fastest {details['wall_s_min']:.4f} s, median {details['wall_s_median']:.4f} s, "
              f"p90 {metrics['wall_p90_s'][0]:.4f} s{high}, max {details['wall_s_max']:.4f} s; "
              f"throughput item = one {details['throughput_item']}")
    else:
        print(f"{workload.name:>13}  traced wall {details['traced_wall_s']:.4f} s, "
              f"untraced wall {details['untraced_wall_s']:.4f} s")
        for name, seed_value in details["seed_commit_counts"].items():
            print(f"{workload.name:>13}  {name} = {metrics[name][0]} "
                  f"(seed commit, seed 12345: {seed_value})")
        if details["missing_probes"]:
            print(f"{workload.name:>13}  not found, read as 0: "
                  + ", ".join(details["missing_probes"]))
        if details["probe_errors"]:
            print(f"{workload.name:>13}  arguments or result not as expected, counts "
                  "incomplete: " + ", ".join(details["probe_errors"]))
    print(f"{workload.name:>13}  error_rate {details['error_rate']:.6g} "
          f"({details['failed']} of {details['attempted']} operations failed)")
    for i, digest in enumerate(details["digests"]):
        print(f"{workload.name:>13}  operation {i} digest {digest}")
    for i, found in enumerate(details["problems"]):
        for text in found:
            print(f"operation {i}: {text}", file=sys.stderr)
    record = {"provenance": prov, "details": details,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    path = OUT_DIR / f"{workload.name}-seed{prov['seed']}-trace{prov['trace']}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return {"correct": details["failed"] == 0, "attempted": details["attempted"],
            "failed": details["failed"], "metrics": record["metrics"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time set-up and print the seconds")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    src = Path("src").resolve()
    if not (src / "railhandover" / "__init__.py").is_file():
        print("perfbench: run from the root of a railhandover source checkout "
              "(src/railhandover not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    rh, inp, setup_s = _setup(workload, args.seed)
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    if Path(rh.__file__).resolve().parent != src / "railhandover":
        print(f"perfbench: imported {rh.__file__}, not the checkout's source",
              file=sys.stderr)
        return 2
    prov = _provenance(rh, workload, inp, args)
    if args.trace:
        metrics, details = _traced_run(rh, workload, inp, args, prov)
    else:
        metrics, details = _timed_run(rh, workload, inp, args, prov, setup_s)
    print(json.dumps(_report(metrics, details, prov, workload)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
