"""One operation of each benchmark workload, run in process and checked.

The benchmark (`BENCHMARK.json`, run by `perfbench/run.py`) reads the
package through `perfbench/workloads.py`: `RunConfig.step` and
`fingerprint`, `PositionGrid.over`, `montecarlo.estimate_protocol` and
its `ProtocolStats` fields, and `cli.main`'s exit 1 on a failed rule.
These tests run each declared workload's `inputs`, `reset` and `run`
once and require its own `check` to report no problem, so a change to
that API fails here and not only in a benchmark run.
"""

import json
import sys
import types
from pathlib import Path

import pytest

import railhandover
import railhandover.cli  # noqa: F401  (perfbench calls rh.cli.main)

ROOT = Path(__file__).resolve().parent.parent


def _workloads():
    # stdlib only, compiled here so that no bytecode is written beside it;
    # registered first, as dataclass looks its module up
    path = ROOT / "perfbench" / "workloads.py"
    module = sys.modules["perfbench_workloads"] = types.ModuleType("perfbench_workloads")
    exec(compile(path.read_text(), path, "exec"), vars(module))
    return module.WORKLOADS


WORKLOADS = _workloads()
DECLARED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", DECLARED)
def test_benchmark_workload_runs_and_checks_clean(name, tmp_path):
    workload = WORKLOADS[name]
    inp = workload.inputs(railhandover, 12345, tmp_path)
    workload.reset(inp)
    _, problems = workload.check(inp, workload.run(railhandover, inp))
    assert problems == []
