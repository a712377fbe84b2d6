"""The benchmark in perfbench/ runs against the library's current API.

The workloads are imported as they are, so a renamed or moved function the
benchmark calls fails here rather than in a benchmark run.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", ["solve", "payoff"])
def test_workload_runs_one_checked_op(name, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    tracer = importlib.import_module("tracer").Tracer(enabled=False)
    workload = workloads.WORKLOADS[name](seed=1, corpus="tuned", tracer=tracer)
    workload.setup()
    inp = workload.prepare(0, workload.order(0)[0])
    assert workload.check(inp, workload.op(inp)) is None
