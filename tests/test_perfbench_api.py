"""The benchmark in perfbench/ runs against the library's current API.

The workloads are imported as they are, so a renamed or moved function the
benchmark calls fails here rather than in a benchmark run.
"""

import importlib
import subprocess
from pathlib import Path

import pytest

from qgame import cli, files

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workload(name, monkeypatch, corpus="tuned"):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    tracer = importlib.import_module("tracer").Tracer(enabled=False)
    workload = workloads.WORKLOADS[name](seed=1, corpus=corpus, tracer=tracer)
    workload.setup()
    return workloads, workload


@pytest.mark.parametrize("name", ["solve", "payoff"])
def test_workload_runs_one_checked_op(name, monkeypatch):
    _, workload = _workload(name, monkeypatch)
    inp = workload.prepare(0, workload.order(0)[0])
    assert workload.check(inp, workload.op(inp)) is None


def test_cli_workload_checks_pass_in_process(monkeypatch, capsys):
    # every README command the cli workload runs, through qgame.cli.main
    # instead of a child interpreter, judged by the workload's own check
    workloads, workload = _workload("cli", monkeypatch)
    failures = []
    for command in workloads.COMMANDS:
        capsys.readouterr()
        code = cli.main(list(command.argv))
        out, err = capsys.readouterr()
        proc = subprocess.CompletedProcess(["qgame", *command.argv], code, out, err)
        failures.append(workload.check(command, proc))
    assert failures == [None] * len(workloads.COMMANDS)


def test_cli_workload_commands_render_json(monkeypatch, capsys):
    # each command's JSON form exits as its text form does, and its output
    # round-trips through parse_document and emit_document
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for command in importlib.import_module("workloads").COMMANDS:
        text_code = cli.main(list(command.argv))
        capsys.readouterr()
        code = cli.main([*command.argv, "--json"])
        out = capsys.readouterr().out
        assert code == text_code, command.label
        assert files.emit_document(files.parse_document(out)) == out, command.label


@pytest.mark.parametrize("corpus", ["tuned", "held-out"])
def test_solve_corpus_passes_every_check(corpus, monkeypatch):
    # all 40 problems of a solve corpus: convergence, the gap, weak duality
    # and the unitary-oracle margin, as the benchmark checks them
    _, workload = _workload("solve", monkeypatch, corpus)
    failures = {}
    for slot in range(workload.slots):
        inp = workload.prepare(0, slot)
        failures[slot] = workload.check(inp, workload.op(inp))
    assert failures == dict.fromkeys(range(workload.slots))


@pytest.mark.parametrize("corpus, most", [("tuned", 272), ("held-out", 288)], ids=["tuned", "held-out"])
def test_solve_corpus_iterations_do_not_rise(corpus, most, monkeypatch):
    # a solver change may not raise the total iterations over a solve corpus
    _, workload = _workload("solve", monkeypatch, corpus)
    total = sum(workload.op(workload.prepare(0, slot)).iterations for slot in range(workload.slots))
    assert total <= most


def test_payoff_round_passes_every_check(monkeypatch):
    # all 48 slots of a round cover every dims x Kraus-rank class of the payoff
    # workload, so an index slip in a kernel fails here and not in a benchmark run
    _, workload = _workload("payoff", monkeypatch)
    failures = {}
    for slot in range(workload.slots):
        inp = workload.prepare(0, slot)
        failures[slot] = workload.check(inp, workload.op(inp))
    assert failures == dict.fromkeys(range(workload.slots))
