#!/usr/bin/env python3
"""Fingerprint the best-response solver's answers, to show a change keeps them bit for bit.

Solves four groups of problems and prints, per group, the number of problems,
the total iterations and one SHA-256 over each solve's ``value``,
``dual_bound``, ``gap``, ``chi_opt`` bytes, ``iterations`` and ``converged``:

* ``tuned`` and ``held-out``: the 40 problems of each ``solve`` corpus of the
  benchmark, built by ``perfbench/workloads.py`` of this checkout;
* ``stress``: random responders at n = 2..5 against an opponent at m = 2, as
  player I and as player II, with the response matrix scaled by 1e-6, 1, 1e4
  and 1e9;
* ``bundled``: both players of the bundled game against each of its reference
  strategies.

Two commits that print the same lines gave the same answers on these problems.
Run it from a checkout as ``PYTHONPATH=src python3 scripts/solver_fingerprint.py``.
"""

import hashlib
import importlib
import struct
import sys
from pathlib import Path

import numpy as np

from qgame.cli import survive_closed_pipe
from qgame.equilibrium import best_response
from qgame.game import build_game, payoff_tensor_matrix_unit, response_problem
from qgame.games_builtin import ewl_prisoners_dilemma
from qgame.random_ops import random_chi, random_density, random_hermitian

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
STRESS_SCALES = (1e-6, 1.0, 1e4, 1e9)


def _perfbench_module(name: str):
    """A module of ``perfbench/``, imported by path as the benchmark's tests do."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    return importlib.import_module(name)


def corpus_problems(corpus: str) -> list[np.ndarray]:
    workloads = _perfbench_module("workloads")
    tracer = _perfbench_module("tracer").Tracer(enabled=False)
    workload = workloads.WORKLOADS["solve"](seed=0, corpus=corpus, tracer=tracer)
    workload.setup()
    problems = []
    for slot in range(workload.slots):
        inp = workload.prepare(0, slot)
        problems.append(response_problem(inp.tensor, inp.opponent, inp.responder))
    return problems


def stress_problems() -> list[np.ndarray]:
    problems = []
    for n in range(2, 6):
        for k, (player, n1, n2) in enumerate((("I", n, 2), ("II", 2, n))):
            rng = np.random.default_rng([n, k])
            d = n1 * n2
            game = build_game(random_density(d, rng), random_hermitian(d, rng),
                              random_hermitian(d, rng), n1, n2)
            g = response_problem(payoff_tensor_matrix_unit(game, player), random_chi(2, rng),
                                 player)
            problems += [scale * g for scale in STRESS_SCALES]
    return problems


def bundled_problems() -> list[np.ndarray]:
    bundled = ewl_prisoners_dilemma()
    return [response_problem(payoff_tensor_matrix_unit(bundled.game, player), opponent, player)
            for player in ("I", "II") for _, opponent in bundled.reference_strategies]


def fingerprint(problems: list[np.ndarray]) -> tuple[str, int]:
    """The SHA-256 of every solve's answer, and the total iterations."""
    digest = hashlib.sha256()
    iterations = 0
    for g in problems:
        result = best_response(g)
        digest.update(struct.pack("<3dq?", result.value, result.dual_bound, result.gap,
                                  result.iterations, result.converged))
        digest.update(np.ascontiguousarray(result.chi_opt.matrix).tobytes())
        iterations += result.iterations
    return digest.hexdigest(), iterations


def main():
    groups = (("tuned", lambda: corpus_problems("tuned")),
              ("held-out", lambda: corpus_problems("held-out")),
              ("stress", stress_problems),
              ("bundled", bundled_problems))
    for name, build in groups:
        problems = build()
        digest, iterations = fingerprint(problems)
        print(f"{name:<8}  problems {len(problems):>3}  iterations {iterations:>4}  "
              f"sha256 {digest}")


if __name__ == "__main__":
    survive_closed_pipe(main)
