"""The three benchmark workloads and the output check of every op.

A workload owns a fixed number of op slots per round; ``order`` gives the
order a round runs them in, ``prepare`` builds a slot's inputs outside the
timed region, ``op`` is the timed call into qgame, and ``check`` validates
the op's output, also outside the timed region.
Calls into a qgame layer are wrapped in tracer spans named
``<module>.<function>``.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qgame import (
    build_game,
    best_response,
    ewl_prisoners_dilemma,
    kraus_to_chi,
    payoff_contract,
    payoff_direct,
    payoff_tensor_matrix_unit,
    response_problem,
    response_value,
    simulate_play,
    unitary_oracle,
)
from qgame import cli as qgame_cli
from qgame import files
from qgame.random_ops import random_chi, random_density, random_hermitian, random_kraus_channel

# the CLI's defaults for best-response, and its cross-check tolerance
SOLVE_TOL = 1e-7
SOLVE_MAX_ITERS = 5000
CROSS_CHECK_ATOL = qgame_cli.CROSS_CHECK_ATOL
# the solver-vs-oracle and weak-duality margins of the acceptance suite
ORACLE_MARGIN = 1e-8
DUALITY_MARGIN = 1e-8
RANGE_SLACK = 1e-9

# the checkout whose src/ holds the qgame under test
ROOT = Path(__file__).resolve().parent.parent

# corpus seeds of the solve workload: "tuned" is the one benchmarks are run
# and changes are developed on; "held-out" re-checks a claim on problems no
# change was tuned against
CORPUS_SEEDS = {"tuned": 0, "held-out": 1}


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(list(key))


def _random_game(n1: int, n2: int, rng: np.random.Generator):
    d = n1 * n2
    return build_game(random_density(d, rng), random_hermitian(d, rng),
                      random_hermitian(d, rng), n1, n2)


# ---------------------------------------------------------------------------
# solve: certified best responses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolveInput:
    game: object
    responder: str
    opponent: object
    tensor: object = None


class Solve:
    """One op is ``response_problem`` then ``best_response`` at the CLI defaults.

    The problems are a fixed corpus drawn from ``qgame.random_ops``, because
    the solver's cost varies about tenfold between random problems: a run of
    40 fresh problems per seed would spread its median by about a quarter
    from seed to seed.  ``--seed`` sets the order the corpus is solved in.
    """

    name = "solve"
    slots = 40
    dims = ((2, 2), (2, 2), (2, 3), (3, 2))

    def __init__(self, seed: int, corpus: str, tracer):
        self.seed = seed
        self.corpus_seed = CORPUS_SEEDS[corpus]
        self.tr = tracer

    def setup(self) -> None:
        with self.tr.span("games_builtin.ewl_prisoners_dilemma"):
            ewl = ewl_prisoners_dilemma()
        self.problems = []
        random_count = 0
        for slot in range(self.slots):
            rng = _rng(self.corpus_seed, slot)
            if slot % 8 == 7:
                # one problem in 8: the bundled game against a random opponent
                game = ewl.game
                responder = ("I", "II")[(slot // 8) % 2]
            else:
                n1, n2 = self.dims[random_count % len(self.dims)]
                random_count += 1
                game = _random_game(n1, n2, rng)
                responder = "I" if slot % 2 == 0 else "II"
            opponent = random_chi(game.n2 if responder == "I" else game.n1, rng)
            self.problems.append(SolveInput(game, responder, opponent))
        # warm-up: the bundled equilibrium, the same for every seed
        xi_star = dict(ewl.reference_strategies)["xi_star"]
        self.op(self._with_tensor(SolveInput(ewl.game, "I", xi_star)))

    def order(self, round_no: int) -> list[int]:
        return [int(i) for i in _rng(self.seed, round_no).permutation(self.slots)]

    def prepare(self, round_no: int, slot: int) -> SolveInput:
        return self._with_tensor(self.problems[slot])

    def _with_tensor(self, problem: SolveInput) -> SolveInput:
        with self.tr.span("game.payoff_tensor_matrix_unit"):
            tensor = payoff_tensor_matrix_unit(problem.game, problem.responder)
        return SolveInput(problem.game, problem.responder, problem.opponent, tensor)

    def op(self, inp: SolveInput):
        with self.tr.span("equilibrium.response_problem"):
            problem = response_problem(inp.tensor, inp.opponent, inp.responder)
        with self.tr.span("equilibrium.best_response"):
            return best_response(problem, max_iters=SOLVE_MAX_ITERS, tol=SOLVE_TOL)

    def check(self, inp: SolveInput, result) -> str | None:
        if not result.converged:
            return f"not converged after {result.iterations} iterations (gap {result.gap:.3e})"
        if result.gap > SOLVE_TOL:
            return f"gap {result.gap:.3e} > tol {SOLVE_TOL:.1e}"
        if result.value > result.dual_bound + DUALITY_MARGIN:
            return f"value {result.value!r} exceeds dual bound {result.dual_bound!r}"
        n = inp.game.n1 if inp.responder == "I" else inp.game.n2
        if n == 2:
            oracle, _ = unitary_oracle(inp.tensor, inp.opponent, inp.responder)
            if result.value < oracle - ORACLE_MARGIN:
                return f"value {result.value!r} below the unitary oracle {oracle!r}"
        return None

    def counters(self, inp: SolveInput, result) -> dict:
        return {
            "equilibrium.best_response.iterations": result.iterations,
            "equilibrium.best_response.converged": int(result.converged),
        }

    def probe(self) -> dict:
        return {}


# ---------------------------------------------------------------------------
# payoff: evaluating a strategy profile as `qgame payoff` does
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PayoffInput:
    game: object
    channel_i: object
    channel_ii: object
    ranges: tuple


class Payoff:
    """One op evaluates a profile on a fresh random game, n = 4..6.

    The cost of an op is set by its dimensions and Kraus ranks, which cycle
    over 12 classes; every round holds each class four times and every op
    draws a new game, so no game is ever reused.
    """

    name = "payoff"
    slots = 48
    dims = ((4, 4), (4, 5), (5, 5), (6, 6))

    def __init__(self, seed: int, corpus: str, tracer):
        self.seed = seed
        self.tr = tracer

    @staticmethod
    def rank(n: int, position: int) -> int:
        return (1, n, n * n if n == 4 else 2)[position % 3]

    def _inputs(self, rng: np.random.Generator, slot: int) -> PayoffInput:
        n1, n2 = self.dims[slot % len(self.dims)]
        position = slot // len(self.dims)
        game = _random_game(n1, n2, rng)
        channel_i = random_kraus_channel(n1, rng, self.rank(n1, position))
        channel_ii = random_kraus_channel(n2, rng, self.rank(n2, position))
        ranges = tuple(
            (float(w[0]), float(w[-1]))
            for w in (np.linalg.eigvalsh(game.payoff_op_i), np.linalg.eigvalsh(game.payoff_op_ii))
        )
        return PayoffInput(game, channel_i, channel_ii, ranges)

    def setup(self) -> None:
        # stream 0 is the warm-up's; rounds draw from streams 1, 2, ...
        warm = self._inputs(_rng(self.seed, 0, 3), 3)
        self.op(warm)

    def order(self, round_no: int) -> list[int]:
        return [int(i) for i in _rng(self.seed, round_no).permutation(self.slots)]

    def prepare(self, round_no: int, slot: int) -> PayoffInput:
        return self._inputs(_rng(self.seed, round_no + 1, slot), slot)

    def op(self, inp: PayoffInput) -> dict:
        tr = self.tr
        with tr.span("quantum.kraus_to_chi"):
            chi = kraus_to_chi(inp.channel_i)
        with tr.span("quantum.kraus_to_chi"):
            xi = kraus_to_chi(inp.channel_ii)
        out = {"chi": chi, "xi": xi}
        for player in ("I", "II"):
            with tr.span("game.payoff_tensor_matrix_unit"):
                out["tensor", player] = payoff_tensor_matrix_unit(inp.game, player)
        for player in ("I", "II"):
            with tr.span("game.payoff_contract"):
                out["contract", player] = payoff_contract(out["tensor", player], chi, xi)
        for player in ("I", "II"):
            with tr.span("game.payoff_direct"):
                out["direct", player] = payoff_direct(inp.game, inp.channel_i, inp.channel_ii, player)
        with tr.span("equilibrium.response_problem"):
            out["response", "I"] = response_problem(out["tensor", "I"], xi, "I")
        with tr.span("equilibrium.response_problem"):
            out["response", "II"] = response_problem(out["tensor", "II"], chi, "II")
        return out

    def check(self, inp: PayoffInput, out: dict) -> str | None:
        own = {"I": out["chi"], "II": out["xi"]}
        for player, (lo, hi) in zip(("I", "II"), inp.ranges):
            value = out["contract", player]
            diff = abs(value - out["direct", player])
            if diff > CROSS_CHECK_ATOL:
                return f"player {player}: contraction and direct payoff differ by {diff:.3e}"
            if not lo - RANGE_SLACK <= value <= hi + RANGE_SLACK:
                return f"player {player}: payoff {value!r} outside [{lo!r}, {hi!r}]"
            diff = abs(response_value(out["response", player], own[player]) - value)
            if diff > CROSS_CHECK_ATOL:
                return f"player {player}: response value and payoff differ by {diff:.3e}"
        return None

    def counters(self, inp: PayoffInput, out: dict) -> dict:
        return {
            "game.tensor_bytes": sum(out["tensor", p].entries.nbytes for p in ("I", "II")),
            "quantum.joint_kraus_ops": 2 * inp.channel_i.n_operators * inp.channel_ii.n_operators,
        }

    def probe(self) -> dict:
        return {}


# ---------------------------------------------------------------------------
# cli: the README commands, each in a fresh interpreter
# ---------------------------------------------------------------------------

def _payoff_lines(first: str, second: str):
    return lambda out: out.splitlines() == [f"payoff I  = {first}", f"payoff II = {second}"]


def _check_validate(out: str) -> bool:
    lines = out.splitlines()
    return len(lines) == 6 and all(re.search(r"\sPASS\s", ln) for ln in lines)


def _check_exact_grid(out: str) -> bool:
    lines = out.splitlines()
    if lines[:1] != ["payoff tensor, player I (16x16 grid)"] or len(lines) != 17:
        return False
    cells = [ln.split() for ln in lines[1:]]
    # every entry of the bundled game's tensor is a small rational
    return all(len(row) == 16 and not any("." in c or "e" in c for c in row) for row in cells)


def _check_classical(out: str) -> bool:
    rows = [re.findall(r"\(([^)]*)\)", ln) for ln in out.splitlines()]
    return rows == [["3, 3", "0, 5"], ["5, 0", "1, 1"]]


def _check_best_response(out: str) -> bool:
    fields = dict(ln.split(" = ", 1) for ln in out.splitlines() if " = " in ln)
    fields = {k.strip(): v.strip() for k, v in fields.items()}
    return (fields.get("converged") == "True"
            and float(fields["best response value"]) <= float(fields["dual bound"]) + DUALITY_MARGIN)


def _verdict(verdict: str, payoffs: str):
    def check(out: str) -> bool:
        lines = out.splitlines()
        return (len(lines) == 2 and lines[0].startswith(verdict + " (gaps ")
                and lines[1] == f"payoffs: {payoffs}")
    return check


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple
    exit_code: int
    check: object


COMMANDS = (
    Command("validate", ("validate", "ewl.game"), 0, _check_validate),
    Command("tensor-check-fixture", ("tensor", "ewl.game", "I", "--check-fixture"), 0,
            lambda out: out.strip() == "match: 256/256 entries"),
    Command("tensor-exact-fractions", ("tensor", "ewl.game", "I", "--exact-fractions"), 0,
            _check_exact_grid),
    Command("payoff-equilibrium", ("payoff", "ewl.game", "chi_star.strategy", "xi_star.strategy"),
            0, _payoff_lines("2.5", "2.5")),
    Command("payoff-bitflip", ("payoff", "ewl.game", "bitflip.strategy", "identity.strategy"),
            0, _payoff_lines("5", "0")),
    Command("classical", ("classical", "ewl.game"), 0, _check_classical),
    Command("best-response", ("best-response", "ewl.game", "xi_star.strategy", "I", "--tol", "1e-7"),
            0, _check_best_response),
    Command("verify-nash-equilibrium",
            ("verify-nash", "ewl.game", "chi_star.strategy", "xi_star.strategy", "--epsilon", "1e-5"),
            0, _verdict("EQUILIBRIUM", "(2.5, 2.5)")),
    Command("verify-nash-identity",
            ("verify-nash", "ewl.game", "identity.strategy", "identity.strategy", "--epsilon", "1e-5"),
            1, _verdict("NOT EQUILIBRIUM", "(3, 3)")),
    Command("simulate",
            ("simulate", "ewl.game", "ewl.povm", "identity.strategy", "identity.strategy",
             "--rounds", "100000", "--seed", "42"),
            0, None),  # checked against the library's own draw, see Cli.setup
)

SIMULATE_SEED = 42
SIMULATE_ROUNDS = 100000


def python_child(args, timeout: float = 120.0) -> subprocess.CompletedProcess:
    """Run ``python args...`` with qgame's sources on the path, from the checkout root."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=timeout, check=False)


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1000.0 * float(np.median(times))


class Cli:
    """One op runs one README command as ``python -m qgame`` in a child process.

    Inputs are the bundled data files, so every round runs each of the ten
    commands four times; ``--seed`` sets the order.
    """

    name = "cli"
    slots = 4 * len(COMMANDS)

    def __init__(self, seed: int, corpus: str, tracer):
        self.seed = seed
        self.tr = tracer

    def setup(self) -> None:
        game = files.load_game("ewl.game")
        povm, payoffs_i, payoffs_ii = files.load_povm_file("ewl.povm", game.rho.dim)
        channel = files.load_strategy("identity.strategy", game.n1).channel
        result = simulate_play(game, povm, payoffs_i, payoffs_ii, channel, channel,
                               SIMULATE_ROUNDS, np.random.default_rng(SIMULATE_SEED))
        self.simulate_means = (f"{result.mean_i:.6f}", f"{result.mean_ii:.6f}")
        # the first command of a checkout also writes the bytecode cache
        self.op(COMMANDS[0])

    def order(self, round_no: int) -> list[int]:
        return [int(i) for i in _rng(self.seed, round_no).permutation(self.slots)]

    def prepare(self, round_no: int, slot: int) -> Command:
        return COMMANDS[slot % len(COMMANDS)]

    def op(self, command: Command) -> subprocess.CompletedProcess:
        with self.tr.span(f"cli.{command.label}"):
            return python_child(["-m", "qgame", *command.argv])

    def _check_simulate(self, out: str) -> bool:
        means = re.findall(r"empirical (\S+)", out)
        return out.startswith(f"seed: {SIMULATE_SEED}\nrounds: {SIMULATE_ROUNDS}\n") \
            and tuple(means) == self.simulate_means

    def check(self, command: Command, proc) -> str | None:
        if proc.returncode != command.exit_code:
            return (f"{command.label}: exit {proc.returncode}, expected {command.exit_code}; "
                    f"stderr: {proc.stderr.strip()[-200:]}")
        check = command.check or self._check_simulate
        try:
            ok = check(proc.stdout)
        except (KeyError, ValueError):
            ok = False
        return None if ok else f"{command.label}: unexpected output {proc.stdout[:200]!r}"

    def counters(self, command: Command, proc) -> dict:
        return {}

    def probe(self, repeats: int = 3) -> dict:
        """Per-layer timings that the subprocess ops cannot show.

        Interpreter start, ``import numpy`` and ``import qgame`` in fresh
        interpreters; each command through ``qgame.cli.main`` in this process
        with its output captured; and the file loaders on the bundled inputs.
        """
        metrics = {}
        for label, code in (("python", "pass"), ("numpy", "import numpy"), ("qgame", "import qgame")):
            metrics[f"cli.startup.{label}_ms"] = _median_ms(
                lambda: python_child(["-c", code]), repeats)
        sink = io.StringIO()

        def in_process(argv):
            sink.seek(0)
            sink.truncate()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                qgame_cli.main(list(argv))

        for command in COMMANDS:
            metrics[f"cli.{command.label}.inproc_ms"] = _median_ms(
                lambda: in_process(command.argv), repeats)
        loads = (
            ("files.load_game", lambda: files.load_game("ewl.game")),
            ("files.load_strategy", lambda: files.load_strategy("chi_star.strategy", 2)),
            ("files.load_povm_file", lambda: files.load_povm_file("ewl.povm", 4)),
        )
        for name, load in loads:
            for _ in range(5 * repeats):
                with self.tr.span(name):
                    load()
        return metrics


WORKLOADS = {"solve": Solve, "payoff": Payoff, "cli": Cli}
