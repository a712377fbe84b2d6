"""Command-line interface.

Subcommands::

    qgame validate GAME [--json]
    qgame tensor GAME PLAYER [--check-fixture] [--exact-fractions] [--json]
    qgame payoff GAME STRATEGY_I STRATEGY_II [--json]
    qgame best-response GAME OPPONENT PLAYER [--tol T] [--json]
    qgame verify-nash GAME STRATEGY_I STRATEGY_II [--epsilon E] [--json]
    qgame simulate GAME POVM STRATEGY_I STRATEGY_II [--rounds N] [--seed S] [--json]
    qgame classical GAME [--json]

Input arguments resolve against the filesystem first; a bare file name (no
directory part) that is not there then resolves against the bundled data
files, so ``qgame payoff ewl.game chi_star.strategy xi_star.strategy`` works
from any directory.

Every command computes one payload and renders it once: as JSON with
``--json``, otherwise as text.

Exit codes are a stable contract: 0 success, 1 validation failure (including
a negative verify-nash verdict), 2 parse/usage error, 3 internal cross-check
failure, 4 non-convergence or an undecided verify-nash verdict.
``QGAME_TOL``, a finite number >= 0, overrides the limits that README's
tolerance table (the ledger in :mod:`qgame.linalg`) marks as overridable.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

import numpy as np

from . import files, linalg
from .errors import (
    CrossCheckFailure,
    NoConvergence,
    ParseError,
    QGameError,
    ValidationError,
)
from .equilibrium import best_response, verify_nash
from .game import (
    classical_reduction,
    normalize_player,
    payoff_contract,
    payoff_tensor_matrix_unit,
    response_problem,
    simulate_play,
    state_payoff,
)
from .games_builtin import figure1_reference_tensors
from .linalg import CROSS_CHECK_ATOL, NASH_EPSILON, SOLVE_TOL
from .quantum import apply_product_channel, kraus_form_loss, kraus_to_chi

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARSE = 2
EXIT_CROSSCHECK = 3
EXIT_NO_CONVERGENCE = 4


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _as_fraction(x: float):
    """A finite float's exact value as a fraction, if its denominator is at most 64."""
    if not np.isfinite(x):
        return None
    from fractions import Fraction  # kept out of start-up: only --exact-fractions needs it
    frac = Fraction(x)
    return frac if frac.denominator <= 64 else None


def _fraction_str(frac, unit: str) -> str:
    if frac.denominator == 1:
        return f"{frac.numerator}{unit}"
    return f"{frac.numerator}{unit}/{frac.denominator}"


def format_complex(z: complex, exact: bool = False) -> str:
    """Render a complex scalar; with ``exact``, as fractions if both parts are n/d, d <= 64."""
    re, im = float(np.real(z)), float(np.imag(z))
    text = "{:.12g}{}".format
    fractions = (_as_fraction(re), _as_fraction(im)) if exact else (None,)
    if None not in fractions:
        (re, im), text = fractions, _fraction_str
    if im == 0:
        return text(re, "")
    if re == 0:
        return text(im, "i")
    return f"{text(re, '')}{'+' if im > 0 else '-'}{text(abs(im), 'i')}"


def print_cells(cells: list[list[str]]) -> None:
    """Print a grid of text cells, right-aligned to one width, two spaces apart."""
    width = max(len(c) for row in cells for c in row)
    for row in cells:
        print("  ".join(c.rjust(width) for c in row))


def print_matrix(m: np.ndarray, exact: bool = False) -> None:
    """Print a matrix as a grid of :func:`format_complex` cells."""
    print_cells([[format_complex(z, exact) for z in row] for row in m])


# ---------------------------------------------------------------------------
# commands: each returns its exit code and one payload, which _run renders
# as JSON or through the command's text_* function
# ---------------------------------------------------------------------------

def cmd_validate(args) -> tuple[int, dict]:
    checks = files.game_file_checks(args.game, args.tol)
    # a residual can be infinite (payoff_length_check), which JSON cannot carry
    rows = [{"name": check.name, "passed": check.passed,
             "residual": float(check.residual) if np.isfinite(check.residual) else None,
             "limit": check.limit, "detail": check.detail} for check in checks]
    return EXIT_OK if all(check.passed for check in checks) else EXIT_VALIDATION, {"checks": rows}


def text_validate(payload, args) -> None:
    width = max(len(row["name"]) for row in payload["checks"])
    for row in payload["checks"]:
        print(f"{row['name'].ljust(width)}  {'PASS' if row['passed'] else 'FAIL'}  {row['detail']}")


def cmd_tensor(args) -> tuple[int, dict]:
    game = files.load_game(args.game, args.tol)
    player = normalize_player(args.player)
    tensor = payoff_tensor_matrix_unit(game, player)
    if not args.check_fixture:
        return EXIT_OK, {"player": player, "n1": game.n1, "n2": game.n2, "grid": tensor.grid}

    entries = tensor.entries
    reference = figure1_reference_tensors()[0 if player == "I" else 1]
    if reference.shape != entries.shape:
        raise ValidationError(
            f"fixture tensor is {reference.shape}, computed tensor is {entries.shape}"
        )
    # an entry matches only when it equals the fixture's, so a NaN never does
    bad = map(tuple, np.argwhere(entries != reference))
    mismatches = [{"label": label, "computed": entries[label], "fixture": reference[label]}
                  for label in bad]
    payload = {"matched": entries.size - len(mismatches), "entries": entries.size,
               "mismatches": mismatches}
    return EXIT_VALIDATION if mismatches else EXIT_OK, payload


def text_tensor(payload, args) -> None:
    if args.check_fixture:
        print(f"match: {payload['matched']}/{payload['entries']} entries")
        for row in payload["mismatches"]:
            alpha, beta, gamma, delta = row["label"]
            print(
                f"  mismatch at (alpha={alpha}, beta={beta}, gamma={gamma}, delta={delta}): "
                f"computed {format_complex(row['computed'])}, fixture {format_complex(row['fixture'])}"
            )
        return
    grid = payload["grid"]
    print(f"payoff tensor, player {payload['player']} ({grid.shape[0]}x{grid.shape[1]} grid)")
    print_matrix(grid, exact=args.exact_fractions)


def _load_pair(args, game):
    strat_i = files.load_strategy(args.strategy_i, game.n1, args.tol)
    strat_ii = files.load_strategy(args.strategy_ii, game.n2, args.tol)
    return strat_i, strat_ii


def cmd_payoff(args) -> tuple[int, dict]:
    game = files.load_game(args.game, args.tol)
    strat_i, strat_ii = _load_pair(args, game)
    tensor_i = payoff_tensor_matrix_unit(game, "I")
    tensor_ii = payoff_tensor_matrix_unit(game, "II")
    value_i = payoff_contract(tensor_i, strat_i.chi, strat_ii.chi)
    value_ii = payoff_contract(tensor_ii, strat_i.chi, strat_ii.chi)

    pi = apply_product_channel(strat_i.channel, strat_ii.channel, game.rho, args.tol)
    worst = max(abs(state_payoff(game, pi, "I") - value_i),
                abs(state_payoff(game, pi, "II") - value_ii))
    # both payoffs carry rounding of order eps * max|R|; what a Kraus form drops from
    # chi, up to kraus_form_loss, moves a payoff by |R| times its trace norm
    ops = (game.payoff_op_i, game.payoff_op_ii)
    dropped = sum(min(np.linalg.norm(s.chi.matrix - kraus_to_chi(s.channel).matrix, "nuc"),
                      kraus_form_loss(s.chi.n, args.tol)) for s in (strat_i, strat_ii))
    limit = CROSS_CHECK_ATOL * max(1.0, *(float(np.max(np.abs(r))) for r in ops))
    if dropped > 0:  # so that an overflowing |R| times a zero loss cannot make the limit NaN
        limit += max(np.linalg.norm(r, 2) for r in ops) * dropped
    linalg.require([linalg.Check("contraction against direct evaluation", worst, limit,
                                 CrossCheckFailure, f"the two payoffs disagree by {worst:.3e}")])
    return EXIT_OK, {"payoff_I": value_i, "payoff_II": value_ii}


def text_payoff(payload, args) -> None:
    print(f"payoff I  = {format_complex(payload['payoff_I'])}")
    print(f"payoff II = {format_complex(payload['payoff_II'])}")


def cmd_best_response(args) -> tuple[int, dict]:
    game = files.load_game(args.game, args.tol)
    player = normalize_player(args.player)
    opponent_dim = game.n2 if player == "I" else game.n1
    opponent = files.load_strategy(args.opponent, opponent_dim, args.tol)
    tensor = payoff_tensor_matrix_unit(game, player)
    problem = response_problem(tensor, opponent.chi, player)
    result = best_response(problem, tol=args.br_tol)
    payload = {
        "player": player,
        "value": result.value,
        "dual_bound": result.dual_bound,
        "gap": result.gap,
        "iterations": result.iterations,
        "converged": result.converged,
        "chi": result.chi_opt.matrix,
    }
    # an unconverged result is still rendered, as a partial answer
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE, payload


def text_best_response(payload, args) -> None:
    print(f"best response value = {format_complex(payload['value'])}")
    print(f"dual bound          = {format_complex(payload['dual_bound'])}")
    print(f"duality gap         = {payload['gap']:.3e}")
    print(f"iterations          = {payload['iterations']}")
    print(f"converged           = {payload['converged']}")
    print("optimal chi:")
    print_matrix(payload["chi"])


def cmd_verify_nash(args) -> tuple[int, dict]:
    game = files.load_game(args.game, args.tol)
    strat_i, strat_ii = _load_pair(args, game)
    report = verify_nash(game, strat_i.chi, strat_ii.chi, args.epsilon)
    payload = {
        "is_equilibrium": report.is_equilibrium,
        "epsilon": args.epsilon,
        "gap_I": report.gap_i,
        "gap_II": report.gap_ii,
        "payoff_I": report.payoff_i,
        "payoff_II": report.payoff_ii,
    }
    return EXIT_OK if report.is_equilibrium else EXIT_VALIDATION, payload


def text_verify_nash(payload, args) -> None:
    verdict = "EQUILIBRIUM" if payload["is_equilibrium"] else "NOT EQUILIBRIUM"
    print(f"{verdict} (gaps {payload['gap_I']:.1e}, {payload['gap_II']:.1e})")
    print(f"payoffs: ({format_complex(payload['payoff_I'])}, {format_complex(payload['payoff_II'])})")


def cmd_simulate(args) -> tuple[int, dict]:
    game = files.load_game(args.game, args.tol)
    povm, payoffs_i, payoffs_ii = files.load_povm_file(args.povm, game.rho.dim, args.tol)
    strat_i, strat_ii = _load_pair(args, game)

    seed = args.seed
    if seed is None:
        seed = int(np.random.SeedSequence().entropy) & 0xFFFFFFFFFFFFFFFF
    rng = np.random.default_rng(seed)
    result = simulate_play(game, povm, payoffs_i, payoffs_ii, strat_i.channel, strat_ii.channel,
                           args.rounds, rng, args.tol)
    payload = {"seed": seed, "rounds": result.rounds}
    for label, mean, stderr, exact in (
        ("I", result.mean_i, result.stderr_i, result.exact_i),
        ("II", result.mean_ii, result.stderr_ii, result.exact_ii),
    ):
        payload.update({f"mean_{label}": mean, f"stderr_{label}": stderr, f"exact_{label}": exact,
                        f"z_{label}": (mean - exact) / stderr if stderr > 0 else 0.0})
    return EXIT_OK, payload


def text_simulate(payload, args) -> None:
    print(f"seed: {payload['seed']}")
    print(f"rounds: {payload['rounds']}")
    for label in ("I", "II"):
        print(f"player {label:<2} empirical {payload['mean_' + label]:.6f}  "
              f"stderr {payload['stderr_' + label]:.6f}  "
              f"exact {format_complex(payload['exact_' + label])}  z {payload['z_' + label]:+.3f}")


def cmd_classical(args) -> tuple[int, dict]:
    bimatrix = classical_reduction(files.load_game(args.game, args.tol))
    return EXIT_OK, {"payoff_I": bimatrix.payoff_i, "payoff_II": bimatrix.payoff_ii}


def text_classical(payload, args) -> None:
    print_cells([[f"({format_complex(a)}, {format_complex(b)})" for a, b in zip(row_i, row_ii)]
                 for row_i, row_ii in zip(payload["payoff_I"], payload["payoff_II"])])


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _bounded(kind: type, low, high, description: str):
    """An argparse type: ``kind(text)`` in ``[low, high)`` (never a NaN), else a usage error."""

    def parse(text: str):
        try:
            return linalg.require_in("value", kind(text), kind, low, high, description)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be {description}, got {text!r}") from None

    return parse


_positive_int = _bounded(int, 1, np.inf, "a positive integer")
_rounds = _bounded(int, 1, 2 ** 63, "a positive integer below 2^63")
_seed = _bounded(int, 0, 2 ** 64, "an integer in [0, 2^64 - 1]")
_tolerance = _bounded(float, 0.0, np.inf, "a finite number >= 0")


class ArgumentParser(argparse.ArgumentParser):
    """Reads "-1e-3" as a value, not as an option, as argparse does from Python 3.13.

    ``add_subparsers`` makes every subparser of this class too; the scripts
    in ``scripts/`` parse their arguments with it.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = ArgumentParser(
        prog="qgame",
        description="Static two-player quantum games: validation, payoff tensors, "
                    "best responses, Nash verification and Monte Carlo play.",
        epilog="Set QGAME_TOL to override the default validation tolerances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a game file against all validity conditions")
    p.add_argument("game")
    p.set_defaults(func=cmd_validate, text=text_validate)

    p = sub.add_parser("tensor", help="print a player's payoff tensor grid")
    p.add_argument("game")
    p.add_argument("player", choices=["I", "II", "i", "ii", "1", "2"])
    p.add_argument("--check-fixture", action="store_true",
                   help="compare against the bundled reference grids")
    p.add_argument("--exact-fractions", action="store_true",
                   help="print entries that are exactly n/d, d <= 64, as n/d; others, such "
                        "as the float nearest 1/3, print as decimals")
    p.set_defaults(func=cmd_tensor, text=text_tensor)

    p = sub.add_parser("payoff", help="expected payoffs for a strategy pair")
    p.add_argument("game")
    p.add_argument("strategy_i", metavar="strategy-I")
    p.add_argument("strategy_ii", metavar="strategy-II")
    p.set_defaults(func=cmd_payoff, text=text_payoff)

    p = sub.add_parser("best-response", help="certified best response against a fixed opponent")
    p.add_argument("game")
    p.add_argument("opponent", help="the opponent's strategy file")
    p.add_argument("player", choices=["I", "II", "i", "ii", "1", "2"],
                   help="the responding player")
    p.add_argument("--tol", dest="br_tol", type=_tolerance, default=SOLVE_TOL,
                   help="gap to certify, relative to max(1, |H|), |H| the response's norm; "
                        "the solver stops at a hundredth of it")
    p.set_defaults(func=cmd_best_response, text=text_best_response)

    p = sub.add_parser("verify-nash", help="epsilon-Nash check for a strategy profile")
    p.add_argument("game")
    p.add_argument("strategy_i", metavar="strategy-I")
    p.add_argument("strategy_ii", metavar="strategy-II")
    p.add_argument("--epsilon", type=_tolerance, default=NASH_EPSILON,
                   help="certified gain a deviation may offer, relative to max(1, |H|) as --tol")
    p.set_defaults(func=cmd_verify_nash, text=text_verify_nash)

    p = sub.add_parser("simulate", help="Monte Carlo play through the referee's measurement")
    p.add_argument("game")
    p.add_argument("povm")
    p.add_argument("strategy_i", metavar="strategy-I")
    p.add_argument("strategy_ii", metavar="strategy-II")
    p.add_argument("--rounds", type=_rounds, default=100000)
    p.add_argument("--seed", type=_seed, default=None,
                   help="64-bit seed for the single deterministic generator; "
                        "chosen and printed when unspecified")
    p.set_defaults(func=cmd_simulate, text=text_simulate)

    p = sub.add_parser("classical", help="n1 x n2 bimatrix game of the cyclic shift powers")
    p.add_argument("game")
    p.set_defaults(func=cmd_classical, text=text_classical)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


def _env_tol() -> float | None:
    raw = os.environ.get("QGAME_TOL")
    if raw is None:
        return None
    try:
        return _tolerance(raw)
    except argparse.ArgumentTypeError as exc:
        raise ParseError(f"QGAME_TOL {exc}") from None


# exit code and stderr label of each failure, most specific class first
_FAILURES = (
    (ParseError, EXIT_PARSE, "parse error"),
    (ValidationError, EXIT_VALIDATION, "validation error"),
    (CrossCheckFailure, EXIT_CROSSCHECK, "internal cross-check failure"),
    (NoConvergence, EXIT_NO_CONVERGENCE, "no convergence"),
    (QGameError, EXIT_VALIDATION, "error"),
)


def _run(args) -> int:
    """Run a command and render its payload once, as JSON or as the command's text."""
    try:
        args.tol = _env_tol()
        code, payload = args.func(args)
    except QGameError as exc:
        code, label = next((code, label) for cls, code, label in _FAILURES if isinstance(exc, cls))
        print(f"{label}: {exc}", file=sys.stderr)
        partial = getattr(exc, "partial", None)
        if partial is not None:
            print(f"partial gaps: {partial.gap_i:.3e}, {partial.gap_ii:.3e}", file=sys.stderr)
        return code
    if args.json:
        sys.stdout.write(files.emit_document(payload))
    else:
        args.text(payload, args)
    return code


def survive_closed_pipe(func, *args):
    """``func(*args)``, then flush stdout; return what ``func`` returned, or None.

    A reader that closes the pipe early (e.g. ``| head``) ends the output
    quietly: the rest of it goes to /dev/null, so the flush at exit cannot
    fail too.  The scripts in ``scripts/`` run their ``main`` through this.
    """
    result = None
    try:
        result = func(*args)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return result


def main(argv=None) -> int:
    code = survive_closed_pipe(_run, build_parser().parse_args(argv))
    return EXIT_OK if code is None else code


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
