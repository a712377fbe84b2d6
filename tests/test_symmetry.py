"""Exact symmetries of the formalism, checked on every layer at once.

*Affine payoffs.*  Every outcome state has trace 1, so ``R_j -> a R_j + b I``
(a > 0) maps payoffs, best-response values and dual bounds to ``a v + b``
and scales gaps by ``a``; a clear verdict (a gap of 0, or one far above its
limit) stays the same.

*Local unitaries.*  With W = U (x) V, mapping rho -> W rho W^dag and
R_j -> W R_j W^dag, and conjugating player I's Kraus operators by U and
player II's by V, leaves every payoff, best-response value and verdict
unchanged.

*Player swap.*  Swapping the tensor factors of rho and of both payoff
operators, and then the two operators, swaps every result; this checks
``response_problem``'s player-II transpose against the player-I path.

Each relation is pinned at 1e-10 of the scale: max(1, max|R|) for a payoff,
max(1, |H|) for a solver result.
"""

import json

import numpy as np
import pytest

from qgame import cli, files
from qgame.equilibrium import best_response, verify_nash
from qgame.game import (
    build_game,
    payoff_contract,
    payoff_tensor_matrix_unit,
    response_problem,
    state_payoff,
)
from qgame.quantum import apply_product_channel, kraus_to_chi, validate_kraus
from qgame.random_ops import random_complex, random_density, random_hermitian, random_kraus_channel

AFFINE = [(1e-6, 3.0), (1e4, -2.0), (1e9, 5e8)]
RTOL = 1e-10
EPSILON = 1e-5
PLAYERS = ("I", "II")


def _profiles():
    """(game, strategy I, strategy II): random 2x2 to 3x3 games and the bundled game."""
    rng = np.random.default_rng(4)
    cases = []
    for n1, n2 in ((2, 2), (2, 3), (3, 2), (3, 3)):
        d = n1 * n2
        game = build_game(random_density(d, rng), random_hermitian(d, rng),
                          random_hermitian(d, rng), n1, n2)
        channels = random_kraus_channel(n1, rng), random_kraus_channel(n2, rng)
        cases.append((game, *(files.LoadedStrategy(kraus_to_chi(ch), ch) for ch in channels)))
    ewl = files.load_game("ewl.game")
    for pair in (("chi_star", "xi_star"), ("identity", "identity")):
        cases.append((ewl, *(files.load_strategy(f"{name}.strategy", 2) for name in pair)))
    return cases


def _affine(game, a, b):
    eye = np.eye(game.rho.dim)
    return build_game(game.rho, a * game.payoff_op_i + b * eye, a * game.payoff_op_ii + b * eye,
                      game.n1, game.n2)


def _swap_factors(m, n1, n2):
    return np.asarray(m).reshape(n1, n2, n1, n2).transpose(1, 0, 3, 2).reshape(n1 * n2, n1 * n2)


def _swapped(game):
    n1, n2 = game.n1, game.n2
    return build_game(_swap_factors(game.rho, n1, n2), _swap_factors(game.payoff_op_ii, n1, n2),
                      _swap_factors(game.payoff_op_i, n1, n2), n2, n1)


def _haar_unitary(n, rng):
    q, r = np.linalg.qr(random_complex(rng, (n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))  # the phases that make q Haar-distributed


def _conjugated(game, s, t, u, v):
    """The game seen through W = U (x) V, and each player's strategy conjugated by U or V."""
    w = np.kron(u, v)
    rotated = build_game(w @ game.rho.matrix @ w.conj().T, w @ game.payoff_op_i @ w.conj().T,
                         w @ game.payoff_op_ii @ w.conj().T, game.n1, game.n2)
    strategies = []
    for loaded, x in ((s, u), (t, v)):
        channel = validate_kraus(x @ loaded.channel.operators @ x.conj().T)
        strategies.append(files.LoadedStrategy(kraus_to_chi(channel), channel))
    return rotated, *strategies


def _payoff_scale(game):
    return max(1.0, *(float(np.max(np.abs(r))) for r in (game.payoff_op_i, game.payoff_op_ii)))


def _problems(game, chi, xi):
    return (response_problem(payoff_tensor_matrix_unit(game, "I"), xi, "I"),
            response_problem(payoff_tensor_matrix_unit(game, "II"), chi, "II"))


def _norm_scale(problem):
    return max(1.0, float(np.linalg.norm(problem, 2)))


def _clear_verdicts(report, problems):
    """Per player: True for a gap of 0, False for one above 10x its limit, None otherwise."""
    verdicts = []
    for gap, problem in zip((report.gap_i, report.gap_ii), problems):
        scale = _norm_scale(problem)
        verdicts.append(True if abs(gap) <= RTOL * scale
                        else False if gap > 10 * EPSILON * scale else None)
    return verdicts


@pytest.fixture(scope="module")
def profiles():
    return _profiles()


@pytest.mark.parametrize("a, b", AFFINE, ids=["1e-6", "1e4", "1e9"])
def test_affine_payoffs_map_every_payoff(a, b, profiles):
    for game, s, t in profiles:
        scaled = _affine(game, a, b)
        tol = RTOL * _payoff_scale(scaled)
        chi, xi = s.chi, t.chi
        pi = apply_product_channel(s.channel, t.channel, game.rho)
        for player in PLAYERS:
            v = payoff_contract(payoff_tensor_matrix_unit(game, player), chi, xi)
            w = payoff_contract(payoff_tensor_matrix_unit(scaled, player), chi, xi)
            assert abs(w - (a * v + b)) <= tol
            assert abs(state_payoff(scaled, pi, player) - (a * v + b)) <= tol


@pytest.mark.parametrize("a, b", AFFINE, ids=["1e-6", "1e4", "1e9"])
def test_affine_payoffs_map_best_responses_and_verdicts(a, b, profiles):
    for game, s, t in profiles:
        chi, xi = s.chi, t.chi
        scaled = _affine(game, a, b)
        problems, scaled_problems = _problems(game, chi, xi), _problems(scaled, chi, xi)
        for problem, scaled_problem in zip(problems, scaled_problems):
            tol = RTOL * _norm_scale(scaled_problem)
            br, scaled_br = best_response(problem), best_response(scaled_problem)
            assert abs(scaled_br.value - (a * br.value + b)) <= tol
            assert abs(scaled_br.dual_bound - (a * br.dual_bound + b)) <= tol
            assert abs(scaled_br.gap - a * br.gap) <= tol
        report = verify_nash(game, chi, xi, EPSILON)
        scaled_report = verify_nash(scaled, chi, xi, EPSILON)
        for v, w, problem in ((report.payoff_i, scaled_report.payoff_i, scaled_problems[0]),
                              (report.payoff_ii, scaled_report.payoff_ii, scaled_problems[1])):
            assert abs(w - (a * v + b)) <= RTOL * _norm_scale(problem)
        for g, h, problem in ((report.gap_i, scaled_report.gap_i, scaled_problems[0]),
                              (report.gap_ii, scaled_report.gap_ii, scaled_problems[1])):
            assert abs(h - a * g) <= RTOL * _norm_scale(problem)
        before = _clear_verdicts(report, problems)
        after = _clear_verdicts(scaled_report, scaled_problems)
        if None not in before + after:
            assert before == after
            assert report.is_equilibrium == scaled_report.is_equilibrium == all(before)


def test_player_swap_swaps_every_result(profiles):
    for game, s, t in profiles:
        chi, xi = s.chi, t.chi
        swapped = _swapped(game)
        tol = RTOL * _payoff_scale(game)
        pi = apply_product_channel(s.channel, t.channel, game.rho)
        pi_swapped = apply_product_channel(t.channel, s.channel, swapped.rho)
        for player, other in zip(PLAYERS, PLAYERS[::-1]):
            v = payoff_contract(payoff_tensor_matrix_unit(game, player), chi, xi)
            w = payoff_contract(payoff_tensor_matrix_unit(swapped, other), xi, chi)
            assert abs(w - v) <= tol
            assert abs(state_payoff(swapped, pi_swapped, other) - v) <= tol
            assert abs(state_payoff(game, pi, player) - v) <= tol
        problems, swapped_problems = _problems(game, chi, xi), _problems(swapped, xi, chi)
        for problem, swapped_problem in zip(problems, swapped_problems[::-1]):
            tol = RTOL * _norm_scale(problem)
            br, swapped_br = best_response(problem), best_response(swapped_problem)
            assert abs(swapped_br.value - br.value) <= tol
            assert abs(swapped_br.dual_bound - br.dual_bound) <= tol
        report = verify_nash(game, chi, xi, EPSILON)
        swapped_report = verify_nash(swapped, xi, chi, EPSILON)
        assert swapped_report.is_equilibrium == report.is_equilibrium
        for v, w, problem in ((report.gap_i, swapped_report.gap_ii, problems[0]),
                              (report.gap_ii, swapped_report.gap_i, problems[1]),
                              (report.payoff_i, swapped_report.payoff_ii, problems[0]),
                              (report.payoff_ii, swapped_report.payoff_i, problems[1])):
            assert abs(w - v) <= RTOL * _norm_scale(problem)


def test_local_unitaries_leave_every_result_unchanged(profiles):
    rng = np.random.default_rng(12)
    for game, s, t in profiles:
        if (game.n1, game.n2) not in ((2, 2), (2, 3), (3, 2)):
            continue
        rotated, s_rot, t_rot = _conjugated(game, s, t, _haar_unitary(game.n1, rng),
                                            _haar_unitary(game.n2, rng))
        tol = RTOL * _payoff_scale(game)
        pi = apply_product_channel(s_rot.channel, t_rot.channel, rotated.rho)
        for player in PLAYERS:
            v = payoff_contract(payoff_tensor_matrix_unit(game, player), s.chi, t.chi)
            w = payoff_contract(payoff_tensor_matrix_unit(rotated, player), s_rot.chi, t_rot.chi)
            assert abs(w - v) <= tol
            assert abs(state_payoff(rotated, pi, player) - v) <= tol
        problems = _problems(game, s.chi, t.chi)
        rotated_problems = _problems(rotated, s_rot.chi, t_rot.chi)
        for problem, rotated_problem in zip(problems, rotated_problems):
            tol = RTOL * _norm_scale(problem)
            br, rotated_br = best_response(problem), best_response(rotated_problem)
            assert abs(rotated_br.value - br.value) <= tol
            assert abs(rotated_br.dual_bound - br.dual_bound) <= tol
        report = verify_nash(game, s.chi, t.chi, EPSILON)
        rotated_report = verify_nash(rotated, s_rot.chi, t_rot.chi, EPSILON)
        assert rotated_report.is_equilibrium == report.is_equilibrium
        assert _clear_verdicts(rotated_report, rotated_problems) == _clear_verdicts(report, problems)
        for v, w, problem in ((report.gap_i, rotated_report.gap_i, problems[0]),
                              (report.gap_ii, rotated_report.gap_ii, problems[1]),
                              (report.payoff_i, rotated_report.payoff_i, problems[0]),
                              (report.payoff_ii, rotated_report.payoff_ii, problems[1])):
            assert abs(w - v) <= RTOL * _norm_scale(problem)


@pytest.mark.parametrize("a, b", AFFINE, ids=["1e-6", "1e4", "1e9"])
def test_cli_on_affine_copies_of_the_bundled_game(a, b, tmp_path, capsys):
    # the payoff command cross-checks chi* and xi* through their Kraus forms
    scaled = _affine(files.load_game("ewl.game"), a, b)
    path = tmp_path / "scaled.game"
    path.write_text(files.emit_document(files.game_to_payload(scaled)))
    pair = (str(path), "chi_star.strategy", "xi_star.strategy")
    assert cli.main(["payoff", *pair, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    for label in PLAYERS:
        assert abs(doc[f"payoff_{label}"] - (2.5 * a + b)) <= RTOL * _payoff_scale(scaled)
    assert cli.main(["verify-nash", *pair, "--epsilon", str(EPSILON), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["is_equilibrium"] is True
