import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qgame import cli, files
from qgame.errors import DimensionMismatch, LengthMismatch, ParseError, ValidationError
from qgame.game import build_game, payoff_tensor_matrix_unit, response_problem
from qgame.games_builtin import ewl_referee_measurement
from qgame.linalg import Check, hermitian_part
from qgame.quantum import identity_chi
from qgame.random_ops import random_density, random_hermitian


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_bundled_game(capsys):
    code, out, _ = run(capsys, "validate", "ewl.game")
    assert code == 0
    assert out.count("PASS") >= 5
    assert "FAIL" not in out
    names = [line.split("  ")[0].strip() for line in out.splitlines()]
    assert names == ["rho trace-one", "rho hermitian", "rho positive", "dimensions",
                     "payoff operator I hermitian", "payoff operator II hermitian"]


def test_validate_bad_trace(tmp_path, capsys):
    doc = json.loads(files.resolve_input("ewl.game").read_text())
    doc["rho"][0][0] = [0.4, 0]  # trace 0.9
    bad = tmp_path / "bad.game"
    bad.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert "rho trace-one" in out and "FAIL" in out
    assert "1.000e-01" in out


def test_validate_malformed_text(tmp_path, capsys):
    bad = tmp_path / "broken.game"
    bad.write_text('{"n1": 2,\n  "n2": }')
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "line 2" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "validate", "definitely-not-there.game")
    assert code == 2
    assert "no such input file" in err


def test_only_bare_names_fall_back_to_bundled_files(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name in ("no/such/dir/ewl.game", "./ewl.game"):
        code, _, err = run(capsys, "validate", name)
        assert code == 2, name
        assert f"no such input file: {name}" in err
    code, out, err = run(capsys, "validate", "ewl.game")
    assert code == 0, err
    assert "FAIL" not in out


def _bundled(name):
    return json.loads(files.resolve_input(name).read_text())


def _povm_game(**changes):
    """The bundled game with its payoff operators given as the referee's measurement."""
    povm = _bundled("ewl.povm")
    block = {"elements": povm["elements"], "payoffs_I": povm["payoffs_I"],
             "payoffs_II": povm["payoffs_II"], **changes}
    rho = _bundled("ewl.game")["rho"]
    return {"format_version": 1, "n1": 2, "n2": 2, "rho": rho, "povm": block}


def _with_rho_entry(row, col, value):
    doc = _bundled("ewl.game")
    doc["rho"][row][col] = value
    return doc


def _with(key, value):
    doc = _bundled("ewl.game")
    doc[key] = value
    return doc


def _with_payoff_op_i(matrix):
    doc = _bundled("ewl.game")
    doc["payoff_ops"]["I"] = matrix
    return doc


UNIT_00 = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
UNIT_11 = [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]
IDENTITY_4 = [[[float(r == c), 0] for c in range(4)] for r in range(4)]

# game files that every command must accept or reject alike
GAME_FILES = {
    "bundled": lambda: _bundled("ewl.game"),
    "measurement": _povm_game,
    "payoff-op-2x2-in-4-dim-game": lambda: _with_payoff_op_i(
        [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]),
    "povm-2x2-rho-4x4": lambda: _povm_game(
        elements=[UNIT_00, UNIT_11], payoffs_I=[1, 2], payoffs_II=[2, 1]),
    "povm-mixed-sizes": lambda: _povm_game(
        elements=[UNIT_00, IDENTITY_4], payoffs_I=[1, 2], payoffs_II=[2, 1]),
    "nan-in-rho": lambda: _with_rho_entry(0, 0, [float("nan"), 0]),
    "infinity-in-rho": lambda: _with_rho_entry(1, 1, [float("inf"), 0]),
    "bad-trace": lambda: _with_rho_entry(0, 0, [0.4, 0]),
    "trace-off-by-3e-7": lambda: _with_rho_entry(0, 0, [0.5 + 3e-7, 0]),
    "non-hermitian-rho": lambda: _with_rho_entry(0, 3, [0, -0.4]),
    "non-positive-rho": lambda: _with("rho", [[[float(r == c) * d, 0] for c in range(4)]
                                              for r, d in enumerate((0.6, 0.6, -0.2, 0.0))]),
    "n1-n2-mismatch": lambda: _with("n1", 3),
    "payoff-vector-wrong-length": lambda: _povm_game(payoffs_I=[3, 1, 0]),
    "incomplete-povm": lambda: _povm_game(elements=_bundled("ewl.povm")["elements"][:3],
                                          payoffs_I=[3, 1, 0], payoffs_II=[3, 1, 5]),
}


@pytest.mark.parametrize("tol", [None, "1e-5"], ids=["default-tol", "qgame-tol-1e-5"])
@pytest.mark.parametrize("case", sorted(GAME_FILES))
def test_validate_agrees_with_loader(case, tol, tmp_path, capsys, monkeypatch):
    path = tmp_path / "case.game"
    path.write_text(json.dumps(GAME_FILES[case]()))  # NaN/Infinity as JSON literals
    if tol is not None:
        monkeypatch.setenv("QGAME_TOL", tol)
    try:
        files.load_game(path, None if tol is None else float(tol))
        loads = True
    except ValidationError:
        loads = False
    code, out, err = run(capsys, "validate", str(path))
    assert code == (0 if loads else 1), out + err
    assert "Traceback" not in err
    if code == 0:
        assert out and "FAIL" not in out
    else:
        assert "FAIL" in out or err.startswith("validation error: ")
    if case in ("nan-in-rho", "infinity-in-rho"):
        assert "non-finite" in err


@pytest.mark.parametrize("case", sorted(GAME_FILES))
def test_validate_json_matches_text_mode(case, tmp_path, capsys):
    path = tmp_path / "case.game"
    path.write_text(json.dumps(GAME_FILES[case]()))
    text_code, text_out, _ = run(capsys, "validate", str(path))
    code, out, err = run(capsys, "validate", str(path), "--json")
    assert code == text_code, out + err
    if not text_out:
        # raised before any check (non-finite entries, mixed sizes): no document
        assert out == "" and err.startswith("validation error: ")
        return
    doc = files.parse_document(out)
    assert files.emit_document(doc) == out
    lines = [line.split() for line in text_out.splitlines()]
    checks = doc["checks"]
    assert len(checks) == len(lines)
    for check, line in zip(checks, lines):
        assert set(check) == {"name", "passed", "residual", "limit", "detail"}
        assert line[:len(check["name"].split())] == check["name"].split()
        assert check["passed"] == ("PASS" in line)
        assert check["passed"] == (check["residual"] <= check["limit"])


def test_validate_json_infinite_residual_is_null(capsys, monkeypatch):
    # a payoff matrix where a vector belongs has an infinite length residual
    bad = Check("payoffs I length", np.inf, 0, LengthMismatch, "(2, 2) payoffs for 4 outcomes")
    monkeypatch.setattr(files, "game_file_checks", lambda path, tol: [bad])
    code, out, _ = run(capsys, "validate", "ewl.game", "--json")
    assert code == 1
    assert "Infinity" not in out
    check, = files.parse_document(out)["checks"]
    assert check["residual"] is None and check["passed"] is False


def test_validate_names_dimension_failure(tmp_path, capsys):
    path = tmp_path / "small.game"
    path.write_text(json.dumps(GAME_FILES["povm-2x2-rho-4x4"]()))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert "dimensions" in out and "payoff operators 2 and 2, n1*n2 = 4" in out


def test_unknown_format_version_is_parse_error(tmp_path, capsys):
    path = tmp_path / "future.game"
    path.write_text(json.dumps(_with("format_version", 99)))
    for command in (["validate", str(path)],
                    ["payoff", str(path), "identity.strategy", "identity.strategy"]):
        code, _, err = run(capsys, *command)
        assert code == 2
        assert "format_version 99" in err
    strategy = tmp_path / "future.strategy"
    strategy.write_text(json.dumps({"format_version": 2, "kind": "classical", "index": 0}))
    code, _, err = run(capsys, "payoff", "ewl.game", str(strategy), "identity.strategy")
    assert code == 2 and "format_version 2" in err
    # true is not the number 1, though Python's bool is an int
    path.write_text(json.dumps(_with("format_version", True)))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2 and "format_version True" in err
    # files without the field are read as the current version
    strategy.write_text(json.dumps({"kind": "classical", "index": 0}))
    code, _, _ = run(capsys, "payoff", "ewl.game", str(strategy), "identity.strategy")
    assert code == 0


# ---------------------------------------------------------------------------
# tensor
# ---------------------------------------------------------------------------

def test_tensor_check_fixture(capsys):
    code, out, _ = run(capsys, "tensor", "ewl.game", "I", "--check-fixture")
    assert code == 0
    assert "match: 256/256 entries" in out
    code, out, _ = run(capsys, "tensor", "ewl.game", "II", "--check-fixture")
    assert code == 0


def test_tensor_exact_fraction_rendering(capsys):
    code, out, _ = run(capsys, "tensor", "ewl.game", "II", "--exact-fractions")
    assert code == 0
    rows = out.splitlines()[1:]
    cells_row_11 = rows[11].split()
    assert cells_row_11[11] == "-1i"
    assert "5/4" in rows[0]


def test_tensor_json_round_trips(capsys):
    code, out, _ = run(capsys, "tensor", "ewl.game", "I", "--format", "json")
    assert code == 0
    doc = files.parse_document(out)
    assert files.emit_document(doc) == out
    grid = files.matrix_from_lists(doc["grid"], "grid")
    assert grid.shape == (16, 16)
    assert grid[0, 0] == 1.0 and grid[0, 10] == 1.25


def test_tensor_check_fixture_flags_other_games(tmp_path, capsys):
    doc = json.loads(files.resolve_input("ewl.game").read_text())
    doc["payoff_ops"]["I"][0][0] = [3, 0]
    other = tmp_path / "other.game"
    other.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "tensor", str(other), "I", "--check-fixture")
    assert code == 1
    assert "mismatch at (alpha=0" in out


# ---------------------------------------------------------------------------
# payoff
# ---------------------------------------------------------------------------

def test_payoff_classical_pair(capsys):
    code, out, _ = run(capsys, "payoff", "ewl.game", "identity.strategy", "identity.strategy")
    assert code == 0
    assert "payoff I  = 3" in out and "payoff II = 3" in out


def test_payoff_equilibrium_pair(capsys):
    code, out, _ = run(capsys, "payoff", "ewl.game", "chi_star.strategy", "xi_star.strategy")
    assert code == 0
    assert "payoff I  = 2.5" in out and "payoff II = 2.5" in out


def test_payoff_defect_cooperate(capsys):
    code, out, _ = run(capsys, "payoff", "ewl.game", "bitflip.strategy", "identity.strategy")
    assert code == 0
    assert "payoff I  = 5" in out and "payoff II = 0" in out


def test_payoff_json_round_trips(capsys):
    code, out, _ = run(capsys, "payoff", "ewl.game", "chi_star.strategy", "xi_star.strategy",
                       "--json")
    assert code == 0
    doc = files.parse_document(out)
    assert doc == {"payoff_I": 2.5, "payoff_II": 2.5}
    assert files.emit_document(doc) == out


def test_payoff_kraus_strategy_cross_check(tmp_path, capsys):
    strategy = {
        "format_version": 1,
        "kind": "kraus",
        "operators": [
            [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
            [[[0, 0], [1, 0]], [[0, 0], [0, 0]]],
        ],
    }
    path = tmp_path / "reset.strategy"
    path.write_text(json.dumps(strategy))
    code, out, _ = run(capsys, "payoff", "ewl.game", str(path), "xi_star.strategy")
    assert code == 0
    assert "payoff I  = 2.5" in out


def test_payoff_near_zero_at_large_scale(tmp_path, capsys):
    # payoff operators of order 1e9, shifted so that the identity pair pays
    # about 0: the payoff's rounding, of order eps * 1e9, is neither an
    # imaginary part to reject nor a cross-check failure
    rng = np.random.default_rng(0)
    rho = random_density(4, rng).matrix
    ops = [random_hermitian(4, rng, 1e9) for _ in range(2)]
    game = build_game(rho, *(r - np.trace(r @ rho).real * np.eye(4) for r in ops), 2, 2)
    path = tmp_path / "large.game"
    path.write_text(files.emit_document(files.game_to_payload(game)))
    assert run(capsys, "validate", str(path))[0] == 0
    code, out, err = run(capsys, "payoff", str(path), "identity.strategy", "identity.strategy",
                         "--json")
    assert code == 0, err
    assert all(abs(value) <= 1e-12 * 1e9 for value in files.parse_document(out).values())
    _, _, err = run(capsys, "verify-nash", str(path), "identity.strategy", "identity.strategy")
    assert "imaginary part" not in err


def test_payoff_cross_check_failure(tmp_path, capsys, monkeypatch):
    import qgame.cli as cli_module

    monkeypatch.setattr(cli_module, "state_payoff", lambda *a, **k: 0.0)
    code, _, err = run(capsys, "payoff", "ewl.game", "identity.strategy", "identity.strategy")
    assert code == 3
    assert "cross-check" in err


def test_payoff_forms_one_output_state(capsys, product_channel_calls):
    # both strategies carry Kraus sets, so the direct cross-check runs
    code, _, _ = run(capsys, "payoff", "ewl.game", "bitflip.strategy", "identity.strategy")
    assert code == 0
    assert len(product_channel_calls) == 1


def test_payoff_unitary_strategy(tmp_path, capsys):
    hadamard = 1 / np.sqrt(2)
    strategy = {
        "format_version": 1,
        "kind": "unitary",
        "matrix": [[[hadamard, 0], [hadamard, 0]], [[hadamard, 0], [-hadamard, 0]]],
    }
    path = tmp_path / "h.strategy"
    path.write_text(json.dumps(strategy))
    code, out, _ = run(capsys, "payoff", "ewl.game", str(path), "identity.strategy")
    assert code == 0


def test_strategy_validation_errors(tmp_path, capsys):
    not_unitary = {
        "format_version": 1,
        "kind": "unitary",
        "matrix": [[[2, 0], [0, 0]], [[0, 0], [1, 0]]],
    }
    path = tmp_path / "bad.strategy"
    path.write_text(json.dumps(not_unitary))
    code, _, err = run(capsys, "payoff", "ewl.game", str(path), "identity.strategy")
    assert code == 1

    out_of_range = {"format_version": 1, "kind": "classical", "index": 7}
    path.write_text(json.dumps(out_of_range))
    code, _, err = run(capsys, "payoff", "ewl.game", str(path), "identity.strategy")
    assert code == 1
    assert "out of range" in err

    unknown_kind = {"format_version": 1, "kind": "telepathy"}
    path.write_text(json.dumps(unknown_kind))
    code, _, err = run(capsys, "payoff", "ewl.game", str(path), "identity.strategy")
    assert code == 2


# ---------------------------------------------------------------------------
# best-response / verify-nash
# ---------------------------------------------------------------------------

def test_best_response_cli(capsys):
    code, out, _ = run(capsys, "best-response", "ewl.game", "xi_star.strategy", "I")
    assert code == 0
    assert "best response value = 2.5" in out
    assert "converged           = True" in out


def test_best_response_cli_vs_identity_json(capsys):
    code, out, _ = run(capsys, "best-response", "ewl.game", "identity.strategy", "I", "--json")
    assert code == 0
    doc = files.parse_document(out)
    assert doc["converged"] is True
    assert abs(doc["value"] - 5.0) <= 1e-6
    assert doc["gap"] <= 1e-6
    assert files.emit_document(doc) == out


def test_best_response_cli_starved_budget_exits_4(capsys):
    code, out, _ = run(capsys, "best-response", "ewl.game", "identity.strategy", "I",
                       "--tol", "1e-30", "--max-iters", "1")
    assert code == 4
    assert "converged           = False" in out  # partial output still printed


def _equilibrium_game_at_scale(seed, scale):
    # rho = |psi><psi| for a random psi, and each R = scale (|psi><psi| + A)
    # with A random on the complement of psi and |A| < 1: the identity pair
    # already reaches lambda_max(R) = scale, so it is an equilibrium
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    top = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    rest = np.eye(4) - top
    ops = []
    for _ in range(2):
        a = rest @ random_hermitian(4, rng) @ rest
        r = scale * (top + 0.5 * a / np.abs(np.linalg.eigvalsh(a)).max())
        ops.append(0.5 * (r + r.conj().T))
    return build_game(top, *ops, 2, 2)


@pytest.mark.parametrize("seed", range(3))
def test_solver_tolerance_is_relative_at_large_scale(seed, tmp_path, capsys):
    # payoffs of order 1e9: a gap of about 1e-12 relative is about 1e-3
    # absolute, which the default --tol of 1e-7 accepts because it is relative
    path = tmp_path / "large.game"
    path.write_text(files.emit_document(files.game_to_payload(_equilibrium_game_at_scale(seed, 1e9))))
    for player in ("I", "II"):
        code, out, err = run(capsys, "best-response", str(path), "identity.strategy", player,
                             "--json")
        assert code == 0, err
        doc = files.parse_document(out)
        assert doc["converged"] is True
        assert abs(doc["value"] - 1e9) <= 1e-7 * 1e9
    code, out, err = run(capsys, "verify-nash", str(path), "identity.strategy", "identity.strategy")
    assert code == 0, err
    assert out.startswith("EQUILIBRIUM")


def test_verify_nash_cli_equilibrium(capsys):
    code, out, _ = run(capsys, "verify-nash", "ewl.game", "chi_star.strategy",
                       "xi_star.strategy", "--epsilon", "1e-5")
    assert code == 0
    assert out.startswith("EQUILIBRIUM")


def test_verify_nash_exact_certificate_decides_epsilon_zero(capsys):
    # (5/4) I certifies each player's bound 5/2, the payoff, in floating point too
    code, out, _ = run(capsys, "verify-nash", "ewl.game", "chi_star.strategy",
                       "xi_star.strategy", "--epsilon", "0")
    assert code == 0
    assert out.startswith("EQUILIBRIUM (gaps 0.0e+00, 0.0e+00)")


def test_verify_nash_undecided_exits_4(tmp_path, capsys):
    # an exact equilibrium whose certificates close to about 1e-13: at
    # epsilon 0 the gaps are neither certified nor beaten by a response
    path = tmp_path / "equilibrium.game"
    path.write_text(files.emit_document(files.game_to_payload(_equilibrium_game_at_scale(0, 1.0))))
    code, out, err = run(capsys, "verify-nash", str(path), "identity.strategy",
                         "identity.strategy", "--epsilon", "0")
    assert code == 4 and out == ""
    assert err.startswith("no convergence: undecided") and "partial gaps: " in err
    code, out, _ = run(capsys, "verify-nash", str(path), "identity.strategy",
                       "identity.strategy", "--epsilon", "1e-9")
    assert code == 0 and out.startswith("EQUILIBRIUM")


def test_verify_nash_cli_rejects_classical_play(capsys):
    code, out, _ = run(capsys, "verify-nash", "ewl.game", "identity.strategy",
                       "identity.strategy", "--epsilon", "1e-3")
    assert code == 1
    assert out.startswith("NOT EQUILIBRIUM")
    assert "2.0e+00" in out


# degenerate and hostile games, as (rho, R_I, R_II, n1, n2) from a generator
ROBUSTNESS_GAMES = {
    "constant": lambda rng: (random_density(4, rng).matrix, 3 * np.eye(4), -2 * np.eye(4), 2, 2),
    "zero": lambda rng: (random_density(4, rng).matrix, np.zeros((4, 4)), np.zeros((4, 4)), 2, 2),
    "rank-1-rho": lambda rng: (_equilibrium_game_at_scale(1, 1.0).rho.matrix,
                               random_hermitian(4, rng), random_hermitian(4, rng), 2, 2),
    "2x3": lambda rng: (random_density(6, rng).matrix, random_hermitian(6, rng),
                        random_hermitian(6, rng), 2, 3),
    "qutrits": lambda rng: (random_density(9, rng).matrix, random_hermitian(9, rng),
                            random_hermitian(9, rng), 3, 3),
    "scale-1e6": lambda rng: (random_density(4, rng).matrix, random_hermitian(4, rng, 1e6),
                              random_hermitian(4, rng, 1e6), 2, 2),
}


def _response_scale(game, player):
    """max(1, |H|) of a player's response to the identity."""
    n_opponent = game.n2 if player == "I" else game.n1
    problem = response_problem(payoff_tensor_matrix_unit(game, player),
                               identity_chi(n_opponent), player)
    return max(1.0, float(np.linalg.norm(hermitian_part(problem.matrix), 2)))


@pytest.mark.parametrize("case", sorted(ROBUSTNESS_GAMES))
def test_robustness_matrix(case, tmp_path, capsys):
    # every command succeeds on each game, except classical for n1 != n2,
    # and no certified gap is below zero by more than rounding
    game = build_game(*ROBUSTNESS_GAMES[case](np.random.default_rng(17)))
    path = tmp_path / f"{case}.game"
    path.write_text(files.emit_document(files.game_to_payload(game)))
    pair = (str(path), "identity.strategy", "identity.strategy")
    for argv in (("validate", str(path)), ("payoff", *pair)):
        code, _, err = run(capsys, *argv)
        assert code == 0, err
    for player in ("I", "II"):
        code, out, err = run(capsys, "best-response", str(path), "identity.strategy", player,
                             "--json")
        assert code == 0, err
        assert files.parse_document(out)["gap"] >= -1e-8 * _response_scale(game, player)
    code, out, err = run(capsys, "verify-nash", *pair, "--epsilon", "1e-5", "--json")
    doc = files.parse_document(out)
    # only constant and zero payoffs leave the identity pair nothing to improve
    assert doc["is_equilibrium"] is (case in ("constant", "zero"))
    assert code == (0 if doc["is_equilibrium"] else 1), err
    assert doc["gap_I"] >= -1e-8 * _response_scale(game, "I")
    assert doc["gap_II"] >= -1e-8 * _response_scale(game, "II")
    code, _, err = run(capsys, "classical", str(path))
    assert code == (0 if game.n1 == game.n2 else 1), err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_deterministic_output(capsys):
    args = ("simulate", "ewl.game", "ewl.povm", "identity.strategy", "bitflip.strategy",
            "--rounds", "2000", "--seed", "42")
    code_a, out_a, _ = run(capsys, *args)
    code_b, out_b, _ = run(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    assert "seed: 42" in out_a


def test_simulate_consistency_guard_follows_qgame_tol(tmp_path, capsys, monkeypatch):
    doc = json.loads(files.resolve_input("ewl.povm").read_text())
    doc["payoffs_I"][0] += 3e-7  # the rebuilt payoff operator is off by 1.5e-7
    povm = tmp_path / "wobbly.povm"
    povm.write_text(json.dumps(doc))
    args = ("simulate", "ewl.game", str(povm), "identity.strategy", "identity.strategy",
            "--rounds", "10", "--seed", "1")
    code, _, err = run(capsys, *args)
    assert code == 1
    assert "deviate from the game's payoff operator by 1.500e-07" in err
    monkeypatch.setenv("QGAME_TOL", "1e-5")
    code, _, _ = run(capsys, *args)
    assert code == 0


def test_simulate_statistics(capsys):
    code, out, _ = run(capsys, "simulate", "ewl.game", "ewl.povm", "chi_star.strategy",
                       "xi_star.strategy", "--rounds", "100000", "--seed", "7", "--json")
    assert code == 0
    doc = files.parse_document(out)
    assert doc["exact_I"] == pytest.approx(2.5, abs=1e-9)
    assert abs(doc["mean_I"] - 2.5) <= 3 * doc["stderr_I"]
    assert abs(doc["z_I"]) <= 3.5


def test_simulate_forms_one_output_state(capsys, product_channel_calls):
    code, out, _ = run(capsys, "simulate", "ewl.game", "ewl.povm", "identity.strategy",
                       "bitflip.strategy", "--rounds", "10", "--seed", "1", "--json")
    assert code == 0
    assert len(product_channel_calls) == 1
    doc = files.parse_document(out)
    assert (doc["exact_I"], doc["exact_II"]) == (0.0, 5.0)


def test_simulate_zero_rounds_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "ewl.game", "ewl.povm", "identity.strategy",
                  "identity.strategy", "--rounds", "0"])
    assert exc.value.code == 2


SIMULATE_IDENTITY = ("simulate", "ewl.game", "ewl.povm", "identity.strategy",
                     "identity.strategy", "--rounds", "10")


@pytest.mark.parametrize("argv", [
    (*SIMULATE_IDENTITY, "--seed", "-1"),
    (*SIMULATE_IDENTITY, "--seed", str(2 ** 64)),
    (*SIMULATE_IDENTITY, "--seed", "1.5"),
    ("verify-nash", "ewl.game", "chi_star.strategy", "xi_star.strategy", "--epsilon", "nan"),
    ("verify-nash", "ewl.game", "chi_star.strategy", "xi_star.strategy", "--epsilon", "inf"),
    ("verify-nash", "ewl.game", "chi_star.strategy", "xi_star.strategy", "--epsilon=-1e-3"),
    ("best-response", "ewl.game", "xi_star.strategy", "I", "--tol", "nan"),
    ("best-response", "ewl.game", "xi_star.strategy", "I", "--tol=-1"),
], ids=["seed-negative", "seed-2^64", "seed-fraction", "epsilon-nan", "epsilon-inf",
        "epsilon-negative", "tol-nan", "tol-negative"])
def test_numeric_option_out_of_range_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("verify-nash", "ewl.game", "chi_star.strategy", "xi_star.strategy", "--epsilon"),
    ("best-response", "ewl.game", "xi_star.strategy", "I", "--tol"),
], ids=["epsilon", "tol"])
def test_negative_option_value_as_separate_word(argv, capsys):
    # "--epsilon -1e-3" is the value -1e-3, as "--epsilon=-1e-3" is
    errors = []
    for spelling in ([f"{argv[-1]}=-1e-3"], [argv[-1], "-1e-3"]):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv[:-1], *spelling])
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err.splitlines()[-1])
    assert errors[0] == errors[1]
    assert errors[0].endswith(f"argument {argv[-1]}: must be a finite number >= 0, got '-1e-3'")


@pytest.mark.parametrize("seed", ["0", str(2 ** 64 - 1)])
def test_simulate_accepts_every_64_bit_seed(seed, capsys):
    code, out, _ = run(capsys, *SIMULATE_IDENTITY, "--seed", seed)
    assert code == 0
    assert f"seed: {seed}\n" in out


def test_simulate_prints_chosen_seed(capsys):
    code, out, _ = run(capsys, "simulate", "ewl.game", "ewl.povm", "identity.strategy",
                       "identity.strategy", "--rounds", "10")
    assert code == 0
    assert "seed: " in out


# ---------------------------------------------------------------------------
# classical
# ---------------------------------------------------------------------------

def test_classical_cli(capsys):
    code, out, _ = run(capsys, "classical", "ewl.game")
    assert code == 0
    assert "(3, 3)" in out and "(0, 5)" in out and "(5, 0)" in out and "(1, 1)" in out


def test_classical_json(capsys):
    code, out, _ = run(capsys, "classical", "ewl.game", "--json")
    assert code == 0
    doc = files.parse_document(out)
    assert doc["payoff_I"] == [[3.0, 0.0], [5.0, 1.0]]
    assert doc["payoff_II"] == [[3.0, 5.0], [0.0, 1.0]]


# ---------------------------------------------------------------------------
# environment and file formats
# ---------------------------------------------------------------------------

def test_qgame_tol_env_override(tmp_path, capsys, monkeypatch):
    doc = json.loads(files.resolve_input("ewl.game").read_text())
    doc["rho"][0][0] = [0.5 + 3e-7, 0]  # trace off by 3e-7: fails default, passes loose
    wobbly = tmp_path / "wobbly.game"
    wobbly.write_text(json.dumps(doc))
    code, _, _ = run(capsys, "validate", str(wobbly))
    assert code == 1
    monkeypatch.setenv("QGAME_TOL", "1e-5")
    code, _, _ = run(capsys, "validate", str(wobbly))
    assert code == 0


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "1e400", "abc"])
def test_qgame_tol_out_of_range_is_parse_error(tol, capsys, monkeypatch):
    monkeypatch.setenv("QGAME_TOL", tol)
    code, _, err = run(capsys, "validate", "ewl.game")
    assert code == 2
    assert err.startswith("parse error: QGAME_TOL ")


def test_game_file_with_embedded_measurement(tmp_path, capsys):
    povm_doc = json.loads(files.resolve_input("ewl.povm").read_text())
    game_doc = json.loads(files.resolve_input("ewl.game").read_text())
    merged = {
        "format_version": 1,
        "n1": 2,
        "n2": 2,
        "rho": game_doc["rho"],
        "povm": {
            "elements": povm_doc["elements"],
            "payoffs_I": povm_doc["payoffs_I"],
            "payoffs_II": povm_doc["payoffs_II"],
        },
    }
    path = tmp_path / "folded.game"
    path.write_text(json.dumps(merged))
    code, out, _ = run(capsys, "payoff", str(path), "identity.strategy", "identity.strategy")
    assert code == 0
    assert "payoff I  = 3" in out
    code, out, _ = run(capsys, "tensor", str(path), "I", "--check-fixture")
    assert code == 0


@pytest.mark.parametrize("kind", ["game", "povm"])
def test_json_booleans_are_not_numbers(kind, tmp_path, capsys):
    # false stands where 0 does, so it would read as the same number
    path = tmp_path / f"bool.{kind}"
    if kind == "game":
        doc, argv = _with_rho_entry(1, 1, [0, False]), ("validate", str(path))
    else:
        doc = _bundled("ewl.povm")
        doc["payoffs_I"][2] = False
        argv = (*SIMULATE_IDENTITY[:2], str(path), *SIMULATE_IDENTITY[3:])
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("parse error: ")


def test_parse_error_names_position(tmp_path):
    path = tmp_path / "x.game"
    path.write_text("{\n  \"n1\": oops\n}")
    with pytest.raises(ParseError) as err:
        files.load_game(path)
    assert "line 2" in str(err.value)


def test_strategy_file_shape_errors(tmp_path):
    path = tmp_path / "s.strategy"
    path.write_text(json.dumps({"kind": "chi", "matrix": [[1, 2], [3, 4]]}))
    with pytest.raises(ParseError):
        files.load_strategy(path, 2)


def test_non_square_matrix_is_parse_error(tmp_path, capsys):
    doc = json.loads(files.resolve_input("ewl.game").read_text())
    doc["rho"] = doc["rho"][:3]  # drop a row: 3x4 matrix
    path = tmp_path / "lop.game"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "square" in err


def test_bundled_game_equals_builtin(ewl, ewl_stars):
    loaded = files.load_game("ewl.game")
    np.testing.assert_array_equal(loaded.rho.matrix, ewl.game.rho.matrix)
    np.testing.assert_array_equal(loaded.payoff_op_i, ewl.game.payoff_op_i)
    np.testing.assert_array_equal(loaded.payoff_op_ii, ewl.game.payoff_op_ii)
    assert [name for name, _ in ewl.reference_strategies] == [
        "chi_star", "xi_star", "identity", "bitflip"]
    builtins = [*ewl.reference_strategies, *zip(("chi_star", "xi_star"), ewl_stars)]
    for name, chi in builtins:
        np.testing.assert_array_equal(
            chi.matrix, files.load_strategy(f"{name}.strategy", 2).chi.matrix)
    povm, *payoffs = ewl_referee_measurement()
    loaded_povm, *loaded_payoffs = files.load_povm_file("ewl.povm", 4)
    np.testing.assert_array_equal(povm.elements, loaded_povm.elements)
    np.testing.assert_array_equal(payoffs, loaded_payoffs)


def test_game_payload_round_trip(ewl_game):
    payload = files.game_to_payload(ewl_game)
    text = files.emit_document(payload)
    assert files.parse_document(text) == payload


def test_closed_pipe_exits_quietly(tmp_path):
    # a 3x3 game's tensor grid (81x81) overflows the pipe buffer, so the
    # command is still writing when the reader goes away
    rng = np.random.default_rng(5)
    game = build_game(random_density(9, rng), random_hermitian(9, rng), random_hermitian(9, rng),
                      3, 3)
    path = tmp_path / "qutrits.game"
    path.write_text(files.emit_document(files.game_to_payload(game)))
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "qgame", "tensor", str(path), "I"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
    assert proc.stdout.readline().startswith("payoff tensor, player I (81x81 grid)")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) in range(5)
    assert "Traceback" not in err and "BrokenPipeError" not in err


@pytest.mark.parametrize("kind", ["kraus", "unitary"])
def test_strategy_of_wrong_dimension_is_dimension_mismatch(kind, tmp_path, capsys):
    qutrit = files.matrix_to_lists(np.eye(3))
    doc = {"kind": kind, "operators": [qutrit]} if kind == "kraus" else {"kind": kind, "matrix": qutrit}
    path = tmp_path / "qutrit.strategy"
    path.write_text(json.dumps(doc))
    with pytest.raises(DimensionMismatch, match="strategy dimension failed: acts on dim 3, game needs 2"):
        files.load_strategy(path, 2)
    code, _, err = run(capsys, "payoff", "ewl.game", str(path), "identity.strategy")
    assert code == 1
    assert err.startswith("validation error: strategy dimension failed")


def test_measurement_of_wrong_dimension_is_dimension_mismatch(tmp_path, capsys):
    path = tmp_path / "joint9.povm"
    path.write_text(json.dumps({"elements": [files.matrix_to_lists(np.eye(9))],
                                "payoffs_I": [1.0], "payoffs_II": [1.0]}))
    game = files.load_game("ewl.game")
    with pytest.raises(DimensionMismatch, match="measurement dimension failed: acts on dim 9, game needs 4"):
        files.load_povm_file(path, game.rho.dim)
    code, _, err = run(capsys, "simulate", "ewl.game", str(path), "identity.strategy",
                       "identity.strategy", "--seed", "1")
    assert code == 1
    assert err.startswith("validation error: measurement dimension failed")
