import hashlib
import json

import numpy as np
import pytest

from conftest import paper_rho
from qgame import cli, files, games_builtin
from qgame.errors import FixtureCorrupt, ParseError
from qgame.game import (
    classical_reduction,
    matrix_unit_basis,
    payoff_contract,
    payoff_operator,
    payoff_tensor_general,
    payoff_tensor_matrix_unit,
)
from qgame.games_builtin import (
    ewl_equilibrium_strategies,
    ewl_prisoners_dilemma,
    ewl_referee_measurement,
    figure1_reference_tensors,
)
from qgame.quantum import kraus_to_chi, validate_chi, validate_density, validate_kraus

UNITS = matrix_unit_basis(2)  # UNITS[i*2 + j] is the matrix unit (i, j)


def test_game_matrices(ewl_game):
    np.testing.assert_array_equal(ewl_game.rho.matrix, paper_rho())
    r_i = ewl_game.payoff_op_i
    np.testing.assert_allclose(np.diag(r_i), [2, 2.5, 2.5, 2])
    assert r_i[0, 3] == -1j and r_i[3, 0] == 1j
    assert r_i[1, 2] == 2.5j and r_i[2, 1] == -2.5j
    r_ii = ewl_game.payoff_op_ii
    assert r_ii[1, 2] == -2.5j and r_ii[2, 1] == 2.5j
    np.testing.assert_array_equal(r_i[np.ix_([0, 3], [0, 3])], r_ii[np.ix_([0, 3], [0, 3])])


def test_initial_state_is_pure(ewl_game):
    validate_density(ewl_game.rho.matrix)
    w = np.linalg.eigvalsh(ewl_game.rho.matrix)
    np.testing.assert_allclose(w, [0, 0, 0, 1], atol=1e-12)


def test_identity_play_value(ewl_game):
    # hand contraction: diagonal part 2*(1/2) + 2*(1/2), corners (-i)(i/2) + (i)(-i/2)
    value = np.trace(ewl_game.payoff_op_i @ ewl_game.rho.matrix)
    assert value == pytest.approx(3.0)


def test_referee_measurement_folds_to_payoff_operators_exactly(ewl_game):
    povm, a_i, a_ii = ewl_referee_measurement()
    np.testing.assert_array_equal(payoff_operator(povm, a_i), ewl_game.payoff_op_i)
    np.testing.assert_array_equal(payoff_operator(povm, a_ii), ewl_game.payoff_op_ii)


def test_builtin_game_ignores_working_directory(ewl_game, tmp_path, monkeypatch):
    doc = json.loads(files.bundled_path("ewl.game").read_text())
    doc["payoff_ops"]["I"][0][0] = [7, 0]
    (tmp_path / "ewl.game").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    assert files.load_game("ewl.game").payoff_op_i[0, 0] == 7
    game = ewl_prisoners_dilemma().game
    np.testing.assert_array_equal(game.rho.matrix, ewl_game.rho.matrix)
    np.testing.assert_array_equal(game.payoff_op_i, ewl_game.payoff_op_i)
    np.testing.assert_array_equal(game.payoff_op_ii, ewl_game.payoff_op_ii)


def test_reference_strategies_all_validate(ewl):
    for label, chi in ewl.reference_strategies:
        validate_chi(chi.matrix, 2)
        assert label


def test_equilibrium_strategies_match_kraus_expansions():
    chi_star, xi_star = ewl_equilibrium_strategies()
    from_kraus = kraus_to_chi(validate_kraus([UNITS[0], UNITS[1]]))
    np.testing.assert_allclose(chi_star.matrix, from_kraus.matrix, atol=1e-14)
    from_kraus = kraus_to_chi(validate_kraus([UNITS[2], UNITS[3]]))
    np.testing.assert_allclose(xi_star.matrix, from_kraus.matrix, atol=1e-14)


def test_equilibrium_payoffs(ewl_game):
    chi_star, xi_star = ewl_equilibrium_strategies()
    for player in ("I", "II"):
        tensor = payoff_tensor_matrix_unit(ewl_game, player)
        assert payoff_contract(tensor, chi_star, xi_star) == pytest.approx(2.5, abs=1e-10)


def test_classical_restriction(ewl_game):
    bim = classical_reduction(ewl_game)
    np.testing.assert_allclose(bim.payoff_i, [[3, 0], [5, 1]], atol=1e-10)
    np.testing.assert_allclose(bim.payoff_ii, [[3, 5], [0, 1]], atol=1e-10)


# ---------------------------------------------------------------------------
# fixture
# ---------------------------------------------------------------------------

def test_fixture_first_row():
    tensor_i, _ = figure1_reference_tensors()
    row = tensor_i.reshape(16, 16)[0]
    expected = np.zeros(16, dtype=complex)
    expected[0] = 1.0
    expected[10] = 1.25
    np.testing.assert_array_equal(row, expected)


def test_fixture_grid_ii_row_12_diagonal():
    _, tensor_ii = figure1_reference_tensors()
    assert tensor_ii.reshape(16, 16)[11, 11] == -1j


def test_fixture_grids_coincide_on_diagonal():
    tensor_i, tensor_ii = figure1_reference_tensors()
    np.testing.assert_array_equal(np.diag(tensor_i.reshape(16, 16)),
                                  np.diag(tensor_ii.reshape(16, 16)))


def test_computed_tensors_match_fixture(ewl_game):
    """Central regression test: every construction equals the transcription.

    A failure reports the offending (alpha, beta, gamma, delta) label with
    both values; the closed form and the trace form arbitrate transcription
    errors against construction errors.
    """
    fixtures = figure1_reference_tensors()
    for player, fixture in zip(("I", "II"), fixtures):
        for computed in (payoff_tensor_matrix_unit(ewl_game, player).entries,
                         payoff_tensor_general(ewl_game, player)):
            # exact: every entry is a dyadic rational, and a NaN never matches
            bad = np.argwhere(computed != fixture)
            message = "; ".join(
                f"player {player} (alpha={a}, beta={b}, gamma={g}, delta={d}): "
                f"computed {computed[a, b, g, d]}, fixture {fixture[a, b, g, d]}"
                for a, b, g, d in bad[:8]
            )
            assert bad.size == 0, f"tensor/fixture mismatch: {message}"


def _grid_hash(doc: dict) -> str:
    grids = np.stack([files.matrix_from_lists(doc[p], p) for p in ("I", "II")])
    return hashlib.sha256(grids.astype("<c16").tobytes()).hexdigest()


def _changed_entry(doc: dict) -> str:
    doc["I"][0][0] = [2, 0]  # the declared checksum must now reject the grids
    return json.dumps(doc)


def _small_grids(doc: dict) -> str:
    for p in ("I", "II"):
        doc[p] = [row[:15] for row in doc[p][:15]]
    doc["sha256"] = _grid_hash(doc)
    return json.dumps(doc)


def _no_grid_ii(doc: dict) -> str:
    del doc["II"]
    return json.dumps(doc)


def _bad_cell(doc: dict) -> str:
    doc["II"][3][7] = ["one", 0]
    return json.dumps(doc)


@pytest.mark.parametrize("damage, error, message", [
    (_changed_entry, FixtureCorrupt, "fixture checksum mismatch: grids hash to "),
    (_small_grids, FixtureCorrupt, "fixture grids must be 16x16, got [(15, 15), (15, 15)]"),
    (_no_grid_ii, ParseError, "figure1_tensors.json: missing required field 'II'"),
    (_bad_cell, ParseError, "fixture grid II: entry (3, 7) is not a [re, im] pair"),
    (lambda doc: "dims 16 16\n", ParseError, "line 1, column 1: Expecting value"),
], ids=["checksum", "shape", "no-tensor-II", "entry", "not-json"])
def test_fixture_structure_guards(damage, error, message, tmp_path, monkeypatch, capsys):
    """A damaged fixture document fails: its structure as a ParseError (exit 2),
    its data as FixtureCorrupt (exit 1)."""
    doc = json.loads(files.bundled_path(games_builtin.FIXTURE_NAME).read_text())
    assert _grid_hash(doc) == doc["sha256"]
    (tmp_path / games_builtin.FIXTURE_NAME).write_text(damage(doc))
    monkeypatch.setattr(games_builtin, "bundled_path", lambda name: tmp_path / name)
    with pytest.raises(error) as err:
        figure1_reference_tensors()
    assert str(err.value).startswith(message)
    assert cli.main(["tensor", "ewl.game", "I", "--check-fixture"]) == (
        2 if error is ParseError else 1)
    assert message in capsys.readouterr().err
