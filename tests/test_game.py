import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import paper_rho
from qgame import linalg
from qgame.errors import (
    DimensionMismatch,
    InconsistentMeasurement,
    LengthMismatch,
    NonRealPayoff,
    NotHermitian,
    NotPositive,
    TraceNotOne,
    UnsupportedDimension,
    ValidationError,
)
from qgame.game import (
    build_game,
    classical_reduction,
    game_checks,
    matrix_unit_basis,
    normalize_player,
    payoff_contract,
    payoff_direct,
    payoff_operator,
    payoff_tensor_general,
    payoff_tensor_matrix_unit,
    require_real,
    response_problem,
    response_value,
    simulate_play,
    state_payoff,
    validate_tensor_entries,
)
from qgame.games_builtin import ewl_referee_measurement
from qgame.linalg import hermitian_part
from qgame.quantum import (
    DensityMatrix,
    apply_product_channel,
    identity_chi,
    kraus_to_chi,
    measure_probs,
    shift_channel,
    validate_kraus,
)
from qgame.random_ops import (
    random_chi,
    random_density,
    random_hermitian,
    random_kraus_channel,
)


UNITS = matrix_unit_basis(2)  # UNITS[i*2 + j] is the matrix unit (i, j)
RESET_0 = validate_kraus([UNITS[0], UNITS[1]])  # reset to state 0: the channel of chi*
RESET_1 = validate_kraus([UNITS[2], UNITS[3]])  # reset to state 1: the channel of xi*


def random_game(n1, n2, rng):
    rho = random_density(n1 * n2, rng)
    return build_game(rho, random_hermitian(n1 * n2, rng), random_hermitian(n1 * n2, rng), n1, n2)


def flat(entries, alpha, beta, gamma, delta):
    """Tensor entry by (i, j) label pairs, e.g. flat(A, (0, 0), (0, 0), (1, 0), (1, 0))."""
    n1 = int(round(np.sqrt(entries.shape[0])))
    n2 = int(round(np.sqrt(entries.shape[2])))
    return entries[
        alpha[0] * n1 + alpha[1],
        beta[0] * n1 + beta[1],
        gamma[0] * n2 + gamma[1],
        delta[0] * n2 + delta[1],
    ]


# ---------------------------------------------------------------------------
# payoff_operator
# ---------------------------------------------------------------------------

def test_payoff_operator_trivial_measurement():
    povm = validate_kraus([np.eye(3)])
    np.testing.assert_allclose(payoff_operator(povm, [2.5]), 2.5 * np.eye(3), atol=1e-14)


def test_payoff_operator_projective():
    povm = validate_kraus([UNITS[0], UNITS[3]])
    np.testing.assert_allclose(payoff_operator(povm, [5.0, 1.0]), np.diag([5.0, 1.0]), atol=1e-14)


def test_payoff_operator_length_mismatch():
    povm = validate_kraus([np.eye(2)])
    with pytest.raises(LengthMismatch):
        payoff_operator(povm, [1.0, 2.0])


def test_payoff_operator_reproduces_probability_weighted_sum(rng):
    for _ in range(10):
        n = int(rng.integers(2, 4))
        povm = validate_kraus(random_kraus_channel(n, rng).operators)
        payoffs = rng.standard_normal(povm.n_operators)
        r = payoff_operator(povm, payoffs)
        rho = random_density(n, rng)
        via_trace = float(np.real(np.trace(r @ rho.matrix)))
        via_probs = float(payoffs @ measure_probs(povm, rho))
        assert abs(via_trace - via_probs) <= 1e-10


# ---------------------------------------------------------------------------
# payoff tensors
# ---------------------------------------------------------------------------

def test_tensor_entries_from_reference_game(ewl_game):
    a_i = payoff_tensor_general(ewl_game, "I")
    assert flat(a_i, (0, 0), (0, 0), (0, 0), (0, 0)) == pytest.approx(1.0)
    assert flat(a_i, (0, 0), (0, 0), (1, 0), (1, 0)) == pytest.approx(1.25)
    assert flat(a_i, (0, 1), (0, 1), (1, 1), (1, 1)) == pytest.approx(1.25)
    # player II flips the sign of the purely imaginary inner-block family
    a_ii = payoff_tensor_matrix_unit(ewl_game, "II").entries
    assert flat(a_ii, (0, 0), (1, 0), (1, 0), (0, 0)) == pytest.approx(1.25j)
    assert flat(a_i, (0, 0), (1, 0), (1, 0), (0, 0)) == pytest.approx(-1.25j)


def test_tensor_constructions_agree(rng):
    for n in (2, 3):
        for _ in range(5):
            game = random_game(n, n, rng)
            for player in ("I", "II"):
                general = payoff_tensor_general(game, player)
                closed = payoff_tensor_matrix_unit(game, player)
                assert np.max(np.abs(general - closed.entries)) <= 1e-12


def test_tensor_constructions_agree_mixed_dims(rng):
    game = random_game(2, 3, rng)
    general = payoff_tensor_general(game, "I")
    closed = payoff_tensor_matrix_unit(game, "I")
    assert np.max(np.abs(general - closed.entries)) <= 1e-12


def test_general_tensor_supports_other_operator_bases(rng):
    # expand both players' channels in a unitarily mixed operator basis and
    # check that the contraction is basis-independent
    from qgame.quantum import ChiMatrix
    from qgame.random_ops import random_kraus_channel

    game = random_game(2, 2, rng)
    units = matrix_unit_basis(2)
    mix = random_kraus_channel(4, rng, 1).operators[0]
    basis = np.einsum("ba,aij->bij", mix, units)
    tensor_mixed = payoff_tensor_general(game, "I", basis1=basis, basis2=basis)
    tensor_default = payoff_tensor_matrix_unit(game, "I")

    flat_basis = basis.reshape(4, 4)

    def chi_in_basis(channel):
        coeffs = channel.operators.reshape(channel.n_operators, 4) @ np.linalg.inv(flat_basis)
        return np.einsum("ka,kb->ab", coeffs, coeffs.conj())

    ch_a = random_kraus_channel(2, rng)
    ch_b = random_kraus_channel(2, rng)
    mixed_value = np.einsum("ab,cd,abcd->", chi_in_basis(ch_a), chi_in_basis(ch_b),
                            tensor_mixed)
    default_value = payoff_contract(tensor_default, kraus_to_chi(ch_a), kraus_to_chi(ch_b))
    assert abs(mixed_value.imag) <= 1e-9
    assert mixed_value.real == pytest.approx(default_value, abs=1e-9)


def test_constant_game_contracts_to_constant(rng):
    rho = random_density(4, rng)
    game = build_game(rho, np.eye(4), np.eye(4), 2, 2)
    tensor = payoff_tensor_matrix_unit(game, "I")
    general = payoff_tensor_general(game, "I")
    for _ in range(5):
        chi, xi = random_chi(2, rng), random_chi(2, rng)
        assert payoff_contract(tensor, chi, xi) == pytest.approx(1.0, abs=1e-10)
        value = np.einsum("ab,cd,abcd->", chi.matrix, xi.matrix, general)
        assert value == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("n1, n2, bad", [(2.0, 2, "n1"), (True, 4, "n1"), (-2, -2, "n1"),
                                         (4, 0, "n2"), (2, np.bool_(True), "n2"), (2, "2", "n2")],
                         ids=["float", "bool", "negative", "zero", "numpy-bool", "str"])
def test_build_game_rejects_a_dimension_that_is_not_a_positive_integer(n1, n2, bad):
    # a float or a bool built a game whose tensor then raised numpy's TypeError,
    # and (-2, -2) one whose reshape failed
    value = {"n1": n1, "n2": n2}[bad]
    with pytest.raises(ValueError, match=f"^{bad} must be a positive integer, got {re.escape(repr(value))}$"):
        build_game(np.eye(4) / 4, np.eye(4), np.eye(4), n1, n2)


def test_build_game_accepts_numpy_integer_dimensions(ewl_game):
    game = build_game(ewl_game.rho.matrix, ewl_game.payoff_op_i, ewl_game.payoff_op_ii,
                      np.int64(2), np.int32(2))
    np.testing.assert_array_equal(payoff_tensor_matrix_unit(game, "I").entries,
                                  payoff_tensor_matrix_unit(ewl_game, "I").entries)


def test_tensor_grid_layout(ewl_game):
    tensor = payoff_tensor_matrix_unit(ewl_game, "I")
    grid = tensor.grid
    assert grid.shape == (16, 16)
    assert grid[0, 10] == tensor.entries[0, 0, 2, 2]
    assert grid[4 * 2 + 0, 4 * 1 + 3] == tensor.entries[2, 0, 1, 3]


@pytest.mark.parametrize("n", [3, 4])
def test_pairing_check_forms_no_temporary_of_the_tensor_size(n):
    # the frozen copy alone is 1.0 entries.nbytes; the full-size residual was 3-4
    d = n * n
    game = build_game(np.eye(d) / d, np.eye(d), np.eye(d), n, n)
    entries = payoff_tensor_matrix_unit(game, "I").entries
    tracemalloc.start()
    try:
        validate_tensor_entries(entries)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * entries.nbytes


@pytest.mark.parametrize("n", [4, 5])
def test_the_entries_are_formed_in_place_at_larger_n(n):
    # einsum writes the tensor in C order, so its reshape copies nothing: the
    # peak was 2.00 entry sizes at n = 4 and 5 when it did
    d = n * n
    tensor = payoff_tensor_matrix_unit(build_game(np.eye(d) / d, np.eye(d), np.eye(d), n, n), "I")
    tracemalloc.start()
    try:
        entries = tensor.entries
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * entries.nbytes


@pytest.mark.parametrize("n", [3, 4])
def test_each_explicit_construction_peaks_within_its_size_charge(n, monkeypatch):
    # a limit one byte below the traced peak must refuse the construction before it starts
    d = n * n
    game = build_game(np.eye(d) / d, np.eye(d), np.eye(d), n, n)
    tensor = payoff_tensor_matrix_unit(game, "I")
    for construct in (lambda: tensor.entries, lambda: payoff_tensor_general(game, "I")):
        tracemalloc.start()
        try:
            construct()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "TENSOR_BYTES_MAX", peak - 1)
            with pytest.raises(UnsupportedDimension, match="payoff tensor size"):
                construct()


def test_tensor_rejects_pairing_violation():
    bad = np.zeros((4, 4, 4, 4), dtype=complex)
    bad[0, 1, 0, 0] = 1.0  # conjugate partner missing
    with pytest.raises(ValidationError):
        validate_tensor_entries(bad)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_matrix_unit_basis_is_the_matrix_units_in_label_order(n):
    reference = np.zeros((n * n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            reference[i * n + j, i, j] = 1.0
    basis = matrix_unit_basis(n)
    assert basis.shape == reference.shape and basis.dtype == reference.dtype
    assert basis.tobytes() == reference.tobytes()


def test_tensor_rejects_an_inconsistent_shape():
    with pytest.raises(DimensionMismatch, match=r"^tensor has inconsistent shape \(4, 4, 4, 3\)$"):
        validate_tensor_entries(np.zeros((4, 4, 4, 3), dtype=complex))


def test_unknown_player_is_rejected():
    with pytest.raises(ValueError, match="^unknown player 'III'; expected 'I' or 'II'$"):
        normalize_player("III")


def test_response_value_rejects_a_strategy_of_another_dimension(ewl_game):
    problem = response_problem(payoff_tensor_matrix_unit(ewl_game, "I"), identity_chi(2), "I")
    with pytest.raises(DimensionMismatch, match="^strategy dim 9 != problem dim 4$"):
        response_value(problem, identity_chi(3))


# ---------------------------------------------------------------------------
# contraction and direct evaluation
# ---------------------------------------------------------------------------

def test_contract_reference_values(ewl_game, ewl_stars):
    chi_star, xi_star = ewl_stars
    a_i = payoff_tensor_matrix_unit(ewl_game, "I")
    chi_id = identity_chi(2)
    chi_flip = kraus_to_chi(shift_channel(2, 1))
    assert payoff_contract(a_i, chi_star, xi_star) == pytest.approx(2.5, abs=1e-12)
    assert payoff_contract(a_i, chi_id, chi_id) == pytest.approx(3.0, abs=1e-12)
    assert payoff_contract(a_i, chi_flip, chi_id) == pytest.approx(5.0, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(0, 1))
def test_contract_bilinear(seed, t):
    rng = np.random.default_rng(seed)
    game = random_game(2, 2, rng)
    tensor = payoff_tensor_matrix_unit(game, "I")
    chi1, chi2, xi = random_chi(2, rng), random_chi(2, rng), random_chi(2, rng)
    from qgame.quantum import ChiMatrix

    mixed = ChiMatrix(t * chi1.matrix + (1 - t) * chi2.matrix)
    lhs = payoff_contract(tensor, mixed, xi)
    rhs = t * payoff_contract(tensor, chi1, xi) + (1 - t) * payoff_contract(tensor, chi2, xi)
    assert abs(lhs - rhs) <= 1e-10


def test_payoff_direct_reference_values(ewl_game):
    identity = shift_channel(2, 0)
    flip = shift_channel(2, 1)
    chi_star_channel = validate_kraus([UNITS[0], UNITS[1]])
    xi_star_channel = validate_kraus([UNITS[2], UNITS[3]])
    assert payoff_direct(ewl_game, identity, identity, "I") == pytest.approx(3.0, abs=1e-12)
    assert payoff_direct(ewl_game, chi_star_channel, xi_star_channel, "I") == pytest.approx(2.5, abs=1e-12)
    assert payoff_direct(ewl_game, chi_star_channel, xi_star_channel, "II") == pytest.approx(2.5, abs=1e-12)
    assert payoff_direct(ewl_game, flip, flip, "I") == pytest.approx(1.0, abs=1e-12)


def test_direct_equals_contraction_on_random_channels(rng):
    for _ in range(20):
        game = random_game(2, 2, rng)
        ch_a = random_kraus_channel(2, rng)
        ch_b = random_kraus_channel(2, rng)
        for player in ("I", "II"):
            tensor = payoff_tensor_matrix_unit(game, player)
            via_tensor = payoff_contract(tensor, kraus_to_chi(ch_a), kraus_to_chi(ch_b))
            via_direct = payoff_direct(game, ch_a, ch_b, player)
            assert abs(via_tensor - via_direct) <= 1e-9


@pytest.mark.parametrize("scale", [1.0, 1e6])
@pytest.mark.parametrize("n1, n2", [(2, 2), (2, 5), (5, 2), (4, 5)])
def test_state_payoff_is_the_trace_of_r_pi(n1, n2, scale, rng):
    d = n1 * n2
    game = build_game(random_density(d, rng), random_hermitian(d, rng, scale),
                      random_hermitian(d, rng, scale), n1, n2)
    pi = apply_product_channel(random_kraus_channel(n1, rng), random_kraus_channel(n2, rng),
                               game.rho)
    for player in ("I", "II"):
        r = game.payoff_op(player)
        expected = np.trace(r @ pi.matrix).real
        assert abs(state_payoff(game, pi, player) - expected) <= 1e-12 * max(1.0, np.max(np.abs(r)))


@pytest.mark.parametrize("n1, n2", [(2, 3), (3, 2), (3, 4), (4, 3)])
def test_factored_contraction_matches_entries(n1, n2, rng):
    # the production path never forms the entries; here they are materialised
    for _ in range(3):
        game = random_game(n1, n2, rng)
        chi, xi = random_chi(n1, rng), random_chi(n2, rng)
        for player in ("I", "II"):
            tensor = payoff_tensor_matrix_unit(game, player)
            entries = tensor.entries
            value = np.einsum("ab,cd,abcd->", chi.matrix, xi.matrix, entries).real
            assert abs(payoff_contract(tensor, chi, xi) - value) <= 1e-12
            g_i = hermitian_part(np.einsum("abcd,cd->ba", entries, xi.matrix))
            g_ii = hermitian_part(np.einsum("abcd,ab->dc", entries, chi.matrix))
            assert np.max(np.abs(response_problem(tensor, xi, "I") - g_i)) <= 1e-12
            assert np.max(np.abs(response_problem(tensor, chi, "II") - g_ii)) <= 1e-12


def test_payoff_and_responses_stay_tensor_free():
    # at n1 = n2 = 8 each tensor has (64^2)^2 entries, 268 MB; its factors take 64 kB
    rng = np.random.default_rng(8)
    game = random_game(8, 8, rng)
    chi, xi = random_chi(8, rng), random_chi(8, rng)
    tracemalloc.start()
    try:
        tensor_i = payoff_tensor_matrix_unit(game, "I")
        tensor_ii = payoff_tensor_matrix_unit(game, "II")
        payoff_contract(tensor_i, chi, xi)
        payoff_contract(tensor_ii, chi, xi)
        response_problem(tensor_i, xi, "I")
        response_problem(tensor_ii, chi, "II")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_contract_flags_corrupted_strategy(ewl_game):
    from qgame.quantum import ChiMatrix

    tensor = payoff_tensor_matrix_unit(ewl_game, "I")
    crooked_matrix = identity_chi(2).matrix.copy()
    crooked_matrix[0, 3] += 0.3j  # unpaired imaginary entry: carrier is unchecked
    crooked = ChiMatrix(crooked_matrix)
    with pytest.raises(NonRealPayoff):
        payoff_contract(tensor, crooked, identity_chi(2))


NOT_FINITE = [
    (complex(np.nan, 0), "real part nan is not finite"),
    (complex(0, np.nan), "imaginary part nan of 0.000e+00"),
    (complex(np.inf, 0), "real part inf is not finite"),
    (complex(-np.inf, 0), "real part -inf is not finite"),
]


@pytest.mark.parametrize("value, detail", NOT_FINITE, ids=[str(v) for v, _ in NOT_FINITE])
def test_require_real_fails_a_value_that_is_not_finite(value, detail):
    with pytest.raises(NonRealPayoff) as err:
        require_real(value, np.eye(2), "payoff")
    assert str(err.value) == f"payoff real failed: {detail} (limit 1e-09)"


# ---------------------------------------------------------------------------
# classical reduction
# ---------------------------------------------------------------------------

def test_classical_reduction_reference(ewl_game):
    bim = classical_reduction(ewl_game)
    np.testing.assert_allclose(bim.payoff_i, [[3, 0], [5, 1]], atol=1e-10)
    np.testing.assert_allclose(bim.payoff_ii, [[3, 5], [0, 1]], atol=1e-10)
    assert (bim.payoff_i[0, 0], bim.payoff_ii[0, 0]) == (3.0, 3.0)
    assert (bim.payoff_i[0, 1], bim.payoff_ii[0, 1]) == (0.0, 5.0)
    # symmetric game: entry (0,1) mirrors swapped entry (1,0)
    assert (bim.payoff_i[0, 1], bim.payoff_ii[0, 1]) == (bim.payoff_ii[1, 0], bim.payoff_i[1, 0])


def test_classical_reduction_constant_game(rng):
    rho = random_density(4, rng)
    game = build_game(rho, np.eye(4), np.eye(4), 2, 2)
    bim = classical_reduction(game)
    np.testing.assert_allclose(bim.payoff_i, np.ones((2, 2)), atol=1e-12)
    np.testing.assert_allclose(bim.payoff_ii, np.ones((2, 2)), atol=1e-12)


def test_classical_reduction_matches_direct_play_at_mixed_dims(rng):
    # entry (s, t) is the payoff of playing the shift powers on each player's own factor
    for n1, n2 in ((2, 3), (3, 2)):
        game = random_game(n1, n2, rng)
        bim = classical_reduction(game)
        for grid, player in ((bim.payoff_i, "I"), (bim.payoff_ii, "II")):
            assert grid.shape == (n1, n2)
            limit = 1e-13 * max(1.0, float(np.abs(game.payoff_op(player)).max()))
            for s in range(n1):
                for t in range(n2):
                    out = apply_product_channel(shift_channel(n1, s), shift_channel(n2, t),
                                                game.rho)
                    assert abs(grid[s, t] - state_payoff(game, out, player)) <= limit


def test_classical_reduction_qutrit(rng):
    game = random_game(3, 3, rng)
    bim = classical_reduction(game)
    assert bim.payoff_i.shape == (3, 3)


@pytest.mark.parametrize("n1, n2", [(2, 2), (3, 3), (4, 4), (2, 3), (3, 2), (2, 4)],
                         ids=["2", "3", "4", "2x3", "3x2", "2x4"])
def test_classical_reduction_contracts_the_shift_powers(n1, n2, rng, product_channel_calls):
    game = random_game(n1, n2, rng)
    bim = classical_reduction(game)
    # the closed form alone: no output state is formed
    assert product_channel_calls == []
    # each player's own shift powers, at their own dimension
    chis_i = [kraus_to_chi(shift_channel(n1, s)) for s in range(n1)]
    chis_ii = [kraus_to_chi(shift_channel(n2, t)) for t in range(n2)]
    for grid, player in ((bim.payoff_i, "I"), (bim.payoff_ii, "II")):
        tensor = payoff_tensor_matrix_unit(game, player)
        expected = [[payoff_contract(tensor, chi_s, chi_t) for chi_t in chis_ii]
                    for chi_s in chis_i]
        np.testing.assert_array_equal(grid, expected)


# ---------------------------------------------------------------------------
# Monte Carlo play
# ---------------------------------------------------------------------------

def test_simulate_identity_pair_matches_exact(ewl_game):
    povm, a_i, a_ii = ewl_referee_measurement()
    rng = np.random.default_rng(11)
    # identity pair: outcome 0 has probability 1, so every round pays (3, 3)
    result = simulate_play(ewl_game, povm, a_i, a_ii, shift_channel(2, 0), shift_channel(2, 0),
                           100_000, rng)
    assert (result.mean_i, result.mean_ii) == (3.0, 3.0)
    assert (result.exact_i, result.exact_ii) == (3.0, 3.0)
    assert result.stderr_i == result.stderr_ii == 0.0
    # reset pair (chi*, xi*): outcomes 2 and 3 at 1/2 each, paying (0, 5) and (5, 0)
    result = simulate_play(ewl_game, povm, a_i, a_ii, RESET_0, RESET_1, 100_000, rng)
    assert abs(result.mean_i - 2.5) <= 3 * result.stderr_i
    assert abs(result.mean_ii - 2.5) <= 3 * result.stderr_ii
    assert result.stderr_i == pytest.approx(2.5 / np.sqrt(100_000), rel=1e-2)


def test_simulate_exact_payoffs_are_direct_payoffs(ewl_game, rng):
    povm, a_i, a_ii = ewl_referee_measurement()
    for _ in range(5):
        ch_a, ch_b = random_kraus_channel(2, rng), random_kraus_channel(2, rng)
        result = simulate_play(ewl_game, povm, a_i, a_ii, ch_a, ch_b, 10, rng)
        assert result.exact_i == payoff_direct(ewl_game, ch_a, ch_b, "I")
        assert result.exact_ii == payoff_direct(ewl_game, ch_a, ch_b, "II")


def test_simulate_single_round(ewl_game):
    povm, a_i, a_ii = ewl_referee_measurement()
    for ch_a, ch_b in ((shift_channel(2, 0), shift_channel(2, 1)), (RESET_0, RESET_1)):
        result = simulate_play(ewl_game, povm, a_i, a_ii, ch_a, ch_b, 1, np.random.default_rng(3))
        assert result.rounds == 1
        assert (result.mean_i, result.mean_ii) in {(0.0, 5.0), (5.0, 0.0), (3.0, 3.0), (1.0, 1.0)}
        assert result.stderr_i == 0.0


def test_simulate_deterministic_under_seed(ewl_game):
    povm, a_i, a_ii = ewl_referee_measurement()

    def run(ch_a, ch_b, seed):
        return simulate_play(ewl_game, povm, a_i, a_ii, ch_a, ch_b, 5000,
                             np.random.default_rng(seed))

    identity, flip = shift_channel(2, 0), shift_channel(2, 1)
    assert run(identity, flip, 99) == run(identity, flip, 99)
    # a random outcome: the draws follow the generator's state
    assert run(RESET_0, RESET_1, 99) == run(RESET_0, RESET_1, 99)
    assert run(RESET_0, RESET_1, 99) != run(RESET_0, RESET_1, 100)


def test_simulate_guards_measurement_consistency(ewl_game):
    povm, a_i, a_ii = ewl_referee_measurement()
    with pytest.raises(InconsistentMeasurement):
        simulate_play(ewl_game, povm, a_ii, a_i, shift_channel(2, 0), shift_channel(2, 0),
                      10, np.random.default_rng(0))


def test_simulate_rejects_a_measurement_of_another_dimension(ewl_game):
    # caught before the measurement is folded and compared with the game's 4x4 payoff operators
    with pytest.raises(DimensionMismatch, match="^POVM dim 2 != state dim 4$"):
        simulate_play(ewl_game, validate_kraus([np.eye(2)]), [1.0], [1.0], shift_channel(2, 0),
                      shift_channel(2, 0), 10, np.random.default_rng(0))


def test_simulate_rejects_zero_rounds(ewl_game):
    povm, a_i, a_ii = ewl_referee_measurement()
    with pytest.raises(ValueError):
        simulate_play(ewl_game, povm, a_i, a_ii, shift_channel(2, 0), shift_channel(2, 0),
                      0, np.random.default_rng(0))


def test_simulate_rejects_rounds_that_are_not_integers(ewl_game):
    povm, a_i, a_ii = ewl_referee_measurement()
    identity = shift_channel(2, 0)

    def play(rounds):
        return simulate_play(ewl_game, povm, a_i, a_ii, identity, identity, rounds,
                             np.random.default_rng(0))

    # none of them is a count of rounds, though each lies within [1, 2^63 - 1]
    for rounds in (2.5, 100.0, True):
        with pytest.raises(ValueError, match=re.escape(f"must be an integer in [1, 2^63 - 1], "
                                                       f"got {rounds!r}")):
            play(rounds)
    result = play(np.int64(5))
    assert (result.mean_i, result.mean_ii, result.rounds) == (3.0, 3.0, 5)


def _outcome_probs(game, povm, ch_a, ch_b):
    probs = np.clip(measure_probs(povm, apply_product_channel(ch_a, ch_b, game.rho)), 0.0, None)
    return probs / probs.sum()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_simulate_draws_the_outcome_counts_in_one_multinomial_call(ewl_game, seed):
    povm, a_i, a_ii = ewl_referee_measurement()
    channels = np.random.default_rng(100 + seed)
    ch_a, ch_b = random_kraus_channel(2, channels), random_kraus_channel(2, channels)
    rounds = 5000
    result = simulate_play(ewl_game, povm, a_i, a_ii, ch_a, ch_b, rounds,
                           np.random.default_rng(seed))
    counts = np.random.default_rng(seed).multinomial(rounds,
                                                     _outcome_probs(ewl_game, povm, ch_a, ch_b))
    assert result.mean_i == float((counts / rounds) @ a_i)
    assert result.mean_ii == float((counts / rounds) @ a_ii)
    # the sample standard deviation (ddof = 1) of the rounds the counts stand for
    for stderr, a in ((result.stderr_i, a_i), (result.stderr_ii, a_ii)):
        assert stderr == pytest.approx(np.std(np.repeat(a, counts), ddof=1) / np.sqrt(rounds),
                                       rel=1e-12)


def test_simulate_time_and_memory_do_not_grow_with_rounds(ewl_game):
    povm, a_i, a_ii = ewl_referee_measurement()
    result = simulate_play(ewl_game, povm, a_i, a_ii, RESET_0, RESET_1, 10 ** 12,
                           np.random.default_rng(5))
    assert result.rounds == 10 ** 12
    assert 0.0 < result.stderr_i == pytest.approx(2.5 / 1e6, rel=1e-3)
    assert abs(result.mean_i - result.exact_i) <= 6 * result.stderr_i
    assert abs(result.mean_ii - result.exact_ii) <= 6 * result.stderr_ii


@pytest.mark.parametrize("rounds", [-1, 2 ** 63])
def test_simulate_rejects_rounds_out_of_range(ewl_game, rounds):
    povm, a_i, a_ii = ewl_referee_measurement()
    with pytest.raises(ValueError, match=r"\[1, 2\^63 - 1\]"):
        simulate_play(ewl_game, povm, a_i, a_ii, RESET_0, RESET_1, rounds,
                      np.random.default_rng(0))
    result = simulate_play(ewl_game, povm, a_i, a_ii, RESET_0, RESET_1, 2 ** 63 - 1,
                           np.random.default_rng(0))
    assert result.rounds == 2 ** 63 - 1


def test_referee_measurement_reproduces_payoff_operators(ewl_game):
    povm, a_i, a_ii = ewl_referee_measurement()
    np.testing.assert_allclose(payoff_operator(povm, a_i), ewl_game.payoff_op_i, atol=1e-12)
    np.testing.assert_allclose(payoff_operator(povm, a_ii), ewl_game.payoff_op_ii, atol=1e-12)


def test_build_game_rejects_non_hermitian_payoff(rng):
    rho = paper_rho()
    bad = np.eye(4, dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(ValidationError):
        build_game(rho, bad, np.eye(4), 2, 2)


INVALID_STATES = {
    "trace-four": (np.eye(4), TraceNotOne),
    "negative-eigenvalue": (np.diag([1.5, -0.5, 0.0, 0.0]), NotPositive),
    "non-hermitian": (np.eye(4) / 4 + 0.1 * np.triu(np.ones((4, 4)), 1), NotHermitian),
}


@pytest.mark.parametrize("case", sorted(INVALID_STATES))
def test_build_game_checks_a_density_matrix_like_an_array(case):
    state, error = INVALID_STATES[case]
    for rho in (state, DensityMatrix(state)):
        with pytest.raises(error):
            build_game(rho, np.eye(4), np.eye(4), 2, 2)


def test_game_checks_list_a_density_matrix_like_an_array(rng):
    rho = random_density(4, rng)
    ops = (random_hermitian(4, rng), random_hermitian(4, rng))
    # same names, residuals, limits and details, in the same order
    assert list(game_checks(rho, *ops, 2, 2)) == list(game_checks(rho.matrix, *ops, 2, 2))
