import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import paper_rho
from qgame.errors import (
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
    payoff_contract,
    payoff_direct,
    payoff_operator,
    payoff_tensor_general,
    payoff_tensor_matrix_unit,
    response_problem,
    simulate_play,
    validate_tensor_entries,
)
from qgame.games_builtin import ewl_referee_measurement
from qgame.linalg import hermitian_part
from qgame.quantum import (
    DensityMatrix,
    identity_chi,
    kraus_to_chi,
    measure_probs,
    shift_channel,
    validate_kraus,
    validate_povm,
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
    povm = validate_povm([np.eye(3)])
    np.testing.assert_allclose(payoff_operator(povm, [2.5]), 2.5 * np.eye(3), atol=1e-14)


def test_payoff_operator_projective():
    povm = validate_povm([UNITS[0], UNITS[3]])
    np.testing.assert_allclose(payoff_operator(povm, [5.0, 1.0]), np.diag([5.0, 1.0]), atol=1e-14)


def test_payoff_operator_length_mismatch():
    povm = validate_povm([np.eye(2)])
    with pytest.raises(LengthMismatch):
        payoff_operator(povm, [1.0, 2.0])


def test_payoff_operator_reproduces_probability_weighted_sum(rng):
    for _ in range(10):
        n = int(rng.integers(2, 4))
        povm = validate_povm(random_kraus_channel(n, rng).operators)
        payoffs = rng.standard_normal(povm.outcome_count)
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


def test_tensor_grid_layout(ewl_game):
    tensor = payoff_tensor_matrix_unit(ewl_game, "I")
    grid = tensor.grid
    assert grid.shape == (16, 16)
    assert grid[0, 10] == tensor.entries[0, 0, 2, 2]
    assert grid[4 * 2 + 0, 4 * 1 + 3] == tensor.entries[2, 0, 1, 3]


def test_tensor_rejects_pairing_violation():
    bad = np.zeros((4, 4, 4, 4), dtype=complex)
    bad[0, 1, 0, 0] = 1.0  # conjugate partner missing
    with pytest.raises(ValidationError):
        validate_tensor_entries(bad)


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

    mixed = ChiMatrix(t * chi1.matrix + (1 - t) * chi2.matrix, 2)
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
            assert np.max(np.abs(response_problem(tensor, xi, "I").matrix - g_i)) <= 1e-12
            assert np.max(np.abs(response_problem(tensor, chi, "II").matrix - g_ii)) <= 1e-12


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
    crooked = ChiMatrix(crooked_matrix, 2)
    with pytest.raises(NonRealPayoff):
        payoff_contract(tensor, crooked, identity_chi(2))


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


def test_classical_reduction_rejects_mixed_dims(rng):
    game = random_game(2, 3, rng)
    with pytest.raises(UnsupportedDimension):
        classical_reduction(game)


def test_classical_reduction_qutrit(rng):
    game = random_game(3, 3, rng)
    bim = classical_reduction(game)
    assert bim.payoff_i.shape == (3, 3)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_classical_reduction_forms_one_state_per_profile(n, rng, product_channel_calls):
    bim = classical_reduction(random_game(n, n, rng))
    assert len(product_channel_calls) == n * n
    # each state is traced against both payoff operators
    assert bim.payoff_i.shape == bim.payoff_ii.shape == (n, n)


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


def test_simulate_rejects_zero_rounds(ewl_game):
    povm, a_i, a_ii = ewl_referee_measurement()
    with pytest.raises(ValueError):
        simulate_play(ewl_game, povm, a_i, a_ii, shift_channel(2, 0), shift_channel(2, 0),
                      0, np.random.default_rng(0))


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
