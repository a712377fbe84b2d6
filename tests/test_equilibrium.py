import importlib.util
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qgame import equilibrium, linalg
from qgame import game as game_module
from qgame.equilibrium import (
    best_response,
    partial_trace_first,
    response_problem,
    response_value,
    unitary_oracle,
    verify_nash,
)
from qgame.errors import DimensionMismatch, NoConvergence, UnsupportedDimension, ValidationError
from qgame.game import (
    build_game,
    payoff_contract,
    payoff_direct,
    payoff_tensor_matrix_unit,
)
from qgame.linalg import hermitian_part
from qgame.quantum import (
    apply_product_channel,
    identity_chi,
    kraus_to_chi,
    shift_channel,
    validate_chi,
)
from qgame.random_ops import random_chi, random_density, random_hermitian, random_kraus_channel


def random_game(n1, n2, rng):
    rho = random_density(n1 * n2, rng)
    return build_game(rho, random_hermitian(n1 * n2, rng), random_hermitian(n1 * n2, rng), n1, n2)


# ---------------------------------------------------------------------------
# response problems
# ---------------------------------------------------------------------------

def test_response_problem_reproduces_contraction(ewl_game, ewl_stars):
    chi_star, xi_star = ewl_stars
    tensor = payoff_tensor_matrix_unit(ewl_game, "I")
    problem = response_problem(tensor, xi_star, "I")
    assert response_value(problem, chi_star) == pytest.approx(2.5, abs=1e-12)


def test_response_problem_agrees_on_random_strategies(rng):
    for _ in range(5):
        game = random_game(2, 2, rng)
        for player, opponent_first in (("I", False), ("II", True)):
            tensor = payoff_tensor_matrix_unit(game, player)
            opponent = random_chi(2, rng)
            problem = response_problem(tensor, opponent, player)
            for _ in range(10):
                mine = random_chi(2, rng)
                if player == "I":
                    full = payoff_contract(tensor, mine, opponent)
                else:
                    full = payoff_contract(tensor, opponent, mine)
                assert abs(response_value(problem, mine) - full) <= 1e-10


def test_response_problem_constant_game(rng):
    rho = random_density(4, rng)
    game = build_game(rho, np.eye(4), np.eye(4), 2, 2)
    problem = response_problem(payoff_tensor_matrix_unit(game, "I"), random_chi(2, rng), "I")
    for _ in range(5):
        assert response_value(problem, random_chi(2, rng)) == pytest.approx(1.0, abs=1e-10)


def test_response_problem_matrix_is_hermitian(rng):
    game = random_game(2, 2, rng)
    problem = response_problem(payoff_tensor_matrix_unit(game, "I"), random_chi(2, rng), "I")
    np.testing.assert_allclose(problem, problem.conj().T, atol=1e-12)


def test_response_problem_dimension_mismatch(ewl_game):
    tensor = payoff_tensor_matrix_unit(ewl_game, "I")
    with pytest.raises(DimensionMismatch):
        response_problem(tensor, identity_chi(3), "I")


# ---------------------------------------------------------------------------
# partial trace
# ---------------------------------------------------------------------------

def test_partial_trace_identity():
    chi = identity_chi(2)
    np.testing.assert_allclose(partial_trace_first(chi.matrix, 2), np.eye(2), atol=1e-14)


# ---------------------------------------------------------------------------
# best_response
# ---------------------------------------------------------------------------

def test_best_response_against_equilibrium(ewl_game, ewl_stars):
    _, xi_star = ewl_stars
    problem = response_problem(payoff_tensor_matrix_unit(ewl_game, "I"), xi_star, "I")
    result = best_response(problem)
    assert result.converged
    assert result.value == pytest.approx(2.5, abs=1e-6)
    assert result.dual_bound <= 2.5 + 1e-6
    assert result.gap <= 1e-6


def test_best_response_against_identity(ewl_game):
    problem = response_problem(payoff_tensor_matrix_unit(ewl_game, "I"), identity_chi(2), "I")
    result = best_response(problem)
    assert result.converged
    assert result.value == pytest.approx(5.0, abs=1e-6)


def test_best_response_constant_game(rng):
    rho = random_density(4, rng)
    game = build_game(rho, 2.0 * np.eye(4), 2.0 * np.eye(4), 2, 2)
    problem = response_problem(payoff_tensor_matrix_unit(game, "I"), random_chi(2, rng), "I")
    result = best_response(problem)
    assert result.value == pytest.approx(2.0, abs=1e-7)
    assert result.converged


def test_best_response_zero_objective(rng):
    rho = random_density(4, rng)
    game = build_game(rho, np.zeros((4, 4)), np.zeros((4, 4)), 2, 2)
    problem = response_problem(payoff_tensor_matrix_unit(game, "I"), random_chi(2, rng), "I")
    result = best_response(problem)
    assert result.value == result.dual_bound == result.gap == 0.0
    assert result.iterations == 0 and result.converged
    # canonical feasible point: the maximally mixing strategy
    np.testing.assert_array_equal(result.chi_opt.matrix, np.eye(4) / 2)


def test_best_response_weak_duality_and_feasibility(rng):
    for _ in range(6):
        game = random_game(2, 2, rng)
        problem = response_problem(payoff_tensor_matrix_unit(game, "I"), random_chi(2, rng), "I")
        result = best_response(problem)
        assert result.value <= result.dual_bound + 1e-8
        assert result.gap >= 0.0
        validate_chi(result.chi_opt.matrix, 2, tol=1e-7)


def test_best_response_monotone_certificates(rng):
    game = random_game(2, 2, rng)
    problem = response_problem(payoff_tensor_matrix_unit(game, "I"), random_chi(2, rng), "I")
    loose = best_response(problem, tol=1e-4)
    tight = best_response(problem, tol=1e-8)
    assert tight.value >= loose.value - (1e-4 - 1e-8)


@pytest.mark.parametrize("tol", [1e-4, 1e-7], ids=["1e-4", "1e-7"])
@pytest.mark.parametrize("n", [2, 3])
def test_best_response_stops_at_a_hundredth_of_tol(n, tol, rng):
    # the loop ends at max(STOP_GAP_RTOL, tol / 100) relative, and the gap
    # recomputed from the validated chi keeps it up to rounding
    stop = max(linalg.STOP_GAP_RTOL, tol * linalg.STOP_TOL_SHARE)
    saved = 0
    for _ in range(4):
        game = random_game(n, n, rng)
        problem = response_problem(payoff_tensor_matrix_unit(game, "I"), random_chi(n, rng), "I")
        result, default = best_response(problem, tol=tol), best_response(problem)
        assert result.converged
        assert result.gap <= (stop + 1e-13) * max(1.0, result.scale)
        assert result.iterations <= default.iterations
        saved += default.iterations - result.iterations
    assert saved > 0


def test_best_response_at_tol_zero_stops_at_the_floor(ewl_game, ewl_stars):
    # no gap reaches 0, so the floor ends the loop where the default does
    problem = response_problem(payoff_tensor_matrix_unit(ewl_game, "I"), ewl_stars[1], "I")
    result = best_response(problem, tol=0.0)
    assert result.iterations == 6
    assert result.gap == pytest.approx(8.88e-16, rel=0.01)
    assert not result.converged
    assert result._replace(converged=True, chi_opt=None) == best_response(problem)._replace(
        chi_opt=None)


def test_best_response_at_the_benchmark_tol_keeps_the_oracle_margin(ewl_game):
    # against the identity the optimum 5 lies on the oracle's grid, so a stop at
    # tol / 100 must still leave the value within the 1e-8 solver-vs-oracle margin
    tensor = payoff_tensor_matrix_unit(ewl_game, "I")
    oracle, _ = unitary_oracle(tensor, identity_chi(2), "I")
    result = best_response(response_problem(tensor, identity_chi(2), "I"), tol=1e-7)
    assert result.converged and oracle == 5.0
    assert result.value >= oracle - 1e-8


def test_best_response_qutrit_dimension(rng):
    # the strategy set is a 9x9 spectrahedron here; the certificate must
    # still close and dominate random extreme points
    game = random_game(3, 3, rng)
    tensor = payoff_tensor_matrix_unit(game, "I")
    opponent = random_chi(3, rng)
    problem = response_problem(tensor, opponent, "I")
    result = best_response(problem)
    assert result.converged
    validate_chi(result.chi_opt.matrix, 3, tol=1e-7)
    from qgame.random_ops import random_kraus_channel

    extreme = max(
        response_value(problem, kraus_to_chi(random_kraus_channel(3, rng)))
        for _ in range(100)
    )
    assert result.value >= extreme - 1e-8
    assert result.value <= result.dual_bound + 1e-8


def test_best_response_strategy_is_feasible(rng):
    # chi_opt lies in Omega_n at a tolerance well below the solver's, for
    # qubit and qutrit responders and for either player of a 2x3 game
    cases = [(2, 2, "I"), (3, 3, "I"), (2, 3, "I"), (2, 3, "II")]
    for n1, n2, player in cases:
        game = random_game(n1, n2, rng)
        opponent = random_chi(n2 if player == "I" else n1, rng)
        problem = response_problem(payoff_tensor_matrix_unit(game, player), opponent, player)
        result = best_response(problem)
        validate_chi(result.chi_opt.matrix, n1 if player == "I" else n2, tol=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_best_response_scaled_payoffs(seed):
    # payoffs of order 1e4: rounding must not trip the weak-duality guard
    rng = np.random.default_rng(seed)
    game = build_game(random_density(4, rng), 1e4 * random_hermitian(4, rng),
                      1e4 * random_hermitian(4, rng), 2, 2)
    opponent = random_chi(2, rng)
    result = best_response(response_problem(payoff_tensor_matrix_unit(game, "I"), opponent, "I"))
    assert result.value <= result.dual_bound + 1e-8
    validate_chi(result.chi_opt.matrix, 2, tol=1e-9)


@pytest.mark.parametrize("scale", [1e7, 1e8, 1e9], ids=["1e7", "1e8", "1e9"])
def test_large_payoffs_stay_real(scale):
    # rounding grows with the payoff scale: the tensor's Hermiticity pairing
    # must still hold, and imaginary parts are judged relative to the scale of
    # the operators, also when the profile pays about 0 (each payoff operator
    # shifted by -tr(R pi) I, with pi the profile's output state)
    for seed in range(20):
        for n1, n2 in ((2, 2), (2, 3), (3, 2)):
            rng = np.random.default_rng(seed)
            d = n1 * n2
            game = build_game(random_density(d, rng), random_hermitian(d, rng, scale),
                              random_hermitian(d, rng, scale), n1, n2)
            ch_a, ch_b = random_kraus_channel(n1, rng), random_kraus_channel(n2, rng)
            chi, xi = kraus_to_chi(ch_a), kraus_to_chi(ch_b)
            pi = apply_product_channel(ch_a, ch_b, game.rho).matrix
            shifted = build_game(game.rho, *(r - np.trace(r @ pi).real * np.eye(d)
                                             for r in (game.payoff_op_i, game.payoff_op_ii)),
                                 n1, n2)
            for g in (game, shifted):
                for player, own, opponent in (("I", chi, xi), ("II", xi, chi)):
                    tensor = payoff_tensor_matrix_unit(g, player)
                    value = payoff_contract(tensor, chi, xi)
                    direct = payoff_direct(g, ch_a, ch_b, player)
                    response = response_value(response_problem(tensor, opponent, player), own)
                    assert abs(direct - value) <= 1e-12 * scale
                    assert abs(response - value) <= 1e-12 * scale
            assert abs(payoff_direct(shifted, ch_a, ch_b, "I")) <= 1e-12 * scale


def test_best_response_large_constant_game(rng):
    # the trivial certificate closes a constant game before any Newton step
    game = build_game(random_density(4, rng), 1e6 * np.eye(4), 1e6 * np.eye(4), 2, 2)
    problem = response_problem(payoff_tensor_matrix_unit(game, "I"), random_chi(2, rng), "I")
    result = best_response(problem)
    assert result.converged
    assert result.iterations == 0
    assert result.value <= result.dual_bound + 1e-8
    validate_chi(result.chi_opt.matrix, 2, tol=1e-9)


def test_best_response_weak_duality_guard_is_relative():
    # payoffs of order 1e9 that player I cannot influence, R = I (x) Z: the
    # trivial certificate is exact, and value and bound differ by rounding
    # of order 1e-7, which is no weak-duality violation
    for seed in range(30):
        rng = np.random.default_rng(seed)
        r = np.kron(np.eye(2), random_hermitian(2, rng, 1e9))
        game = build_game(random_density(4, rng), r, r, 2, 2)
        problem = response_problem(payoff_tensor_matrix_unit(game, "I"), random_chi(2, rng), "I")
        result = best_response(problem)
        assert result.converged
        assert result.iterations == 0


@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
def test_best_response_rejects_a_tol_out_of_range(ewl_game, ewl_stars, tol):
    problem = response_problem(payoff_tensor_matrix_unit(ewl_game, "I"), ewl_stars[1], "I")
    with pytest.raises(ValueError, match="finite number >= 0"):
        best_response(problem, tol=tol)


NOT_A_LIMIT = [True, False, np.bool_(True), "1e-7", None, 1j]
NOT_A_LIMIT_IDS = ["true", "false", "numpy-bool", "str", "none", "complex"]


@pytest.mark.parametrize("tol", NOT_A_LIMIT, ids=NOT_A_LIMIT_IDS)
def test_best_response_rejects_a_tol_that_is_not_a_real_number(ewl_game, ewl_stars, tol):
    # True ran as tol = 1.0, and a string or None raised TypeError
    problem = response_problem(payoff_tensor_matrix_unit(ewl_game, "I"), ewl_stars[1], "I")
    with pytest.raises(ValueError, match=f"^tol must be a finite number >= 0, got {re.escape(repr(tol))}$"):
        best_response(problem, tol=tol)


def test_best_response_accepts_a_tol_of_any_real_type(ewl_game, ewl_stars):
    problem = response_problem(payoff_tensor_matrix_unit(ewl_game, "I"), ewl_stars[1], "I")
    for tol, as_float in ((np.float64(1e-7), 1e-7), (np.float32(1e-7), 1e-7), (0, 0.0),
                          (np.int64(0), 0.0)):
        result, expected = best_response(problem, tol=tol), best_response(problem, tol=as_float)
        assert (result.iterations, result.converged) == (expected.iterations, expected.converged)


def test_best_response_rejects_a_non_finite_response_matrix(ewl_game, ewl_stars):
    problem = response_problem(payoff_tensor_matrix_unit(ewl_game, "I"), ewl_stars[1], "I")
    matrix = problem.copy()
    matrix[0, 0] = np.inf
    with pytest.raises(ValidationError, match="response matrix has non-finite entries"):
        best_response(matrix)


def test_best_response_rejects_a_response_matrix_whose_spectral_norm_overflows(rng):
    # every entry is finite, but |H| is not a float: a precise ValidationError,
    # raised before any arithmetic on |H| could warn
    h = random_hermitian(4, rng)
    h /= np.abs(h).max()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="non-finite spectral norm"):
            best_response(1.7e308 * h)
        # a little lower, |H| is finite and the solve certifies its gap
        result = best_response(5e307 * h)
    assert result.converged and np.isfinite(result.scale)


def test_best_response_rejects_a_response_matrix_of_the_wrong_size(rng):
    # G's size fixes n: one that is not a square n^2 sizes no strategy
    for dim in (2, 3, 5, 8):
        with pytest.raises(DimensionMismatch, match=f"response matrix size {dim} is not a square"):
            best_response(random_hermitian(dim, rng))


@pytest.mark.parametrize("max_iters", [2.5, True, -1, "5", None],
                         ids=["float", "bool", "negative", "str", "none"])
def test_best_response_rejects_a_max_iters_that_is_not_a_count(ewl_game, ewl_stars, max_iters):
    problem = response_problem(payoff_tensor_matrix_unit(ewl_game, "I"), ewl_stars[1], "I")
    with pytest.raises(ValueError,
                       match=f"^max_iters must be an integer >= 0, got {re.escape(repr(max_iters))}$"):
        best_response(problem, max_iters=max_iters)


def test_best_response_accepts_a_numpy_integer_and_a_zero_budget(rng):
    problem = random_hermitian(4, rng)
    as_int = best_response(problem, max_iters=3)
    as_numpy = best_response(problem, max_iters=np.int64(3))
    assert as_int.iterations == 3
    assert ((as_numpy.value, as_numpy.dual_bound, as_numpy.iterations)
            == (as_int.value, as_int.dual_bound, as_int.iterations))
    # no iteration: the start points alone are certified
    start = best_response(problem, max_iters=0)
    assert start.iterations == 0 and start.value <= start.dual_bound
    assert start.value == pytest.approx(np.trace(problem).real / 2, abs=1e-12)


def test_best_response_starved_budget_reports_unconverged(ewl_game, rng):
    opponent = random_chi(2, rng)
    problem = response_problem(payoff_tensor_matrix_unit(ewl_game, "I"), opponent, "I")
    result = best_response(problem, max_iters=1, tol=1e-30)
    assert not result.converged
    assert result.gap > 0
    validate_chi(result.chi_opt.matrix, 2, tol=1e-7)  # best iterate still feasible


def test_best_response_keeps_its_best_iterate_when_a_step_fails(ewl_game, rng, monkeypatch):
    # a step that fails (rounding takes X or S to the boundary) ends the solve
    # where one iteration does, with no exception
    problem = response_problem(payoff_tensor_matrix_unit(ewl_game, "I"), random_chi(2, rng), "I")
    one_step = best_response(problem, max_iters=1)
    steps = []

    def failing_second_step(*args):
        steps.append(args)
        if len(steps) == 2:
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return nt_step(*args)

    nt_step = equilibrium._nt_step
    monkeypatch.setattr(equilibrium, "_nt_step", failing_second_step)
    result = best_response(problem)
    assert len(steps) == 2 and result.iterations == 1 and not result.converged
    assert (result.value, result.dual_bound) == (one_step.value, one_step.dual_bound)
    np.testing.assert_array_equal(result.chi_opt.matrix, one_step.chi_opt.matrix)


@pytest.mark.parametrize("kind", ["singular", "indefinite", "nan"])
def test_a_step_from_an_x_that_is_not_positive_definite_raises_and_the_best_pair_stays(
        ewl_game, rng, monkeypatch, kind):
    # the step tests X > 0 through its eigh of L^H X L: the real step must
    # raise, and best_response must keep the pair of its first step
    problem = response_problem(payoff_tensor_matrix_unit(ewl_game, "I"), random_chi(2, rng), "I")
    one_step = best_response(problem, max_iters=1)
    x_bad = np.diag({"singular": [0.5, 0.5, 0.5, 0.0], "indefinite": [0.5, 0.5, 0.5, -0.5],
                     "nan": [0.5, 0.5, 0.5, 0.5]}[kind]).astype(complex)
    if kind == "nan":
        x_bad[3, 2] = np.nan
    steps = []

    def second_step_from_x_bad(x, y, ls, n, stop):
        steps.append(n)
        return nt_step(x_bad if len(steps) == 2 else x, y, ls, n, stop)

    nt_step = equilibrium._nt_step
    monkeypatch.setattr(equilibrium, "_nt_step", second_step_from_x_bad)
    result = best_response(problem)
    assert len(steps) == 2 and result.iterations == 1 and not result.converged
    assert (result.value, result.dual_bound) == (one_step.value, one_step.dual_bound)
    np.testing.assert_array_equal(result.chi_opt.matrix, one_step.chi_opt.matrix)


def test_a_step_whose_schur_matrix_is_singular_raises_and_the_best_pair_stays(
        ewl_game, rng, monkeypatch):
    # the solve gufunc returns NaN for a singular Schur matrix, and the NaN
    # reaches the step lengths: the step must raise, not take a full step
    problem = response_problem(payoff_tensor_matrix_unit(ewl_game, "I"), random_chi(2, rng), "I")
    one_step = best_response(problem, max_iters=1)
    scalings = []

    def singular_from_the_second_scaling(x, ls):
        g, lam = nt_scaling(x, ls)
        scalings.append(g)
        if len(scalings) > 1:
            # the first row of every block row of G is zero, so tr_1(W (I (x) dY) W)
            # has a zero first row for every dY: the Schur matrix is exactly singular
            g = g.copy()
            g[::2] = 0.0
        return g, lam

    nt_scaling = equilibrium._nt_scaling
    monkeypatch.setattr(equilibrium, "_nt_scaling", singular_from_the_second_scaling)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = best_response(problem)
        x, y = np.eye(4, dtype=complex) / 2, 4.0 * np.eye(2, dtype=complex)
        ls, _ = equilibrium._dual_point(y, problem, 2)
        with pytest.raises(np.linalg.LinAlgError, match="step length is not finite"):
            equilibrium._nt_step(x, y, ls, 2, linalg.STOP_GAP_RTOL)
    assert len(scalings) == 3 and result.iterations == 1 and not result.converged
    assert (result.value, result.dual_bound) == (one_step.value, one_step.dual_bound)
    np.testing.assert_array_equal(result.chi_opt.matrix, one_step.chi_opt.matrix)


def test_a_corrector_step_length_that_is_not_finite_ends_the_solve_at_the_start(
        ewl_game, ewl_stars, monkeypatch):
    # only the corrector's stacked (2, d, d) call fails: all NaN, with the invalid flag raised
    eigvalsh_lo = linalg.lapack.eigvalsh_lo

    def failing_stacked_call(a, *args, **kwargs):
        if a.ndim == 3:
            return np.sqrt(np.full(a.shape[:-1], -1.0))
        return eigvalsh_lo(a, *args, **kwargs)

    monkeypatch.setattr(linalg.lapack, "eigvalsh_lo", failing_stacked_call)
    problem = response_problem(payoff_tensor_matrix_unit(ewl_game, "I"), ewl_stars[1], "I")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = best_response(problem)
    # the start pair X = I/2, and the bound of the trivial certificates
    assert ((result.value, result.dual_bound, result.iterations, result.converged)
            == (2.25, 2.5, 0, False))


def _hermitian_with_spectrum(basis: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """A Hermitian matrix with the given spectrum, in the unitary factor of ``basis``."""
    q = np.linalg.qr(basis)[0]
    m = (q * spectrum) @ q.conj().T
    return 0.5 * (m + m.conj().T)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_nt_scaling_scales_x_and_s_to_one_diagonal(n):
    rng = np.random.default_rng([23, n])
    size = n * n

    def gaussian():
        return rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))

    for _ in range(50):
        x, s = (_hermitian_with_spectrum(gaussian(), rng.uniform(0.5, 2.0, size))
                for _ in range(2))
        g, lam = equilibrium._nt_scaling(x, np.linalg.cholesky(s))
        assert np.linalg.norm(g * lam @ g.conj().T - x, 2) <= 1e-13 * np.linalg.norm(x, 2)
        assert np.linalg.norm(g.conj().T @ s @ g - np.diag(lam), 2) <= 1e-13 * lam.max()
        # near the boundary, as in the last iterations: X and S almost commute
        # and every eigenvalue of X S is within a factor of 10 of 1e-12
        basis = gaussian()
        spectrum = np.geomspace(1e-6, 1.0, size)
        rng.shuffle(spectrum)
        x = _hermitian_with_spectrum(basis, spectrum)
        s = _hermitian_with_spectrum(np.linalg.qr(basis)[0] + 1e-3 * gaussian() / size,
                                     1e-12 / spectrum)
        eig_xs = np.linalg.eigvals(x @ s).real
        assert np.all((1e-13 < eig_xs) & (eig_xs < 1e-11))
        g, lam = equilibrium._nt_scaling(x, np.linalg.cholesky(s))
        assert np.linalg.norm(g * lam @ g.conj().T - x, 2) <= 1e-12 * np.linalg.norm(x, 2)


def test_best_response_iterates_stay_feasible_and_hermitian(ewl_game, ewl_stars, monkeypatch):
    # tr_1(X) = I is kept by a congruence, not by a constraint of the step; the
    # predictor pair that ends a solve passes through the same congruence
    iterates, finishes = [], []

    def recording_step(x, y, ls, n, stop):
        iterates.append((*nt_step(x, y, ls, n, stop), n))
        # a step that never finishes on the predictor runs the corrector
        corrected = nt_step(x, y, ls, n, -math.inf)
        finishes.append(any(np.any(a != b) for a, b in zip(iterates[-1], corrected)))
        return iterates[-1][:2]

    nt_step = equilibrium._nt_step
    monkeypatch.setattr(equilibrium, "_nt_step", recording_step)
    chi_star, xi_star = ewl_stars
    problems = [response_problem(payoff_tensor_matrix_unit(ewl_game, "I"), xi_star, "I"),
                response_problem(payoff_tensor_matrix_unit(ewl_game, "II"), chi_star, "II")]
    for n in (2, 3, 4):
        rng = np.random.default_rng([7, n])
        for n1, n2, player in ((n, 2, "I"), (2, n, "II")):
            tensor = payoff_tensor_matrix_unit(random_game(n1, n2, rng), player)
            problems.append(response_problem(tensor, random_chi(2, rng), player))
    ends = []
    for problem in problems:
        count = len(iterates)
        assert best_response(problem).iterations == len(iterates) - count > 0
        # only the last step of a solve may end on its predictor
        assert not any(finishes[count:-1])
        ends.append(finishes[-1])
    # the bundled equilibrium's two solves end on theirs
    assert ends[:2] == [True, True]
    for x, y, n in iterates:
        np.testing.assert_array_equal(x, x.conj().T)
        np.testing.assert_array_equal(y, y.conj().T)
        assert np.abs(partial_trace_first(x, n) - np.eye(n)).max() <= 1e-13


def test_the_predictor_finish_moves_only_where_the_path_ends(ewl_game, ewl_stars, monkeypatch):
    # a step ends on its predictor pair only once that pair's gap is within the
    # stop, so a solve cut short of its last iteration is the always-correcting one
    problems = [response_problem(payoff_tensor_matrix_unit(ewl_game, "I"), ewl_stars[1], "I")]
    for n in (2, 3):
        rng = np.random.default_rng([11, n])
        tensor = payoff_tensor_matrix_unit(random_game(n, n, rng), "I")
        problems.append(response_problem(tensor, random_chi(n, rng), "I"))

    def answers(problem, count, tol):
        results = (best_response(problem, max_iters=k, tol=tol) for k in range(count))
        return [(r.value, r.dual_bound, r.gap, r.iterations, r.chi_opt.matrix.tobytes())
                for r in results]

    cases = [(problem, tol) for problem in problems for tol in (1e-7, linalg.SOLVE_TOL)]
    counts = [best_response(problem, tol=tol).iterations for problem, tol in cases]
    cut_short = [answers(problem, count, tol) for (problem, tol), count in zip(cases, counts)]
    nt_step = equilibrium._nt_step
    monkeypatch.setattr(equilibrium, "_nt_step",
                        lambda x, y, ls, n, stop: nt_step(x, y, ls, n, -math.inf))
    longer = [best_response(problem, tol=tol).iterations for problem, tol in cases]
    assert all(count <= most for count, most in zip(counts, longer)) and counts != longer
    assert cut_short == [answers(problem, count, tol)
                         for (problem, tol), count in zip(cases, counts)]


@pytest.mark.parametrize("n", [2, 3])
def test_dual_point_factors_a_feasible_slack_and_shifts_an_infeasible_one(rng, n):
    h = random_hermitian(n * n, rng)
    eig_h = np.linalg.eigvalsh(h)
    eye = np.eye(n, dtype=complex)
    # the solver's start point: S is positive definite, and tr(Y) is the bound
    y = (eig_h[-1] + np.abs(eig_h).max()) * eye
    factor, bound = equilibrium._dual_point(y, h, n)
    np.testing.assert_allclose(factor @ factor.conj().T, np.kron(eye, y) - h, rtol=0, atol=1e-13)
    assert bound == y.trace().real
    # lambda_min(S) = -0.5: no factor, and the bound shifts Y by 0.5 I; the
    # failed factorisation's invalid flag stays inside _dual_point
    y = (eig_h[-1] - 0.5) * eye
    s = np.kron(eye, y) - h
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        factor, bound = equilibrium._dual_point(y, h, n)
    assert factor is None
    assert bound == y.trace().real + n * -np.linalg.eigvalsh(s)[0]
    assert bound == pytest.approx(n * eig_h[-1], abs=1e-12)


def test_cached_constants_are_read_only_and_do_not_leak_between_solves(rng):
    # the loop's per-n constants are built once and shared by every solve
    problem_a = random_hermitian(4, rng)
    problem_b = random_hermitian(9, rng)
    first = best_response(problem_a)
    best_response(problem_b)
    again = best_response(problem_a)
    for n in (2, 3):
        for constant in equilibrium._constants(n):
            assert constant.flags.writeable is False
    assert ((first.value, first.dual_bound, first.gap, first.iterations)
            == (again.value, again.dual_bound, again.gap, again.iterations))
    assert first.chi_opt.matrix.tobytes() == again.chi_opt.matrix.tobytes()


def test_verify_nash_propagates_no_convergence(ewl_game, ewl_stars, monkeypatch):
    from qgame.errors import NoConvergence

    # both solves starved: a gap no float reaches, within 30 iterations
    solve = equilibrium.best_response
    monkeypatch.setattr(equilibrium, "best_response",
                        lambda problem: solve(problem, max_iters=30, tol=1e-30))
    chi_star, xi_star = ewl_stars
    with pytest.raises(NoConvergence) as err:
        verify_nash(ewl_game, chi_star, xi_star, epsilon=1e-5)
    partial = err.value.partial
    assert partial is not None
    assert abs(partial.gap_i) < 1e-3  # partial gaps still reported


def test_best_response_player_two(ewl_game, ewl_stars):
    chi_star, _ = ewl_stars
    problem = response_problem(payoff_tensor_matrix_unit(ewl_game, "II"), chi_star, "II")
    result = best_response(problem)
    assert result.converged
    assert result.value == pytest.approx(2.5, abs=1e-6)


def test_best_response_iteration_budget(ewl_game, ewl_stars):
    # the primal-dual method needs 6 iterations per player on the bundled
    # equilibrium and about 10 on random qubit and qutrit problems
    chi_star, xi_star = ewl_stars
    for player, opponent in (("I", xi_star), ("II", chi_star)):
        problem = response_problem(payoff_tensor_matrix_unit(ewl_game, player), opponent, player)
        assert best_response(problem).iterations <= 15
    iterations = []
    for seed in range(8):
        for n1, n2 in ((2, 2), (2, 3), (3, 3)):
            rng = np.random.default_rng([seed, n1, n2])
            game = random_game(n1, n2, rng)
            for player, n_opponent in (("I", n2), ("II", n1)):
                tensor = payoff_tensor_matrix_unit(game, player)
                result = best_response(response_problem(tensor, random_chi(n_opponent, rng), player))
                assert result.converged
                iterations.append(result.iterations)
    assert np.mean(iterations) <= 25


def assert_certified_gaps_are_tight(scale, seeds, dims):
    for seed in seeds:
        for n1, n2 in dims:
            rng = np.random.default_rng([seed, n1, n2])
            d = n1 * n2
            game = build_game(random_density(d, rng), random_hermitian(d, rng, scale),
                              random_hermitian(d, rng, scale), n1, n2)
            for player, n_opponent in (("I", n2), ("II", n1)):
                tensor = payoff_tensor_matrix_unit(game, player)
                problem = response_problem(tensor, random_chi(n_opponent, rng), player)
                result = best_response(problem)
                assert result.converged
                norm = max(1.0, float(np.abs(np.linalg.eigvalsh(problem)).max()))
                assert result.dual_bound - result.value <= 1e-10 * norm


@pytest.mark.parametrize("scale", [1.0, 1e4, 1e9], ids=["1", "1e4", "1e9"])
def test_best_response_certified_gap_is_tight(scale):
    # the endgame closes the certified gap far below the default tolerance,
    # relative to the scale of the payoffs
    assert_certified_gaps_are_tight(scale, range(6), ((2, 2), (2, 3), (3, 3)))


@pytest.mark.parametrize("scale", [1.0, 1e4, 1e9], ids=["1", "1e4", "1e9"])
def test_best_response_certified_gap_is_tight_at_n4_and_n5(scale):
    # responders at n = 4 and 5, where the Schur matrix and each stacked pair
    # of step-length matrices are at least 16 x 16
    assert_certified_gaps_are_tight(scale, range(2), ((4, 2), (2, 4), (5, 2), (4, 3)))


# ---------------------------------------------------------------------------
# unitary oracle
# ---------------------------------------------------------------------------

def test_oracle_reaches_spectral_bound_via_bit_flip(ewl_game):
    tensor = payoff_tensor_matrix_unit(ewl_game, "I")
    value, unitary = unitary_oracle(tensor, identity_chi(2), "I")
    assert value == pytest.approx(5.0, abs=1e-9)
    # the maximizer acts like the bit flip on the payoff
    chi_u = kraus_to_chi(shift_channel(2, 1))
    problem = response_problem(tensor, identity_chi(2), "I")
    assert response_value(problem, chi_u) == pytest.approx(value, abs=1e-9)


def test_oracle_never_beats_certified_best_response(ewl_game, ewl_stars):
    _, xi_star = ewl_stars
    tensor = payoff_tensor_matrix_unit(ewl_game, "I")
    value, _ = unitary_oracle(tensor, xi_star, "I")
    assert value <= 2.5 + 1e-9


def test_oracle_constant_game(rng):
    rho = random_density(4, rng)
    game = build_game(rho, 1.5 * np.eye(4), 1.5 * np.eye(4), 2, 2)
    tensor = payoff_tensor_matrix_unit(game, "I")
    value, _ = unitary_oracle(tensor, random_chi(2, rng), "I")
    assert value == pytest.approx(1.5, abs=1e-10)


def test_oracle_grid_size_and_unitarity(ewl_game):
    tensor = payoff_tensor_matrix_unit(ewl_game, "I")
    _, unitary = unitary_oracle(tensor, identity_chi(2), "I")
    np.testing.assert_allclose(unitary @ unitary.conj().T, np.eye(2), atol=1e-12)


def test_oracle_takes_no_resolution(ewl_game):
    # the grid is fixed at 24 steps, on which the identity and the bit flip lie
    tensor = payoff_tensor_matrix_unit(ewl_game, "I")
    with pytest.raises(TypeError, match="resolution"):
        unitary_oracle(tensor, identity_chi(2), "I", resolution=24)


def test_oracle_rejects_large_dimension(rng):
    game = random_game(3, 3, rng)
    tensor = payoff_tensor_matrix_unit(game, "I")
    with pytest.raises(UnsupportedDimension):
        unitary_oracle(tensor, identity_chi(3), "I")


def test_oracle_dominated_by_solver_on_random_opponents(rng):
    for _ in range(4):
        game = random_game(2, 2, rng)
        tensor = payoff_tensor_matrix_unit(game, "I")
        opponent = random_chi(2, rng)
        oracle_value, _ = unitary_oracle(tensor, opponent, "I")
        result = best_response(response_problem(tensor, opponent, "I"))
        assert result.value >= oracle_value - 1e-8
        assert result.value <= result.dual_bound + 1e-8


# ---------------------------------------------------------------------------
# verify_nash
# ---------------------------------------------------------------------------

def test_verify_nash_equilibrium(ewl_game, ewl_stars):
    chi_star, xi_star = ewl_stars
    report = verify_nash(ewl_game, chi_star, xi_star, epsilon=1e-6)
    assert report.is_equilibrium
    assert report.gap_i <= 1e-6 and report.gap_ii <= 1e-6
    assert report.payoff_i == pytest.approx(2.5, abs=1e-10)
    assert report.response_i.converged and report.response_ii.converged
    # the paper's certificate, exactly: common payoff 5/2, and no better response
    assert report.gap_i == report.gap_ii == 0.0
    for response in (report.response_i, report.response_ii):
        assert (response.dual_bound, response.iterations) == (2.5, 6)


def _same_report(a, b):
    assert a[:5] == b[:5]
    for ra, rb in ((a.response_i, b.response_i), (a.response_ii, b.response_ii)):
        assert ra._replace(chi_opt=None) == rb._replace(chi_opt=None)
        np.testing.assert_array_equal(ra.chi_opt.matrix, rb.chi_opt.matrix)


def test_verify_nash_takes_each_norm_from_its_best_response(ewl_game, ewl_stars, monkeypatch):
    profiles = [ewl_stars, (identity_chi(2), identity_chi(2))]
    reports = [verify_nash(ewl_game, *profile, epsilon=1e-6) for profile in profiles]

    def norm(*args, **kwargs):
        raise AssertionError("a second norm of H")

    monkeypatch.setattr(np.linalg, "norm", norm)
    for profile, report in zip(profiles, reports):
        _same_report(verify_nash(ewl_game, *profile, epsilon=1e-6), report)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e3, 1e9], ids=["1e-6", "1", "1e3", "1e9"])
def test_best_response_scale_is_the_spectral_norm_of_the_hermitian_part(scale, rng):
    for n in (2, 3):
        g = scale * random_hermitian(n * n, rng)
        expected = np.linalg.norm(hermitian_part(g), 2)
        result = best_response(g, max_iters=5)
        assert abs(result.scale - expected) <= 4 * np.finfo(float).eps * max(1.0, expected)


def test_verify_nash_reports_the_payoffs_that_payoff_contract_gives():
    # the payoffs `qgame payoff` prints, bit for bit: another contraction
    # order can differ from payoff_contract's by an ulp
    rng = np.random.default_rng(5)
    for _ in range(75):
        for n1, n2 in ((2, 2), (2, 3), (3, 2), (3, 3)):
            game = random_game(n1, n2, rng)
            chi, xi = random_chi(n1, rng), random_chi(n2, rng)
            try:
                report = verify_nash(game, chi, xi, epsilon=1e-5)
            except NoConvergence as err:
                report = err.partial
            tensors = [payoff_tensor_matrix_unit(game, player) for player in ("I", "II")]
            assert ((report.payoff_i, report.payoff_ii)
                    == tuple(payoff_contract(tensor, chi, xi) for tensor in tensors))


def test_verify_nash_forms_three_response_matrices(ewl_game, ewl_stars, monkeypatch):
    # player I's G(xi) gives both the payoff and the best response
    calls = []

    def counted(*args):
        calls.append(args)
        return response_problem(*args)

    for module in (game_module, equilibrium):
        monkeypatch.setattr(module, "response_problem", counted)
    for profile in (ewl_stars, (identity_chi(2), identity_chi(2))):
        calls.clear()
        verify_nash(ewl_game, *profile, epsilon=1e-6)
        assert len(calls) == 3


def test_verify_nash_detects_classical_defection(ewl_game):
    chi_id = identity_chi(2)
    report = verify_nash(ewl_game, chi_id, chi_id, epsilon=1e-6)
    assert not report.is_equilibrium
    assert report.gap_i >= 2 - 1e-6
    assert report.gap_ii >= 2 - 1e-6


def test_verify_nash_large_epsilon(ewl_game, ewl_stars):
    chi_star, xi_star = ewl_stars
    report = verify_nash(ewl_game, chi_star, xi_star, epsilon=10.0)
    assert report.is_equilibrium


@pytest.mark.parametrize("epsilon", [-1.0, float("nan"), float("inf")])
def test_verify_nash_rejects_an_epsilon_out_of_range(ewl_game, ewl_stars, epsilon):
    with pytest.raises(ValueError, match="finite number >= 0"):
        verify_nash(ewl_game, *ewl_stars, epsilon=epsilon)


@pytest.mark.parametrize("epsilon", NOT_A_LIMIT, ids=NOT_A_LIMIT_IDS)
def test_verify_nash_rejects_an_epsilon_that_is_not_a_real_number(ewl_game, ewl_stars, epsilon):
    # True passed as epsilon = 1.0, and a string or None raised TypeError
    with pytest.raises(ValueError,
                       match=f"^epsilon must be a finite number >= 0, got {re.escape(repr(epsilon))}$"):
        verify_nash(ewl_game, *ewl_stars, epsilon=epsilon)


def test_verify_nash_accepts_a_numpy_epsilon(ewl_game, ewl_stars):
    for epsilon in (np.float64(1e-6), np.float32(1e-6), 0):
        assert verify_nash(ewl_game, *ewl_stars, epsilon=epsilon).is_equilibrium


def test_verify_nash_gap_self_consistency(ewl_game):
    chi_id = identity_chi(2)
    report = verify_nash(ewl_game, chi_id, chi_id, epsilon=1e-6)
    again = verify_nash(ewl_game, chi_id, chi_id,
                        epsilon=max(report.gap_i, report.gap_ii) + 1e-9)
    assert again.is_equilibrium


# ---------------------------------------------------------------------------
# scripts
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent


def _script_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_script(name, *args):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=_script_env(), capture_output=True, text=True, timeout=120)


def test_best_response_scan_script_runs():
    proc = run_script("best_response_scan.py", "--trials", "6", "--random-games")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("script, args", [
    ("reference_game_report.py", ()),
    ("simulate_matches.py", ("--rounds", "1000")),
], ids=["reference_game_report", "simulate_matches"])
def test_script_runs(script, args):
    proc = run_script(script, *args)
    assert proc.returncode == 0, proc.stderr


def test_solver_fingerprint_prints_one_digest_per_group():
    proc = run_script("solver_fingerprint.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["tuned", "held-out", "stress", "bundled"]
    assert all(re.fullmatch(r"\S+ +problems +\d+ +iterations +\d+ +sha256 [0-9a-f]{64}", line)
               for line in lines)


@pytest.mark.parametrize("group, most", [("stress", 321), ("bundled", 48)], ids=["stress", "bundled"])
def test_fingerprint_group_iterations_do_not_rise(group, most):
    # a solver change may not raise the total iterations over a fingerprint group;
    # the two solve corpora have their ceilings in test_perfbench_api.py
    spec = importlib.util.spec_from_file_location("solver_fingerprint",
                                                  ROOT / "scripts" / "solver_fingerprint.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    problems = {"stress": script.stress_problems, "bundled": script.bundled_problems}[group]()
    _, iterations = script.fingerprint(problems)
    assert iterations <= most


@pytest.mark.parametrize("script, args", [
    ("reference_game_report.py", ()),
    ("simulate_matches.py", ("--rounds", "1000", "--seed", "0")),
    ("best_response_scan.py", ("--trials", "3")),
    ("solver_fingerprint.py", ()),
], ids=["reference_game_report", "simulate_matches", "best_response_scan", "solver_fingerprint"])
def test_script_exits_quietly_when_its_reader_closes(script, args):
    # unbuffered, each line is written as it is printed, so the lines after
    # the first meet a closed pipe
    env = {**_script_env(), "PYTHONUNBUFFERED": "1"}
    proc = subprocess.Popen([sys.executable, str(ROOT / "scripts" / script), *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
    proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0, err
    assert "Traceback" not in err and "BrokenPipeError" not in err


@pytest.mark.parametrize("epsilon", ["-1", "nan", "-1e-3"])
def test_reference_report_rejects_an_epsilon_out_of_range(epsilon):
    proc = run_script("reference_game_report.py", "--epsilon", epsilon)
    assert proc.returncode == 2
    assert "must be a finite number >= 0" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("script, args, message", [
    ("simulate_matches.py", ("--rounds", "0"), "a positive integer"),
    ("simulate_matches.py", ("--seed", "-1"), "an integer in [0, 2^64 - 1]"),
    ("best_response_scan.py", ("--trials", "-1"), "a positive integer"),
    ("simulate_matches.py", ("--rounds", str(2 ** 63)), "a positive integer below 2^63"),
])
def test_scripts_reject_arguments_out_of_range(script, args, message):
    proc = run_script(script, *args)
    assert proc.returncode == 2
    assert f"must be {message}" in proc.stderr and "Traceback" not in proc.stderr


def test_best_response_scan_has_no_resolution_option():
    proc = run_script("best_response_scan.py", "--resolution", "24")
    assert proc.returncode == 2
    assert "unrecognized arguments: --resolution 24" in proc.stderr
    assert "Traceback" not in proc.stderr
