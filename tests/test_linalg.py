import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qgame import cli, equilibrium, files, game, linalg, quantum
from qgame.cli import build_parser
from qgame.equilibrium import MAX_ITERS
from qgame.errors import (DimensionMismatch, NoConvergence, NotHermitian, NotPositive,
                          UnsupportedDimension, ValidationError)
from qgame.game import (
    PayoffTensor,
    QuantumGame,
    _consistency_check,
    matrix_unit_basis,
    payoff_tensor_general,
    payoff_tensor_matrix_unit,
    response_problem,
    validate_tensor_entries,
)
from qgame.games_builtin import ewl_prisoners_dilemma
from qgame.quantum import (
    DensityMatrix,
    _output_state_limit,
    chi_checks,
    completeness_check,
    density_checks,
    identity_chi,
    validate_kraus,
)
from qgame.linalg import (
    HERMITIAN_ATOL,
    Check,
    as_matrix,
    hermitian_check,
    hermitian_part,
    min_eigenvalue,
    require,
)

def kron_by_blocks(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Independent brute-force Kronecker product via explicit block expansion."""
    da, db = a.shape[0], b.shape[0]
    out = np.zeros((da * db, da * db), dtype=complex)
    for p in range(da):
        for r in range(da):
            out[p * db:(p + 1) * db, r * db:(r + 1) * db] = a[p, r] * b
    return out


def random_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


# ---------------------------------------------------------------------------
# Kronecker index convention
# ---------------------------------------------------------------------------
# The joint label of the two players' factors is p*n2 + q throughout the
# package (joint states, product channels, the payoff tensor's closed form);
# that is numpy's kron convention, pinned here on matrix units.

def test_kron_matrix_units_combine_indices():
    units2, units4 = matrix_unit_basis(2), matrix_unit_basis(4)
    # unit (0,0) (x) unit (0,0) is the 4x4 unit at (0,0)
    np.testing.assert_array_equal(np.kron(units2[0], units2[0]), units4[0])
    # unit (0,1) (x) unit (1,0): combined row 0*2+1 = 1, column 1*2+0 = 2
    np.testing.assert_array_equal(np.kron(units2[1], units2[2]), units4[1 * 4 + 2])


def test_kron_index_identity_all_units():
    n = 2
    units, joint = matrix_unit_basis(n), matrix_unit_basis(n * n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    got = np.kron(units[i * n + j], units[k * n + l])
                    np.testing.assert_array_equal(got, joint[(i * n + k) * n * n + j * n + l])


def test_kron_matches_block_expansion(rng):
    for _ in range(20):
        a = random_matrix(rng, int(rng.integers(1, 4)))
        b = random_matrix(rng, int(rng.integers(1, 4)))
        np.testing.assert_allclose(np.kron(a, b), kron_by_blocks(a, b), atol=1e-14)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def test_check_passes_iff_residual_within_limit():
    assert Check("c", 1e-9, 1e-9, ValidationError, "").passed
    assert not Check("c", 2e-9, 1e-9, ValidationError, "").passed
    assert not Check("c", float("nan"), 1e-9, ValidationError, "").passed


def test_require_raises_first_failure_and_stops():
    seen = []

    def checks():
        for name, residual, error in (("a", 0.0, NotHermitian), ("b", 1.0, NotPositive),
                                      ("c", 1.0, NotHermitian)):
            seen.append(name)
            yield Check(name, residual, 0.5, error, f"residual {residual}")

    with pytest.raises(NotPositive) as err:
        require(checks())
    assert "b failed: residual 1.0 (limit 0.5)" in str(err.value)
    assert seen == ["a", "b"]


def test_is_psd_examples():
    # positivity is judged by the "positive" check of states and strategies
    def positive(m):
        checks = {check.name: check for check in density_checks(m)}
        return checks["density matrix positive"].passed

    assert positive(np.eye(2) / 2)
    assert not positive(np.diag([2.0, -1.0]))
    assert positive(np.diag([1.0 + 1e-10, -1e-10]))  # within PSD_ATOL


def test_hermitian_check_examples():
    assert hermitian_check(np.eye(2) / 2).passed
    skewed = np.eye(2, dtype=complex)
    skewed[0, 1] = 1e-6
    check = hermitian_check(skewed)
    assert not check.passed and check.residual == pytest.approx(1e-6)
    assert hermitian_check(skewed, tol=1e-5).passed


def test_paper_state_is_rank_one_projector():
    from conftest import paper_rho

    rho = paper_rho()
    np.testing.assert_allclose(rho @ rho, rho, atol=1e-14)  # idempotent
    assert abs(np.trace(rho) - 1) < 1e-14
    assert min_eigenvalue(rho) >= -1e-12
    np.testing.assert_allclose(np.linalg.eigvalsh(rho), [0.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_psd_implies_principal_minors(rng):
    for _ in range(10):
        a = random_matrix(rng, 4)
        m = a @ a.conj().T
        assert min_eigenvalue(m) >= -1e-9
        diag = np.real(np.diag(m))
        minors = np.outer(diag, diag) - np.abs(m) ** 2
        assert np.min(minors) >= -1e-9


def test_min_eigenvalue_matches_spectrum():
    assert min_eigenvalue(np.diag([3.0, -2.0, 1.0])) == pytest.approx(-2.0)


@pytest.mark.parametrize("name, args", [
    ("cholesky_lo", (-np.eye(4, dtype=complex),)),
    ("solve1", (np.zeros((4, 4), dtype=complex), np.ones(4, dtype=complex))),
])
def test_a_failing_lapack_gufunc_fills_its_output_with_nan_and_flags_invalid(name, args):
    # the solver's loop reads its failures from these outputs, not from LinAlgError
    gufunc = getattr(linalg.lapack, name)
    with np.errstate(invalid="ignore"):
        out = gufunc(*args)
    assert out.shape == args[-1].shape and np.isnan(out).all()
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        gufunc(*args)


@pytest.mark.parametrize("d", [4, 9, 36])
def test_cholesky_factor_is_numpys_factor_bit_for_bit(d, rng):
    for _ in range(3):
        a = random_matrix(rng, d)
        m = a @ a.conj().T + 1e-3 * np.eye(d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            factor = linalg.cholesky_factor(m)
        np.testing.assert_array_equal(factor, np.linalg.cholesky(m))


@pytest.mark.parametrize("d", [4, 9, 36])
def test_spectrum_is_numpys_eigvalsh_bit_for_bit(d, rng):
    for _ in range(3):
        m = hermitian_part(random_matrix(rng, d))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eig = linalg.spectrum(m)
        np.testing.assert_array_equal(eig, np.linalg.eigvalsh(m))


@pytest.fixture(params=[-1.0, np.nan], ids=["flagged", "unflagged"])
def failed_eigvalsh(request, monkeypatch):
    # all NaN, as a failed call leaves them: sqrt(-1) raises the invalid flag, sqrt(nan) does not
    def eigvalsh_lo(a, signature=None):
        return np.sqrt(np.full(a.shape[:-1], request.param))

    monkeypatch.setattr(linalg.lapack, "eigvalsh_lo", eigvalsh_lo)


def _xi_star_problem(ewl_game, ewl_stars):
    return response_problem(payoff_tensor_matrix_unit(ewl_game, "I"), ewl_stars[1], "I")


@pytest.mark.parametrize("call", [
    lambda game, stars: min_eigenvalue(np.eye(4)),
    lambda game, stars: equilibrium._dual_point(
        0 * np.eye(2), hermitian_part(_xi_star_problem(game, stars)), 2),
    lambda game, stars: equilibrium.best_response(_xi_star_problem(game, stars)),
], ids=["min_eigenvalue", "dual_point", "best_response"])
def test_a_failed_eigenvalue_call_raises_no_convergence_and_no_warning(
        call, ewl_game, ewl_stars, failed_eigvalsh):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoConvergence, match="did not converge"):
            call(ewl_game, ewl_stars)


def test_validate_exits_4_on_a_failed_eigenvalue_call(failed_eigvalsh, capsys):
    assert cli.main(["validate", "ewl.game"]) == cli.EXIT_NO_CONVERGENCE == 4
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("no convergence: ")


def test_a_numpy_without_a_gufunc_fails_at_import():
    code = "import numpy.linalg._umath_linalg as m; del m.eigh_lo; import qgame"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode != 0
    assert proc.stderr.rstrip().endswith(
        f"ImportError: numpy {np.__version__} lacks the LAPACK gufuncs ['eigh_lo'] that qgame calls")


def _indefinite(rng):
    # shifted between its two least eigenvalues
    a = hermitian_part(random_matrix(rng, 4))
    return a - 0.5 * (min_eigenvalue(a) + np.linalg.eigvalsh(a)[1]) * np.eye(4)


def _nan_below_the_diagonal():
    # LAPACK need not fail on it, but the NaN reaches the factor's last diagonal entry
    m = np.eye(4, dtype=complex)
    m[3, 2] = np.nan
    return m


@pytest.mark.parametrize("make", [lambda rng: -np.eye(4, dtype=complex), _indefinite,
                                  lambda rng: _nan_below_the_diagonal()],
                         ids=["minus-identity", "indefinite", "nan-entry"])
def test_cholesky_factor_is_none_without_a_factor_and_lets_no_warning_out(make, rng):
    m = make(rng)
    assert np.isnan(m).any() or min_eigenvalue(m) < 0
    with warnings.catch_warnings(), np.errstate(invalid="warn"):
        warnings.simplefilter("error")
        assert linalg.cholesky_factor(m) is None


def test_eigh_gufuncs_on_a_nan_entry_return_what_the_wrappers_do_without_a_flag():
    # neither fails: the solver's positivity and finiteness tests must catch the NaN
    a = np.eye(4, dtype=complex)
    a[3, 2] = np.nan
    with np.errstate(invalid="raise"):
        lam2, u = linalg.lapack.eigh_lo(a)
        lam = linalg.lapack.eigvalsh_lo(a)
    assert np.isnan(lam).any() and not (lam2 > 0.0).all()
    np.testing.assert_array_equal(lam, np.linalg.eigvalsh(a))
    np.testing.assert_array_equal(lam2, lam)
    wrapped_lam2, wrapped_u = np.linalg.eigh(a)
    np.testing.assert_array_equal(lam2, wrapped_lam2)
    np.testing.assert_array_equal(u, wrapped_u)


def test_as_matrix_rejects_non_finite():
    with pytest.raises(ValidationError):
        as_matrix(np.array([[np.inf, 0], [0, 1]], dtype=complex))


@pytest.mark.parametrize("shape, message", [
    ((2, 3), r"matrix must be square, got shape \(2, 3\)"),
    ((0, 0), "matrix must be at least 1x1"),
], ids=["2x3", "0x0"])
def test_as_matrix_rejects_a_shape_that_is_not_a_square_matrix(shape, message):
    with pytest.raises(DimensionMismatch, match=f"^{message}$"):
        as_matrix(np.zeros(shape))


def test_hermitian_tolerance_constant_is_tight():
    m = np.eye(2, dtype=complex)
    m[0, 1] = HERMITIAN_ATOL / 2
    m[1, 0] = -HERMITIAN_ATOL / 2  # anti-Hermitian perturbation below tolerance
    assert hermitian_check(m).passed


# ---------------------------------------------------------------------------
# the tolerance ledger
# ---------------------------------------------------------------------------

LEDGER = {
    "HERMITIAN_ATOL": 1e-10,
    "PSD_ATOL": 1e-9,
    "TRACE_ATOL": 1e-9,
    "MEASUREMENT_ATOL": 1e-9,
    "KRAUS_RANK_TOL": 1e-10,
    "OUTPUT_STATE_ATOL": 1e-8,
    "PAIRING_ATOL": 1e-10,
    "IMAG_RTOL": 1e-9,
    "CROSS_CHECK_ATOL": 1e-9,
    "WEAK_DUALITY_RTOL": 1e-8,
    "STOP_GAP_RTOL": 1e-12,
    "STOP_TOL_SHARE": 1e-2,
    "CHI_OPT_ATOL": 1e-7,
    "TENSOR_BYTES_MAX": 2 ** 28,
    "SOLVE_TOL": 1e-10,
    "NASH_EPSILON": 1e-6,
}


def test_ledger_defaults_are_pinned():
    assert {name: getattr(linalg, name) for name in LEDGER} == LEDGER
    assert MAX_ITERS == 5000


def test_tol_replaces_the_limits_the_ledger_marks():
    tol = 3.7e-6
    povm = validate_kraus([np.eye(2)])
    checks = [hermitian_check(np.eye(2), tol), *density_checks(np.eye(2) / 2, tol),
              *chi_checks(identity_chi(2).matrix, 2, tol), completeness_check(povm.operators, tol),
              _consistency_check(povm, np.ones(1), np.eye(2), "I", tol)]
    assert [check.limit for check in checks] == [tol] * 10
    assert _output_state_limit(tol, 2, 2) == max(linalg.OUTPUT_STATE_ATOL, 13 * tol)


def _tol_entry_points():
    """Each library function that takes ``tol``, called on valid inputs at a given tol."""
    ewl = ewl_prisoners_dilemma()
    args = (ewl.game.rho.matrix, ewl.game.payoff_op_i, ewl.game.payoff_op_ii, 2, 2)
    chi, one = identity_chi(2), quantum.shift_channel(2, 0)
    povm, a_i, a_ii = files.load_povm_file("ewl.povm", 4)
    return {
        "validate_density": lambda tol: quantum.validate_density(np.eye(2) / 2, tol),
        "validate_chi": lambda tol: quantum.validate_chi(chi.matrix, 2, tol),
        "validate_kraus": lambda tol: validate_kraus([np.eye(2)], tol),
        "density_checks": lambda tol: list(density_checks(np.eye(2) / 2, tol)),
        "chi_checks": lambda tol: list(chi_checks(chi.matrix, 2, tol)),
        "completeness_check": lambda tol: completeness_check(np.eye(2)[None], tol),
        "hermitian_check": lambda tol: hermitian_check(np.eye(2), tol),
        "apply_product_channel": lambda tol: quantum.apply_product_channel(one, one,
                                                                           ewl.game.rho, tol),
        "kraus_form_loss": lambda tol: quantum.kraus_form_loss(2, tol),
        "game_checks": lambda tol: list(game.game_checks(*args, tol)),
        "build_game": lambda tol: game.build_game(*args, tol),
        "simulate_play": lambda tol: game.simulate_play(ewl.game, povm, a_i, a_ii, one, one, 10,
                                                        np.random.default_rng(0), tol),
        "load_game": lambda tol: files.load_game("ewl.game", tol),
        "game_file_checks": lambda tol: files.game_file_checks("ewl.game", tol),
        "load_strategy": lambda tol: files.load_strategy("chi_star.strategy", 2, tol),
        "load_povm_file": lambda tol: files.load_povm_file("ewl.povm", 4, tol),
    }


TOL_ENTRY_POINTS = _tol_entry_points()


@pytest.mark.parametrize("tol", [True, np.bool_(True), -1.0, float("nan"), float("inf"), "1e-3", 1j],
                         ids=["true", "numpy-bool", "negative", "nan", "inf", "str", "complex"])
@pytest.mark.parametrize("entry", TOL_ENTRY_POINTS)
def test_every_tol_entry_point_rejects_a_tol_that_is_not_a_finite_number(entry, tol):
    # True and inf were accepted as limits, -1.0 failed the first check it met,
    # and a string or complex raised TypeError
    with pytest.raises(ValueError, match=f"^tol must be a finite number >= 0, got {re.escape(repr(tol))}$"):
        TOL_ENTRY_POINTS[entry](tol)


@pytest.mark.parametrize("tol", [None, 0, 1e-6, np.float64(1e-6), sys.float_info.max],
                         ids=["none", "zero", "float", "numpy-float", "largest-float"])
@pytest.mark.parametrize("entry", TOL_ENTRY_POINTS)
def test_every_tol_entry_point_accepts_none_or_a_finite_number(entry, tol):
    # at the largest float a product channel's output-state limit stays finite
    TOL_ENTRY_POINTS[entry](tol)


def test_tensor_pairing_is_judged_at_its_fixed_limit():
    entries = np.zeros((2, 2, 2, 2), dtype=complex)
    entries[0, 1, 0, 1] = 0.9 * linalg.PAIRING_ATOL
    validate_tensor_entries(entries)
    entries[0, 1, 0, 1] = 1.1 * linalg.PAIRING_ATOL
    with pytest.raises(ValidationError, match=f"limit {linalg.PAIRING_ATOL:g}"):
        validate_tensor_entries(entries)


def test_tensor_size_is_checked_before_the_entries_are_formed(monkeypatch):
    def einsum(*args, **kwargs):
        raise AssertionError("entries formed")

    monkeypatch.setattr(np, "einsum", einsum)
    # the check charges the einsum's peak, 56 bytes an entry: n1 = n2 = 6 (6^8 entries,
    # 94 MB) is admitted, as perfbench's tensor_bytes counter needs, and n1 = n2 = 7 is not
    factors = np.zeros((6, 6, 6, 6), dtype=complex)
    with pytest.raises(AssertionError, match="entries formed"):
        PayoffTensor(factors, factors).entries
    factors = np.zeros((7, 7, 7, 7), dtype=complex)
    with pytest.raises(UnsupportedDimension, match="5764801 entries need 322828856 bytes at peak"):
        PayoffTensor(factors, factors).grid


def test_trace_formula_size_is_checked_before_anything_is_formed(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("basis products formed")

    monkeypatch.setattr(np, "stack", fail)
    monkeypatch.setattr(np, "kron", fail)
    # the check charges the trace formula's peak, 80 bytes per entry of its largest array:
    # n1 = n2 = 6 (6^8 entries, 134 MB) is admitted and n1 = n2 = 7 is not
    for n, raised, message in ((6, AssertionError, "basis products formed"),
                               (7, UnsupportedDimension, "need 461184080 bytes at peak")):
        ops = np.zeros((n * n, n * n))
        game = QuantumGame(DensityMatrix(np.eye(n * n) / (n * n)), ops, ops, n, n)
        with pytest.raises(raised, match=message):
            payoff_tensor_general(game, "I")


def test_hermitian_part_cannot_overflow(rng):
    big = np.array([[1e308, 1e308j], [-1e308j, -1e308]])
    assert np.array_equal(hermitian_part(big), big)
    # halving first is exact: the same bits as (m + m^dag) / 2 wherever that is finite
    for scale in (1e-300, 1.0, 1e300):
        m = scale * random_matrix(rng, 4)
        assert np.array_equal(hermitian_part(m), 0.5 * (m + m.conj().T))


def test_parser_defaults_are_the_ledger_names():
    parser = build_parser()
    response = parser.parse_args(["best-response", "ewl.game", "xi_star.strategy", "I"])
    assert response.br_tol == linalg.SOLVE_TOL
    nash = parser.parse_args(["verify-nash", "ewl.game", "chi_star.strategy", "xi_star.strategy"])
    assert nash.epsilon == linalg.NASH_EPSILON


def test_readme_tolerance_table_is_the_ledger():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    printed = dict(re.findall(r"^\| `([A-Z_]+)` \| ([^ |]+) \|", readme, re.MULTILINE))
    assert printed.keys() == LEDGER.keys()
    for name, value in printed.items():
        assert getattr(linalg, name) == float(value), name
