import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import channel_action_distance, paper_rho
from qgame import files, linalg
from qgame.errors import (
    CompletenessViolation,
    DimensionMismatch,
    NoConvergence,
    NotHermitian,
    NotPositive,
    QGameError,
    TraceConditionViolation,
    TraceNotOne,
)
from qgame.game import matrix_unit_basis
from qgame.quantum import (
    ChiMatrix,
    KrausChannel,
    _output_state_limit,
    apply_product_channel,
    density_checks,
    identity_chi,
    kraus_form,
    kraus_to_chi,
    measure_probs,
    shift_channel,
    validate_chi,
    validate_density,
    validate_kraus,
)
from qgame.random_ops import random_chi, random_complex, random_density, random_kraus_channel

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
UNITS = matrix_unit_basis(2)  # UNITS[i*2 + j] is the matrix unit (i, j)
RESET_OPS = [UNITS[0], UNITS[1]]  # measure-and-reset to state 0
ONE = shift_channel(1, 0)  # the trivial second factor: a product with it acts on one factor


# ---------------------------------------------------------------------------
# validate_density
# ---------------------------------------------------------------------------

def test_validate_density_accepts_reference_state():
    state = validate_density(paper_rho())
    assert state.dim == 4


def test_validate_density_accepts_maximally_mixed():
    validate_density(np.eye(4) / 4)


def test_validate_density_trace_check_precedes_positivity():
    # trace is exactly 1 but one eigenvalue is negative
    with pytest.raises(NotPositive):
        validate_density(np.diag([0.6, 0.6, -0.2, 0.0]).astype(complex))


def test_validate_density_trace_violation():
    with pytest.raises(TraceNotOne) as err:
        validate_density(np.diag([0.45, 0.45]).astype(complex))
    assert "0.1" in str(err.value) or "1.000e-01" in str(err.value)


def test_validate_density_hermiticity():
    bad = np.diag([0.5, 0.5]).astype(complex)
    bad[0, 1] = 0.1
    with pytest.raises(NotHermitian):
        validate_density(bad)


def _verdict(validate):
    try:
        validate()
    except QGameError as exc:
        return type(exc), str(exc)
    return None


def _same_verdict(m, tol=None):
    """validate_density's verdict, asserted equal to that of the checks it stands for."""
    expected = _verdict(lambda: linalg.require(density_checks(np.asarray(m, dtype=complex), tol)))
    assert _verdict(lambda: validate_density(m, tol)) == expected
    return expected


def _state_with_min_eigenvalue(d, lam, rng):
    rest = rng.uniform(0.5, 1.5, d - 1)
    w = np.concatenate(([lam], rest * (1 - lam) / rest.sum()))
    u, _ = np.linalg.qr(random_complex(rng, (d, d)))
    return (u * w) @ u.conj().T


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_validate_density_matches_checks_on_random_states(n, rng):
    for d in (n, n * n):
        for _ in range(5):
            state = random_density(d, rng).matrix
            for tol in (None, 0.0, _output_state_limit(None, n, n)):
                _same_verdict(state, tol)


@pytest.mark.parametrize("limit", ["default", "explicit", "product re-check"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_validate_density_positivity_at_its_limit(n, limit, rng):
    tol = {"default": None, "explicit": 1e-6, "product re-check": _output_state_limit(None, n, n)}[limit]
    psd = linalg.limit(linalg.PSD_ATOL, tol)
    for d in (n, n * n):
        assert _same_verdict(_state_with_min_eigenvalue(d, -0.99 * psd, rng), tol) is None
        verdict = _same_verdict(_state_with_min_eigenvalue(d, -1.01 * psd, rng), tol)
        assert verdict is not None and verdict[0] is NotPositive


def test_validate_density_pure_state_at_zero_tolerance(rng):
    # rho is singular, so its factorisation fails; lambda_min = 0 passes the eigenvalue check
    assert _same_verdict(np.diag([1.0, 0, 0, 0]), 0.0) is None
    psi = random_complex(rng, 4)
    _same_verdict(np.outer(psi, psi.conj()) / np.vdot(psi, psi).real, 0.0)


@pytest.mark.parametrize("tol", [None, 1e-6])
def test_validate_density_reports_hermiticity_and_trace_as_checks_do(tol, rng):
    limit = linalg.limit(linalg.HERMITIAN_ATOL, tol)
    skewed = random_density(4, rng).matrix.copy()
    skewed[0, 1] += 2 * limit
    assert _same_verdict(skewed, tol)[0] is NotHermitian
    scaled = (1 + 2 * linalg.limit(linalg.TRACE_ATOL, tol)) * random_density(4, rng).matrix
    assert _same_verdict(scaled, tol)[0] is TraceNotOne


def test_validate_density_accepts_without_an_eigenvalue_solve(monkeypatch, rng):
    def no_eigenvalue(_):
        raise AssertionError("an accepted state needs no eigenvalue")

    states = [random_density(d, rng).matrix for d in (2, 4, 9, 16, 36)]
    monkeypatch.setattr(linalg, "min_eigenvalue", no_eigenvalue)
    for state in states:
        validate_density(state)


# ---------------------------------------------------------------------------
# validate_kraus
# ---------------------------------------------------------------------------

def test_validate_kraus_identity():
    ch = validate_kraus([np.eye(2)])
    assert ch.n_operators == 1


def test_validate_kraus_reset_channel():
    # direct multiplication: unit(0,0)^dag unit(0,0) + unit(0,1)^dag unit(0,1) = I
    total = sum(op.conj().T @ op for op in RESET_OPS)
    np.testing.assert_array_equal(total, np.eye(2))
    validate_kraus(RESET_OPS)


def test_validate_kraus_overcomplete():
    with pytest.raises(CompletenessViolation):
        validate_kraus([PAULI_X, np.eye(2)])


def test_validate_kraus_mixed_dims():
    with pytest.raises(DimensionMismatch):
        validate_kraus([np.eye(2), np.eye(3)])


# ---------------------------------------------------------------------------
# channel action
# ---------------------------------------------------------------------------

def test_apply_channel_identity(rng):
    rho = random_density(3, rng)
    out = apply_product_channel(shift_channel(3, 0), ONE, rho)
    np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-14)


def test_apply_channel_reset_sends_everything_to_ground(rng):
    reset = validate_kraus(RESET_OPS)
    for _ in range(5):
        rho = random_density(2, rng)
        out = apply_product_channel(reset, ONE, rho)
        np.testing.assert_allclose(out.matrix, np.diag([1.0, 0.0]), atol=1e-12)


def test_apply_channel_bit_flip():
    out = apply_product_channel(KrausChannel(PAULI_X[None]), ONE,
                                validate_density(np.diag([1.0, 0.0])))
    np.testing.assert_allclose(out.matrix, np.diag([0.0, 1.0]), atol=1e-14)


def test_apply_channel_dimension_mismatch(rng):
    with pytest.raises(DimensionMismatch):
        apply_product_channel(shift_channel(2, 0), ONE, random_density(3, rng))


def test_apply_channel_output_limit_grows_with_dimension():
    # state and channel each pass with a defect of 0.99e-9, and the output's
    # trace is off by about 1.09e-8, above the old fixed limit of 1e-8
    n, eps = 10, 0.99e-9
    plus = np.full((n, n), 1.0 / n)
    rho = validate_density((1 + eps) * plus)
    # I + eps J = I + eps n P, P the projector on |+>: its root is I + (sqrt(1 + eps n) - 1) P
    channel = validate_kraus([np.eye(n) + (np.sqrt(1 + eps * n) - 1) * plus])
    out = apply_product_channel(channel, ONE, rho)
    assert abs(np.trace(out.matrix) - 1) == pytest.approx((1 + eps) * (1 + eps * n) - 1, rel=1e-6)


def test_apply_channel_rejects_a_channel_that_is_not_trace_preserving():
    with pytest.raises(TraceNotOne):
        apply_product_channel(KrausChannel(2 * np.eye(2)[None]), ONE,
                              validate_density(np.diag([1.0, 0.0])))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_apply_channel_output_is_valid_state(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    ch = random_kraus_channel(n, rng)
    rho = random_density(n, rng)
    out = apply_product_channel(ch, ONE, rho)
    assert abs(np.trace(out.matrix) - 1) <= 1e-9
    assert np.min(np.linalg.eigvalsh(out.matrix)) >= -1e-8


def test_apply_product_channel_identity_pair(ewl_game):
    out = apply_product_channel(shift_channel(2, 0), shift_channel(2, 0), ewl_game.rho)
    np.testing.assert_allclose(out.matrix, paper_rho(), atol=1e-14)


def test_apply_product_channel_flip_first_factor(ewl_game):
    # oracle: conjugate by X (x) I explicitly
    u = np.kron(PAULI_X, np.eye(2))
    expected = u @ paper_rho() @ u.conj().T
    out = apply_product_channel(KrausChannel(PAULI_X[None]), shift_channel(2, 0), ewl_game.rho)
    np.testing.assert_allclose(out.matrix, expected, atol=1e-14)
    assert abs(np.trace(out.matrix) - 1) < 1e-12
    # support moved onto the middle basis states
    assert abs(out.matrix[1, 1] - 0.5) < 1e-12 and abs(out.matrix[2, 2] - 0.5) < 1e-12


def test_apply_product_channel_double_flip():
    rho = validate_density(np.diag([1.0, 0, 0, 0]))
    flip = KrausChannel(PAULI_X[None])
    out = apply_product_channel(flip, flip, rho)
    np.testing.assert_allclose(out.matrix, np.diag([0.0, 0, 0, 1.0]), atol=1e-14)


@pytest.mark.parametrize("rank", ["1", "n", "n^2", "1,n2^2", "n1^2,1"])
@pytest.mark.parametrize("n1, n2", [(2, 3), (3, 2), (2, 5), (5, 2), (4, 5)])
def test_apply_product_channel_matches_joint_kraus(n1, n2, rank, rng):
    ranks = {"1": (1, 1), "n": (n1, n2), "n^2": (n1 * n1, n2 * n2),
             "1,n2^2": (1, n2 * n2), "n1^2,1": (n1 * n1, 1)}[rank]
    ch_a = random_kraus_channel(n1, rng, ranks[0])
    ch_b = random_kraus_channel(n2, rng, ranks[1])
    rho = random_density(n1 * n2, rng)
    expected = sum(np.kron(e, f) @ rho.matrix @ np.kron(e, f).conj().T
                   for e in ch_a.operators for f in ch_b.operators)
    out = apply_product_channel(ch_a, ch_b, rho)
    assert np.max(np.abs(out.matrix - expected)) <= 1e-12


def test_output_state_limit_covers_inputs_valid_at_default_tolerances():
    # rho's trace and both completeness sums are off by 0.99e-9, each within its
    # default limit of 1e-9; the output's trace is off by about 1.1e-8, within
    # the limit (1 + 2 * 5 * 6) * 1e-9 that the first-order bound gives
    n, eps = 5, 0.99e-9
    plus = np.full(n * n, 1 / n)  # |+>|+> with |+> the uniform superposition
    rho = validate_density((1 + eps) * np.outer(plus, plus))
    # sqrt(I + eps J), J all ones: J = n |+><+| has eigenvalue n on |+> and 0 elsewhere
    op = np.eye(n) + (np.sqrt(1 + n * eps) - 1) / n * np.ones((n, n))
    ch = validate_kraus([op])
    out = apply_product_channel(ch, ch, rho)
    assert 1e-8 < abs(np.trace(out.matrix) - 1) <= 61e-9


def test_output_state_check_rejects_a_non_trace_preserving_channel(ewl_game):
    doubling = KrausChannel(2 * np.eye(2)[None])  # built directly, so never validated
    with pytest.raises(TraceNotOne, match="residual 3.000e"):
        apply_product_channel(doubling, shift_channel(2, 0), ewl_game.rho)


# ---------------------------------------------------------------------------
# chi representation
# ---------------------------------------------------------------------------

def test_kraus_to_chi_reset_is_chi_star():
    chi = kraus_to_chi(validate_kraus(RESET_OPS))
    np.testing.assert_allclose(chi.matrix, np.diag([1.0, 1.0, 0.0, 0.0]), atol=1e-14)


def test_kraus_to_chi_shifted_reset_is_xi_star():
    chi = kraus_to_chi(validate_kraus([UNITS[2], UNITS[3]]))
    np.testing.assert_allclose(chi.matrix, np.diag([0.0, 0.0, 1.0, 1.0]), atol=1e-14)


@pytest.mark.parametrize("rank", ["1", "n", "n^2"])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_kraus_to_chi_matches_its_definition(n, rank, rng):
    # chi = sum_k vec(E_k) vec(E_k)^dag with vec the row-major flattening
    ch = random_kraus_channel(n, rng, {"1": 1, "n": n, "n^2": n * n}[rank])
    expected = sum(np.outer(e.reshape(-1), e.reshape(-1).conj()) for e in ch.operators)
    assert np.max(np.abs(kraus_to_chi(ch).matrix - expected)) <= 1e-13


def test_kraus_to_chi_identity():
    chi = kraus_to_chi(shift_channel(2, 0))
    expected = np.zeros((4, 4))
    expected[np.ix_([0, 3], [0, 3])] = 1.0
    np.testing.assert_allclose(chi.matrix, expected, atol=1e-14)


def test_validate_chi_accepts_equilibrium_strategies(ewl_stars):
    chi_star, xi_star = ewl_stars
    validate_chi(chi_star.matrix, 2)
    validate_chi(xi_star.matrix, 2)


def test_validate_chi_rejects_zero():
    with pytest.raises(TraceConditionViolation):
        validate_chi(np.zeros((4, 4)), 2)


def test_validate_chi_rejects_indefinite():
    # Hermitian, trace sums fine, but not PSD
    chi = identity_chi(2).matrix.copy()
    chi[1, 1] = -0.5
    chi[2, 2] = 0.5
    with pytest.raises(NotPositive):
        validate_chi(chi, 2)


def test_validate_chi_dimension():
    with pytest.raises(DimensionMismatch):
        validate_chi(np.eye(4), 3)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_way_of_building_a_chi_matrix_gives_its_n(n, rng):
    # the matrix is the record's only field, so n is read from its n^2 x n^2 size
    channel = random_kraus_channel(n, rng)
    matrix = kraus_to_chi(channel).matrix
    built = [ChiMatrix(matrix), ChiMatrix(matrix=matrix), ChiMatrix._make([matrix]),
             identity_chi(5)._replace(matrix=matrix), validate_chi(matrix, n, tol=1e-9),
             kraus_to_chi(channel), identity_chi(n)]
    for chi in built:
        assert chi._fields == ("matrix",)
        assert (chi.n, chi.dim) == (n, n * n)


NOT_N_SQUARED = {"5x5": np.eye(5), "4x2": np.zeros((4, 2)), "1-D": np.ones(4),
                 "0x0": np.zeros((0, 0))}


@pytest.mark.parametrize("matrix", NOT_N_SQUARED.values(), ids=NOT_N_SQUARED)
def test_a_chi_matrix_must_be_n_squared_by_n_squared(matrix):
    for build in (ChiMatrix, lambda m: ChiMatrix._make([m]),
                  lambda m: identity_chi(2)._replace(matrix=m)):
        with pytest.raises(DimensionMismatch, match=r"^chi matrix must be n\^2 x n\^2, n >= 1"):
            build(matrix)


def test_kraus_form_never_meets_a_chi_whose_size_and_n_disagree():
    # no record pairs a 5x5 matrix with a qubit's n, so kraus_form never reshapes one
    with pytest.raises(DimensionMismatch):
        kraus_form(identity_chi(2)._replace(matrix=np.eye(5)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(0, 1))
def test_strategy_set_is_convex(seed, t):
    rng = np.random.default_rng(seed)
    chi1 = random_chi(2, rng)
    chi2 = random_chi(2, rng)
    validate_chi(t * chi1.matrix + (1 - t) * chi2.matrix, 2)


def test_mixture_of_identity_and_bitflip_is_valid():
    chi_id = identity_chi(2)
    chi_flip = kraus_to_chi(shift_channel(2, 1))
    mixed = validate_chi(0.5 * (chi_id.matrix + chi_flip.matrix), 2)
    out = apply_product_channel(kraus_form(mixed), ONE, validate_density(np.diag([1.0, 0.0])))
    np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-14)


def test_chi_to_kraus_identity_is_single_operator():
    ch = kraus_form(identity_chi(2))
    assert ch.n_operators == 1
    op = ch.operators[0]
    phase = op[0, 0] / abs(op[0, 0])
    np.testing.assert_allclose(op / phase, np.eye(2), atol=1e-12)


def test_chi_to_kraus_reset_round_trip(ewl_stars):
    chi_star, _ = ewl_stars
    extracted = kraus_form(chi_star)
    assert extracted.n_operators == 2
    reference = validate_kraus(RESET_OPS)
    assert channel_action_distance(extracted, reference, 2) <= 1e-8


def test_chi_to_kraus_rank_counts_eigenvalues(rng):
    chi = random_chi(2, rng, n_operators=1)
    assert kraus_form(chi).n_operators == 1


def test_kraus_form_operators_come_largest_first(ewl_stars, rng):
    for chi, rank in ((ewl_stars[0], 2), (random_chi(3, rng, n_operators=3), 3)):
        norms = np.linalg.norm(kraus_form(chi).operators, axis=(1, 2))
        assert len(norms) == rank and np.all(np.diff(norms) <= 0)


def test_kraus_form_reports_an_eigensolver_failure(monkeypatch):
    # all NaN, as a failed call leaves them, with the invalid flag raised
    def eigh_lo(a, signature=None):
        return np.sqrt(np.full(a.shape[:-1], -1.0)), np.full(a.shape, np.nan, dtype=complex)

    monkeypatch.setattr(linalg.lapack, "eigh_lo", eigh_lo)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoConvergence, match="did not converge"):
            files.load_strategy("chi_star.strategy", 2)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_chi_round_trip_preserves_action(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    ch = random_kraus_channel(n, rng)
    rebuilt = kraus_form(kraus_to_chi(ch))
    assert channel_action_distance(ch, rebuilt, n) <= 1e-8


def test_kraus_to_chi_output_always_valid(rng):
    for _ in range(10):
        n = int(rng.integers(2, 4))
        chi = kraus_to_chi(random_kraus_channel(n, rng))
        validate_chi(chi.matrix, n)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def test_measure_probs_projective_on_pure_state():
    povm = validate_kraus([UNITS[0], UNITS[3]])
    probs = measure_probs(povm, validate_density(np.diag([1.0, 0.0])))
    np.testing.assert_allclose(probs, [1.0, 0.0], atol=1e-14)


def test_measure_probs_maximally_mixed():
    povm = validate_kraus([UNITS[0], UNITS[3]])
    probs = measure_probs(povm, validate_density(np.eye(2) / 2))
    np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-14)


def test_measure_probs_rejects_a_state_of_another_dimension():
    povm = validate_kraus([UNITS[0], UNITS[3]])
    with pytest.raises(DimensionMismatch, match="^POVM dim 2 != state dim 4$"):
        measure_probs(povm, validate_density(np.eye(4) / 4))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_measure_probs_is_a_distribution(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    # any Kraus decomposition is also a valid measurement
    povm = validate_kraus(random_kraus_channel(n, rng).operators)
    probs = measure_probs(povm, random_density(n, rng))
    assert np.all(probs >= -1e-9)
    assert np.all(probs <= 1 + 1e-9)
    assert abs(probs.sum() - 1) <= 1e-9


def test_states_are_immutable(rng):
    rho = random_density(2, rng)
    with pytest.raises((ValueError, RuntimeError)):
        rho.matrix[0, 0] = 9.0
