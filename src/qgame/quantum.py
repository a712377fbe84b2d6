"""Quantum primitives: states, channels, chi matrices, and measurements.

A physical operation on n-dimensional states is carried either as a set of
Kraus operators ``{E_k}`` with ``sum_k E_k^dag E_k = I`` or as its chi matrix
over the matrix-unit operator basis.  The basis label pair ``(i, j)`` is
flattened 0-based row-major to ``a = i*n + j`` everywhere, so the chi matrix
of a channel on n-dimensional operators is an n^2-by-n^2 positive Hermitian
matrix obeying the trace-preservation sums

    sum_i chi[(i,j), (i,l)] = delta_jl

i.e. the partial trace of chi over the first index factor is the identity.
The set of all such matrices ("Omega") is exactly the set of completely
positive trace-preserving maps; it is compact and convex.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    CompletenessViolation,
    DimensionMismatch,
    NotInOmega,
    NotPositive,
    TraceConditionViolation,
    TraceNotOne,
    ValidationError,
)
from .linalg import Check, ComplexMatrix

KRAUS_RANK_TOL = 1e-10


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


def partial_trace_first(m: np.ndarray, n: int) -> np.ndarray:
    """Partial trace over the first factor of the flattened (i, j) label."""
    return np.einsum("ijil->jl", m.reshape(n, n, n, n))


@dataclass(frozen=True)
class DensityMatrix:
    """A validated quantum state: positive Hermitian matrix of trace 1."""

    matrix: ComplexMatrix

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(self.matrix))

    def __array__(self, dtype=None, copy=None):
        """A copy of the matrix, so that numpy reads a state as it reads any array."""
        return np.array(self.matrix, dtype=dtype)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class KrausChannel:
    """A physical operation given by Kraus operators stacked along axis 0."""

    operators: np.ndarray  # shape (k, dim, dim)

    def __post_init__(self):
        object.__setattr__(self, "operators", _frozen(self.operators))

    @property
    def dim(self) -> int:
        return self.operators.shape[1]

    @property
    def n_operators(self) -> int:
        return self.operators.shape[0]


@dataclass(frozen=True)
class ChiMatrix:
    """A strategy in the chi representation over the matrix-unit basis.

    ``matrix`` has dimension n^2 with rows/columns labelled by the flattened
    basis index ``(i, j) -> i*n + j``.
    """

    matrix: ComplexMatrix
    n: int

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(self.matrix))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Povm:
    """A measurement: operators ``{M_k}`` with ``sum_k M_k^dag M_k = I``."""

    elements: np.ndarray  # shape (L, dim, dim)

    def __post_init__(self):
        object.__setattr__(self, "elements", _frozen(self.elements))

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    @property
    def outcome_count(self) -> int:
        return self.elements.shape[0]

    @property
    def effects(self) -> np.ndarray:
        """The effects ``M_k^dag M_k``, stacked along axis 0."""
        return np.einsum("kai,kaj->kij", self.elements.conj(), self.elements)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------
# Each condition is written once, as a ``Check`` or a generator of them in
# the order the validators raise on them; ``qgame validate`` lists them all.
# Positivity is not checked on a matrix that is not Hermitian.

def _hermitian_positive_checks(a: ComplexMatrix, tol: float | None, what: str) -> Iterator[Check]:
    hermitian = linalg.hermitian_check(a, tol, what)
    yield hermitian
    if hermitian.passed:
        lo = linalg.min_eigenvalue(a)
        yield Check(f"{what} positive", -lo, linalg.limit(linalg.PSD_ATOL, tol), NotPositive,
                    f"min eigenvalue {lo:.3e}")


def density_checks(a: ComplexMatrix, tol: float | None = None,
                   what: str = "density matrix") -> Iterator[Check]:
    """Trace one, Hermiticity and positivity of a square matrix, in that order."""
    residual = abs(complex(np.trace(a)) - 1.0)
    yield Check(f"{what} trace-one", residual, linalg.limit(linalg.TRACE_ATOL, tol), TraceNotOne,
                f"residual {residual:.3e}")
    yield from _hermitian_positive_checks(a, tol, what)


def chi_checks(a: ComplexMatrix, n: int, tol: float | None = None) -> Iterator[Check]:
    """Hermiticity, positivity, trace-preservation sums and 2x2 principal minors of chi."""
    yield from _hermitian_positive_checks(a, tol, "chi matrix")
    residual = float(np.max(np.abs(partial_trace_first(a, n) - np.eye(n))))
    yield Check("chi matrix trace-preservation", residual, linalg.limit(linalg.TRACE_ATOL, tol),
                TraceConditionViolation, f"residual {residual:.3e}")
    diag = np.real(np.diag(a))
    minor = float(np.min(np.outer(diag, diag) - np.abs(a) ** 2))
    yield Check("chi matrix principal minors", -minor, linalg.limit(linalg.PSD_ATOL, tol),
                NotPositive, f"smallest minor {minor:.3e}")


def operator_stack(ops, what: str) -> np.ndarray:
    """Stack a non-empty set of equal-size square matrices along axis 0."""
    mats = [linalg.as_matrix(op, what) for op in ops]
    sizes = [m.shape[0] for m in mats]
    if len(set(sizes)) != 1:
        raise DimensionMismatch(f"need one or more {what}s of equal size, got sizes {sizes}")
    return np.stack(mats)


def completeness_check(stacked: np.ndarray, tol: float | None = None,
                       what: str = "operator set") -> Check:
    """The completeness sum ``sum_k A_k^dag A_k = I`` of Kraus sets and measurements."""
    total = np.einsum("kai,kaj->ij", stacked.conj(), stacked)
    residual = float(np.max(np.abs(total - np.eye(stacked.shape[1]))))
    return Check(f"{what} completeness", residual, linalg.limit(linalg.TRACE_ATOL, tol),
                 CompletenessViolation, f"residual {residual:.3e}")


def validate_density(m: ComplexMatrix, tol: float | None = None) -> DensityMatrix:
    """Validate a candidate state; checks trace, Hermiticity, positivity.

    A single ``tol`` overrides all three per-check defaults.  The raised
    diagnostic names the first violated condition and carries the measured
    residual.
    """
    a = linalg.as_matrix(m, "density matrix")
    linalg.require(density_checks(a, tol))
    return DensityMatrix(a)


def validate_kraus(ops, tol: float | None = None) -> KrausChannel:
    """Validate a set of Kraus operators.

    Args:
        ops: iterable of equal-dimension square complex matrices, or a
            stacked array of shape (k, n, n).
        tol: completeness tolerance, default 1e-9 per entry.

    Raises:
        DimensionMismatch: operators are not square or not all of equal size.
        CompletenessViolation: ``sum_k E_k^dag E_k`` deviates from identity.
    """
    stacked = operator_stack(ops, "Kraus operator")
    linalg.require([completeness_check(stacked, tol, "Kraus")])
    return KrausChannel(stacked)


def validate_chi(m: ComplexMatrix, n: int, tol: float | None = None) -> ChiMatrix:
    """Validate membership of ``m`` in the strategy set over n-dim operators.

    Checks, in order: Hermiticity, positivity, the trace-preservation sums
    ``sum_i chi[(i,j),(i,l)] = delta_jl``, and the necessary principal-minor
    condition ``chi_aa * chi_bb >= |chi_ab|^2`` (implied by positivity but
    asserted independently).
    """
    a = linalg.as_matrix(m, "chi matrix")
    if a.shape[0] != n * n:
        raise DimensionMismatch(f"chi matrix for n={n} must have dimension {n * n}, got {a.shape[0]}")
    linalg.require(chi_checks(a, n, tol))
    return ChiMatrix(a, n)


def validate_povm(elements, tol: float | None = None) -> Povm:
    """Validate a measurement; only the completeness sum is required."""
    stacked = operator_stack(elements, "POVM element")
    linalg.require([completeness_check(stacked, tol, "measurement")])
    return Povm(stacked)


# ---------------------------------------------------------------------------
# channel action
# ---------------------------------------------------------------------------

def _apply_first_factor(ops: np.ndarray, state: np.ndarray) -> np.ndarray:
    """``sum_k (E_k (x) I) rho (E_k (x) I)^dag`` for rho shaped (n, m, n, m), in O(k n^3 m^2)."""
    left = np.tensordot(ops, state, axes=(2, 0))  # [k, i, b, j, d]
    return np.tensordot(left, ops.conj(), axes=((0, 3), (0, 2))).transpose(0, 1, 3, 2)


def apply_channel(ch: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply ``rho -> sum_k E_k rho E_k^dag``; output is re-validated."""
    n = ch.dim
    if n != rho.dim:
        raise DimensionMismatch(f"channel dim {n} != state dim {rho.dim}")
    out = _apply_first_factor(ch.operators, rho.matrix.reshape(n, 1, n, 1))
    return validate_density(out.reshape(n, n), tol=1e-8)


def apply_product_channel(ch_a: KrausChannel, ch_b: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply the product operation ``{E_k (x) F_l}`` to a joint state.

    ``E_k`` acts on factor 1, then ``F_l`` on factor 2; ``E_k (x) F_l`` is never formed.
    """
    n1, n2 = ch_a.dim, ch_b.dim
    if n1 * n2 != rho.dim:
        raise DimensionMismatch(f"joint channel dim {n1}*{n2} != state dim {rho.dim}")
    state = _apply_first_factor(ch_a.operators, rho.matrix.reshape(n1, n2, n1, n2))
    state = _apply_first_factor(ch_b.operators, state.transpose(1, 0, 3, 2))
    return validate_density(state.transpose(1, 0, 3, 2).reshape(rho.dim, rho.dim), tol=1e-8)


def apply_chi(chi: ChiMatrix, rho: DensityMatrix) -> DensityMatrix:
    """Apply a chi-matrix strategy directly: ``sum_ab chi_ab E_a rho E_b^dag``.

    In the matrix-unit basis this reduces to
    ``out[p, q] = sum_jl chi[(p,j), (q,l)] rho[j, l]``.
    """
    n = chi.n
    if n != rho.dim:
        raise DimensionMismatch(f"chi acts on dim {n} but state has dim {rho.dim}")
    chi4 = chi.matrix.reshape(n, n, n, n)
    out = np.einsum("pjql,jl->pq", chi4, rho.matrix)
    return validate_density(out, tol=1e-8)


# ---------------------------------------------------------------------------
# representation conversions
# ---------------------------------------------------------------------------

def kraus_to_chi(ch: KrausChannel) -> ChiMatrix:
    """Chi matrix of a Kraus channel over the matrix-unit basis.

    The expansion coefficient of ``E_k`` on the basis element with label
    ``(i, j)`` is just the entry ``E_k[i, j]``, so
    ``chi[a, b] = sum_k e_k[a] * conj(e_k[b])`` with ``e_k`` the row-major
    flattening of ``E_k``.  The result is positive by construction.
    """
    n = ch.dim
    flat = ch.operators.reshape(ch.n_operators, n * n)
    return ChiMatrix(linalg.hermitian_part(np.einsum("ka,kb->ab", flat, flat.conj())), n)


def chi_to_kraus(chi: ChiMatrix) -> KrausChannel:
    """Extract a minimal Kraus set from a chi matrix.

    Eigendecomposes chi and keeps eigenvalues above ``KRAUS_RANK_TOL``; operator k
    is ``sqrt(lambda_k)`` times the un-flattened eigenvector.  Kraus sets are
    unique only up to unitary mixing, so callers should compare channels by
    their action, not operator-by-operator.

    Raises:
        NotInOmega: if the chi matrix fails its invariants.
    """
    try:
        chi = validate_chi(chi.matrix, chi.n)
    except ValidationError as exc:
        raise NotInOmega(f"not a valid strategy: {exc}") from exc
    w, v = linalg.hermitian_eigen(chi.matrix)
    keep = w > KRAUS_RANK_TOL
    if not np.any(keep):
        raise NotInOmega("chi matrix has no eigenvalue above the rank tolerance")
    ops = [np.sqrt(w[k]) * v[:, k].reshape(chi.n, chi.n) for k in np.nonzero(keep)[0]]
    return KrausChannel(np.stack(ops))


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def measure_probs(povm: Povm, rho: DensityMatrix) -> np.ndarray:
    """Outcome distribution ``p_m = tr(M_m^dag M_m rho)`` as a real vector."""
    if povm.dim != rho.dim:
        raise DimensionMismatch(f"POVM dim {povm.dim} != state dim {rho.dim}")
    probs = np.einsum("kij,ji->k", povm.effects, rho.matrix)
    return np.real(probs)


# ---------------------------------------------------------------------------
# common channels
# ---------------------------------------------------------------------------

def cyclic_shift(n: int, s: int) -> ComplexMatrix:
    """Cyclic-shift unitary of order n raised to the power ``s``.

    For n=2 the powers are the identity and the bit flip.
    """
    out = np.zeros((n, n), dtype=complex)
    for k in range(n):
        out[(k + s) % n, k] = 1.0
    return out


def shift_channel(n: int, s: int) -> KrausChannel:
    """Single-unitary channel applying the order-n cyclic shift ``s`` times."""
    return KrausChannel(cyclic_shift(n, s)[None, :, :])


def identity_chi(n: int) -> ChiMatrix:
    """Chi matrix of the identity channel, the zeroth power of the cyclic shift."""
    return kraus_to_chi(shift_channel(n, 0))
