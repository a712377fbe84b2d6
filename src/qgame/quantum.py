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

The records here are immutable NamedTuples: each array field is a read-only
complex copy of what the constructor was given.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import (
    CompletenessViolation,
    DimensionMismatch,
    NoConvergence,
    NotInOmega,
    TraceConditionViolation,
    TraceNotOne,
)
from .linalg import Check, ComplexMatrix


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


def _record(name: str, fields: list) -> type:
    """A NamedTuple base whose ``_make``, and so ``_replace``, go through the subclass's ``__new__``."""
    base = NamedTuple(name, fields)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


def partial_trace_first(m: np.ndarray, n: int) -> np.ndarray:
    """Partial trace over the first factor of the flattened (i, j) label."""
    return m.reshape(n, n, n, n).trace(axis1=0, axis2=2)


class DensityMatrix(_record("DensityMatrix", [("matrix", ComplexMatrix)])):
    """A state from :func:`validate_density` or a channel; the constructor checks nothing."""

    __slots__ = ()

    def __new__(cls, matrix):
        return super().__new__(cls, _frozen(matrix))

    def __array__(self, dtype=None, copy=None):
        """A copy of the matrix, so that numpy reads a state as it reads any array."""
        return np.array(self.matrix, dtype=dtype)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


class KrausChannel(_record("KrausChannel", [("operators", np.ndarray)])):
    """Kraus operators of an operation, or of a measurement (one per outcome), shape (k, dim, dim)."""

    __slots__ = ()

    def __new__(cls, operators):
        return super().__new__(cls, _frozen(operators))

    @property
    def dim(self) -> int:
        return self.operators.shape[1]

    @property
    def n_operators(self) -> int:
        return self.operators.shape[0]

    @property
    def effects(self) -> np.ndarray:
        """The effects ``M_k^dag M_k``, stacked along axis 0."""
        return np.einsum("kai,kaj->kij", self.operators.conj(), self.operators)


class ChiMatrix(_record("ChiMatrix", [("matrix", ComplexMatrix)])):
    """A strategy in the chi representation over the matrix-unit basis.

    ``matrix`` is n^2 x n^2, n >= 1, rows/columns labelled by the flattened
    basis index ``(i, j) -> i*n + j``; any other shape raises ``DimensionMismatch``.
    """

    __slots__ = ()

    def __new__(cls, matrix):
        a = _frozen(matrix)
        size = a.shape[0] if a.ndim == 2 and a.shape[0] == a.shape[1] else 0
        if size == 0 or math.isqrt(size) ** 2 != size:
            raise DimensionMismatch(f"chi matrix must be n^2 x n^2, n >= 1, got shape {a.shape}")
        return super().__new__(cls, a)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return math.isqrt(self.matrix.shape[0])


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
        yield linalg.positive_check(a, tol, what)


def density_checks(a: ComplexMatrix, tol: float | None = None,
                   what: str = "density matrix") -> Iterator[Check]:
    """Trace one, Hermiticity and positivity of a square matrix, in that order."""
    residual = abs(complex(np.trace(a)) - 1.0)
    yield Check(f"{what} trace-one", residual, linalg.limit(linalg.TRACE_ATOL, tol), TraceNotOne,
                f"residual {residual:.3e}")
    yield from _hermitian_positive_checks(a, tol, what)


def chi_checks(a: ComplexMatrix, n: int, tol: float | None = None) -> Iterator[Check]:
    """Hermiticity, positivity and the trace-preservation sums of chi, in that order."""
    yield from _hermitian_positive_checks(a, tol, "chi matrix")
    residual = float(np.abs(partial_trace_first(a, n) - np.eye(n)).max())
    yield Check("chi matrix trace-preservation", residual, linalg.limit(linalg.TRACE_ATOL, tol),
                TraceConditionViolation, f"residual {residual:.3e}")


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
    """Validate a candidate state: :func:`density_checks`, a given ``tol`` replacing each limit.

    The raised error names the first violated condition and carries its residual.
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

    Checks, in order: Hermiticity, positivity (:func:`linalg.positive_check`)
    and the trace-preservation sums ``sum_i chi[(i,j),(i,l)] = delta_jl``.
    """
    a = linalg.as_matrix(m, "chi matrix")
    if a.shape[0] != n * n:
        raise DimensionMismatch(f"chi matrix for n={n} must have dimension {n * n}, got {a.shape[0]}")
    linalg.require(chi_checks(a, n, tol))
    return ChiMatrix(a)


# ---------------------------------------------------------------------------
# channel action
# ---------------------------------------------------------------------------

def _apply_first_factor(ops: np.ndarray, state: np.ndarray) -> np.ndarray:
    """``sum_k (E_k (x) I) rho (E_k (x) I)^dag`` for rho shaped (n, m, n, m).

    Two matrix products, each O(k n^3 m^2): the stacked (k n, n) operators
    times rho as (n, m n m), then the result regrouped as (n m m, k n) times
    the stacked adjoints as (k n, n).
    """
    (k, n, _), m = ops.shape, state.shape[1]
    left = (ops.reshape(k * n, n) @ state.reshape(n, m * n * m)).reshape(k, n, m, n, m)
    # out[i, b, d, j'] = sum_kj left[k, i, b, j, d] conj(E_k[j', j])
    out = (left.transpose(1, 2, 4, 0, 3).reshape(n * m * m, k * n)
           @ ops.conj().transpose(0, 2, 1).reshape(k * n, n))
    return out.reshape(n, m, m, n).transpose(0, 1, 3, 2)


def _output_state_limit(tol: float | None, n1: int, n2: int) -> float:
    """The limit of the output-state re-check of a product channel on factors n1 and n2.

    The state and the channels passed at ``tol`` (``TRACE_ATOL`` when None): to
    first order |tr pi - 1| <= |tr rho - 1| + sum_j |sum_k E_k^dag E_k - I|, with
    a Kraus file's completeness defect at most n tol and a chi file's Kraus form
    dropping eigenvalues of (n^2 - 1) tol at most.  Capped at the largest float.
    """
    scale = 1 + n1 * (n1 + 1) + n2 * (n2 + 1)
    return max(linalg.OUTPUT_STATE_ATOL, min(scale * linalg.limit(linalg.TRACE_ATOL, tol),
                                             sys.float_info.max))


def apply_product_channel(ch_a: KrausChannel, ch_b: KrausChannel, rho: DensityMatrix,
                          tol: float | None = None) -> DensityMatrix:
    """Apply the product operation ``{E_k (x) F_l}`` to a joint state.

    ``E_k`` acts on factor 1, then ``F_l`` on factor 2; ``E_k (x) F_l`` is never formed.
    The output state is re-checked at the tolerance ``tol`` that rho and the
    channels passed, ``max(OUTPUT_STATE_ATOL, (1 + sum_j n_j (n_j + 1)) tol)``.
    """
    n1, n2 = ch_a.dim, ch_b.dim
    if n1 * n2 != rho.dim:
        raise DimensionMismatch(f"joint channel dim {n1}*{n2} != state dim {rho.dim}")
    state = _apply_first_factor(ch_a.operators, rho.matrix.reshape(n1, n2, n1, n2))
    state = _apply_first_factor(ch_b.operators, state.transpose(1, 0, 3, 2))
    return validate_density(state.transpose(1, 0, 3, 2).reshape(rho.dim, rho.dim),
                            _output_state_limit(tol, n1, n2))


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
    flat = ch.operators.reshape(ch.n_operators, ch.dim ** 2)
    return ChiMatrix(linalg.hermitian_part(flat.T @ flat.conj()))


def kraus_form(chi: ChiMatrix) -> KrausChannel:
    """The minimal Kraus set of a chi matrix that passed :func:`validate_chi`.

    Keeps eigenvalues above ``KRAUS_RANK_TOL``, largest first; operator k is
    ``sqrt(lambda_k)`` times the un-flattened eigenvector (read, like eigvalsh,
    from chi's lower triangle), and :func:`kraus_form_loss` bounds what is left
    out.  Kraus sets are unique only up to unitary mixing, so compare channels
    by their action, not operator by operator.

    Raises:
        NoConvergence: if the eigendecomposition fails to converge.
    """
    with np.errstate(invalid="ignore"):
        w, v = linalg.lapack.eigh_lo(chi.matrix)
    if np.isnan(w).any():  # a failed call leaves NaN, as ``linalg`` states
        raise NoConvergence(f"eigendecomposition of a {len(w)}x{len(w)} chi did not converge")
    w, v = w[::-1], v[:, ::-1]
    keep = w > linalg.KRAUS_RANK_TOL
    if not np.any(keep):
        raise NotInOmega("chi matrix has no eigenvalue above the rank tolerance")
    ops = [np.sqrt(w[k]) * v[:, k].reshape(chi.n, chi.n) for k in np.nonzero(keep)[0]]
    return KrausChannel(np.stack(ops))


def kraus_form_loss(n: int, tol: float | None = None) -> float:
    """Bound on the trace norm of ``chi - kraus_to_chi(kraus_form(chi))``, chi valid at ``tol``.

    With N = n^2 and m the largest Hermiticity, positivity or rank limit, reading chi's
    lower triangle moves N (N - 1) / 2 entries, and N - 1 or fewer eigenvalues are
    dropped, each by m or less: (N - 1) (N / 2 + 1) m <= N^2 m.
    """
    limits = (linalg.limit(linalg.HERMITIAN_ATOL, tol), linalg.limit(linalg.PSD_ATOL, tol))
    return n ** 4 * max(*limits, linalg.KRAUS_RANK_TOL)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def measure_probs(povm: KrausChannel, rho: DensityMatrix) -> np.ndarray:
    """Outcome distribution ``p_m = tr(M_m^dag M_m rho)`` as a real vector."""
    if povm.dim != rho.dim:
        raise DimensionMismatch(f"POVM dim {povm.dim} != state dim {rho.dim}")
    probs = np.einsum("kij,ji->k", povm.effects, rho.matrix)
    return np.real(probs)


# ---------------------------------------------------------------------------
# common channels
# ---------------------------------------------------------------------------

def shift_channel(n: int, s: int) -> KrausChannel:
    """Single-unitary channel applying the order-n cyclic shift ``s`` times.

    For n=2 the powers are the identity and the bit flip.
    """
    return KrausChannel(np.roll(np.eye(n, dtype=complex), s, axis=0)[None, :, :])


def identity_chi(n: int) -> ChiMatrix:
    """Chi matrix of the identity channel, the zeroth power of the cyclic shift."""
    return kraus_to_chi(shift_channel(n, 0))
