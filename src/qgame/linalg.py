"""Dense complex linear algebra kernel and the validity-check record.

Small, self-contained layer the rest of the package builds on: matrix
coercion, Hermitian eigendecomposition, the package-wide numerical
tolerances, and :class:`Check`, the one shape every validity condition
takes.  Matrices are plain square ``numpy.ndarray`` values of dtype
complex, stored row-major.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import NamedTuple, TypeAlias

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotHermitian, QGameError, ValidationError

#: Square complex matrix carrier used throughout the package.
ComplexMatrix: TypeAlias = np.ndarray

# Centralized tolerances; every validation accepts an override.
HERMITIAN_ATOL = 1e-10
PSD_ATOL = 1e-9
TRACE_ATOL = 1e-9


class Check(NamedTuple):
    """A named residual against its limit; failing (also on NaN) raises ``error``."""

    name: str
    residual: float
    limit: float
    error: type[QGameError]
    detail: str

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.limit)


def require(checks: Iterable[Check]) -> None:
    """Raise on the first failed check; later checks are not evaluated."""
    for check in checks:
        if not check.passed:
            raise check.error(f"{check.name} failed: {check.detail} (limit {check.limit:g})")


def limit(default: float, tol: float | None) -> float:
    """The limit of a check: ``tol`` when given, else the check's default."""
    return default if tol is None else tol


def as_matrix(m, what: str = "matrix") -> ComplexMatrix:
    """Coerce ``m`` to a square complex matrix with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{what} must be square, got shape {a.shape}")
    if a.shape[0] < 1:
        raise DimensionMismatch(f"{what} must be at least 1x1")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{what} has non-finite entries")
    return a


def hermitian_check(m: ComplexMatrix, tol: float | None = None, what: str = "matrix") -> Check:
    """Largest entrywise |m - m^dag|, within ``tol`` (default ``HERMITIAN_ATOL``)."""
    residual = float(np.max(np.abs(m - m.conj().T)))
    return Check(f"{what} hermitian", residual, limit(HERMITIAN_ATOL, tol), NotHermitian,
                 f"residual {residual:.3e}")


def hermitian_eigen(m: ComplexMatrix, tol: float = HERMITIAN_ATOL) -> tuple[np.ndarray, ComplexMatrix]:
    """Eigendecomposition of a Hermitian matrix.

    Args:
        m: Hermitian matrix (checked within ``tol``).
        tol: Hermiticity tolerance.

    Returns:
        ``(eigenvalues, eigenvectors)`` with real eigenvalues sorted in
        descending order and eigenvectors as the matching columns of a
        unitary matrix.  Within degenerate eigenvalue groups the column
        order is unspecified.

    Raises:
        NotHermitian: if the input fails the Hermiticity check.
        NoConvergence: if the underlying iterative diagonalization fails.
    """
    a = as_matrix(m)
    require([hermitian_check(a, tol)])
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigendecomposition did not converge: {exc}") from exc
    return w[::-1].copy(), v[:, ::-1].copy()


def min_eigenvalue(m: ComplexMatrix) -> float:
    """Smallest eigenvalue of a Hermitian matrix (read from its lower triangle)."""
    return float(np.linalg.eigvalsh(m)[0])


def hermitian_part(m) -> ComplexMatrix:
    """``(m + m^dag) / 2``, exactly Hermitian in floating point."""
    a = np.asarray(m, dtype=complex)
    return 0.5 * (a + a.conj().T)
