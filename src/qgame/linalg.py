"""Dense complex linear algebra kernel and the validity-check record.

Small, self-contained layer the rest of the package builds on: matrix
coercion, numpy's LAPACK gufuncs (``lapack``), :func:`spectrum` and
:func:`cholesky_factor` (the one eigenvalue-only call and the one Cholesky
test, each the one reader of its gufunc's NaN failure contract), the
package-wide numerical tolerances, :func:`require_in`, the one argument rule,
and :class:`Check`, the one shape every validity condition takes.  Matrices
are plain square ``numpy.ndarray`` values of dtype complex, stored row-major.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from typing import NamedTuple, TypeAlias

import numpy as np

# The gufuncs that numpy.linalg's cholesky, eigh, eigvalsh and solve call, so
# named from numpy 1.24 to 2.x; the solver's loop, spectrum, cholesky_factor and
# quantum.kraus_form call them directly, without the wrappers' per-call cost.  The contract relied
# on, pinned in tests/test_linalg.py: a gufunc whose LAPACK call fails fills its
# whole output with NaN and raises the floating-point invalid flag, where the
# wrapper would raise LinAlgError.  A numpy without these private names fails at import.
from numpy.linalg import _umath_linalg as lapack

from .errors import DimensionMismatch, NoConvergence, NotHermitian, QGameError, ValidationError

if _missing := [name for name in ("cholesky_lo", "eigh_lo", "eigvalsh_lo", "solve1")
                if not hasattr(lapack, name)]:
    raise ImportError(f"numpy {np.__version__} lacks the LAPACK gufuncs {_missing} that qgame calls")

#: Square complex matrix carrier used throughout the package.
ComplexMatrix: TypeAlias = np.ndarray

# The ledger: every numerical limit of the package and the solver's defaults,
# each defined here once (README prints the same table).  A limit relative to a
# scale s is multiplied by max(1, s).  A ``tol`` argument, which the CLI fills
# from QGAME_TOL, replaces the limits marked "tol"; the one marked "floor" is the
# least value of a limit that is a multiple of ``tol`` (see quantum).
# name = default             relative to    tol    what it judges
HERMITIAN_ATOL = 1e-10     # none           tol    |m - m^dag|, entrywise
PSD_ATOL = 1e-9            # none           tol    -lambda_min, and chi's least 2x2 minor
TRACE_ATOL = 1e-9          # none           tol    trace one, trace preservation, completeness
MEASUREMENT_ATOL = 1e-9    # none           tol    measurement and payoffs against R, entrywise
KRAUS_RANK_TOL = 1e-10     # none           -      least eigenvalue a chi's Kraus form keeps
OUTPUT_STATE_ATOL = 1e-8   # none           floor  trace, Hermiticity, positivity of an output state
PAIRING_ATOL = 1e-10       # none           -      an explicit tensor's Hermiticity pairing
IMAG_RTOL = 1e-9           # max|operator|  -      imaginary part of a payoff
CROSS_CHECK_ATOL = 1e-9    # max|R|         -      contraction against direct payoff
WEAK_DUALITY_RTOL = 1e-8   # |H|            -      a value above its certified bound: a solver bug
STOP_GAP_RTOL = 1e-12      # |H|            -      the least gap at which the solver stops
STOP_TOL_SHARE = 1e-2      # none           -      share of a solve's tol at which it stops
CHI_OPT_ATOL = 1e-7        # none           -      the solver's strategy, as a chi matrix
TENSOR_BYTES_MAX = 2**28   # none           -      peak bytes forming explicit entries (n1 = n2 = 6)
SOLVE_TOL = 1e-10          # |H|            -      gap a best response certifies; --tol sets it
NASH_EPSILON = 1e-6        # |H|            -      gain a deviation may offer; --epsilon sets it


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


def require_in(name: str, value, kind=(float, numbers.Real), low=0, high=math.inf,
               description: str = "a finite number >= 0"):
    """``value`` if it is a ``kind``, never a bool, in ``[low, high)``; else ValueError.

    A NaN is in no range.  The defaults are the rule of every tolerance; ``float``,
    the usual one, is tested first, as an ABC's isinstance alone costs ~0.4 us.
    """
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, kind) or not low <= value < high:
        raise ValueError(f"{name} must be {description}, got {value!r}")
    return value


def limit(default: float, tol: float | None) -> float:
    """The limit of a check: ``tol``, a finite number >= 0, when given, else the check's default."""
    return default if tol is None else require_in("tol", tol)


def as_matrix(m, what: str = "matrix") -> ComplexMatrix:
    """Coerce ``m`` to a square complex matrix with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{what} must be square, got shape {a.shape}")
    if a.shape[0] < 1:
        raise DimensionMismatch(f"{what} must be at least 1x1")
    if not np.isfinite(a).all():
        raise ValidationError(f"{what} has non-finite entries")
    return a


def hermitian_check(m: ComplexMatrix, tol: float | None = None, what: str = "matrix") -> Check:
    """Largest entrywise |m - m^dag|, within ``tol`` (default ``HERMITIAN_ATOL``)."""
    residual = float(np.abs(m - m.conj().T).max())
    return Check(f"{what} hermitian", residual, limit(HERMITIAN_ATOL, tol), NotHermitian,
                 f"residual {residual:.3e}")


def spectrum(m: ComplexMatrix) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix (read from its lower triangle).

    Raises NoConvergence if they are NaN, as a failed LAPACK call leaves them.
    """
    with np.errstate(invalid="ignore"):
        eig = lapack.eigvalsh_lo(m)
    if np.isnan(eig).any():
        raise NoConvergence(f"eigenvalues of a {len(eig)}x{len(eig)} matrix did not converge")
    return eig


def min_eigenvalue(m: ComplexMatrix) -> float:
    """Smallest eigenvalue of a Hermitian matrix (read from its lower triangle)."""
    return float(spectrum(m)[0])


def cholesky_factor(a: ComplexMatrix) -> ComplexMatrix | None:
    """The lower Cholesky factor of ``a`` (read from its lower triangle), or None if it has none."""
    with np.errstate(invalid="ignore"):
        factor = lapack.cholesky_lo(a)
    # a failed factorisation is all NaN, and a NaN entry of ``a`` reaches the
    # factor's last diagonal entry
    return None if math.isnan(factor[-1, -1].real) else factor


def hermitian_part(m) -> ComplexMatrix:
    """``(m + m^dag) / 2``, exactly Hermitian in floating point.

    Halving each term first is exact and cannot overflow on finite entries.
    """
    half = 0.5 * np.asarray(m, dtype=complex)
    return half + half.conj().T
