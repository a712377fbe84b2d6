"""Best responses over the full strategy set and epsilon-Nash verification.

Fixing the opponent's chi matrix makes one player's expected payoff linear
in their own strategy, ``payoff = tr(G chi)``; :func:`qgame.game.response_problem`
returns G, n^2 x n^2 for the responder's n, and every closed-form payoff is a
:func:`~qgame.game.response_value` of such a G; :func:`verify_nash` reports
:func:`~qgame.game.payoff_contract`'s, as ``qgame payoff`` does.  The best
response is the maximum of that linear functional over the spectrahedron

    Omega_n = { chi >= 0 : partial-trace over the first index factor = I }.

That is a small semidefinite program, solved here without an external SDP
solver by a feasible-start primal-dual path-following method (Todd, Toh &
Tutuncu, *SIAM J. Optim.* 1998) on H, the Hermitian part of G, over
max(1, |H|):

* primal: maximize tr(H X) over X >= 0 with tr_1(X) = I, from X = I/n;
  dual: minimize tr(Y) subject to S = (I (x) Y) - H >= 0, from
  Y = (lambda_max(H) + |H|) I.  Each iteration is a Mehrotra
  predictor-corrector step along the Nesterov-Todd direction, whose Schur
  system has n^2 unknowns; I (x) D acts on the n diagonal blocks of a
  matrix, never as a Kronecker product: M (I (x) D) is the one 2-D gemm
  ``M.reshape(n^3, n).dot(D)`` of a C-contiguous M.  An iteration makes six
  LAPACK calls, each straight to its gufunc in ``linalg.lapack``: S's
  Cholesky factor L, which serves both Y's bound and the next step; one eigh
  of L^H X L for the NT scaling, which also tests X > 0; one eigvalsh for
  the predictor's step lengths and one stacked eigvalsh for the corrector's;
  and two solves of the Schur matrix, itself one matmul.  A last iteration
  that ends on its predictor makes four.  They run under one
  error state per step and one per dual point, and a failure is read from
  the NaN it leaves (``linalg`` states the contract): a NaN factor sends Y to
  the eigenvalue rule below, and a scaling eigenvalue that is not positive,
  or a step length that is not finite, ends the loop.  The constants the
  loop needs at a given n are built once and kept read-only, and every
  product is 2-D and calls ``ndarray.dot``: the same BLAS gemm as ``@`` with
  less dispatch, about 0.5 of the 2 us a 4x4 product takes.  The dual stays
  exactly feasible.  The corrector feeds the primal residual back, so
  M = tr_1(X) = I + E with E of order 1e-9, and X -> (I (x) R) X (I (x) R),
  R = (3I - M)/2, leaves tr_1(X) = I + O(E^2): every primal iterate is
  feasible to rounding, as tr_1 commutes with I (x) A;
* certificate: weak duality.  For any Hermitian Y with S = (I (x) Y) - H >= 0,
  tr(Y) bounds the optimum from above, so a Y whose S has a Cholesky factor
  yields the bound tr(Y).  For any other Hermitian Y the shifted matrix
  Y + max(0, -lambda_min(S)) I is feasible, and Y yields the certified bound
  tr(Y) + n * max(0, -lambda_min(S)).  Every dual point, the start ones
  included, takes its bound from this one rule, ``_dual_point``.  The gap is
  the best such bound minus the best primal value, whatever path the iterates took;
* stop: ``tol`` sets it.  The loop ends at a scaled gap of
  ``max(STOP_GAP_RTOL, tol * STOP_TOL_SHARE)``, a hundredth of what ``converged``
  judges, so the gap recomputed from the validated chi stays within ``tol``;
  the default ``SOLVE_TOL`` and ``tol = 0`` stop at the floor ``STOP_GAP_RTOL``.
  The corrector's damped step cuts the gap only about 100-fold, so a step
  whose undamped predictor pair has tr(X_aff S_aff) within the stop returns
  that feasible pair instead; its Y takes its bound from ``_dual_point`` as
  every Y does, by the eigenvalue rule once S_aff lies on the boundary.

A brute-force grid over single-qubit unitary strategies serves as an
independent lower-bound oracle for cross-checking the solver.
"""

from __future__ import annotations

import functools
import math
import numbers
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import (DimensionMismatch, NoConvergence, UnsupportedDimension, ValidationError,
                     WeakDualityViolation)
from .game import (
    PLAYER_I,
    PLAYER_II,
    PayoffTensor,
    QuantumGame,
    payoff_contract,
    payoff_tensor_matrix_unit,
    response_problem,
    response_value,
)
from .linalg import (CHI_OPT_ATOL, SOLVE_TOL, STOP_GAP_RTOL, STOP_TOL_SHARE, WEAK_DUALITY_RTOL,
                     ComplexMatrix, hermitian_part, lapack)
from .quantum import ChiMatrix, partial_trace_first, validate_chi

# a budget, not a limit: the solver's default number of iterations
MAX_ITERS = 5000


class BestResponseResult(NamedTuple):
    """A feasible strategy, its value and a certified upper bound on the optimum.

    ``iterations`` counts the iterations of the primal-dual method, and
    ``scale`` is |H|, the spectral norm of the response matrix's Hermitian part.
    """

    value: float
    chi_opt: ChiMatrix
    dual_bound: float
    gap: float
    iterations: int
    converged: bool
    scale: float


# ---------------------------------------------------------------------------
# primal-dual solver
# ---------------------------------------------------------------------------

@functools.cache
def _constants(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The loop's constants at dimension n, built once and read-only.

    I as the (n, 1, n, 1) blocks of I (x) Y, -vec(I) for the predictor's
    right-hand side, and 1.5 I for the congruence.
    """
    eye = np.eye(n)
    constants = (eye.reshape(n, 1, n, 1), -eye.reshape(-1), 1.5 * eye)
    for constant in constants:
        constant.setflags(write=False)
    return constants


def _dual_point(y: np.ndarray, h: np.ndarray, n: int) -> tuple[np.ndarray | None, float]:
    """The Cholesky factor of S = np.kron(I, Y) - H, formed bit for bit, and Y's bound.

    The one rule for every dual point's bound, the start ones included.  An S
    with a factor is positive definite, so the bound is tr(Y); only an S
    without one costs an eigvalsh, for ``(None, tr(Y) + n max(0, -lambda_min(S)))``.
    """
    # np.kron(I, Y) - H, bit for bit
    s = (_constants(n)[0] * y[None, :, None, :]).reshape(n * n, n * n) - h
    trace = float(y.trace().real)
    factor = linalg.cholesky_factor(s)
    if factor is not None:
        return factor, trace
    return None, trace + n * max(0.0, -linalg.min_eigenvalue(s))


def _nt_scaling(x: np.ndarray, ls: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Nesterov-Todd scaling G, lam of X and S = ls ls^H, from one eigh.

    With ``ls^H X ls = U diag(lam)^2 U^H`` and ``G = X ls U diag(lam)^-3/2``,
    ``G^H S G = lam^-3/2 U^H (ls^H X ls)^2 U lam^-3/2 = diag(lam)`` and
    ``G diag(lam) G^H = X ls (ls^H X ls)^-1 ls^H X = X``, so ``W = G G^H``
    solves ``W S W = X``.  X is positive definite iff ``ls^H X ls`` is, so
    every eigenvalue must be positive; a NaN fails that test too.

    Raises:
        LinAlgError: if X is not positive definite.
    """
    xl = x.dot(ls)
    lam2, u = lapack.eigh_lo(ls.conj().T.dot(xl))
    if not lam2.min() > 0.0:
        raise np.linalg.LinAlgError("X is not positive definite")
    return xl.dot(u * lam2 ** -0.75), np.sqrt(lam2)


def _nt_step(x: np.ndarray, y: np.ndarray, ls: np.ndarray, n: int,
             stop: float) -> tuple[np.ndarray, np.ndarray]:
    """One Mehrotra predictor-corrector step along the Nesterov-Todd direction.

    With the NT scaling ``G^-1 X G^-H = G^H S G = diag(lam)`` of
    :func:`_nt_scaling`, ``W = G G^H``, the linearized ``X S = mu I`` reads
    ``lam dV + dV lam = 2 R`` for ``dV = G^-1 dX G^-H + G^H dS G``; dY solves
    the Schur system ``tr_1(W (I (x) dY) W) = tr_1(G dV G^H) - (I - tr_1(X))``,
    fed the primal residual.  S's Cholesky factor ``ls`` comes from Y's bound.
    The predictor's ``dV = -diag(lam)`` gives ``G dV G^H = -X``, so its
    right-hand side is exactly ``-I``, and its scaled dX is ``-I - P`` for the
    scaled dS ``P = lam^-1/2 dS lam^-1/2``: P's extreme eigenvalues give both
    step lengths.  When the predictor pair's gap ``mu_aff * n^2`` is within
    ``stop``, that pair is the step.  The new X and Y are made exactly
    Hermitian; the directions, whose eigvalsh reads the lower triangle, are
    not.  Raises LinAlgError once the scaling finds X not positive definite,
    or a step length is not finite.
    """
    minus_vec_eye = _constants(n)[1]
    with np.errstate(invalid="ignore"):
        g, lam = _nt_scaling(x, ls)
        size = n * n
        # G^H stored contiguously: G^H (I (x) D) is then one gemm, gh.reshape(size * n, n).dot(D)
        gh = np.conjugate(g.T, order="C")
        w4 = g.dot(gh).reshape(n, n, n, n)
        # sum_ab W[(a,i),(b,j)] W[(b,m),(a,p)] = (A A^H)[(i,j),(p,m)],
        # A[(i,j),(a,b)] = W[(a,i),(b,j)]
        rows = w4.transpose(1, 3, 0, 2).reshape(size, size)
        schur = rows.dot(rows.conj().T).reshape(n, n, n, n)
        schur = schur.transpose(0, 2, 1, 3).reshape(size, size)
        r = lam ** -0.5
        unscale = r[:, None] * r
        diagonal = slice(None, None, size + 1)
        # the affine predictor sets the centering and the corrector's second-order
        # term; a step length a is the largest with I + a D >= 0, from lambda_min(D)
        dy = lapack.solve1(schur, minus_vec_eye).reshape(n, n)
        ds = gh.reshape(size * n, n).dot(dy).reshape(size, size).dot(g)
        p_eig = lapack.eigvalsh_lo(ds * unscale).tolist()
        low_s, low_x = p_eig[0], -1.0 - p_eig[-1]
        if not (math.isfinite(low_s) and math.isfinite(low_x)):
            raise np.linalg.LinAlgError("predictor step length is not finite")
        ap = min(1.0, -1.0 / low_x) if low_x < 0.0 else 1.0
        ad = min(1.0, -1.0 / low_s) if low_s < 0.0 else 1.0
        dx = -ds
        dx.flat[diagonal] -= lam
        dxds = dx.dot(ds)
        # tr((lam + ad dS)^H (lam + ap dX)) with dX = -lam - dS
        lam_lam, lam_ds = float(lam.dot(lam)), float(lam.dot(ds.diagonal().real))
        mu = lam_lam / size
        mu_aff = (lam_lam - ap * (lam_lam + lam_ds) + ad * lam_ds
                  + ap * ad * dxds.trace().real) / size
        if mu_aff * size <= stop:
            # tr(X_aff S_aff) is within the stop: the feasible predictor pair ends the solve
            return _iterate(x + ap * g.dot(dx).dot(gh), y + ad * dy, n)
        dv = dxds + dxds.conj().T
        dv *= -0.5
        dv.flat[diagonal] += min(1.0, (mu_aff / mu) ** 3) * mu - lam * lam
        dv *= 2.0 / (lam[:, None] + lam)
        rhs = partial_trace_first(g.dot(dv).dot(gh) + x, n)
        rhs.flat[::n + 1] -= 1.0
        dy = lapack.solve1(schur, rhs.reshape(-1)).reshape(n, n)
        ds = gh.reshape(size * n, n).dot(dy).reshape(size, size).dot(g)
        dx = dv - ds
        gamma = 0.9 + 0.09 * min(ap, ad)
        low_x, low_s = lapack.eigvalsh_lo(np.multiply((dx, ds), unscale))[:, 0].tolist()
        if not (math.isfinite(low_x) and math.isfinite(low_s)):
            raise np.linalg.LinAlgError("corrector step length is not finite")
        step_x = min(1.0, gamma * (-1.0 / low_x)) if low_x < 0.0 else 1.0
        step_s = min(1.0, gamma * (-1.0 / low_s)) if low_s < 0.0 else 1.0
        return _iterate(x + step_x * g.dot(dx).dot(gh), y + step_s * dy, n)


def _iterate(x: np.ndarray, y: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The stepped pair made an iterate: tr_1(X) = I to rounding, and X, Y exactly Hermitian.

    The step feeds the primal residual back, so M = tr_1(X) = I + E with E of
    order 1e-9; the congruence by I (x) R, R = (3I - M)/2, the first
    Newton-Schulz step for M^-1/2, leaves tr_1(X) = I + O(E^2), and E^2 is
    below rounding.
    """
    size = n * n
    root = _constants(n)[2] - 0.5 * partial_trace_first(x, n)
    # X (I (x) R) is one gemm, and its adjoint times I (x) R another: for Hermitian
    # X and R that is (I (x) R) X (I (x) R)
    half = x.reshape(size * n, n).dot(root).reshape(size, size)
    half = np.conjugate(half.T, order="C").reshape(size * n, n).dot(root).reshape(size, size)
    # both made exactly Hermitian as linalg.hermitian_part does, without its asarray
    half *= 0.5
    x = half + half.conj().T
    half = 0.5 * y
    return x, half + half.conj().T


def best_response(g: ComplexMatrix, max_iters: int = MAX_ITERS,
                  tol: float = SOLVE_TOL) -> BestResponseResult:
    """Maximize ``tr(G chi)`` over the strategy set with a duality certificate.

    G is n^2 x n^2 for the responder's n.  Returns the best feasible strategy
    found, the best certified upper bound, and the duality gap.  ``max_iters``
    bounds the iterations (0 certifies the start points alone).  ``tol`` is
    relative: ``converged`` is set iff the gap closed to within
    ``tol * max(1, |H|)``, |H| the spectral norm of G's Hermitian part, and the
    method stops at a hundredth of that gap: a looser ``tol`` costs fewer
    iterations and leaves the value further below the optimum.  An
    unconverged result still carries the best feasible strategy found.

    Raises:
        ValueError: if ``max_iters`` is not an integer >= 0, or ``tol`` not a finite real >= 0.
        DimensionMismatch: if G is not n^2 x n^2.
        ValidationError: if G has a non-finite entry or spectral norm.
        NoConvergence: if an eigenvalue computation fails.
    """
    linalg.require_in("max_iters", max_iters, numbers.Integral, description="an integer >= 0")
    linalg.require_in("tol", tol)
    g = linalg.as_matrix(g, "response matrix")
    n = math.isqrt(g.shape[0])
    if n * n != g.shape[0]:
        raise DimensionMismatch(f"response matrix size {g.shape[0]} is not a square n^2")
    h = hermitian_part(g)
    eig_h = linalg.spectrum(h)
    scale = float(max(-eig_h[0], eig_h[-1]))
    if scale == math.inf:
        # finite entries can still have an eigenvalue beyond the largest float
        raise ValidationError("response matrix has a non-finite spectral norm |H|: an eigenvalue "
                              "overflows")
    # the method runs on H / max(1, |H|), so that its stopping gap is absolute
    norm = max(1.0, scale)
    h = h / norm
    eye = np.eye(n, dtype=complex)
    # halving is exact, so the sum cannot overflow where lambda_max and |H| do not
    y = (0.5 * eig_h[-1] + 0.5 * scale) / (0.5 * norm) * eye
    ls, bound = _dual_point(y, h, n)
    # chi = I/n against the start, lambda_max(H) I and tr_1(H)/n, exact for H = I (x) Z
    x = np.eye(n * n, dtype=complex) / n
    best_x, best_val = x, float(h.trace().real) / n
    for trivial in (eig_h[-1] / norm * eye, partial_trace_first(h, n) / n):
        bound = min(bound, _dual_point(trivial, h, n)[1])
    stop = max(STOP_GAP_RTOL, tol * STOP_TOL_SHARE)
    iterations = 0
    # rounding that takes S to the boundary leaves it without a factor, and
    # rounding that takes X there makes the step raise: either way the best pair stays
    while ls is not None and bound - best_val > stop and iterations < max_iters:
        try:
            x, y = _nt_step(x, y, ls, n, stop)
        except np.linalg.LinAlgError:
            break
        iterations += 1
        val = float(np.vdot(h, x).real)
        if val > best_val:
            best_x, best_val = x, val
        ls, y_bound = _dual_point(y, h, n)
        bound = min(bound, y_bound)

    chi_opt = validate_chi(best_x, n, tol=CHI_OPT_ATOL)
    value = response_value(g, chi_opt)
    bound *= norm
    raw_gap = bound - value
    linalg.require([linalg.Check("weak duality", value - bound, WEAK_DUALITY_RTOL * norm,
                                 WeakDualityViolation, f"primal value {value!r} exceeds "
                                 f"certified bound {bound!r}; solver bug")])
    # bound can dip below value by rounding, so the gap can be
    # slightly negative; it is reported as is
    return BestResponseResult(value, chi_opt, float(bound), float(raw_gap),
                              iterations, bool(raw_gap <= tol * norm), scale)


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def unitary_oracle(tensor: PayoffTensor, opponent: ChiMatrix, player) -> tuple[float, np.ndarray]:
    """Exhaustive grid search over single-qubit unitary strategies.

    Unitaries are parametrized axis-angle as
    ``U = cos(t) I - i sin(t) (n . sigma)`` with t and the axis polar angle
    on the grid ``pi * k / 24`` and the azimuth on ``2 pi k / 24``, k = 0..23:
    24^3 unitaries, among them the identity (t = 0) and the bit flip
    (t = pi/2, axis x).  Returns the best contraction value over the rank-1
    unitary strategies and the maximizing unitary; a lower bound on the best
    response over all physical operations.
    """
    h = response_problem(tensor, opponent, player)
    if h.shape[0] != 4:
        raise UnsupportedDimension(f"unitary oracle grid only covers dimension 2, got "
                                   f"{math.isqrt(h.shape[0])}")

    k = np.arange(24)
    t = theta = np.pi * k / 24
    phi = 2.0 * np.pi * k / 24
    tg, thg, phg = (a.ravel() for a in np.meshgrid(t, theta, phi, indexing="ij"))

    nx = np.sin(thg) * np.cos(phg)
    ny = np.sin(thg) * np.sin(phg)
    nz = np.cos(thg)
    c, s = np.cos(tg), np.sin(tg)
    # row-major flattening (U00, U01, U10, U11) matches the chi-basis label
    vectors = np.stack(
        [c - 1j * s * nz, -1j * s * (nx - 1j * ny), -1j * s * (nx + 1j * ny), c + 1j * s * nz],
        axis=1,
    )
    values = np.einsum("ka,ab,kb->k", vectors.conj(), h, vectors).real
    best = int(np.argmax(values))
    return float(values[best]), vectors[best].reshape(2, 2)


# ---------------------------------------------------------------------------
# Nash verification
# ---------------------------------------------------------------------------

class NashReport(NamedTuple):
    is_equilibrium: bool
    gap_i: float
    gap_ii: float
    payoff_i: float
    payoff_ii: float
    response_i: BestResponseResult
    response_ii: BestResponseResult


def verify_nash(game: QuantumGame, chi: ChiMatrix, xi: ChiMatrix, epsilon: float) -> NashReport:
    """Check the epsilon-Nash property of a strategy profile from certificates.

    ``gap_j`` is player j's certified bound from :func:`best_response`, at its
    defaults, minus j's payoff.  ``epsilon`` is relative, as the solve's
    ``tol`` is: j's limit is ``epsilon * max(1, |H_j|)``.  The profile is an
    epsilon-equilibrium iff both gaps are within their limits, and is not one
    iff a best response found beats a payoff by more than its limit.

    Raises:
        ValueError: if ``epsilon`` is not a finite real >= 0 (a bool is not one).
        NoConvergence: if a best-response solve fails to converge, or the
            certificates decide neither verdict; the exception's
            ``partial`` attribute carries the report so far.
    """
    linalg.require_in("epsilon", epsilon)
    tensor_i, tensor_ii = (payoff_tensor_matrix_unit(game, p) for p in (PLAYER_I, PLAYER_II))
    # G_I(xi) is the matrix payoff_contract forms for player I, so it serves both;
    # player II's payoff keeps payoff_contract's contraction order
    g_i = response_problem(tensor_i, xi, PLAYER_I)
    payoff_i, payoff_ii = response_value(g_i, chi), payoff_contract(tensor_ii, chi, xi)
    br_i = best_response(g_i)
    br_ii = best_response(response_problem(tensor_ii, chi, PLAYER_II))
    limit_i, limit_ii = (epsilon * max(1.0, br.scale) for br in (br_i, br_ii))
    gap_i = br_i.dual_bound - payoff_i
    gap_ii = br_ii.dual_bound - payoff_ii
    report = NashReport(
        is_equilibrium=bool(gap_i <= limit_i and gap_ii <= limit_ii),
        gap_i=float(gap_i),
        gap_ii=float(gap_ii),
        payoff_i=payoff_i,
        payoff_ii=payoff_ii,
        response_i=br_i,
        response_ii=br_ii,
    )
    refuted = br_i.value - payoff_i > limit_i or br_ii.value - payoff_ii > limit_ii
    if not (br_i.converged and br_ii.converged):
        raise NoConvergence("best-response certification did not converge", partial=report)
    if not (report.is_equilibrium or refuted):
        raise NoConvergence(f"undecided at epsilon {epsilon:.1e}: a certified gap exceeds its "
                            "limit, but no response found beats the payoff by more", partial=report)
    return report
