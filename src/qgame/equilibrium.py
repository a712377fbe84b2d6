"""Best responses over the full strategy set and epsilon-Nash verification.

Fixing the opponent's chi matrix makes one player's expected payoff linear
in their own strategy, ``payoff = tr(G chi)``; :func:`qgame.game.response_problem`
forms G, and every closed-form payoff, here and in :mod:`qgame.game`, is a
:func:`~qgame.game.response_value` of it.  The best response is the maximum
of that linear functional over the spectrahedron

    Omega_n = { chi >= 0 : partial-trace over the first index factor = I }.

That is a small semidefinite program.  It is solved here without an external
SDP solver, by the log-barrier method (Boyd & Vandenberghe, *Convex
Optimization*, sec. 11) applied to its dual, which has only n^2 real
unknowns:

* dual: minimize tr(Y) over Hermitian n x n matrices Y subject to
  S(Y) = (I (x) Y) - H > 0, with H the Hermitian part of G.  For each
  barrier parameter t, damped Newton steps minimize
  t tr(Y) - log det S(Y); t then grows eightfold and the next centering
  starts from the last point;
* primal: at the end of each centering, the last Newton step D gives
  chi = (W - W (I (x) D) W) / t with W = S(Y)^-1, the first-order change
  of S^-1 / t along the step.  It is positive definite, and for a full
  step its partial trace is exactly I.  The congruence
  chi -> (I (x) M^-1/2) chi (I (x) M^-1/2), with M the partial trace of chi,
  makes it exactly feasible in every case, because the partial trace
  commutes with I (x) A;
* certificate: weak duality.  For any Hermitian Y with (I (x) Y) - H >= 0,
  tr(Y) bounds the optimum from above, and for an arbitrary Hermitian Y the
  shifted matrix Y + max(0, -lambda_min) I is feasible, so every candidate
  yields the certified bound tr(Y) + n * max(0, -lambda_min(I (x) Y - H)).
  The gap is the best such bound minus the best primal value over all
  stages.

A brute-force grid over single-qubit unitary strategies serves as an
independent lower-bound oracle for cross-checking the solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, UnsupportedDimension, WeakDualityViolation
from .game import (
    PLAYER_I,
    PLAYER_II,
    PayoffTensor,
    QuantumGame,
    ResponseProblem,
    payoff_tensor_matrix_unit,
    response_problem,
    response_value,
)
from .linalg import hermitian_part
from .quantum import ChiMatrix, maximally_mixing_chi, partial_trace_first, validate_chi

WEAK_DUALITY_ATOL = 1e-8
# the barrier method stops once the gap is this small relative to
# max(1, |H|), about the accuracy of the certified bound in double precision
STOP_GAP_RTOL = 1e-12
BARRIER_GROWTH = 8.0
# Newton decrement that ends a centering; the primal taken from the last
# step is feasible however far from central the barrier point is
CENTERED_DECREMENT = 1e-2


@dataclass(frozen=True)
class BestResponseResult:
    """A feasible strategy, its value and a certified upper bound on the optimum.

    ``iterations`` counts the Newton steps of the barrier method.
    """

    value: float
    chi_opt: ChiMatrix
    dual_bound: float
    gap: float
    iterations: int
    converged: bool


# ---------------------------------------------------------------------------
# barrier solver
# ---------------------------------------------------------------------------

def _certified_bound(y: np.ndarray, h: np.ndarray, n: int) -> float:
    """Certified upper bound ``tr(Y) + n * max(0, -lambda_min(I (x) Y - H))``.

    It is ``tr`` of the feasible dual point ``Y + max(0, -lambda_min) I``,
    exact up to eigensolver accuracy.
    """
    m = hermitian_part(np.kron(np.eye(n), y) - h)
    lam_min = float(np.linalg.eigvalsh(m)[0])
    return float(np.trace(y).real + n * max(0.0, -lam_min))


def _newton_step(y: np.ndarray, h: np.ndarray, n: int,
                 t: float) -> tuple[np.ndarray, float, np.ndarray]:
    """Newton step for ``t tr(Y) - log det S(Y)``, its decrement, and S(Y)^-1.

    With W = S(Y)^-1 the gradient is ``t I - tr_1(W)`` and the Hessian maps
    a direction D to ``tr_1(W (I (x) D) W)``.
    """
    w = np.linalg.inv(np.kron(np.eye(n), y) - h)
    grad = t * np.eye(n) - partial_trace_first(w, n)
    w4 = w.reshape(n, n, n, n)
    hessian = np.einsum("aibj,bmap->ipjm", w4, w4).reshape(n * n, n * n)
    step = hermitian_part(np.linalg.solve(hessian, -grad.reshape(-1)).reshape(n, n))
    decrement = float(np.sqrt(max(0.0, -np.vdot(grad, step).real)))
    return step, decrement, w


def _barrier_primal(w: np.ndarray, step: np.ndarray, n: int) -> np.ndarray | None:
    """Feasible chi from the last Newton step, or None if it is not definite.

    ``W - W (I (x) D) W`` linearizes S^-1 along the step D; scaled by 1/t it
    satisfies the trace condition exactly for a full step, and it is
    definite because the step stays inside the Dikin ellipsoid.  The
    congruence by ``I (x) M^-1/2`` makes the trace condition exact for a
    damped step and removes rounding; the scale 1/t cancels in it.
    """
    chi = hermitian_part(w - w @ np.kron(np.eye(n), step) @ w)
    if np.linalg.eigvalsh(chi)[0] <= 0.0:
        return None
    mw, mv = np.linalg.eigh(partial_trace_first(chi, n))
    root = np.kron(np.eye(n), (mv / np.sqrt(mw)) @ mv.conj().T)
    return hermitian_part(root @ chi @ root)


def best_response(problem: ResponseProblem, max_iters: int = 5000,
                  tol: float = 1e-7) -> BestResponseResult:
    """Maximize ``tr(G chi)`` over the strategy set with a duality certificate.

    Returns the best feasible strategy found, the best certified upper
    bound, and the duality gap.  ``max_iters`` bounds the number of Newton
    steps.  ``converged`` is set iff the gap closed to within ``tol``; an
    unconverged result still carries the best feasible strategy found
    (callers decide whether to treat that as an error).
    """
    n = problem.n
    h = hermitian_part(problem.matrix)
    eig_h = np.linalg.eigvalsh(h)
    scale = float(max(-eig_h[0], eig_h[-1]))
    if scale <= 1e-14:
        chi = maximally_mixing_chi(n)
        value = response_value(problem, chi)
        return BestResponseResult(value, chi, value, 0.0, 0, True)

    eye = np.eye(n, dtype=complex)
    # trivial certificate: chi = I/n against the better of lambda_max(H) I
    # and tr_1(H)/n; the latter is exact for constant games, H = I (x) Z
    best_x = np.eye(n * n, dtype=complex) / n
    best_val = float(np.trace(h).real) / n
    bound = min(_certified_bound(eig_h[-1] * eye, h, n),
                _certified_bound(partial_trace_first(h, n) / n, h, n))
    stop_gap = STOP_GAP_RTOL * max(1.0, scale)

    y = (eig_h[-1] + 1.0) * eye
    t = 1.0 / scale
    iterations = 0
    stage_gap = np.inf
    stalls = 0
    while bound - best_val > stop_gap and iterations < max_iters and stalls < 2:
        # damped Newton steps keep S(Y) definite without a line search
        previous = np.inf
        while iterations < max_iters:
            step, decrement, w = _newton_step(y, h, n, t)
            if decrement > 0.25:
                step = step / (1.0 + decrement)
            y = y + step
            iterations += 1
            # near the center the decrement falls quadratically, so a
            # decrement that stops falling there has hit rounding noise
            if decrement <= CENTERED_DECREMENT or (decrement <= 0.25 and decrement >= previous):
                break
            previous = decrement
        chi = _barrier_primal(w, step, n)
        if chi is None:
            break
        val = float(np.trace(h @ chi).real)
        stage_bound = _certified_bound(y, h, n)
        if val > best_val:
            best_x, best_val = chi, val
        bound = min(bound, stage_bound)
        # the central path shrinks the gap eightfold per stage; two stages in
        # a row that fail to halve it mean rounding error has taken over
        stalls = stalls + 1 if stage_bound - val > 0.5 * stage_gap else 0
        stage_gap = stage_bound - val
        t *= BARRIER_GROWTH

    chi_opt = validate_chi(best_x, n, tol=1e-7)
    value = response_value(problem, chi_opt)
    raw_gap = bound - value
    if raw_gap < -WEAK_DUALITY_ATOL:
        raise WeakDualityViolation(
            f"primal value {value!r} exceeds certified bound {bound!r}; solver bug"
        )
    # bound can dip below value by eigensolver noise; the reported gap is
    # clamped but convergence is judged on the raw difference
    return BestResponseResult(value, chi_opt, float(bound), max(0.0, float(raw_gap)),
                              iterations, raw_gap <= tol)


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def unitary_oracle(tensor: PayoffTensor, opponent: ChiMatrix, player,
                   resolution: int = 24) -> tuple[float, np.ndarray]:
    """Exhaustive grid search over single-qubit unitary strategies.

    Unitaries are parametrized axis-angle as
    ``U = cos(t) I - i sin(t) (n . sigma)`` with t and the axis polar angle
    on ``pi * k / resolution`` grids and the azimuth on a ``2 pi k /
    resolution`` grid, so the identity (t = 0) and the bit flip
    (t = pi/2, axis x) lie exactly on the default grid.  Returns the best
    contraction value over the rank-1 unitary strategies and the maximizing
    unitary; a lower bound on the best response over all physical
    operations.
    """
    problem = response_problem(tensor, opponent, player)
    if problem.n != 2:
        raise UnsupportedDimension(
            f"unitary oracle grid only covers dimension 2, got {problem.n}"
        )
    res = int(resolution)
    if res < 1:
        raise ValueError("resolution must be positive")
    h = problem.matrix

    t = np.pi * np.arange(res) / res
    theta = np.pi * np.arange(res) / res
    phi = 2.0 * np.pi * np.arange(res) / res
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

@dataclass(frozen=True)
class NashReport:
    is_equilibrium: bool
    gap_i: float
    gap_ii: float
    payoff_i: float
    payoff_ii: float
    response_i: BestResponseResult
    response_ii: BestResponseResult


def verify_nash(game: QuantumGame, chi: ChiMatrix, xi: ChiMatrix, epsilon: float,
                solver_tol: float = 1e-7, max_iters: int = 5000) -> NashReport:
    """Check the epsilon-Nash property of a strategy profile.

    ``gap_j`` is the certified best-response value for player j against the
    opponent's fixed strategy, minus j's current payoff; the profile is an
    epsilon-equilibrium iff both gaps are at most epsilon.  Gaps are
    reported even when the verdict is negative.

    Raises:
        NoConvergence: if either best-response solve fails to certify; the
            exception's ``partial`` attribute carries the report so far.
    """
    problem_i = response_problem(payoff_tensor_matrix_unit(game, PLAYER_I), xi, PLAYER_I)
    problem_ii = response_problem(payoff_tensor_matrix_unit(game, PLAYER_II), chi, PLAYER_II)
    payoff_i = response_value(problem_i, chi)
    payoff_ii = response_value(problem_ii, xi)
    br_i = best_response(problem_i, max_iters, solver_tol)
    br_ii = best_response(problem_ii, max_iters, solver_tol)
    gap_i = br_i.value - payoff_i
    gap_ii = br_ii.value - payoff_ii
    report = NashReport(
        is_equilibrium=bool(gap_i <= epsilon and gap_ii <= epsilon),
        gap_i=float(gap_i),
        gap_ii=float(gap_ii),
        payoff_i=payoff_i,
        payoff_ii=payoff_ii,
        response_i=br_i,
        response_ii=br_ii,
    )
    if not (br_i.converged and br_ii.converged):
        raise NoConvergence(
            "best-response certification did not converge; gaps are lower bounds only",
            partial=report,
        )
    return report
