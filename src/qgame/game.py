"""The two-player game formalism: payoff operators, tensors and evaluation.

A static quantum game is fixed by an initial joint state ``rho`` on
``C^{n1} (x) C^{n2}`` and one Hermitian payoff operator per player.  Player
strategies are physical operations on their own factor, and a player's
expected payoff is the contraction ``sum chi_ab xi_gd A[a, b, g, d]`` of the
players' chi matrices with the rank-4 payoff tensor

    A[alpha, beta, gamma, delta] = tr[ R (B_alpha (x) B_gamma) rho
                                       (B_beta (x) B_delta)^dag ].

Over the matrix-unit basis the tensor has the closed form (0-based labels
alpha=(a,b), beta=(c,d), gamma=(i,j), delta=(k,l))

    A = R[c*n2 + k, a*n2 + i] * rho[b*n2 + j, d*n2 + l],

one factor of R times one factor of rho.  The closed form is the one
production path: a :class:`PayoffTensor` holds the two factors, and
:func:`response_problem` takes the opponent's chi into rho first and then
into R, in O(n^6) time and O(n^4) memory, without forming the
(n1^2)^2 (n2^2)^2 entries.  It returns the Hermitian n^2 x n^2 matrix G, the
whole best-response problem: ``tr(G chi)`` is the responder's payoff, and
every closed-form payoff, :func:`payoff_contract` included, is
:func:`response_value` over it.  Two
independent cross-checks stay: :func:`payoff_tensor_general` evaluates the
trace formula literally, and the direct path, which never touches the closed
form, forms a profile's output state ``pi = (A (x) B) rho (A (x) B)^dag`` once
and traces it against both R's with :func:`state_payoff`.

A payoff is a trace against one operator (G, or R for the direct path) and
carries rounding of order eps * max|operator| in its imaginary part, however
small the payoff itself; :func:`require_real` therefore judges every payoff
against ``IMAG_RTOL * max(1, max|operator|)``.

The records here are immutable NamedTuples; the array fields of a game and a
classical bimatrix are read-only copies of what the constructor was given.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    InconsistentMeasurement,
    LengthMismatch,
    NonRealPayoff,
    UnsupportedDimension,
    ValidationError,
)
from .linalg import IMAG_RTOL, MEASUREMENT_ATOL, PAIRING_ATOL, Check, ComplexMatrix
from .quantum import (
    ChiMatrix,
    DensityMatrix,
    KrausChannel,
    _frozen,
    _record,
    apply_product_channel,
    density_checks,
    kraus_to_chi,
    measure_probs,
    shift_channel,
)

PLAYER_I = "I"
PLAYER_II = "II"


def normalize_player(player) -> str:
    key = str(player).strip().upper()
    if key in ("I", "1"):
        return PLAYER_I
    if key in ("II", "2"):
        return PLAYER_II
    raise ValueError(f"unknown player {player!r}; expected 'I' or 'II'")


class QuantumGame(_record("QuantumGame", [("rho", DensityMatrix), ("payoff_op_i", ComplexMatrix),
                                          ("payoff_op_ii", ComplexMatrix), ("n1", int),
                                          ("n2", int)])):
    """A static two-player game: initial state plus payoff operators."""

    __slots__ = ()

    def __new__(cls, rho, payoff_op_i, payoff_op_ii, n1, n2):
        return super().__new__(cls, rho, _frozen(payoff_op_i), _frozen(payoff_op_ii), n1, n2)

    def payoff_op(self, player) -> ComplexMatrix:
        return self.payoff_op_i if normalize_player(player) == PLAYER_I else self.payoff_op_ii


def game_checks(rho, payoff_i, payoff_ii, n1: int, n2: int,
                tol: float | None = None) -> Iterator[Check]:
    """Every check of :func:`build_game`, in the order it applies them.

    The state checks of ``rho`` (a ``DensityMatrix`` is checked like an
    array), the dimensions, and the Hermiticity of both payoff operators;
    non-finite inputs, and an n1 or n2 that is not a positive integer, raise at once.
    """
    for name, n in (("n1", n1), ("n2", n2)):
        linalg.require_in(name, n, numbers.Integral, 1, description="a positive integer")
    state = linalg.as_matrix(rho, "rho")
    yield from density_checks(state, tol, "rho")
    ops = (linalg.as_matrix(payoff_i, "payoff operator I"),
           linalg.as_matrix(payoff_ii, "payoff operator II"))
    dims = [state.shape[0], ops[0].shape[0], ops[1].shape[0]]
    mismatch = max(abs(d - n1 * n2) for d in dims)  # an int, possibly beyond every float
    try:
        product = str(n1 * n2)
    except ValueError:  # more digits than Python prints
        product = f"about 10^{math.log10(abs(n1 * n2)):.0f}"
    yield Check("dimensions", float(mismatch) if mismatch < 2 ** 1023 else math.inf, 0,
                DimensionMismatch,
                f"rho {dims[0]}, payoff operators {dims[1]} and {dims[2]}, n1*n2 = {product}")
    for label, op in zip((PLAYER_I, PLAYER_II), ops):
        yield linalg.hermitian_check(op, tol, f"payoff operator {label}")


def build_game(rho, payoff_i, payoff_ii, n1: int, n2: int, tol: float | None = None) -> QuantumGame:
    """Validate and assemble a game.

    Raises the error of the first failed :func:`game_checks` check; a
    ``DensityMatrix`` is checked like an array.  The game stores the exact
    Hermitian part of the state and of both payoff operators, so the payoff
    tensor's Hermiticity pairing holds exactly.
    """
    linalg.require(game_checks(rho, payoff_i, payoff_ii, n1, n2, tol))
    return QuantumGame(DensityMatrix(linalg.hermitian_part(rho)),
                       linalg.hermitian_part(payoff_i), linalg.hermitian_part(payoff_ii), n1, n2)


# Each explicit construction is charged its peak, in bytes per entry of its largest
# array.  tracemalloc on identity-payoff games read, per 16-byte entry at n1 = n2 =
# 3 / 4 / 5: 3.02 / 1.25 / 1.03 for the entries, 4.59 / 4.29 / 4.14 for the trace formula.
# n = 3 sets the entries' charge: there einsum's own buffer outweighs the tensor (as
# at n = 2, 3.48 of a 4 KB tensor).
ENTRIES_PEAK_BYTES = 56        # 3.5 entries
TRACE_FORMULA_PEAK_BYTES = 80  # 5 entries


def _tensor_size_check(count: int, peak_bytes: int) -> Check:
    """``count`` entries at ``peak_bytes`` each fit in ``TENSOR_BYTES_MAX``."""
    return Check("payoff tensor size", float(peak_bytes * count), linalg.TENSOR_BYTES_MAX,
                 UnsupportedDimension, f"{count} entries need {peak_bytes * count} bytes at peak")


class PayoffTensor(NamedTuple):
    """Rank-4 payoff tensor for one player, held as the two factors of its closed form.

    ``payoff_op`` and ``state`` are the game's R and rho reshaped to
    (n1, n2, n1, n2): entry ``A[(a,b), (c,d), (i,j), (k,l)]`` is
    ``payoff_op[c, k, a, i] * state[b, j, d, l]``.  ``entries[alpha, beta,
    gamma, delta]`` (alpha, beta flattened labels of player I, gamma, delta
    of player II) and ``grid`` (row ``alpha*n1^2 + beta``, column
    ``gamma*n2^2 + delta``) are formed on each access, at O(n^8) cost, and
    raise ``UnsupportedDimension`` before a peak of more than
    ``TENSOR_BYTES_MAX`` bytes.
    """

    payoff_op: np.ndarray
    state: np.ndarray

    @property
    def n1(self) -> int:
        return self.state.shape[0]

    @property
    def n2(self) -> int:
        return self.state.shape[1]

    @property
    def entries(self) -> np.ndarray:
        s1, s2 = self.n1 ** 2, self.n2 ** 2
        linalg.require([_tensor_size_check((s1 * s2) ** 2, ENTRIES_PEAK_BYTES)])
        # C order, so that the reshape is a view and not a copy of the whole tensor
        entries = np.einsum("ckai,bjdl->abcdijkl", self.payoff_op, self.state, order="C")
        return entries.reshape(s1, s1, s2, s2)

    @property
    def grid(self) -> np.ndarray:
        s1, s2 = self.n1 ** 2, self.n2 ** 2
        return self.entries.reshape(s1 * s1, s2 * s2)


class ClassicalBimatrix(_record("ClassicalBimatrix", [("payoff_i", np.ndarray),
                                                      ("payoff_ii", np.ndarray)])):
    """Classical payoff grid: entry (s, t) holds both players' payoffs."""

    __slots__ = ()

    def __new__(cls, payoff_i, payoff_ii):
        pi = np.array(payoff_i, dtype=float)
        pii = np.array(payoff_ii, dtype=float)
        if pi.shape != pii.shape or pi.ndim != 2:
            raise DimensionMismatch("bimatrix halves must share a 2-D shape")
        if not (np.all(np.isfinite(pi)) and np.all(np.isfinite(pii))):
            raise ValidationError("bimatrix has non-finite entries")
        pi.setflags(write=False)
        pii.setflags(write=False)
        return super().__new__(cls, pi, pii)


# ---------------------------------------------------------------------------
# payoff operators and tensors
# ---------------------------------------------------------------------------

def payoff_length_check(outcomes: int, payoffs, what: str = "payoffs") -> Check:
    """One payoff per measurement outcome."""
    a = np.asarray(payoffs, dtype=float)
    count = a.shape[0] if a.ndim == 1 else a.shape
    residual = abs(a.shape[0] - outcomes) if a.ndim == 1 else np.inf
    return Check(f"{what} length", residual, 0, LengthMismatch,
                 f"{count} payoffs for {outcomes} outcomes")


def payoff_operator(povm: KrausChannel, payoffs) -> ComplexMatrix:
    """Fold a measurement and its payoff assignment into one observable.

    Returns ``sum_k a_k M_k^dag M_k``; by construction
    ``tr(R rho) = sum_k a_k p_k`` for every state.
    """
    linalg.require([payoff_length_check(povm.n_operators, payoffs)])
    return np.einsum("k,kij->ij", np.asarray(payoffs, dtype=float), povm.effects)


def matrix_unit_basis(n: int) -> np.ndarray:
    """All n^2 matrix units stacked in flattened-label order (i*n + j)."""
    return np.eye(n * n, dtype=complex).reshape(n * n, n, n)


def validate_tensor_entries(entries) -> np.ndarray:
    """Explicit entries ``A[alpha, beta, gamma, delta]``, checked and frozen.

    A :class:`PayoffTensor` satisfies the Hermiticity pairing by construction.
    """
    a = _frozen(entries)
    if a.ndim != 4 or a.shape[0] != a.shape[1] or a.shape[2] != a.shape[3]:
        raise DimensionMismatch(f"tensor has inconsistent shape {a.shape}")
    # a - a.conj().transpose(1, 0, 3, 2), one first-axis slice at a time, so
    # that no temporary is the tensor's size; np.max keeps a NaN from any slice
    pairing = float(np.max([np.abs(a[i] - a[:, i].conj().transpose(0, 2, 1)).max()
                            for i in range(a.shape[0])]))
    linalg.require([Check("tensor Hermiticity pairing", pairing, PAIRING_ATOL, ValidationError,
                          f"A[a,b,c,d] = conj(A[b,a,d,c]) broken by {pairing:.3e}; "
                          f"payoffs would not be real")])
    return a


def payoff_tensor_general(game: QuantumGame, player, basis1: np.ndarray | None = None,
                          basis2: np.ndarray | None = None) -> np.ndarray:
    """Explicit tensor entries by literal evaluation of the trace formula.

    The cross-check of the closed form.  Works for an arbitrary operator
    basis per player (defaults to matrix units).  Batched as a Gram matrix:
    with ``B[ag] = basis1_a (x) basis2_g`` the tensor entry is the Frobenius
    inner product of ``B[bd]`` with ``R B[ag] rho``.  Like ``PayoffTensor.entries``,
    it raises ``UnsupportedDimension`` before a peak of more than
    ``TENSOR_BYTES_MAX`` bytes.
    """
    r = game.payoff_op(player)
    b1 = matrix_unit_basis(game.n1) if basis1 is None else np.asarray(basis1, dtype=complex)
    b2 = matrix_unit_basis(game.n2) if basis2 is None else np.asarray(basis2, dtype=complex)
    s1, s2 = b1.shape[0], b2.shape[0]
    dim = game.rho.dim
    count = s1 * s2 * max(s1 * s2, dim * dim)
    linalg.require([_tensor_size_check(count, TRACE_FORMULA_PEAK_BYTES)])
    joint = np.stack([np.kron(e, f) for e in b1 for f in b2])  # (s1*s2, dim, dim)
    lhs = np.einsum("pq,kqr,rs->kps", r, joint, game.rho.matrix)
    flat_lhs = lhs.reshape(s1 * s2, dim * dim)
    flat_rhs = joint.reshape(s1 * s2, dim * dim)
    gram = flat_lhs @ flat_rhs.conj().T  # [ag, bd] = tr(R B_ag rho B_bd^dag)
    return validate_tensor_entries(gram.reshape(s1, s2, s1, s2).transpose(0, 2, 1, 3))


def payoff_tensor_matrix_unit(game: QuantumGame, player) -> PayoffTensor:
    """The payoff tensor in the matrix-unit basis, held as its closed-form factors.

    Its entries equal :func:`payoff_tensor_general` with the default basis.
    """
    shape = (game.n1, game.n2, game.n1, game.n2)
    return PayoffTensor(game.payoff_op(player).reshape(shape), game.rho.matrix.reshape(shape))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def require_real(value: complex, operator: np.ndarray, what: str) -> float:
    """The real part of ``value``, a trace against ``operator``.

    Rounding in such a trace is of order eps * max|operator|, so the
    imaginary part must vanish within ``IMAG_RTOL * max(1, max|operator|)``;
    a larger one, or a real part that is not finite, signals a corrupted
    strategy or game and raises ``NonRealPayoff``.
    """
    limit = IMAG_RTOL * max(1.0, float(np.abs(operator).max()))
    finite = math.isfinite(value.real)
    residual = abs(value.imag) if finite else math.inf
    if not residual <= limit:  # the Check is built only to raise: this runs on every payoff
        detail = (f"imaginary part {value.imag:.3e} of {value.real:.3e}" if finite
                  else f"real part {value.real:.3e} is not finite")
        linalg.require([Check(f"{what} real", residual, limit, NonRealPayoff, detail)])
    return float(value.real)


def response_problem(tensor: PayoffTensor, opponent: ChiMatrix, player) -> ComplexMatrix:
    """Contract the opponent's strategy out of the payoff tensor.

    The result is the n^2 x n^2 matrix G that makes ``tr(G chi)`` the
    responder's payoff; for player I ``G[b, a] = sum_gd A[a, b, g, d] xi[g, d]``.
    With n the responder's dimension and m the opponent's, two matrix products
    do the work in O(n^4) memory: the opponent's chi goes into the state
    factor, (n^2, m^2) times (m^2, m^2) in O(n^2 m^4), then the result into
    the payoff factor, (n^2, m^2) times (m^2, n^2) in O(n^4 m^2).  G is
    Hermitian because the tensor satisfies its pairing invariant, and is
    symmetrized here against floating-point noise.
    """
    r, state, n, m = tensor.payoff_op, tensor.state, tensor.n1, tensor.n2
    if normalize_player(player) != PLAYER_I:
        # swapping the factors of both R and rho swaps the players' roles
        r, state, n, m = r.transpose(1, 0, 3, 2), state.transpose(1, 0, 3, 2), m, n
    if opponent.dim != m * m:
        raise DimensionMismatch(f"opponent strategy dim {opponent.dim} != tensor dim {m * m}")
    # partial[(b,d), (i,k)] = sum_jl state[b, j, d, l] xi[(i,j), (k,l)]
    partial = (state.transpose(0, 2, 1, 3).reshape(n * n, m * m)
               @ opponent.matrix.reshape(m, m, m, m).transpose(1, 3, 0, 2).reshape(m * m, m * m))
    # g[(c,a), (b,d)] = sum_ik r[c, k, a, i] partial[(b,d), (i,k)], then rows (c,d), columns (a,b)
    g = r.transpose(0, 2, 3, 1).reshape(n * n, m * m) @ partial.T
    g = g.reshape(n, n, n, n).transpose(0, 3, 1, 2).reshape(n * n, n * n)
    return linalg.hermitian_part(g)


def response_value(g: ComplexMatrix, chi: ChiMatrix) -> float:
    """The payoff ``tr(G chi)`` of ``chi`` for a response matrix G, real by :func:`require_real`."""
    if chi.dim != g.shape[0]:
        raise DimensionMismatch(f"strategy dim {chi.dim} != problem dim {g.shape[0]}")
    return require_real(complex(np.einsum("ba,ab->", g, chi.matrix)), g, "payoff")


def payoff_contract(tensor: PayoffTensor, chi: ChiMatrix, xi: ChiMatrix) -> float:
    """Expected payoff ``sum chi_ab xi_gd A[a,b,g,d]``: the response value of chi against xi."""
    return response_value(response_problem(tensor, xi, PLAYER_I), chi)


def state_payoff(game: QuantumGame, state: DensityMatrix, player) -> float:
    """Expected payoff ``tr(R pi)`` of a profile's output state, real by :func:`require_real`."""
    r = game.payoff_op(player)
    return require_real(complex(np.einsum("ij,ji->", r, state.matrix)), r, "payoff")


def payoff_direct(game: QuantumGame, ch_a: KrausChannel, ch_b: KrausChannel, player) -> float:
    """Expected payoff by direct channel application: ``tr(R pi)``."""
    return state_payoff(game, apply_product_channel(ch_a, ch_b, game.rho), player)


def classical_reduction(game: QuantumGame) -> ClassicalBimatrix:
    """Restrict each player to the powers of the cyclic shift on their own factor.

    For qubit strategies the allowed operations are exactly the identity and
    the bit flip, which reduces the game to a classical bimatrix: an n1 x n2
    grid per player p, whose entry (s, t) is p's :func:`payoff_contract` of
    player I's s-th shift power on C^n1 and player II's t-th on C^n2.  Pure
    strategies only (mixtures are convex combinations of chi matrices).
    """
    chis_i, chis_ii = ([kraus_to_chi(shift_channel(n, s)) for s in range(n)]
                       for n in (game.n1, game.n2))
    tensors = [payoff_tensor_matrix_unit(game, player) for player in (PLAYER_I, PLAYER_II)]
    return ClassicalBimatrix(*([[payoff_contract(tensor, chi_s, chi_t) for chi_t in chis_ii]
                                for chi_s in chis_i] for tensor in tensors))


# ---------------------------------------------------------------------------
# Monte Carlo play
# ---------------------------------------------------------------------------

class SimulationResult(NamedTuple):
    mean_i: float
    mean_ii: float
    stderr_i: float
    stderr_ii: float
    rounds: int
    exact_i: float
    exact_ii: float


def _consistency_check(povm: KrausChannel, payoffs: np.ndarray, payoff_op: ComplexMatrix,
                       label: str, tol: float | None) -> Check:
    """Measurement plus payoffs reproduce a payoff operator, entrywise."""
    residual = float(np.max(np.abs(payoff_operator(povm, payoffs) - payoff_op)))
    return Check(f"measurement and payoffs {label}", residual, linalg.limit(MEASUREMENT_ATOL, tol),
                 InconsistentMeasurement,
                 f"deviate from the game's payoff operator by {residual:.3e}")


def simulate_play(game: QuantumGame, povm: KrausChannel, payoffs_i, payoffs_ii,
                  ch_a: KrausChannel, ch_b: KrausChannel, rounds: int,
                  rng: np.random.Generator, tol: float | None = None) -> SimulationResult:
    """Monte Carlo realization of the refereed game.

    Each round the players' channels act on a fresh copy of the initial
    state, the referee measures, and payoffs are assigned per outcome.  The
    supplied measurement and payoff vectors must reproduce the game's payoff
    operators entrywise within ``tol`` (default ``MEASUREMENT_ATOL``), or
    ``InconsistentMeasurement`` is raised; ``apply_product_channel`` takes it too.
    A measurement on another dimension than the game's state raises
    ``DimensionMismatch`` before it is folded.

    Only the outcome counts of the rounds enter the result, so they are
    drawn in one multinomial call: ``rng`` fixes the counts, and time and
    memory do not grow with ``rounds``, an integer (not a bool) in [1, 2^63 - 1].
    Standard errors are sample standard deviations over sqrt(rounds); the
    exact payoffs are those of the measured output state.
    """
    linalg.require_in("rounds", rounds, numbers.Integral, 1, 2 ** 63, "an integer in [1, 2^63 - 1]")
    if povm.dim != game.rho.dim:
        raise DimensionMismatch(f"POVM dim {povm.dim} != state dim {game.rho.dim}")
    a_i = np.asarray(payoffs_i, dtype=float)
    a_ii = np.asarray(payoffs_ii, dtype=float)
    linalg.require(
        _consistency_check(povm, vec, op, label, tol)
        for label, vec, op in (("I", a_i, game.payoff_op_i), ("II", a_ii, game.payoff_op_ii))
    )
    pi = apply_product_channel(ch_a, ch_b, game.rho, tol)
    probs = np.clip(measure_probs(povm, pi), 0.0, None)
    counts = rng.multinomial(rounds, probs / probs.sum())

    def estimate(a: np.ndarray) -> tuple[float, float]:
        mean = float((counts / rounds) @ a)
        if rounds == 1:
            return mean, 0.0
        return mean, float(np.sqrt((counts / (rounds - 1)) @ (a - mean) ** 2 / rounds))

    (mean_i, stderr_i), (mean_ii, stderr_ii) = estimate(a_i), estimate(a_ii)
    return SimulationResult(mean_i, mean_ii, stderr_i, stderr_ii, rounds,
                            state_payoff(game, pi, PLAYER_I), state_payoff(game, pi, PLAYER_II))
