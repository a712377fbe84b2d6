"""Static two-player quantum games.

States are density matrices, strategies are physical operations carried as
Kraus sets or chi matrices over the matrix-unit basis, payoffs come from a
referee's measurement folded into Hermitian payoff operators, and expected
payoffs are contractions of rank-4 payoff tensors with the two players' chi
matrices.  Includes a certified best-response solver over the full strategy
set, epsilon-Nash verification, and a fully reproducible built-in quantized
prisoner's dilemma.
"""

from .equilibrium import (
    BestResponseResult,
    NashReport,
    best_response,
    unitary_oracle,
    verify_nash,
)
from .errors import (
    CompletenessViolation,
    CrossCheckFailure,
    DimensionMismatch,
    FixtureCorrupt,
    InconsistentMeasurement,
    LengthMismatch,
    NoConvergence,
    NonRealPayoff,
    NotHermitian,
    NotInOmega,
    NotPositive,
    ParseError,
    QGameError,
    TraceConditionViolation,
    TraceNotOne,
    UnsupportedDimension,
    ValidationError,
    WeakDualityViolation,
)
from .game import (
    ClassicalBimatrix,
    PayoffTensor,
    QuantumGame,
    SimulationResult,
    build_game,
    classical_reduction,
    payoff_contract,
    payoff_direct,
    payoff_operator,
    payoff_tensor_general,
    payoff_tensor_matrix_unit,
    response_problem,
    response_value,
    simulate_play,
)
from .games_builtin import (
    NamedGame,
    ewl_equilibrium_strategies,
    ewl_prisoners_dilemma,
    ewl_referee_measurement,
    figure1_reference_tensors,
)
from .quantum import (
    ChiMatrix,
    DensityMatrix,
    KrausChannel,
    apply_product_channel,
    identity_chi,
    kraus_to_chi,
    measure_probs,
    shift_channel,
    validate_chi,
    validate_density,
    validate_kraus,
)

__version__ = "0.1.0"
