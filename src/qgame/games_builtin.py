"""The built-in quantized prisoner's dilemma and its reference fixtures.

The game, the referee's measurement and the reference strategies are the
packaged data files (``ewl.game``, ``ewl.povm`` and ``<name>.strategy``),
read by explicit path through :mod:`qgame.files`, so the library and the
CLI build them from one definition.  The hand-transcribed 16x16 reference
payoff grids are the central regression fixture.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import files
from .errors import FixtureCorrupt
from .files import bundled_path, load_game, load_povm_file, load_strategy
from .game import QuantumGame, validate_tensor_entries
from .quantum import ChiMatrix, KrausChannel

FIXTURE_NAME = "figure1_tensors.json"

# per-player dimension of the bundled game; the loaders check the files against it
_N = 2


class NamedGame(NamedTuple):
    """A bundled game plus its named reference strategies."""

    game: QuantumGame
    reference_strategies: tuple[tuple[str, ChiMatrix], ...]


def _bundled_chi(name: str) -> ChiMatrix:
    return load_strategy(bundled_path(f"{name}.strategy"), _N).chi


def ewl_equilibrium_strategies() -> tuple[ChiMatrix, ChiMatrix]:
    """The equilibrium strategy pair (chi*, xi*) with common payoff 2.5.

    chi* has unit diagonal entries at the flattened labels (0,0) and (0,1),
    xi* at (1,0) and (1,1); both are validated members of the strategy set,
    read from ``chi_star.strategy`` and ``xi_star.strategy``.
    """
    return _bundled_chi("chi_star"), _bundled_chi("xi_star")


def ewl_referee_measurement() -> tuple[KrausChannel, np.ndarray, np.ndarray]:
    """The referee's 4-outcome projective measurement and payoff vectors, ``ewl.povm``.

    The two payoff operators commute, so they share an eigenbasis; measuring
    in it and paying the matching eigenvalue pair reproduces both operators
    exactly via the payoff-operator fold.
    """
    return load_povm_file(bundled_path("ewl.povm"), _N * _N)


def ewl_prisoners_dilemma() -> NamedGame:
    """The built-in quantized prisoner's dilemma, ``ewl.game``, and its reference strategies.

    The initial state is the maximally entangled pure state with +-i/2
    corner coherences; restricting both players to the identity and the bit
    flip recovers the classical bimatrix [[(3,3),(0,5)],[(5,0),(1,1)]].
    Its reference payoff tensors are :func:`figure1_reference_tensors`.
    """
    return NamedGame(
        game=load_game(bundled_path("ewl.game")),
        reference_strategies=tuple(
            (name, _bundled_chi(name)) for name in ("chi_star", "xi_star", "identity", "bitflip")
        ),
    )


def figure1_reference_tensors() -> tuple[np.ndarray, np.ndarray]:
    """Load the explicit entries of the two reference payoff tensors, players I and II.

    The data is transcribed by hand, never computed, so transcription errors
    and construction errors fail loudly against each other in the regression
    test that compares them entrywise.  The document's ``sha256`` is the hash
    of both 16x16 grids as little-endian complex128 bytes, grid I first.

    Raises:
        ParseError: if the document is not a qgame document holding two grids.
        FixtureCorrupt: if a grid is not 16x16 or the grids fail their checksum.
    """
    doc = files.load_document(bundled_path(FIXTURE_NAME))
    grids = [files.matrix_from_lists(files._require(doc, p, FIXTURE_NAME), f"fixture grid {p}")
             for p in ("I", "II")]
    if any(g.shape != (16, 16) for g in grids):
        raise FixtureCorrupt(f"fixture grids must be 16x16, got {[g.shape for g in grids]}")
    import hashlib  # kept out of the CLI's start-up: only this checksum needs it
    digest = hashlib.sha256(np.stack(grids).astype("<c16").tobytes()).hexdigest()
    declared = files._require(doc, "sha256", FIXTURE_NAME)
    if digest != declared:
        raise FixtureCorrupt(
            f"fixture checksum mismatch: grids hash to {digest}, document declares {declared}"
        )
    return tuple(validate_tensor_entries(g.reshape(4, 4, 4, 4)) for g in grids)
