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

from .errors import FixtureCorrupt
from .files import bundled_path, load_game, load_povm_file, load_strategy
from .game import QuantumGame, validate_tensor_entries
from .quantum import ChiMatrix, Povm

FIXTURE_NAME = "figure1_tensors.txt"

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


def ewl_referee_measurement() -> tuple[Povm, np.ndarray, np.ndarray]:
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


def _fixture_text() -> str:
    return bundled_path(FIXTURE_NAME).read_text()


def _parse_fixture(text: str) -> tuple[np.ndarray, np.ndarray]:
    lines = [ln.rstrip("\n") for ln in text.splitlines()]
    body = [ln for ln in lines if ln.strip() and not ln.lstrip().startswith("#")]
    if not body or not body[0].startswith("dims "):
        raise FixtureCorrupt("fixture is missing its header line")
    header = body[0].split()
    try:
        rows, cols = int(header[1]), int(header[2])
        declared = header[header.index("sha256") + 1]
    except (ValueError, IndexError) as exc:
        raise FixtureCorrupt(f"malformed fixture header: {body[0]!r}") from exc

    payload_lines = body[1:]
    payload = "\n".join(payload_lines).strip() + "\n"
    import hashlib  # kept out of the CLI's start-up: only this checksum needs it
    digest = hashlib.sha256(payload.encode()).hexdigest()
    if digest != declared:
        raise FixtureCorrupt(
            f"fixture checksum mismatch: file hashes to {digest}, header declares {declared}"
        )

    grids: dict[str, np.ndarray] = {}
    current: np.ndarray | None = None
    for ln in payload_lines:
        parts = ln.split()
        if parts[0] == "tensor":
            current = np.zeros((rows, cols), dtype=complex)
            grids[parts[1]] = current
        else:
            if current is None:
                raise FixtureCorrupt(f"entry line before any tensor section: {ln!r}")
            try:
                r, c = int(parts[0]), int(parts[1])
                re_part, im_part = float(parts[2]), float(parts[3])
            except (ValueError, IndexError) as exc:
                raise FixtureCorrupt(f"malformed fixture entry: {ln!r}") from exc
            if not (0 <= r < rows and 0 <= c < cols):
                raise FixtureCorrupt(f"fixture entry out of range: {ln!r}")
            current[r, c] = complex(re_part, im_part)
    if set(grids) != {"I", "II"}:
        raise FixtureCorrupt(f"fixture must hold tensors I and II, found {sorted(grids)}")

    s1 = int(round(rows ** 0.5))
    s2 = int(round(cols ** 0.5))
    return tuple(validate_tensor_entries(grids[p].reshape(s1, s1, s2, s2)) for p in ("I", "II"))


def figure1_reference_tensors() -> tuple[np.ndarray, np.ndarray]:
    """Load the explicit entries of the two reference payoff tensors, players I and II.

    The data is transcribed by hand, never computed, so transcription errors
    and construction errors fail loudly against each other in the regression
    test that compares them entrywise.

    Raises:
        FixtureCorrupt: if the file fails its checksum or structure checks.
    """
    return _parse_fixture(_fixture_text())

