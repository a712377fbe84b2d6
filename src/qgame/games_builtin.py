"""The built-in quantized prisoner's dilemma and its reference fixtures.

Ships the game exactly as specified by its defining matrices, the pair of
equilibrium strategies, and the hand-transcribed 16x16 reference payoff
grids used as the central regression fixture.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import FixtureCorrupt
from .game import QuantumGame, build_game, validate_tensor_entries
from .quantum import ChiMatrix, Povm, validate_chi, validate_povm

FIXTURE_NAME = "figure1_tensors.txt"


@dataclass(frozen=True)
class NamedGame:
    """A bundled game plus its named reference strategies."""

    game: QuantumGame
    reference_strategies: tuple[tuple[str, ChiMatrix], ...]


def _ewl_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rho = np.array(
        [
            [0.5, 0, 0, -0.5j],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
            [0.5j, 0, 0, 0.5],
        ],
        dtype=complex,
    )
    r_i = np.array(
        [
            [2, 0, 0, -1j],
            [0, 2.5, 2.5j, 0],
            [0, -2.5j, 2.5, 0],
            [1j, 0, 0, 2],
        ],
        dtype=complex,
    )
    r_ii = np.array(
        [
            [2, 0, 0, -1j],
            [0, 2.5, -2.5j, 0],
            [0, 2.5j, 2.5, 0],
            [1j, 0, 0, 2],
        ],
        dtype=complex,
    )
    return rho, r_i, r_ii


def ewl_equilibrium_strategies() -> tuple[ChiMatrix, ChiMatrix]:
    """The equilibrium strategy pair (chi*, xi*) with common payoff 2.5.

    chi* has unit diagonal entries at the flattened labels (0,0) and (0,1),
    xi* at (1,0) and (1,1); both are validated members of the strategy set.
    """
    chi_star = validate_chi(np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex), 2)
    xi_star = validate_chi(np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex), 2)
    return chi_star, xi_star


def ewl_referee_measurement() -> tuple[Povm, np.ndarray, np.ndarray]:
    """The referee's 4-outcome projective measurement and payoff vectors.

    The two payoff operators commute, so they share an eigenbasis; measuring
    in it and paying the matching eigenvalue pair reproduces both operators
    exactly via the payoff-operator fold.
    """
    s = 1 / np.sqrt(2)
    vectors = np.array(
        [
            [s, 0, 0, 1j * s],
            [s, 0, 0, -1j * s],
            [0, s, 1j * s, 0],
            [0, s, -1j * s, 0],
        ],
        dtype=complex,
    )
    projectors = np.stack([np.outer(v, v.conj()) for v in vectors])
    povm = validate_povm(projectors)
    payoffs_i = np.array([3.0, 1.0, 0.0, 5.0])
    payoffs_ii = np.array([3.0, 1.0, 5.0, 0.0])
    return povm, payoffs_i, payoffs_ii


def ewl_prisoners_dilemma() -> NamedGame:
    """Construct the built-in quantized prisoner's dilemma.

    The initial state is the maximally entangled pure state with +-i/2
    corner coherences; restricting both players to the identity and the bit
    flip recovers the classical bimatrix [[(3,3),(0,5)],[(5,0),(1,1)]].
    Its reference payoff tensors are :func:`figure1_reference_tensors`.
    """
    rho, r_i, r_ii = _ewl_matrices()
    game = build_game(rho, r_i, r_ii, n1=2, n2=2)
    chi_star, xi_star = ewl_equilibrium_strategies()
    identity = validate_chi(
        np.array([[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex), 2
    )
    bitflip = validate_chi(
        np.array([[0, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 0]], dtype=complex), 2
    )
    return NamedGame(
        game=game,
        reference_strategies=(
            ("chi_star", chi_star),
            ("xi_star", xi_star),
            ("identity", identity),
            ("bitflip", bitflip),
        ),
    )


def _fixture_text() -> str:
    return resources.files("qgame").joinpath(f"data/{FIXTURE_NAME}").read_text()


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

