import numpy as np
import pytest

from qgame import cli, equilibrium, files, game, quantum
from qgame.games_builtin import ewl_equilibrium_strategies, ewl_prisoners_dilemma


@pytest.fixture(scope="session")
def ewl():
    return ewl_prisoners_dilemma()


@pytest.fixture(scope="session")
def ewl_game(ewl):
    return ewl.game


@pytest.fixture(scope="session")
def ewl_stars():
    return ewl_equilibrium_strategies()


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


def _record_calls(monkeypatch, name: str) -> list:
    """A list that records every call of ``quantum.<name>``, in any qgame module."""
    original = getattr(quantum, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (quantum, game, cli, files, equilibrium):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def product_channel_calls(monkeypatch):
    """A list that records every product-channel application, in any qgame module."""
    return _record_calls(monkeypatch, "apply_product_channel")


@pytest.fixture
def validate_chi_calls(monkeypatch):
    """A list that records every chi validation, in any qgame module."""
    return _record_calls(monkeypatch, "validate_chi")


def paper_rho() -> np.ndarray:
    """The built-in game's initial state, transcribed independently."""
    return np.array(
        [
            [0.5, 0, 0, -0.5j],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
            [0.5j, 0, 0, 0.5],
        ],
        dtype=complex,
    )


def densities_spanning_basis(n: int) -> list[np.ndarray]:
    """Rank-1 projector states whose span is the full Hermitian matrix space.

    Two channels agreeing on all of them agree on every state by linearity.
    """
    states = []
    for j in range(n):
        e = np.zeros(n, dtype=complex)
        e[j] = 1.0
        states.append(np.outer(e, e.conj()))
    for j in range(n):
        for k in range(j + 1, n):
            for phase in (1.0, 1.0j):
                v = np.zeros(n, dtype=complex)
                v[j] = 1 / np.sqrt(2)
                v[k] = phase / np.sqrt(2)
                states.append(np.outer(v, v.conj()))
    return states


def channel_action_distance(ch_a, ch_b, n: int) -> float:
    """Largest entrywise deviation of two Kraus channels' actions over the state basis.

    Each acts as a product with the trivial channel on a one-dimensional factor.
    """
    one = quantum.shift_channel(1, 0)
    worst = 0.0
    for state in densities_spanning_basis(n):
        rho = quantum.validate_density(state)
        out_a = quantum.apply_product_channel(ch_a, one, rho).matrix
        out_b = quantum.apply_product_channel(ch_b, one, rho).matrix
        worst = max(worst, float(np.max(np.abs(out_a - out_b))))
    return worst
