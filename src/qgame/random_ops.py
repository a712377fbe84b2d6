"""Random generators for states, channels and games.

Used by the property-test suite and the validation scripts; all draws flow
through a caller-supplied ``numpy.random.Generator`` so runs are
reproducible.
"""

from __future__ import annotations

import numpy as np

from .quantum import (ChiMatrix, DensityMatrix, KrausChannel, kraus_to_chi, validate_density,
                      validate_kraus)


def random_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(n: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    a = random_complex(rng, (n, n))
    return scale * 0.5 * (a + a.conj().T)


def random_density(n: int, rng: np.random.Generator) -> DensityMatrix:
    """Random full-rank state: normalized Wishart matrix."""
    a = random_complex(rng, (n, n))
    g = a @ a.conj().T
    return validate_density(g / np.trace(g))


def random_kraus_channel(n: int, rng: np.random.Generator, n_operators: int | None = None) -> KrausChannel:
    """Random CPTP channel with ``n_operators`` Kraus operators.

    Stacks Ginibre blocks into an (n*k, n) matrix and orthonormalizes its
    columns; the n-row blocks of the resulting isometry satisfy the
    completeness sum exactly (up to floating error).
    """
    k = n_operators if n_operators is not None else int(rng.integers(1, n * n + 1))
    block = random_complex(rng, (n * k, n))
    q, _ = np.linalg.qr(block)
    ops = [q[i * n:(i + 1) * n, :] for i in range(k)]
    return validate_kraus(ops)


def random_chi(n: int, rng: np.random.Generator, n_operators: int | None = None) -> ChiMatrix:
    """Random valid strategy, as the chi matrix of a random channel."""
    return kraus_to_chi(random_kraus_channel(n, rng, n_operators))
