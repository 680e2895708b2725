"""Random states, PSD operators and density operators, drawn from a numpy Generator."""

from __future__ import annotations

import numpy as np

from .tensor_algebra import gram_det, hermitize


def _ginibre(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def rand_state(m: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unit vector in dimension m."""
    v = _ginibre(1, m, rng)[0]
    return v / np.linalg.norm(v)


def rand_states(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """n independent Haar-random unit vectors, rows of the result."""
    return np.array([rand_state(m, rng) for _ in range(n)])


def rand_independent_states(
    n: int, m: int, rng: np.random.Generator, min_det: float = 1e-4
) -> np.ndarray:
    """Random state set redrawn until its Gram determinant clears min_det."""
    if n > m:
        raise ValueError("cannot draw more independent states than the dimension")
    while True:
        s = rand_states(n, m, rng)
        if gram_det(s) > min_det:
            return s


def rand_psd(d: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random PSD operator G G† of the requested rank (full rank by default)."""
    r = d if rank is None else int(rank)
    g = _ginibre(d, r, rng)
    return hermitize(g @ g.conj().T)


def rand_density(d: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random density operator, optionally rank-deficient."""
    rho = rand_psd(d, rng, rank)
    return rho / float(np.trace(rho).real)
