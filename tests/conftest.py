import numpy as np

from udisc.random_states import rand_density


def random_ensemble(rng, n_states=None, dim=None, dims=(2, 3, 4)):
    """Random mixed-state ensemble with rank-deficient draws mixed in."""
    if dim is None:
        dim = int(rng.choice(dims))
    if n_states is None:
        n_states = int(rng.integers(2, 4))
    rhos = []
    for _ in range(n_states):
        rank = int(rng.integers(1, dim + 1))
        rhos.append(rand_density(dim, rng, rank=rank))
    return rhos


def rand_unitary(m, rng):
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    q, r = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    # fix the phase ambiguity of QR so the distribution is exactly Haar
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def ket(index, dim):
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v
