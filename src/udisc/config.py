"""Numeric tolerances and the dense-storage budget.

All tolerances are calibrated for double-precision dense eigensolvers at
ambient dimensions up to 4096.
"""

import os

from .errors import CapExceeded

# Hermiticity deviation, relative to max(1, largest entry magnitude).
HERM_TOL = 1e-10

# Allowed negative eigenvalue for "positive semidefinite", relative to the
# largest eigenvalue (floored at 1).
PSD_TOL = 1e-9

# Support membership: eigenvalues above SUPPORT_TOL * max(1, lambda_max)
# count as nonzero.
SUPPORT_TOL = 1e-9

# Orthonormality deviation tolerated inside a Subspace basis.
ORTH_TOL = 1e-9

# Singular values below NULL_TOL * max(1, sigma_max) are treated as zero in
# rank / null-space decisions.
NULL_TOL = 1e-9

# Dense matrices (and tensor-product vectors) refuse to materialise beyond
# this many complex entries (see resolve_cap).  2**24 entries keeps square
# matrices at or below dimension 4096.
DEFAULT_ENTRY_CAP = 2**24

# Smallest budget accepted from run configuration.
MIN_ENTRY_CAP = 2**8


def resolve_cap(cap: int | None = None) -> int:
    """Return the effective entry budget: cap, else UDISC_CAP, else the default.

    A non-integer UDISC_CAP, or a budget below MIN_ENTRY_CAP, raises ValueError.
    """
    if cap is None:
        env = os.environ.get("UDISC_CAP")
        if env is None:
            return DEFAULT_ENTRY_CAP
        try:
            cap = int(env)
        except ValueError:
            raise ValueError(f"UDISC_CAP={env!r} is not an integer") from None
    cap = int(cap)
    if cap < MIN_ENTRY_CAP:
        raise ValueError(f"entry cap must be at least {MIN_ENTRY_CAP}, got {cap}")
    return cap


def check_entries(count: int, cap: int | None = None, what: str = "object") -> None:
    """Raise CapExceeded when a dense object of `count` entries is over budget."""
    budget = resolve_cap(cap)
    if count > budget:
        raise CapExceeded(f"{what} with {count} complex entries exceeds the cap of {budget}")


def check_square(dim: int, cap: int | None = None, what: str = "matrix") -> None:
    """Raise CapExceeded when a dense dim x dim matrix is over budget."""
    check_entries(dim * dim, cap, f"{dim}x{dim} {what}")
