"""Numeric tolerances and the dense-storage budget.

All tolerances are calibrated for double-precision dense eigensolvers at
ambient dimensions up to 4096.  The budget is chosen only here: by the
entry_cap context manager, else UDISC_CAP, else the default.
"""

import os
from contextlib import contextmanager
from contextvars import ContextVar

from .errors import CapExceeded

# Hermiticity deviation, relative to max(1, largest entry magnitude).
HERM_TOL = 1e-10

# Allowed negative eigenvalue for "positive semidefinite", relative to the
# largest eigenvalue (floored at 1).
PSD_TOL = 1e-9

# Support membership: eigenvalues above SUPPORT_TOL * max(1, lambda_max)
# count as nonzero.
SUPPORT_TOL = 1e-9

# Singular values below NULL_TOL * max(1, sigma_max) are treated as zero in
# rank / null-space decisions.
NULL_TOL = 1e-9

# Dense matrices (and tensor-product vectors) refuse to materialise beyond
# this many complex entries (see resolve_cap).  2**24 entries keeps square
# matrices at or below dimension 4096.
DEFAULT_ENTRY_CAP = 2**24

# Smallest budget accepted from run configuration.
MIN_ENTRY_CAP = 2**8

_ENTRY_CAP: ContextVar[int | None] = ContextVar("udisc_entry_cap", default=None)


@contextmanager
def entry_cap(cap: int | None):
    """Run the block under a budget of `cap` entries (None: UDISC_CAP or the default).

    The budget is validated on entry (see resolve_cap), and the previous one
    returns when the block exits, also by an exception.  It is kept in a
    ContextVar, so a threading.Thread started inside the block does not see it
    (a new thread starts from an empty context unless the interpreter sets
    sys.flags.thread_inherit_context) and reads UDISC_CAP or the default; run
    the thread's work as contextvars.copy_context().run(work, ...) to carry the
    budget into it.
    """
    token = _ENTRY_CAP.set(None if cap is None else int(cap))
    try:
        resolve_cap()
        yield
    finally:
        _ENTRY_CAP.reset(token)


def resolve_cap() -> int:
    """Return the budget in force: the innermost entry_cap, else UDISC_CAP, else the default.

    A non-integer UDISC_CAP, or a budget below MIN_ENTRY_CAP, raises ValueError.
    """
    cap = _ENTRY_CAP.get()
    if cap is None:
        env = os.environ.get("UDISC_CAP")
        if env is None:
            return DEFAULT_ENTRY_CAP
        try:
            cap = int(env)
        except ValueError:
            raise ValueError(f"UDISC_CAP={env!r} is not an integer") from None
    if cap < MIN_ENTRY_CAP:
        raise ValueError(f"entry cap must be at least {MIN_ENTRY_CAP}, got {cap}")
    return cap


def check_entries(count: int, what: str = "object") -> None:
    """Raise CapExceeded when a dense object of `count` entries is over budget.

    A count with more digits than Python converts to text is named by its
    leading power of two instead.
    """
    budget = resolve_cap()
    if count > budget:
        try:
            size = str(count)
        except ValueError:  # over sys.get_int_max_str_digits()
            size = f"at least 2^{count.bit_length() - 1}"
        raise CapExceeded(f"{what} with {size} complex entries exceeds the cap of {budget}")


def check_tensor_square(m: int, k: int, what: str = "matrix") -> int:
    """Return dim = m**k, for a dense dim x dim operator on k registers of dimension m,
    after sizing its dim·dim entries against the budget (check_entries).

    When m's bit length b alone puts dim·dim over budget (m >= 2**(b-1), so
    dim·dim >= 2**(2k(b-1))), CapExceeded is raised before m**k is formed,
    however large m and k are.
    """
    budget = resolve_cap()
    if 2 * k * (m.bit_length() - 1) > budget.bit_length():
        raise CapExceeded(f"{m}^{k}x{m}^{k} {what} exceeds the cap of {budget} complex entries")
    dim = m**k
    check_entries(dim * dim, f"{dim}x{dim} {what}")
    return dim


def check_factorial(k: int, per: int, what: str) -> int:
    """Return k!, after sizing per·k! entries against the budget (check_entries).

    The product is refused as soon as a partial one is over budget, so k! is
    never formed when it is far over, however large k is.
    """
    budget, total = resolve_cap(), per
    for factor in range(2, k + 1):
        total *= factor
        if total > budget:
            raise CapExceeded(f"{what} with at least {total} complex entries exceeds the cap of {budget}")
    check_entries(total, what)
    return total // per
