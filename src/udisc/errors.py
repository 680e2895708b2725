"""Exception types shared across the package."""


class UdiscError(Exception):
    """Base class for all udisc errors."""


class CapExceeded(UdiscError):
    """A dense object would exceed the configured entry budget."""


class LayoutMismatch(UdiscError):
    """An operator or vector does not match the factor dimensions it was paired with."""


class NotHermitian(UdiscError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NotPositive(UdiscError):
    """A matrix required to be positive semidefinite has a negative eigenvalue beyond tolerance."""


class WrongRegime(UdiscError):
    """The (m, n) combination is outside the regime a builder is defined for."""


class IndexOutOfRange(UdiscError, IndexError):
    """A 1-based register or state index is outside its valid range."""


class InvalidPovm(UdiscError):
    """A POVM value is broken (m or n below 1, wrong element count or shape, a NaN or an
    infinity, or a non-Hermitian element where eigenvalues are read)."""


class ProgramNotIndependent(UdiscError):
    """The pure states assembled into a program are numerically linearly dependent."""


class FormatError(UdiscError):
    """A text file does not conform to its documented format."""
