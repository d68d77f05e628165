"""Exception types shared across the package."""


class PbrCheckError(Exception):
    """Base class for every error raised by pbrcheck.

    Raised as such only by :func:`pbrcheck.ontic.feasibility`, when none of
    its proofs holds: the input was valid, but no verdict could be proved
    for it.
    """


class DomainError(PbrCheckError, ValueError):
    """The input is refused: a value out of range, a wrong shape, a different
    ontic space, a zero vector or a measurement basis that is not orthonormal.
    """
