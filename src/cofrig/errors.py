"""Shared exception types."""


class AmbientMismatch(ValueError):
    """Two edge sets with different ambient vertex counts were combined."""


class CapExceeded(RuntimeError):
    """A table or enumeration would exceed its fixed size cap."""


class SeedDisagreement(RuntimeError):
    """The evaluation seeds gave no answer that could be trusted.

    Raised when a strict majority of seeds falls below the maximum rank of a
    mask, when no seed extends an independent set to a base of the decided
    rank, and when every seed's rank table has a circuit within its count
    cap, so that none is proven.  Carries enough context to rerun the
    offending computation by hand.
    """

    def __init__(self, message, *, detail=None):
        super().__init__(message)
        self.detail = detail or {}


class WitnessMismatch(RuntimeError):
    """A combinatorial witness failed to match the algebraic oracle.

    This is a hard failure: either the model is wrong or the code is.
    """

    def __init__(self, message, *, detail=None):
        super().__init__(message)
        self.detail = detail or {}
