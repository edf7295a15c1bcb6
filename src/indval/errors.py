"""Exception taxonomy shared by all modules."""


class IndvalError(Exception):
    """Base class for all library errors."""


class ParseError(IndvalError, ValueError):
    """Malformed textual input (polynomial, value, chain file)."""


class DomainError(IndvalError, ValueError):
    """An operation was called outside its mathematical domain."""


class ChainError(IndvalError, ValueError):
    """A chain (or continuous family) violates a validation invariant.

    The message names the first violated invariant and the offending index.
    """


class ResourceError(IndvalError, RuntimeError):
    """A computation would need more data or work than the configured cap.

    Raised e.g. when a stability witness lies beyond the provided prefix, or
    when an enumeration would exceed its candidate cap.
    """


class InvariantError(IndvalError, AssertionError):
    """An internal invariant failed: a library defect, not a caller error.

    Raised in place of a bare ``assert`` so the check survives ``python -O``;
    the message names the chain and the input that broke it.
    """
