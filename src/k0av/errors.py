"""Exception hierarchy.

Every error raised by the library derives from K0Error so the CLI can map
failures to exit code 2 uniformly.
"""


class K0Error(Exception):
    """Base class for all library errors."""


def excerpt(text: str, limit: int = 40) -> str:
    """`text` quoted for an error message: whole up to `limit` characters,
    past that its first `limit` characters and its length."""
    if len(text) <= limit:
        return repr(text)
    return f"{text[:limit]!r}... ({len(text)} characters)"


class SingularMatrixError(K0Error):
    """Matrix operation that requires a nonzero determinant got a singular input."""


class LevelMismatchError(K0Error):
    """Torsion-subgroup operation on subgroups of different levels."""


class DiscriminantError(K0Error):
    """Invalid or unsupported quadratic discriminant (non-fundamental, positive, ...)."""


class ContextError(K0Error):
    """Invalid isogeny-context description."""


class ContextMismatchError(K0Error):
    """Operation mixing classes from different isogeny contexts."""


class KernelInputError(K0Error):
    """Invalid kernel data, a non-positive degree, or a degree that needs
    kernel (not rational) input."""


class DerivationError(K0Error):
    """Certificate construction failed (order mismatch, exhausted search, bad data)."""


class ParseError(K0Error):
    """Expression or literal syntax error, with position information."""

    def __init__(self, message: str, pos: int, expected: str | None = None):
        detail = f"at position {pos}: {message}"
        if expected is not None:
            detail += f" (expected {expected})"
        super().__init__(detail)
        self.message = message
        self.pos = pos
        self.expected = expected
