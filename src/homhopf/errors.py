"""Exception types shared across the package."""


class HomHopfError(Exception):
    """Base class for all structural errors raised by this package."""


class UnknownBasisIndex(HomHopfError):
    """An operator was applied to a basis index outside its domain."""


class NotInvertible(HomHopfError):
    """A linear operator required to be invertible is singular."""


class NotInvertibleAlpha(NotInvertible):
    """The algebra twist has no inverse."""


class NotInvertibleBeta(NotInvertible):
    """The coalgebra twist has no inverse."""


class NotHomLie(HomHopfError):
    """Structure constants fail the twisted Jacobi identity."""


class TruncationOverflow(HomHopfError):
    """A product or coproduct left the retained degree range.

    Raised instead of silently projecting, so that degree-budget
    accounting in the checkers stays honest.
    """


class NotMatchedPair(HomHopfError):
    """A pair of Hom-Lie algebras fails the matched-pair equations."""


class OrderConstraintViolated(HomHopfError):
    """A twist fails the finite-order hypothesis required for semidualization."""


class SchemaError(HomHopfError):
    """An input document violates the schema; message carries a JSON pointer."""


class InverseMismatch(HomHopfError):
    """A declared matrix inverse does not invert its matrix."""
