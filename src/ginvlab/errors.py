"""Exception types shared across the package."""


class GinvError(Exception):
    """Base class for all errors raised by this package."""


class InvalidModulus(GinvError):
    """Modulus/characteristic is out of range or not prime where required."""


class BadTensorShape(GinvError):
    """Structure-constant data is malformed (shape, labels, coefficients)."""


class NotAssociative(GinvError):
    """Structure constants fail associativity; carries a witness triple."""

    def __init__(self, message, triple=None):
        super().__init__(message)
        self.triple = triple


class NoUnity(GinvError):
    """Declared unity vector is not a two-sided identity."""


class RingMismatch(GinvError):
    """Operands belong to different rings."""


class BudgetExceeded(GinvError):
    """Ring is too large for exhaustive enumeration; carries the size."""

    limit = "enumeration budget"

    def __init__(self, size, budget):
        super().__init__(f"ring has {size} elements, {self.limit} is {budget}")
        self.size = size
        self.budget = budget


class TableCapExceeded(BudgetExceeded):
    """Ring is above TABLE_CAP, the size up to which a scan over every
    pair of elements (and a product table) is allowed."""

    limit = "op-table cap"


class ParseError(GinvError):
    """Element expression is malformed; carries the character position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownGenerator(ParseError):
    """Expression names a generator the ring does not define."""


class NotInnerInverse(GinvError):
    """Claimed witness fails a*a0*a = a."""


class NotReflexiveInverse(GinvError):
    """Claimed witness fails one of a*a0*a = a, a0*a*a0 = a0."""


class UnknownCheck(GinvError):
    """Requested check name is not registered."""


class WrongRing(GinvError):
    """Ring claims to be the builtin fixture but fails its invariants."""
