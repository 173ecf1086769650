"""Exception taxonomy shared across the package."""


class ShortGFError(Exception):
    """Base class for all package errors."""


class FormatError(ShortGFError):
    """Malformed text input (GF files, polyhedron files, circuits, formulas)."""


class NonCanonicalError(ShortGFError):
    """Operation requires a canonicalized generating function."""


class UnboundedPolyhedronError(ShortGFError):
    """Unbounded polyhedra are unsupported in this version."""


class InfiniteSupportError(ShortGFError):
    """A GF evaluated at one does not have finite support."""


class ZeroImageError(ShortGFError):
    """A monomial substitution maps a denominator exponent vector to zero."""

    def __init__(self, term_index, vector):
        self.term_index = term_index
        self.vector = tuple(vector)
        super().__init__(
            f"denominator vector {self.vector} of term {term_index} maps to zero"
        )


class SpecializationError(ShortGFError):
    """A projection claimed to be a specialization has a point with two witnesses."""

    def __init__(self, point, witness_a, witness_b):
        self.point = tuple(point)
        self.witness_a = tuple(witness_a)
        self.witness_b = tuple(witness_b)
        super().__init__(
            f"point {self.point} has two witnesses {self.witness_a} and {self.witness_b}"
        )


class ResourceLimitError(ShortGFError):
    """An enumeration exceeded the configured point limit."""
