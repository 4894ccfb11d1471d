"""Exception types shared across the package.

Every failure mode that callers are expected to catch has its own class;
anything else surfacing (``ValueError``, ``KeyError``) is a plain bug.
"""


class MacopsError(Exception):
    """Base class for all package-specific errors."""


class NonExactDivision(MacopsError):
    """Polynomial division left a nonzero remainder.

    In production code paths this always signals an internal algebra bug,
    since every division we perform is exact by theorem.
    """


class NotDivisible(MacopsError):
    """A substitution required dividing by a factor that does not divide."""


class OutOfRange(MacopsError):
    """An index or size argument is outside its documented range."""


class IndexOutOfRange(OutOfRange):
    """An operator index is outside [0, nvars]."""


class CellOutsideDiagram(MacopsError):
    """A cell coordinate does not lie in the given partition diagram."""


class LengthExceedsVars(MacopsError):
    """A partition has more parts than there are variables."""


class NegativeExponent(MacopsError):
    """An exponent that must be nonnegative came out negative."""


class NotSymmetric(MacopsError):
    """A polynomial expected to be symmetric in x is not."""


class SingularSystem(MacopsError):
    """A linear system that should determine its unknowns is singular."""


class SpecializationRequired(MacopsError):
    """An operation needs a specialized parameter but got a symbolic one."""


class NonIntegralEntry(MacopsError):
    """A value proved to be polynomial has a nontrivial denominator."""


class VerificationFailed(MacopsError):
    """A machine check of a stated identity or theorem failed."""


class IdentityFailed(VerificationFailed):
    """An identity suite member evaluated to unequal sides."""
