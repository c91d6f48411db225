"""Exception types shared across the package."""

__all__ = [
    "MexpartsError", "NonUnitConstantTerm", "TruncationTooSmall", "OracleBoundExceeded",
    "InvalidSingularParams", "EvenModulus", "NotCoprime", "InvalidFamilyParams",
    "NonIntegralOffset",
]


class MexpartsError(Exception):
    """Base class for all library-specific errors."""


class NonUnitConstantTerm(MexpartsError, ValueError):
    """Series inversion needs constant term +1 or -1 for an exact integer inverse."""


class TruncationTooSmall(MexpartsError, ValueError):
    """A coefficient beyond the truncation order of a series was requested."""


class OracleBoundExceeded(MexpartsError, ValueError):
    """An enumeration-backed oracle was asked for an n above its documented bound."""


class InvalidSingularParams(MexpartsError, ValueError):
    """Singular overpartition parameters must satisfy k >= 3 and 1 <= i <= k//2."""


class EvenModulus(MexpartsError, ValueError):
    """The Jacobi symbol (a/n) is only defined for odd n."""


class NotCoprime(MexpartsError, ValueError):
    """Modular inversion requires gcd(x, m) = 1."""


class InvalidFamilyParams(MexpartsError, ValueError):
    """Parameters violate a side condition of the requested congruence family."""


class NonIntegralOffset(MexpartsError, ValueError):
    """A progression offset formula did not divide exactly."""
