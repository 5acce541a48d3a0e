"""Exception taxonomy shared by all modules."""


class CipherError(Exception):
    """Base class for every structured failure in this package."""


class InvalidKey(CipherError):
    pass


class ComplexFixedPoints(CipherError):
    pass


class DivisionByZeroInOrbit(CipherError):
    pass


class UnknownSymbol(CipherError):
    pass


class NonIntegralPlaintext(CipherError):
    pass


class NegativePlaintext(CipherError):
    pass


class CheckNumberMismatch(CipherError):
    """A block decrypts exactly but disagrees with its det P or column ratio."""


class NotGoldenOracle(CipherError):
    pass


class NoMatchInBounds(CipherError):
    pass


class FormatError(CipherError):
    pass


class DegenerateConvergenceWarning(UserWarning):
    """Key accepted, but its ratio sequences converge only linearly."""
