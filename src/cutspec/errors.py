"""Exception hierarchy shared across the package."""


class CutspecError(Exception):
    """Base class for all domain errors raised by cutspec."""


class UsageError(CutspecError):
    """Bad command-line input, such as an unreadable file; the CLI exits 2."""


class ParseError(CutspecError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SelfLoop(CutspecError):
    pass


class NegativeWeight(CutspecError):
    pass


class IsolatedVertex(CutspecError):
    pass


class OverlappingSets(CutspecError):
    pass


class Disconnected(CutspecError):
    pass


class TooLarge(CutspecError):
    pass


class BadK(CutspecError):
    pass


class ZeroMeasure(CutspecError):
    pass


class ZeroVector(CutspecError):
    pass


class DegenerateDenominator(CutspecError):
    pass


class NotVerified(CutspecError):
    pass


class NotInOmega(CutspecError):
    pass


class UnknownProblem(CutspecError):
    pass
