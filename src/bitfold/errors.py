"""Exception types shared across the package."""


class BitfoldError(Exception):
    """Base class for all package-specific errors."""


# numerics
class ShapeMismatch(BitfoldError):
    pass


class NonFiniteValue(BitfoldError):
    pass


class NotScalar(BitfoldError):
    pass


class DetachedLoss(BitfoldError):
    pass


# geometry
class LengthMismatch(BitfoldError):
    pass


class DegenerateInput(BitfoldError):
    pass


class ParseError(BitfoldError):
    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class MissingAtom(BitfoldError):
    pass


class SpecInvalid(BitfoldError):
    pass


# tokenizer
class IndexOutOfRange(BitfoldError):
    pass


class NonFiniteLoss(BitfoldError):
    pass


# diffusion
class BadT(BitfoldError):
    pass


class ModeInputMissing(BitfoldError):
    pass


# flow matching
class TimeOrder(BitfoldError):
    pass


# architecture / config
class InvalidConfig(BitfoldError):
    pass
