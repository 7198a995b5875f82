"""Exception types shared across the package."""

MAX_INT_DIGITS = 4300  # Python's default int/str digit limit; cli.main pins it


class PointfreeError(Exception):
    """Base class for all package errors."""


def _decimal(n):
    """n in decimal, or a lower bound on it where Python refuses to write
    it out (past MAX_INT_DIGITS digits)."""
    try:
        return str(n)
    except ValueError:
        return f"at least 2^{n.bit_length() - 1}"


class CapExceeded(PointfreeError):
    """An enumeration would exceed the configured desk-scale cap."""

    def __init__(self, what, size, cap, field):
        super().__init__(f"{what} has size {_decimal(size)}, exceeding cap "
                         f"{_decimal(cap)} ({field})")
        self.what = what
        self.size = size
        self.cap = cap


class ParseError(PointfreeError):
    """Syntax or semantic error in one of the text formats."""

    def __init__(self, message, line=None, col=None):
        loc = ""
        if line is not None:
            loc = f" at line {line}" + (f", col {col}" if col is not None else "")
        elif col is not None:
            loc = f" at col {col}"
        super().__init__(message + loc)
        self.message = message
        self.line = line
        self.col = col


class MixedPresentations(PointfreeError):
    """Two C-ideals from different presentations were combined."""


class NotDistributive(PointfreeError):
    """A lattice failed the distributivity law; carries a witness triple."""

    def __init__(self, witness):
        a, b, c = witness
        super().__init__(f"distributivity fails on triple ({a}, {b}, {c})")
        self.witness = witness


class BudgetExhausted(PointfreeError):
    """A search ran out of its node budget; carries any partial result."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial
