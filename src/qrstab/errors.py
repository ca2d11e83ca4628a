"""Exception types shared across the package."""


class QrstabError(Exception):
    """Base class for all package errors."""


class NotPrime(QrstabError):
    """The requested modulus is composite."""


class UnsupportedModulus(QrstabError):
    """The modulus is prime but outside the supported range (p = 2 or p >= 2**20)."""


class UnsupportedForm(QrstabError):
    """The requested construction is not defined for this prime form."""


class WrongForm(UnsupportedForm):
    """A quasi-cyclic builder was given a context of the wrong prime form."""


class InvalidParameters(QrstabError):
    """Code parameters or a curve resolution lie outside their valid range."""


class LengthMismatch(QrstabError):
    """Two operators act on different numbers of qubits."""


class ShapeMismatch(QrstabError):
    """Matrix shapes are incompatible for the requested operation."""


class InvalidSymbol(QrstabError):
    """A Pauli string contains a character outside I, X, Y, Z."""


class SipViolation(QrstabError):
    """A constructed check-matrix pair fails the commutativity constraint."""


class RowIndexOutOfRange(QrstabError):
    """A 1-based row index lies outside the matrix."""


class DependentRows(QrstabError):
    """A requested row subset is linearly dependent over GF(2)."""


class InexactInputs(QrstabError):
    """An operation requiring exact distances was given bounds."""


class BudgetExhausted(QrstabError):
    """A distance was asked over an empty set: d_min of a K = 0 code, whose
    normalizer is its stabilizer, or d_dagger of a code with no generators."""


class MalformedAlist(QrstabError):
    """An alist file violates the format; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class MalformedRecord(QrstabError, ValueError):
    """A JSON code record is malformed or of another schema version."""
