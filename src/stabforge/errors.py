"""Exception types shared across the package.

Every checked precondition failure raises one of these.  They all derive
from ValueError so callers that do not care about the exact condition can
catch broadly.
"""

from __future__ import annotations


class StabforgeError(ValueError):
    """Base class for all package-specific errors."""


# -- finite fields ---------------------------------------------------------

class NotPrime(StabforgeError):
    """Characteristic is not a prime number."""


class UnsupportedSize(StabforgeError):
    """Requested field order is outside the supported range (q <= 256)."""


class NotSubfield(StabforgeError):
    """Target field is not a subfield of the source field."""


# -- matrices and codes ----------------------------------------------------

class DimensionMismatch(StabforgeError):
    """Operands have incompatible shapes or live over different fields."""


class WrongFieldOrder(StabforgeError):
    """Operation needs a field of square order (or a matching order)."""


class OddLength(StabforgeError):
    """Symplectic layout requires an even number of columns."""


class ZeroCode(StabforgeError):
    """The zero code has no nonzero codeword to take a minimum over."""


class EmptyDifference(StabforgeError):
    """Set difference of two equal codes is empty."""


class NotNested(StabforgeError):
    """Required code inclusion does not hold."""


class CodeFileError(StabforgeError):
    """A code file could not be parsed; message names file and line."""


# -- error operators -------------------------------------------------------

class ShapeMismatch(StabforgeError):
    """Operators act on different qudit counts or fields."""


class BadRange(StabforgeError):
    """A value is outside its range: a weight cap outside [0, n], or a
    matrix entry that is not a residue 0..q-1."""


class BadSyntax(StabforgeError):
    """Operator string does not match the grammar."""


class BadAlphabet(StabforgeError):
    """Operator string uses letters not valid for the target field."""


# -- constructions ---------------------------------------------------------

class NotSelfOrthogonal(StabforgeError):
    """Generators fail pairwise symplectic orthogonality.

    Carries the offending generator index pair and the pairing value.
    """

    def __init__(self, i: int, j: int, value: int, message: str):
        self.pair = (i, j)
        self.value = value
        super().__init__(message)


class NotDualContaining(StabforgeError):
    """Code does not contain its Euclidean dual."""


class NotEnlargement(StabforgeError):
    """Claimed enlargement is not a strict supercode."""


class EnlargementTooSmall(StabforgeError):
    """Enlargement must add at least two dimensions (k' > k+1)."""


class BadRule(StabforgeError):
    """Propagation rule precondition violated."""


# -- bounds ----------------------------------------------------------------

class HypothesisViolated(StabforgeError):
    """A bound's hypothesis fails; message names the violated one."""


class BadInput(StabforgeError):
    """Parameter tuple outside the predicate's domain."""


# -- state-vector oracle ---------------------------------------------------

class TooLarge(StabforgeError):
    """Dense Hilbert-space computation exceeds the configured size cap."""


class UnsupportedField(StabforgeError):
    """Dense oracle supports qubits (q = 2) only."""
