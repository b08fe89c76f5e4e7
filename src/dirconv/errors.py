"""Exception types shared across the library.

Errors split into two families: *mathematical refusals* (the input is
well formed but the requested construction does not exist or cannot be
certified) and plain usage errors.  The CLI maps refusals to exit
code 2 and everything else to exit code 1.
"""


class DirconvError(Exception):
    """Base class for all library errors."""


class MathematicalRefusal(DirconvError):
    """The computation is refused on mathematical grounds, not by a bug."""


# -- semigroup ---------------------------------------------------------------

class EmptyTruncation(DirconvError):
    """Requested a window with a negative size bound or no elements."""


class OnlyZero(MathematicalRefusal):
    """The truncation window contains no non-zero element."""


class WindowTooLarge(MathematicalRefusal):
    """A window walk or table passes ``MAX_ELEMENTS``, ``MAX_ENTRIES`` or ``MAX_PAIRS``."""


class NotEnumerated(DirconvError):
    """An element lies outside the completed enumeration window."""


# -- algebra -----------------------------------------------------------------

class BackendMismatch(DirconvError):
    """Operands live on different enumerated windows."""


class NotInvertible(MathematicalRefusal):
    """g(0) fails the anchor gate of g * h - unit = 0: g has no inverse."""


# -- solver ------------------------------------------------------------------

class DegenerateConstant(MathematicalRefusal):
    """The anchor polynomial is a non-zero constant, so it has no roots."""


class ZeroPolynomial(MathematicalRefusal):
    """Every coefficient vanishes at 0; no anchor root can be selected."""


class NotASimpleRoot(MathematicalRefusal):
    """The base point is not a simple zero of the base-point map: f(z0) != 0
    or f'(z0) = 0 for an equation, F(z0) != 0 or J singular for a system."""


class NoSimpleRoots(MathematicalRefusal):
    """The anchor polynomial has no simple roots.

    Carries the root report and, when available, explicit obstruction
    values proving unsolvability (``proven_unsolvable``) or leaving
    existence undecided.
    """

    def __init__(self, message, report=None, obstructions=(), proven_unsolvable=False):
        super().__init__(message)
        self.report = report
        self.obstructions = tuple(obstructions)
        self.proven_unsolvable = proven_unsolvable


class PreconditionFailed(DirconvError):
    """An operation-specific precondition does not hold."""


# -- certificate -------------------------------------------------------------

class AllCoefficientsZero(MathematicalRefusal):
    """Every coefficient norm vanishes; the instance is trivial."""


class NoPositiveR(MathematicalRefusal):
    """The damping ratio is non-positive everywhere sampled; no certificate."""


class CertificateViolated(DirconvError):
    """A certificate check failed; indicates a bug or an under-reported norm.

    Carries the offending level.
    """

    def __init__(self, message, level=None):
        super().__init__(message)
        self.level = level


# -- series ------------------------------------------------------------------

class OutOfHalfPlane(MathematicalRefusal):
    """Evaluation point lies outside the certified half-plane."""


# -- cli ---------------------------------------------------------------------

class SpecError(DirconvError):
    """A problem specification failed to parse or validate.

    ``path`` points at the offending field, e.g. ``equation.coefficients[2]``.
    """

    def __init__(self, message, path=""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path
