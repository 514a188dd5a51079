"""Exception types raised across the package.

Every error derives from :class:`HypersliceError` so callers (and the CLI)
can distinguish domain failures from programming errors.  Parse errors form
their own small branch because the CLI maps them to a different exit code.
"""


class HypersliceError(Exception):
    """Base class for all errors raised by this package."""


class UnsupportedKind(HypersliceError):
    """Requested algebra kind is not one of the supported table builders."""


class DimensionTooLarge(HypersliceError):
    """Clifford signature p+q exceeds the supported table size."""


class AlgebraMismatch(HypersliceError):
    """An argument has the wrong algebra, the wrong variable count, or the
    wrong length."""


def check_space(what, n, algebra, want_n, want_algebra):
    """AlgebraMismatch unless argument `what` has want_n variables over
    want_algebra; internal, and it allocates nothing when it passes.  A site
    that checks only the count or only the algebra passes the other twice."""
    if n != want_n or (algebra is not want_algebra
                       and algebra != want_algebra):
        raise AlgebraMismatch(
            f"{what}: n = {n} over {algebra.kind}, expected n = {want_n} "
            f"over {want_algebra.kind}")


class NotInQuadraticCone(HypersliceError):
    """Element fails a quadratic-cone membership condition.

    The message names the violated condition (non-real trace, non-real norm,
    or failed inequality 4 n(x) > t(x)^2).
    """


class NotInvertible(HypersliceError):
    """No two-sided inverse exists (or cannot be certified) for the element."""


class NotImaginaryUnit(HypersliceError):
    """Element is not in the unit sphere {t(J)=0, n(J)=1}."""


class EmptyUnitSphere(HypersliceError):
    """The algebra has no imaginary units, so slice constructions refuse it."""


class SplittingFailed(HypersliceError):
    """Greedy completion of {1, J} to a module basis became singular."""


class InvalidTolerance(HypersliceError):
    """A tolerance is not a finite number >= 0."""


class UsageError(HypersliceError):
    """Command line with an unknown, missing or malformed option."""


class IndexOutOfRange(HypersliceError):
    """Variable index h outside 1..n."""


class ParityError(HypersliceError):
    """Stem component violates the even/odd parity law in some beta_h."""


class SphereMismatch(HypersliceError):
    """Representation formula applied to points on different sphere orbits."""


class OnRealLocus(HypersliceError):
    """Operation needs beta_k > 0 for some k but the point is real there."""


class BlackBoxUnsupported(HypersliceError):
    """Operation requires a polynomial stem, not a black-box adapter."""


class OutsideConvergenceBall(HypersliceError):
    """Series evaluation requested where gamma = B*rho*M >= 1."""


class NonAssociativeAlgebra(HypersliceError):
    """Closed-form kernel requested over a non-associative algebra."""


class OnSingularSphere(HypersliceError):
    """Characteristic polynomial vanishes, kernel undefined at this pair."""


class QuadratureSingularity(HypersliceError):
    """Target point too close to a boundary sphere for stable quadrature."""


class PointOutsideE(HypersliceError):
    """Reconstruction target lies outside the circularized product domain."""


class QuadratureInaccurate(HypersliceError):
    """The quadrature's proven error bound exceeds both the tolerance and
    the value's norm, so not even the leading digit is known."""


class QuadratureAliasing(HypersliceError):
    """Too few samples per circle for a polynomial's degree: N <= d aliases
    the trapezoid sums, so the reconstruction means nothing."""


class ConstantPolynomial(HypersliceError):
    """Root finding requested for a polynomial with no nonconstant term."""


class RefinementFailed(HypersliceError):
    """Root finding could not find a zero within its residual bound."""


class ExpressionSyntaxError(HypersliceError):
    """Parse error with a deterministic position.

    Attributes line and col are 1-based; expected describes what the parser
    would have accepted at that position.
    """

    def __init__(self, message, line, col, expected=None):
        super().__init__(message)
        self.line = line
        self.col = col
        self.expected = expected


class UnknownBasisName(ExpressionSyntaxError):
    """Coefficient references a basis name absent from the chosen algebra."""
