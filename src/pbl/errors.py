"""Exception types shared across the library.

Two broad classes: ``ValidationError`` for inputs that violate a documented
precondition (bad geometry, degenerate configurations, out-of-domain
parameters) and ``NumericalError`` for computations that could not be
completed reliably.  The CLI maps the former to exit code 2 and the latter
to exit code 3.
"""


class PblError(Exception):
    """Base class for all library errors."""


class ValidationError(PblError):
    """An input violates a documented precondition."""


class NumericalError(PblError):
    """A numerical procedure failed to produce a trustworthy result."""


# ---------------------------------------------------------------- metric

class LightLikeNormal(ValidationError):
    """Reflection is undefined: the boundary normal is light-like."""


# ---------------------------------------------------------------- confocal

class DegenerateParameter(ValidationError):
    """The family parameter hits a degenerate member of the pencil."""


class NoIntersection(ValidationError):
    """The line misses the reference ellipsoid."""


class AmbiguousSign(ValidationError):
    """A caustic parameter is zero, so the sign rule cannot decide the type."""


class RootIsolationError(NumericalError):
    """Root isolation produced an inconsistent root count."""


# ---------------------------------------------------------------- relativistic

class MultipleRoot(ValidationError):
    """The coordinate in question is a multiple root at this point."""


class NotDecoratable(ValidationError):
    """Coordinates cannot be decorated (complex pair or multiple root)."""


class BoundaryCase(ValidationError):
    """Parameter sits exactly on a boundary between classification cases."""


class PointNotOnConic(ValidationError):
    """The point does not lie on the requested conic."""


class CuspPoint(ValidationError):
    """Surface normal is undefined on a cusp edge."""


# ---------------------------------------------------------------- billiard

class PointNotOnBoundary(ValidationError):
    """The point does not lie on the reference ellipsoid."""


class NumericalStall(NumericalError):
    """The billiard flow cannot continue: its chord is too short or does not
    cut Q_0, or a bounce point is off Q_0 by more than BOUNDARY_TOL."""


class NoSolution(NumericalError):
    """No direction matching the requested caustics was found."""


class InadmissibleCaustics(ValidationError):
    """The requested caustic set violates the interlacing constraints."""


class NotPlanarLightLike(ValidationError):
    """Operation requires a light-like trajectory in a planar family."""


# ---------------------------------------------------------------- periodicity

class NonpositiveConstantTerm(ValidationError):
    """Square-root series needs a positive constant term."""


class DegenerateConfiguration(ValidationError):
    """Caustic parameters collide with each other or with degenerate members."""


class InsufficientOrder(ValidationError):
    """Not enough series coefficients for the requested period."""


class VacuousCondition(ValidationError):
    """The closure condition is empty for this period and dimension."""


class OddPeriod(ValidationError):
    """Light-like periodicity requires an even period."""


class CayleyConditionFailed(ValidationError):
    """The closure condition does not hold, so verification is vacuous."""


class ConstructionFailure(NumericalError):
    """Could not realize the requested caustics from a sampled point."""
