"""Exception hierarchy for spheremin."""


class SphereminError(Exception):
    """Base class for all spheremin errors."""


class ParameterDomainError(SphereminError, ValueError):
    """A family or solver parameter lies outside its admissible range."""


class PoleEvaluation(SphereminError):
    """A function was evaluated exactly on one of its poles."""

    def __init__(self, z, factor=None):
        self.z = z
        self.factor = factor
        msg = f"evaluation at pole z={z!r}"
        if factor is not None:
            msg += f" (offending factor {factor})"
        super().__init__(msg)


class ClosedFormMismatch(SphereminError):
    """A printed closed-form solution disagrees with the root taken from
    its period equation's coefficients; the CLI exits 3."""


class NoRoot(SphereminError):
    """A period equation has no admissible root: a negative discriminant,
    no positive root, or a root outside the search range (for
    `hybrid_root`, no sign change in it); the CLI exits 2."""


class PeriodViolation(SphereminError):
    """A residue-reality condition failed; carries the full report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class UnrecognizedEndType(SphereminError):
    """Order pair at a puncture matches no known end pattern."""

    def __init__(self, location, g_order, dh_order):
        self.location = location
        self.g_order = g_order
        self.dh_order = dh_order
        super().__init__(
            f"end at {location!r} has order pair (G: {g_order}, dh: {dh_order}) "
            "matching no planar/catenoid pattern"
        )


class Unroutable(SphereminError):
    """A path endpoint lies inside an exclusion disk."""


class QuadratureFailure(SphereminError):
    """Adaptive quadrature exhausted its subdivision budget."""


class DegenerateTriangle(SphereminError):
    """A mesh face is too close to collinear for curvature estimates."""
