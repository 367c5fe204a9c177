"""Exception types shared across the package."""


class GeometryError(ValueError):
    """Invalid geometric input (domain violations, bad parameters)."""


class ConstraintViolation(GeometryError):
    """A point or tangent vector does not satisfy its model constraint."""


class AntipodalPointsError(GeometryError):
    """log map requested between antipodal points on the sphere."""


class CurveGenerationError(GeometryError):
    """A curve generator rejected its input.

    Carries optional diagnostics, e.g. the parameter value at which a
    validity condition failed.
    """

    def __init__(self, message, *, where=None):
        super().__init__(message)
        self.where = where


class NonClosureError(RuntimeError):
    """The closure solver for a generated curve did not converge."""

    def __init__(self, message, *, residual=None):
        super().__init__(message)
        self.residual = residual


class HypothesisViolation(RuntimeError):
    """Input does not satisfy the hypotheses of the bound being verified.

    Verifiers raise this instead of judging the bound, so that callers can
    distinguish "bound failed" from "bound not applicable".
    """
