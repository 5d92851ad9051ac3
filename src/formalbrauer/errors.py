"""Exceptions shared across the package."""


class FormalBrauerError(Exception):
    """Base class for every error this package raises deliberately."""


class NonIntegral(FormalBrauerError):
    """A coefficient fails p-integrality where the computation requires it.

    Carries enough context (degree, offending value) to report which
    coefficient broke, since the whole pipeline aborts on the first one.
    """

    def __init__(self, message, degree=None, value=None):
        super().__init__(message)
        self.degree = degree
        self.value = value


class NotAUnit(FormalBrauerError):
    """Multiplicative inverse requested for a non-unit."""


class RingMismatch(FormalBrauerError):
    """Operands belong to different coefficient rings or variable sets."""


class CapTooSmall(FormalBrauerError):
    """A truncation cap is too small for the requested computation."""


class SingularCurve(FormalBrauerError):
    """Weierstrass coefficients with vanishing discriminant."""


class CertificationRefused(FormalBrauerError):
    """A certificate was requested but the exactness check did not succeed.

    The partial report (when one exists) is attached for diagnostics.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class SmoothnessCheckFailed(CertificationRefused):
    """A rational certificate was refused: no listed prime has a smooth
    reduction (smooth_check_fp), so smoothness over Q-bar is not shown."""
