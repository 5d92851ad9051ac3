"""Exact computation with one-dimensional formal group laws: formal Brauer
groups of quartic surfaces, heights in odd characteristic, and
Landweber-exactness certificates over p-local base rings."""

__version__ = "0.1.0"

from .coefficients import QQ, Prime, rat
from .errors import (
    CapTooSmall,
    CertificationRefused,
    DivisionFailure,
    FormalBrauerError,
    NonIntegral,
    NotAUnit,
    RingMismatch,
    SingularCurve,
    SmoothnessCheckFailed,
)
from .fgl import (
    FormalGroupLaw,
    HeightResult,
    Logarithm,
    PSeries,
    count_points,
    elliptic_fgl,
    elliptic_ss_oracle,
    fgl_from_log,
    hazewinkel_generators,
    hazewinkel_log,
    ideal_contains,
    ideal_contains_all,
    log_from_fgl,
    p_series,
    standard_law,
)
from .k3brauer import (
    BUILTIN_QUARTICS,
    QuarticForm,
    beta_coefficient,
    brauer_height,
    named_quartic,
    ordinarity_criterion,
    smooth_check_fp,
    stienstra_log,
)
from .landweber import (
    RingPresentation,
    builtin_scenario,
    certify_k3_spectrum,
    check_regular_sequence,
    landweber_check,
    rational_certificate,
    zp_presentation,
)

__all__ = [
    "__version__",
    "QQ", "Prime", "rat",
    "FormalBrauerError", "NonIntegral", "DivisionFailure", "NotAUnit",
    "RingMismatch", "CapTooSmall", "SingularCurve",
    "SmoothnessCheckFailed", "CertificationRefused",
    "Logarithm", "FormalGroupLaw", "PSeries", "HeightResult",
    "standard_law", "fgl_from_log", "log_from_fgl", "p_series",
    "ideal_contains", "ideal_contains_all", "hazewinkel_log",
    "hazewinkel_generators",
    "elliptic_fgl", "count_points", "elliptic_ss_oracle",
    "QuarticForm", "BUILTIN_QUARTICS", "named_quartic", "beta_coefficient",
    "stienstra_log", "brauer_height", "ordinarity_criterion",
    "smooth_check_fp",
    "RingPresentation", "zp_presentation", "check_regular_sequence",
    "landweber_check", "certify_k3_spectrum", "rational_certificate",
    "builtin_scenario",
]
