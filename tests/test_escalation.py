"""Escalating p-series windows give the verdicts of the full window.

Heights and exactness reports build [p](T) at p^1 + 1, p^2 + 1, ..., cap and
stop at the first window whose reduction mod p is nonzero. A series at cap
N is exact through degree N, so every verdict must equal the one read off
the whole window, computed here directly.
"""

import pytest

from formalbrauer import landweber
from formalbrauer.coefficients import QQ, Prime, rat
from formalbrauer.errors import NonIntegral
from formalbrauer.fgl import (
    Logarithm,
    escalating_height,
    height,
    p_series,
    standard_law,
)
from formalbrauer.k3brauer import brauer_height, named_quartic, stienstra_log
from formalbrauer.landweber import (
    SCENARIOS,
    builtin_scenario,
    landweber_check,
    zp_presentation,
)
from formalbrauer.series import Series

# (quartic, p, h_max) -> (kind, value, first_nonzero_degree): the height
# cells of the census benchmark, with the verdicts the seed commit gave
CENSUS_HEIGHTS = {
    ("fermat", 5, 2): ("finite", 1, 5),
    ("fermat", 13, 2): ("finite", 1, 13),
    ("fermat", 7, 2): ("at_least", 2, None),
    ("fermat", 11, 2): ("at_least", 2, None),
    ("fermat", 5, 3): ("finite", 1, 5),
    ("fermat", 3, 3): ("at_least", 3, None),
    ("fermat", 3, 5): ("at_least", 5, None),
    ("diag-1248", 5, 2): ("finite", 1, 5),
    ("diag-1248", 13, 2): ("finite", 1, 13),
    ("diag-1248", 5, 3): ("finite", 1, 5),
    ("diag-1248", 7, 2): ("at_least", 2, None),
    ("diag-1248", 11, 2): ("at_least", 2, None),
    ("fermat-cross", 3, 3): ("at_least", 3, None),
    ("fermat-cross", 5, 2): ("finite", 1, 5),
    ("fermat-cross", 11, 1): ("at_least", 1, None),
    ("fermat-cross", 13, 1): ("finite", 1, 13),
}


def _full_window(source, p, h_max, cap):
    """escalating_height without the escalation: the whole cap at once."""
    ps = p_series(source, p, cap)
    return ps, height(ps.reduce(), h_max)


@pytest.mark.parametrize("name, p, h_max", sorted(CENSUS_HEIGHTS))
def test_escalated_height_equals_full_window(name, p, h_max):
    f = named_quartic(name)
    cap = p ** h_max + 1
    full = height(p_series(stienstra_log(f, cap).log, p, cap).reduce(), h_max)
    got = brauer_height(f, p, h_max)
    assert got == full
    assert (got.kind, got.value, got.first_nonzero_degree) == \
        CENSUS_HEIGHTS[name, p, h_max]


@pytest.mark.parametrize("name", SCENARIOS)
@pytest.mark.parametrize("p", [3, 5, 7])
def test_escalated_landweber_report_equals_full_window(name, p, monkeypatch):
    R, source, h_max = builtin_scenario(name, p)
    got = landweber_check(R, source, h_max).to_json_dict()
    monkeypatch.setattr(landweber, "escalating_height", _full_window)
    assert got == landweber_check(R, source, h_max).to_json_dict()


def test_witness_window_stops_the_escalation():
    # the multiplicative law at p = 3 shows T^3 in the first window already
    law = standard_law("multiplicative", QQ, 28)
    ps, h = escalating_height(law, Prime(3), 3, 28)
    assert ps.cap == 4
    assert (h.kind, h.value, h.first_nonzero_degree) == ("finite", 1, 3)


def _log(coeffs, cap):
    return Logarithm(Series.univariate(QQ, cap, coeffs))


def test_denominator_in_the_deciding_window_raises():
    # l = T + T^9/9: [3] = 3T + (1/3 - 3^7) T^9 + ..., zero mod 3 through
    # the first window, so the second window decides and meets 1/3 there
    log = _log({1: 1, 9: rat(1, 9)}, 10)
    with pytest.raises(NonIntegral):
        _full_window(log, Prime(3), 2, 10)
    with pytest.raises(NonIntegral):
        escalating_height(log, Prime(3), 2, 10)
    with pytest.raises(NonIntegral):
        landweber_check(zp_presentation(3), log, 2)


def test_denominator_above_the_deciding_window_is_not_looked_for():
    # log(1 + T) + T^9/9: the first window decides Finite(1) at degree 3;
    # the 1/3 in degree 9 lies above it and only the full window meets it
    coeffs = {d: rat((-1) ** (d + 1), d) for d in range(1, 11)}
    coeffs[9] += rat(1, 9)
    log = _log(coeffs, 10)
    with pytest.raises(NonIntegral):
        _full_window(log, Prime(3), 2, 10)
    ps, h = escalating_height(log, Prime(3), 2, 10)
    assert ps.cap == 4
    assert (h.kind, h.value, h.first_nonzero_degree) == ("finite", 1, 3)
