"""The p-series route, kept as an oracle, against the routes that replaced it.

Heights read v_p(beta_(p^n)), and exactness reports read Hazewinkel's v_n
off the logarithm's p-power coefficients. The oracle builds [p](T) at
p^1 + 1, p^2 + 1, ..., cap and stops at the first window whose reduction mod
p is nonzero (p_series_oracle.escalating_height). A series at cap N is exact
through degree N, so the oracle's verdicts must equal the ones read off the
whole window, and the production routes must agree with the oracle: the
same closed-fibre height, the same ideals (p, v_1, ..., v_n), and no status
that moves between regular or unit and zerodivisor.
"""

import pytest
from hypothesis import event, given, settings, strategies as st

import p_series_oracle
from formalbrauer.coefficients import QQ, Prime, rat
from formalbrauer.errors import NonIntegral
from formalbrauer.fgl import (
    Logarithm,
    fgl_from_log,
    hazewinkel_log,
    ideal_contains,
    log_from_fgl,
    standard_law,
)
from formalbrauer.k3brauer import brauer_height, named_quartic, stienstra_log
from formalbrauer.landweber import (
    SCENARIOS,
    RingPresentation,
    builtin_scenario,
    landweber_check,
    zp_presentation,
)
from formalbrauer.series import Series
from p_series_oracle import (
    escalating_height,
    height,
    p_series,
    p_series_report,
)

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
    return ps, height(ps, h_max)


@pytest.mark.parametrize("name, p, h_max", sorted(CENSUS_HEIGHTS))
def test_escalated_height_equals_full_window(name, p, h_max):
    f = named_quartic(name)
    cap = p ** h_max + 1
    full = height(p_series(stienstra_log(f, cap).log, p, cap), h_max)
    got = brauer_height(f, p, h_max)
    assert got == full
    assert (got.kind, got.value, got.first_nonzero_degree) == \
        CENSUS_HEIGHTS[name, p, h_max]


REGULAR_OR_UNIT = {"regular", "unit"}


def _routes_agree(report, oracle, ring) -> int:
    """Assert that an exactness report agrees with the p-series oracle's;
    return how many statuses moved to or from unknown."""
    p = report.p
    h = report.closed_fibre_height
    assert h == oracle.closed_fibre_height
    for n in range(h.value + 1):
        ours, theirs = report.vs[:n + 1], oracle.vs[:n + 1]
        assert all(ideal_contains(theirs, x, p, ring) for x in ours), n
        assert all(ideal_contains(ours, x, p, ring) for x in theirs), n
    moves = 0
    for a, b in zip(report.verdicts, oracle.verdicts):
        pair = {a.status, b.status}
        assert not (pair & REGULAR_OR_UNIT and "zerodivisor" in pair), pair
        moves += a.status != b.status
    return moves


@pytest.mark.parametrize("name", SCENARIOS)
@pytest.mark.parametrize("p", [3, 5, 7])
def test_escalated_landweber_report_equals_full_window(name, p, monkeypatch):
    R, source, h_max = builtin_scenario(name, p)
    oracle = p_series_report(R, source, h_max)
    assert _routes_agree(landweber_check(R, source, h_max), oracle,
                         source.ring) == 0
    monkeypatch.setattr(p_series_oracle, "escalating_height", _full_window)
    assert oracle.to_json_dict() == \
        p_series_report(R, source, h_max).to_json_dict()


def _hazewinkel_case(draw, p):
    R = RingPresentation(Prime(p), ("t",), 8, ())
    base = R.base_ring
    t = base.var("t")
    v = draw(st.sampled_from([(t, 1), (1,), (0, 1)]))
    scaled = draw(st.lists(st.booleans(), min_size=len(v), max_size=len(v)))
    v = [base.coerce(x) * (p if s else 1) for x, s in zip(v, scaled)]
    return R, hazewinkel_log(v, Prime(p), p * p + 1), [base.one, t]


def _multiplicative_case(draw, p):
    R = draw(st.sampled_from([zp_presentation(p),
                              RingPresentation(Prime(p), (), 8, (p * p,))]))
    law = standard_law("multiplicative", QQ, p * p + 1)
    return R, log_from_fgl(law), [QQ.one]


@st.composite
def conjugates(draw):
    """(presentation, logarithm) for l(u(T)), where l is a Hazewinkel
    logarithm over Z_(p)[t] or the multiplicative one over QQ, and
    u(T) = T + c_2 T^2 + ... is a strict coordinate change with p-integral
    coefficients: the logarithm of the conjugated law."""
    p = draw(st.sampled_from([3, 5]))
    case = draw(st.sampled_from([_hazewinkel_case, _multiplicative_case]))
    R, log, units = case(draw, p)
    ring, cap = log.ring, log.cap
    coeffs = {1: ring.one}
    for d in draw(st.lists(st.integers(2, cap), max_size=4, unique=True)):
        c = draw(st.sampled_from([c for c in range(-p, p + 1) if c]))
        coeffs[d] = units[draw(st.integers(0, len(units) - 1))] * c
    u = Series.univariate(ring, cap, coeffs)
    return R, Logarithm(log.series.compose(u))


@settings(max_examples=30, deadline=None)
@given(conjugates())
def test_routes_agree_on_random_conjugates(case):
    R, log = case
    report = landweber_check(R, log, 2)
    moves = _routes_agree(report, p_series_report(R, log, 2), log.ring)
    event(f"statuses moved to or from unknown: {moves}")
    event(f"verdict {report.verdict}")


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
    # the first window, so the second window decides and meets 1/3 there;
    # the report reads v_1 = 0 and v_2 = 3 * (1/9) = 1/3
    log = _log({1: 1, 9: rat(1, 9)}, 10)
    with pytest.raises(NonIntegral):
        _full_window(log, Prime(3), 2, 10)
    with pytest.raises(NonIntegral):
        escalating_height(log, Prime(3), 2, 10)
    with pytest.raises(NonIntegral) as err:
        landweber_check(zp_presentation(3), log, 2)
    assert err.value.degree == 9


def test_law_with_a_denominator_off_the_degrees_p_n_raises():
    # l = T + T^2/3 puts 3-denominators on the law and on [3], but none on
    # its coefficients at T^(3^n): the law's own coefficients show them
    log = _log({1: 1, 2: rat(1, 3)}, 10)
    with pytest.raises(NonIntegral):
        landweber_check(zp_presentation(3), fgl_from_log(log, 10), 2)
    with pytest.raises(NonIntegral):
        p_series_report(zp_presentation(3), log, 2)


def test_denominator_above_the_deciding_window_is_not_looked_for():
    # log(1 + T) + T^9/9: the first window decides Finite(1) at degree 3;
    # the 1/3 in degree 9 lies above it and only the full window meets it.
    # The report stops at v_1 = 3 * (1/3), a unit, and never reads T^9.
    coeffs = {d: rat((-1) ** (d + 1), d) for d in range(1, 11)}
    coeffs[9] += rat(1, 9)
    log = _log(coeffs, 10)
    with pytest.raises(NonIntegral):
        _full_window(log, Prime(3), 2, 10)
    ps, h = escalating_height(log, Prime(3), 2, 10)
    assert ps.cap == 4
    assert (h.kind, h.value, h.first_nonzero_degree) == ("finite", 1, 3)
    report = landweber_check(zp_presentation(3), log, 2)
    assert report.closed_fibre_height == h
    assert report.verdict == "exact"
