"""Series.solve and the p-series built on it, against the earlier route.

The earlier route built [p](T) as l^{-1}(p l(T)): a full-precision Newton
reversion of the logarithm, then a second composition at the full cap. It
lives here only, as the oracle the one-solve route is checked against
coefficient by coefficient.
"""

import pytest
from hypothesis import given, settings, strategies as st

from formalbrauer.coefficients import QQ, Prime, TruncPoly, TruncPolyRing, rat
from formalbrauer.errors import NotAUnit, RingMismatch
from formalbrauer.fgl import Logarithm, hazewinkel_log, p_series
from formalbrauer.k3brauer import named_quartic, stienstra_log
from formalbrauer.series import Series
from p_series_oracle import quartic_log

CENSUS_PRIMES = (3, 5, 7, 11, 13)


def _reversion_full_precision(s: Series) -> Series:
    """Compositional inverse by Newton steps that compose the full
    derivative and invert it to the full step precision."""
    rng = s.ring
    N = s.cap
    b = Series(rng, s.vars, 1, {(1,): rng.invert(s.coeff(1))})
    m = 1
    while m < N:
        m2 = min(2 * m + 1, N)
        a = s.truncate(m2)
        b = b.with_cap(m2)
        err = a.compose(b).sub(Series.variable(rng, m2, s.vars[0]))
        if not err.is_zero():
            slope = a.derivative().compose(b)
            b = b.sub(err.mul(slope.invert_unit()))
        m = m2
    return b


def _p_series_by_reversion(log: Logarithm, p: int, cap: int) -> Series:
    l = log.series.truncate(cap)
    return _reversion_full_precision(l).compose(l.scalar_mul(p))


def _assert_both_routes_agree(log: Logarithm, p: int, cap: int) -> Series:
    got = p_series(log, Prime(p), cap).series
    want = _p_series_by_reversion(log, p, cap)
    assert got.cap == want.cap == cap
    for d in range(cap + 1):
        assert got.coeff(d) == want.coeff(d), f"p={p} cap={cap} degree {d}"
    return got


# ---------------------------------------------------------------------------
# Series.solve
# ---------------------------------------------------------------------------


def test_solve_inverts_a_composition():
    a = Series.univariate(QQ, 9, {1: 2, 2: 1, 5: rat(-1, 3)})
    rhs = Series.univariate(QQ, 9, {1: 3, 4: 7, 9: 1})
    g = a.solve(rhs)
    assert a.compose(g) == rhs
    assert g.coeff(1) == rat(3, 2)


def test_solve_guards():
    a = Series.univariate(QQ, 6, {1: 1, 2: 1})
    with pytest.raises(ValueError):
        a.solve(Series.univariate(QQ, 6, {0: 1, 1: 1}))
    with pytest.raises(RingMismatch):
        a.solve(Series.univariate(QQ, 7, {1: 1}))
    with pytest.raises(NotAUnit):
        Series.univariate(QQ, 6, {2: 1}).solve(Series.variable(QQ, 6, "T"))


@st.composite
def _unit_linear_series(draw):
    """A series over QQ or Q[t]<=deg 2 whose linear coefficient is a unit
    (a nonzero constant term)."""
    poly = draw(st.booleans())
    ring = TruncPolyRing(("t",), 2) if poly else QQ
    cap = draw(st.integers(1, 14))

    def rational(nonzero=False):
        num = draw(st.integers(-4, 4).filter(bool) if nonzero
                   else st.integers(-4, 4))
        return rat(num, draw(st.sampled_from([1, 2, 3, 5])))

    def coefficient(unit=False):
        if not poly:
            return rational(unit)
        return TruncPoly(("t",), 2, {(0,): rational(unit), (1,): rational(),
                                     (2,): rational()})

    coeffs = {1: coefficient(unit=True)}
    for d in range(2, cap + 1):
        if draw(st.booleans()):
            coeffs[d] = coefficient()
    return Series.univariate(ring, cap, coeffs)


@settings(max_examples=60, deadline=None)
@given(_unit_linear_series())
def test_reversion_matches_full_precision_newton(s):
    inv = s.reversion()
    assert inv == _reversion_full_precision(s)
    assert s.compose(inv) == Series.variable(s.ring, s.cap, "T")


# ---------------------------------------------------------------------------
# p-series on the census cells
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["fermat", "diag-1248"])
@pytest.mark.parametrize("p", CENSUS_PRIMES)
def test_p_series_matches_reversion_route_diagonal(name, p):
    cap = p ** 2 + 1
    log = stienstra_log(named_quartic(name), cap).log
    ps = _assert_both_routes_agree(log, p, cap)
    # the defining identity l([p](T)) = p l(T), independent of any solver
    assert log.series.compose(ps) == log.series.scalar_mul(p)


def test_p_series_matches_reversion_route_fermat_cross():
    log = quartic_log(named_quartic("fermat-cross"), 28)
    for p, cap in ((3, 10), (3, 28), (5, 26), (7, 8), (11, 12), (13, 14)):
        ps = _assert_both_routes_agree(log.truncate(cap), p, cap)
        l = log.series.truncate(cap)
        assert l.compose(ps) == l.scalar_mul(p)


@pytest.mark.parametrize("p, cap", [(3, 10), (3, 28), (5, 26)])
def test_p_series_matches_reversion_route_hazewinkel(p, cap):
    ring = TruncPolyRing(("t1", "t2"), 12)
    v = [ring.var("t1"), ring.var("t2"), ring.one]
    _assert_both_routes_agree(hazewinkel_log(v, Prime(p), cap), p, cap)


@st.composite
def _rational_logs(draw):
    cap = draw(st.integers(2, 24))
    coeffs = {1: 1}
    for d in range(2, cap + 1):
        if draw(st.booleans()):
            coeffs[d] = rat(draw(st.integers(-4, 4)),
                            draw(st.sampled_from([1, 2, 3, 5, 7])))
    return Logarithm(Series.univariate(QQ, cap, coeffs))


@settings(max_examples=30, deadline=None)
@given(_rational_logs(), st.sampled_from([3, 5, 7]))
def test_p_series_matches_reversion_route_random_logs(log, p):
    _assert_both_routes_agree(log, p, log.cap)
