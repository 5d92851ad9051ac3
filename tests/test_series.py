"""Sparse truncated power series: arithmetic, composition, reversion."""

import random

import pytest

from formalbrauer.coefficients import QQ, TruncPolyRing, rat
from formalbrauer.errors import CapTooSmall, NotAUnit, RingMismatch
from formalbrauer.series import Series


def _uni(coeffs, cap=8, ring=QQ):
    return Series.univariate(ring, cap, coeffs)


# ---------------------------------------------------------------------------
# construction and inspection
# ---------------------------------------------------------------------------


def test_variable_and_coeff_access():
    t = Series.variable(QQ, 5, "T")
    assert t.coeff(1) == rat(1)
    assert t.coeff(2) == rat(0)
    assert t.degrees() == [1]
    x = Series.variable(QQ, 5, "X", ("X", "Y"))
    assert x.coeff((1, 0)) == rat(1)
    with pytest.raises(RingMismatch):
        x.coeff(1)          # int degree is a univariate convenience only
    with pytest.raises(RingMismatch):
        Series.variable(QQ, 5, "Z", ("X", "Y"))


def test_zero_coefficients_are_never_stored():
    s = _uni({1: 1, 2: 0, 3: rat(0)})
    assert s.degrees() == [1]
    t = _uni({1: 1}).sub(_uni({1: 1}))
    assert t.is_zero()


def test_public_constructor_still_validates():
    # arithmetic builds its results unchecked (Series._make); the public
    # constructor keeps its arity, cap and zero checks
    with pytest.raises(RingMismatch):
        Series(QQ, ("X", "Y"), 4, {(1,): rat(1)})
    with pytest.raises(ValueError, match="above cap"):
        Series(QQ, ("T",), 4, {(5,): rat(1)})
    assert Series(QQ, ("T",), 4, {(2,): rat(0)}).is_zero()


def test_products_that_vanish_are_dropped():
    # in Q[t]<=deg 3, t^2 * t^2 = 0: the zero may not be stored
    R = TruncPolyRing(("t",), 3)
    t2 = R.var("t") ** 2
    s = Series.univariate(R, 6, {1: 1, 3: t2})
    assert s.scalar_mul(t2).coeffs == {(1,): t2}


def test_truncate_drops_and_with_cap_raises_only():
    s = _uni({1: 1, 5: 7}, cap=8)
    assert s.truncate(4).degrees() == [1]
    assert s.truncate(4).cap == 4
    assert s.with_cap(10).coeff(5) == rat(7)
    with pytest.raises(CapTooSmall):
        s.with_cap(3)                        # lowering must go via truncate
    with pytest.raises(CapTooSmall):
        s.truncate(9)                        # raising must go via with_cap
    assert s.truncate(8) == s


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def test_mul_respects_cap():
    s = _uni({4: 1}, cap=6)
    assert s.mul(s).is_zero()            # degree 8 > cap
    assert s.mul(_uni({2: 3}, cap=6)).coeff(6) == rat(3)


def test_mixed_cap_arithmetic_is_rejected():
    with pytest.raises(RingMismatch):
        _uni({1: 1}, cap=5).add(_uni({1: 1}, cap=6))


def test_scalar_mul_and_neg():
    s = _uni({1: 2, 3: -1})
    assert s.scalar_mul(rat(1, 2)).coeff(1) == rat(1)
    assert s.neg().coeff(3) == rat(1)


# ---------------------------------------------------------------------------
# composition and substitution
# ---------------------------------------------------------------------------


def test_compose_frozen_example():
    # (T + T^2) o (T + T^3), coefficients through degree 6
    outer = _uni({1: 1, 2: 1}, cap=6)
    inner = _uni({1: 1, 3: 1}, cap=6)
    got = outer.compose(inner)
    assert [got.coeff(d) for d in range(1, 7)] == [
        rat(1), rat(1), rat(1), rat(2), rat(0), rat(1)]


def test_compose_rejects_nonzero_constant_inner():
    outer = _uni({1: 1})
    with pytest.raises(ValueError):
        outer.compose(_uni({0: 1, 1: 1}))


def test_compose_passes_outer_constant_through():
    outer = _uni({0: 5, 1: 1})
    got = outer.compose(_uni({1: 1, 2: 1}))
    assert got.coeff(0) == rat(5)
    assert got.coeff(2) == rat(1)


def test_subst_swaps_variables():
    x = Series.variable(QQ, 4, "X", ("X", "Y"))
    y = Series.variable(QQ, 4, "Y", ("X", "Y"))
    f = x.add(y.mul(y).scalar_mul(3))            # X + 3 Y^2
    g = f.subst([y, x])                          # Y + 3 X^2
    assert g.coeff((0, 1)) == rat(1)
    assert g.coeff((2, 0)) == rat(3)


def test_subst_guards():
    x = Series.variable(QQ, 4, "X", ("X", "Y"))
    y = Series.variable(QQ, 4, "Y", ("X", "Y"))
    f = x.add(y)
    with pytest.raises(RingMismatch):
        f.subst([x])                             # arity
    with pytest.raises(ValueError):
        f.subst([x, x.add(Series.constant(QQ, 4, 1, ("X", "Y")))])
    tall = Series.variable(QQ, 9, "X", ("X", "Y"))
    tall_y = tall.remap(("X", "Y"), {"X": "Y", "Y": "X"})
    with pytest.raises(CapTooSmall):
        f.subst([tall, tall_y])


# ---------------------------------------------------------------------------
# calculus and units
# ---------------------------------------------------------------------------


def test_derivative_and_integral_roundtrip():
    s = _uni({1: 1, 2: rat(1, 2), 5: -3}, cap=7)
    assert s.derivative().coeff(1) == rat(1)
    back = s.derivative().integral(7)
    assert back == s


def test_integral_raises_cap_by_one():
    s = _uni({4: 5}, cap=4)
    assert s.integral(5).coeff(5) == rat(1)
    with pytest.raises(CapTooSmall):
        s.integral(6)


def test_invert_unit():
    s = _uni({0: 1, 1: -1}, cap=5)               # 1 - T
    inv = s.invert_unit()
    assert [inv.coeff(d) for d in range(6)] == [rat(1)] * 6
    assert s.mul(inv).coeff(0) == rat(1)
    assert s.mul(inv).coeff(3) == rat(0)
    with pytest.raises(NotAUnit):
        _uni({1: 1}).invert_unit()


def test_shift_up_down():
    s = _uni({3: 2}, cap=6)
    assert s.shift_up(2).coeff(5) == rat(2)
    assert s.shift_down(3).coeff(0) == rat(2)
    with pytest.raises(ValueError):
        s.shift_down(4)                          # would create T^(-1)


# ---------------------------------------------------------------------------
# reversion
# ---------------------------------------------------------------------------


def test_reversion_catalan_signs():
    # inverse of T + T^2 is the signed Catalan series
    g = _uni({1: 1, 2: 1}, cap=6).reversion()
    assert [g.coeff(d) for d in range(1, 7)] == [
        rat(1), rat(-1), rat(2), rat(-5), rat(14), rat(-42)]


def test_reversion_exp_log():
    # inverse of e^T - 1 is log(1 + T)
    cap = 8
    fact = 1
    coeffs = {}
    for d in range(1, cap + 1):
        fact *= d
        coeffs[d] = rat(1, fact)
    g = _uni(coeffs, cap=cap).reversion()
    for d in range(1, cap + 1):
        assert g.coeff(d) == rat((-1) ** (d + 1), d)


def test_reversion_requires_unit_linear_term():
    with pytest.raises(NotAUnit):
        _uni({2: 1}).reversion()
    with pytest.raises(ValueError):
        _uni({0: 1, 1: 1}).reversion()


def test_reversion_roundtrip_seeded_random():
    rng = random.Random(20260818)
    t = Series.variable(QQ, 9, "T")
    for _ in range(50):
        coeffs = {1: rat(rng.choice([1, -1, 2]), rng.choice([1, 1, 3]))}
        for d in range(2, 10):
            if rng.random() < 0.6:
                coeffs[d] = rat(rng.randint(-5, 5), rng.randint(1, 4))
        s = _uni(coeffs, cap=9)
        inv = s.reversion()
        assert inv.compose(s) == t
        assert s.compose(inv) == t
        assert inv.reversion() == s


def test_reversion_over_polynomial_coefficients():
    R = TruncPolyRing(("t",), 4)
    t = R.var("t")
    s = Series(R, ("T",), 5, {(1,): R.one, (3,): t})
    inv = s.reversion()
    assert inv.compose(s) == Series.variable(R, 5, "T")


# ---------------------------------------------------------------------------
# the coefficient-ring protocol
# ---------------------------------------------------------------------------


class _ProtocolOnly:
    """A coefficient ring over Fraction with only the protocol the series
    layer may call: zero, one, coerce, dot and invert. Zero tests, equality
    and division are left to the elements."""

    __slots__ = ()
    zero = rat(0)
    one = rat(1)

    def coerce(self, x):
        return rat(x)

    def dot(self, pairs):
        return sum((a * b for a, b in pairs), rat(0))

    def invert(self, a):
        if not a:
            raise NotAUnit("0 is not invertible")
        return 1 / a


def test_series_needs_only_the_reduced_ring_protocol():
    # compose over this ring takes the generic ring.dot route, which QQ
    # does not; every result must equal the one over QQ
    P = _ProtocolOnly()

    def both(coeffs, cap=8):
        return _uni(coeffs, cap, QQ), _uni(coeffs, cap, P)

    def same(got, want):
        assert (got.cap, got.coeffs) == (want.cap, want.coeffs)

    aq, ap = both({1: rat(2, 3), 2: -1, 4: rat(5, 7), 7: 3})
    bq, bp = both({0: 1, 1: rat(1, 2), 3: -2, 6: rat(4, 9)})
    cq, cp = both({1: 1, 2: rat(3, 5), 5: -4})
    same(ap.mul(bp), aq.mul(bq))
    same(bp.compose(ap), bq.compose(aq))
    same(ap.integral(9), aq.integral(9))
    same(bp.invert_unit(), bq.invert_unit())
    same(ap.solve(cp), aq.solve(cq))
    same(ap.reversion(), aq.reversion())
    with pytest.raises(NotAUnit):
        _uni({2: 1}, ring=P).reversion()
