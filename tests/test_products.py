"""Products of series: ring.dot on every coefficient ring, compose and subst.

Before ring.dot, TruncPoly multiplication was the pairwise loop kept below
as `_pairwise_mul`, and a series product summed the products one by one
with `+`. That route lives here only, as the oracle TruncPolyRing.dot is
checked against, terms and `truncated` flag alike. Two more routes the
package replaced live here as oracles: QQ.dot once summed a running
`Fraction` (`_running_fraction_sum`), and Series.subst was a nested Horner
scheme that re-multiplied by each replacement per group (`_horner_subst`).
Series.compose over QQ runs on integer numerators; it is checked against
the ring.dot route (`Series._power_sum`, which Q[t] still takes) and
`_horner_subst`.
"""

import functools
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from formalbrauer.coefficients import (
    QQ,
    Prime,
    TruncPoly,
    TruncPolyRing,
    rat,
)
from formalbrauer.errors import CapTooSmall, RingMismatch
from formalbrauer.fgl import hazewinkel_log, p_series
from formalbrauer import series
from formalbrauer.series import Series

GOLDEN = Path(__file__).parent / "golden" / "hazewinkel_p_series.json"


def _pairwise_mul(self, other):
    """TruncPoly * TruncPoly as it was computed before TruncPolyRing.dot."""
    out = {}
    cap = self.cap
    dropped = False
    for e1, c1 in self.terms.items():
        d1 = sum(e1)
        for e2, c2 in other.terms.items():
            if d1 + sum(e2) > cap:
                dropped = True
                continue
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return TruncPoly(self.vars, self.cap, out,
                     self.truncated or other.truncated or dropped)


def _pairwise_dot(ring, pairs):
    acc = ring.zero
    for a, b in pairs:
        acc = acc + _pairwise_mul(a, b)
    return acc


def _running_fraction_sum(pairs):
    """QQ.dot as it was before the common-denominator kernel."""
    s = rat(0)
    for a, b in pairs:
        s += a * b
    return s


def _horner_subst(self, repls):
    """Series.subst as it was before the power tables: substitute one
    series per variable of self by nested Horner. All replacement series
    share ring, variables and cap, and have zero constant term."""
    repls = list(repls)
    if len(repls) != len(self.vars):
        raise RingMismatch(f"{len(self.vars)} variables, {len(repls)} replacements")
    tpl = repls[0]
    for r in repls:
        tpl._match(r)
        if r.constant_coeff():
            raise ValueError("replacement series must have zero constant term")
    if tpl.ring != self.ring:
        raise RingMismatch("replacements over a different ring")
    if self.cap < tpl.cap:
        raise CapTooSmall(
            f"substituting into a cap-{self.cap} series cannot be exact "
            f"through cap {tpl.cap}")

    def horner(terms, depth):
        # terms: dict of exponent tuples of length depth+1
        if not terms:
            return Series.zero(tpl.ring, tpl.cap, tpl.vars)
        if depth == 0:
            by_deg = {e[0]: c for e, c in terms.items()}
        else:
            grouped = {}
            for e, c in terms.items():
                grouped.setdefault(e[-1], {})[e[:-1]] = c
            by_deg = {j: horner(sub, depth - 1) for j, sub in grouped.items()}
        r = repls[depth]
        jmax = max(by_deg)
        acc = None
        for j in range(jmax, -1, -1):
            if acc is not None:
                acc = acc.mul(r)
            piece = by_deg.get(j)
            if piece is None:
                continue
            if depth == 0:
                piece = Series.constant(tpl.ring, tpl.cap, piece, tpl.vars)
            acc = piece if acc is None else acc.add(piece)
        return acc if acc is not None else Series.zero(tpl.ring, tpl.cap, tpl.vars)

    return horner(self.coeffs, len(self.vars) - 1)


# ---------------------------------------------------------------------------
# TruncPolyRing.dot against the pairwise route
# ---------------------------------------------------------------------------


@st.composite
def _poly_pairs(draw):
    """(ring, pairs) over 0-3 parameters at caps 0-6, with rationals that
    have p in some denominators, empty polynomials, pairs that cancel and
    pairs of monomials wholly above the cap."""
    k = draw(st.integers(min_value=0, max_value=3))
    cap = draw(st.integers(min_value=0, max_value=6))
    p = draw(st.sampled_from([3, 5, 7]))
    ring = TruncPolyRing(("t1", "t2", "t3")[:k], cap)
    coeffs = st.builds(rat, st.integers(min_value=-9, max_value=9),
                       st.sampled_from([1, 2, p, p * p, 2 * p]))

    def exponent():
        e, room = [], cap
        for _ in range(k):
            e.append(draw(st.integers(min_value=0, max_value=room)))
            room -= e[-1]
        return tuple(e)

    def poly():
        terms = {exponent(): draw(coeffs)
                 for _ in range(draw(st.integers(min_value=0, max_value=4)))}
        return TruncPoly(ring.variables, cap, terms,
                         draw(st.integers(min_value=0, max_value=4)) == 0)

    pairs = [(poly(), poly())
             for _ in range(draw(st.integers(min_value=0, max_value=4)))]
    if pairs and draw(st.booleans()):
        a, b = pairs[0]
        pairs.append((a, -b))           # the sum cancels to this point
    if k and cap and draw(st.booleans()):
        top = tuple([cap] + [0] * (k - 1))
        hi = ring.monomial(top, draw(coeffs) or 1)
        pairs.append((hi, hi))          # every term pair lands above the cap
    return ring, draw(st.permutations(pairs))


@settings(max_examples=300, deadline=None)
@given(_poly_pairs())
def test_truncpoly_dot_equals_pairwise_products(case):
    ring, pairs = case
    got = ring.dot(pairs)
    want = _pairwise_dot(ring, pairs)
    assert (got.vars, got.cap) == (ring.variables, ring.cap)
    assert got.terms == want.terms
    assert got.truncated == want.truncated
    if len(pairs) == 1:
        a, b = pairs[0]
        prod = a * b
        assert (prod.terms, prod.truncated) == (want.terms, want.truncated)


def test_truncpoly_dot_frozen_cases():
    R = TruncPolyRing(("t", "u"), 2)
    t, u = R.var("t"), R.var("u")
    assert R.dot([]) == R.zero and not R.dot([]).truncated
    gone = R.dot([(t * t, u)])              # wholly above the cap
    assert gone == R.zero and gone.truncated
    cancel = R.dot([(t, u), (-t, u)])       # cancels, nothing dropped
    assert cancel == R.zero and not cancel.truncated
    assert R.dot([(t, u), (t, t), (R.one, rat(1, 3) * u)]).terms == {
        (1, 1): rat(1), (2, 0): rat(1), (0, 1): rat(1, 3)}
    with pytest.raises(RingMismatch):
        R.dot([(t, TruncPolyRing(("t", "u"), 3).var("t"))])
    with pytest.raises(RingMismatch):
        R.dot([(TruncPolyRing(("t",), 2).var("t"), t)])


# ---------------------------------------------------------------------------
# QQ.dot against a plain sum of products
# ---------------------------------------------------------------------------


@st.composite
def _rational_pairs(draw):
    """Pairs of ints and rationals, some with denominators that are large
    powers of p, sometimes followed by their negatives so that the whole sum
    cancels to 0."""
    p = draw(st.sampled_from([3, 5, 7]))
    rationals = st.builds(
        rat, st.integers(min_value=-10**6, max_value=10**6),
        st.builds(lambda k, u: p ** k * u, st.integers(min_value=0,
                                                       max_value=40),
                  st.sampled_from([1, 2, 4, 6])))
    operand = st.one_of(st.integers(min_value=-10**6, max_value=10**6),
                        rationals)
    pairs = draw(st.lists(st.tuples(operand, operand), max_size=8))
    if draw(st.booleans()):
        pairs += [(-a, b) for a, b in pairs]
    return draw(st.permutations(pairs))


@settings(max_examples=100, deadline=None)
@given(_rational_pairs())
def test_rational_dot_is_the_sum_of_products(pairs):
    got = QQ.dot(pairs)
    want = _running_fraction_sum(pairs)
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (want.numerator,
                                                want.denominator)
    assert got.denominator > 0
    assert math.gcd(got.numerator, got.denominator) == 1
    assert hash(got) == hash(want)


def test_rational_dot_frozen_cases():
    assert type(QQ.dot([])) is Fraction and QQ.dot([]) == 0
    assert QQ.dot([(3, rat(1, 3)), (rat(1, 2), 4)]) == 3
    assert QQ.dot([(rat(1, 9), rat(9, 2)), (rat(-1, 6), 3)]) == 0
    assert QQ.dot([(rat(1, 3 ** 30), 1), (rat(2, 3 ** 31), 3)]) == rat(
        1, 3 ** 29)
    # a constant TruncPoly built by the kernel still equals and hashes
    # like its constant
    R = TruncPolyRing(("t",), 3)
    one = R.dot([(R.one * 3, R.coerce(rat(1, 3)))])
    assert one == R.one and len({one, R.one, 1}) == 1


# ---------------------------------------------------------------------------
# p-series over polynomial coefficients, frozen before ring.dot
# ---------------------------------------------------------------------------


def _golden_cases():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize(
    "case", _golden_cases(),
    ids=lambda c: f"{','.join(c['parameters'])}-cap{c['presentation_cap']}"
                  f"-p{c['p']}-T{c['cap']}")
def test_hazewinkel_p_series_matches_frozen_coefficients_and_flags(case):
    """Every coefficient of [p] and its `truncated` flag, as the pairwise
    products gave them. The flags matter: _torsion_witness refuses a
    truncated element."""
    R = TruncPolyRing(tuple(case["parameters"]), case["presentation_cap"])
    p = Prime(case["p"])
    v = [R.var(t) for t in R.variables] + [R.one]
    ps = p_series(hazewinkel_log(v, p, case["cap"]), p, case["cap"])
    got = [[d, repr(c), c.truncated]
           for (d,), c in sorted(ps.series.coeffs.items())]
    assert got == case["coefficients"]


# ---------------------------------------------------------------------------
# compose reuses the powers it has built
# ---------------------------------------------------------------------------


def _counting(monkeypatch, owner, name, fn, *args):
    """fn(*args) and the number of calls it made to owner.name."""
    calls = []
    inner = getattr(owner, name)

    def counting(*a):
        calls.append(1)
        return inner(*a)

    monkeypatch.setattr(owner, name, counting)
    try:
        return fn(*args), len(calls)
    finally:
        monkeypatch.setattr(owner, name, inner)


def _counting_muls(monkeypatch, fn, *args):
    """fn(*args) and the number of Series.mul calls it made."""
    return _counting(monkeypatch, Series, "mul", fn, *args)


def _counting_products(monkeypatch, fn, *args):
    """fn(*args) and the number of integer-numerator products it made, the
    kernel that builds the powers of a composition over QQ."""
    return _counting(monkeypatch, series, "_packed_mul", fn, *args)


def _gapped_outers(ring, cap):
    """Outer series with the degrees 3^i (the law check's logarithm shape)
    and 3^i - 1 (the slope compose of Series.solve)."""
    return (Series.univariate(ring, cap, {3 ** i: rat(1, 3 ** i)
                                          for i in range(5)}),
            Series.univariate(ring, cap, {3 ** i - 1: rat(1, 3 ** i)
                                          for i in range(5)}))


def test_compose_reuses_running_powers(monkeypatch):
    cap = 82
    outer, _ = _gapped_outers(QQ, cap)
    inner = Series.univariate(QQ, cap, {1: 1, 2: rat(1, 3), 5: -2})
    want = _horner_subst(outer, [inner])    # Horner: one mul per degree
    got, products = _counting_products(monkeypatch, outer.compose, inner)
    assert 0 < products <= 8
    assert got == want


def test_compose_builds_a_power_from_the_one_below(monkeypatch):
    # the slope compose of Series.solve at cap 82: derivative exponents
    # 0, 2, 8, 26, 80, so gaps 2, 6, 18, 54. x^3, x^9 and x^27 each take one
    # product from x^2, x^8 and x^26 in the memo, and the gaps cost 1, 3, 3,
    # 3 products; halving x^3, x^9 and x^27 down again took 16
    cap = 82
    _, outer = _gapped_outers(QQ, cap)
    inner = Series.univariate(QQ, cap, {1: 1, 2: rat(1, 3), 5: -2})
    want = _horner_subst(outer, [inner])
    got, products = _counting_products(monkeypatch, outer.compose, inner)
    assert 0 < products <= 10
    assert got == want
    # subst builds its powers the same way, with Series.mul
    got, muls = _counting_muls(monkeypatch, outer.subst, [inner])
    assert muls <= 10
    assert got == want


def test_compose_over_parameters_builds_powers_with_series_mul(monkeypatch):
    # over Q[t] compose stays on the ring.dot route, with the same schedule
    R = TruncPolyRing(("t",), 2)
    t = R.var("t")
    cap = 82
    inner = Series.univariate(R, cap, {1: 1, 2: t * rat(1, 3), 5: t - 2})
    for outer, bound in zip(_gapped_outers(R, cap), (8, 10)):
        want = _horner_subst(outer, [inner])
        got, products = _counting_products(monkeypatch, outer.compose, inner)
        assert products == 0
        got, muls = _counting_muls(monkeypatch, outer.compose, inner)
        assert muls <= bound
        assert got == want


# ---------------------------------------------------------------------------
# compose over QQ against the ring.dot route and the Horner route
# ---------------------------------------------------------------------------


@st.composite
def _rational_compose_cases(draw):
    """(outer, inner) over QQ: a univariate or bivariate inner series, sparse
    or with every monomial of degree 1 through its cap, whose cap may lie
    above the outer cap; an outer series, sparse or dense, that may have a
    constant term. Coefficients may be 0 and have denominators up to
    p^30."""
    p = draw(st.sampled_from([3, 5, 7]))
    coeff = st.one_of(
        st.just(rat(0)),
        st.builds(rat, st.integers(min_value=-9, max_value=9),
                  st.sampled_from([1, 2, p])),
        st.builds(rat, st.integers(min_value=-10**6, max_value=10**6),
                  st.builds(lambda k, u: p ** k * u,
                            st.integers(min_value=0, max_value=30),
                            st.sampled_from([1, 2, 4, 6]))))
    nvars = draw(st.integers(min_value=1, max_value=2))
    ocap = draw(st.integers(min_value=1, max_value=8 if nvars == 1 else 5))
    icap = draw(st.integers(min_value=1, max_value=ocap + 2))
    monomials = [e for e in itertools.product(range(icap + 1), repeat=nvars)
                 if 1 <= sum(e) <= icap]
    if draw(st.booleans()):
        support = monomials
    else:
        support = draw(st.lists(st.sampled_from(monomials), max_size=4))
    inner = Series(QQ, ("X", "Y")[:nvars], icap,
                   {e: draw(coeff) for e in support})
    degrees = (range(ocap + 1) if draw(st.booleans()) else
               draw(st.lists(st.integers(min_value=0, max_value=ocap),
                             max_size=4)))
    outer = Series.univariate(QQ, ocap, {d: draw(coeff) for d in degrees})
    return outer, inner


@settings(max_examples=200, deadline=None)
@given(_rational_compose_cases())
def test_rational_compose_matches_ring_dot_and_horner(case):
    outer, inner = case
    got = outer.compose(inner)
    cut = inner.truncate(min(inner.cap, outer.cap))
    via_dot = cut._power_sum({d: c for (d,), c in outer.coeffs.items()
                              if d <= cut.cap}, {1: cut})
    via_horner = _horner_subst(outer.truncate(cut.cap), [cut])
    assert (got.vars, got.cap) == (cut.vars, cut.cap)
    assert got.coeffs == via_dot.coeffs == via_horner.coeffs
    for c in got.coeffs.values():
        assert type(c) is Fraction and c
        assert math.gcd(c.numerator, c.denominator) == 1


def test_rational_compose_frozen_cases():
    x = Series.variable(QQ, 4, "X", ("X", "Y"))
    y = Series.variable(QQ, 4, "Y", ("X", "Y"))
    log1p = Series.univariate(QQ, 4, {d: rat((-1) ** (d + 1), d)
                                      for d in range(1, 5)})
    # log(1 + X + Y + XY) = log(1 + X) + log(1 + Y)
    got = log1p.compose(x.add(y).add(x.mul(y)))
    assert got.coeffs == {(d, 0): c for (d,), c in log1p.coeffs.items()} | {
        (0, d): c for (d,), c in log1p.coeffs.items()}
    # a constant passes through, a zero inner leaves only it
    outer = Series.univariate(QQ, 4, {0: rat(2, 3), 2: 1})
    assert outer.compose(Series.zero(QQ, 4, ("X", "Y"))).coeffs == {
        (0, 0): rat(2, 3)}
    # large denominators come out in lowest terms
    inner = Series.univariate(QQ, 4, {1: rat(1, 3 ** 40), 2: 1})
    sq = Series.univariate(QQ, 4, {2: 1})
    assert sq.compose(inner).coeffs == {(2,): rat(1, 3 ** 80),
                                        (3,): rat(2, 3 ** 40), (4,): rat(1)}
    # a coefficient that cancels is not stored: T - T^2 at T + T^2 is T
    outer = Series.univariate(QQ, 2, {1: 1, 2: -1})
    assert outer.compose(Series.univariate(QQ, 2, {1: 1, 2: 1})).coeffs == {
        (1,): rat(1)}


# ---------------------------------------------------------------------------
# subst against the Horner route
# ---------------------------------------------------------------------------


@st.composite
def _subst_cases(draw):
    """(outer, replacements) over QQ or Q[t]<=deg 2: an outer series
    in 1-3 variables that may have a constant term and has a term exactly at
    its cap, which may sit above the replacements' cap; replacements in 1-3
    variables, some of them monomials or zero."""
    p = draw(st.sampled_from([3, 5, 7]))
    kind = draw(st.sampled_from(["QQ", "poly"]))
    small = st.integers(min_value=-9, max_value=9)
    if kind == "QQ":
        ring = QQ
        coeff = st.builds(rat, small, st.sampled_from([1, 2, p, p * p]))
    else:
        ring = TruncPolyRing(("t",), 2)
        coeff = st.builds(
            lambda cs: TruncPoly(("t",), 2, {(d,): c
                                             for d, c in enumerate(cs)}),
            st.lists(st.builds(rat, small, st.sampled_from([1, p])),
                     min_size=1, max_size=3))

    def exponent(nvars, lo, hi):
        deg = draw(st.integers(min_value=lo, max_value=hi))
        cuts = sorted(draw(st.integers(min_value=0, max_value=deg))
                      for _ in range(nvars - 1))
        return tuple(b - a for a, b in zip([0] + cuts, cuts + [deg]))

    m = draw(st.integers(min_value=1, max_value=3))
    rvars = ("X", "Y", "Z")[:m]
    rcap = draw(st.integers(min_value=1, max_value=4))

    def replacement():
        if draw(st.booleans()):
            terms = {exponent(m, 1, rcap): draw(coeff)}      # a monomial
        else:
            terms = {exponent(m, 1, rcap): draw(coeff)
                     for _ in range(draw(st.integers(min_value=0,
                                                     max_value=3)))}
        return Series(ring, rvars, rcap, terms)

    k = draw(st.integers(min_value=1, max_value=3))
    ocap = rcap + draw(st.integers(min_value=0, max_value=2))
    terms = {exponent(k, 0, ocap): draw(coeff)
             for _ in range(draw(st.integers(min_value=0, max_value=5)))}
    terms[exponent(k, ocap, ocap)] = draw(coeff)
    if draw(st.booleans()):
        terms[(0,) * k] = draw(coeff)
    outer = Series(ring, ("A", "B", "C")[:k], ocap, terms)
    return outer, [replacement() for _ in range(k)]


@settings(max_examples=200, deadline=None)
@given(_subst_cases())
def test_subst_matches_horner(case):
    outer, repls = case
    assert outer.subst(repls) == _horner_subst(outer, repls)


def test_subst_refusals_match_horner():
    x = Series.variable(QQ, 3, "X")
    outer = Series.univariate(QQ, 2, {1: 1, 2: 1})
    for subst in (outer.subst, functools.partial(_horner_subst, outer)):
        with pytest.raises(CapTooSmall):
            subst([x])
        with pytest.raises(ValueError):
            subst([Series.univariate(QQ, 2, {0: 1, 1: 1})])
        with pytest.raises(RingMismatch):
            subst([x, x])
