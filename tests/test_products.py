"""Products of series: ring.dot on every coefficient ring, and compose.

Before ring.dot, TruncPoly multiplication was the pairwise loop kept below
as `_pairwise_mul`, and a series product summed the products one by one
with `+`. That route lives here only, as the oracle TruncPolyRing.dot is
checked against, terms and `truncated` flag alike.
"""

import functools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from formalbrauer.coefficients import (
    QQ,
    Prime,
    ResidueRing,
    TruncPoly,
    TruncPolyRing,
    rat,
)
from formalbrauer.errors import RingMismatch
from formalbrauer.fgl import hazewinkel_log, p_series
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
# ResidueRing.dot and QQ.dot against a plain sum of products
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([3, 5, 7]), st.integers(min_value=1, max_value=3),
       st.lists(st.tuples(st.integers(min_value=-10**6, max_value=10**6),
                          st.integers(min_value=-10**6, max_value=10**6)),
                max_size=6))
def test_residue_dot_is_the_sum_of_products(p, precision, ints):
    rng = ResidueRing(Prime(p), precision)
    pairs = [(rng.from_int(a), rng.from_int(b)) for a, b in ints]
    want = functools.reduce(lambda s, ab: s + ab[0] * ab[1], pairs, rng.zero)
    got = rng.dot(pairs)
    assert got.ring == rng and got.v == want.v


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.fractions(max_denominator=50),
                          st.fractions(max_denominator=50)), max_size=6))
def test_rational_dot_is_the_sum_of_products(fracs):
    pairs = [(QQ.coerce(a), QQ.coerce(b)) for a, b in fracs]
    got = QQ.dot(pairs)
    assert got == sum((a * b for a, b in pairs), rat(0))
    assert type(got) is type(rat(0))


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


def _compose_counting_muls(monkeypatch, outer, inner):
    """outer.compose(inner) and the number of Series.mul calls it made."""
    calls = []
    mul = Series.mul

    def counting_mul(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Series, "mul", counting_mul)
    return outer.compose(inner), len(calls)


def test_compose_reuses_running_powers(monkeypatch):
    cap = 82
    outer = Series.univariate(QQ, cap, {3 ** i: rat(1, 3 ** i)
                                        for i in range(5)})
    inner = Series.univariate(QQ, cap, {1: 1, 2: rat(1, 3), 5: -2})
    want = outer.subst([inner])             # Horner: one mul per degree
    got, muls = _compose_counting_muls(monkeypatch, outer, inner)
    assert muls <= 8
    assert got == want


def test_compose_builds_a_power_from_the_one_below(monkeypatch):
    # the slope compose of Series.solve at cap 82: derivative exponents
    # 0, 2, 8, 26, 80, so gaps 2, 6, 18, 54. x^3, x^9 and x^27 each take one
    # mul from x^2, x^8 and x^26 in the memo, and the gaps cost 1, 3, 3, 3
    # muls; halving x^3, x^9 and x^27 down again took 16
    cap = 82
    outer = Series.univariate(QQ, cap, {3 ** i - 1: rat(1, 3 ** i)
                                        for i in range(5)})
    inner = Series.univariate(QQ, cap, {1: 1, 2: rat(1, 3), 5: -2})
    want = outer.subst([inner])
    got, muls = _compose_counting_muls(monkeypatch, outer, inner)
    assert muls <= 10
    assert got == want
