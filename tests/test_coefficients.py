"""Exact coefficient arithmetic: rationals and truncated polynomials."""

import math
import os
import subprocess
import sys
import textwrap
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from formalbrauer.coefficients import (
    QQ,
    Prime,
    TruncPolyRing,
    is_prime,
    multinomial,
    rat,
    val_p,
)
from formalbrauer.errors import NotAUnit, RingMismatch


# ---------------------------------------------------------------------------
# primes
# ---------------------------------------------------------------------------


def test_is_prime_small_table():
    primes_below_60 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                       47, 53, 59]
    assert [n for n in range(60) if is_prime(n)] == primes_below_60


def test_prime_wrapper_rejects_two_and_composites():
    assert Prime(3).p == 3
    assert int(Prime(229)) == 229
    with pytest.raises(ValueError):
        Prime(2)
    with pytest.raises(ValueError):
        Prime(9)
    with pytest.raises(ValueError):
        Prime(1)


# ---------------------------------------------------------------------------
# valuations
# ---------------------------------------------------------------------------


def test_val_p_frozen_values():
    assert val_p(rat(24, 5), 3) == 1
    assert val_p(rat(5, 9), 3) == -2
    assert val_p(rat(1), 7) == 0
    assert val_p(45, 3) == 2
    assert val_p(0, 3) == math.inf


@given(st.integers(min_value=-200, max_value=200).filter(bool),
       st.integers(min_value=1, max_value=200),
       st.sampled_from([3, 5, 7]))
def test_val_p_is_additive(num, den, p):
    a = rat(num, den)
    b = rat(den, num)
    assert val_p(a * b, p) == val_p(a, p) + val_p(b, p)


# ---------------------------------------------------------------------------
# multinomials
# ---------------------------------------------------------------------------


def _multinomial_by_enumeration(parts):
    """Count distinct arrangements of the multiset directly."""
    seq = []
    for i, k in enumerate(parts):
        seq.extend([i] * k)
    return len(set(permutations(seq)))


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1,
                max_size=4).filter(lambda parts: sum(parts) <= 8))
def test_multinomial_matches_enumeration(parts):
    n = sum(parts)
    assert multinomial(n, parts) == _multinomial_by_enumeration(parts)


def test_multinomial_frozen_values():
    assert multinomial(4, (1, 1, 1, 1)) == 24
    assert multinomial(8, (2, 2, 2, 2)) == 2520
    assert multinomial(12, (3, 3, 3, 3)) == 369600
    assert multinomial(0, ()) == 1


def test_multinomial_rejects_mismatched_total():
    with pytest.raises(ValueError):
        multinomial(5, (1, 1, 1, 1))


# ---------------------------------------------------------------------------
# the rational field object
# ---------------------------------------------------------------------------


def test_rational_field_basics():
    assert QQ.coerce(3) == rat(3)
    x = rat(2, 3)
    assert QQ.coerce(x) is x
    assert QQ.invert(rat(3, 4)) == rat(4, 3)
    with pytest.raises(NotAUnit):
        QQ.invert(rat(0))


def test_rationals_are_fractions_even_with_gmpy2_importable(tmp_path):
    # a gmpy2 whose mpq raises shadows any installed one, so a use of mpq
    # at import or in a height fails the run
    (tmp_path / "gmpy2.py").write_text(textwrap.dedent("""
        def mpq(*args):
            raise AssertionError("gmpy2.mpq used")
    """))
    src = Path(__file__).resolve().parents[1] / "src"
    code = textwrap.dedent("""
        import fractions
        import formalbrauer
        from formalbrauer import BUILTIN_QUARTICS, brauer_height
        assert type(formalbrauer.rat(1, 2)) is fractions.Fraction
        print(brauer_height(BUILTIN_QUARTICS["fermat"], 5, 1))
    """)
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True,
                         env={**os.environ, "PYTHONPATH": f"{tmp_path}:{src}"})
    assert run.returncode == 0, run.stderr


# ---------------------------------------------------------------------------
# truncated polynomials
# ---------------------------------------------------------------------------


def test_truncpoly_arithmetic_and_repr():
    R = TruncPolyRing(("t", "u"), 4)
    t, u = R.var("t"), R.var("u")
    x = R.one + t * 2
    assert repr(x) == "1 + 2*t"
    sq = (t + u) * (t + u)
    assert sq.terms == {(2, 0): rat(1), (1, 1): rat(2), (0, 2): rat(1)}
    assert not sq.truncated
    assert (t ** 4).terms == {(4, 0): rat(1)}
    assert x.constant_term() == rat(1)
    assert (t * u).total_degree() == 2


def test_truncation_flag_is_sticky():
    R = TruncPolyRing(("t", "u"), 4)
    t, u = R.var("t"), R.var("u")
    hi = (t + u) ** 5            # everything above the cap vanished
    assert hi.truncated
    assert hi == R.zero          # equality ignores the flag, values agree
    assert (hi + t).truncated    # and the flag survives later arithmetic
    assert (hi * t).truncated
    assert not ((t + u) ** 2).truncated


def test_truncpoly_equals_and_hashes_like_its_constant():
    R = TruncPolyRing(("t", "u"), 4)
    assert R.one == 1 and hash(R.one) == hash(1)
    assert len({R.one, 1}) == 1
    half = R.coerce(rat(1, 2))
    assert half == rat(1, 2) and rat(1, 2) == half
    assert hash(half) == hash(rat(1, 2))
    assert half != rat(1, 3) and half != 1
    assert R.zero == 0 and R.zero == rat(0)
    assert hash(R.zero) == hash(0) == hash(rat(0))
    t = R.var("t")
    assert t != 0 and t != 1 and R.one + t != 1
    assert hash(R.one + t) == hash(t + R.one)


def test_truncpoly_inversion_is_geometric():
    R = TruncPolyRing(("t",), 4)
    t = R.var("t")
    inv = R.invert(R.one - t)
    assert inv.terms == {(0,): rat(1), (1,): rat(1), (2,): rat(1),
                         (3,): rat(1), (4,): rat(1)}
    assert ((R.one - t) * inv).constant_term() == rat(1)
    with pytest.raises(NotAUnit):
        R.invert(t)
    # a constant inverts to its inverse, untruncated, even when it carries
    # the flag, as the geometric series (which stops at once) gave it
    for c in (R.coerce(rat(-3, 7)), (t ** 4 * t) + rat(2, 5)):
        inv = R.invert(c)
        assert inv == 1 / c.constant_term() and not inv.truncated
    assert ((t ** 4 * t) + rat(2, 5)).truncated


def test_truncpoly_ring_coerce_and_monomial():
    R = TruncPolyRing(("t",), 6)
    assert R.coerce(rat(2, 3)).terms == {(0,): rat(2, 3)}
    m = R.monomial((3,), 5)
    assert m.terms == {(3,): rat(5)}
    other = TruncPolyRing(("u",), 6)
    with pytest.raises(RingMismatch):
        R.coerce(other.var("u"))


@pytest.mark.parametrize("bad", [1.5, "abc", None],
                         ids=["float", "str", "none"])
@pytest.mark.parametrize("ring", [QQ, TruncPolyRing(("t",), 4),
                                  TruncPolyRing((), 8)],
                         ids=["QQ", "t-cap4", "no-parameters"])
def test_coerce_rejects_non_rationals(ring, bad):
    # a float, a string or None is never silently a constant, in any ring
    # a presentation's elements can live in
    with pytest.raises(RingMismatch):
        ring.coerce(bad)


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                          st.integers(min_value=-4, max_value=4)),
                min_size=1, max_size=5),
       st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                          st.integers(min_value=-4, max_value=4)),
                min_size=1, max_size=5))
def test_truncpoly_mul_commutes_and_distributes(aterms, bterms):
    R = TruncPolyRing(("t",), 5)
    a = sum((R.monomial((d,), c) for d, c in aterms), R.zero)
    b = sum((R.monomial((d,), c) for d, c in bterms), R.zero)
    assert a * b == b * a
    assert a * (b + R.one) == a * b + a
