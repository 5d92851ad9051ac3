"""Heights from the residues of the integer betas, against the p-series
over QQ.

brauer_height reads the height as the least n with v_p(beta_(p^n)) = n - 1,
that is, from beta_(p^n) mod p^n. The oracle is the route it replaced: the
p-series of the rational logarithm sum beta_m T^m / m, built over QQ through
the whole window, reduced mod p and scanned (p_series_oracle.height). The
two must give the same verdict, witness degree included.
"""

from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from formalbrauer import fgl, k3brauer
from formalbrauer.coefficients import Prime
from formalbrauer.errors import NonIntegral
from formalbrauer.fgl import HeightResult, fgl_from_log, p_series
from formalbrauer.k3brauer import (
    QuarticForm,
    brauer_height,
    named_quartic,
    ordinarity_criterion,
    smooth_check_fp,
    stienstra_log,
)
from p_series_oracle import height


def _qq_height(f, p, h_max, cap=None):
    """The QQ route: [p] over QQ through the whole window, reduced mod p."""
    cap = p ** h_max + 1 if cap is None else cap
    ps = p_series(stienstra_log(f, cap).log, Prime(p), cap)
    return height(ps, h_max)


@pytest.mark.parametrize("name", ["fermat", "diag-1248", "fermat-cross"])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_residue_route_matches_qq_route_on_quartics(name, p):
    f = named_quartic(name)
    assert brauer_height(f, p, 2) == _qq_height(f, p, 2)


MONOMIALS = [e for e in product(range(5), repeat=4) if sum(e) == 4]
DIAGONAL = [e for e in MONOMIALS if max(e) == 4]
COEFFS = st.integers(-6, 6).filter(bool)


@st.composite
def random_quartics(draw):
    """(quartic, p): at most six monomials with small nonzero integer
    coefficients, with or without the four pure fourth powers."""
    p = draw(st.sampled_from([3, 5]))
    terms = {}
    if draw(st.booleans()):
        terms = {e: draw(COEFFS) for e in DIAGONAL}
    extra = draw(st.lists(st.sampled_from(MONOMIALS), min_size=1 - bool(terms),
                          max_size=6 - len(terms), unique=True))
    for e in extra:
        terms[e] = draw(COEFFS)
    assume(any(c % p for c in terms.values()))
    return QuarticForm(terms, name="random"), p


@settings(max_examples=40, deadline=None)
@given(random_quartics())
def test_criterion_matches_qq_route_on_random_quartics(case):
    f, p = case
    assert brauer_height(f, p, 2) == _qq_height(f, p, 2)


# fermat + T0^3 T1 + T0^2 T1 T2: nondiagonal, smooth mod 3, height 2 at 3
# (found by a search over two extra monomials with small coefficients)
HEIGHT_TWO_AT_3 = QuarticForm(
    {(4, 0, 0, 0): 1, (0, 4, 0, 0): 1, (0, 0, 4, 0): 1, (0, 0, 0, 4): 1,
     (3, 1, 0, 0): 1, (2, 1, 1, 0): 1}, name="height-two-at-3")


def test_nondiagonal_height_two_quartic():
    f = HEIGHT_TWO_AT_3
    assert smooth_check_fp(f, 3)
    qq = _qq_height(f, 3, 2)
    assert (qq.kind, qq.value, qq.first_nonzero_degree) == ("finite", 2, 9)
    assert brauer_height(f, 3, 2) == qq
    assert brauer_height(f, 3, 3) == qq == _qq_height(f, 3, 3)


def test_cap_above_p_to_the_h_max_reads_further_degrees():
    # the window is p^h_max + 1, as for the QQ route: h_max 1 reads beta_3
    # only and says AtLeast(1); h_max 2 also reads beta_9 and finds height 2
    f = HEIGHT_TWO_AT_3
    assert brauer_height(f, 3, 1) == HeightResult("at_least", 1) == \
        _qq_height(f, 3, 1)
    res = brauer_height(f, 3, 2)
    assert (res.kind, res.value, res.first_nonzero_degree) == ("finite", 2, 9)
    assert res == _qq_height(f, 3, 2)
    fermat = named_quartic("fermat")
    assert brauer_height(fermat, 3, 3) == _qq_height(fermat, 3, 3)


# ---------------------------------------------------------------------------
# brauer_height on the v_p(beta_(p^n)) criterion
# ---------------------------------------------------------------------------


def test_brauer_height_builds_no_p_series_over_qq(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("p-series over QQ built")

    monkeypatch.setattr(fgl, "p_series", boom)
    res = brauer_height(named_quartic("fermat"), 3, 3)
    assert (res.kind, res.value) == ("at_least", 3)


def test_brauer_height_extracts_the_log_through_the_deciding_window(
        monkeypatch):
    # the logarithm's coefficients at T^(p^n) are read as single betas,
    # through the deciding degree only; no logarithm and no law is built
    singles = []
    single = k3brauer.beta_coefficients

    def boom(*args, **kwargs):
        raise AssertionError("logarithm or law built")

    def recording_single(f, ms):
        # record each beta as it is pulled, so that betas past the deciding
        # degree, never computed, are not recorded either
        for m, b in zip(ms, single(f, ms)):
            singles.append(m)
            yield b

    monkeypatch.setattr(k3brauer, "stienstra_log", boom)
    monkeypatch.setattr(fgl, "fgl_from_log", boom)
    monkeypatch.setattr(k3brauer, "beta_coefficients", recording_single)
    # beta_13 decides, and beta_169 is never computed
    res = brauer_height(named_quartic("fermat-cross"), 13, 2)
    assert (res.kind, res.value, res.first_nonzero_degree) == \
        ("finite", 1, 13)
    assert singles == [13]
    singles.clear()
    res = brauer_height(named_quartic("fermat-cross"), 3, 3)
    assert (res.kind, res.value) == ("at_least", 3)
    assert singles == [3, 9, 27]


def test_beta_below_the_criterion_valuation_raises(monkeypatch):
    # v_3(beta_27) = 1 < 3 - 1 would make v_3 non-integral: the law is not
    # 3-integral, and the criterion does not guess a verdict
    single = k3brauer.beta_coefficients
    monkeypatch.setattr(
        k3brauer, "beta_coefficients",
        lambda f, ms: (3 * 7 if m == 27 else b
                       for m, b in zip(ms, single(f, ms))))
    with pytest.raises(NonIntegral) as err:
        brauer_height(named_quartic("fermat"), 3, 3)
    assert err.value.degree == 27


@st.composite
def quartics_and_law_primes(draw):
    """(quartic, p) for p up to 11, the primes a law through degree 12 can
    have in its denominators."""
    f, _ = draw(random_quartics())
    return f, draw(st.sampled_from([3, 5, 7, 11]))


@settings(max_examples=40, deadline=None)
@given(quartics_and_law_primes())
def test_stienstra_law_is_integral_on_random_quartics(case):
    # brauer_height relies on Stienstra's theorem, that the law of
    # sum beta_m T^m / m is integral, and does not recheck it; here it is
    # checked coefficient by coefficient through degree 12, where every
    # denominator of the law is a product of primes up to 11
    f, p = case
    law = fgl_from_log(stienstra_log(f, 12).log, 12, integral_at=Prime(p))
    assert law.is_commutative()


@pytest.mark.parametrize("name, p, n", [("fermat", 7, 2),
                                        ("fermat-cross", 3, 2),
                                        ("fermat", 3, 4)])
def test_brauer_height_raises_on_a_non_integral_v_n(name, p, n, monkeypatch):
    # a beta_(p^n) of valuation n - 2 makes v_n = beta_(p^n) / p^(n-1) - ...
    # non-integral; at (fermat, 3, 4) the correction l_2 v_2^9 is nonzero
    q = p ** n
    single = k3brauer.beta_coefficients
    monkeypatch.setattr(
        k3brauer, "beta_coefficients",
        lambda f, ms: (p ** (n - 2) * 2 if m == q else b
                       for m, b in zip(ms, single(f, ms))))
    with pytest.raises(NonIntegral) as err:
        brauer_height(named_quartic(name), p, n)
    assert err.value.degree == q


@pytest.mark.parametrize("p", [17, 19, 23, 29, 31, 37, 41, 43])
def test_fermat_height_two_windows_at_larger_primes(p):
    f = named_quartic("fermat")
    res = brauer_height(f, p, 2)
    if p % 4 == 1:
        assert (res.kind, res.value, res.first_nonzero_degree) == \
            ("finite", 1, p)
    else:
        assert (res.kind, res.value) == ("at_least", 2)
    assert ordinarity_criterion(f, p) == (res.kind == "finite")


def test_fermat_at_3_through_height_six():
    res = brauer_height(named_quartic("fermat"), 3, 6)
    assert (res.kind, res.value) == ("at_least", 6)


def test_fermat_cross_at_13_with_h_max_2():
    res = brauer_height(named_quartic("fermat-cross"), 13, 2)
    assert (res.kind, res.value, res.first_nonzero_degree) == \
        ("finite", 1, 13)
