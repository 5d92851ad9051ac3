"""[p] mod p from integer betas, against the p-series over QQ.

fgl.reduced_p_series computes [p](T) mod p with integers mod p^(K+1) only.
The oracle is the route it replaced in brauer_height: the p-series of the
rational logarithm sum beta_m T^m / m, built over QQ and reduced mod p. The
two must give the same residues coefficient by coefficient, or NonIntegral
at the same lowest degree, or FirstNonzeroNotPPower on both sides.
"""

import pytest
from hypothesis import given, settings, strategies as st

from formalbrauer import fgl, k3brauer
from formalbrauer.coefficients import QQ, Prime, rat, val_p
from formalbrauer.errors import FirstNonzeroNotPPower, NonIntegral
from formalbrauer.fgl import Logarithm, height, p_series, reduced_p_series
from formalbrauer.k3brauer import (
    QuarticForm,
    brauer_height,
    named_quartic,
    ordinarity_criterion,
    smooth_check_fp,
    stienstra_log,
)
from formalbrauer.series import Series


def _qq_p_series(betas, p, window):
    coeffs = {(m,): rat(b, m) for m, b in betas.items() if b and m <= window}
    log = Logarithm(Series(QQ, ("T",), window, coeffs))
    return p_series(log, Prime(p), window)


def _verdict(red, h_max):
    try:
        return height(red, h_max)
    except FirstNonzeroNotPPower:
        return "FirstNonzeroNotPPower"


def _assert_routes_agree(betas, p, window):
    """Kernel and QQ oracle agree; returns the outcome's kind."""
    ps = _qq_p_series(betas, p, window)
    bad = [d for (d,), c in ps.series.coeffs.items() if val_p(c, p) < 0]
    if bad:
        with pytest.raises(NonIntegral) as qq_err:
            ps.reduce()
        with pytest.raises(NonIntegral) as residue_err:
            reduced_p_series(betas, Prime(p), window)
        assert qq_err.value.degree == residue_err.value.degree == min(bad)
        return "NonIntegral"
    want = ps.reduce()
    got = reduced_p_series(betas, Prime(p), window)
    assert got.cap == want.cap == window
    for d in range(window + 1):
        assert got.series.coeff(d) == want.series.coeff(d), f"degree {d}"
    h_max = 0
    while p ** (h_max + 1) <= window:
        h_max += 1
    verdict = _verdict(got, h_max)
    assert verdict == _verdict(want, h_max)
    return verdict if isinstance(verdict, str) else verdict.kind


@st.composite
def integer_logs(draw):
    """(betas, p, window): beta_1 = 1 and random integer betas up to the
    window, about half of them scaled by p^(v_p(m) - 1), so that the
    logarithm sum beta_m T^m / m gives both integral and non-integral laws.
    The betas come from a seeded random.Random: drawn one by one, they lean
    towards 0, and the Newton steps with g != 0 then seldom see a slope
    l'(g) != 1."""
    p = draw(st.sampled_from([3, 5, 7]))
    window = draw(st.integers(2, 50))
    rnd = draw(st.randoms(use_true_random=False))
    betas = {1: 1}
    for m in range(2, window + 1):
        b = rnd.randint(-30, 30)
        if rnd.random() < 0.5:
            b *= p ** max(val_p(m, p) - 1, 0)
        betas[m] = b
    return betas, p, window


@settings(max_examples=60, deadline=None)
@given(integer_logs())
def test_residue_route_matches_qq_route_on_random_betas(case):
    _assert_routes_agree(*case)


def test_random_betas_reach_every_outcome():
    # the outcomes the hypothesis test is after, frozen: height 1 with
    # Newton steps past degree 3 that run with g != 0, once more where the
    # slope l'(g) != 1 decides the degree-15 residue, once where a step must
    # stop at degree 2m + 1, a first nonzero coefficient in degree 6, and
    # beta_25 = 2 != beta_5^2 mod 5, which leaves a 5-denominator in degree 25
    assert _assert_routes_agree({1: 1, 3: 2, 9: 4}, 3, 12) == "finite"
    slope_decides = {1: 1, 2: -5, 3: -16, 4: -20, 6: -11, 8: 12, 9: -11,
                     11: -14, 14: -7}
    assert _assert_routes_agree(slope_decides, 3, 16) == "finite"
    # [5]_5 != 0 mod 5 and beta_2 != 0: a step carried to 2m + 2 = 10
    # would miss (beta_2 / 2) [5]_5^2 there
    assert _assert_routes_agree({1: 1, 2: -4, 3: -3, 5: -2, 8: -3}, 5, 10) \
        == "finite"
    assert _assert_routes_agree({1: 1, 4: 2, 6: 2}, 3, 7) == \
        "FirstNonzeroNotPPower"
    assert _assert_routes_agree({1: 1, 5: 1, 25: 2}, 5, 30) == "NonIntegral"


@pytest.mark.parametrize("name", ["fermat", "diag-1248", "fermat-cross"])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_residue_route_matches_qq_route_on_quartics(name, p):
    window = min(p * p + 1, 50)
    _assert_routes_agree(stienstra_log(named_quartic(name), window).betas,
                         p, window)


# fermat + T0^3 T1 + T0^2 T1 T2: nondiagonal, smooth mod 3, height 2 at 3
# (found by a search over two extra monomials with small coefficients)
HEIGHT_TWO_AT_3 = QuarticForm(
    {(4, 0, 0, 0): 1, (0, 4, 0, 0): 1, (0, 0, 4, 0): 1, (0, 0, 0, 4): 1,
     (3, 1, 0, 0): 1, (2, 1, 1, 0): 1}, name="height-two-at-3")


def test_nondiagonal_height_two_quartic():
    f = HEIGHT_TWO_AT_3
    assert smooth_check_fp(f, 3)
    qq = height(p_series(stienstra_log(f, 10).log, Prime(3), 10).reduce(), 2)
    assert (qq.kind, qq.value, qq.first_nonzero_degree) == ("finite", 2, 9)
    assert brauer_height(f, 3, 2) == qq
    assert brauer_height(f, 3, 3) == qq
    # at window 28 the Newton steps past degree 9 run with g != 0
    assert _assert_routes_agree(stienstra_log(f, 28).betas, 3, 28) == "finite"


# ---------------------------------------------------------------------------
# brauer_height on the residue route
# ---------------------------------------------------------------------------


def test_brauer_height_builds_no_p_series_over_qq(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("p-series over QQ built")

    monkeypatch.setattr(fgl, "p_series", boom)
    res = brauer_height(named_quartic("fermat"), 3, 3)
    assert (res.kind, res.value) == ("at_least", 3)


def test_brauer_height_extracts_the_log_through_the_deciding_window(
        monkeypatch):
    caps = []
    extract = k3brauer.stienstra_log

    def recording(f, cap, *args, **kwargs):
        caps.append(cap)
        return extract(f, cap, *args, **kwargs)

    monkeypatch.setattr(k3brauer, "stienstra_log", recording)
    # decided in the first window, 14; the law spot-check reads cap 12
    res, blog = brauer_height(named_quartic("fermat-cross"), 13, 2,
                              with_log=True)
    assert (res.kind, res.value, res.first_nonzero_degree) == \
        ("finite", 1, 13)
    assert caps == [14] and blog.beta(13) % 13 != 0
    # windows 4 and 10 fit in the law check's cap 12; 28 is extracted anew
    caps.clear()
    res = brauer_height(named_quartic("fermat-cross"), 3, 3)
    assert (res.kind, res.value) == ("at_least", 3)
    assert caps == [12, 28]


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
