"""Formal group laws: axioms, logarithms, p-series, heights, ideal chains."""

import pytest
from hypothesis import given, settings, strategies as st

from formalbrauer.coefficients import (
    QQ,
    Prime,
    TruncPoly,
    TruncPolyRing,
    rat,
)
from formalbrauer.errors import (
    CapTooSmall,
    NonIntegral,
    RingMismatch,
    SingularCurve,
)
from formalbrauer.fgl import (
    FormalGroupLaw,
    HeightResult,
    Logarithm,
    PSeries,
    closed_fibre_height,
    count_points,
    elliptic_fgl,
    elliptic_ss_oracle,
    fgl_from_log,
    hazewinkel_generators,
    hazewinkel_log,
    ideal_contains,
    ideal_contains_all,
    log_from_fgl,
    standard_law,
    unit_at_closed_point,
)
from formalbrauer.k3brauer import named_quartic
from formalbrauer.landweber import LAW_CAP, RingPresentation, certify_k3_spectrum
from formalbrauer.series import Series
from p_series_oracle import (
    FirstNonzeroNotPPower,
    height,
    landweber_chain,
    p_series,
)


def _log(coeffs, cap=8):
    return Logarithm(Series.univariate(QQ, cap, coeffs))


# ---------------------------------------------------------------------------
# laws and axioms
# ---------------------------------------------------------------------------


def test_standard_laws_satisfy_axioms():
    for kind in ("additive", "multiplicative"):
        law = standard_law(kind, QQ, 8)
        law.verify_axioms()


def test_unit_axiom_enforced_at_construction():
    x = Series.variable(QQ, 4, "X", ("X", "Y"))
    y = Series.variable(QQ, 4, "Y", ("X", "Y"))
    with pytest.raises(ValueError):
        FormalGroupLaw(x.add(y).add(x.mul(x)))   # F(X,0) = X + X^2


def test_noncommutative_candidate_is_rejected():
    x = Series.variable(QQ, 4, "X", ("X", "Y"))
    y = Series.variable(QQ, 4, "Y", ("X", "Y"))
    skew = FormalGroupLaw(x.add(y).add(x.mul(x).mul(y).scalar_mul(2)))
    assert not skew.is_commutative()
    with pytest.raises(ValueError):
        skew.verify_axioms()


def test_nonassociative_candidate_is_rejected():
    x = Series.variable(QQ, 5, "X", ("X", "Y"))
    y = Series.variable(QQ, 5, "Y", ("X", "Y"))
    # commutative but breaks associativity in degree 4
    bad = FormalGroupLaw(x.add(y).add(x.mul(y).mul(x.add(y))))
    assert bad.is_commutative()
    assert not bad.is_associative()


def _xy(ring, cap):
    return (Series.variable(ring, cap, "X", ("X", "Y")),
            Series.variable(ring, cap, "Y", ("X", "Y")))


def _symmetric(ring, cap, a, b):
    """X^a Y^b + X^b Y^a at the given cap."""
    return Series(ring, ("X", "Y"), cap,
                  {(a, b): ring.one, (b, a): ring.one})


@pytest.mark.parametrize("ring", [QQ, TruncPolyRing(("t",), 2)],
                         ids=["QQ", "Q[t]"])
@pytest.mark.parametrize("base", ["additive", "multiplicative"])
def test_associativity_defect_at_the_cap_is_caught(ring, base):
    # X^5 Y + X Y^5 is not a multiple of the degree-6 symmetric 2-cocycle
    # ((X+Y)^6 - X^6 - Y^6), so adding it to a law breaks associativity in
    # degree 6 and in no lower degree
    cap = 6
    law = standard_law(base, ring, cap)
    bad = FormalGroupLaw(law.F.add(_symmetric(ring, cap, 5, 1)))
    assert bad.is_commutative()
    assert not bad.is_associative()
    assert FormalGroupLaw(bad.F.truncate(cap - 1)).is_associative()


@pytest.mark.parametrize("ring", [QQ, TruncPolyRing(("t",), 2)],
                         ids=["QQ", "Q[t]"])
def test_associativity_defect_below_the_cap_is_caught(ring):
    # over the additive law the defect of X + Y + X^4 Y + X Y^4 is the
    # cocycle defect of X^4 Y + X Y^4, in degree 5 only (its second-order
    # terms start in degree 9)
    cap = 6
    x, y = _xy(ring, cap)
    bad = FormalGroupLaw(x.add(y).add(_symmetric(ring, cap, 4, 1)))
    assert bad.is_commutative()
    assert not bad.is_associative()
    assert FormalGroupLaw(bad.F.truncate(cap - 2)).is_associative()


def test_law_with_terms_at_the_cap_passes_both_checks():
    # the control for the two tests above: a law from a logarithm has terms
    # in degree cap, and dropping them on either side would break the check
    law = fgl_from_log(_log({1: 1, 2: rat(1, 2), 3: rat(-1, 3),
                             5: rat(2, 5)}, 6), 6)
    assert any(sum(e) == 6 for e in law.F.coeffs)
    assert law.is_commutative() and law.is_associative()


def test_commutativity_defect_at_the_cap_is_caught():
    cap = 6
    x, y = _xy(QQ, cap)
    skew = FormalGroupLaw(x.add(y).add(
        Series(QQ, ("X", "Y"), cap, {(5, 1): rat(1)})))
    assert not skew.is_commutative()
    assert FormalGroupLaw(skew.F.truncate(cap - 1)).is_commutative()


# ---------------------------------------------------------------------------
# associativity by one nested build, against two substitutions
# ---------------------------------------------------------------------------


def _two_substitution_associative(law):
    """The oracle: F(F(X,Y),Z) and F(X,F(Y,Z)), each by one general
    trivariate substitution, compared up to the cap."""
    rng = law.ring
    cap = law.cap
    XYZ = ("X", "Y", "Z")
    x = Series.variable(rng, cap, "X", XYZ)
    z = Series.variable(rng, cap, "Z", XYZ)
    # substituting bare variables is a relabelling
    fxy = law.F.remap(XYZ)
    fyz = law.F.remap(XYZ, {"X": "Y", "Y": "Z"})
    return law.F.subst([fxy, z]) == law.F.subst([x, fyz])


@st.composite
def _candidate_laws(draw):
    """A candidate X + Y + ... over QQ or Q[t]/(t^3) at cap 2..7: random
    terms (symmetrised or not), a law from a random logarithm, or such a law
    plus a defect, X^a Y^b + X^b Y^a or X^a Y^b alone, at the cap or below
    it."""
    ring = draw(st.sampled_from([QQ, TruncPolyRing(("t",), 2)]))
    cap = draw(st.integers(2, 7))

    def coefficient():
        c = ring.coerce(rat(draw(st.integers(-3, 3)), draw(st.integers(1, 3))))
        if ring is not QQ:
            c = c + ring.coerce(draw(st.integers(-2, 2))) * ring.var("t")
        return c

    kind = draw(st.sampled_from(["random", "commutative", "log",
                                 "log+defect", "log+skew"]))
    x, y = _xy(ring, cap)
    if kind in ("random", "commutative"):
        exps = draw(st.lists(st.tuples(st.integers(1, cap - 1),
                                       st.integers(1, cap - 1))
                             .filter(lambda e: sum(e) <= cap),
                             min_size=1, max_size=4))
        terms = {}
        for a, b in exps:
            c = coefficient()
            terms[(a, b)] = c
            if kind == "commutative":
                terms[(b, a)] = c
        return FormalGroupLaw(x.add(y).add(Series(ring, ("X", "Y"), cap, terms)))
    log = Logarithm(Series.univariate(
        ring, cap, {1: 1, **{d: coefficient() for d in range(2, cap + 1)}}))
    law = fgl_from_log(log, cap)
    if kind == "log":
        return law
    total = draw(st.integers(2, cap))
    a = draw(st.integers(1, total - 1))
    terms = {(a, total - a): ring.one}
    if kind == "log+defect":
        terms[(total - a, a)] = ring.one
    defect = Series(ring, ("X", "Y"), cap, terms)
    return FormalGroupLaw(law.F.add(defect))


@settings(max_examples=200, deadline=None)
@given(_candidate_laws())
def test_associativity_matches_two_substitutions(law):
    assert law.is_associative() == _two_substitution_associative(law)
    if law.provenance == "from-logarithm":
        assert law.is_associative()


def _counting_nests(monkeypatch, fn, *args):
    """fn(*args) and the number of Series.nested calls it made."""
    calls = []
    nested = Series.nested

    def counting_nested(self):
        calls.append(1)
        return nested(self)

    monkeypatch.setattr(Series, "nested", counting_nested)
    try:
        return fn(*args), len(calls)
    finally:
        monkeypatch.setattr(Series, "nested", nested)


def _certificate_law(name):
    """The law the p = 5, h_max = 2 certificate of a built-in quartic
    embeds, at cap min(LAW_CAP, 26)."""
    return certify_k3_spectrum(RingPresentation(Prime(5)),
                               named_quartic(name), 2).law


def test_a_commutative_law_is_checked_with_one_nested_build(monkeypatch):
    law = _certificate_law("fermat")
    assert law.cap == LAW_CAP
    _, nests = _counting_nests(monkeypatch, law.verify_axioms)
    assert nests == 1


def test_a_noncommutative_law_builds_both_nests(monkeypatch):
    x, y = _xy(QQ, 4)
    skew = FormalGroupLaw(x.add(y).add(x.mul(x).mul(y).scalar_mul(2)))
    got, nests = _counting_nests(monkeypatch, skew.is_associative)
    assert nests == 2
    assert got == _two_substitution_associative(skew)


@pytest.mark.parametrize("name", ["fermat", "diag-1248", "fermat-cross"])
def test_certificate_law_loses_its_check_to_a_defect_at_law_cap(name):
    # X^9 Y + X Y^9 changes the law only in degree LAW_CAP = 10, the top
    # degree of the check, where a dropped term would hide the defect
    law = _certificate_law(name)
    assert law.cap == LAW_CAP
    law.verify_axioms()
    bad = FormalGroupLaw(law.F.add(_symmetric(QQ, LAW_CAP, 9, 1)))
    with pytest.raises(ValueError, match="not associative"):
        bad.verify_axioms()


# ---------------------------------------------------------------------------
# logarithm <-> law
# ---------------------------------------------------------------------------


def test_multiplicative_law_from_its_logarithm():
    # l(T) = log(1 + T) = T - T^2/2 + T^3/3 - ...
    cap = 8
    l = _log({d: rat((-1) ** (d + 1), d) for d in range(1, cap + 1)}, cap)
    law = fgl_from_log(l, cap, integral_at=Prime(5))
    assert law.F == standard_law("multiplicative", QQ, cap).F
    law.verify_axioms()


def test_log_recovery_roundtrip():
    l = _log({1: 1, 2: rat(3, 2), 3: rat(-1, 4), 5: rat(7, 5)})
    law = fgl_from_log(l, 8)
    back = log_from_fgl(law)
    assert back.series == l.series


class _Integers:
    """Z as a bare coefficient ring: enough to build a series over, and
    not a Q-algebra."""

    def coerce(self, x):
        return int(x)

    def is_zero(self, a):
        return a == 0


def test_logarithm_validation():
    with pytest.raises(ValueError):
        _log({1: 2})                        # must start with 1*T
    with pytest.raises(ValueError):
        _log({0: 1, 1: 1})                  # must vanish at 0
    with pytest.raises(RingMismatch):
        Logarithm(Series.univariate(_Integers(), 4, {1: 1}))  # a Q-algebra


def test_fgl_from_log_integrality_guard():
    # l = T + T^3/9 yields F with X^2 Y coefficient -1/3: not 3-integral
    l = _log({1: 1, 3: rat(1, 9)}, cap=5)
    law = fgl_from_log(l, 5)
    assert law.F.coeff((2, 1)) == rat(-1, 3)
    with pytest.raises(NonIntegral):
        fgl_from_log(l, 5, integral_at=Prime(3))
    fgl_from_log(l, 5, integral_at=Prime(7))   # 7-integral though


def test_conjugate_preserves_axioms_and_height():
    cap = 10
    l = _log({d: rat((-1) ** (d + 1), d) for d in range(1, cap + 1)}, cap)
    law = fgl_from_log(l, cap)
    u = Series.univariate(QQ, cap, {1: 2, 2: 5, 4: -3})
    moved = law.conjugate(u)
    moved.verify_axioms()
    p = Prime(3)
    h0 = height(p_series(law, p, cap), 2)
    h1 = height(p_series(moved, p, cap), 2)
    assert (h0.kind, h0.value) == (h1.kind, h1.value) == ("finite", 1)


def test_conjugate_rejects_non_iso():
    law = standard_law("multiplicative", QQ, 6)
    u = Series.univariate(QQ, 6, {0: 1, 1: 1})
    with pytest.raises(ValueError):
        law.conjugate(u)                    # does not fix 0


# ---------------------------------------------------------------------------
# p-series
# ---------------------------------------------------------------------------


def test_multiplicative_p_series_is_binomial():
    # [3](T) = (1+T)^3 - 1 = 3T + 3T^2 + T^3
    law = standard_law("multiplicative", QQ, 6)
    ps = p_series(law, Prime(3), 6)
    assert ps.a(0) == rat(3)
    assert ps.a(1) == rat(3)
    assert ps.a(2) == rat(1)
    assert ps.a(3) == rat(0)
    assert ps.v(1) == rat(1)


def test_p_series_routes_agree():
    cap = 8
    l = _log({d: rat((-1) ** (d + 1), d) for d in range(1, cap + 1)}, cap)
    law = fgl_from_log(l, cap)
    for p in (3, 5, 7):
        via_log = p_series(l, Prime(p), cap)
        via_law = p_series(law, Prime(p), cap)
        assert via_log.series == via_law.series
    # the Hazewinkel law v = (t, 1) over Q[t]
    for p in (3, 5):
        cap = p + 3
        R = TruncPolyRing(("t",), cap)
        hz = hazewinkel_log([R.var("t"), R.one], Prime(p), cap)
        via_law = p_series(fgl_from_log(hz, cap), Prime(p), cap)
        assert via_law.series == p_series(hz, Prime(p), cap).series


def test_p_series_guards():
    l = _log({1: 1}, cap=4)
    with pytest.raises(CapTooSmall):
        p_series(l, Prime(3), 9)
    with pytest.raises(RingMismatch):
        p_series("not a law", Prime(3), 4)
    ps = p_series(l, Prime(3), 4)
    with pytest.raises(CapTooSmall):
        ps.a(4)                             # T^5 is beyond cap 4


def test_p_series_reduce_rejects_denominators():
    # the whole series is checked, in degree order, before the scan: 1/3 in
    # degree 4 lies above the unit at T^3 and still raises
    for coeffs, degree in (({1: 3, 2: rat(1, 3)}, 2),
                           ({1: 3, 3: 1, 4: rat(1, 3)}, 4),
                           ({1: 3, 2: rat(2, 9), 4: rat(1, 3)}, 2)):
        ps = PSeries(Prime(3), Series.univariate(QQ, 4, coeffs))
        with pytest.raises(NonIntegral) as err:
            height(ps, 1)
        assert err.value.degree == (degree,)


def test_p_series_reduce_evaluates_closed_point():
    R = TruncPolyRing(("t",), 6)
    t = R.var("t")
    s = Series(R, ("T",), 6, {(1,): R.from_int(3), (3,): t * 2 + R.from_int(7),
                              (5,): t})
    # parameters go to 0, then mod 3: T^3 keeps 7 = 1, a unit
    res = height(PSeries(Prime(3), s), 1)
    assert (res.kind, res.value, res.first_nonzero_degree) == ("finite", 1, 3)
    # 2t + 6 and t are nonzero but vanish at the closed point
    s = Series(R, ("T",), 6, {(1,): R.from_int(3), (3,): t * 2 + R.from_int(6),
                              (5,): t})
    res = height(PSeries(Prime(3), s), 1)
    assert (res.kind, res.value) == ("at_least", 1)


# ---------------------------------------------------------------------------
# heights
# ---------------------------------------------------------------------------


def test_multiplicative_height_one_everywhere():
    for p in (3, 5, 7, 11):
        law = standard_law("multiplicative", QQ, p)
        res = height(p_series(law, Prime(p), p), 1)
        assert res.is_finite and res.value == 1
        assert res.first_nonzero_degree == p


def test_additive_height_at_least_h_max():
    law = standard_law("additive", QQ, 30)
    res = height(p_series(law, Prime(3), 30), 3)
    assert res.kind == "at_least"
    assert res.value == 3
    assert not res.is_finite


def test_height_guards():
    law = standard_law("multiplicative", QQ, 10)
    ps = p_series(law, Prime(3), 10)
    with pytest.raises(CapTooSmall):
        height(ps, 3)                       # cap 10 < 3^3
    # a denominator is reported before the cap
    bad = PSeries(Prime(3), Series.univariate(QQ, 10, {1: 3, 2: rat(1, 3)}))
    with pytest.raises(NonIntegral):
        height(bad, 3)


def test_height_first_nonzero_not_p_power():
    # 3 T^2 is nonzero but not a unit; 2 T^5 is the first unit
    s = Series.univariate(QQ, 9, {1: 3, 2: 3, 5: 2, 9: 1})
    with pytest.raises(FirstNonzeroNotPPower):
        height(PSeries(Prime(3), s), 2)


@st.composite
def _p_series_cases(draw):
    """(p, ring, {degree: coefficient}, cap, h_max): a univariate series with
    a_0 = p over QQ or Q[t1,t2]<=deg 2, whose coefficients are mostly
    multiples of p, sometimes units, and sometimes carry p in a
    denominator."""
    p = draw(st.sampled_from([3, 5, 7]))
    cap = draw(st.integers(min_value=p, max_value=min(p ** 3, 30)))
    top = max(h for h in range(1, 4) if p ** h <= cap)
    h_max = draw(st.integers(min_value=1, max_value=top))
    poly = draw(st.booleans())
    ring = TruncPolyRing(("t1", "t2"), 2) if poly else QQ

    def rational():
        num = draw(st.integers(-9, 9))
        if draw(st.integers(0, 2)):
            num *= p
        return rat(num, draw(st.sampled_from([1, 1, 1, 2, p])))

    def coefficient():
        if not poly:
            return rational()
        exps = draw(st.sets(st.sampled_from([(1, 0), (0, 1), (1, 1), (2, 0)]),
                            max_size=2))
        return TruncPoly(ring.variables, ring.cap,
                         {(0, 0): rational(), **{e: rational() for e in exps}})

    powers = {p ** h for h in range(1, 4)}
    coeffs = {1: ring.from_int(p)}
    for d in range(2, cap + 1):
        if draw(st.integers(0, 1 if d in powers else 3)) == 0:
            coeffs[d] = coefficient()
    return p, ring, coeffs, cap, h_max


def _closed_point_oracle(p, coeffs, h_max):
    """The verdict by plain integer arithmetic: a term's denominator
    divisible by p is a NonIntegral at its degree; otherwise the first
    constant term whose numerator times the inverse of its denominator is
    nonzero mod p decides, at a power of p or not."""
    def terms(c):
        return c.terms if isinstance(c, TruncPoly) else {(0, 0): c}

    for d in sorted(coeffs):
        if any(c.denominator % p == 0 for c in terms(coeffs[d]).values()):
            return ("NonIntegral", d)
    for d in sorted(coeffs):
        c = terms(coeffs[d]).get((0, 0), 0)
        if c.numerator * pow(c.denominator, -1, p) % p:
            h = 0
            while p ** h < d:
                h += 1
            if p ** h != d:
                return ("FirstNonzeroNotPPower",)
            return ("finite", h, d)
    return ("at_least", h_max, None)


@settings(max_examples=200, deadline=None)
@given(_p_series_cases())
def test_height_matches_a_plain_integer_oracle(case):
    p, ring, coeffs, cap, h_max = case
    ps = PSeries(Prime(p), Series.univariate(ring, cap, coeffs))
    try:
        res = height(ps, h_max)
        got = (res.kind, res.value, res.first_nonzero_degree)
    except NonIntegral as err:
        got = ("NonIntegral", err.degree[0])
    except FirstNonzeroNotPPower:
        got = ("FirstNonzeroNotPPower",)
    assert got == _closed_point_oracle(p, coeffs, h_max)


# ---------------------------------------------------------------------------
# Hazewinkel logarithms
# ---------------------------------------------------------------------------


def test_hazewinkel_log_frozen_coefficients():
    R = TruncPolyRing(("t",), 12)
    t = R.var("t")
    log = hazewinkel_log([t, R.one], Prime(3), 12)
    # m_1 = t/3 and m_2 = 1/3 + t^4/9
    assert log.series.coeff(3).terms == {(1,): rat(1, 3)}
    assert log.series.coeff(9).terms == {(0,): rat(1, 3), (4,): rat(1, 9)}


def test_hazewinkel_p_series_frozen_coefficients():
    R = TruncPolyRing(("t",), 12)
    t = R.var("t")
    log = hazewinkel_log([t, R.one], Prime(3), 12)
    ps = p_series(log, Prime(3), 10)
    assert ps.a(0).terms == {(0,): rat(3)}
    assert ps.v(1).terms == {(1,): rat(-8)}            # (1 - 3^2) t
    assert ps.series.coeff(5).terms == {(2,): rat(72)}
    assert ps.series.coeff(7).terms == {(3,): rat(-840)}
    assert ps.v(2).terms == {(0,): rat(-6560), (4,): rat(9000)}
    # v_2 = 1 mod (3, v_1): -6560 = 1 - 3^8 and 9000 = 0 mod 3
    assert (-6560 - 1) % 3 ** 8 == 0


def test_hazewinkel_law_is_integral_and_lawful():
    R = TruncPolyRing(("t",), 9)
    t = R.var("t")
    log = hazewinkel_log([t, R.one], Prime(3), 9)
    law = fgl_from_log(log, 9, integral_at=Prime(3))
    law.verify_axioms()


def _p_power_coefficients(log, p):
    q = p
    while q <= log.cap:
        yield log.series.coeff(q)
        q *= p


V_ENTRIES = st.sampled_from(["t", "1", "0", "p", "pt", "t+p", "1+t", "t^2"])


def _entry(name, p, R):
    t = R.var("t")
    return {"t": t, "1": R.one, "0": R.zero, "p": R.from_int(p),
            "pt": t * p, "t+p": t + p, "1+t": R.one + t, "t^2": t * t}[name]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 5]), st.lists(V_ENTRIES, min_size=1, max_size=3))
def test_hazewinkel_generators_invert_hazewinkel_log(p, names):
    # v_1, v_2, ... come back exactly, up to the first one that is a unit at
    # the closed point
    R = TruncPolyRing(("t",), 8)
    v = [_entry(name, p, R) for name in names]
    log = hazewinkel_log(v, Prime(p), p ** len(v) + 1)
    want = []
    for x in v:
        want.append(x)
        if x.constant_term() % p:
            break
    assert list(hazewinkel_generators(_p_power_coefficients(log, p), p)) == \
        want


def test_hazewinkel_generators_stop_at_the_first_unit():
    # the multiplicative law: l_1 = 1/3, so v_1 = 1 is a unit and no
    # further coefficient is read
    def ells():
        yield rat(1, 3)
        raise AssertionError("read past the deciding coefficient")

    assert list(hazewinkel_generators(ells(), Prime(3))) == [rat(1)]


def _guarded(ells, n):
    """The first n of ells; asking for one more fails the test."""
    for _, ell in zip(range(n), ells):
        yield ell
    raise AssertionError(f"read past l_{n}")


@pytest.mark.parametrize("v, h_max, want", [
    ([1], 3, HeightResult("finite", 1, first_nonzero_degree=3)),
    ([3, 1], 3, HeightResult("finite", 2, first_nonzero_degree=9)),
    ([3, 3, 1], 2, HeightResult("at_least", 2)),
])
def test_closed_fibre_height_reads_no_coefficient_past_the_deciding_one(
        v, h_max, want):
    # v_1 = 1 decides at l_1 and v_2 = 1 at l_2; with h_max 2, v = (3, 3, 1)
    # stops undecided after l_2, the unit v_3 unread
    log = hazewinkel_log(v, Prime(3), 3 ** len(v) + 1)
    n = len(v) if want.is_finite else h_max
    h, vs = closed_fibre_height(
        _guarded(_p_power_coefficients(log, 3), n), Prime(3), h_max)
    assert h == want
    assert vs == v[:n]


def test_hazewinkel_generators_raise_on_a_denominator():
    # v = (3, 1/3): v_1 = 3 is not a unit, and v_2 = 1/3 is not 3-integral
    log = hazewinkel_log([3, rat(1, 3)], Prime(3), 10)
    gen = hazewinkel_generators(_p_power_coefficients(log, 3), Prime(3))
    assert next(gen) == 3
    with pytest.raises(NonIntegral) as err:
        next(gen)
    assert err.value.degree == 9


def test_unit_at_the_closed_point():
    R = TruncPolyRing(("t",), 4)
    t = R.var("t")
    three = Prime(3)
    assert unit_at_closed_point(R.one + t, three)
    assert not unit_at_closed_point(t, three)
    assert not unit_at_closed_point(t + 6, three)
    assert unit_at_closed_point(rat(2, 5), three)
    assert not unit_at_closed_point(rat(1, 3), three)   # not in Z_(3)
    assert not unit_at_closed_point(rat(3), three)
    assert not unit_at_closed_point(rat(0), three)


# ---------------------------------------------------------------------------
# elliptic curves
# ---------------------------------------------------------------------------

CURVE_XXX_X = (0, 0, 0, 1, 0)       # y^2 = x^3 + x, CM by i
CURVE_XXX_1 = (0, 0, 0, 0, 1)       # y^2 = x^3 + 1, CM by a cube root of 1


def test_count_points_frozen():
    assert count_points(CURVE_XXX_X, Prime(5)) == 4
    assert count_points(CURVE_XXX_1, Prime(5)) == 6
    assert count_points((0, 0, 1, 0, 0), Prime(5)) == 6   # y^2 + y = x^3


def test_elliptic_log_leading_terms():
    law, log = elliptic_fgl(CURVE_XXX_X, 7)
    # T + (2/5) T^5 + O(deg>7); the T^4 coefficient of l' is 2, matching
    # a_5 = 5 + 1 - #E(F_5) = 2 from the honest point count
    assert log.series.degrees() == [1, 5]
    assert log.series.coeff(5) == rat(2, 5)
    law.verify_axioms()


def test_elliptic_rejects_singular_curves():
    with pytest.raises(SingularCurve):
        elliptic_fgl((0, 0, 0, 0, 0), 6)    # y^2 = x^3 is cuspidal
    with pytest.raises(SingularCurve):
        count_points((0, 0, 0, -3, 2), Prime(5))   # disc = 0


def test_cm_oracle_facts():
    # y^2 = x^3 + x is supersingular exactly at p = 3 mod 4
    for p in (5, 7, 11, 13):
        expect = "supersingular" if p % 4 == 3 else "ordinary"
        assert elliptic_ss_oracle(CURVE_XXX_X, Prime(p)) == expect
    # y^2 = x^3 + 1 is supersingular exactly at p = 2 mod 3
    for p in (5, 7, 11, 13):
        expect = "supersingular" if p % 3 == 2 else "ordinary"
        assert elliptic_ss_oracle(CURVE_XXX_1, Prime(p)) == expect


def test_elliptic_height_matches_point_count_oracle():
    for coeffs in (CURVE_XXX_X, CURVE_XXX_1):
        for p in (5, 7):
            cap = p ** 2 + 1
            law, log = elliptic_fgl(coeffs, cap)
            res = height(p_series(log, Prime(p), cap), 2)
            oracle = elliptic_ss_oracle(coeffs, Prime(p))
            assert res.is_finite
            assert res.value == (2 if oracle == "supersingular" else 1)


# ---------------------------------------------------------------------------
# ideal membership and chains
# ---------------------------------------------------------------------------


def test_ideal_contains_over_p_local_rationals():
    p = Prime(3)
    assert ideal_contains([rat(3)], rat(6), p, QQ)
    assert ideal_contains([rat(3)], rat(3, 2), p, QQ)   # 2 is a unit
    assert not ideal_contains([rat(3)], rat(1), p, QQ)
    assert not ideal_contains([rat(3)], rat(1, 3), p, QQ)
    assert ideal_contains([rat(9), rat(3)], rat(3), p, QQ)
    assert ideal_contains([], rat(0), p, QQ)
    assert not ideal_contains([], rat(1), p, QQ)
    assert ideal_contains([rat(0), rat(3)], rat(27), p, QQ)


def test_ideal_contains_over_truncated_polynomials():
    p = Prime(3)
    R = TruncPolyRing(("t",), 6)
    t = R.var("t")
    three = R.from_int(3)
    assert ideal_contains([three, t * t], t * t * 5 + three, p, R)
    assert not ideal_contains([three, t * t], t, p, R)
    assert ideal_contains([three, t], t * 7 + R.from_int(12), p, R)
    assert not ideal_contains([three + t], t, p, R)     # cofactor needs 1/3
    assert ideal_contains([three + t], (three + t) * t, p, R)
    assert ideal_contains([t], R.zero, p, R)


def test_landweber_chain_recursion_multiplicative():
    # I_(3,1) = (3), I_(3,2) = I_(3,1) + (v_1), I_(3,3) = I_(3,2) + (v_2)
    p = Prime(3)
    law = standard_law("multiplicative", QQ, 9)
    chain = landweber_chain(p_series(law, p, 9), 2)
    assert chain.generators[0] == []
    assert chain.generators[1] == [rat(3)]
    assert chain.vs[0] == rat(3)
    assert chain.vs[1] == rat(1)
    for n in (0, 1):
        bigger = chain.generators[n + 1]
        smaller = chain.generators[n] + [chain.vs[n]]
        for g in bigger:
            assert ideal_contains(smaller, g, p, QQ)
        for g in smaller:
            assert ideal_contains(bigger, g, p, QQ)
    # through n = 2 at p = 3 and 5, for the multiplicative law (p-fold
    # iterate) and the Hazewinkel law v = (t, 1) (logarithm route):
    # I_(p,n+1) is generated by a_0, ..., a_(p^n - 1)
    R = TruncPolyRing(("t",), 12)
    for p in (Prime(3), Prime(5)):
        q = p.p
        cap = q * q + 1
        hz = hazewinkel_log([R.var("t"), R.one], p, cap)
        for ps in (p_series(standard_law("multiplicative", QQ, cap), p, cap),
                   p_series(hz, p, cap)):
            for n in range(3):
                bigger = [ps.a(i) for i in range(q ** n)]
                smaller = [ps.a(i) for i in range(q ** (n - 1) if n else 0)]
                smaller.append(ps.v(n))
                assert all(ideal_contains_all(smaller, bigger, p, ps.ring))
                assert all(ideal_contains_all(bigger, smaller, p, ps.ring))


def test_landweber_chain_needs_cap():
    law = standard_law("multiplicative", QQ, 8)
    with pytest.raises(CapTooSmall):
        landweber_chain(p_series(law, Prime(3), 8), 2)   # needs cap >= 9
