"""Quartic surfaces: logarithm extraction, heights, ordinarity, smoothness."""

import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from formalbrauer import k3brauer
from formalbrauer.coefficients import is_prime
from formalbrauer.errors import CapTooSmall
from formalbrauer.k3brauer import (
    BUILTIN_QUARTICS,
    BetaExtractor,
    QuarticForm,
    beta_coefficient,
    brauer_generators,
    brauer_height,
    named_quartic,
    power_diagonal,
    smooth_check_fp,
    stienstra_log,
)
from p_series_oracle import is_diagonal

FERMAT = named_quartic("fermat")
CROSS = named_quartic("fermat-cross")


# ---------------------------------------------------------------------------
# the quartic container
# ---------------------------------------------------------------------------


def exactly(message):
    return f"^{re.escape(message)}$"


def test_quartic_validation():
    with pytest.raises(ValueError, match=exactly(
            "exponent (3, 0, 0, 0) is not homogeneous of degree 4")):
        QuarticForm({(3, 0, 0, 0): 1})
    with pytest.raises(ValueError,
                       match=exactly("bad exponent vector (5, -1, 0, 0)")):
        QuarticForm({(5, -1, 0, 0): 1})
    with pytest.raises(ValueError,
                       match=exactly("bad exponent vector (1, 1, 1)")):
        QuarticForm({(1, 1, 1): 1})
    with pytest.raises(ValueError,
                       match=exactly("quartic form is identically zero")):
        QuarticForm({(4, 0, 0, 0): 0})
    f = QuarticForm({(4, 0, 0, 0): 1, (0, 4, 0, 0): 2})
    assert f.coefficient((0, 4, 0, 0)) == 2
    assert f.coefficient((0, 0, 4, 0)) == 0


@pytest.mark.parametrize("terms,message", [
    ({(4.5, -0.5, 0, 0): 1.9},
     "non-integer entry in term (4.5, -0.5, 0, 0): 1.9"),
    ({(4, 0, 0, 0): 1.9}, "non-integer entry in term (4, 0, 0, 0): 1.9"),
    ({(4, 0, 0, 0): Fraction(2)},
     "non-integer entry in term (4, 0, 0, 0): Fraction(2, 1)"),
    ({("4", 0, 0, 0): 1}, "non-integer entry in term ('4', 0, 0, 0): 1"),
    ({(4.0, 0, 0): 1}, "bad exponent vector (4.0, 0, 0)"),
])
def test_quartic_refuses_what_int_would_truncate(terms, message):
    with pytest.raises(ValueError, match=exactly(message)):
        QuarticForm(terms)


def test_quartic_takes_integer_subclasses_as_plain_ints():
    class Exponent(int):
        pass

    f = QuarticForm({(Exponent(4), 0, 0, 0): Exponent(3), (0, 4, 0, 0): 1})
    assert f.terms == {(4, 0, 0, 0): 3, (0, 4, 0, 0): 1}
    assert all(type(k) is int for e in f.terms for k in e)
    assert all(type(c) is int for c in f.terms.values())


def test_parse_dumps_roundtrip():
    text = CROSS.dumps()
    again = QuarticForm.parse(text, name="again")
    assert again == CROSS
    assert again.name == "again"


def test_parse_comments_blanks_and_accumulation():
    f = QuarticForm.parse("""
        # a quartic with a duplicated line
        4 0 0 0 1   # trailing comment
        0 4 0 0 2
        0 4 0 0 3
        0 0 4 0 1
        0 0 0 4 1
    """)
    assert f.coefficient((0, 4, 0, 0)) == 5     # 2 + 3


@settings(max_examples=60, deadline=None)
@given(terms=st.dictionaries(
           st.sampled_from(sorted(e for e in itertools.product(range(5),
                                                               repeat=4)
                                  if sum(e) == 4)),
           st.integers(-10 ** 30, 10 ** 30).filter(bool), min_size=1),
       eol=st.sampled_from(["\n", "\r\n", "\r"]))
def test_parse_reads_dumps_under_any_line_ending(terms, eol):
    f = QuarticForm(terms, name="random")
    assert QuarticForm.parse(f.dumps().replace("\n", eol), "random") == f


def test_parse_errors():
    with pytest.raises(ValueError, match=exactly(
            "line 1: expected 'e0 e1 e2 e3 coeff', got '4 0 0 0'")):
        QuarticForm.parse("4 0 0 0")
    with pytest.raises(ValueError, match=exactly(
            "line 2: expected 'e0 e1 e2 e3 coeff', got '0 4 0 0  # c'")):
        QuarticForm.parse("4 0 0 0 1\r\n0 4 0 0  # c\r\n")
    with pytest.raises(ValueError, match=exactly(
            "line 1: non-integer entry in '4 0 0 0 x'")):
        QuarticForm.parse("4 0 0 0 x")
    with pytest.raises(ValueError, match=exactly(
            "line 1: non-integer entry in '4.0 0 0 0 1'")):
        QuarticForm.parse("4.0 0 0 0 1")
    with pytest.raises(ValueError, match=exactly(
            "exponent (3, 0, 0, 0) is not homogeneous of degree 4")):
        QuarticForm.parse("3 0 0 0 1")
    with pytest.raises(ValueError,
                       match=exactly("bad exponent vector (5, -1, 0, 0)")):
        QuarticForm.parse("5 -1 0 0 1")
    with pytest.raises(ValueError,
                       match=exactly("quartic form is identically zero")):
        QuarticForm.parse("4 0 0 0 1\n4 0 0 0 -1\n")


def test_diagonal_helpers():
    assert is_diagonal(FERMAT)
    assert is_diagonal(named_quartic("diag-1248"))
    assert not is_diagonal(CROSS)


def test_partial_derivative():
    assert FERMAT.partial(0) == {(3, 0, 0, 0): 4}
    assert CROSS.partial(0) == {(3, 0, 0, 0): 4, (2, 1, 0, 0): 3}
    assert CROSS.partial(1) == {(0, 3, 0, 0): 4, (3, 0, 0, 0): 1}


def test_named_quartic_unknown():
    with pytest.raises(ValueError, match="diag-1248"):
        named_quartic("nope")


# ---------------------------------------------------------------------------
# beta extraction
# ---------------------------------------------------------------------------


def _beta_by_full_expansion(f: QuarticForm, m: int) -> int:
    """Independent oracle: expand f^(m-1) with plain dict convolution, no
    pruning, and read off the diagonal coefficient."""
    power = {(0, 0, 0, 0): 1}
    for _ in range(m - 1):
        nxt = {}
        for e, c in power.items():
            for me, mc in f.terms.items():
                ne = tuple(a + b for a, b in zip(e, me))
                nxt[ne] = nxt.get(ne, 0) + c * mc
        power = nxt
    k = m - 1
    return power.get((k, k, k, k), 0)


def test_beta_frozen_values_fermat():
    assert beta_coefficient(FERMAT, 1) == 1
    assert beta_coefficient(FERMAT, 3) == 0
    assert beta_coefficient(FERMAT, 5) == 24
    assert beta_coefficient(FERMAT, 9) == 2520
    assert beta_coefficient(FERMAT, 13) == 369600
    assert beta_coefficient(FERMAT, 13) % 13 == 10


def test_beta_frozen_values_cross():
    assert beta_coefficient(CROSS, 5) == 24
    assert beta_coefficient(CROSS, 13) == 646800


def test_beta_closed_form_matches_corridor():
    corridor = power_diagonal(FERMAT, 16)
    for m in range(1, 18):
        assert beta_coefficient(FERMAT, m) == corridor[m - 1]
    diag = named_quartic("diag-1248")
    corridor = power_diagonal(diag, 12)
    for m in (1, 5, 9, 13):
        assert beta_coefficient(diag, m) == corridor[m - 1]


def test_beta_matches_full_expansion_oracle():
    for f in (FERMAT, CROSS, named_quartic("diag-1248")):
        for m in range(1, 8):
            assert beta_coefficient(f, m) == _beta_by_full_expansion(f, m)


def test_beta_guards():
    with pytest.raises(ValueError):
        beta_coefficient(FERMAT, 0)
    with pytest.raises(ValueError):
        beta_coefficient(CROSS, 0)


def test_power_diagonal_prefix_stability():
    # the corridor prune must not corrupt intermediate diagonal reads:
    # the list for n_max must extend the list for every smaller n_max
    for f in (FERMAT, CROSS):
        full = power_diagonal(f, 12)
        for n in (1, 4, 7, 10):
            assert power_diagonal(f, n) == full[: n + 1]


def test_diagonal_vanishing_pattern():
    # diagonal quartics only carry betas in degrees 1 mod 4
    blog = stienstra_log(named_quartic("diag-1248"), 17)
    for m in range(1, 18):
        if m % 4 != 1:
            assert blog.beta(m) == 0
        else:
            assert blog.beta(m) != 0


def test_fermat_log_closed_form_equals_general():
    # stienstra_log takes every Fermat beta from the extractor, one lattice
    # point per degree; the corridor pass over f^(m-1) is the oracle
    a = stienstra_log(FERMAT, 17)
    corridor = power_diagonal(FERMAT, 16)
    assert a.betas == {m: corridor[m - 1] for m in range(1, 18)
                       if corridor[m - 1]}


# exponent vectors of rank 2, so the extractor has no basis and its route
# is always the corridor
RANK_TWO = QuarticForm({(1, 1, 1, 1): 1, (2, 2, 0, 0): 1, (0, 0, 2, 2): 3})


@pytest.mark.parametrize("f, route, passes", [(CROSS, "enumerate", 0),
                                              (RANK_TWO, "corridor", 1)],
                         ids=["fermat-cross", "rank-two"])
def test_nondiagonal_log_follows_the_extractor_route(monkeypatch, f, route,
                                                     passes):
    # stienstra_log takes single betas, or one corridor pass for every
    # degree, as the extractor's counted cost at the cap says; either way
    # the betas are the corridor's
    calls = []

    def counting(f, n_max):
        calls.append(n_max)
        return power_diagonal(f, n_max)

    assert BetaExtractor(f).route(17) == route
    monkeypatch.setattr(k3brauer, "power_diagonal", counting)
    a = stienstra_log(f, 17)
    assert calls == [16] * passes
    corridor = power_diagonal(f, 16)
    assert a.betas == {m: corridor[m - 1] for m in range(1, 18)
                       if corridor[m - 1]}
    assert len(a.betas) > 1


def test_brauer_log_cap_guard():
    blog = stienstra_log(FERMAT, 9)
    assert blog.beta(9) == 2520
    with pytest.raises(CapTooSmall):
        blog.beta(13)


# ---------------------------------------------------------------------------
# heights
# ---------------------------------------------------------------------------


def test_fermat_dichotomy_small_primes():
    # height 1 exactly at p = 1 mod 4; nothing shows through p^2 otherwise
    for p in (5, 13):
        res = brauer_height(FERMAT, p, 2)
        assert res.is_finite and res.value == 1
        assert res.first_nonzero_degree == p
    for p in (3, 7):
        res = brauer_height(FERMAT, p, 2)
        assert res.kind == "at_least" and res.value == 2


def test_brauer_height_rejects_all_divisible():
    f = QuarticForm({(4, 0, 0, 0): 3, (0, 4, 0, 0): 6, (0, 0, 4, 0): 3,
                     (0, 0, 0, 4): 3})
    with pytest.raises(ValueError, match="divides every coefficient"):
        brauer_height(f, 3, 1)
    # fine at a prime that misses some coefficient
    assert brauer_height(f, 7, 1) is not None


def test_ordinarity_criterion_matches_height():
    for p in (3, 5, 7, 11, 13):
        res = brauer_height(FERMAT, p, 1)
        assert (int(brauer_generators(FERMAT, p, 1)[1][0]) % p != 0) == (
            res.is_finite and res.value == 1)


def test_ordinarity_matches_height_random_diagonals():
    rng = random.Random(20260818)
    tested = 0
    while tested < 3:
        coeffs = [rng.randint(1, 9) for _ in range(4)]
        f = QuarticForm({(4, 0, 0, 0): coeffs[0], (0, 4, 0, 0): coeffs[1],
                         (0, 0, 4, 0): coeffs[2], (0, 0, 0, 4): coeffs[3]},
                        name="rand-diag")
        for p in (3, 5):
            if any(c % p == 0 for c in coeffs):
                continue        # smooth diagonal needs p coprime coefficients
            assert smooth_check_fp(f, p)
            res = brauer_height(f, p, 1)
            assert (int(brauer_generators(f, p, 1)[1][0]) % p != 0) == (
                res.is_finite and res.value == 1)
            tested += 1


# ---------------------------------------------------------------------------
# smoothness of the reduction mod p
# ---------------------------------------------------------------------------

# two oracles at p = 3: a brute-force search for a singular point over F_3
# or over F_9 = F_3[i]/(i^2 + 1), elements a + b i stored as pairs (a, b),
# which finds only the rational ones; and a Groebner basis of the partials,
# which decides whether they meet anywhere over the algebraic closure
F3 = [(a, 0) for a in range(3)]
F9 = [(a, b) for a in range(3) for b in range(3)]


def _mul9(x, y):
    return ((x[0] * y[0] - x[1] * y[1]) % 3, (x[0] * y[1] + x[1] * y[0]) % 3)


POWERS9 = {}
for _x in F9:
    POWERS9[_x] = [(1, 0)]
    for _ in range(4):
        POWERS9[_x].append(_mul9(POWERS9[_x][-1], _x))


def _vanishes(terms, point):
    total = (0, 0)
    for e, c in terms.items():
        v = (c % 3, 0)
        for x, k in zip(point, e):
            if k:
                v = _mul9(v, POWERS9[x][k])
        total = ((total[0] + v[0]) % 3, (total[1] + v[1]) % 3)
    return total == (0, 0)


def projective_points(field):
    """One point per line of field^4: its first nonzero coordinate is 1."""
    for lead in range(4):
        for tail in itertools.product(field, repeat=3 - lead):
            yield ((0, 0),) * lead + ((1, 0),) + tail


def singular_point_mod3(f, field):
    """Does some point of P^3(field) kill f and its four partials mod 3?"""
    forms = [f.terms] + [f.partial(i) for i in range(4)]
    return any(all(_vanishes(g, pt) for g in forms)
               for pt in projective_points(field))


def _grevlex(e):
    return (sum(e), tuple(-k for k in reversed(e)))


def _monic3(g):
    lead = max(g, key=_grevlex)
    inv = pow(g[lead], -1, 3)
    return {e: c * inv % 3 for e, c in g.items()}, lead


def _remainder3(g, basis):
    """The remainder mod 3 of g on division by the monic basis (grevlex)."""
    g, rest = dict(g), {}
    while g:
        lead = max(g, key=_grevlex)
        c = g.pop(lead)
        for h, hl in basis:
            if all(a >= b for a, b in zip(lead, hl)):
                shift = [a - b for a, b in zip(lead, hl)]
                for e, d in h.items():
                    if e != hl:
                        m = tuple(a + b for a, b in zip(e, shift))
                        v = (g.get(m, 0) - c * d) % 3
                        if v:
                            g[m] = v
                        else:
                            g.pop(m, None)
                break
        else:
            rest[lead] = c
    return rest


def singular_mod3(f):
    """Do the four partials of f have a common zero in P^3 over the
    algebraic closure of F_3?  Buchberger's algorithm; they have none
    exactly when, for every variable, some leading monomial of the basis
    is a power of that variable alone (Cox, Little, O'Shea ch. 5 and 8)."""
    basis, pairs = [], []

    def add(g):
        basis.append(_monic3(g))
        pairs.extend((i, len(basis) - 1) for i in range(len(basis) - 1))

    for i in range(4):
        r = _remainder3({e: c % 3 for e, c in f.partial(i).items() if c % 3},
                        basis)
        if r:
            add(r)
    while pairs:
        pairs.sort(key=lambda ij: -sum(map(max, basis[ij[0]][1],
                                           basis[ij[1]][1])))
        i, j = pairs.pop()
        (g, gl), (h, hl) = basis[i], basis[j]
        if all(a == 0 or b == 0 for a, b in zip(gl, hl)):
            continue                    # coprime leading monomials
        lcm = list(map(max, gl, hl))
        s = {}
        for poly, lead, sign in ((g, gl, 1), (h, hl, -1)):
            shift = [a - b for a, b in zip(lcm, lead)]
            for e, c in poly.items():
                m = tuple(a + b for a, b in zip(e, shift))
                s[m] = (s.get(m, 0) + sign * c) % 3
        r = _remainder3({e: c for e, c in s.items() if c}, basis)
        if r:
            add(r)
    pure = {next(i for i, k in enumerate(lead) if k)
            for _, lead in basis if sum(1 for k in lead if k) == 1}
    return pure != {0, 1, 2, 3}


# (T0^2 + T1^2)^2 + T2^4 + T3^4, singular at (1 : +-i : 0 : 0)
G = QuarticForm({(4, 0, 0, 0): 1, (2, 2, 0, 0): 2, (0, 4, 0, 0): 1,
                 (0, 0, 4, 0): 1, (0, 0, 0, 4): 1}, name="g")

NONDIAGONAL = [e for e in itertools.product(range(4), repeat=4) if sum(e) == 4]


def test_smoothness_matches_groebner_basis_mod_3():
    """On deformations of Fermat by two or three monomials, smooth_check_fp
    at p = 3 is False exactly when the partials meet over the algebraic
    closure of F_3.  A singular point in P^3(F_9) forces False; both
    outcomes occur, a search over F_3 alone misses a singular one, and
    the last example's singular points lie over F_81 but not over F_9."""
    seen, missed, beyond_f9 = set(), [], []

    @settings(max_examples=40, deadline=None)
    @given(st.dictionaries(st.sampled_from(NONDIAGONAL), st.integers(1, 2),
                           min_size=2, max_size=3))
    @example({(3, 1, 0, 0): 1, (0, 0, 3, 1): 1})
    @example({(2, 2, 0, 0): 2, (0, 0, 2, 2): 2})
    @example({(0, 1, 1, 2): 1, (1, 1, 2, 0): 1, (0, 2, 2, 0): 1})
    def check(extra):
        f = QuarticForm({**FERMAT.terms, **extra}, name="deformed")
        singular = singular_mod3(f)
        assert smooth_check_fp(f, 3) == (not singular)
        seen.add(singular)
        if singular_point_mod3(f, F9):
            assert singular
            if not singular_point_mod3(f, F3):
                missed.append(extra)
        elif singular:
            beyond_f9.append(extra)

    check()
    assert seen == {True, False}
    assert missed and beyond_f9
    assert sum(1 for _ in projective_points(F9)) == 820


def test_builtin_quartics_smooth_at_small_primes():
    for name in BUILTIN_QUARTICS:
        f = named_quartic(name)
        for p in (3, 5, 7, 11, 13):
            assert smooth_check_fp(f, p), f"{name} singular mod {p}"


def test_builtin_quartics_smooth_at_17_and_101():
    # the test has no budget: its cost does not grow with p
    for f in BUILTIN_QUARTICS.values():
        assert smooth_check_fp(f, 17) and smooth_check_fp(f, 101)


def test_singular_over_an_extension_field():
    # G's singular points (1 : +-i : 0 : 0) are F_p-rational only at
    # p = 1 mod 4, yet G is singular at each of these primes
    for p in (3, 5, 7, 11, 13):
        assert not smooth_check_fp(G, p)


def test_fermat_cross_bad_prime_is_229():
    bad = [p for p in range(3, 400, 2) if is_prime(p)
           and not smooth_check_fp(CROSS, p)]
    assert bad == [229]


def test_dwork_pencil_singular_mod_3_and_5():
    # Fermat plus c * T0 T1 T2 T3 is singular mod 3 and mod 5 whenever
    # 15 does not divide c, because c^4 = 1 = 256 there; this is why the
    # built-in non-diagonal quartic uses the T0^3 T1 cross term instead
    dwork = QuarticForm({(4, 0, 0, 0): 1, (0, 4, 0, 0): 1, (0, 0, 4, 0): 1,
                         (0, 0, 0, 4): 1, (1, 1, 1, 1): 1}, name="dwork")
    assert not smooth_check_fp(dwork, 3)
    assert not smooth_check_fp(dwork, 5)
    assert smooth_check_fp(dwork, 7)


def test_smoothness_when_p_divides_every_coefficient():
    # every partial is 0 mod 3: the reduction is not a surface
    three_fermat = QuarticForm({e: 3 * c for e, c in FERMAT.terms.items()})
    assert not smooth_check_fp(three_fermat, 3)
    assert smooth_check_fp(three_fermat, 5)
