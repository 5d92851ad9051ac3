"""Single betas by multiplicity enumeration, against the corridor pass.

BetaExtractor reads beta_m from the monomial multiplicities that reach
(T0 T1 T2 T3)^(m-1), solving for four of them by one 4x4 integer system.
power_diagonal, which expands every f^j, is the oracle: the two must agree
coefficient by coefficient.
"""

from itertools import permutations, product
from math import comb, prod

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from formalbrauer.acceptance import point_count
from formalbrauer.coefficients import multinomial
from formalbrauer.k3brauer import (
    BUILTIN_QUARTICS,
    BetaExtractor,
    QuarticForm,
    _adjugate4,
    beta_coefficient,
    beta_coefficients,
    brauer_height,
    named_quartic,
    ordinarity_criterion,
    power_diagonal,
)

CROSS = named_quartic("fermat-cross")
MONOMIALS = [e for e in product(range(5), repeat=4) if sum(e) == 4]
DIAGONAL = [e for e in MONOMIALS if max(e) == 4]
COEFFS = st.integers(-6, 6).filter(bool)


def _agrees_with_corridor(f, m_max):
    """beta_coefficients and, where the exponent vectors have rank 4, the
    enumeration itself equal power_diagonal for every m <= m_max."""
    corridor = power_diagonal(f, m_max - 1)
    assert list(beta_coefficients(f, range(1, m_max + 1))) == corridor
    ex = BetaExtractor(f)
    if ex.basis is not None:
        assert [ex._enumerate(n) for n in range(m_max)] == corridor


def _sign(perm):
    return (-1) ** sum(perm[i] > perm[j] for i in range(4)
                       for j in range(i + 1, 4))


@given(st.lists(st.integers(-6, 6), min_size=16, max_size=16))
def test_adjugate_times_matrix_is_det_times_identity(entries):
    B = [tuple(entries[4 * i:4 * i + 4]) for i in range(4)]
    adj, det = _adjugate4(B)
    assert det == sum(_sign(s) * prod(B[i][s[i]] for i in range(4))
                      for s in permutations(range(4)))
    for i in range(4):
        for j in range(4):
            assert sum(adj[i][k] * B[k][j] for k in range(4)) == \
                (det if i == j else 0)


# rank 3, with betas: (2,2,0,0) + (0,0,2,2) = (2,0,2,0) + (0,2,0,2)
RANK_THREE = {(2, 2, 0, 0): 1, (0, 0, 2, 2): -2, (2, 0, 2, 0): 3,
              (0, 2, 0, 2): 1}
# rank 4, but only T0^3 T3 carries T3: the target is out of reach past m = 1
OUT_OF_REACH = {(4, 0, 0, 0): 1, (0, 4, 0, 0): 2, (0, 0, 4, 0): -1,
                (3, 0, 0, 1): 5}


@st.composite
def random_quartics(draw):
    """4 to 7 monomials with small nonzero coefficients of either sign,
    with or without the four pure fourth powers."""
    terms = {e: draw(COEFFS) for e in DIAGONAL} if draw(st.booleans()) else {}
    extra = draw(st.lists(st.sampled_from(MONOMIALS),
                          min_size=max(0, 4 - len(terms)),
                          max_size=7 - len(terms), unique=True))
    for e in extra:
        terms[e] = draw(COEFFS)
    return QuarticForm(terms, name="random")


@settings(max_examples=40, deadline=None)
@given(random_quartics(), st.integers(1, 30))
@example(QuarticForm(RANK_THREE), 30)
@example(QuarticForm(OUT_OF_REACH), 30)
@example(QuarticForm({(4, 0, 0, 0): 1, (0, 4, 0, 0): 1, (2, 2, 0, 0): -3,
                      (1, 3, 0, 0): 2}), 12)
def test_extractor_matches_corridor_on_random_quartics(f, m_max):
    _agrees_with_corridor(f, m_max)


@settings(max_examples=60, deadline=None)
@given(random_quartics(), st.sampled_from([3, 5, 7]))
def test_point_count_is_one_plus_beta_p_mod_p(f, p):
    """#X(F_p) = 1 + beta_p (mod p) for X = {f = 0} in P^3: summed over
    F_p^4, f^(p-1) keeps only beta_p (Chevalley-Warning). An oracle for the
    corridor and, where the exponent vectors have rank 4, the enumeration
    that rests on the surface's points rather than on f^(p-1)."""
    assume(any(c % p for c in f.terms.values()))
    count = point_count(f, p)
    betas = [power_diagonal(f, p - 1)[p - 1]]
    ex = BetaExtractor(f)
    if ex.basis is not None:
        betas.append(ex._enumerate(p - 1))
    for beta in betas:
        assert (count - 1 - beta) % p == 0


def test_rank_deficient_and_unreachable_cases():
    assert BetaExtractor(QuarticForm(RANK_THREE)).basis is None
    assert power_diagonal(QuarticForm(RANK_THREE), 2)[2] != 0
    out = QuarticForm(OUT_OF_REACH)
    assert BetaExtractor(out).basis is not None
    assert list(beta_coefficients(out, range(1, 14))) == [1] + [0] * 12


@pytest.mark.parametrize("name", sorted(BUILTIN_QUARTICS))
def test_extractor_matches_corridor_on_builtins_through_61(name):
    _agrees_with_corridor(named_quartic(name), 61)


def _cross_beta(m):
    """beta_m of fermat-cross by hand: with N = m - 1 = 4n, T0^3 T1 taken
    4t times forces T0^4 n - 3t times, T1^4 n - t times and T2^4, T3^4 n
    times each."""
    if (m - 1) % 4:
        return 0
    n = (m - 1) // 4
    return sum(multinomial(4 * n, (4 * t, n - 3 * t, n - t, n, n))
               for t in range(n // 3 + 1))


def test_fermat_cross_matches_its_hand_formula_far_past_the_corridor():
    assert [beta_coefficient(CROSS, m) for m in range(1, 30)] == \
        [_cross_beta(m) for m in range(1, 30)]
    for m in (121, 169, 2209):
        assert beta_coefficient(CROSS, m) == _cross_beta(m)


def test_diagonal_quartics_are_one_lattice_point():
    ex = BetaExtractor(named_quartic("diag-1248"))
    assert ex.free == [] and ex.costs(101)[0] == 1
    for n in (0, 4, 100):
        assert beta_coefficient(named_quartic("diag-1248"), n + 1) == \
            multinomial(n, (n // 4,) * 4) * 64 ** (n // 4)
    assert beta_coefficient(named_quartic("fermat"), 102) == 0


def test_route_is_counted_from_the_quartic_and_the_degree():
    dense = QuarticForm({e: 1 for e in MONOMIALS}, name="dense")
    assert len(dense.terms) == comb(7, 3) == 35
    for m in (13, 121):
        assert BetaExtractor(dense).route(m) == "corridor"
        assert BetaExtractor(CROSS).route(m) == "enumerate"
    points, corridor = BetaExtractor(CROSS).costs(121)
    assert points == 121 // 4 + 1 and corridor == 5 * 121 ** 4
    assert BetaExtractor(QuarticForm(RANK_THREE)).costs(9) == \
        (None, 4 * 9 ** 4)
    # the dense quartic's corridor fallback still gives the enumeration's
    # value, which is affordable at this degree
    assert BetaExtractor(dense)._enumerate(4) == power_diagonal(dense, 4)[4]


def test_beta_coefficients_is_lazy():
    # nothing past the last beta asked for is computed: beta_0 would raise
    betas = beta_coefficients(CROSS, [5, 0])
    assert next(betas) == 24
    with pytest.raises(ValueError):
        next(betas)


# ---------------------------------------------------------------------------
# cells the corridor could not afford
# ---------------------------------------------------------------------------


# beta_121 of fermat-cross, computed once by power_diagonal (about 15 s)
CROSS_BETA_121 = int(
    "46051764828594506325059581604351625261944485187072391340373884967016"
    "14678198016")


def test_fermat_cross_at_11_is_height_two():
    assert beta_coefficient(CROSS, 121) == CROSS_BETA_121
    res = brauer_height(CROSS, 11, 2)
    assert (res.kind, res.value, res.first_nonzero_degree) == \
        ("finite", 2, 121)


def test_fermat_cross_at_47_is_height_two():
    # v_47(beta_47) >= 1 and v_47(beta_2209) = 1
    res = brauer_height(CROSS, 47, 2)
    assert (res.kind, res.value, res.first_nonzero_degree) == \
        ("finite", 2, 2209)


PRIMES_TO_53 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]


@pytest.mark.parametrize("p", PRIMES_TO_53)
def test_fermat_cross_ordinarity_matches_height_one(p):
    res = brauer_height(CROSS, p, 1)
    assert ordinarity_criterion(CROSS, p) == (res.kind == "finite")
    assert res.kind == "at_least" or res.first_nonzero_degree == p
