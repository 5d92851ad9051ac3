"""Quartic surfaces: logarithm extraction, heights, ordinarity, smoothness."""

import random

import pytest

from formalbrauer.errors import CapTooSmall
from formalbrauer.k3brauer import (
    BUILTIN_QUARTICS,
    QuarticForm,
    beta_coefficient,
    brauer_height,
    named_quartic,
    ordinarity_criterion,
    power_diagonal,
    smooth_check_fp,
    stienstra_log,
)

FERMAT = named_quartic("fermat")
CROSS = named_quartic("fermat-cross")


# ---------------------------------------------------------------------------
# the quartic container
# ---------------------------------------------------------------------------


def test_quartic_validation():
    with pytest.raises(ValueError):
        QuarticForm({(3, 0, 0, 0): 1})          # degree 3
    with pytest.raises(ValueError):
        QuarticForm({(5, -1, 0, 0): 1})         # negative exponent
    with pytest.raises(ValueError):
        QuarticForm({(1, 1, 1): 1})             # wrong arity
    with pytest.raises(ValueError):
        QuarticForm({(4, 0, 0, 0): 0})          # identically zero
    f = QuarticForm({(4, 0, 0, 0): 1, (0, 4, 0, 0): 2})
    assert f.coefficient((0, 4, 0, 0)) == 2
    assert f.coefficient((0, 0, 4, 0)) == 0


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


def test_parse_errors():
    with pytest.raises(ValueError, match="line 1"):
        QuarticForm.parse("4 0 0 0")            # four columns
    with pytest.raises(ValueError, match="non-integer"):
        QuarticForm.parse("4 0 0 0 x")
    with pytest.raises(ValueError):
        QuarticForm.parse("3 0 0 0 1")          # inhomogeneous


def test_diagonal_helpers():
    assert FERMAT.is_diagonal()
    assert named_quartic("diag-1248").is_diagonal()
    assert not CROSS.is_diagonal()


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
        assert ordinarity_criterion(FERMAT, p) == (
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
            assert ordinarity_criterion(f, p) == (
                res.is_finite and res.value == 1)
            tested += 1


# ---------------------------------------------------------------------------
# smoothness spot-checks
# ---------------------------------------------------------------------------


def test_builtin_quartics_smooth_at_small_primes():
    for name in BUILTIN_QUARTICS:
        f = named_quartic(name)
        for p in (3, 5, 7, 11, 13):
            if any(c % p == 0 for c in f.terms.values()):
                continue
            assert smooth_check_fp(f, p), f"{name} singular mod {p}"


def test_dwork_pencil_singular_mod_3_and_5():
    # Fermat plus c * T0 T1 T2 T3 is singular mod 3 and mod 5 whenever
    # 15 does not divide c, because c^4 = 1 = 256 there; this is why the
    # built-in non-diagonal quartic uses the T0^3 T1 cross term instead
    dwork = QuarticForm({(4, 0, 0, 0): 1, (0, 4, 0, 0): 1, (0, 0, 4, 0): 1,
                         (0, 0, 0, 4): 1, (1, 1, 1, 1): 1}, name="dwork")
    assert not smooth_check_fp(dwork, 3)
    assert not smooth_check_fp(dwork, 5)
    assert smooth_check_fp(dwork, 7)


def test_smoothness_budget_guard():
    with pytest.raises(ValueError, match="budget"):
        smooth_check_fp(FERMAT, 17)
    assert smooth_check_fp(FERMAT, 17, budget=17)
