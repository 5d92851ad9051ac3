"""The torsion search of check_regular_sequence: one multi-target membership
call per power of p, stopping at the first that holds a witness, against
the per-candidate search, kept here as the oracle, which asks
ideal_contains about each candidate y and each product x*y in turn."""

from itertools import product as _iproduct

import pytest
from hypothesis import given, settings, strategies as st

from formalbrauer import fgl, landweber
from formalbrauer.coefficients import Prime, TruncPolyRing
from formalbrauer.fgl import ideal_contains
from formalbrauer.landweber import (
    RingPresentation,
    builtin_scenario,
    check_regular_sequence,
)


def per_candidate_torsion_witness(R: RingPresentation, gens, x):
    """The oracle: the first candidate y = p^a * m, in the order of a and
    then of the monomial m (total degree up to half the cap), with y
    outside (gens) and x*y inside, the product having stayed inside the
    window; two one-target ideal_contains calls per candidate."""
    ring = R.base_ring
    half = R.cap // 2
    exps = [e for e in _iproduct(range(half + 1), repeat=len(ring.variables))
            if sum(e) <= half]
    x = ring.coerce(x)
    if x.truncated:
        return None
    for a in range(7):
        for e in exps:
            y = ring.monomial(e, R.p ** a)
            if ideal_contains(gens, y, R.prime, ring):
                continue
            prod = x * y
            if prod.truncated:
                continue
            if ideal_contains(gens, prod, R.prime, ring):
                return y
    return None


def _summary(verdicts):
    return [(v.status, v.witness, v.reason) for v in verdicts]


def both_routes(R, elems):
    """check_regular_sequence's verdicts with the torsion search as it is,
    and with the per-candidate oracle in its place."""
    got = check_regular_sequence(R, elems)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(landweber, "_torsion_witness",
                   per_candidate_torsion_witness)
        want = check_regular_sequence(R, elems)
    return _summary(got), _summary(want)


# ---------------------------------------------------------------------------
# random presentations
# ---------------------------------------------------------------------------


@st.composite
def elements(draw, ring):
    """A sum of up to three terms c * m with c in {1, 2, 3, 6, 9} and m of
    degree at most 3: small, 3-integral, often torsion-prone."""
    monos = [e for e in _iproduct(range(4), repeat=len(ring.variables))
             if sum(e) <= min(3, ring.cap)]
    terms = draw(st.dictionaries(st.sampled_from(monos),
                                 st.sampled_from((1, 2, 3, 6, 9)),
                                 max_size=3))
    x = ring.zero
    for e, c in terms.items():
        x = x + ring.monomial(e, c)
    return x


@st.composite
def presentations(draw):
    """(R, elems) over Z_(3)[t] or Z_(3)[t1,t2] at cap 2..6, with up to two
    relations and up to three elements."""
    params = draw(st.sampled_from((("t",), ("t1", "t2"))))
    cap = draw(st.integers(2, 6))
    ring = TruncPolyRing(params, cap)
    relations = draw(st.lists(elements(ring), max_size=2))
    elems = draw(st.lists(elements(ring), min_size=1, max_size=3))
    return RingPresentation(Prime(3), params, cap, tuple(relations)), elems


@settings(max_examples=80, deadline=None)
@given(presentations())
def test_torsion_search_matches_per_candidate_oracle(case):
    R, elems = case
    got, want = both_routes(R, elems)
    assert got == want
    gens = [R.coerce(r) for r in R.relations]
    for x in elems:
        assert landweber._torsion_witness(R, gens, x) == \
            per_candidate_torsion_witness(R, gens, x)
        gens.append(R.coerce(x))


# ---------------------------------------------------------------------------
# pinned cases
# ---------------------------------------------------------------------------

THREE = Prime(3)
ZT = TruncPolyRing(("t",), 8)
T = ZT.var("t")


@pytest.mark.parametrize("relations,elems,want", [
    # 3 * t = 3t = 0 while 3 != 0
    ((T * 3,), [T], [("zerodivisor", "3")]),
    # 3 * 3t^2 = 9t^2 = 0, the first witness after 3 and 3t; then
    # (9t^2, 3) = (3), and t is a nonzerodivisor mod 3
    ((T * T * 9,), [3, T], [("zerodivisor", "3*t^2"), ("unknown", None)]),
    # 3 is a nonzerodivisor on Z_(3)[t]/(t^3); t^2 * t = 0 mod (t^3, 3)
    ((T ** 3,), [3, T * T], [("unknown", None), ("zerodivisor", "1*t")]),
    # no relations: 9 is a scalar; t^3 has no linear part and no witness
    ((), [9, T ** 3], [("regular", None), ("unknown", None)]),
], ids=["3t", "9t^2", "t^3", "free"])
def test_pinned_torsion_searches(relations, elems, want):
    R = RingPresentation(THREE, ("t",), 8, relations)
    got, oracle = both_routes(R, elems)
    assert [(s, w) for s, w, _ in got] == want
    assert got == oracle


@pytest.mark.parametrize("p", [3, 5, 7])
def test_torsion_scenario_stops_at_the_witness_batch(monkeypatch, p):
    """The torsion scenario's p is a zerodivisor on Z_(p)/(p^2) with
    witness p: the search asks the batch of p^0 (the product p goes to the
    elimination; the candidate 1 is settled at the closed point) and the
    batch of p^1, which holds the witness, and stops there; the oracle
    finds the same witness."""
    calls = []
    sparse = fgl._p_integral_solvable

    def counting(row, column, targets, p, residue=False):
        calls.append(len(targets))
        return sparse(row, column, targets, p, residue)

    R, *_ = builtin_scenario("torsion", p)
    gens = [R.coerce(r) for r in R.relations]
    monkeypatch.setattr(fgl, "_p_integral_solvable", counting)
    w = landweber._torsion_witness(R, gens, p)
    assert str(w) == str(p)
    assert calls == [1, 2]
    assert per_candidate_torsion_witness(R, gens, p) == w


def test_torsion_search_runs_one_elimination(monkeypatch):
    """(3, t1*t2) over Z_(3)[t1,t2] at cap 8: 3 is decided without an
    elimination, t1*t2 needs one for its zero test and one per power of 3
    its torsion search reaches: 1, then 3, where every candidate 3*m lies in
    (3) and the search ends; the unit tests are read at the closed
    point."""
    calls = []
    sparse = fgl._p_integral_solvable

    def counting(row, column, targets, p, residue=False):
        calls.append(len(targets))
        return sparse(row, column, targets, p, residue)

    monkeypatch.setattr(fgl, "_p_integral_solvable", counting)
    R = RingPresentation(THREE, ("t1", "t2"), 8, ())
    t1, t2 = R.base_ring.var("t1"), R.base_ring.var("t2")
    verdicts = check_regular_sequence(R, [3, t1 * t2])
    assert [v.status for v in verdicts] == ["regular", "unknown"]
    # one elimination for the zero test of t1*t2, then one for each of the
    # batches of 1 and of 3
    assert len(calls) == 1 + 2


@pytest.mark.parametrize("p, params, cap, h_max", [
    (3, ("t",), 12, 2), (5, ("t",), 12, 2), (7, ("t",), 12, 2),
    (3, ("t1", "t2"), 6, 3), (3, ("t1", "t2", "t3"), 12, 4),
], ids=["t-p3", "t-p5", "t-p7", "t1t2", "t1t2t3"])
def test_hazewinkel_reports_need_no_elimination(monkeypatch, p, params, cap,
                                                h_max):
    """The Hazewinkel law v = (t_1, ..., t_k, 1) is exact: p and each t_i
    are certified by their images in m/m^2, which skips the zero test, and
    the unit v_(k+1) = 1 is read at the closed point, so the report makes
    no _p_integral_solvable call at all (hazewinkel-t1 is k = 1)."""
    calls = []
    sparse = fgl._p_integral_solvable

    def counting(row, column, targets, p, residue=False):
        calls.append(len(targets))
        return sparse(row, column, targets, p, residue)

    monkeypatch.setattr(fgl, "_p_integral_solvable", counting)
    R = RingPresentation(Prime(p), params, cap)
    v = [R.base_ring.var(t) for t in params] + [R.base_ring.one]
    report = landweber.landweber_check(
        R, fgl.hazewinkel_log(v, R.prime, p ** h_max + 1), h_max)
    assert report.verdict == "exact"
    assert [v.status for v in report.verdicts] == (
        ["regular"] * (len(params) + 1) + ["unit"])
    assert calls == []
