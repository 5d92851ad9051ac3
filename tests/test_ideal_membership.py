"""p-local ideal membership: the target-driven sparse elimination in
fgl._p_integral_solvable, one target and several, against a dense
elimination kept here as the oracle; the rows and columns
fgl._shifted_system gives, and the eager columns the oracle is fed, against
TruncPoly products; ideal_contains_all, with its closed-point rule, against
the oracle and against the full elimination; the rows the elimination
builds; and frozen landweber/certify verdicts."""

import itertools
import json
import operator

import pytest
from hypothesis import example, given, settings, strategies as st

from formalbrauer import cli, fgl
from formalbrauer.coefficients import QQ, Prime, TruncPolyRing, rat, val_p
from formalbrauer.fgl import (
    hazewinkel_log,
    ideal_contains,
    ideal_contains_all,
    p_series,
)
from formalbrauer.landweber import RingPresentation, landweber_check


def dense_p_integral_solvable(cols, target, p: int, monomials) -> bool:
    """The dense oracle: pivot on an entry of minimal p-adic valuation in the
    whole unused submatrix, eliminate the pivot column by row operations and
    the pivot row by column operations, then read solvability off the
    diagonal: val(b_k) >= val(pivot_k) on pivot rows, b = 0 elsewhere."""
    rows = list(monomials)
    ridx = {m: i for i, m in enumerate(rows)}
    A = [[rat(0)] * len(cols) for _ in rows]
    for j, col in enumerate(cols):
        for m, c in col.items():
            A[ridx[m]][j] = c
    b = [rat(0)] * len(rows)
    for m, c in target.items():
        b[ridx[m]] = c

    nrows, ncols = len(rows), len(cols)
    pivots = []
    used_rows: set = set()
    used_cols: set = set()
    while True:
        best = None
        for i in range(nrows):
            if i in used_rows:
                continue
            for j in range(ncols):
                if j in used_cols:
                    continue
                a = A[i][j]
                if not a:
                    continue
                v = val_p(a, p)
                if best is None or v < best[0]:
                    best = (v, i, j)
        if best is None:
            break
        _, pi, pj = best
        piv = A[pi][pj]
        for i in range(nrows):
            if i == pi or not A[i][pj]:
                continue
            f = A[i][pj] / piv
            for j in range(ncols):
                if j not in used_cols and A[pi][j]:
                    A[i][j] = A[i][j] - f * A[pi][j]
            b[i] = b[i] - f * b[pi]
        for j in range(ncols):
            if j != pj:
                A[pi][j] = rat(0)
        used_rows.add(pi)
        used_cols.add(pj)
        pivots.append((pi, pj))
    for i in range(nrows):
        if i not in used_rows and b[i]:
            return False
    for pi, pj in pivots:
        if b[pi] and val_p(b[pi], p) < val_p(A[pi][pj], p):
            return False
    return True


def _rows_of(cols, *targets):
    return sorted(set().union(*targets, *cols))


def source_of_columns(cols):
    """The row source (row, column) that fgl._p_integral_solvable takes, for
    a system given by its column dicts."""
    rows = {}
    for j, col in enumerate(cols):
        for i, c in col.items():
            if c:
                rows.setdefault(i, {})[j] = c

    def row(i):
        return rows.get(i, {})

    def column(j):
        return [i for i, c in cols[j].items() if c]

    return row, column


def solvable(cols, targets, p: int) -> list:
    return fgl._p_integral_solvable(*source_of_columns(cols), targets, p)


def ring_monomials(ring):
    return [m for m in itertools.product(range(ring.cap + 1),
                                         repeat=len(ring.variables))
            if sum(m) <= ring.cap]


def shifted_columns(generators, ring):
    """The eager columns of the membership system, for the dense oracle: the
    products m * g for each generator g (nonzero elements of ring) and each
    monomial m of the ring with m * g inside the degree cap, generator after
    generator, in monomial order. Each term of g is shifted by m, and terms
    above the cap are dropped, as TruncPoly multiplication would."""
    cap = ring.cap
    cols = []
    for g in generators:
        for m in ring_monomials(ring):
            col = {tuple(map(operator.add, e, m)): c
                   for e, c in g.terms.items() if sum(e) + sum(m) <= cap}
            if col:
                cols.append(col)
    return cols


# ---------------------------------------------------------------------------
# random systems against the oracle
# ---------------------------------------------------------------------------


def _unit(draw, p, hi):
    """A nonzero integer prime to p, of either sign."""
    u = draw(st.integers(1, hi).filter(lambda n: n % p))
    return u if draw(st.booleans()) else -u


def _entry(draw, p):
    """u/w * p^k with k in -2..3."""
    k = draw(st.integers(-2, 3))
    return rat(_unit(draw, p, 40) * p ** max(k, 0),
               _unit(draw, p, 9) * p ** max(-k, 0))


def _columns(draw, p, nrows):
    cols = []
    for _ in range(draw(st.integers(0, 7))):
        rows = draw(st.sets(st.integers(0, nrows - 1), max_size=nrows))
        cols.append({i: _entry(draw, p) for i in sorted(rows)})
    return cols


def _target(draw, p, cols, rows_up_to, kind):
    """A target of the given kind: zero; arbitrary on rows 0..rows_up_to-1;
    or a combination of the columns with p-integral or with non-p-integral
    coefficients."""
    if kind == "zero" or (not cols and kind != "free"):
        return {}, "zero"
    if kind == "free":
        rows = draw(st.sets(st.integers(0, rows_up_to - 1),
                            max_size=rows_up_to))
        return {i: _entry(draw, p) for i in sorted(rows)}, kind
    ys = []
    for _ in cols:
        k = draw(st.integers(0, 2) if kind == "integral"
                 else st.integers(-2, 2))
        ys.append(rat(_unit(draw, p, 9) * p ** max(k, 0),
                      _unit(draw, p, 9) * p ** max(-k, 0)))
    target = {}
    for y, col in zip(ys, cols):
        for i, c in col.items():
            target[i] = target.get(i, 0) + y * c
    return {i: c for i, c in target.items() if c}, kind


KINDS = ("zero", "free", "integral", "nonintegral")


@st.composite
def systems(draw):
    """(p, cols, target, kind). Entries are u/w * p^k with k in -2..3, so
    p sits in some denominators; columns may be empty; the target is zero,
    arbitrary, or a combination of the columns with p-integral or with
    non-p-integral coefficients."""
    p = draw(st.sampled_from((3, 5, 7)))
    nrows = draw(st.integers(1, 7))
    cols = _columns(draw, p, nrows)
    kind = draw(st.sampled_from(KINDS))
    return (p, cols, *_target(draw, p, cols, nrows, kind))


@st.composite
def multi_target_systems(draw):
    """(p, cols, [(target, kind)]): one system with up to six right-hand
    sides of the kinds systems() draws. A free target may also use row
    nrows, which no column touches."""
    p = draw(st.sampled_from((3, 5, 7)))
    nrows = draw(st.integers(1, 7))
    cols = _columns(draw, p, nrows)
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=6))
    return p, cols, [_target(draw, p, cols, nrows + 1, kind)
                     for kind in kinds]


@settings(max_examples=200, deadline=None)
@given(systems())
def test_sparse_elimination_matches_dense_oracle(system):
    p, cols, target, kind = system
    [got] = solvable(cols, [target], p)
    assert got == dense_p_integral_solvable(cols, target, p,
                                            _rows_of(cols, target))
    if kind in ("zero", "integral"):
        assert got


@settings(max_examples=150, deadline=None)
@given(multi_target_systems())
@example((3, [{0: rat(3)}], [({0: rat(1)}, "free"), ({1: rat(1)}, "free"),
                            ({0: rat(6)}, "integral")]))
@example((3, [{0: rat(1), 1: rat(1)}, {0: rat(1), 1: rat(4)}],
          [({1: rat(1)}, "free"), ({}, "zero"), ({1: rat(3)}, "free"),
           ({2: rat(3)}, "free")]))
def test_multi_target_elimination_matches_dense_oracle(system):
    """Each answer of one multi-target elimination is the oracle's answer
    for that target alone, whatever the other targets do: fail at a pivot
    (1 against the column (3)), sit on a row no column touches, or be
    zero."""
    p, cols, cases = system
    targets = [t for t, _ in cases]
    got = solvable(cols, targets, p)
    rows = _rows_of(cols, *targets)
    assert got == [dense_p_integral_solvable(cols, t, p, rows)
                   for t in targets]
    assert all(ok for ok, (_, kind) in zip(got, cases)
               if kind in ("zero", "integral"))


def test_empty_columns_and_zero_target():
    assert solvable([], [{}], 3) == [True]
    assert solvable([{}, {}], [{}], 5) == [True]
    assert solvable([{}, {0: rat(3)}], [{1: rat(1)}], 3) == [False]
    assert solvable([{0: rat(3)}], [{0: rat(1)}], 3) == [False]
    assert solvable([{0: rat(1, 3)}], [{0: rat(1)}], 3) == [True]
    assert solvable([{0: rat(3)}], [], 3) == []


def valuation_contains(generators, x, p: int) -> bool:
    """The oracle over the p-local integers: a nonzero ideal of Z_(p) is
    (p^v) for the least valuation v among its generators, so x lies in it
    iff x = 0 or val_p(x) >= v."""
    if not x:
        return True
    gens = [g for g in generators if g]
    return bool(gens) and val_p(x, p) >= min(val_p(g, p) for g in gens)


@st.composite
def p_local_rationals(draw, p):
    """u/w * p^k with k in -2..3, and zero now and then."""
    if draw(st.integers(0, 5)) == 0:
        return rat(0)
    k = draw(st.integers(-2, 3))
    return rat(_unit(draw, p, 40) * p ** max(k, 0),
               _unit(draw, p, 9) * p ** max(-k, 0))


@st.composite
def rational_memberships(draw):
    p = draw(st.sampled_from((3, 5, 7)))
    gens = draw(st.lists(p_local_rationals(p), max_size=4))
    return p, gens, draw(p_local_rationals(p))


@settings(max_examples=200, deadline=None)
@given(rational_memberships())
@example((3, [], rat(0)))
@example((3, [rat(0), rat(0)], rat(0)))
@example((3, [], rat(1)))
@example((3, [rat(0)], rat(1, 3)))
@example((3, [rat(9), rat(3, 2)], rat(6)))
@example((3, [rat(9)], rat(5, 3)))
def test_rational_membership_matches_valuation_oracle(case):
    p, gens, x = case
    assert ideal_contains(gens, x, p, QQ) == valuation_contains(gens, x, p)


def test_cancellation_raises_a_cached_valuation():
    """y0 + y1 = 0, y0 + 4 y1 = b: eliminating y0 leaves 3 y1 = b, whose
    entry has valuation 1 although both terms it came from have 0."""
    cols = [{0: rat(1), 1: rat(1)}, {0: rat(1), 1: rat(4)}]
    assert solvable(cols, [{1: rat(1)}, {1: rat(3)}], 3) == [False, True]


def test_pivot_rule_regression_fixture():
    """A p = 3 system on rows 0..6 whose matrix is invertible and whose
    unique solution has 3 in several denominators. Pivoting on the first
    entry found, or on one of maximal valuation, answers True here."""
    r = rat
    cols = [
        {0: r(-54), 2: r(243), 3: r(20), 4: r(1, 3), 5: r(-9)},
        {1: r(84), 2: r(36), 3: r(-22, 7), 5: r(162), 6: r(60)},
        {0: r(-36), 1: r(11, 3), 2: r(225), 3: r(-18), 5: r(-18)},
        {0: r(-33), 2: r(15), 6: r(36)},
        {1: r(4, 9), 2: r(3), 3: r(26), 4: r(-51), 5: r(12)},
        {0: r(-29, 3), 3: r(-8, 7), 4: r(153), 6: r(30)},
        {2: r(-234), 3: r(-144, 7)},
    ]
    target = {2: r(-243), 3: r(-7), 4: r(-12)}
    assert solvable(cols, [target], 3) == [False]
    assert dense_p_integral_solvable(cols, target, 3, range(7)) is False


# ---------------------------------------------------------------------------
# the systems the Landweber checks pose
# ---------------------------------------------------------------------------


def test_landweber_systems_match_dense_oracle(monkeypatch):
    """Every system the regular-sequence checks of two Hazewinkel reports
    and the ideal chain pose gets the oracle's answer for each of its
    targets, on the eager columns of its generators. The first report
    certifies each element by its image in m/m^2 and poses none; the
    second has dependent linear parts, whose zero test and torsion search
    reach the elimination."""
    systems, calls = [], []
    sparse, source = fgl._p_integral_solvable, fgl._shifted_system

    def recording_source(generators, ring):
        systems.append(shifted_columns(generators, ring))
        return source(generators, ring)

    def recording(row, column, targets, p, residue=False):
        got = sparse(row, column, targets, p, residue)
        calls.append((systems[-1], targets, p, got))
        return got

    monkeypatch.setattr(fgl, "_shifted_system", recording_source)
    monkeypatch.setattr(fgl, "_p_integral_solvable", recording)
    three = Prime(3)
    R = RingPresentation(three, ("t1", "t2"), 6, ())
    v = [R.base_ring.var("t1"), R.base_ring.var("t2"), R.base_ring.one]
    report = landweber_check(R, hazewinkel_log(v, three, 28), 3)
    assert report.verdict == "exact"
    assert not systems
    # x1 = t1 + t2 and x2 = x1 + t1 t3 share their linear part, so x2 goes
    # to the elimination (test_landweber._dependent_linear_parts, here at
    # cap 4, where the dense oracle stays small)
    R = RingPresentation(three, ("t1", "t2", "t3"), 4, ())
    t1, t2, t3 = (R.base_ring.var(t) for t in R.parameters)
    v = [t1 + t2, t1 + t2 + t1 * t3, t3 + t1 * t3, R.base_ring.one]
    report = landweber_check(R, hazewinkel_log(v, three, 82), 4)
    assert report.verdict == "inconclusive"
    ring = TruncPolyRing(("t",), 12)
    ps = p_series(hazewinkel_log([ring.var("t"), ring.one], three, 10),
                  three, 10)
    for n in range(3):
        lhs = [ps.a(i) for i in range(3 ** n)]
        rhs = [ps.a(i) for i in range(0 if n == 0 else 3 ** (n - 1))]
        rhs.append(ps.v(n))
        assert all(ideal_contains(rhs, x, three, ring) for x in lhs)
        assert all(ideal_contains(lhs, x, three, ring) for x in rhs)
    assert len(calls) == len(systems)
    assert {ok for *_, got in calls for ok in got} == {True, False}
    for cols, targets, p, got in calls:
        rows = _rows_of(cols, *targets)
        assert got == [dense_p_integral_solvable(cols, t, p, rows)
                       for t in targets]


# ---------------------------------------------------------------------------
# rows built from generator terms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("params,cap", [(("t",), 7), (("t1", "t2"), 5),
                                       (("t1", "t2", "t3"), 4)])
def test_shifted_columns_equal_products(params, cap):
    """Column (k, m) of _shifted_system lists the monomials of the product
    m * g_k, row i holds that product's coefficient at i for every (k, m),
    and the oracle's eager columns are the nonzero products, generator
    after generator, in monomial order."""
    ring = TruncPolyRing(params, cap)
    ts = [ring.var(t) for t in params]
    g = ring.coerce(3) + ts[0] * rat(2, 5)
    for k, t in enumerate(ts):
        g = g + t * t * ts[-1] * (k + 1) - t ** 3 * rat(1, 9)
    h = ts[-1] * ts[0] * 6 + ts[0] ** 3 * rat(5, 3)
    monomials = ring_monomials(ring)
    products = {(k, m): (ring.monomial(m, 1) * gen).terms
                for k, gen in enumerate((g, h)) for m in monomials}
    row, column = fgl._shifted_system([g, h], ring)
    for j, terms in products.items():
        assert sorted(column(j)) == sorted(terms)
    for i in monomials:
        assert row(i) == {j: terms[i] for j, terms in products.items()
                          if i in terms}
    assert shifted_columns([g, h], ring) == [t for t in products.values()
                                             if t]


# ---------------------------------------------------------------------------
# the closed-point rule against the full elimination
# ---------------------------------------------------------------------------


def eliminated(generators, x, p: int, ring) -> bool:
    """Membership by the elimination alone, without the closed-point
    rule."""
    gens = [g for g in map(ring.coerce, generators) if g.terms]
    x = ring.coerce(x)
    if not x.terms or not gens:
        return not x.terms
    [ok] = fgl._p_integral_solvable(*fgl._shifted_system(gens, ring),
                                    [x.terms], p)
    return ok


@st.composite
def integral_elements(draw, ring, p):
    """A p-integral element of ring with up to four terms; its constant
    term, when there is one, is a unit or a multiple of p."""
    terms = draw(st.dictionaries(st.sampled_from(ring_monomials(ring)),
                                 st.integers(-2, 2), max_size=4))
    x = ring.zero
    for e, k in terms.items():
        c = rat(_unit(draw, p, 20) * p ** max(k, 0), _unit(draw, p, 9))
        x = x + ring.monomial(e, c)
    return x


@st.composite
def integral_memberships(draw):
    """(p, ring, generators, targets): p-integral generators over Z_(3),
    Z_(3)[t] or Z_(3)[t1,t2] at a small cap, made of relations (possibly
    none) and elements; the targets are 1, the generators' first element
    shifted by a unit, and random p-integral elements."""
    p = 3
    params = draw(st.sampled_from(((), ("t",), ("t1", "t2"))))
    ring = TruncPolyRing(params, draw(st.integers(1, 4)))
    relations = draw(st.lists(integral_elements(ring, p), max_size=2))
    elements = draw(st.lists(integral_elements(ring, p), min_size=1,
                             max_size=3))
    others = draw(st.lists(integral_elements(ring, p), max_size=3))
    targets = [ring.one, elements[0] + ring.coerce(_unit(draw, p, 9)),
               *others]
    return p, ring, relations + elements, targets


ZP = TruncPolyRing((), 0)
ZPT = TruncPolyRing(("t",), 3)


@settings(max_examples=100, deadline=None)
@given(integral_memberships())
@example((3, ZP, [rat(1, 3)], [rat(1)]))
@example((3, ZP, [rat(1)], [rat(1, 3)]))
@example((3, ZP, [rat(3)], [rat(1, 3), rat(1), rat(9)]))
@example((3, ZPT, [ZPT.var("t") * rat(1, 3)], [ZPT.var("t"), ZPT.one]))
@example((3, ZPT, [ZPT.one + ZPT.var("t") * rat(1, 3)],
          [ZPT.one, ZPT.var("t"), ZPT.var("t") * rat(1, 9)]))
def test_closed_point_rule_matches_elimination(case):
    p, ring, gens, targets = case
    assert ideal_contains_all(gens, targets, p, ring) == \
        [eliminated(gens, x, p, ring) for x in targets]
    assert [ideal_contains(gens, x, p, ring) for x in targets] == \
        [eliminated(gens, x, p, ring) for x in targets]


@st.composite
def residue_memberships(draw):
    """integral_memberships with p times a unit u among the generators, so
    that p lies in the ideal; u is a p-adic unit plus a multiple of the
    first parameter, when there is one."""
    p, ring, gens, targets = draw(integral_memberships())
    u = ring.coerce(_unit(draw, p, 9))
    if ring.variables:
        u = u + ring.var(ring.variables[0]) * draw(st.integers(-2, 2))
    return p, ring, gens + [u * p], targets


@settings(max_examples=100, deadline=None)
@given(residue_memberships())
def test_residue_reading_matches_dense_oracle(case):
    """With p in the ideal, ideal_contains_all reads the system mod p; it
    gives the answers of the dense oracle and of the elimination over
    Z_(p) for every target."""
    p, ring, gens, targets = case
    got = ideal_contains_all(gens, targets, p, ring)
    cols = shifted_columns(gens, ring)
    assert got == [dense_p_integral_solvable(cols, x.terms, p,
                                             ring_monomials(ring))
                   for x in targets]
    assert got == [eliminated(gens, x, p, ring) for x in targets]


def test_residue_reading_needs_p_in_the_ideal(monkeypatch):
    """The system is read mod p when a generator is p times a unit and
    everything is p-integral; not when the ideal holds only 9, or a target
    has p in a denominator."""
    flags = []
    sparse = fgl._p_integral_solvable

    def recording(row, column, targets, p, residue=False):
        flags.append(residue)
        return sparse(row, column, targets, p, residue)

    monkeypatch.setattr(fgl, "_p_integral_solvable", recording)
    ring = TruncPolyRing(("t",), 4)
    t = ring.var("t")
    assert ideal_contains_all([t * 6 + 3, t * t], [t ** 3 + 3 * t],
                              3, ring) == [True]
    assert ideal_contains_all([ring.coerce(9), t * t], [t ** 3 + 3 * t],
                              3, ring) == [False]
    assert ideal_contains_all([ring.coerce(3), t * t], [t * rat(1, 3)],
                              3, ring) == [False]
    assert flags == [True, False, False]


def test_closed_point_rule_skips_the_elimination(monkeypatch):
    """p-integral unit questions are answered without an elimination; a
    non-integral generator or target still gets one."""
    calls = []
    sparse = fgl._p_integral_solvable

    def counting(row, column, targets, p, residue=False):
        calls.append(len(targets))
        return sparse(row, column, targets, p, residue)

    monkeypatch.setattr(fgl, "_p_integral_solvable", counting)
    ring = TruncPolyRing(("t",), 4)
    t, three = ring.var("t"), ring.coerce(3)
    assert ideal_contains_all([three, t], [ring.one, t + 5], 3, ring) == \
        [False, False]
    assert ideal_contains_all([three, t + 2], [ring.one, t ** 3], 3, ring) \
        == [True, True]
    assert calls == []
    assert ideal_contains_all([three, t], [ring.one, t * t], 3, ring) == \
        [False, True]
    assert calls == [1]
    assert ideal_contains([rat(1, 3)], 1, 3, QQ)
    assert not ideal_contains([1], rat(1, 3), 3, QQ)
    assert calls == [1, 1, 1]


# ---------------------------------------------------------------------------
# ideal_contains_all against the oracle, and the rows it builds
# ---------------------------------------------------------------------------


@st.composite
def local_elements(draw, ring, p):
    """An element of ring with up to four terms u/w * p^k, k in -2..3, so
    that p sits in some denominators."""
    x = ring.zero
    for e in draw(st.sets(st.sampled_from(ring_monomials(ring)), max_size=4)):
        x = x + ring.monomial(e, _entry(draw, p))
    return x


@st.composite
def generator_lists(draw):
    """(p, ring, generators, targets) over Z_(p)[t1,t2] at cap 1..5: one to
    three generators and up to three arbitrary targets, plus one
    combination of the generators' monomial multiples with p-integral
    cofactors, which always lies in the ideal."""
    p = draw(st.sampled_from((3, 5)))
    ring = TruncPolyRing(("t1", "t2"), draw(st.integers(1, 5)))
    gens = draw(st.lists(local_elements(ring, p).filter(lambda g: g.terms),
                         min_size=1, max_size=3))
    targets = draw(st.lists(local_elements(ring, p), max_size=3))
    inside = ring.zero
    for g in gens:
        m = draw(st.sampled_from(ring_monomials(ring)))
        c = rat(_unit(draw, p, 9) * p ** draw(st.integers(0, 2)),
                _unit(draw, p, 9))
        inside = inside + ring.monomial(m, c) * g
    return p, ring, gens, targets + [inside]


@settings(max_examples=100, deadline=None)
@given(generator_lists())
def test_ideal_contains_all_matches_dense_oracle(case):
    """ideal_contains_all, closed-point rule and elimination together, gives
    the dense oracle's answer on the eager columns for every target."""
    p, ring, gens, targets = case
    cols = shifted_columns(gens, ring)
    got = ideal_contains_all(gens, targets, p, ring)
    assert got == [dense_p_integral_solvable(cols, x.terms, p,
                                             ring_monomials(ring))
                   for x in targets]
    assert got[-1]


def test_rows_built_follow_the_question_not_the_ring(monkeypatch):
    """t1*t2 in (t1) builds the same rows at cap 4 as at cap 12: only those
    its target and its pivot columns reach."""
    built = []
    sparse = fgl._p_integral_solvable

    def counting(row, column, targets, p, residue=False):
        def counted_row(i):
            built.append(i)
            return row(i)
        return sparse(counted_row, column, targets, p, residue)

    monkeypatch.setattr(fgl, "_p_integral_solvable", counting)
    counts = []
    for cap in (4, 12):
        ring = TruncPolyRing(("t1", "t2"), cap)
        t1, t2 = ring.var("t1"), ring.var("t2")
        built.clear()
        assert ideal_contains([t1], t1 * t2, 3, ring)
        counts.append(len(built))
    assert counts[0] == counts[1] > 0
    assert len(set(built)) == len(built)


# ---------------------------------------------------------------------------
# verdicts frozen before the sparse elimination
# ---------------------------------------------------------------------------

# (verdict, [(status, witness, reason)], report reason) per scenario, as
# printed before the sparse elimination; "{p}" stands for the prime.
SCALAR = "nonzero scalar on a torsion-free base"
UNIT = (
    "unit", None,
    "1 lies in the ideal generated by this element and its predecessors")
FROZEN_SCENARIOS = {
    "zp-multiplicative": (
        "exact", [("regular", None, SCALAR), UNIT],
        "p regular and v_1 a unit"),
    "hazewinkel-t1": (
        "exact",
        [("regular", None, "nonzero scalar on a free polynomial base"),
         ("regular", None,
          "linear part contains fresh parameter t with p-unit coefficient"),
         UNIT],
        "(p, v_1) regular and v_2 a unit"),
    "torsion": (
        "not_exact",
        [("zerodivisor", "{p}",
          "explicit annihilation found within the window"), UNIT],
        "{p} is a zerodivisor (witness {p}): the sequence is not regular"),
}


def _summary(report):
    return (report["verdict"],
            [(v["status"], v["witness"], v["reason"])
             for v in report["verdicts"]],
            report["reason"])


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("scenario", sorted(FROZEN_SCENARIOS))
def test_landweber_scenarios_frozen(capsys, scenario, p):
    code = cli.main(["landweber", "--scenario", scenario, "--p", str(p),
                     "--format", "json", "--no-timestamp"])
    report = json.loads(capsys.readouterr().out)
    verdict, rows, reason = FROZEN_SCENARIOS[scenario]

    def fill(text):
        return None if text is None else text.replace("{p}", str(p))

    assert code == 0
    assert _summary(report) == (
        verdict, [tuple(map(fill, row)) for row in rows], fill(reason))


def test_certify_fermat_zp_frozen(capsys):
    code = cli.main(["certify", "--quartic", "fermat", "--ring", "zp",
                     "--p", "5", "--no-timestamp"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert _summary(doc["report"]) == FROZEN_SCENARIOS["zp-multiplicative"]
