"""One-dimensional formal group laws and their invariants.

A law is a bivariate series F(X, Y) with F(X, 0) = X, F(0, Y) = Y,
commutative and associative up to the truncation cap. Over a Q-algebra every
law has a logarithm l with F = l^{-1}(l(X) + l(Y)); conversely a logarithm
determines a law. The multiplication-by-p series [p](T) carries the
arithmetic content: over a field of characteristic p its first nonzero
coefficient sits in degree p^h and h is the height.

Coefficient indexing for p-series follows [p](T) = a_0 T + a_1 T^2 + ...,
i.e. a_i multiplies T^(i+1) and a_0 = p. The distinguished elements are
v_n = a_(p^n - 1), the coefficient of T^(p^n), and the ideals
I_(p,n) = (a_0, ..., a_(p^(n-1) - 1)) generated by the first p^(n-1)
coefficients satisfy I_(p,n+1) = I_(p,n) + (v_n).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .coefficients import (
    QQ,
    Prime,
    RationalField,
    Residue,
    ResidueRing,
    TruncPoly,
    TruncPolyRing,
    reduce_mod,
    val_p,
)
from .errors import (
    CapTooSmall,
    FirstNonzeroNotPPower,
    NonIntegral,
    RingMismatch,
    SingularCurve,
)
from .series import Series

# ---------------------------------------------------------------------------
# logarithms and laws
# ---------------------------------------------------------------------------


def _is_q_algebra(ring):
    return isinstance(ring, (RationalField, TruncPolyRing))


@dataclass
class Logarithm:
    """A strict isomorphism to the additive law: l(T) = T + b_2 T^2 + ...
    over a Q-algebra (plain rationals, or rational-coefficient truncated
    polynomials when formal parameters are in play)."""

    series: Series

    def __post_init__(self):
        s = self.series
        if not s.is_univariate():
            raise RingMismatch("a logarithm is univariate")
        if not _is_q_algebra(s.ring):
            raise RingMismatch("a logarithm needs a Q-algebra coefficient ring")
        if not s.ring.is_zero(s.constant_coeff()):
            raise ValueError("logarithm must vanish at 0")
        if not s.ring.eq(s.coeff(1), s.ring.one):
            raise ValueError("logarithm must start with 1*T")

    @property
    def ring(self):
        return self.series.ring

    @property
    def cap(self):
        return self.series.cap

    def truncate(self, n):
        return Logarithm(self.series.truncate(n))


@dataclass
class FormalGroupLaw:
    """F(X, Y) over a commutative ring, truncated at total degree `cap`."""

    F: Series
    provenance: str = "unspecified"

    def __post_init__(self):
        if self.F.vars != ("X", "Y"):
            raise RingMismatch("a law is a series in (X, Y)")
        r = self.F.ring
        # unit axiom checked on construction; it is cheap and load-bearing
        x_only = {e: c for e, c in self.F.coeffs.items() if e[1] == 0}
        if list(x_only) != [(1, 0)] or not r.eq(x_only[(1, 0)], r.one):
            raise ValueError("F(X, 0) != X: unit axiom fails")
        y_only = {e: c for e, c in self.F.coeffs.items() if e[0] == 0}
        if list(y_only) != [(0, 1)] or not r.eq(y_only[(0, 1)], r.one):
            raise ValueError("F(0, Y) != Y: unit axiom fails")

    @property
    def ring(self):
        return self.F.ring

    @property
    def cap(self):
        return self.F.cap

    def is_commutative(self):
        return self.F == self.F.remap(("X", "Y"), {"X": "Y", "Y": "X"})

    def is_associative(self):
        """F(F(X,Y),Z) = F(X,F(Y,Z)) up to the cap; the check runs in a
        trivariate series ring, which is what bounds its cost."""
        rng = self.ring
        cap = self.cap
        XYZ = ("X", "Y", "Z")
        x = Series.variable(rng, cap, "X", XYZ)
        z = Series.variable(rng, cap, "Z", XYZ)
        # substituting bare variables is a relabelling
        fxy = self.F.remap(XYZ)
        fyz = self.F.remap(XYZ, {"X": "Y", "Y": "Z"})
        left = self.F.subst([fxy, z])
        right = self.F.subst([x, fyz])
        return left == right

    def verify_axioms(self):
        """Raise ValueError when an axiom fails (unit is enforced at
        construction time already)."""
        if not self.is_commutative():
            raise ValueError("law is not commutative")
        if not self.is_associative():
            raise ValueError("law is not associative up to the cap")

    def conjugate(self, u: Series) -> "FormalGroupLaw":
        """Coordinate change by u(T) = u_1 T + ..., u_1 a unit:
        the conjugated law is u^{-1}(F(u(X), u(Y)))."""
        if not u.is_univariate() or u.ring != self.ring:
            raise RingMismatch("reparameterization must be univariate, same ring")
        if not self.ring.is_zero(u.constant_coeff()):
            raise ValueError("reparameterization must fix 0")
        uinv = u.reversion()
        ux = u.truncate(self.cap).remap(("X", "Y"), {u.vars[0]: "X"})
        uy = u.truncate(self.cap).remap(("X", "Y"), {u.vars[0]: "Y"})
        inner = self.F.subst([ux, uy])
        return FormalGroupLaw(uinv.compose(inner),
                              provenance=f"conjugate({self.provenance})")


def standard_law(kind: str, ring, cap: int) -> FormalGroupLaw:
    """The two polynomial laws everything is calibrated against:
    additive X + Y and multiplicative X + Y + XY."""
    x = Series.variable(ring, cap, "X", ("X", "Y"))
    y = Series.variable(ring, cap, "Y", ("X", "Y"))
    if kind == "additive":
        return FormalGroupLaw(x.add(y), provenance="additive")
    if kind == "multiplicative":
        if cap < 2:
            raise CapTooSmall("multiplicative law needs cap >= 2")
        return FormalGroupLaw(x.add(y).add(x.mul(y)), provenance="multiplicative")
    raise ValueError(f"unknown standard law {kind!r}")


def fgl_from_log(log: Logarithm, cap: int, integral_at: Prime | None = None
                 ) -> FormalGroupLaw:
    """F = l^{-1}(l(X) + l(Y)) at the given cap.

    When integral_at is supplied, every coefficient of F must be p-integral
    (coefficientwise for polynomial values); the first failure aborts with
    NonIntegral. That is the guard that turns "the logarithm has denominators"
    into an honest statement about the law itself.
    """
    if log.cap < cap:
        raise CapTooSmall(f"logarithm known to cap {log.cap} < requested {cap}")
    l = log.series.truncate(cap)
    lx = l.remap(("X", "Y"), {l.vars[0]: "X"})
    ly = l.remap(("X", "Y"), {l.vars[0]: "Y"})
    F = l.reversion().compose(lx.add(ly))
    law = FormalGroupLaw(F, provenance="from-logarithm")
    if integral_at is not None:
        _check_integral(F, integral_at)
    return law


def _check_integral(s: Series, p: Prime):
    for e in sorted(s.coeffs, key=lambda e: (sum(e), e)):
        c = s.coeffs[e]
        if isinstance(c, TruncPoly):
            for me, mc in c.terms.items():
                if val_p(mc, p) < 0:
                    raise NonIntegral(
                        f"coefficient at {dict(zip(s.vars, e))} has "
                        f"{p.p}-denominator in monomial {me}: {mc}",
                        degree=e, value=mc)
        else:
            if val_p(c, p) < 0:
                raise NonIntegral(
                    f"coefficient at {dict(zip(s.vars, e))} is not "
                    f"{p.p}-integral: {c}", degree=e, value=c)


def log_from_fgl(law: FormalGroupLaw, cap: int | None = None) -> Logarithm:
    """Recover the logarithm over a Q-algebra by integrating the invariant
    differential: l'(T) = 1 / (dF/dY)(T, 0)."""
    if not _is_q_algebra(law.ring):
        raise RingMismatch("logarithm recovery needs a Q-algebra")
    cap = law.cap if cap is None else cap
    if cap > law.cap:
        raise CapTooSmall(f"law known to cap {law.cap} < requested {cap}")
    # dF/dY, then Y = 0, i.e. keep the terms linear in Y
    w = {}
    for (i, j), c in law.F.coeffs.items():
        if j == 1 and i <= cap - 1:
            w[(i,)] = c
    wT = Series(law.ring, ("T",), cap - 1, w)
    # integrate: constant of wT^{-1} is 1, so l starts with T
    return Logarithm(wT.invert_unit().integral(cap))


# ---------------------------------------------------------------------------
# p-series, heights, ideal chains
# ---------------------------------------------------------------------------


@dataclass
class PSeries:
    """[p](T) = a_0 T + a_1 T^2 + ... with a_0 = p in the coefficient ring."""

    p: Prime
    series: Series

    def __post_init__(self):
        s = self.series
        if not s.is_univariate():
            raise RingMismatch("a p-series is univariate")
        if not s.ring.is_zero(s.constant_coeff()):
            raise ValueError("p-series must vanish at 0")
        if not s.ring.eq(s.coeff(1), s.ring.from_int(self.p.p)):
            raise ValueError(f"a_0 must equal p = {self.p.p} in {s.ring}")

    @property
    def ring(self):
        return self.series.ring

    @property
    def cap(self):
        return self.series.cap

    def a(self, i: int):
        """a_i, the coefficient of T^(i+1)."""
        if i + 1 > self.cap:
            raise CapTooSmall(f"a_{i} lives in degree {i + 1} > cap {self.cap}")
        return self.series.coeff(i + 1)

    def v(self, n: int):
        """v_n = a_(p^n - 1), the coefficient of T^(p^n); v_0 = p."""
        return self.a(self.p.p ** n - 1)

    def reduce(self) -> "PSeries":
        """Image in the residue field Z/p of the p-local base. Polynomial
        coefficients are first checked p-integral termwise, then evaluated at
        the closed point (parameters -> 0) and reduced mod p."""
        rng = ResidueRing(self.p)
        out = {}
        for (d,), c in sorted(self.series.coeffs.items()):
            if isinstance(c, TruncPoly):
                for me, mc in c.terms.items():
                    if val_p(mc, self.p) < 0:
                        raise NonIntegral(
                            f"degree-{d} coefficient not {self.p.p}-integral "
                            f"at monomial {me}: {mc}", degree=d, value=mc)
                r = reduce_mod(c.constant_term(), rng)
            elif isinstance(c, Residue):
                r = c.v % rng.modulus
            else:
                if val_p(c, self.p) < 0:
                    raise NonIntegral(
                        f"degree-{d} coefficient not {self.p.p}-integral: {c}",
                        degree=d, value=c)
                r = reduce_mod(c, rng)
            if r:
                out[(d,)] = Residue(rng, r)
        return PSeries(self.p, Series(rng, ("T",), self.cap, out))


def p_series(source, p: Prime, cap: int) -> PSeries:
    """[p](T), by the logarithm route when given a Logarithm, or by the
    p-fold iterate F(... F(F(T,T),T) ..., T) when given a law.

    The logarithm route solves l([p](T)) = p l(T) for [p] by one Newton
    iteration (Series.solve, starting from pT); it only does univariate work
    and is the default for heights. The iterate is the independent
    cross-check at small caps.
    """
    p = p if isinstance(p, Prime) else Prime(int(p))
    if isinstance(source, Logarithm):
        if source.cap < cap:
            raise CapTooSmall(f"logarithm cap {source.cap} < requested {cap}")
        l = source.series.truncate(cap)
        return PSeries(p, l.solve(l.scalar_mul(l.ring.from_int(p.p))))
    if isinstance(source, FormalGroupLaw):
        if source.cap < cap:
            raise CapTooSmall(f"law cap {source.cap} < requested {cap}")
        F = source.F.truncate(cap)
        t = Series.variable(source.ring, cap, "T")
        acc = t
        for _ in range(p.p - 1):
            acc = F.subst([acc, t])
        return PSeries(p, acc)
    raise RingMismatch(f"cannot build a p-series from {type(source)}")


@dataclass(frozen=True)
class HeightResult:
    """Finite(h) when the first nonzero coefficient of the reduced p-series
    sits in degree p^h; AtLeast(bound) when the series vanishes through
    degree p^bound. Infinite height is never asserted from a finite cap."""

    kind: str  # "finite" | "at_least"
    value: int
    first_nonzero_degree: int | None = None

    def __post_init__(self):
        if self.kind not in ("finite", "at_least"):
            raise ValueError(f"bad kind {self.kind!r}")
        if self.kind == "finite" and self.first_nonzero_degree is None:
            raise ValueError("finite height needs its witness degree")

    @property
    def is_finite(self):
        return self.kind == "finite"

    def describe(self) -> str:
        if self.is_finite:
            return f"finite height {self.value} (first nonzero degree {self.first_nonzero_degree})"
        return f"height at least {self.value} (zero through degree stated bound)"


def height(ps: PSeries, h_max: int) -> HeightResult:
    """Height of a p-series already reduced mod p (precision-1 residue ring).

    Scans for the first nonzero coefficient. Found in degree p^h: Finite(h).
    Found elsewhere: FirstNonzeroNotPPower. Nothing through p^h_max:
    AtLeast(h_max), which needs cap >= p^h_max to be meaningful.
    """
    rng = ps.ring
    if not isinstance(rng, ResidueRing) or rng.precision != 1:
        raise RingMismatch("height scan expects a mod-p reduced p-series")
    p = ps.p.p
    if ps.cap < p ** h_max:
        raise CapTooSmall(
            f"cap {ps.cap} < p^h_max = {p ** h_max}; cannot certify AtLeast({h_max})")
    for d in ps.series.degrees():
        if d == 1:
            continue  # a_0 = p = 0 mod p never survives, but be safe
        h, dd = 0, d
        while dd % p == 0:
            dd //= p
            h += 1
        if dd != 1:
            raise FirstNonzeroNotPPower(
                f"first nonzero coefficient of [p] mod {p} in degree {d}, "
                f"not a power of {p}")
        return HeightResult("finite", h, first_nonzero_degree=d)
    return HeightResult("at_least", h_max)


def escalating_height(source, p: Prime, h_max: int, cap: int):
    """(p-series, height) read off the smallest window that decides.

    [p] of a Logarithm or law is built in its own coefficient ring at the
    windows p^1 + 1, p^2 + 1, ... below cap, then at cap, and reduced mod p;
    the first window whose reduction has a nonzero coefficient gives the
    verdict. Only an all-zero series goes on to the full cap, where the scan
    certifies AtLeast(h_max). A series at cap N is exact through degree N,
    so the verdict is the one the full-cap window gives. Integrality is
    checked through the window the verdict was read from: a p-denominator
    above the witnessing degree is not looked for.
    """
    p = p if isinstance(p, Prime) else Prime(int(p))
    k = 1
    while True:
        window = min(p.p ** k + 1, cap)
        ps = p_series(source, p, window)
        red = ps.reduce()
        if window == cap:
            return ps, height(red, h_max)
        if not red.series.is_zero():
            return ps, height(red, k)
        k += 1


@dataclass
class LandweberIdealChain:
    """Generators of I_(p,n) for n = 0..n_max, read off one p-series.

    generators[n] lists a_0 ... a_(p^(n-1) - 1) (empty for n = 0, and (p) for
    n = 1); vs[n] = v_n = a_(p^n - 1). The recursion
    I_(p,n+1) = I_(p,n) + (v_n) is a theorem about these lists, checked by
    ideal_contains in tests rather than assumed."""

    p: Prime
    generators: list = field(default_factory=list)
    vs: list = field(default_factory=list)
    ring: object = None


def landweber_chain(ps: PSeries, n_max: int) -> LandweberIdealChain:
    p = ps.p.p
    if ps.cap < p ** n_max:
        raise CapTooSmall(
            f"cap {ps.cap} < p^n_max = {p ** n_max}: v_{n_max} unreachable")
    gens = []
    for n in range(n_max + 1):
        count = 0 if n == 0 else p ** (n - 1)
        gens.append([ps.a(i) for i in range(count)])
    vs = [ps.v(n) for n in range(n_max + 1)]
    return LandweberIdealChain(p=ps.p, generators=gens, vs=vs, ring=ps.ring)


# ---------------------------------------------------------------------------
# ideal membership over the p-local base (exact, desk scale)
# ---------------------------------------------------------------------------


def _p_integral_solvable(cols, target, p: int) -> bool:
    """Does target = sum_j y_j * cols[j] admit p-integral rational y?

    Columns and target are sparse dicts row key -> rational. Sparse Gaussian
    elimination over the valuation ring Z_(p): each row is a dict of its
    nonzero entries with their p-adic valuations cached, and a column -> rows
    index says which rows a pivot touches.

    Invariant: every pivot is an entry of globally minimal valuation among
    the active rows. Subtracting f * (pivot row) with val(f) >= 0 leaves
    every entry at valuation >= the pivot's, so the minimal valuation never
    decreases, every multiplier is p-integral, and the search for the next
    pivot may stop at the first entry that attains the previous minimum.
    The pivot is in particular minimal in its own row, so once its column is
    cleared, zeroing the rest of the pivot row is a column operation with
    p-integral multipliers: a unimodular change of variables that touches
    neither b nor any other row. Dropping the pivot row from the active set
    stands for it. The system ends diagonal, so it is solvable iff
    val(b) >= val(pivot) on each pivot row and b = 0 on every row left
    without entries; each is checked as soon as that row's b is final.
    """
    rows: dict = {}   # row -> {col: entry}
    vals: dict = {}   # row -> {col: val_p(entry)}
    col_rows = [set() for _ in cols]
    for j, col in enumerate(cols):
        for i, c in col.items():
            if c:
                rows.setdefault(i, {})[j] = c
                vals.setdefault(i, {})[j] = val_p(c, p)
                col_rows[j].add(i)
    b = {i: c for i, c in target.items() if c}
    if any(i not in rows for i in b):
        return False

    def row_min(rv):
        j = min(rv, key=rv.__getitem__)
        return rv[j], j

    rowmin = {i: row_min(rv) for i, rv in vals.items()}
    floor = None
    while rowmin:
        best = None
        for i, (v, j) in rowmin.items():
            if best is None or v < best[0]:
                best = (v, i, j)
                if v == floor:
                    break
        floor, pi, pj = best
        del rowmin[pi]
        prow = rows.pop(pi)
        del vals[pi]
        for j in prow:
            col_rows[j].discard(pi)
        piv = prow[pj]
        bp = b.get(pi)
        if bp and val_p(bp, p) < floor:
            return False
        for i in list(col_rows[pj]):
            row, rv = rows[i], vals[i]
            f = row[pj] / piv
            for j, a in prow.items():
                new = row.get(j, 0) - f * a
                if new:
                    row[j], rv[j] = new, val_p(new, p)
                    col_rows[j].add(i)
                else:
                    del row[j], rv[j]
                    col_rows[j].discard(i)
            if bp:
                nb = b.get(i, 0) - f * bp
                if nb:
                    b[i] = nb
                else:
                    b.pop(i, None)
            if row:
                rowmin[i] = row_min(rv)
            else:
                del rows[i], vals[i], rowmin[i]
                if i in b:
                    return False
    return True


def _monomial_multiples(terms, monomials, cap):
    """The nonzero products m * g for m in monomials, as term dicts, where g
    has the given terms: each exponent of g is shifted by m and terms above
    the degree cap are dropped, as TruncPoly multiplication would."""
    graded = [(e, sum(e), c) for e, c in terms.items()]
    gmin = min(d for _, d, _ in graded)
    out = []
    for m in monomials:
        room = cap - sum(m)
        if room >= gmin:
            out.append({tuple(a + b for a, b in zip(e, m)): c
                        for e, d, c in graded if d <= room})
    return out


def ideal_contains(generators, x, p: Prime, ring) -> bool:
    """x in the ideal (generators) of the p-local base ring?

    The base is a truncated polynomial ring, and QQ stands for the one with
    no parameters, the p-local integers. We solve for p-integral cofactors:
    the columns are all monomial multiples of the generators inside the
    degree cap (with no parameters, the generators themselves).
    """
    p = p if isinstance(p, Prime) else Prime(int(p))
    if isinstance(ring, RationalField):
        ring = TruncPolyRing((), 0)
    if not isinstance(ring, TruncPolyRing):
        raise RingMismatch(f"no membership test over {ring}")
    x = ring.coerce(x)
    if not x.terms:
        return True
    cap = ring.cap
    nv = len(ring.variables)
    monomials = [e for e in itertools.product(range(cap + 1), repeat=nv)
                 if sum(e) <= cap]
    cols = []
    for g in generators:
        g = ring.coerce(g)
        if g.terms:
            cols.extend(_monomial_multiples(g.terms, monomials, cap))
    if not cols:
        return False
    return _p_integral_solvable(cols, x.terms, p.p)


# ---------------------------------------------------------------------------
# Hazewinkel logarithms
# ---------------------------------------------------------------------------


def hazewinkel_log(v, p: Prime, cap: int) -> Logarithm:
    """The p-typical logarithm built from a finite v-list (1-indexed; entries
    beyond the list are zero):

        m_0 = 1,   m_n = (1/p) * sum_{i=0}^{n-1} m_i * v_{n-i}^{p^i},
        l(T) = sum m_n T^{p^n}.

    Entries may be integers, rationals, or truncated polynomials (e.g. a
    formal parameter t); a polynomial entry fixes the coefficient ring.
    """
    p = p if isinstance(p, Prime) else Prime(int(p))
    ring = QQ
    for entry in v:
        if isinstance(entry, TruncPoly):
            ring = TruncPolyRing(entry.vars, entry.cap)
            break
    velems = [ring.coerce(entry) for entry in v]
    ms = [ring.one]
    n = 1
    while p.p ** n <= cap:
        acc = None
        for i in range(n):
            k = n - i  # v index
            if k > len(velems):
                continue
            vk = velems[k - 1]
            if ring.is_zero(vk):
                continue
            term = ms[i] * (vk ** (p.p ** i))
            acc = term if acc is None else acc + term
        if acc is None:
            ms.append(ring.zero)
        else:
            ms.append(ring.div_int(acc, p.p))
        n += 1
    coeffs = {(p.p ** i,): m for i, m in enumerate(ms)
              if p.p ** i <= cap and not ring.is_zero(m)}
    return Logarithm(Series(ring, ("T",), cap, coeffs))


# ---------------------------------------------------------------------------
# elliptic curves: Weierstrass expansion and the point-count oracle
# ---------------------------------------------------------------------------


def _b_invariants(a1, a2, a3, a4, a6):
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = (a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4)
    return b2, b4, b6, b8


def elliptic_discriminant(coeffs) -> int:
    a1, a2, a3, a4, a6 = coeffs
    b2, b4, b6, b8 = _b_invariants(a1, a2, a3, a4, a6)
    return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def elliptic_fgl(coeffs, cap: int):
    """Formal group of a Weierstrass curve
    y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6, in the parameter
    T = -x/y at the origin.

    Expansion: with w = -1/y, the curve equation becomes the fixed point
    w = T^3 + a1 T w + a2 T^2 w + a3 w^2 + a4 T w^2 + a6 w^3, solved by
    iteration. The logarithm integrates the invariant differential
    dx / (2y + a1 x + a3); multiplying numerator and denominator by T^3 u
    (u = w/T^3, a unit series) keeps everything in honest power series.

    Returns (law, logarithm) over Q. Integer coefficient curves only; the
    discriminant must not vanish.
    """
    a1, a2, a3, a4, a6 = (int(c) for c in coeffs)
    if elliptic_discriminant((a1, a2, a3, a4, a6)) == 0:
        raise SingularCurve(f"discriminant vanishes for {coeffs}")
    if cap < 2:
        raise CapTooSmall("elliptic expansion needs cap >= 2")
    capw = cap + 3
    T = Series.variable(QQ, capw, "T")
    t3 = T.mul(T).mul(T)
    w = t3
    for _ in range(capw):
        w2 = w.mul(w)
        nxt = t3
        if a1:
            nxt = nxt.add(T.mul(w).scalar_mul(a1))
        if a2:
            nxt = nxt.add(T.mul(T).mul(w).scalar_mul(a2))
        if a3:
            nxt = nxt.add(w2.scalar_mul(a3))
        if a4:
            nxt = nxt.add(T.mul(w2).scalar_mul(a4))
        if a6:
            nxt = nxt.add(w2.mul(w).scalar_mul(a6))
        if nxt == w:
            break
        w = nxt
    u = w.shift_down(3)            # unit series, constant 1
    x2 = u.invert_unit()           # x * T^2
    y3 = x2.neg()                  # y * T^3 = -1/u
    xp = x2.derivative().shift_up(1).sub(x2.scalar_mul(2))   # x'(T) * T^3
    d3 = y3.scalar_mul(2)                                     # (2y + a1 x + a3) T^3
    if a1:
        d3 = d3.add(x2.shift_up(1).scalar_mul(a1))
    if a3:
        d3 = d3.add(t3.truncate(capw).scalar_mul(a3))
    omega = xp.mul(d3.invert_unit()).truncate(cap - 1)
    log = Logarithm(omega.integral(cap))
    law = fgl_from_log(log, cap)
    return law, log


def count_points(coeffs, p: Prime) -> int:
    """#E(F_p) including the point at infinity, by completing the square in y
    (p is odd) and summing quadratic-residue indicators."""
    p = p if isinstance(p, Prime) else Prime(int(p))
    a1, a2, a3, a4, a6 = (int(c) % p.p for c in coeffs)
    q = p.p
    if elliptic_discriminant([int(c) for c in coeffs]) % q == 0:
        raise SingularCurve(f"bad reduction at {q}")
    total = 1  # infinity
    half = (q - 1) // 2
    for x in range(q):
        aa = (a1 * x + a3) % q
        bb = (x * x * x + a2 * x * x + a4 * x + a6) % q
        disc = (aa * aa + 4 * bb) % q
        if disc == 0:
            total += 1
        elif pow(disc, half, q) == 1:
            total += 2
    return total


def elliptic_ss_oracle(coeffs, p: Prime) -> str:
    """'supersingular' or 'ordinary', decided by the trace of Frobenius from
    an honest point count: a_p = p + 1 - #E(F_p), supersingular iff
    a_p = 0 mod p. Independent of the formal group machinery."""
    p = p if isinstance(p, Prime) else Prime(int(p))
    ap = p.p + 1 - count_points(coeffs, p)
    return "supersingular" if ap % p.p == 0 else "ordinary"
