"""One-dimensional formal group laws and their invariants.

A law is a bivariate series F(X, Y) with F(X, 0) = X, F(0, Y) = Y,
commutative and associative up to the truncation cap. Over a Q-algebra every
law has a logarithm l with F = l^{-1}(l(X) + l(Y)); conversely a logarithm
determines a law.

Over a p-local base the arithmetic invariants are Hazewinkel's generators
v_1, v_2, ..., read off the logarithm's coefficients at T^(p^n) alone
(hazewinkel_generators): the ideals I_n = (p, v_1, ..., v_(n-1)), and the
height of the closed fibre, the least n with v_n a unit there
(closed_fibre_height). The p-series
[p](T) = a_0 T + a_1 T^2 + ... (a_i multiplies T^(i+1), a_0 = p) has
a_(p^n - 1) = v_n mod I_n; p_series builds it from a logarithm for the
tests, whose oracle (tests/p_series_oracle.py) reads heights off it.

Ideal membership in the base A = Z_(p)[t_1..t_k]/(deg > cap) uses that A is
local with maximal ideal (p, t_1, ..., t_k): for p-integral generators and
elements, the ideal contains 1 exactly when some generator is a unit at the
closed point, and then contains every element; otherwise it contains no
unit. Everything else, and every input with p in a denominator, goes to a
sparse elimination that pivots from the target, on an entry minimal in its
row, and builds only the rows it touches (ideal_contains_all).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .coefficients import (
    QQ,
    Prime,
    RationalField,
    TruncPoly,
    TruncPolyRing,
    val_p,
)
from .errors import (
    CapTooSmall,
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

    def _swapped(self):
        """H(X, Y) = F(Y, X)."""
        return self.F.remap(("X", "Y"), {"X": "Y", "Y": "X"})

    def is_commutative(self):
        return self.F == self._swapped()

    def is_associative(self):
        """F(F(X,Y),Z) = F(X,F(Y,Z)) up to the cap.

        With H(X,Y) = F(Y,X), the right side is F(X,F(Y,Z)) = H(H(Z,Y),X):
        the nested build H(H(X,Y),Z) with X and Z exchanged. A commutative
        law has H = F, so one nested build G = F(F(X,Y),Z) decides: the law
        is associative exactly when G is symmetric under X <-> Z. Any other
        law builds H's nest as well."""
        left = self.F.nested()
        h = self._swapped()
        right = left if h == self.F else h.nested()
        return left == right.remap(("X", "Y", "Z"), {"X": "Z", "Y": "Y", "Z": "X"})

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
        check_integral(F, integral_at)
    return law


def _p_integral(x, p: Prime) -> bool:
    """Is x, a rational or a truncated polynomial, p-integral termwise? A
    rational in lowest terms is p-integral when p does not divide its
    denominator."""
    q = int(p)
    terms = x.terms.values() if isinstance(x, TruncPoly) else (x,)
    return all(c.denominator % q for c in terms)


def check_integral(s: Series, p: Prime):
    """Raise NonIntegral at the first coefficient of s, in degree order,
    that is not p-integral."""
    for e in sorted(s.coeffs, key=lambda e: (sum(e), e)):
        c = s.coeffs[e]
        if not _p_integral(c, p):
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
# p-series and heights
# ---------------------------------------------------------------------------


@dataclass
class PSeries:
    """[p](T) = a_0 T + a_1 T^2 + ... with a_0 = p, over its source's own
    coefficient ring (QQ or a TruncPolyRing)."""

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


def p_series(log: Logarithm, p: Prime, cap: int) -> PSeries:
    """[p](T) of a logarithm: one Newton iteration (Series.solve, starting
    from pT) solves l([p](T)) = p l(T) for [p], with univariate work only.
    It is an oracle for the v_n that hazewinkel_generators reads.
    """
    p = p if isinstance(p, Prime) else Prime(int(p))
    if not isinstance(log, Logarithm):
        raise RingMismatch(f"cannot build a p-series from {type(log)}")
    if log.cap < cap:
        raise CapTooSmall(f"logarithm cap {log.cap} < requested {cap}")
    l = log.series.truncate(cap)
    return PSeries(p, l.solve(l.scalar_mul(l.ring.from_int(p.p))))


@dataclass(frozen=True)
class HeightResult:
    """Finite(h) when the closed fibre has height h, witnessed in degree
    p^h (v_h the first unit at the closed point);
    AtLeast(bound) when nothing through degree p^bound decides. Infinite
    height is never asserted from a finite cap."""

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


# ---------------------------------------------------------------------------
# ideal membership over the p-local base (exact, desk scale)
# ---------------------------------------------------------------------------


def _p_integral_solvable(row, column, targets, p: int) -> list:
    """For each target b, does b = sum_j y_j * (column j) admit p-integral
    rational y?

    The system comes as a row source: row(i) gives row i's original entries
    as {column: entry}, nonzero entries only, and column(j) the rows where
    column j is originally nonzero. Each target is a dict row key ->
    rational. Sparse Gaussian elimination over the valuation ring Z_(p),
    with every target carried along as one more right-hand side. It builds
    only the rows it touches: a row that no update has touched still holds
    its original entries, so it is built the first time a target or a
    pivot column reaches it.

    Invariant: each pivot is taken in the first live target's support, in
    the row there of least minimal valuation, on an entry minimal in its
    row. Clearing the pivot column is a row operation; whatever its
    multipliers, it keeps the solution set over Q. Because the pivot is
    minimal in its own row, zeroing the rest of the pivot row is a column
    operation with p-integral multipliers: a unimodular change of variables
    that touches neither a target nor any other row. The pivot row is then
    alone in its column, so no later operation touches it: it leaves the
    system with its b final, and the pivot equation piv * y' = b decides it,
    val(b) >= val(piv). Nor does any touch a row without entries, so a
    target fails where it is nonzero on one; it is solvable once what is
    left of it is zero. The elimination stops when every target is decided.
    """
    answers = [True] * len(targets)
    live = {k: {i: c for i, c in b.items() if c}
            for k, b in enumerate(targets)}
    rows: dict = {}      # built rows, each {column: entry}; None once pivoted
    col_rows: dict = {}  # column -> built rows in play that hold it

    def build(i):
        r = rows[i] = dict(row(i))
        for j in r:
            col_rows.setdefault(j, set()).add(i)
        return r

    while live:
        k, b = next(iter(live.items()))
        best = None
        for i in b:
            r = rows[i] if i in rows else build(i)
            if not r:
                answers[k] = False
                break
            for j, a in r.items():
                v = val_p(a, p)
                if best is None or v < best[0]:
                    best = (v, i, j)
        if best is None or not answers[k]:
            del live[k]
            continue
        vpiv, pi, pj = best
        prow, rows[pi] = rows[pi], None
        for j in prow:
            col_rows[j].discard(pi)
        piv = prow[pj]
        carried = []
        for k, b in list(live.items()):
            bp = b.pop(pi, None)
            if bp is None:
                continue
            if val_p(bp, p) < vpiv:
                answers[k] = False
                del live[k]
            else:
                carried.append((b, bp))
        for i in column(pj):
            if i not in rows:
                build(i)
        for i in list(col_rows[pj]):
            r = rows[i]
            f = r[pj] / piv
            for j, a in prow.items():
                new = r.get(j, 0) - f * a
                if new:
                    r[j] = new
                    col_rows[j].add(i)
                else:
                    del r[j]
                    col_rows[j].discard(i)
            for b, bp in carried:
                nb = b.get(i, 0) - f * bp
                if nb:
                    b[i] = nb
                else:
                    b.pop(i, None)
    return answers


def _shifted_system(generators, ring: TruncPolyRing):
    """The row source (row, column) of the membership system for the
    generators (nonzero elements of ring), in the shape
    _p_integral_solvable takes. Column (k, m) is m * g_k for a monomial m,
    truncated at the cap as TruncPoly multiplication would: it holds e + m
    for each term c * t^e of generator k with deg(e + m) <= cap. Row i is
    {(k, i - e): c} over the terms c * t^e of generator k with e <= i."""
    cap = ring.cap
    terms = [[(e, sum(e), c) for e, c in g.terms.items()]
             for g in generators]

    def row(i):
        out = {}
        for k, ts in enumerate(terms):
            for e, _, c in ts:
                m = tuple(map(operator.sub, i, e))
                if min(m, default=0) >= 0:
                    out[k, m] = c
        return out

    def column(j):
        k, m = j
        room = cap - sum(m)
        return [tuple(map(operator.add, e, m))
                for e, d, _ in terms[k] if d <= room]

    return row, column


def ideal_contains_all(generators, xs, p: Prime, ring) -> list:
    """[x in the ideal (generators) for x in xs], in the p-local base ring.

    The base is A = Z_(p)[t_1..t_k]/(deg > cap), a truncated polynomial
    ring, and QQ stands for the one with no parameters, the p-local
    integers. A is local with maximal ideal (p, t_1, ..., t_k), so its units
    are the elements that pass unit_at_closed_point. Hence, when the
    generators and x are p-integral: if some generator is a unit the ideal
    is A and contains x; if none is, the ideal lies in the maximal ideal and
    contains no unit x. The rule needs that integrality guard: at p = 3,
    (1/3) contains 1 but (1) does not contain 1/3. Every x the rule leaves
    open goes to the elimination, which solves for p-integral cofactors of
    the monomial multiples of the generators inside the degree cap (with no
    parameters, of the generators themselves). It pivots from the target,
    on an entry minimal in its row, and builds only the rows it touches
    (_shifted_system gives them straight from the generators' terms).
    """
    p = p if isinstance(p, Prime) else Prime(int(p))
    if isinstance(ring, RationalField):
        ring = TruncPolyRing((), 0)
    if not isinstance(ring, TruncPolyRing):
        raise RingMismatch(f"no membership test over {ring}")
    gens = [g for g in map(ring.coerce, generators) if g.terms]
    xs = [ring.coerce(x) for x in xs]
    # 0 lies in every ideal, and nothing else in the zero ideal
    answers = [None if x.terms and gens else not x.terms for x in xs]
    if gens and all(_p_integral(g, p) for g in gens):
        unit = any(unit_at_closed_point(g, p) for g in gens)
        for k, x in enumerate(xs):
            if (answers[k] is None and (unit or unit_at_closed_point(x, p))
                    and _p_integral(x, p)):
                answers[k] = unit
    pending = [k for k, a in enumerate(answers) if a is None]
    if pending:
        solved = _p_integral_solvable(*_shifted_system(gens, ring),
                                      [xs[k].terms for k in pending], p.p)
        for k, ok in zip(pending, solved):
            answers[k] = ok
    return answers


def ideal_contains(generators, x, p: Prime, ring) -> bool:
    """x in the ideal (generators) of the p-local base ring? The one-target
    case of ideal_contains_all."""
    return ideal_contains_all(generators, [x], p, ring)[0]


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


def unit_at_closed_point(x, p: Prime) -> bool:
    """Is x, a rational or a truncated polynomial, a unit of the p-local
    base at its closed point (every parameter set to 0, then mod p)?"""
    c = x.constant_term() if isinstance(x, TruncPoly) else x
    q = int(p)
    return bool(c.numerator % q and c.denominator % q)


def hazewinkel_generators(ells, p: Prime):
    """Yield Hazewinkel's v_1, v_2, ... from ells = l_1, l_2, ..., the
    logarithm's coefficients at T^p, T^(p^2), ..., by inverting the
    recursion of hazewinkel_log, p l_n = sum_(i<n) l_i v_(n-i)^(p^i) with
    l_0 = 1: v_n = p l_n - sum_(0<i<n) l_i v_(n-i)^(p^i).

    Cartier p-typification keeps exactly the terms l_n T^(p^n) and is a
    strict isomorphism, so I_n = (p, v_1, ..., v_(n-1)) and the class of
    v_n mod I_n are the law's own (Ravenel, Complex Cobordism, A2.1-A2.2;
    Hazewinkel, Formal Groups and Applications, 15 and 21). Each v_n is
    computed when asked for; one that is not p-integral raises NonIntegral,
    and the first that is a unit at the closed point is the last yielded:
    the closed fibre has height n.
    """
    p = p if isinstance(p, Prime) else Prime(int(p))
    q = p.p
    ls, vs = [], []
    for n, ell in enumerate(ells, start=1):
        v = q * ell
        for i in range(1, n):
            li, w = ls[i - 1], vs[n - i - 1]
            if li and w:
                v = v - li * w ** (q ** i)
        if not _p_integral(v, p):
            raise NonIntegral(
                f"v_{n}, read from the logarithm's coefficient at "
                f"T^{q ** n}, is not {q}-integral", degree=q ** n, value=v)
        yield v
        if unit_at_closed_point(v, p):
            return
        ls.append(ell)
        vs.append(v)


def closed_fibre_height(ells, p: Prime, h_max: int):
    """(height, [v_1, ..., v_n]) of the closed fibre, the v_n read by
    hazewinkel_generators from ells = l_1, l_2, ...: Finite(n), witnessed in
    degree p^n, when v_n is the first unit at the closed point; otherwise
    AtLeast(h_max), with v_1, ..., v_(h_max). No l_k past the one that
    decides is asked for."""
    vs = list(itertools.islice(hazewinkel_generators(ells, p), h_max))
    if vs and unit_at_closed_point(vs[-1], p):
        n = len(vs)
        return HeightResult("finite", n, first_nonzero_degree=int(p) ** n), vs
    return HeightResult("at_least", h_max), vs


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
