"""Formal Brauer groups of quartic surfaces.

A smooth quartic f in P^3 carries a one-dimensional formal group on its
degree-2 cohomology. Its logarithm has an explicit Stienstra-style
presentation: with

    beta_m = coefficient of (T0 T1 T2 T3)^(m-1) in f^(m-1),

the logarithm is l(T) = sum_m beta_m T^m / m, and beta_1 = 1 always. A single
beta_m comes from BetaExtractor, which enumerates the multiplicities of the
monomials of f that reach (T0 T1 T2 T3)^(m-1) and solves for the last four by
one 4x4 integer system; for a diagonal quartic that is one lattice point,
(m-1)/4 each, when 4 divides m - 1. The corridor pass power_diagonal expands
f^j for every j < m at once; BetaExtractor.route takes it where its counted
cost is lower (dense quartics), for a single beta and for a whole logarithm
alike: stienstra_log makes one corridor pass when the route at its cap is
the corridor, and extracts each beta on its own otherwise.

Everything downstream reads the betas extracted here. A height is the
least n whose Hazewinkel generator v_n is a unit mod p. brauer_generators
runs Hazewinkel's recursion on the integer betas beta_(p^n), scaled by
p^(n-1) so that every term is an integer, and stops at the first v_n prime
to p; brauer_height, the CLI's height rows and exactness certificates
(landweber.certify_k3_spectrum) all read it. It builds no Fraction and
neither a p-series nor the bivariate law. A bound that decides nothing is
reported as a lower bound, never as infinity. Certificates extract the
logarithm through a small cap only for the law they embed. fgl's rational
recursion on beta_(p^n) / p^n and the p-series over QQ, reduced mod p, stay
as test oracles.
"""

from __future__ import annotations

from operator import index

from .coefficients import QQ, Prime, TruncPoly, TruncPolyRing, multinomial, rat
from .errors import CapTooSmall, NonIntegral
from .fgl import HeightResult, Logarithm, ideal_contains_all
from .series import Series

QUARTIC_VARS = ("T0", "T1", "T2", "T3")


class QuarticForm:
    """Homogeneous integer quartic in T0..T3, stored sparsely.

    Keys are exponent 4-tuples summing to 4, values are nonzero integers.
    """

    __slots__ = ("terms", "name")

    def __init__(self, terms, name: str = "custom"):
        clean = {}
        for e, c in terms.items():
            # arity first, so that the 4-tuple is four index calls and sign
            # and degree are plain comparisons: one pass per term
            if len(e) != 4:
                raise ValueError(f"bad exponent vector {tuple(e)}")
            # operator.index takes integers only, where int() would
            # truncate 4.5 or Fraction(9, 2) and parse "4"
            try:
                e = index(e[0]), index(e[1]), index(e[2]), index(e[3])
                c = index(c)
            except TypeError:
                raise ValueError(
                    f"non-integer entry in term {tuple(e)}: {c!r}") from None
            e0, e1, e2, e3 = e
            if e0 < 0 or e1 < 0 or e2 < 0 or e3 < 0:
                raise ValueError(f"bad exponent vector {e}")
            if e0 + e1 + e2 + e3 != 4:
                raise ValueError(f"exponent {e} is not homogeneous of degree 4")
            if c:
                clean[e] = c
        if not clean:
            raise ValueError("quartic form is identically zero")
        self.terms = clean
        self.name = name

    # ----- text format: one term per line, "e0 e1 e2 e3 coeff" -------------

    @classmethod
    def parse(cls, text: str, name: str = "custom") -> "QuarticForm":
        terms: dict = {}
        # splitlines breaks at \r\n and \r as well as \n, as text mode's
        # newline translation does, so CRLF files read with the same line
        # numbers
        for lineno, raw in enumerate(text.splitlines(), start=1):
            bits = raw.split("#", 1)[0].split()
            if not bits:
                continue
            if len(bits) != 5:
                raise ValueError(
                    f"line {lineno}: expected 'e0 e1 e2 e3 coeff', got {raw!r}")
            try:
                e0, e1, e2, e3, c = map(int, bits)
            except ValueError:
                raise ValueError(f"line {lineno}: non-integer entry in {raw!r}") from None
            e = (e0, e1, e2, e3)
            terms[e] = terms.get(e, 0) + c
        return cls(terms, name=name)

    def dumps(self) -> str:
        lines = [f"# quartic form {self.name}: columns e0 e1 e2 e3 coeff"]
        for e in sorted(self.terms, reverse=True):
            lines.append(" ".join(str(k) for k in e) + f" {self.terms[e]}")
        return "\n".join(lines) + "\n"

    # ----- structure --------------------------------------------------------

    def coefficient(self, e) -> int:
        return self.terms.get(tuple(e), 0)

    def partial(self, i: int) -> dict:
        """d f / d T_i as a sparse cubic: exponent 4-tuples -> int."""
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                out[tuple(ne)] = c * e[i]
        return out

    def __eq__(self, other):
        if not isinstance(other, QuarticForm):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        bits = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(f"{v}^{k}" if k > 1 else v
                            for v, k in zip(QUARTIC_VARS, e) if k)
            bits.append(f"{c}*{mono}" if c != 1 else mono)
        return " + ".join(bits)


def _diag(a=1, b=1, c=1, d=1):
    return {(4, 0, 0, 0): a, (0, 4, 0, 0): b, (0, 0, 4, 0): c, (0, 0, 0, 4): d}


BUILTIN_QUARTICS = {
    # the Fermat quartic, the reference surface for every height test
    "fermat": QuarticForm(_diag(), name="fermat"),
    # diagonal with distinct 2-power coefficients; still height-testable fast
    "diag-1248": QuarticForm(_diag(1, 2, 4, 8), name="diag-1248"),
    # Fermat plus a genuinely non-diagonal term; its only bad odd prime is
    # 229 (smooth_check_fp, run over the odd primes below 400)
    "fermat-cross": QuarticForm({**_diag(), (3, 1, 0, 0): 1}, name="fermat-cross"),
}


def named_quartic(name: str) -> QuarticForm:
    try:
        return BUILTIN_QUARTICS[name]
    except KeyError:
        raise ValueError(
            f"unknown quartic {name!r}; built-ins: {', '.join(sorted(BUILTIN_QUARTICS))}"
        ) from None


# ---------------------------------------------------------------------------
# coefficient extraction
# ---------------------------------------------------------------------------


def power_diagonal(f: QuarticForm, n_max: int) -> list:
    """[c_0, ..., c_n_max] with c_j = coefficient of (T0 T1 T2 T3)^j in f^j.

    One corridor pass: multiply by f one factor at a time, pruning states
    that can no longer reach any remaining diagonal target. With g_i the
    largest T_i-exponent in f, a state e after j factors is dead once some
    e_i exceeds n_max or falls below n_max - g_i*(n_max - j); both bounds
    are monotone in the target, so a single corridor serves every j.
    """
    monos = list(f.terms.items())
    g = [max(e[i] for e, _ in monos) for i in range(4)]
    out = [1]
    state = {(0, 0, 0, 0): 1}
    for j in range(1, n_max + 1):
        slack = [gi * (n_max - j) for gi in g]
        nxt: dict = {}
        for e, c in state.items():
            for me, mc in monos:
                ne = (e[0] + me[0], e[1] + me[1], e[2] + me[2], e[3] + me[3])
                if (ne[0] > n_max or ne[1] > n_max or ne[2] > n_max
                        or ne[3] > n_max):
                    continue
                if (ne[0] + slack[0] < n_max or ne[1] + slack[1] < n_max
                        or ne[2] + slack[2] < n_max or ne[3] + slack[3] < n_max):
                    continue
                v = c * mc
                prev = nxt.get(ne)
                if prev is None:
                    nxt[ne] = v
                elif prev + v:
                    nxt[ne] = prev + v
                else:
                    del nxt[ne]
        state = nxt
        out.append(state.get((j, j, j, j), 0))
    return out


def _adjugate4(B):
    """(adj(B), det(B)) of a 4x4 integer matrix, so adj(B) B = det(B) I.
    Laplace expansion by complementary minors: s_k are the 2x2 minors of the
    top two rows, c_k those of the bottom two."""
    ((a00, a01, a02, a03), (a10, a11, a12, a13),
     (a20, a21, a22, a23), (a30, a31, a32, a33)) = B
    s0, s1 = a00 * a11 - a10 * a01, a00 * a12 - a10 * a02
    s2, s3 = a00 * a13 - a10 * a03, a01 * a12 - a11 * a02
    s4, s5 = a01 * a13 - a11 * a03, a02 * a13 - a12 * a03
    c0, c1 = a20 * a31 - a30 * a21, a20 * a32 - a30 * a22
    c2, c3 = a20 * a33 - a30 * a23, a21 * a32 - a31 * a22
    c4, c5 = a21 * a33 - a31 * a23, a22 * a33 - a32 * a23
    det = s0 * c5 - s1 * c4 + s2 * c3 + s3 * c2 - s4 * c1 + s5 * c0
    adj = [[a11 * c5 - a12 * c4 + a13 * c3, -a01 * c5 + a02 * c4 - a03 * c3,
            a31 * s5 - a32 * s4 + a33 * s3, -a21 * s5 + a22 * s4 - a23 * s3],
           [-a10 * c5 + a12 * c2 - a13 * c1, a00 * c5 - a02 * c2 + a03 * c1,
            -a30 * s5 + a32 * s2 - a33 * s1, a20 * s5 - a22 * s2 + a23 * s1],
           [a10 * c4 - a11 * c2 + a13 * c0, -a00 * c4 + a01 * c2 - a03 * c0,
            a30 * s4 - a31 * s2 + a33 * s0, -a20 * s4 + a21 * s2 - a23 * s0],
           [-a10 * c3 + a11 * c1 - a12 * c0, a00 * c3 - a01 * c1 + a02 * c0,
            -a30 * s3 + a31 * s1 - a32 * s0, a20 * s3 - a21 * s1 + a22 * s0]]
    return adj, det


def _independent_four(monos):
    """(chosen, units): the indices of the first entries of `monos` whose
    exponent vectors are linearly independent, and the unit vectors of the
    coordinates where no pivot was taken, which complete them to a basis.
    Each vector is reduced, fraction-free, against the pivots taken so far;
    a later pivot row is already zero in every earlier pivot column."""
    pivots, chosen = [], []
    for k, (e, _) in enumerate(monos):
        v = list(e)
        for col, row in pivots:
            if v[col]:
                v = [row[col] * a - v[col] * b for a, b in zip(v, row)]
        col = next((i for i, a in enumerate(v) if a), None)
        if col is not None:
            pivots.append((col, v))
            chosen.append(k)
            if len(chosen) == 4:
                return chosen, ()
    return chosen, [tuple(int(i == j) for i in range(4)) for j in range(4)
                    if all(col != j for col, _ in pivots)]


class BetaExtractor:
    """Single betas of one quartic, by enumerating monomial multiplicities.

    With N = m - 1, beta_m is the sum, over multiplicities a >= 0 of the
    monomials c_k T^(e_k) of f with sum_k a_k e_k = (N, N, N, N), of
    multinomial(N; a) * prod_k c_k^(a_k). Four monomials with linearly
    independent exponent vectors form the basis B, completed by unit
    vectors of coefficient 0 when f's exponents have rank < 4; the
    multiplicities of the others, the free monomials, are enumerated, and
    the residual r fixes the basis multiplicities x = adj(B) r / det(B),
    which count only when integral and nonnegative. A diagonal quartic has
    no free monomial: its one point is x = (N/4, ..., N/4), there when
    4 | N. A unit vector's multiplicity is 0 at every point when
    (1, 1, 1, 1) is in the span of f's exponents, for then every residual
    is; when it is not, beta_m = 0 for m > 1 and nothing is walked.

    The basis is taken greedily from the monomials of smallest largest
    exponent, so the free ones are those with the fewest multiplicities to
    visit; over the linear matroid this greedy choice minimises the box
    bound route() counts. The setup (basis, adjugate, determinant, free
    monomials) depends on f alone and is shared by every m one extractor
    serves.
    """

    __slots__ = ("f", "basis", "free", "det", "_target", "_steps", "_basis_c",
                 "_reaches")

    def __init__(self, f: QuarticForm):
        self.f = f
        monos = sorted(f.terms.items(), key=lambda t: (max(t[0]), t[0]))
        chosen, units = _independent_four(monos)
        self.basis = [monos[k] for k in chosen] + [(u, 0) for u in units]
        self.free = [t for k, t in enumerate(monos) if k not in chosen]
        # B has the basis exponent vectors as columns; the signs are
        # arranged so that det > 0
        adj, det = _adjugate4(list(zip(*(e for e, _ in self.basis))))
        if det < 0:
            adj, det = [[-a for a in row] for row in adj], -det
        self.det = det
        self._basis_c = [c for _, c in self.basis]
        # det * x = adj r is tracked along the walk: adj (1, 1, 1, 1) per
        # unit of N, less adj e for each free monomial placed
        self._target = tuple(sum(row) for row in adj)
        # (1, 1, 1, 1) is in the span iff adj (1, 1, 1, 1) is 0 at each unit
        self._reaches = not any(self._target[len(chosen):])
        self._steps = [(e, c, tuple(sum(a * k for a, k in zip(row, e))
                                    for row in adj))
                       for e, c in self.free]

    def costs(self, m: int):
        """(enumeration, corridor) work for beta_m, counted from f and m
        before any is done. The enumeration visits at most
        prod_free (N // max(e) + 1) lattice points, and 1 when (1, 1, 1, 1)
        is out of the exponents' span; the corridor (power_diagonal) makes
        at most r (N + 1)^4 state extensions for the r monomials of f: N
        steps of at most (N + 1)^3 states, each a vector with entries in
        [0, N] and a fixed sum."""
        n = m - 1
        points = 1
        for e, _ in self.free if self._reaches else ():
            points *= n // max(e) + 1
        return points, len(self.f.terms) * (n + 1) ** 4

    def route(self, m: int) -> str:
        """"enumerate" or "corridor": the route whose counted cost is
        lower (ties enumerate)."""
        points, corridor = self.costs(m)
        return "corridor" if points > corridor else "enumerate"

    def beta(self, m: int) -> int:
        if m < 1:
            raise ValueError("beta index starts at 1")
        if self.route(m) == "corridor":
            return power_diagonal(self.f, m - 1)[m - 1]
        return self._enumerate(m - 1)

    def _enumerate(self, n: int) -> int:
        """The coefficient of (T0 T1 T2 T3)^n in f^n, by the enumeration."""
        if n and not self._reaches:
            return 0
        det, steps, basis_c = self.det, self._steps, self._basis_c
        u0, u1, u2, u3 = self._target

        def walk(k, rem, y, parts, weight):
            # rem: the target less the free monomials placed so far; y:
            # adj rem = det * (basis multiplicities); parts: the free
            # multiplicities; weight: prod c^a over them
            if k == len(steps):
                y0, y1, y2, y3 = y
                if (y0 < 0 or y1 < 0 or y2 < 0 or y3 < 0 or y0 % det
                        or y1 % det or y2 % det or y3 % det):
                    return 0
                xs = (y0 // det, y1 // det, y2 // det, y3 // det)
                for x, c in zip(xs, basis_c):
                    if c != 1:
                        weight *= c ** x
                return multinomial(n, parts + xs) * weight
            (e0, e1, e2, e3), c, (w0, w1, w2, w3) = steps[k]
            total, a = 0, 0
            while rem[0] >= 0 and rem[1] >= 0 and rem[2] >= 0 and rem[3] >= 0:
                total += walk(k + 1, rem, y, parts + (a,), weight)
                rem = (rem[0] - e0, rem[1] - e1, rem[2] - e2, rem[3] - e3)
                y = (y[0] - w0, y[1] - w1, y[2] - w2, y[3] - w3)
                a += 1
                weight *= c
            return total

        return walk(0, (n, n, n, n), (n * u0, n * u1, n * u2, n * u3), (), 1)


def beta_coefficients(f: QuarticForm, ms):
    """Yield beta_m for each m of ms, in order and only as asked for, from
    one BetaExtractor: the per-quartic setup is built once per call."""
    ex = BetaExtractor(f)
    for m in ms:
        yield ex.beta(m)


def beta_coefficient(f: QuarticForm, m: int) -> int:
    """beta_m = coefficient of (T0 T1 T2 T3)^(m-1) in f^(m-1), by
    BetaExtractor: the multiplicity enumeration, or the corridor pass
    power_diagonal where its counted cost is lower."""
    return next(beta_coefficients(f, (m,)))


class BrauerLog:
    """The logarithm sum beta_m T^m / m of a quartic's formal group, together
    with the integer betas it was built from. beta_1 = 1 always."""

    __slots__ = ("log", "betas")

    def __init__(self, log: Logarithm, betas: dict):
        if betas.get(1) != 1:
            raise ValueError("beta_1 must be 1")
        self.log = log
        self.betas = dict(betas)

    def beta(self, m: int) -> int:
        if m > self.log.cap:
            raise CapTooSmall(f"beta_{m} beyond cap {self.log.cap}")
        return self.betas.get(m, 0)


def stienstra_log(f: QuarticForm, cap: int) -> BrauerLog:
    """Logarithm of the formal Brauer group of f, truncated at `cap`. When
    BetaExtractor's counted cost at the cap favours the corridor, one
    power_diagonal pass serves every degree at once; otherwise each beta is
    extracted on its own, by the route its own cost picks."""
    if cap < 1:
        raise CapTooSmall("logarithm needs cap >= 1")
    ex = BetaExtractor(f)
    ms = range(1, cap + 1)
    if ex.route(cap) == "corridor":
        betas = zip(ms, power_diagonal(f, cap - 1))
    else:
        betas = zip(ms, map(ex.beta, ms))
    betas = {m: b for m, b in betas if b}
    coeffs = {(m,): rat(b, m) for m, b in betas.items()}
    return BrauerLog(Logarithm(Series(QQ, ("T",), cap, coeffs)), betas)


# ---------------------------------------------------------------------------
# heights
# ---------------------------------------------------------------------------


def brauer_generators(f: QuarticForm, p, h_max: int):
    """(height, [v_1, ..., v_n]) of the formal Brauer group of f at p:
    Finite(n), witnessed in degree p^n, when v_n is the first of Hazewinkel's
    generators prime to p; otherwise AtLeast(h_max), with v_1, ..., v_(h_max).

    Hazewinkel's v_n = p l_n - sum_(0<i<n) l_i v_(n-i)^(p^i), with
    l_n = beta_(p^n) / p^n (fgl.hazewinkel_generators), is run times
    p^(n-1): beta_(p^n) - sum_(0<i<n) beta_(p^i) p^(n-1-i) v_(n-i)^(p^i),
    an integer, which p^(n-1) divides exactly when v_n is p-integral, and
    then v_n is an integer. A v_n that is not raises NonIntegral with its
    value, the only Fraction built. The betas come from one
    beta_coefficients call, none past the deciding n. Refused: a p that is
    not an odd prime, h_max < 1, and a p dividing every coefficient."""
    q = (p if isinstance(p, Prime) else Prime(int(p))).p
    if h_max < 1:
        raise ValueError("h_max must be >= 1")
    if all(c % q == 0 for c in f.terms.values()):
        raise ValueError(
            f"{q} divides every coefficient of {f.name}; no reduction mod {q}")
    pw = [q ** k for k in range(h_max + 1)]
    betas, vs = [], []
    for n, b in enumerate(beta_coefficients(f, pw[1:]), start=1):
        betas.append(b)
        rhs = b
        for i in range(1, n):
            if betas[i - 1] and vs[n - i - 1]:
                rhs -= betas[i - 1] * pw[n - 1 - i] * vs[n - i - 1] ** pw[i]
        v, rest = divmod(rhs, pw[n - 1])
        if rest:
            raise NonIntegral(
                f"v_{n}, read from the logarithm's coefficient at "
                f"T^{pw[n]}, is not {q}-integral", degree=pw[n],
                value=rat(rhs, pw[n - 1]))
        vs.append(v)
        if v % q:
            return HeightResult("finite", n, first_nonzero_degree=pw[n]), vs
    return HeightResult("at_least", h_max), vs


def brauer_height(f: QuarticForm, p, h_max: int) -> HeightResult:
    """Height of the formal Brauer group of f in characteristic p: the least
    n <= h_max at which Hazewinkel's v_n is a unit mod p (brauer_generators);
    AtLeast(h_max) if there is none."""
    return brauer_generators(f, p, h_max)[0]


# ---------------------------------------------------------------------------
# smoothness of the reduction mod p
# ---------------------------------------------------------------------------


def smooth_check_fp(f: QuarticForm, p) -> bool:
    """True iff the reduction of {f = 0} mod p is smooth over the algebraic
    closure of F_p. For odd p, Euler's relation 4f = sum T_i df/dT_i makes
    that "the four cubic partials have no common zero", which by Macaulay
    holds iff every degree-9 monomial lies in (p, df/dT_0, ..., df/dT_3) in
    Z_(p)[T0..T3] truncated at degree 9 (Macaulay 1916; Cox, Little and
    O'Shea, Using Algebraic Geometry, ch. 3): one ideal_contains_all call,
    read mod p, at the same cost for every p. When p divides every
    coefficient the partials vanish mod p: not smooth."""
    ring = TruncPolyRing(QUARTIC_VARS, 9)
    partials = [TruncPoly(QUARTIC_VARS, 9,
                          {e: rat(c) for e, c in f.partial(i).items()})
                for i in range(4)]
    nonics = [ring.monomial((a, b, c, 9 - a - b - c), 1)
              for a in range(10) for b in range(10 - a)
              for c in range(10 - a - b)]
    return all(ideal_contains_all([int(p), *partials], nonics, p, ring))
