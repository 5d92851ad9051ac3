"""Formal Brauer groups of quartic surfaces.

A smooth quartic f in P^3 carries a one-dimensional formal group on its
degree-2 cohomology. Its logarithm has an explicit Stienstra-style
presentation: with

    beta_m = coefficient of (T0 T1 T2 T3)^(m-1) in f^(m-1),

the logarithm is l(T) = sum_m beta_m T^m / m, and beta_1 = 1 always. For the
Fermat quartic the betas collapse to the closed form (4n)!/(n!)^4 in degree
4n+1 and vanish elsewhere; for a general quartic they are extracted from the
expanded powers of f.

Everything downstream (mod-p heights, the ordinarity test beta_p mod p,
exactness certificates) consumes the logarithm built here. A height is the
least n with v_p(beta_(p^n)) = n - 1, the p-typical criterion brauer_height
documents: it reads the betas in the degrees p^n only and builds no p-series.
A bound that decides nothing is reported as a lower bound, never as
infinity. The p-series over QQ, reduced mod p, stays as the criterion's test
oracle and as the route exactness reports take, which need the exact v_n.
"""

from __future__ import annotations

from .coefficients import Prime, multinomial, rat, val_p
from .errors import CapTooSmall, NonIntegral
from .fgl import HeightResult, Logarithm, fgl_from_log
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
            e = tuple(int(k) for k in e)
            if len(e) != 4 or any(k < 0 for k in e):
                raise ValueError(f"bad exponent vector {e}")
            if sum(e) != 4:
                raise ValueError(f"exponent {e} is not homogeneous of degree 4")
            c = int(c)
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
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            bits = line.split()
            if len(bits) != 5:
                raise ValueError(
                    f"line {lineno}: expected 'e0 e1 e2 e3 coeff', got {raw!r}")
            try:
                e = tuple(int(b) for b in bits[:4])
                c = int(bits[4])
            except ValueError:
                raise ValueError(f"line {lineno}: non-integer entry in {raw!r}") from None
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

    def is_diagonal(self) -> bool:
        return all(max(e) == 4 for e in self.terms)

    def diagonal(self):
        """(a, b, c, d) for a*T0^4 + b*T1^4 + c*T2^4 + d*T3^4."""
        if not self.is_diagonal():
            raise ValueError(f"{self.name} is not diagonal")
        out = [0, 0, 0, 0]
        for e, c in self.terms.items():
            out[e.index(4)] = c
        return tuple(out)

    def partial(self, i: int) -> dict:
        """d f / d T_i as a sparse cubic: exponent 4-tuples -> int."""
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                out[tuple(ne)] = c * e[i]
        return out

    def evaluate(self, point, mod: int) -> int:
        return _evaluate(self.terms, point, mod)

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
    # Fermat plus a genuinely non-diagonal term, smooth mod every p <= 13
    # (its only bad odd prime is 229)
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


def beta_coefficient(f: QuarticForm, m: int) -> int:
    """beta_m = coefficient of (T0 T1 T2 T3)^(m-1) in f^(m-1).

    Diagonal quartics take the closed form multinomial(4n; n,n,n,n) *
    (abcd)^n in degree m = 4n+1 (zero elsewhere); every other quartic takes
    the corridor pass power_diagonal, which is also how the closed form gets
    cross-checked.
    """
    if m < 1:
        raise ValueError("beta index starts at 1")
    if not f.is_diagonal():
        return power_diagonal(f, m - 1)[m - 1]
    if (m - 1) % 4:
        return 0
    n = (m - 1) // 4
    a, b, c, d = f.diagonal()
    return multinomial(4 * n, (n, n, n, n)) * (a * b * c * d) ** n


class BrauerLog:
    """The logarithm sum beta_m T^m / m of a quartic's formal group, together
    with the integer betas it was built from. beta_1 = 1 always."""

    __slots__ = ("log", "source", "betas")

    def __init__(self, log: Logarithm, source: QuarticForm, betas: dict):
        if betas.get(1) != 1:
            raise ValueError("beta_1 must be 1")
        self.log = log
        self.source = source
        self.betas = dict(betas)

    @property
    def cap(self) -> int:
        return self.log.cap

    def beta(self, m: int) -> int:
        if m > self.cap:
            raise CapTooSmall(f"beta_{m} beyond cap {self.cap}")
        return self.betas.get(m, 0)


def _log_from_betas(f: QuarticForm, betas: dict, cap: int) -> BrauerLog:
    from .coefficients import QQ

    coeffs = {(m,): rat(b, m) for m, b in betas.items() if b and m <= cap}
    return BrauerLog(Logarithm(Series(QQ, ("T",), cap, coeffs)), f, betas)


def stienstra_log(f: QuarticForm, cap: int) -> BrauerLog:
    """Logarithm of the formal Brauer group of f, truncated at `cap`: the
    closed form for diagonal quartics, one corridor pass otherwise."""
    if cap < 1:
        raise CapTooSmall("logarithm needs cap >= 1")
    if f.is_diagonal():
        betas = {m: beta_coefficient(f, m) for m in range(1, cap + 1, 4)}
    else:
        diag = power_diagonal(f, cap - 1)
        betas = {m: diag[m - 1] for m in range(1, cap + 1)}
    betas = {m: b for m, b in betas.items() if b}
    return _log_from_betas(f, betas, cap)


# ---------------------------------------------------------------------------
# heights and ordinarity
# ---------------------------------------------------------------------------


# the bivariate law spot-check runs through min(LAW_CAP, cap)
LAW_CAP = 12


def brauer_height(f: QuarticForm, p, h_max: int, cap: int | None = None,
                  with_log: bool = False):
    """Height of the formal Brauer group of f in characteristic p.

    The height is the least n with v_p(beta_(p^n)) = n - 1, with witness
    degree p^n. Why: Cartier's p-typification of l = sum beta_m T^m / m
    keeps only the terms l_n = beta_(p^n) / p^n and is strictly isomorphic
    to the law, so the height does not change. Hazewinkel's functional
    equation p l_n = sum_(i<n) l_i v_(n-i)^(p^i) (l_0 = 1) defines v_n, and
    the height is the least n with v_n a unit mod p. When
    v_1, ..., v_(n-1) = 0 mod p, each term with i >= 1 has valuation at
    least p^i - i >= 1, so v_n = beta_(p^n) / p^(n-1) mod p. The scan runs
    n = 1, 2, ... while p^n <= cap (p^h_max + 1 unless given); if no n
    decides, the verdict is AtLeast(h_max).

    The argument assumes the law is p-integral, which Stienstra (Amer. J.
    Math. 109, 1987) proves for the logarithms of these formal groups. A
    value v_p(beta_(p^n)) < n - 1 contradicts it and raises NonIntegral.
    Apart from the law spot-check, which rebuilds the bivariate law at
    min(LAW_CAP, cap) with p-integrality enforced coefficientwise,
    denominators are looked for only in the degrees p^n; the p-series over
    QQ (fgl.escalating_height) would look in every degree of its window.

    The betas are extracted once, through max(min(LAW_CAP, cap), p); any
    beta_(p^n) above that comes from beta_coefficient. With with_log, the
    BrauerLog of that extraction is returned as well; it holds beta_p.
    """
    p = p if isinstance(p, Prime) else Prime(int(p))
    if h_max < 1:
        raise ValueError("h_max must be >= 1")
    if all(c % p.p == 0 for c in f.terms.values()):
        raise ValueError(
            f"{p.p} divides every coefficient of {f.name}; no reduction mod {p.p}")
    if cap is None:
        cap = p.p ** h_max + 1
    if cap < p.p ** h_max:
        raise CapTooSmall(
            f"cap {cap} < p^h_max = {p.p ** h_max}; the verdict window is empty")
    lc = min(cap, LAW_CAP)
    blog = stienstra_log(f, max(lc, p.p))
    if lc >= 2:
        fgl_from_log(blog.log, lc, integral_at=p)
    result = HeightResult("at_least", h_max)
    n, q = 1, p.p
    while q <= cap:
        beta = blog.beta(q) if q <= blog.cap else beta_coefficient(f, q)
        v = val_p(beta, p)
        if v < n - 1:
            raise NonIntegral(
                f"v_{n} = beta_{q} / {p.p}^{n - 1} is not {p.p}-integral "
                f"for {f.name}", degree=q, value=beta)
        if v == n - 1:
            result = HeightResult("finite", n, first_nonzero_degree=q)
            break
        n, q = n + 1, q * p.p
    return (result, blog) if with_log else result


def ordinarity_criterion(f: QuarticForm, p) -> bool:
    """True iff beta_p is nonzero mod p (the Hasse-invariant style test:
    height 1 exactly when the p-th logarithm coefficient survives mod p)."""
    p = p if isinstance(p, Prime) else Prime(int(p))
    return beta_coefficient(f, p.p) % p.p != 0


# ---------------------------------------------------------------------------
# smoothness spot-check over a small prime field
# ---------------------------------------------------------------------------


def _projective_points(q: int):
    """One representative per point of P^3(F_q): leading coordinate 1."""
    for lead in range(4):
        head = (0,) * lead + (1,)
        tail = 4 - lead - 1
        if tail == 0:
            yield head
            continue
        counters = [0] * tail
        while True:
            yield head + tuple(counters)
            i = tail - 1
            while i >= 0:
                counters[i] += 1
                if counters[i] < q:
                    break
                counters[i] = 0
                i -= 1
            if i < 0:
                break


def smooth_check_fp(f: QuarticForm, p, budget: int = 13) -> bool:
    """Brute-force smoothness of {f = 0} over F_p: no projective point may
    kill f and all four partials at once. Enumeration is ~p^3 points, so the
    prime is capped (default 13); larger primes raise rather than stall."""
    p = p if isinstance(p, Prime) else Prime(int(p))
    q = p.p
    if q > budget:
        raise ValueError(
            f"smoothness enumeration budget is p <= {budget}, got {q}")
    # f first: most points are off the surface
    forms = [f.terms] + [f.partial(i) for i in range(4)]
    for pt in _projective_points(q):
        for g in forms:
            if _evaluate(g, pt, q):
                break
        else:
            return False
    return True


def _evaluate(terms: dict, point, mod: int) -> int:
    """A sparse integer form {exponent tuple: coefficient} at point, mod
    `mod`."""
    total = 0
    for e, c in terms.items():
        v = c
        for x, k in zip(point, e):
            if k:
                v *= pow(x, k, mod)
        total += v
    return total % mod
