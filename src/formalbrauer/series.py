"""Truncated power series over an exact coefficient ring.

A Series is a sparse dict of exponent tuples over named variables, cut off at
a total-degree cap. The same class serves one variable (logarithms, p-series)
and two (formal group laws), or any other number; all arithmetic runs through
the ring protocol from coefficients.py plus the elements' own infix
operators.

Truncation discipline: a series of cap N represents a full power series known
exactly through total degree N. Multiplication and substitution of
zero-constant-term series preserve that meaning (degree filtration), which is
why compose/subst insist on zero constant terms in the inner argument.

Over QQ, compose runs its power chain on integer numerators
(_compose_rational). Through ring.dot every coefficient of every power of
the inner series is a Fraction, with a gcd each time; packed once as one
integer polynomial over one common denominator, with each exponent tuple
read as one int, a product is int multiplications and additions only, and
one Fraction is made per output coefficient. Every certificate builds its
law (fgl_from_log) and checks it (FormalGroupLaw.is_law_of) by compose over
QQ: warm, on fermat's cap-10 law at p = 13, is_law_of went from 150 to
40 us, fgl_from_log from 250 to 160 us and certify_k3_spectrum from 530 to
320 us (medians of 300 calls, 2-core host, Python 3.11.7). Over Q[t]
compose keeps the ring.dot route, the oracle the QQ route is tested
against.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add

from .coefficients import RationalField, rat
from .errors import CapTooSmall, RingMismatch


class Series:
    __slots__ = ("ring", "vars", "cap", "coeffs")

    def __init__(self, ring, vars, cap, coeffs):
        self.ring = ring
        self.vars = tuple(vars)
        if cap < 0:
            raise ValueError("cap must be >= 0")
        self.cap = cap
        clean = {}
        nvars = len(self.vars)
        for e, c in coeffs.items():
            if len(e) != nvars:
                raise RingMismatch(f"exponent {e} has arity {len(e)}, expected {nvars}")
            if sum(e) > cap:
                raise ValueError(f"term {e} above cap {cap}")
            if c:
                clean[e] = c
        self.coeffs = clean

    @classmethod
    def _make(cls, ring, vars, cap, coeffs):
        """A result built inside the package: `vars` is a tuple and `coeffs`
        holds only nonzero coefficients of in-range exponents of the right
        arity, so nothing is checked again."""
        out = cls.__new__(cls)
        out.ring = ring
        out.vars = vars
        out.cap = cap
        out.coeffs = coeffs
        return out

    # ----- constructors -------------------------------------------------

    @classmethod
    def zero(cls, ring, cap, vars=("T",)):
        return cls(ring, vars, cap, {})

    @classmethod
    def constant(cls, ring, cap, c, vars=("T",)):
        return cls(ring, vars, cap, {(0,) * len(vars): ring.coerce(c)})

    @classmethod
    def variable(cls, ring, cap, name="T", vars=None):
        vars = (name,) if vars is None else tuple(vars)
        if name not in vars:
            raise RingMismatch(f"{name!r} not among {vars}")
        e = tuple(1 if v == name else 0 for v in vars)
        return cls(ring, vars, cap, {e: ring.one})

    @classmethod
    def univariate(cls, ring, cap, coeffs, var="T"):
        """Build from {degree: coefficient} with plain int degrees."""
        return cls(ring, (var,), cap,
                   {(d,): ring.coerce(c) for d, c in coeffs.items()})

    # ----- inspection ---------------------------------------------------

    def is_univariate(self):
        return len(self.vars) == 1

    def coeff(self, e):
        """Coefficient at an exponent tuple, or at an int degree if univariate."""
        if isinstance(e, int):
            if not self.is_univariate():
                raise RingMismatch("int degree only valid for univariate series")
            e = (e,)
        return self.coeffs.get(tuple(e), self.ring.zero)

    def constant_coeff(self):
        return self.coeffs.get((0,) * len(self.vars), self.ring.zero)

    def degrees(self):
        """Sorted total degrees carrying a nonzero term."""
        return sorted({sum(e) for e in self.coeffs})

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (self.ring == other.ring and self.vars == other.vars
                and self.cap == other.cap and self.coeffs == other.coeffs)

    def __hash__(self):
        raise TypeError("Series is not hashable")

    def __repr__(self):
        if not self.coeffs:
            return f"O(deg>{self.cap})"
        bits = []
        for e in sorted(self.coeffs, key=lambda e: (sum(e), e))[:12]:
            mono = "*".join(f"{v}^{k}" if k > 1 else v
                            for v, k in zip(self.vars, e) if k)
            c = self.coeffs[e]
            bits.append(f"({c})" if not mono else f"({c})*{mono}")
        tail = " + ..." if len(self.coeffs) > 12 else ""
        return " + ".join(bits) + tail + f" + O(deg>{self.cap})"

    # ----- cap handling -------------------------------------------------

    def truncate(self, n):
        """The series through degree n <= cap; with_cap raises the cap."""
        if n > self.cap:
            raise CapTooSmall(
                f"a cap-{self.cap} series is not known through degree {n}")
        return Series._make(self.ring, self.vars, n,
                            {e: c for e, c in self.coeffs.items()
                             if sum(e) <= n})

    def with_cap(self, n):
        """Reinterpret at a higher cap. Coefficients between the old and new
        cap are taken to be zero; callers must know that is what they mean
        (Newton iteration does)."""
        if n < self.cap:
            raise CapTooSmall(f"use truncate to lower the cap ({n} < {self.cap})")
        return Series._make(self.ring, self.vars, n, dict(self.coeffs))

    # ----- linear structure ----------------------------------------------

    def _match(self, other):
        if not isinstance(other, Series):
            raise RingMismatch(f"expected Series, got {type(other)}")
        if (other.ring != self.ring or other.vars != self.vars
                or other.cap != self.cap):
            raise RingMismatch(
                f"series mismatch: {self.ring}/{self.vars}/{self.cap} vs "
                f"{other.ring}/{other.vars}/{other.cap}")

    def add(self, other):
        self._match(other)
        out = dict(self.coeffs)
        rng = self.ring
        for e, c in other.coeffs.items():
            if e in out:
                s = out[e] + c
                if not s:
                    del out[e]
                else:
                    out[e] = s
            else:
                out[e] = c
        return Series._make(rng, self.vars, self.cap, out)

    def neg(self):
        return Series._make(self.ring, self.vars, self.cap,
                            {e: -c for e, c in self.coeffs.items()})

    def sub(self, other):
        return self.add(other.neg())

    def scalar_mul(self, c):
        rng = self.ring
        c = rng.coerce(c)
        # a product of nonzero truncated polynomials can vanish above the
        # cap (t^2 * t^2 at cap 3), so the zeros are dropped here
        return Series._make(rng, self.vars, self.cap,
                            {e: x for e, v in self.coeffs.items()
                             if (x := v * c)})

    # ----- multiplication -------------------------------------------------

    def mul(self, other):
        """Product through the cap. The pairs of coefficients landing on each
        output exponent are gathered first, and the ring sums each group in
        one ring.dot call."""
        self._match(other)
        cap = self.cap
        rng = self.ring
        buckets_a = {}
        for e, c in self.coeffs.items():
            buckets_a.setdefault(sum(e), []).append((e, c))
        buckets_b = {}
        for e, c in other.coeffs.items():
            buckets_b.setdefault(sum(e), []).append((e, c))
        pairs = {}
        for da, la in buckets_a.items():
            for db, lb in buckets_b.items():
                if da + db > cap:
                    continue
                for ea, ca in la:
                    for eb, cb in lb:
                        e = tuple(map(add, ea, eb))
                        pairs.setdefault(e, []).append((ca, cb))
        out = {}
        for e, ps in pairs.items():
            c = rng.dot(ps)
            if c:
                out[e] = c
        return Series._make(rng, self.vars, cap, out)

    def _power_sum(self, coeffs, memo):
        """sum of c * self^k over the {k: c} of coeffs (k = 0 allowed), with
        the powers from memo. Each output coefficient is summed in one
        ring.dot call."""
        rng = self.ring
        pairs = {}
        c0 = coeffs.get(0)
        if c0 is not None:
            pairs[(0,) * len(self.vars)] = [(c0, rng.one)]
        for k, pk in _powers(sorted(k for k in coeffs if k), memo, Series.mul):
            c = coeffs[k]
            for e, x in pk.coeffs.items():
                pairs.setdefault(e, []).append((c, x))
        out = {}
        for e, ps in pairs.items():
            v = rng.dot(ps)
            if v:
                out[e] = v
        return Series._make(rng, self.vars, self.cap, out)

    # ----- composition and substitution -----------------------------------

    def compose(self, inner):
        """self(inner) for univariate self; inner may have any arity but must
        have zero constant term (otherwise truncation would lie). A constant
        term in self is allowed and passes through."""
        if not self.is_univariate():
            raise RingMismatch("compose needs a univariate outer series")
        if not isinstance(inner, Series) or inner.ring != self.ring:
            raise RingMismatch("inner series over a different ring")
        if inner.constant_coeff():
            raise ValueError("inner series must have zero constant term")
        # the composite is exact only through the smaller cap
        if inner.cap > self.cap:
            inner = inner.truncate(self.cap)
        outer = {d: c for (d,), c in self.coeffs.items() if d <= inner.cap}
        if isinstance(self.ring, RationalField):
            return _compose_rational(outer, inner)
        return inner._power_sum(outer, {1: inner})

    def subst(self, repls):
        """Substitute one series per variable of self. All replacement series
        share ring, variables and cap, and have zero constant term.

        The terms are grouped by the exponent j of the last variable; each
        group is substituted into the other variables the same way, and the
        groups' values are multiplied by r^j and summed, r the last
        replacement. Every power of every replacement comes from one memo
        per replacement, shared by all groups, so r^j is built once however
        many groups need it. A term of degree above the replacements' cap
        maps to valuation above the cap and is skipped."""
        repls = list(repls)
        if len(repls) != len(self.vars):
            raise RingMismatch(f"{len(self.vars)} variables, {len(repls)} replacements")
        tpl = repls[0]
        for r in repls:
            tpl._match(r)
            if r.constant_coeff():
                raise ValueError("replacement series must have zero constant term")
        if tpl.ring != self.ring:
            raise RingMismatch("replacements over a different ring")
        if self.cap < tpl.cap:
            raise CapTooSmall(
                f"substituting into a cap-{self.cap} series cannot be exact "
                f"through cap {tpl.cap}")
        memos = [{1: r} for r in repls]

        def value(terms, depth):
            # terms: {exponent tuple of length depth + 1: coefficient}
            r = repls[depth]
            if depth == 0:
                return r._power_sum({e[0]: c for e, c in terms.items()},
                                    memos[0])
            grouped = {}
            for e, c in terms.items():
                grouped.setdefault(e[-1], {})[e[:-1]] = c
            out = (value(grouped.pop(0), depth - 1) if 0 in grouped
                   else Series.zero(tpl.ring, tpl.cap, tpl.vars))
            for j, rj in _powers(sorted(grouped), memos[depth], Series.mul):
                out = out.add(value(grouped[j], depth - 1).mul(rj))
            return out

        return value({e: c for e, c in self.coeffs.items()
                      if sum(e) <= tpl.cap}, len(self.vars) - 1)

    def remap(self, new_vars, assignment=None):
        """Move to a new variable tuple; assignment maps old names to new
        names (identity by default). Covers promotion (adding variables) and
        permutation (e.g. swapping X and Y)."""
        new_vars = tuple(new_vars)
        assignment = assignment or {v: v for v in self.vars}
        pos = {}
        for old in self.vars:
            new = assignment[old]
            if new not in new_vars:
                raise RingMismatch(f"{new!r} not among {new_vars}")
            pos[old] = new_vars.index(new)
        if len({pos[v] for v in self.vars}) != len(self.vars):
            raise RingMismatch("assignment collapses variables")
        out = {}
        for e, c in self.coeffs.items():
            ne = [0] * len(new_vars)
            for v, k in zip(self.vars, e):
                ne[pos[v]] = k
            out[tuple(ne)] = c
        # the same nonzero coefficients at the same total degrees
        return Series._make(self.ring, new_vars, self.cap, out)

    # ----- univariate calculus -------------------------------------------

    def _need_univariate(self):
        if not self.is_univariate():
            raise RingMismatch("univariate series required")

    def derivative(self):
        self._need_univariate()
        # over a Q-algebra c * d is never zero for c != 0 and d >= 1
        return Series._make(self.ring, self.vars, self.cap,
                            {(d - 1,): c * d for (d,), c in self.coeffs.items()
                             if d >= 1})

    def integral(self, cap=None):
        """Termwise antiderivative with zero constant. An integrand exact
        through degree N determines the integral through N + 1, so the result
        cap may be raised that far; by default it stays at self.cap and the
        top term is dropped."""
        self._need_univariate()
        rng = self.ring
        out_cap = self.cap if cap is None else cap
        if out_cap > self.cap + 1:
            raise CapTooSmall(
                f"integral of a cap-{self.cap} series is exact only through "
                f"{self.cap + 1}")
        out = {}
        for (d,), c in self.coeffs.items():
            if d + 1 <= out_cap:
                out[(d + 1,)] = c * rat(1, d + 1)
        return Series._make(rng, self.vars, out_cap, out)

    def shift_up(self, k):
        self._need_univariate()
        out = {(d + k,): c for (d,), c in self.coeffs.items() if d + k <= self.cap}
        return Series._make(self.ring, self.vars, self.cap, out)

    def shift_down(self, k):
        self._need_univariate()
        if any(d < k for (d,) in self.coeffs):
            raise ValueError(f"cannot shift down by {k}: lower-degree terms present")
        return Series._make(self.ring, self.vars, self.cap,
                            {(d - k,): c for (d,), c in self.coeffs.items()})

    # ----- inversion and reversion ----------------------------------------

    def invert_unit(self):
        """Multiplicative inverse of a series with unit constant term."""
        self._need_univariate()
        rng = self.ring
        inv0 = rng.invert(self.constant_coeff())
        support = sorted(d for (d,) in self.coeffs if d >= 1)
        out = {0: inv0}
        for n in range(1, self.cap + 1):
            s = rng.dot((self.coeffs[(k,)], out[n - k]) for k in support
                        if k <= n and n - k in out)
            if s:
                out[n] = -(inv0 * s)
        return Series._make(rng, self.vars, self.cap,
                            {(d,): c for d, c in out.items()})

    def solve(self, rhs):
        """The series g with self(g) = rhs and g(0) = 0, through degree cap.

        self is univariate with zero constant term and a unit linear
        coefficient a_1; rhs has the same ring, variable and cap, and zero
        constant term. Newton iteration in the manner of Brent and Kung (J.
        ACM 25, 1978): from g exact through degree m, the error
        self(g) - rhs has valuation m + 1, so the slope self'(g) is needed
        only through degree m2 - m - 1 for the corrected g to be exact
        through m2 = 2m + 1. No division by integers occurs.
        """
        self._need_univariate()
        self._match(rhs)
        if self.constant_coeff() or rhs.constant_coeff():
            raise ValueError("solve needs zero constant terms")
        N = self.cap
        m = 1
        g = Series(self.ring, self.vars, m,
                   {(1,): rhs.coeff(1) * self.ring.invert(self.coeff(1))})
        deriv = self.derivative()
        while m < N:
            m2 = min(2 * m + 1, N)
            g = g.with_cap(m2)
            err = self.truncate(m2).compose(g).sub(rhs.truncate(m2))
            if not err.is_zero():
                # err = T^(m+1) e, so the step err / self'(g) through
                # degree m2 needs e and the slope only through degree h
                h = m2 - m - 1
                slope = deriv.truncate(h).compose(g)
                e = err.shift_down(m + 1).truncate(h)
                step = e.mul(slope.invert_unit()).with_cap(m2).shift_up(m + 1)
                g = g.sub(step)
            m = m2
        return g

    def reversion(self):
        """Compositional inverse of T*(unit + ...): the solution g of
        self(g) = T, by solve. Works over any coefficient ring in which the
        linear coefficient is a unit."""
        self._need_univariate()
        return self.solve(Series.variable(self.ring, self.cap, self.vars[0]))


def _powers(ks, memo, mul):
    """(k, x^k) for the ascending positive exponents ks, taken from or added
    to memo (which holds x at 1), with mul the product. A power the memo
    lacks is the running power times x^gap, and each running power joins the
    memo, so a later gap that halves down to k or k + 1 reuses it: exponents
    1, 3, 9, 27, 81 take 8 products, and 2, 8, 26, 80 take 10. x^n for a gap
    comes from x^(n-1) when the memo has it, else by squaring x^(n//2)."""
    def power(n):
        if n in memo:
            return memo[n]
        if n - 1 in memo:
            out = mul(memo[n - 1], memo[1])
        else:
            half = power(n // 2)
            out = mul(half, half)
            if n % 2:
                out = mul(out, memo[1])
        memo[n] = out
        return out

    cur = None
    cur_k = 0
    for k in ks:
        if k in memo:
            cur = memo[k]
        else:
            step = power(k - cur_k)
            cur = step if cur is None else mul(cur, step)
            memo[k] = cur
        cur_k = k
        yield k, cur


def _packed_mul(a, b, cap):
    """The product through total degree cap of two integer polynomials in
    packed form, {degree: {packed exponent: numerator}}."""
    out = {}
    for da, ta in a.items():
        for db, tb in b.items():
            d = da + db
            if d > cap:
                continue
            acc = out.get(d)
            if acc is None:
                acc = out[d] = {}
            get = acc.get
            terms_b = tb.items()
            for ea, na in ta.items():
                for eb, nb in terms_b:
                    e = ea + eb
                    acc[e] = get(e, 0) + na * nb
    return out


def _compose_rational(outer, inner):
    """sum of c * inner^k over the {k: c} of outer, over QQ: the route of
    _power_sum on integer numerators. inner is packed once as n(x) / D, D
    the lcm of its denominators, with the exponent tuple read in base
    cap + 1 as one int, so adding exponents is one int addition. Each power
    inner^k is the integer polynomial n^k over D^k, built on the schedule of
    _powers, and the output is one numerator per exponent over
    lcm(outer denominators) * D^K, K the top power, made into one Fraction."""
    cap = inner.cap
    base = cap + 1
    nvars = len(inner.vars)
    D = lcm(*(c.denominator for c in inner.coeffs.values()))
    packed = {}
    for e, c in inner.coeffs.items():
        x = 0
        for k in e:
            x = x * base + k
        packed.setdefault(sum(e), {})[x] = c.numerator * (D // c.denominator)
    ks = sorted(k for k in outer if k)
    top = ks[-1] if ks else 0
    L = lcm(*(c.denominator for c in outer.values()))
    acc = {}
    c0 = outer.get(0)
    if c0 is not None:
        acc[0] = c0.numerator * (L // c0.denominator) * D ** top
    get = acc.get
    for k, pk in _powers(ks, {1: packed},
                         lambda a, b: _packed_mul(a, b, cap)):
        c = outer[k]
        f = c.numerator * (L // c.denominator) * D ** (top - k)
        for terms in pk.values():
            for x, n in terms.items():
                acc[x] = get(x, 0) + f * n
    den = L * D ** top
    out = {}
    for x, n in acc.items():
        if n:
            e = ()
            for _ in range(nvars - 1):
                x, k = divmod(x, base)
                e = (k, *e)
            out[(x, *e)] = Fraction(n, den)
    return Series._make(inner.ring, inner.vars, cap, out)
