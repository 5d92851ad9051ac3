"""Exact coefficient arithmetic.

Provides the two coefficient rings the series layer is generic over, both
Q-algebras:

* the rational field, fractions.Fraction (named `rat` here),
* sparse multivariate polynomial rings over Q truncated at a total degree.

Everything is exact, so no floating point appears anywhere. p-locality is
not a ring of its own: downstream code reads p-integrality and units at the
closed point of Z_(p)[t_1..t_k] off these exact coefficients.

A coefficient ring is a plain object that builds elements (zero, one and
coerce; TruncPolyRing also var and monomial) and runs the two operations
that need the ring, dot and invert; invert raises NotAUnit on a non-unit.
Elements answer everything else themselves, rationals and TruncPoly alike:
arithmetic is infix, a zero test is `not c`, equality with an integer is
`c == n`, and division by an integer n is `c * rat(1, n)`.

dot(pairs) is the sum of a*b over an iterable of (a, b) pairs, the inner
loop of a series product. Each ring sums in its own way: rationals as one
integer numerator over the lcm of the product denominators, normalised to a
Fraction once at the end; truncated polynomials into one term dict, each
monomial's sum kept as a numerator over a common denominator in the same
way, that becomes one TruncPoly at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import add

from .errors import NotAUnit, RingMismatch

# exact rational from ints, a rational, or a 'num/den' string
rat = Fraction

# the scalar types TruncPoly arithmetic treats as constant polynomials
_SCALARS = (int, Fraction)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class Prime:
    """An odd prime. Characteristic 2 is outside scope (quartic surfaces in
    char 2 need a different treatment), so p >= 3 is enforced here once and
    relied on everywhere else."""

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or self.p < 3:
            raise ValueError(f"need an odd prime >= 3, got {self.p!r}")
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    def __int__(self) -> int:
        return self.p

    def __index__(self) -> int:
        return self.p

    def __repr__(self) -> str:
        return f"Prime({self.p})"


def val_p(x, p) -> int | float:
    """p-adic valuation of a rational; math.inf for 0 (order sentinel only,
    never arithmetic)."""
    p = int(p)
    if isinstance(x, int):
        num, den = x, 1
    else:
        num, den = x.numerator, x.denominator
    if num == 0:
        return math.inf
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    # lowest terms: at most one of the two loops can run
    while den % p == 0:
        den //= p
        v -= 1
    return v


def multinomial(n: int, parts) -> int:
    """n! / (k_1! ... k_r!) for parts summing to n."""
    parts = tuple(parts)
    if any(k < 0 for k in parts):
        raise ValueError(f"negative part in {parts}")
    if sum(parts) != n:
        raise ValueError(f"parts {parts} do not sum to {n}")
    out = 1
    rem = n
    for k in parts:
        out *= math.comb(rem, k)
        rem -= k
    return out


class RationalField:
    """The rational numbers. Singleton QQ below."""

    zero = rat(0)
    one = rat(1)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def coerce(self, x):
        if isinstance(x, int):
            return rat(x)
        if isinstance(x, Fraction):
            return x
        raise RingMismatch(f"cannot coerce {x!r} into QQ")

    def dot(self, pairs):
        """The sum of a*b over pairs of ints or rationals, as one canonical
        Fraction. The sum runs as an integer numerator over the lcm of the
        product denominators, so the only gcd per product is the one that
        widens that denominator, and the Fraction is normalised once at the
        end (Knuth, TAOCP Vol. 2, 4.5.1)."""
        num, den = 0, 1
        for a, b in pairs:
            n = a.numerator * b.numerator
            d = a.denominator * b.denominator
            if d != den:
                g = gcd(den, d)
                num *= d // g
                n *= den // g
                den *= d // g
            num += n
        return Fraction(num, den)

    def invert(self, a):
        if not a:
            raise NotAUnit("0 is not invertible in QQ")
        return 1 / a


QQ = RationalField()


class TruncPoly:
    """Sparse multivariate polynomial with rational coefficients, truncated at
    a total degree cap. Terms of degree above the cap are discarded on
    multiplication; that is the only lossy step, and `truncated` records
    whether it ever happened to this value.

    Ints and rationals stand for constant polynomials in arithmetic and in
    equality, and a constant polynomial hashes like its constant."""

    __slots__ = ("vars", "cap", "terms", "truncated")

    def __init__(self, vars, cap, terms, truncated=False):
        self.vars = tuple(vars)
        self.cap = cap
        clean = {}
        for e, c in terms.items():
            if len(e) != len(self.vars):
                raise RingMismatch(f"exponent {e} has wrong arity")
            if sum(e) > cap:
                raise ValueError(f"term {e} exceeds degree cap {cap}")
            if c:
                clean[e] = c
        self.terms = clean
        self.truncated = truncated

    @classmethod
    def _make(cls, vars, cap, terms, truncated):
        """A result built inside the package: `vars` is a tuple and `terms`
        holds only nonzero coefficients of in-range exponents, so nothing is
        checked again."""
        out = cls.__new__(cls)
        out.vars = vars
        out.cap = cap
        out.terms = terms
        out.truncated = truncated
        return out

    def _match(self, other):
        if not isinstance(other, TruncPoly):
            raise RingMismatch(f"expected TruncPoly, got {type(other)}")
        if other.vars != self.vars or other.cap != self.cap:
            raise RingMismatch(
                f"({self.vars}, cap {self.cap}) vs ({other.vars}, cap {other.cap})")

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            other = _const_like(self, other)
        self._match(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return TruncPoly._make(self.vars, self.cap, out,
                               self.truncated or other.truncated)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, TruncPoly) else -rat(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return TruncPoly._make(self.vars, self.cap,
                               {e: -c for e, c in self.terms.items()},
                               self.truncated)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return TruncPoly._make(
                self.vars, self.cap,
                {e: c * other for e, c in self.terms.items()} if other else {},
                self.truncated)
        self._match(other)
        return _dot(self.vars, self.cap, ((self, other),))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power; use TruncPolyRing.invert")
        out = _const_like(self, rat(1))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, _SCALARS):
            return self.terms == ({(0,) * len(self.vars): other} if other
                                  else {})
        if not isinstance(other, TruncPoly):
            return NotImplemented
        return (self.vars == other.vars and self.cap == other.cap
                and self.terms == other.terms)

    def __hash__(self):
        const = (0,) * len(self.vars)
        if not self.terms.keys() - {const}:
            return hash(self.terms.get(const, 0))
        return hash((self.vars, self.cap, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def constant_term(self):
        c = self.terms.get((0,) * len(self.vars))
        return QQ.zero if c is None else c

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e)):
            c = self.terms[e]
            mono = "*".join(f"{v}^{k}" if k > 1 else v
                            for v, k in zip(self.vars, e) if k)
            bits.append(f"{c}" if not mono else f"{c}*{mono}")
        return " + ".join(bits)


def _const_like(tp: TruncPoly, c) -> TruncPoly:
    if isinstance(c, int):
        c = rat(c)
    return TruncPoly._make(tp.vars, tp.cap,
                           {(0,) * len(tp.vars): c} if c else {}, False)


def _dot(vars, cap, pairs) -> TruncPoly:
    """The sum of a*b over (a, b) pairs of TruncPolys in (vars, cap), built
    as one term dict. A term pair whose degrees sum above the cap is
    dropped, and the result is `truncated` when that happened or when an
    operand was truncated: the same value and flag as summing the products
    one by one."""
    # out[e] is [numerator, denominator] of the running sum at monomial e,
    # kept over the lcm of its product denominators as in RationalField.dot
    out = {}
    get = out.get
    truncated = False
    for a, b in pairs:
        if (a.vars != vars or b.vars != vars or a.cap != cap
                or b.cap != cap):
            raise RingMismatch(
                f"({a.vars}, cap {a.cap}) * ({b.vars}, cap {b.cap}) "
                f"in ({vars}, cap {cap})")
        if a.truncated or b.truncated:
            truncated = True
        bterms = [(e, sum(e), c.numerator, c.denominator)
                  for e, c in b.terms.items()]
        for e1, c1 in a.terms.items():
            room = cap - sum(e1)
            n1, d1 = c1.numerator, c1.denominator
            for e2, deg2, n2, d2 in bterms:
                if deg2 > room:
                    truncated = True
                    continue
                e = tuple(map(add, e1, e2))
                n, d = n1 * n2, d1 * d2
                acc = get(e)
                if acc is None:
                    out[e] = [n, d]
                    continue
                den = acc[1]
                if d != den:
                    g = gcd(den, d)
                    acc[0] *= d // g
                    n *= den // g
                    acc[1] = den * (d // g)
                acc[0] += n
    return TruncPoly._make(vars, cap,
                           {e: Fraction(n, d) for e, (n, d) in out.items()
                            if n},
                           truncated)


@dataclass(frozen=True)
class TruncPolyRing:
    """Q[t_1, ..., t_k] truncated at total degree `cap`; k = 0 gives constants.

    p-locality is a property of how downstream code uses the ring (integrality
    checks, unit tests against a chosen prime), not of the arithmetic here,
    which is plain exact rational arithmetic on sparse terms.
    """

    variables: tuple
    cap: int

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        if self.cap < 0:
            raise ValueError("cap must be >= 0")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"repeated variable in {self.variables}")

    def __repr__(self):
        vs = ",".join(self.variables) if self.variables else ""
        return f"Q[{vs}]<=deg {self.cap}"

    @property
    def zero(self):
        return TruncPoly(self.variables, self.cap, {})

    @property
    def one(self):
        return self.coerce(1)

    def var(self, name: str):
        if name not in self.variables:
            raise RingMismatch(f"{name!r} not among {self.variables}")
        e = tuple(1 if v == name else 0 for v in self.variables)
        if self.cap < 1:
            raise ValueError("cap too small to hold a variable")
        return TruncPoly(self.variables, self.cap, {e: rat(1)})

    def monomial(self, exps, coeff):
        return TruncPoly(self.variables, self.cap,
                         {tuple(exps): rat(coeff) if isinstance(coeff, int)
                          else coeff})

    def coerce(self, x):
        if isinstance(x, TruncPoly):
            if x.vars != self.variables or x.cap != self.cap:
                raise RingMismatch(f"{x.vars}/{x.cap} vs {self}")
            return x
        if isinstance(x, _SCALARS):
            return _const_like(self.zero, x)
        raise RingMismatch(f"cannot coerce {x!r} into {self}")

    def dot(self, pairs):
        return _dot(self.variables, self.cap, pairs)

    def invert(self, a):
        """Inverse when the constant term is nonzero: geometric series in the
        positive-degree part, exact because that part is nilpotent mod the
        degree cap."""
        c0 = a.constant_term()
        if not c0:
            raise NotAUnit("constant term is 0; not a unit in the truncated ring")
        if len(a.terms) == 1:
            # a constant, such as the slope's leading coefficient in every
            # Newton step of Series.solve: the series below stops at once
            return _const_like(a, 1 / c0)
        n = (a * rat(1, 1) - _const_like(a, c0)) * (-1 / c0)  # a = c0*(1 - n)
        out = self.one
        term = self.one
        for _ in range(self.cap):
            term = term * n
            if not term.terms:
                break
            out = out + term
        return out * (1 / c0)
