"""The p-series route to heights and exactness reports, kept as an oracle.

Heights and exactness reports read Hazewinkel's v_n off the logarithm's
p-power coefficients (fgl.hazewinkel_generators, fgl.closed_fibre_height).
The route they replaced builds [p](T) over the law's own coefficient ring
on escalating windows, from a logarithm (fgl.p_series) or by the p-fold
iterate of a law, reads its height at the closed point (height), and reads
v_n = a_(p^n - 1), the coefficient of T^(p^n), with I_(p,n) generated by
the first p^(n-1) coefficients. It is kept here, unchanged, so that the
tests can check the two routes against each other: the same closed-fibre
height, the same ideals, and no status that moves between regular or unit
and zerodivisor.
"""

from dataclasses import dataclass, field

from formalbrauer import fgl, landweber
from formalbrauer.coefficients import Prime
from formalbrauer.errors import CapTooSmall, FormalBrauerError
from formalbrauer.fgl import (
    FormalGroupLaw,
    HeightResult,
    PSeries,
    check_integral,
    unit_at_closed_point,
)
from formalbrauer.landweber import LandweberReport, check_regular_sequence
from formalbrauer.series import Series


class FirstNonzeroNotPPower(FormalBrauerError):
    """The reduced p-series has its first nonzero term in a degree that is
    not a power of p; the input was not a formal group p-series."""


def p_series(source, p: Prime, cap: int) -> PSeries:
    """[p](T) by fgl.p_series when given a Logarithm, or by the p-fold
    iterate F(... F(F(T,T),T) ..., T) when given a law: the independent
    cross-check at small caps."""
    if not isinstance(source, FormalGroupLaw):
        return fgl.p_series(source, p, cap)
    p = p if isinstance(p, Prime) else Prime(int(p))
    if source.cap < cap:
        raise CapTooSmall(f"law cap {source.cap} < requested {cap}")
    F = source.F.truncate(cap)
    t = Series.variable(source.ring, cap, "T")
    acc = t
    for _ in range(p.p - 1):
        acc = F.subst([acc, t])
    return PSeries(p, acc)


def height(ps: PSeries, h_max: int) -> HeightResult:
    """Height of the closed fibre of a p-series, read at the closed point
    (every parameter set to 0, then mod p) of its p-local base.

    The first coefficient, in degree order, that is not p-integral raises
    NonIntegral. Otherwise the first coefficient that is a unit at the
    closed point decides: in degree p^h it gives Finite(h), elsewhere
    FirstNonzeroNotPPower. With none through the cap: AtLeast(h_max), which
    needs cap >= p^h_max to be meaningful.
    """
    check_integral(ps.series, ps.p)
    p = ps.p.p
    if ps.cap < p ** h_max:
        raise CapTooSmall(
            f"cap {ps.cap} < p^h_max = {p ** h_max}; cannot certify AtLeast({h_max})")
    for (d,), c in sorted(ps.series.coeffs.items()):
        if not unit_at_closed_point(c, ps.p):
            continue
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
    windows p^1 + 1, p^2 + 1, ... below cap, then at cap, and read at the
    closed point; the first window whose height is finite gives the verdict.
    Only a series with no unit at the closed point goes on to the full cap,
    where the scan certifies AtLeast(h_max). A series at cap N is exact
    through degree N, so the verdict is the one the full-cap window gives.
    Integrality is checked through the window the verdict was read from: a
    p-denominator above the witnessing degree is not looked for.
    """
    p = p if isinstance(p, Prime) else Prime(int(p))
    k = 1
    while True:
        window = min(p.p ** k + 1, cap)
        ps = p_series(source, p, window)
        if window == cap:
            return ps, height(ps, h_max)
        h = height(ps, k)
        if h.is_finite:
            return ps, h
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


def p_series_report(R, source, h_max) -> LandweberReport:
    """The exactness report as the p-series route gives it: the height from
    escalating_height through p^h_max + 1, (v_0, ..., v_h) and the chain
    from landweber_chain, and the same classification and verdict rules as
    landweber_check."""
    ps, h = escalating_height(source, R.prime, h_max, R.p ** h_max + 1)
    chain = landweber_chain(ps, h.value)
    report = LandweberReport(
        p=R.prime, ring=R, closed_fibre_height=h, vs=chain.vs,
        chain_generators=chain.generators,
        verdicts=check_regular_sequence(R, chain.vs))
    return landweber._decide(report)
