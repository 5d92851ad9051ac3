"""The p-series route to heights and exactness reports, kept as an oracle.

Exactness reports read Hazewinkel's v_n off the logarithm's p-power
coefficients (fgl.hazewinkel_generators). The route they replaced builds
[p](T) over the law's own coefficient ring on escalating windows, reads its
height at the closed point, and reads v_n = a_(p^n - 1), the coefficient of
T^(p^n), with I_(p,n) generated by the first p^(n-1) coefficients. It is
kept here, unchanged, so that the tests can check the two routes against
each other: the same closed-fibre height, the same ideals, and no status
that moves between regular or unit and zerodivisor.
"""

from dataclasses import dataclass, field

from formalbrauer import landweber
from formalbrauer.coefficients import Prime
from formalbrauer.errors import CapTooSmall
from formalbrauer.fgl import PSeries, height, p_series
from formalbrauer.landweber import LandweberReport, check_regular_sequence


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
