"""Exactness certificates for formal group laws over presented local rings.

The criterion in play: over a p-local base, take Hazewinkel's generators
v_0 = p, v_1, v_2, ... of a law and ask that (p, v_1, ..., v_{h-1}) act as a
regular sequence with v_h a unit, where h is the height of the closed fibre.
The v_n are read off the logarithm's coefficients at T^(p^n) alone
(fgl.hazewinkel_generators); v_n is congruent mod (p, v_1, ..., v_{n-1}) to
the coefficient of T^(p^n) in [p](T), and the p-series stays only as the
oracle the tests compare against.
When that holds the law is exact (it defines a homology theory via the usual
base-change functor); when an element is a zerodivisor it is not; and when
the finite window cannot decide, the verdict says so instead of guessing.

Regularity is checked on presented rings: a prime p, formal parameters
t_1..t_k truncated at a total degree cap, and optional relations. The
presentation denotes the (p-local) polynomial ring observed through the
degree window, so truncation is never allowed to manufacture zerodivisors:
a torsion witness only counts when its defining product stayed inside the
window, and an element that vanishes only inside the window is Unknown.
Regular is certified by one criterion: an element of m = (p, t_1..t_k)
whose image in m/m^2 is independent of the earlier elements' images is part
of a regular system of parameters. Beside it stand units and explicit
torsion, and the checker answers Unknown elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product as _iproduct

from . import __version__
from .coefficients import QQ, Prime, TruncPoly, TruncPolyRing, val_p
from .errors import (
    CapTooSmall,
    CertificationRefused,
    NonIntegral,
    RingMismatch,
    SmoothnessCheckFailed,
)
from .fgl import (
    FormalGroupLaw,
    Logarithm,
    _p_integral,
    check_integral,
    closed_fibre_height,
    fgl_from_log,
    hazewinkel_log,
    ideal_contains,
    ideal_contains_all,
    log_from_fgl,
    standard_law,
    unit_at_closed_point,
)
from .k3brauer import (
    QuarticForm,
    brauer_generators,
    smooth_check_fp,
    stienstra_log,
)

# ---------------------------------------------------------------------------
# ring presentations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RingPresentation:
    """A p-local base ring given by generators and relations: parameters
    t_1..t_k truncated at total degree `cap`, modulo `relations`.

    No parameters and no relations is the p-local integers; no relations at
    all is a polynomial ring over them, torsion-free by construction."""

    prime: Prime
    parameters: tuple = ()
    cap: int = 8
    relations: tuple = ()
    name: str = ""

    def __post_init__(self):
        if not isinstance(self.prime, Prime):
            object.__setattr__(self, "prime", Prime(int(self.prime)))
        object.__setattr__(self, "parameters", tuple(self.parameters))
        object.__setattr__(self, "relations", tuple(self.relations))
        if self.cap < 1:
            raise ValueError("presentation cap must be >= 1")

    @property
    def p(self) -> int:
        return self.prime.p

    @cached_property
    def base_ring(self) -> TruncPolyRing:
        """The ring elements live in: Q[t_1..t_k] truncated at the cap. With
        no parameters that is the constants, so the p-local integers are the
        zero-parameter case and not a ring of their own. p-locality is
        enforced by the membership tests, not by the element arithmetic."""
        return TruncPolyRing(self.parameters, self.cap)

    def coerce(self, x) -> TruncPoly:
        return self.base_ring.coerce(x)

    @property
    def torsion_free(self) -> bool:
        """Declared torsion-freeness: decidable for the relation shapes
        accepted here. A relation whose smallest coefficient valuation is
        positive introduces p-torsion (p^k * rest = 0 with rest nonzero)."""
        for r in self.relations:
            vals = [val_p(c, self.prime) for c in self.coerce(r).terms.values()]
            if vals and min(vals) > 0:
                return False
        return True

    def describe(self) -> str:
        params = "".join(f"[{t}]" for t in self.parameters)
        rels = ", ".join(str(self.coerce(r)) for r in self.relations)
        body = f"Z_({self.p})-local{params}, degree cap {self.cap}"
        return f"{body} / ({rels})" if rels else body

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "parameters": list(self.parameters),
            "cap": self.cap,
            "relations": [str(self.coerce(r)) for r in self.relations],
            "torsion_free": self.torsion_free,
            "description": self.describe(),
        }

    def __repr__(self):
        return self.name or self.describe()


def zp_presentation(p, cap: int = 8, name: str = "") -> RingPresentation:
    return RingPresentation(Prime(int(p)), (), cap, (), name or f"Z_({int(p)})")


# ---------------------------------------------------------------------------
# regular sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegularityVerdict:
    """Outcome for one element of a would-be regular sequence. A zerodivisor
    verdict always carries its witness: a nonzero element annihilating the
    tested one."""

    status: str  # "regular" | "zerodivisor" | "unit" | "unknown"
    element: str
    witness: str | None = None
    reason: str = ""

    def __post_init__(self):
        if self.status not in ("regular", "zerodivisor", "unit", "unknown"):
            raise ValueError(f"bad status {self.status!r}")
        if self.status == "zerodivisor" and self.witness is None:
            raise ValueError("zerodivisor verdict needs a witness")

    def to_json_dict(self) -> dict:
        return {"element": self.element, "status": self.status,
                "witness": self.witness, "reason": self.reason}


def _contains(R: RingPresentation, gens, x) -> bool:
    return ideal_contains(gens, x, R.prime, R.base_ring)


def _fresh_pivot(R: RingPresentation, x: TruncPoly, basis: dict):
    """Reduce the image of x in m/m^2 = F_p t_1 + ... + F_p t_k + F_p p,
    coordinates in that order, against basis, which maps each pivot column
    to its row mod p, 1 at the pivot and 0 before it. When something is
    left, add it to basis and return its new pivot column (k for p);
    otherwise None. x is p-integral and not a unit at the closed point.

    A t_j coordinate is x's linear coefficient mod p, and the p coordinate
    its constant term over p, mod p; terms past the cap lie in m^2, so the
    image is exact at every cap. A nonzero constant p^a u that was not
    truncated is read as p, since powers of a regular sequence are regular
    (Matsumura 16.1); a truncated one is not, as its tail is unknown."""
    q, k = R.p, len(R.parameters)
    v = [0] * (k + 1)
    if x.terms and not x.truncated and x.total_degree() == 0:
        v[k] = 1
    else:
        for e, c in x.terms.items():
            if sum(e) == 1:
                v[e.index(1)] = c
        v[k] = x.constant_term() / q
        v = [c.numerator * pow(c.denominator, -1, q) % q for c in v]
    for j in sorted(basis):
        if v[j]:
            v = [(a - v[j] * b) % q for a, b in zip(v, basis[j])]
    j = next((j for j, a in enumerate(v) if a), None)
    if j is not None:
        inv = pow(v[j], -1, q)
        basis[j] = [a * inv % q for a in v]
    return j


def _torsion_witness(R: RingPresentation, gens, x):
    """Search for nonzero y with x*y in (gens) and y itself outside (gens).
    Candidates are p^a (a <= 6, so Z_(p)/(p^k) gets its witness p^(k-1) for
    every k <= 7) times monomials up to half the cap, in the order of a,
    then of the monomial; with no parameters the only monomial is 1. A
    witness is only accepted when the product x*y did not hit the truncation
    boundary; otherwise the vanishing could be an artifact of the window.
    The candidates of each power p^a and their products kept are asked
    about in one ideal_contains_all call, power after power, and the search
    stops at the first batch that holds a witness: the first candidate that
    qualifies. A monomial whose candidate lies in (gens) is dropped from
    the later powers, whose candidates lie there too."""
    ring = R.base_ring
    half = R.cap // 2
    exps = [e for e in _iproduct(range(half + 1), repeat=len(ring.variables))
            if sum(e) <= half]
    x = ring.coerce(x)
    if x.truncated:
        return None  # the element's own tail is unknown; stay honest
    for a in range(7):
        ys = [ring.monomial(e, R.p ** a) for e in exps]
        prods = {k: prod for k, prod in enumerate(x * y for y in ys)
                 if not prod.truncated}
        answers = ideal_contains_all(gens, ys + list(prods.values()),
                                     R.prime, ring)
        prod_in = dict(zip(prods, answers[len(ys):]))
        for k in prods:
            if prod_in[k] and not answers[k]:
                return ys[k]
        exps = [e for e, inside in zip(exps, answers) if not inside]
    return None


def check_regular_sequence(R: RingPresentation, elems) -> list:
    """Classify each element against the ideal of relations plus all earlier
    elements:

      * on relation-free presentations, while every earlier element was
        Regular: a p-integral non-unit whose image in m/m^2 is independent
        of the earlier elements' images (_fresh_pivot): Regular;
      * anything else congruent to 0: zerodivisor (witness 1), or unknown
        when the element was truncated and only its part inside the window
        is 0;
      * units modulo the earlier ideal: Unit; every later element is
        Unknown, as the quotient is then the zero ring, where 1 = 0;
      * explicit torsion found by the bounded search: Zerodivisor;

    and Unknown with a reason for everything else.

    Regular rests on one criterion. A = Z_(p)[t_1..t_k], local at
    m = (p, t_1, ..., t_k), is a regular local ring, so elements of m whose
    images in m/m^2 are independent are part of a regular system of
    parameters and form a regular sequence in any order (Matsumura,
    Commutative Ring Theory, 14.2 and 17.4); a constant p^a u in place of p
    keeps it regular (16.1). An element so certified needs no zero test: were
    it in the ideal of the earlier ones, its image would lie in the span of
    theirs.

    While the relations and elements are p-integral the collapse test ("1
    in the relations") and each unit test need no elimination: the ideal
    holds 1 exactly when one of its generators is a unit at the closed point
    (ideal_contains_all, which eliminates whenever p sits in some
    denominator). What is left costs one elimination per element not
    certified, for its zero test, and one per power of p its torsion search
    reaches; each pivots from the target and builds only the rows it
    touches."""
    verdicts = []
    gens = [R.coerce(r) for r in R.relations]
    basis: dict = {}  # the certified elements' images in m/m^2
    one = R.base_ring.one
    zero_ring = ("presentation collapses to the zero ring"
                 if _contains(R, gens, one) else "")
    for raw in elems:
        x = R.coerce(raw)
        label = str(x)
        if zero_ring:
            verdicts.append(RegularityVerdict("unknown", label,
                                              reason=zero_ring))
            continue
        if (not R.relations and len(basis) == len(verdicts)
                and _p_integral(x, R.prime)
                and not unit_at_closed_point(x, R.prime)
                and (j := _fresh_pivot(R, x, basis)) is not None):
            if x.total_degree() == 0 and not x.truncated:
                base = "free polynomial" if R.parameters else "torsion-free"
                reason = f"nonzero scalar on a {base} base"
            elif j < len(R.parameters):
                reason = (f"linear part contains fresh parameter "
                          f"{R.parameters[j]} with p-unit coefficient")
            else:
                reason = ("image in m/m^2 independent of the earlier "
                          "elements' images, with its pivot at p")
            verdicts.append(RegularityVerdict("regular", label,
                                              reason=reason))
        elif _contains(R, gens, x):
            verdicts.append(
                RegularityVerdict(
                    "unknown", label,
                    reason="element is 0 in the quotient inside the window, "
                           "but its terms past the cap were dropped")
                if x.truncated else RegularityVerdict(
                    "zerodivisor", label, witness=str(one),
                    reason="element is 0 in the quotient; 0 is never regular"))
        elif _contains(R, gens + [x], one):
            verdicts.append(RegularityVerdict(
                "unit", label,
                reason="1 lies in the ideal generated by this element and "
                       "its predecessors"))
            zero_ring = ("an earlier element is a unit, so the quotient "
                         "collapses to the zero ring")
        else:
            w = _torsion_witness(R, gens, x)
            if w is not None:
                verdicts.append(RegularityVerdict(
                    "zerodivisor", label, witness=str(w),
                    reason="explicit annihilation found within the window"))
            else:
                verdicts.append(RegularityVerdict(
                    "unknown", label,
                    reason="outside the certified criterion (an image in "
                           "m/m^2 independent of the earlier elements', on a "
                           "relation-free base), not a unit, and no torsion "
                           "found"))
        gens.append(x)
    return verdicts


# ---------------------------------------------------------------------------
# exactness reports
# ---------------------------------------------------------------------------

OTHER_PRIMES_NOTE = ("primes q != p are invertible in the p-local presentation;"
                     " q-regularity is automatic and not rechecked")


@dataclass
class LandweberReport:
    """Everything the exactness verdict rests on, in checkable form."""

    p: Prime
    ring: RingPresentation
    closed_fibre_height: object  # HeightResult
    vs: list = field(default_factory=list)
    chain_generators: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)
    stabilization: int | None = None
    verdict: str = "inconclusive"  # "exact" | "not_exact" | "inconclusive"
    reason: str = ""
    note_other_primes: str = OTHER_PRIMES_NOTE

    def to_json_dict(self) -> dict:
        h = self.closed_fibre_height
        return {
            "p": self.p.p,
            "ring": self.ring.to_json_dict(),
            "closed_fibre_height": {
                "kind": h.kind,
                "value": h.value,
                "first_nonzero_degree": h.first_nonzero_degree,
            },
            "vs": [str(v) for v in self.vs],
            "chain_generators": [[str(g) for g in gens]
                                 for gens in self.chain_generators],
            "verdicts": [v.to_json_dict() for v in self.verdicts],
            "stabilization": self.stabilization,
            "verdict": self.verdict,
            "reason": self.reason,
            "note_other_primes": self.note_other_primes,
        }


def landweber_check(R: RingPresentation, source, h_max: int
                    ) -> LandweberReport:
    """Exactness verdict for a law or logarithm over the presentation R.

    fgl.closed_fibre_height reads v_1, ..., v_(h_max) off the logarithm's
    coefficients at T^p, ..., T^(p^h_max), and stops at the first v_h that
    is a unit at the closed point: h is the height of the closed fibre. The
    source must reach degree p^h_max + 1. A law's logarithm is recovered by
    log_from_fgl as each coefficient is asked for, through T^(p^n) only, so
    a law whose closed fibre has height h costs the degrees up to p^h.

    The report classifies (p, v_1, ..., v_h): Exact requires Regular all
    the way up with v_h a Unit. A window that never shows a unit yields
    Inconclusive, because a larger h_max could still reveal one; torsion
    yields NotExact with its witness on display. The ideals
    (p, v_1, ..., v_n) and the classes of v_n modulo them are those of the
    law itself, since p-typification is a strict isomorphism. A v_n that is
    not p-integral raises NonIntegral, and so does a law given with a
    coefficient that is not. A logarithm l must pass the test every
    p-integral law over a torsion-free Z_(p)-algebra passes: l' is
    1/(dF/dY)(T, 0), so m * l_m is p-integral for every m through the
    window; NonIntegral names the first degree that fails. That test is
    necessary only, so over a parameter-free presentation, once the v_n are
    read, the logarithm's law is built through min(LAW_CAP, p^h_max + 1), as
    certify builds it, and a coefficient that is not p-integral raises
    NonIntegral. Over a presentation with parameters the law is not built:
    a logarithm that passes the m * l_m test may still have a law that is
    not p-integral.
    """
    p = R.prime
    if h_max < 1:
        raise ValueError("h_max must be >= 1")
    if isinstance(source, (Logarithm, FormalGroupLaw)):
        ring = source.ring
    else:
        raise RingMismatch(f"cannot run exactness on {type(source)}")
    if R.parameters:
        if ring != R.base_ring:
            raise RingMismatch(
                f"law ring {ring} does not match presentation {R.base_ring}")
    elif ring != QQ:
        raise RingMismatch(
            "parameter-free presentations expect rational coefficients")
    if isinstance(source, FormalGroupLaw):
        check_integral(source.F, p)

        def ell(d):  # the logarithm recovered through T^d only
            return log_from_fgl(source, d).series.coeff(d)
    else:
        ell = source.series.coeff
    window = p.p ** h_max + 1
    if source.cap < window:
        raise CapTooSmall(f"logarithm cap {source.cap} < window {window}")
    if isinstance(source, Logarithm):
        _check_differential(source.series, p, window)
    ells = (ell(p.p ** n) for n in range(1, h_max + 1))
    h, vs = closed_fibre_height(ells, p, h_max)
    if isinstance(source, Logarithm) and not R.parameters:
        fgl_from_log(source, min(LAW_CAP, window), integral_at=p)
    return _exactness_report(R, ring, h, vs)


def _check_differential(l, p: Prime, through: int):
    """Raise NonIntegral at the first degree m <= through at which m * l_m,
    a coefficient of l', is not p-integral."""
    q = p.p
    for (m,) in sorted(l.coeffs):
        if m > through:
            return
        c = l.coeffs[(m,)]
        if not _p_integral(c * m, p):
            raise NonIntegral(
                f"{m} times the logarithm's coefficient at T^{m} is not "
                f"{q}-integral ({c}), so no {q}-integral law has this "
                f"logarithm", degree=m, value=c)


def _exactness_report(R: RingPresentation, ring, h, vs) -> LandweberReport:
    """The report on (p, v_1, ..., v_n) for the closed-fibre height h and
    the v_n that closed_fibre_height read, elements of ring."""
    vs = [ring.coerce(R.p), *vs]
    report = LandweberReport(
        p=R.prime, ring=R, closed_fibre_height=h, vs=vs,
        chain_generators=[vs[:n] for n in range(len(vs))],
        verdicts=check_regular_sequence(R, vs))
    return _decide(report)


def _decide(report: LandweberReport) -> LandweberReport:
    """Set the verdict, its reason and the stabilization index."""
    h, verdicts = report.closed_fibre_height, report.verdicts
    if not h.is_finite:
        report.reason = (
            f"closed-fibre height exceeds h_max = {h.value} within cap "
            f"{report.p.p ** h.value + 1} "
            f"(candidate supersingular; no unit v_n observed in the window)")
        return report

    n_stab = h.value
    bad = next((v for v in verdicts if v.status == "zerodivisor"), None)
    if bad is not None:
        report.verdict = "not_exact"
        report.reason = (f"{bad.element} is a zerodivisor "
                         f"(witness {bad.witness}): the sequence is not regular")
        return report
    if (verdicts and verdicts[-1].status == "unit"
            and all(v.status == "regular" for v in verdicts[:-1])):
        report.verdict = "exact"
        report.stabilization = n_stab
        seq = ", ".join(["p"] + [f"v_{i}" for i in range(1, n_stab)])
        report.reason = (f"({seq}) regular and v_{n_stab} a unit"
                         if n_stab > 1 else "p regular and v_1 a unit")
        return report
    unknown = next((v for v in verdicts if v.status == "unknown"), None)
    report.reason = (unknown.reason if unknown is not None else
                     "verdict pattern does not match regular* unit: "
                     + ", ".join(v.status for v in verdicts))
    return report


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def _homotopy_shadow(pi0: str, line_note: str) -> dict:
    lines = [{"n": n, "degree": 2 * n, "rank": 1, "generator": f"u^{n}"}
             for n in range(-3, 4)]
    return {
        "even": True,
        "periodic": True,
        "pi0": pi0,
        "unit": "u invertible of degree 2",
        "lie": "the Lie algebra of the group law is dual to pi_2",
        "lines": lines,
        "line_note": line_note,
    }


@dataclass
class K3SpectrumCertificate:
    """The algebraic record of an even periodic ring attached to a quartic:
    base ring, surface, group law, the coordinate identification, the
    homotopy shadow R[u^{+-1}], and the exactness report that justifies it."""

    kind: str  # "p-local" | "rational"
    ring: RingPresentation | None
    surface: QuarticForm
    law: FormalGroupLaw
    iso: dict
    homotopy: dict
    report: LandweberReport | None

    def to_json_dict(self, timestamp: str | None = None) -> dict:
        ring_doc = (self.ring.to_json_dict() if self.ring is not None
                    else {"field": "Q", "description": "the rational numbers"})
        law_doc = {
            "vars": list(self.law.F.vars),
            "cap": self.law.cap,
            "provenance": self.law.provenance,
            "coefficients": [
                [e[0], e[1], str(self.law.F.coeffs[e])]
                for e in sorted(self.law.F.coeffs,
                                key=lambda e: (sum(e), e))
            ],
        }
        doc = {
            "schema": "formalbrauer.certificate/1",
            "kind": self.kind,
            "tool": {"name": "formalbrauer", "version": __version__},
        }
        if timestamp is not None:
            doc["generated_at"] = timestamp
        doc.update({
            "ring": ring_doc,
            "surface": {
                "name": self.surface.name,
                "terms": [list(e) + [self.surface.terms[e]]
                          for e in sorted(self.surface.terms, reverse=True)],
            },
            "law": law_doc,
            "iso": self.iso,
            "homotopy": self.homotopy,
            "report": (self.report.to_json_dict() if self.report is not None
                       else {"type": "rational-case",
                             "note": "no exactness check is needed over the "
                                     "rationals; the logarithm already "
                                     "trivializes the group law"}),
        })
        return doc


# the law a certificate embeds is rebuilt and checked through
# min(LAW_CAP, p^h_max + 1)
LAW_CAP = 10


def certify_k3_spectrum(R: RingPresentation, f: QuarticForm, h_max: int
                        ) -> K3SpectrumCertificate:
    """Certificate for the formal Brauer group of f over the p-local
    presentation R, refusing unless the exactness report comes back Exact.

    The report reads its v_n from brauer_generators, Hazewinkel's recursion
    on the single betas beta_(p^n), the v_n landweber_check reads off the
    logarithm's coefficients beta_(p^n) / p^n.
    Only an Exact report goes on to the embedded law, rebuilt from the
    logarithm l at min(LAW_CAP, p^h_max + 1) with p-integrality enforced,
    and checked against l: l(F(X,Y)) = l(X) + l(Y) through that cap
    (FormalGroupLaw.is_law_of), or ValueError. Since l = T + ..., that
    identity makes F commutative and F(F(X,Y),Z) = F(X,F(Y,Z)) =
    l^{-1}(l(X) + l(Y) + l(Z)) through the cap, so a certificate never
    carries a law that fails the axioms, nor one that is not l's. The
    logarithm is extracted through that cap only."""
    p = R.prime
    if R.parameters:
        raise RingMismatch(
            "quartic laws have rational coefficients; use a parameter-free "
            "presentation")
    report = _exactness_report(R, QQ, *brauer_generators(f, p, h_max))
    if report.verdict != "exact":
        raise CertificationRefused(
            f"cannot certify {f.name} over {R}: {report.reason}",
            report=report)
    law_cap = min(LAW_CAP, p.p ** h_max + 1)
    log = stienstra_log(f, law_cap).log
    law = fgl_from_log(log, law_cap, integral_at=p)
    if not law.is_law_of(log):
        raise ValueError("the law is not the law of its logarithm up to "
                         "the cap")
    iso = {
        "type": "coordinate-identification",
        "normalization": "identity on the logarithm coordinate",
        "note": "the group law is read in the coordinate singled out by the "
                "logarithm construction; recorded, not derived from geometry",
    }
    homotopy = _homotopy_shadow(
        pi0=R.describe(),
        line_note="free of rank 1 over pi_0 in every even degree")
    return K3SpectrumCertificate(
        kind="p-local", ring=R, surface=f, law=law, iso=iso,
        homotopy=homotopy, report=report)


SMOOTHNESS_PRIMES = (3, 5, 7, 11, 13)
RATIONAL_LAW_CAP = 8


def rational_certificate(f: QuarticForm) -> K3SpectrumCertificate:
    """Certificate over the rationals: the law is additive (characteristic
    zero), and every even line has rank 1 because the canonical bundle of a
    smooth quartic surface is trivial.

    Smoothness is decided exactly: the first prime of SMOOTHNESS_PRIMES at
    which smooth_check_fp finds the reduction smooth over the algebraic
    closure of F_p is recorded. A smooth reduction at one prime implies
    smoothness over the algebraic closure of Q. When no listed prime has a
    smooth reduction, the certificate is refused (SmoothnessCheckFailed)."""
    checked = next((q for q in SMOOTHNESS_PRIMES if smooth_check_fp(f, q)),
                   None)
    if checked is None:
        raise SmoothnessCheckFailed(
            f"{f.name}: no prime in {SMOOTHNESS_PRIMES} has a smooth "
            f"reduction; refusing the rational certificate")
    law = standard_law("additive", QQ, RATIONAL_LAW_CAP)
    iso = {
        "type": "coordinate-identification",
        "normalization": "Serre duality",
        "note": "the identification on Lie algebras is the Serre-duality "
                "pairing; recorded, not verified geometry",
        "smoothness_spot_check_prime": checked,
    }
    homotopy = _homotopy_shadow(
        pi0="Q",
        line_note="sections of powers of the canonical bundle; rank 1 in "
                  "every even degree since the canonical bundle is trivial")
    return K3SpectrumCertificate(
        kind="rational", ring=None, surface=f, law=law, iso=iso,
        homotopy=homotopy, report=None)


# ---------------------------------------------------------------------------
# built-in scenarios (shared by the CLI and the acceptance suite)
# ---------------------------------------------------------------------------


def builtin_scenario(name: str, p=3, h_max: int = 2):
    """(presentation, law-or-logarithm, h_max) for the named scenario, the
    law or logarithm built through degree p^h_max + 1."""
    p = p if isinstance(p, Prime) else Prime(int(p))
    cap = p.p ** h_max + 1
    if name == "zp-multiplicative":
        R = zp_presentation(p)
        return R, standard_law("multiplicative", QQ, cap), h_max
    if name == "hazewinkel-t1":
        R = RingPresentation(p, ("t",), 12, (), name=f"Z_({p.p})[t]")
        base = R.base_ring
        log = hazewinkel_log([base.var("t"), base.one], p, cap)
        return R, log, h_max
    if name == "torsion":
        R = RingPresentation(p, (), 8, (p.p ** 2,),
                             name=f"Z_({p.p})/(p^2)")
        return R, standard_law("multiplicative", QQ, cap), h_max
    raise ValueError(
        f"unknown scenario {name!r}; built-ins: zp-multiplicative, "
        f"hazewinkel-t1, torsion")


SCENARIOS = ("zp-multiplicative", "hazewinkel-t1", "torsion")
