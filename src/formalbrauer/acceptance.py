"""The acceptance suite: eight named checks covering the whole pipeline.

Each check is a pure function returning (ok, detail). The registry order is
stable; `run_checks` executes a selection and times each one. The default
profile runs the full advertised ranges; the tiny profile is a fast smoke
configuration of the same checks for quick iteration. Every check reads its
answers through the production routes (brauer_generators and
closed_fibre_height for heights, landweber_check for reports); the slower
p-series route is a test oracle and is not used here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter

from .coefficients import QQ, Prime, TruncPolyRing, rat
from .fgl import (
    closed_fibre_height,
    elliptic_fgl,
    elliptic_ss_oracle,
    fgl_from_log,
    hazewinkel_log,
    ideal_contains_all,
    standard_law,
)
from .k3brauer import (
    BUILTIN_QUARTICS,
    _evaluate,
    _projective_points,
    beta_coefficients,
    brauer_generators,
    brauer_height,
    named_quartic,
    power_diagonal,
    stienstra_log,
)
from .landweber import (
    builtin_scenario,
    landweber_check,
    rational_certificate,
    zp_presentation,
)
from .series import Series

SEED = 20260818


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    ok: bool
    detail: str
    seconds: float


def _caps(profile: str) -> dict:
    if profile == "default":
        return {
            "dichotomy_primes": ((5, 13, 17), (3, 7, 11)),
            "closed_form_cap": 17,
            "axiom_cap": 12,
            "elliptic_primes": (5, 7, 11, 13),
            "reparam_count": 5,
            "census": (
                ("fermat", (3, 5, 7, 11, 13), 2),
                ("diag-1248", (3, 5, 7, 11, 13), 2),
                ("fermat-cross", (3, 5, 7), 2),
                ("fermat-cross", (11, 13), 1),
            ),
        }
    if profile == "tiny":
        return {
            "dichotomy_primes": ((5,), (3,)),
            "closed_form_cap": 13,
            "axiom_cap": 8,
            "elliptic_primes": (5, 7),
            "reparam_count": 2,
            "census": (
                ("fermat", (3, 5), 2),
                ("fermat-cross", (3, 5), 2),
            ),
        }
    raise ValueError(f"unknown profile {profile!r}; use 'default' or 'tiny'")


# ---------------------------------------------------------------------------
# the eight checks
# ---------------------------------------------------------------------------


def check_fermat_dichotomy(profile: str):
    """Fermat heights split on p mod 4: Finite(1) when p = 1 (4), a height
    lower bound of 2 when p = 3 (4), and for p = 3 the bound climbs to 3 at
    h_max 3."""
    ordinary, super_candidates = _caps(profile)["dichotomy_primes"]
    f = named_quartic("fermat")
    rows = []
    ok = True
    for p in ordinary:
        r = brauer_height(f, p, 2)
        good = r.is_finite and r.value == 1
        ok = ok and good
        rows.append(f"p={p}: {r.describe()}")
    for p in super_candidates:
        r = brauer_height(f, p, 2)
        good = (not r.is_finite) and r.value == 2
        ok = ok and good
        rows.append(f"p={p}: {r.describe()}")
    if profile == "default":
        r = brauer_height(f, 3, 3)
        ok = ok and (not r.is_finite) and r.value == 3
        rows.append(f"p=3 h_max 3: {r.describe()}")
    return ok, "; ".join(rows)


def check_stienstra_closed_form(profile: str):
    """The single-beta extractor (BetaExtractor, whose diagonal case is the
    closed form) reproduces the corridor pass coefficientwise on every
    built-in quartic, and the landmark values land exactly."""
    cap = _caps(profile)["closed_form_cap"]
    ok = True
    for name in sorted(BUILTIN_QUARTICS):
        f = named_quartic(name)
        ok = ok and (list(beta_coefficients(f, range(1, cap + 1)))
                     == power_diagonal(f, cap - 1))
    f = named_quartic("fermat")
    closed = stienstra_log(f, cap)
    spots = (closed.beta(5) == 24 and closed.beta(9) == 2520
             and closed.beta(3) == 0
             and closed.log.series.coeff(5) == rat(24, 5)
             and closed.log.series.coeff(9) == rat(280))
    ok = ok and spots
    return ok, (f"extractor == corridor through degree {cap} on "
                f"{len(BUILTIN_QUARTICS)} quartics; "
                f"beta_5=24, beta_9=2520, beta_3=0")


def check_fgl_axioms(profile: str):
    """Unit, commutativity, associativity for the whole law menagerie."""
    cap = _caps(profile)["axiom_cap"]
    laws = {
        "additive": standard_law("additive", QQ, cap),
        "multiplicative": standard_law("multiplicative", QQ, cap),
        "fermat-p5": fgl_from_log(stienstra_log(named_quartic("fermat"), cap).log,
                                  cap, integral_at=Prime(5)),
        "elliptic-x3+x": elliptic_fgl((0, 0, 0, 1, 0), cap)[0],
        "elliptic-x3+1": elliptic_fgl((0, 0, 0, 0, 1), cap)[0],
    }
    ring = TruncPolyRing(("t",), cap)
    hz = hazewinkel_log([ring.var("t"), ring.one], Prime(3), cap)
    laws["hazewinkel-p3"] = fgl_from_log(hz, cap)
    bad = []
    for name, law in laws.items():
        if not law.is_commutative() or not law.is_associative():
            bad.append(name)
    ok = not bad
    detail = (f"{len(laws)} laws at cap {cap}: all axioms hold" if ok
              else f"axiom failures: {', '.join(bad)}")
    return ok, detail


def check_elliptic_oracle(profile: str):
    """The height closed_fibre_height reads off an elliptic logarithm's
    coefficients at T^p and T^(p^2) matches the point count: Finite(1) at
    ordinary primes; at supersingular ones Finite(2), witnessed in degree
    p^2, where h_max is 2 (p <= 7), and AtLeast(1) where it is 1.
    elliptic_fgl builds the law too, which takes seconds at cap p^2 + 1 for
    p = 11, so larger primes read T^p alone."""
    h_maxes = {p: 2 if p <= 7 else 1
               for p in _caps(profile)["elliptic_primes"]}
    cap = max(p ** h_max + 1 for p, h_max in h_maxes.items())
    curves = {"y^2=x^3+x": (0, 0, 0, 1, 0), "y^2=x^3+1": (0, 0, 0, 0, 1)}
    rows = []
    ok = True
    for cname, coeffs in curves.items():
        log = elliptic_fgl(coeffs, cap)[1].series
        for p, h_max in h_maxes.items():
            verdict = elliptic_ss_oracle(coeffs, Prime(p))
            ells = (log.coeff(p ** n) for n in range(1, h_max + 1))
            h, _ = closed_fibre_height(ells, Prime(p), h_max)
            if verdict == "ordinary":
                want = ("finite", 1, p)
            elif h_max == 2:
                want = ("finite", 2, p * p)
            else:
                want = ("at_least", 1, None)
            ok = ok and (h.kind, h.value, h.first_nonzero_degree) == want
            rows.append(f"{cname}@{p}: {verdict}/{h.kind} {h.value}")
    return ok, "; ".join(rows)


def _mutually_contained(side_a, side_b, p, ring) -> bool:
    """(side_a) = (side_b): one membership elimination per side."""
    return (all(ideal_contains_all(side_b, side_a, p, ring))
            and all(ideal_contains_all(side_a, side_b, p, ring)))


def check_coordinate_independence(profile: str):
    """landweber_check gives seeded unit reparameterizations of the
    height-2 Hazewinkel law v = (0, 1) over Z_(3) the base law's height,
    Finite(2) in degree 9, its statuses and its ideal (p, v_1)."""
    count = _caps(profile)["reparam_count"]
    rng = random.Random(SEED)
    p, cap, h_max = Prime(3), 10, 2
    R = zp_presentation(p)
    base_law = fgl_from_log(hazewinkel_log([0, 1], p, cap), cap)
    base = landweber_check(R, base_law, h_max)
    base_h = base.closed_fibre_height
    base_statuses = [v.status for v in base.verdicts]
    ok = (base_h.kind, base_h.value, base_h.first_nonzero_degree) == \
        ("finite", 2, 9)
    rows = [f"base: {base_h.describe()}, {base_statuses}"]
    units = [1, -1, 2, -2, 4, 5, 7]
    for k in range(count):
        u1 = units[rng.randrange(len(units))]
        coeffs = {(1,): rat(u1)}
        for d in range(2, 5):
            c = rng.randint(-3, 3)
            if c:
                coeffs[(d,)] = rat(c)
        u = Series(QQ, ("T",), cap, coeffs)
        rep = landweber_check(R, base_law.conjugate(u), h_max)
        same_height = rep.closed_fibre_height == base_h
        same_statuses = [v.status for v in rep.verdicts] == base_statuses
        same_ideal = _mutually_contained(rep.vs[:2], base.vs[:2], p, QQ)
        ok = ok and same_height and same_statuses and same_ideal
        rows.append(f"u{k + 1}(T)={u1}T+...: height "
                    f"{'=' if same_height else '!='}, statuses "
                    f"{'=' if same_statuses else '!='}, (p, v_1) "
                    f"{'=' if same_ideal else '!='}")
    return ok, "; ".join(rows)


def check_landweber_scenarios(profile: str):
    """The three built-in exactness scenarios land on their verdicts,
    statuses and stabilization, and the torsion one on its witness 3."""
    del profile
    expected = {
        "zp-multiplicative": ("exact", ["regular", "unit"], 1),
        "hazewinkel-t1": ("exact", ["regular", "regular", "unit"], 2),
        "torsion": ("not_exact", ["zerodivisor", "unit"], None),
    }
    rows = []
    ok = True
    for name, (want_verdict, want_statuses, want_stab) in expected.items():
        R, src, h_max = builtin_scenario(name, 3)
        rep = landweber_check(R, src, h_max)
        statuses = [v.status for v in rep.verdicts]
        good = (rep.verdict == want_verdict and statuses == want_statuses
                and rep.stabilization == want_stab)
        if name == "torsion" and good:
            witness = next(v.witness for v in rep.verdicts
                           if v.status == "zerodivisor")
            good = witness == "3"
            rows.append(f"{name}: {rep.verdict}, witness {witness}")
        else:
            rows.append(f"{name}: {rep.verdict}, {statuses}")
        ok = ok and good
    return ok, "; ".join(rows)


def check_rational_certificate(profile: str):
    """The rational certificate for the Fermat quartic matches the golden
    structure exactly."""
    del profile
    cert = rational_certificate(named_quartic("fermat"))
    doc = cert.to_json_dict()
    ok = doc == GOLDEN_RATIONAL_FERMAT
    if ok:
        names = [c for c in cert.law.F.coeffs]
        additive = sorted(names) == [(0, 1), (1, 0)]
        ranks = all(line["rank"] == 1 for line in doc["homotopy"]["lines"])
        serre = doc["iso"]["normalization"] == "Serre duality"
        ok = additive and ranks and serre
        return ok, ("golden match; additive law, rank-1 lines |n|<=3, "
                    "Serre-duality record")
    diffs = [k for k in GOLDEN_RATIONAL_FERMAT
             if doc.get(k) != GOLDEN_RATIONAL_FERMAT[k]]
    return False, f"certificate drifted from golden in fields: {diffs}"


def point_count(f, p: int) -> int:
    """#X(F_p) for the surface X = {f = 0} in P^3, point by point."""
    return sum(not _evaluate(f.terms, pt, p) for pt in _projective_points(p))


def check_point_count(profile: str):
    """On every census cell, v_1 = beta_p from brauer_generators satisfies
    #X(F_p) = 1 + beta_p (mod p). Summed over F_p^4, f^(p-1) keeps only its
    coefficient of (T0 T1 T2 T3)^(p-1), which is beta_p (Chevalley-Warning),
    so the congruence ties beta_p, and with it the height-1 verdict
    (Artin-Mazur), to the surface's points, whatever route computed it."""
    census = _caps(profile)["census"]
    rows = []
    ok = True
    for qname, primes, h_max in census:
        f = named_quartic(qname)
        for p in primes:
            h, vs = brauer_generators(f, p, h_max)
            points = point_count(f, p)
            good = (points - 1 - vs[0]) % p == 0
            ok = ok and good
            rows.append(f"{qname}@{p}: #X={points} "
                        f"{'=' if good else '!='} 1+beta_p, {h.kind} {h.value}")
    return ok, "; ".join(rows)


# registry order is the criterion order
CHECKS = {
    "fermat-dichotomy": check_fermat_dichotomy,
    "stienstra-closed-form": check_stienstra_closed_form,
    "fgl-axioms": check_fgl_axioms,
    "elliptic-oracle": check_elliptic_oracle,
    "coordinate-independence": check_coordinate_independence,
    "landweber-scenarios": check_landweber_scenarios,
    "rational-certificate": check_rational_certificate,
    "point-count": check_point_count,
}


def run_checks(names=None, profile: str = "default") -> list:
    if names is None:
        names = list(CHECKS)
    unknown = next((name for name in names if name not in CHECKS), None)
    if unknown is not None:
        raise ValueError(
            f"unknown check {unknown!r}; available: {', '.join(CHECKS)}")
    outcomes = []
    for name in names:
        start = perf_counter()
        try:
            ok, detail = CHECKS[name](profile)
        except Exception as exc:  # a crash is a failure with its message
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        outcomes.append(CheckOutcome(name, ok, detail, perf_counter() - start))
    return outcomes


# Frozen expected output of rational_certificate(fermat). Regenerating it is
# a deliberate act: the committed copy under tests/golden must move in the
# same commit.
GOLDEN_RATIONAL_FERMAT = {
    "schema": "formalbrauer.certificate/1",
    "kind": "rational",
    "tool": {"name": "formalbrauer", "version": "0.1.0"},
    "ring": {"field": "Q", "description": "the rational numbers"},
    "surface": {
        "name": "fermat",
        "terms": [
            [4, 0, 0, 0, 1],
            [0, 4, 0, 0, 1],
            [0, 0, 4, 0, 1],
            [0, 0, 0, 4, 1],
        ],
    },
    "law": {
        "vars": ["X", "Y"],
        "cap": 8,
        "provenance": "additive",
        "coefficients": [[0, 1, "1"], [1, 0, "1"]],
    },
    "iso": {
        "type": "coordinate-identification",
        "normalization": "Serre duality",
        "note": "the identification on Lie algebras is the Serre-duality "
                "pairing; recorded, not verified geometry",
        "smoothness_spot_check_prime": 3,
    },
    "homotopy": {
        "even": True,
        "periodic": True,
        "pi0": "Q",
        "unit": "u invertible of degree 2",
        "lie": "the Lie algebra of the group law is dual to pi_2",
        "lines": [
            {"n": -3, "degree": -6, "rank": 1, "generator": "u^-3"},
            {"n": -2, "degree": -4, "rank": 1, "generator": "u^-2"},
            {"n": -1, "degree": -2, "rank": 1, "generator": "u^-1"},
            {"n": 0, "degree": 0, "rank": 1, "generator": "u^0"},
            {"n": 1, "degree": 2, "rank": 1, "generator": "u^1"},
            {"n": 2, "degree": 4, "rank": 1, "generator": "u^2"},
            {"n": 3, "degree": 6, "rank": 1, "generator": "u^3"},
        ],
        "line_note": "sections of powers of the canonical bundle; rank 1 in "
                     "every even degree since the canonical bundle is trivial",
    },
    "report": {
        "type": "rational-case",
        "note": "no exactness check is needed over the rationals; the "
                "logarithm already trivializes the group law",
    },
}
