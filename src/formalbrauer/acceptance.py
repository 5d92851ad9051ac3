"""The acceptance suite: ten named checks covering the whole pipeline.

Each check is a pure function returning (ok, detail). The registry order is
stable; `run_checks` executes a selection and times each one. The default
profile runs the full advertised ranges; the tiny profile is a fast smoke
configuration of the same checks for quick iteration.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter

from .coefficients import QQ, Prime, TruncPolyRing, rat
from .fgl import (
    fgl_from_log,
    hazewinkel_log,
    height,
    ideal_contains_all,
    log_from_fgl,
    p_series,
    standard_law,
    elliptic_fgl,
    elliptic_ss_oracle,
)
from .k3brauer import (
    BUILTIN_QUARTICS,
    beta_coefficients,
    brauer_height,
    named_quartic,
    power_diagonal,
    stienstra_log,
)
from .landweber import builtin_scenario, landweber_check, rational_certificate
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
            "route_primes": (3, 5),
            "elliptic_primes": (5, 7, 11, 13),
            "chain_primes": (3, 5),
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
            "route_primes": (3,),
            "elliptic_primes": (5, 7),
            "chain_primes": (3,),
            "reparam_count": 2,
            "census": (
                ("fermat", (3, 5), 2),
                ("fermat-cross", (3, 5), 2),
            ),
        }
    raise ValueError(f"unknown profile {profile!r}; use 'default' or 'tiny'")


# ---------------------------------------------------------------------------
# the ten checks
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


def check_p_series_routes(profile: str):
    """The logarithm route and the p-fold iterate produce the same p-series,
    and for the built-in quartics the height read from v_p(beta_(p^n))
    (brauer_height) equals the one read from the logarithm route's p-series
    at the closed point, at windows p^2 + 1."""
    primes = _caps(profile)["route_primes"]
    rows = []
    ok = True
    for p in primes:
        cap = p + 3
        law = standard_law("multiplicative", QQ, cap)
        via_law = p_series(law, Prime(p), cap)
        via_log = p_series(log_from_fgl(law), Prime(p), cap)
        same_mult = via_law.series == via_log.series
        ring = TruncPolyRing(("t",), cap)
        hz = hazewinkel_log([ring.var("t"), ring.one], Prime(p), cap)
        hz_law = fgl_from_log(hz, cap)
        same_hz = p_series(hz_law, Prime(p), cap).series == \
            p_series(hz, Prime(p), cap).series
        window = p * p + 1
        same_heights = True
        for qname in ("fermat", "diag-1248", "fermat-cross"):
            f = named_quartic(qname)
            ps = p_series(stienstra_log(f, window).log, Prime(p), window)
            same_heights = same_heights and (
                brauer_height(f, p, 2) == height(ps, 2))
        ok = ok and same_mult and same_hz and same_heights
        rows.append(f"p={p}: multiplicative {same_mult}, hazewinkel {same_hz}"
                    f", quartic heights through {window} {same_heights}")
    return ok, "; ".join(rows)


def check_elliptic_oracle(profile: str):
    """Formal-group heights match the point-count classification."""
    primes = _caps(profile)["elliptic_primes"]
    curves = {"y^2=x^3+x": (0, 0, 0, 1, 0), "y^2=x^3+1": (0, 0, 0, 0, 1)}
    rows = []
    ok = True
    for cname, coeffs in curves.items():
        _, log = elliptic_fgl(coeffs, max(primes) + 1)
        for p in primes:
            verdict = elliptic_ss_oracle(coeffs, Prime(p))
            ps = p_series(log, Prime(p), p + 1)
            h = height(ps, 1)
            agree = (h.is_finite and h.value == 1) == (verdict == "ordinary")
            ok = ok and agree
            rows.append(f"{cname}@{p}: {verdict}/{h.kind}")
    return ok, "; ".join(rows)


def _mutually_contained(side_a, side_b, p, ring) -> bool:
    """(side_a) = (side_b): one membership elimination per side."""
    return (all(ideal_contains_all(side_b, side_a, p, ring))
            and all(ideal_contains_all(side_a, side_b, p, ring)))


def check_ideal_chain(profile: str):
    """I_(p,n+1) = I_(p,n) + (v_n) as an equality of ideals for n <= 2."""
    primes = _caps(profile)["chain_primes"]
    rows = []
    ok = True
    for p in primes:
        cap = p * p + 1
        cases = {"multiplicative":
                 p_series(standard_law("multiplicative", QQ, cap), Prime(p), cap)}
        ring = TruncPolyRing(("t",), 12)
        hz = hazewinkel_log([ring.var("t"), ring.one], Prime(p), cap)
        cases["hazewinkel"] = p_series(hz, Prime(p), cap)
        for name, ps in cases.items():
            good = True
            for n in range(3):
                lhs = [ps.a(i) for i in range(p ** n)]
                rhs = ([ps.a(i) for i in range(0 if n == 0 else p ** (n - 1))]
                       + [ps.v(n)])
                good = good and _mutually_contained(lhs, rhs, Prime(p), ps.ring)
            ok = ok and good
            rows.append(f"{name}@{p}: {'=' if good else '!='}")
    return ok, "; ".join(rows)


def check_coordinate_independence(profile: str):
    """Height verdicts and the second chain ideal survive random unit
    reparameterizations of the coordinate."""
    count = _caps(profile)["reparam_count"]
    rng = random.Random(SEED)
    p, cap = 3, 10
    base_law = standard_law("multiplicative", QQ, cap)
    base_ps = p_series(log_from_fgl(base_law), Prime(p), cap)
    base_h = height(base_ps, 1)
    base_gens = [base_ps.a(i) for i in range(p)]
    ok = base_h.is_finite and base_h.value == 1
    rows = [f"base: {base_h.describe()}"]
    units = [1, -1, 2, -2, 4, 5, 7]
    for k in range(count):
        u1 = units[rng.randrange(len(units))]
        coeffs = {(1,): rat(u1)}
        for d in range(2, 5):
            c = rng.randint(-3, 3)
            if c:
                coeffs[(d,)] = rat(c)
        u = Series(QQ, ("T",), cap, coeffs)
        conj = base_law.conjugate(u)
        ps = p_series(log_from_fgl(conj), Prime(p), cap)
        h = height(ps, 1)
        gens = [ps.a(i) for i in range(p)]
        same_height = h.kind == base_h.kind and h.value == base_h.value
        same_ideal = _mutually_contained(gens, base_gens, Prime(p), QQ)
        ok = ok and same_height and same_ideal
        rows.append(f"u{k + 1}(T)={u1}T+...: height {'=' if same_height else '!='}"
                    f", ideal {'=' if same_ideal else '!='}")
    return ok, "; ".join(rows)


def check_landweber_scenarios(profile: str):
    """The three built-in exactness scenarios land on their verdicts, and at
    each n up to the closed-fibre height the report's ideal
    (p, v_1, ..., v_n) equals the p-series ideal (a_0, ..., a_(p^n - 1))."""
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
        ps = p_series(src, Prime(3), 3 ** h_max + 1)
        good = good and all(
            _mutually_contained(rep.vs[:n + 1],
                                [ps.a(i) for i in range(3 ** n)],
                                Prime(3), ps.ring)
            for n in range(len(rep.vs)))
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


def check_height_bound(profile: str):
    """No computed finite height may exceed 10 anywhere in the census."""
    census = _caps(profile)["census"]
    rows = []
    ok = True
    for qname, primes, h_max in census:
        f = named_quartic(qname)
        for p in primes:
            r = brauer_height(f, p, h_max)
            if r.is_finite and r.value > 10:
                ok = False
                rows.append(f"{qname}@{p}: height {r.value} EXCEEDS 10")
            else:
                rows.append(f"{qname}@{p}: {r.kind} {r.value}")
    return ok, "; ".join(rows)


# registry order is the criterion order
CHECKS = {
    "fermat-dichotomy": check_fermat_dichotomy,
    "stienstra-closed-form": check_stienstra_closed_form,
    "fgl-axioms": check_fgl_axioms,
    "p-series-routes": check_p_series_routes,
    "elliptic-oracle": check_elliptic_oracle,
    "ideal-chain": check_ideal_chain,
    "coordinate-independence": check_coordinate_independence,
    "landweber-scenarios": check_landweber_scenarios,
    "rational-certificate": check_rational_certificate,
    "height-bound": check_height_bound,
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
