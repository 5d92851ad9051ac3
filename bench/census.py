"""Census workloads: operations, the correctness oracle and the trace points.

An operation is one user question. `run()` asks it the way a user does: a
`formalbrauer.cli.main` call where the command line reaches the question,
otherwise the public library call. It returns an outcome dict, which the
oracle checks.

The traced pass runs the same `run()` with the functions in `STAGES` wrapped
in place (see tracing.py), so the stages and their order are the program's
own. A stage is wrapped where the program looks it up, so that, for
example, the `beta_coefficient` call the CLI makes per cell is a span but the
calls `stienstra_log` makes for each beta are not.

This module imports `formalbrauer` at the top, so importing it is part of the
set-up the benchmark times.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

from formalbrauer import (
    Prime,
    RingPresentation,
    cli,
    fgl,
    hazewinkel_log,
    ideal_contains,
    k3brauer,
    landweber,
    landweber_check,
    named_quartic,
    p_series,
    series,
)

# (quartic, p, h_max) -> (kind, value, first_nonzero_degree), as the seed
# commit of the repository answered them.
FROZEN_HEIGHTS = {
    ("fermat", 5, 2): ("finite", 1, 5),
    ("fermat", 13, 2): ("finite", 1, 13),
    ("fermat", 7, 2): ("at_least", 2, None),
    ("fermat", 11, 2): ("at_least", 2, None),
    ("fermat", 5, 3): ("finite", 1, 5),
    ("fermat", 3, 3): ("at_least", 3, None),
    ("fermat", 3, 5): ("at_least", 5, None),
    ("diag-1248", 5, 2): ("finite", 1, 5),
    ("diag-1248", 13, 2): ("finite", 1, 13),
    ("diag-1248", 5, 3): ("finite", 1, 5),
    ("diag-1248", 7, 2): ("at_least", 2, None),
    ("diag-1248", 11, 2): ("at_least", 2, None),
    ("fermat-cross", 3, 3): ("at_least", 3, None),
    ("fermat-cross", 5, 2): ("finite", 1, 5),
    ("fermat-cross", 11, 1): ("at_least", 1, None),
    ("fermat-cross", 13, 1): ("finite", 1, 13),
}

# scenario -> (verdict, statuses of (v_0, ..., v_h)); the same at p = 3, 5, 7
FROZEN_SCENARIOS = {
    "zp-multiplicative": ("exact", ["regular", "unit"]),
    "hazewinkel-t1": ("exact", ["regular", "regular", "unit"]),
    "torsion": ("not_exact", ["zerodivisor", "unit"]),
}

# (quartic, ((p, h_max), ...)) of the two height workloads, split by verdict:
# Finite(1) cells, and AtLeast(h_max) cells that must build the whole
# window. fermat-cross is the nondiagonal quartic, whose betas come from the
# power_diagonal corridor rather than the closed form. No single cell takes
# more than about 1.5 s, so every one is sampled often enough within a run.
HEIGHT_CELLS = {
    "height-ordinary": (("fermat", ((5, 2), (13, 2), (5, 3))),
                        ("diag-1248", ((5, 2), (13, 2), (5, 3))),
                        ("fermat-cross", ((5, 2), (13, 1)))),
    "height-supersingular": (("fermat", ((7, 2), (11, 2), (3, 3), (3, 5))),
                             ("diag-1248", ((7, 2), (11, 2))),
                             ("fermat-cross", ((3, 3), (11, 1)))),
}


# ---------------------------------------------------------------------------
# trace points
# ---------------------------------------------------------------------------


def _bits(ps) -> dict:
    """Total bit length of the p-series coefficients, numerators plus
    denominators; polynomial coefficients count every term."""
    total = 0
    for c in ps.series.coeffs.values():
        for q in (c.terms.values() if hasattr(c, "terms") else (c,)):
            total += q.numerator.bit_length() + q.denominator.bit_length()
    return {"fgl.p_series_bits": total}


def _decided(verdicts) -> dict:
    return {"landweber.verdicts": len(verdicts),
            "landweber.decided": sum(v.status != "unknown" for v in verdicts)}


_here = sys.modules[__name__]

# (span name, counter of the result or None, places the program looks the
# function up); see Tracer.installed
STAGES = (
    ("cli.main", None, [(cli, "main")]),
    ("k3brauer.brauer_height", None, [(cli, "brauer_height")]),
    ("k3brauer.beta_p", None, [(cli, "beta_coefficient")]),
    ("k3brauer.stienstra_log",
     lambda blog: {"k3brauer.log_terms": len(blog.betas)},
     [(k3brauer, "stienstra_log"), (landweber, "stienstra_log")]),
    ("fgl.law_check", None, [(k3brauer, "fgl_from_log"),
                             (landweber, "fgl_from_log"),
                             (fgl.FormalGroupLaw, "verify_axioms")]),
    ("fgl.hazewinkel_log", None, [(_here, "hazewinkel_log")]),
    ("fgl.p_series", _bits, [(k3brauer, "p_series"), (landweber, "p_series"),
                             (_here, "p_series")]),
    ("series.reversion", None, [(series.Series, "reversion")]),
    ("series.compose", None, [(series.Series, "compose")]),
    ("fgl.reduce", None, [(fgl.PSeries, "reduce")]),
    ("fgl.height_scan", None, [(k3brauer, "height"), (landweber, "height")]),
    ("fgl.landweber_chain", None, [(landweber, "landweber_chain")]),
    ("fgl.ideal_contains", None, [(_here, "ideal_contains")]),
    ("landweber.scenario", None, [(cli, "builtin_scenario")]),
    ("landweber.check", None, [(cli, "landweber_check"),
                               (landweber, "landweber_check"),
                               (_here, "landweber_check")]),
    ("landweber.regular_sequence", _decided,
     [(landweber, "check_regular_sequence")]),
    ("landweber.certify", None, [(cli, "certify_k3_spectrum")]),
    ("landweber.certificate_json", None,
     [(landweber.K3SpectrumCertificate, "to_json_dict")]),
)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _cli(argv) -> tuple:
    """Run the CLI in-process; (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _outcome(verdict: str, pairs) -> dict:
    """Outcome of an exactness report from its (status, witness) pairs."""
    return {"verdict": verdict, "statuses": [s for s, _ in pairs],
            "witness": next((w for s, w in pairs if s == "zerodivisor"),
                            None)}


@dataclass
class Op:
    """One question of a workload. `expect` holds outcome fields that must
    match exactly; `checks` yields further named predicates on the outcome."""

    id: str
    expect: dict = field(default_factory=dict)

    def failures(self, outcome: dict) -> list:
        bad = [f"{k}: got {outcome.get(k)!r}, expected {v!r}"
               for k, v in self.expect.items() if outcome.get(k) != v]
        return bad + [name for name, ok in self.checks(outcome) if not ok]

    def checks(self, outcome: dict):
        return ()


@dataclass
class HeightOp(Op):
    """`formalbrauer height` on one (quartic file, prime, h_max) cell."""

    path: str = ""
    p: int = 3
    h_max: int = 1
    fermat: bool = False

    def run(self) -> dict:
        rc, text = _cli(["height", "--quartic", self.path, "--primes",
                         str(self.p), "--hmax", str(self.h_max),
                         "--format", "json", "--no-timestamp"])
        if rc:
            return {"exit": rc}
        row = json.loads(text)["rows"][0]
        return {"exit": rc, "kind": row["kind"], "value": row["value"],
                "degree": row["first_nonzero_degree"],
                "beta_p_mod_p": row["beta_p_mod_p"],
                "ordinary": row["ordinary"]}

    def checks(self, o: dict):
        yield "exit code 0", o.get("exit") == 0
        yield ("ordinary exactly when Finite(1)",
               o.get("ordinary") == (o.get("kind") == "finite"
                                     and o.get("value") == 1))
        if self.fermat:
            want = (("finite", 1, self.p) if self.p % 4 == 1
                    else ("at_least", self.h_max, None))
            yield ("Fermat: Finite(1) iff p = 1 mod 4",
                   (o.get("kind"), o.get("value"), o.get("degree")) == want)


@dataclass
class ScenarioOp(Op):
    scenario: str = ""
    p: int = 3

    def run(self) -> dict:
        rc, text = _cli(["landweber", "--scenario", self.scenario, "--p",
                         str(self.p), "--format", "json", "--no-timestamp"])
        if rc:
            return {"exit": rc}
        doc = json.loads(text)
        return {"exit": rc, **_outcome(doc["verdict"], [
            (v["status"], v["witness"]) for v in doc["verdicts"]])}


@dataclass
class CertifyOp(Op):
    p: int = 3
    h_max: int = 2

    def run(self) -> dict:
        rc, text = _cli(["certify", "--quartic", "fermat", "--ring", "zp",
                         "--p", str(self.p), "--hmax", str(self.h_max),
                         "--no-timestamp"])
        if rc:
            return {"exit": rc}
        return {"exit": rc, "verdict": json.loads(text)["report"]["verdict"]}


def _hazewinkel_log(R: RingPresentation, h: int):
    """The Hazewinkel log of v = (t_1, ..., t_k, 1) over R's parameters, at
    cap p^h + 1."""
    base = R.base_ring
    v = [base.var(t) for t in R.parameters] + [base.one]
    return hazewinkel_log(v, R.prime, R.p ** h + 1)


@dataclass
class HazewinkelOp(Op):
    """landweber_check on the Hazewinkel law v = (t_1, ..., t_k, 1) over
    Z_(3)[t_1..t_k]; the CLI has no command for it."""

    ring: RingPresentation = None
    h_max: int = 2

    def run(self) -> dict:
        report = landweber_check(self.ring,
                                 _hazewinkel_log(self.ring, self.h_max),
                                 self.h_max)
        return _outcome(report.verdict, [(v.status, v.witness)
                                         for v in report.verdicts])


@dataclass
class IdealChainOp(Op):
    """I_(p,n+1) = I_(p,n) + (v_n) for n <= 2, by mutual containment, for the
    Hazewinkel law v = (t_1, t_2, 1) over a two-parameter presentation."""

    ring: RingPresentation = None

    def run(self) -> dict:
        p, base = self.ring.prime, self.ring.base_ring
        ps = p_series(_hazewinkel_log(self.ring, 2), p, p.p ** 2 + 1)
        equal = []
        for n in range(3):
            lhs = [ps.a(i) for i in range(p.p ** n)]
            rhs = [ps.a(i) for i in range(0 if n == 0 else p.p ** (n - 1))]
            rhs.append(ps.v(n))
            equal.append(all(ideal_contains(rhs, x, p, base) for x in lhs)
                         and all(ideal_contains(lhs, x, p, base)
                                 for x in rhs))
        return {"equal": equal}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _height_ops(workload: str, work_dir: Path) -> list:
    """One op per cell; each quartic is written to a quartic file under
    work_dir and passed to the CLI by path."""
    work_dir.mkdir(parents=True, exist_ok=True)
    ops = []
    for name, cells in HEIGHT_CELLS[workload]:
        path = work_dir / f"{name}.quartic"
        path.write_text(named_quartic(name).dumps())
        for p, h in cells:
            kind, value, degree = FROZEN_HEIGHTS[(name, p, h)]
            ops.append(HeightOp(
                id=f"height {name} p={p} hmax={h}",
                expect={"exit": 0, "kind": kind, "value": value,
                        "degree": degree},
                path=str(path), p=p, h_max=h, fermat=name == "fermat"))
    return ops


def _landweber_ops() -> list:
    ops = [ScenarioOp(id=f"landweber {s} p={p}",
                      expect={"exit": 0, "verdict": verdict,
                              "statuses": statuses,
                              "witness": str(p) if s == "torsion" else None},
                      scenario=s, p=p)
           for s, (verdict, statuses) in FROZEN_SCENARIOS.items()
           for p in (3, 5, 7)]
    ops += [CertifyOp(id=f"certify fermat zp p={p}",
                      expect=({"exit": 0, "verdict": "exact"} if p != 7
                              else {"exit": cli.EXIT_REFUSED}), p=p)
            for p in (5, 13, 7)]
    three = Prime(3)
    for params, cap in ((("t1", "t2"), 12), (("t1", "t2", "t3"), 4)):
        R = RingPresentation(three, params, cap, (),
                             name=f"Z_(3)[{','.join(params)}]")
        h = len(params) + 1
        ops.append(HazewinkelOp(
            id=f"landweber_check hazewinkel {R.name} cap={cap}",
            expect={"verdict": "exact",
                    "statuses": ["regular"] * h + ["unit"]},
            ring=R, h_max=h))
    R = RingPresentation(three, ("t1", "t2"), 10, (), name="Z_(3)[t1,t2]")
    ops.append(IdealChainOp(id="ideal chain hazewinkel Z_(3)[t1,t2] cap=10",
                            expect={"equal": [True, True, True]}, ring=R))
    return ops


WORKLOADS = (*HEIGHT_CELLS, "landweber")


def build(workload: str, seed: int, work_dir: Path) -> list:
    """The operations of one workload, in an order drawn from the seed. The
    questions are fixed; the seed only orders them within each pass."""
    if workload in HEIGHT_CELLS:
        ops = _height_ops(workload, work_dir)
    elif workload == "landweber":
        ops = _landweber_ops()
    else:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"one of {', '.join(WORKLOADS)}")
    random.Random(seed).shuffle(ops)
    return ops
