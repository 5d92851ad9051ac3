"""Acceptance gate: every check in the built-in suite must pass, one line
of output per check (run with -s or -v to watch them go by)."""

import ast
import contextlib
import io
from pathlib import Path

import pytest

import formalbrauer
from formalbrauer import acceptance, cli
from formalbrauer.acceptance import CHECKS, run_checks


@pytest.mark.parametrize("name", list(CHECKS))
def test_acceptance(name):
    outcome = run_checks([name], profile="default")[0]
    status = "PASS" if outcome.ok else "FAIL"
    print(f"{status} {outcome.name} ({outcome.seconds:.2f}s): {outcome.detail}")
    assert outcome.ok, f"{outcome.name}: {outcome.detail}"


def test_point_count_fails_on_a_wrong_beta_p(monkeypatch):
    real = acceptance.brauer_generators

    def beta_p_off_by_one(f, p, h_max):
        h, vs = real(f, p, h_max)
        return h, [vs[0] + 1, *vs[1:]]

    monkeypatch.setattr(acceptance, "brauer_generators", beta_p_off_by_one)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["selftest", "--caps", "tiny", "--only", "point-count"])
    assert code == 1
    assert out.getvalue().startswith("FAIL point-count")
    assert "#X=16 != 1+beta_p" in out.getvalue()


def test_selftest_reads_no_p_series_oracle():
    # the p-series height reader is the tests' oracle, not package API
    for name in ("height", "FirstNonzeroNotPPower"):
        assert not hasattr(formalbrauer, name)
        assert name not in formalbrauer.__all__
    # and no acceptance check reaches the p-series, by import or attribute
    tree = ast.parse(Path(acceptance.__file__).read_text())
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            used.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    assert not used & {"p_series", "PSeries", "height"}
