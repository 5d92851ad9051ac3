"""Command-line behavior: formats, exit codes, determinism, parallel grids."""

import concurrent.futures
import csv
import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from formalbrauer import __version__, acceptance, cli, k3brauer
from formalbrauer.errors import NonIntegral
from formalbrauer.k3brauer import beta_coefficient, named_quartic

GOLDEN_PATH = Path(__file__).parent / "golden" / "rational_fermat.json"
HEIGHT_GRID_PATH = Path(__file__).parent / "golden" / "height_grid.json"
LANDWEBER_PATH = Path(__file__).parent / "golden" / "landweber_reports.json"


def run(argv):
    return cli.main(argv)


# ---------------------------------------------------------------------------
# height
# ---------------------------------------------------------------------------


def test_height_text_table(capsys):
    code = run(["height", "--quartic", "fermat", "--primes", "5,13",
                "--hmax", "1", "--no-timestamp"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split()[:3] == ["quartic", "prime", "kind"]
    assert len(lines) == 3
    assert "finite" in lines[1]


def test_height_json_rows(capsys):
    code = run(["height", "--quartic", "fermat", "--quartic", "diag-1248",
                "--primes", "5", "--format", "json", "--no-timestamp"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "formalbrauer.height/1"
    assert "generated_at" not in doc
    rows = doc["rows"]
    assert [r["quartic"] for r in rows] == ["diag-1248", "fermat"]  # sorted
    assert all(r["prime"] == 5 and r["kind"] == "finite" for r in rows)
    assert all(r["ordinary"] is True and r["wall_ms"] == 0 for r in rows)


def test_height_csv_matches_declared_columns(capsys):
    code = run(["height", "--quartic", "fermat", "--primes", "3",
                "--hmax", "2", "--format", "csv", "--no-timestamp"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert tuple(rows[0]) == cli.HEIGHT_COLUMNS
    assert rows[0]["kind"] == "at_least"
    assert rows[0]["value"] == "2"
    assert rows[0]["ordinary"] == "False"


def test_height_json_default_carries_timestamp(capsys):
    code = run(["height", "--quartic", "fermat", "--primes", "5",
                "--format", "json"])
    assert code == 0
    assert "generated_at" in json.loads(capsys.readouterr().out)


def test_height_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["height", "--quartic", "fermat-cross", "--primes", "3,5",
            "--format", "json", "--no-timestamp"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_height_parallel_equals_serial(tmp_path):
    ser, par = tmp_path / "ser.json", tmp_path / "par.json"
    argv = ["height", "--quartic", "fermat", "--quartic", "diag-1248",
            "--primes", "5,13", "--format", "json", "--no-timestamp"]
    assert run(argv + ["--out", str(ser)]) == 0
    assert run(argv + ["--jobs", "3", "--out", str(par)]) == 0
    assert ser.read_bytes() == par.read_bytes()


def test_height_fermat_cross_beta_p_rows(capsys):
    # the beta_p column is beta_coefficient(f, p) mod p, and ordinary
    # exactly when it is nonzero
    code = run(["height", "--quartic", "fermat-cross", "--primes",
                "3,5,7,11,13", "--hmax", "1", "--format", "json",
                "--no-timestamp"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    got = [(r["prime"], r["beta_p_mod_p"], r["ordinary"]) for r in rows]
    assert got == [(3, 0, False), (5, 4, True), (7, 0, False),
                   (11, 0, False), (13, 11, True)]
    cross = named_quartic("fermat-cross")
    assert all(b == beta_coefficient(cross, p) % p for p, b, _ in got)


HEIGHT_GRID = json.loads(HEIGHT_GRID_PATH.read_text())


@pytest.mark.parametrize("label", sorted(HEIGHT_GRID))
def test_height_grid_matches_frozen_output(label, capsys):
    # `height --format json --no-timestamp` on the census grid, frozen from
    # the window route over [p] mod p; the v_p(beta_(p^n)) criterion must
    # print the same bytes, witness degrees and beta_p column included
    cell = HEIGHT_GRID[label]
    assert run(cell["argv"]) == 0
    assert capsys.readouterr().out == cell["stdout"]


def test_height_grid_in_parallel_matches_frozen_output(capsys):
    for label, cell in sorted(HEIGHT_GRID.items()):
        assert run(cell["argv"] + ["--jobs", "2"]) == 0, label
        assert capsys.readouterr().out == cell["stdout"], label


@pytest.mark.parametrize("quartics,primes,jobs,pool", [
    (["fermat"], "5", "64", []),             # one cell: serial, no pool
    (["fermat"], "5,13", "64", [2]),
    (["fermat", "diag-1248"], "5,13", "3", [3]),
], ids=["one-cell", "two-cells", "four-cells"])
def test_height_jobs_are_capped_at_the_cell_count(quartics, primes, jobs,
                                                  pool, monkeypatch, capsys):
    # a pool forks all max_workers up front, so asking for more than the
    # cells would fork idle workers; the recorder maps serially and forks
    # nothing
    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, cells):
            return map(fn, cells)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    argv = ["height", *(a for q in quartics for a in ("--quartic", q)),
            "--primes", primes, "--format", "json", "--no-timestamp"]
    assert run(argv + ["--jobs", jobs]) == 0
    parallel = capsys.readouterr().out
    assert asked == pool
    assert run(argv) == 0
    assert parallel == capsys.readouterr().out
    assert asked == pool


def test_height_cell_builds_one_extractor(monkeypatch, capsys):
    # beta_p mod p is read off the extraction the height already makes
    built = []

    class Counting(k3brauer.BetaExtractor):
        def __init__(self, f):
            built.append(f.name)
            super().__init__(f)

    monkeypatch.setattr(k3brauer, "BetaExtractor", Counting)
    assert run(["height", "--quartic", "fermat", "--quartic", "fermat-cross",
                "--primes", "3,5,13", "--hmax", "2", "--format", "json",
                "--no-timestamp"]) == 0
    assert len(json.loads(capsys.readouterr().out)["rows"]) == 6
    assert sorted(built) == ["fermat"] * 3 + ["fermat-cross"] * 3


def test_height_reads_quartic_file(tmp_path, capsys):
    qf = tmp_path / "mine.quartic"
    qf.write_text("# diagonal\n4 0 0 0 1\n0 4 0 0 1\n0 0 4 0 1\n0 0 0 4 2\n")
    code = run(["height", "--quartic", str(qf), "--primes", "5",
                "--format", "json", "--no-timestamp"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rows"][0]["quartic"] == "mine"


def test_builtin_name_wins_over_a_file_of_that_name(tmp_path, monkeypatch,
                                                    capsys):
    """A file called fermat in the working directory does not replace the
    built-in fermat; ./fermat, or a file under a name that is no built-in,
    is still read."""
    def rows(ref):
        assert run(["height", "--quartic", ref, "--primes", "5,13,17,29",
                    "--format", "json", "--no-timestamp"]) == 0
        return [{k: v for k, v in r.items() if k != "quartic"}
                for r in json.loads(capsys.readouterr().out)["rows"]]

    fermat, cross = rows("fermat"), rows("fermat-cross")
    assert fermat != cross
    cross_terms = named_quartic("fermat-cross").dumps()
    (tmp_path / "fermat").write_text(cross_terms)
    (tmp_path / "mine").write_text(cross_terms)
    monkeypatch.chdir(tmp_path)
    assert rows("fermat") == fermat
    assert rows("./fermat") == cross
    assert rows("mine") == cross


# ---------------------------------------------------------------------------
# landweber and certify
# ---------------------------------------------------------------------------


LANDWEBER_REPORTS = json.loads(LANDWEBER_PATH.read_text())


@pytest.mark.parametrize("label", sorted(LANDWEBER_REPORTS))
def test_landweber_reports_match_frozen_output(label, capsys):
    # `landweber` and `certify --ring zp` under --no-timestamp, refusals
    # (exit 3, report on stderr) included; the v_n shown are Hazewinkel's
    # generators, read off the logarithm's coefficients at T^(p^n)
    cell = LANDWEBER_REPORTS[label]
    code = run(cell["argv"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (cell["exit"], cell["stdout"], cell["stderr"])


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_p_equals_two_is_a_usage_error(capsys):
    code = run(["height", "--quartic", "fermat", "--primes", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert "p = 2" in err and "characteristic" in err


def test_composite_prime_is_a_usage_error(capsys):
    assert run(["height", "--quartic", "fermat", "--primes", "15"]) == 1
    assert "odd prime" in capsys.readouterr().err


def test_unknown_quartic_is_a_usage_error(capsys):
    assert run(["height", "--quartic", "nope", "--primes", "5"]) == 1
    assert "unknown quartic" in capsys.readouterr().err


def test_bad_quartic_file_is_a_usage_error(tmp_path, capsys):
    qf = tmp_path / "bad.quartic"
    qf.write_text("4 0 0 0\n")
    assert run(["height", "--quartic", str(qf), "--primes", "5"]) == 1


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_a_usage_error(jobs, capsys):
    code = run(["height", "--quartic", "fermat", "--primes", "5",
                "--jobs", jobs])
    out, err = capsys.readouterr()
    assert code == 1
    assert "--jobs must be >= 1" in err
    assert out == ""


def test_argparse_usage_problems_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["bogus-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        run(["height", "--primes", "5"])    # missing --quartic
    assert exc.value.code == 1


def test_nonintegral_abort_exits_two(monkeypatch, capsys):
    def boom(*a, **k):
        raise NonIntegral("synthetic abort", degree=9, value=None)
    monkeypatch.setattr(cli, "brauer_generators", boom)
    code = run(["height", "--quartic", "fermat", "--primes", "5"])
    assert code == 2
    assert "integrality abort" in capsys.readouterr().err


def test_certification_refused_exits_three(capsys):
    code = run(["certify", "--quartic", "fermat", "--ring", "zp", "--p", "3",
                "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 3
    assert "certification refused" in captured.err
    # the refusal carries the full report for inspection
    payload = captured.err.split("\n", 1)[1]
    assert json.loads(payload)["verdict"] == "inconclusive"


# ---------------------------------------------------------------------------
# landweber
# ---------------------------------------------------------------------------


def test_landweber_scenario_text(capsys):
    code = run(["landweber", "--scenario", "hazewinkel-t1", "--p", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "EXACT" in out
    assert "v-sequence: 3, 1*t, 1" in out    # v = (t, 1), as built


def test_landweber_torsion_json(capsys):
    code = run(["landweber", "--scenario", "torsion", "--p", "3",
                "--format", "json", "--no-timestamp"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "not_exact"
    assert doc["verdicts"][0]["witness"] == "3"
    assert "generated_at" not in doc


def test_landweber_direct_law_csv(capsys):
    code = run(["landweber", "--ring", "zp", "--law", "multiplicative",
                "--p", "5", "--format", "csv", "--no-timestamp"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [r["status"] for r in rows] == ["regular", "unit"]


def test_landweber_needs_scenario_or_law(capsys):
    assert run(["landweber", "--p", "3"]) == 1
    assert run(["landweber", "--p", "2", "--scenario", "torsion"]) == 1


@pytest.mark.parametrize("route", [["--scenario", "torsion"],
                                   ["--ring", "zp", "--law", "multiplicative"]])
def test_landweber_hmax_below_one_is_a_usage_error(route, capsys):
    # checked before the law's window p^h_max + 1 is built from it
    code = run(["landweber", *route, "--hmax", "-1"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "h_max must be >= 1" in err
    assert out == ""


def test_landweber_scenario_hmax_alone_sets_the_window(capsys):
    # the scenario's logarithm is built through 3^3 + 1 = 28, so h_max 3
    # needs no further option
    code = run(["landweber", "--scenario", "hazewinkel-t1", "--p", "3",
                "--hmax", "3", "--format", "json", "--no-timestamp"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["verdict"], doc["stabilization"]) == ("exact", 2)


@pytest.mark.parametrize("command", [
    ["landweber", "--scenario", "hazewinkel-t1"],
    ["certify", "--quartic", "fermat", "--ring", "zp", "--p", "5"]])
def test_cap_is_not_an_option(command, capsys):
    # h_max alone sets the window p^h_max + 1
    with pytest.raises(SystemExit) as exc:
        run([*command, "--cap", "10"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --cap 10" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [["--ring", "zp"], ["--law", "additive"],
                                   ["--ring", "zp", "--law", "additive"]])
def test_landweber_scenario_with_a_law_is_a_usage_error(extra, capsys):
    # --ring and --law would be ignored beside a scenario
    code = run(["landweber", "--scenario", "torsion", *extra])
    out, err = capsys.readouterr()
    assert code == 1
    assert "--scenario cannot be combined with --ring or --law" in err
    assert out == ""


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def test_certify_rational_matches_golden(tmp_path):
    out = tmp_path / "cert.json"
    code = run(["certify", "--quartic", "fermat", "--rational",
                "--no-timestamp", "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == GOLDEN_PATH.read_bytes()


def test_certify_p_local_exact(capsys):
    code = run(["certify", "--quartic", "fermat", "--ring", "zp", "--p", "5",
                "--no-timestamp"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "p-local"
    assert doc["report"]["verdict"] == "exact"
    assert "generated_at" not in doc


def test_certify_timestamp_by_default(capsys):
    code = run(["certify", "--quartic", "fermat", "--rational"])
    assert code == 0
    assert "generated_at" in json.loads(capsys.readouterr().out)


def test_certify_requires_a_mode(capsys):
    assert run(["certify", "--quartic", "fermat"]) == 1


def test_height_and_certify_agree_on_a_quartic_p_divides(tmp_path, capsys):
    # 3 * fermat has no reduction mod 3: a usage error for both commands,
    # not a refused certificate
    qf = tmp_path / "triple.quartic"
    qf.write_text(k3brauer.QuarticForm(
        {e: 3 * c for e, c in named_quartic("fermat").terms.items()},
        name="triple").dumps())
    for argv in (["height", "--quartic", str(qf), "--primes", "3"],
                 ["certify", "--quartic", str(qf), "--ring", "zp", "--p",
                  "3", "--no-timestamp"]):
        code = run(argv)
        out, err = capsys.readouterr()
        assert code == 1, argv
        assert "3 divides every coefficient of triple" in err
        assert out == ""


@pytest.mark.parametrize("extra", [["--ring", "zp"], ["--p", "7"],
                                   ["--ring", "zp", "--p", "7"],
                                   ["--hmax", "5"]])
def test_certify_rational_with_p_local_options_is_a_usage_error(extra,
                                                                 capsys):
    # --ring, --p and --hmax would be ignored by the rational certificate
    code = run(["certify", "--quartic", "fermat", "--rational", *extra])
    out, err = capsys.readouterr()
    assert code == 1
    assert "--rational cannot be combined with --ring, --p or --hmax" in err
    assert out == ""


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def test_selftest_tiny_passes(capsys):
    code = run(["selftest", "--caps", "tiny"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 8
    assert "8/8 checks passed" in out


def test_selftest_only_subset(capsys):
    code = run(["selftest", "--caps", "tiny", "--only",
                "fermat-dichotomy,point-count"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 2


def test_selftest_unknown_check(capsys):
    assert run(["selftest", "--only", "nope"]) == 1
    # the help text does not list the checks, so the error must
    err = capsys.readouterr().err
    assert all(name in err for name in acceptance.CHECKS)


def test_selftest_rejects_unknown_names_before_any_check_runs(monkeypatch,
                                                              capsys):
    ran = []
    monkeypatch.setitem(acceptance.CHECKS, "fgl-axioms",
                        lambda profile: ran.append(profile) or (True, ""))
    assert run(["selftest", "--only", "fgl-axioms,nope"]) == 1
    out, err = capsys.readouterr()
    assert ran == []
    assert "unknown check 'nope'" in err
    assert out == ""


def test_selftest_reports_failures(monkeypatch, capsys):
    from formalbrauer.acceptance import CheckOutcome

    def fake(names=None, profile="default"):
        return [CheckOutcome("fermat-dichotomy", False, "synthetic", 0.0)]
    monkeypatch.setattr(acceptance, "run_checks", fake)
    code = run(["selftest"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL fermat-dichotomy" in out
    assert "synthetic" in out


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------


def test_reused_parser_carries_nothing_from_one_call_to_the_next(capsys):
    height = ["height", "--primes", "5", "--format", "json",
              "--no-timestamp"]
    assert run(height + ["--quartic", "fermat", "--quartic",
                         "diag-1248"]) == 0
    assert len(json.loads(capsys.readouterr().out)["rows"]) == 2
    assert run(height + ["--quartic", "fermat"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["quartic"] for r in rows] == ["fermat"]

    selftest = ["selftest", "--caps", "tiny", "--only"]
    assert run(selftest + ["fermat-dichotomy"]) == 0
    assert run(selftest + ["point-count"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in out] == [
        ["PASS", "fermat-dichotomy"], ["1/1", "checks"],
        ["PASS", "point-count"], ["1/1", "checks"]]

    # a usage error right after a success still prints usage to stderr
    with pytest.raises(SystemExit) as exc:
        run(["height", "--primes", "5"])
    out, err = capsys.readouterr()
    assert exc.value.code == 1
    assert out == ""
    assert err.startswith("usage: formalbrauer height ")
    assert "the following arguments are required: --quartic" in err

    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr() == (f"formalbrauer {__version__}\n", "")


# ---------------------------------------------------------------------------
# start-up
# ---------------------------------------------------------------------------


DEFERRED = ("concurrent.futures", "multiprocessing", "csv", "datetime",
            "formalbrauer.acceptance")

# Runs in a fresh interpreter, since this one has already imported some of
# DEFERRED and built the parser: counts the argparse parsers built, imports
# the package and its CLI, then runs one command per deferred import,
# printing which of DEFERRED are loaded, and the progs of the parsers built
# so far, before the first command and after each.
STARTUP_PROBE = textwrap.dedent("""
    import argparse, contextlib, io, json, sys
    built = []
    init = argparse.ArgumentParser.__init__
    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)
    argparse.ArgumentParser.__init__ = counting_init
    import formalbrauer, formalbrauer.cli
    deferred = json.loads(sys.argv[1])
    commands = json.loads(sys.argv[2])
    seen = [([m for m in deferred if m in sys.modules], list(built))]
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            code = formalbrauer.cli.main(argv)
        assert code == 0, (argv, code)
        seen.append(([m for m in deferred if m in sys.modules], list(built)))
    print(json.dumps(seen))
""")


def test_startup_defers_imports_to_the_commands_that_use_them():
    height = ["height", "--quartic", "fermat", "--primes", "5,13",
              "--no-timestamp"]
    commands = [height + ["--format", "json"],
                height + ["--format", "csv"],
                height[:-1] + ["--format", "json"],
                height + ["--jobs", "2"],
                ["selftest", "--only", "fermat-dichotomy", "--caps", "tiny"]]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, json.dumps(DEFERRED),
         json.dumps(commands)],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout)
    # no parser at import; one tree, root and four subcommands, on the
    # first command, reused by the other four
    tree = ["formalbrauer", "formalbrauer height", "formalbrauer landweber",
            "formalbrauer certify", "formalbrauer selftest"]
    assert [built for _, built in steps] == [[]] + [tree] * len(commands)
    seen = [set(loaded) for loaded, _ in steps]
    assert seen == [
        set(),                                   # import only
        set(),                                   # json, no timestamp
        {"csv"},
        {"csv", "datetime"},                     # timestamp
        {"csv", "datetime", "concurrent.futures", "multiprocessing"},
        set(DEFERRED),                           # selftest
    ]
