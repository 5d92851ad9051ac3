"""Command-line front end.

Four subcommands:

  height    heights of formal Brauer groups over a (quartic, prime) grid
  landweber exactness report for a built-in scenario or named law
  certify   emit a K3 spectrum certificate (p-local or rational)
  selftest  run the acceptance suite

Exit codes: 0 success, 1 usage error, 2 integrality abort, 3 certification
refused. Output is deterministic: with --no-timestamp the same invocation
produces byte-identical bytes (wall times are zeroed too, since they are
timing data of the same kind).

The process pool, csv, datetime and the acceptance suite are imported inside
the commands that use them: for a narrow question, start-up costs more than
the computation. For the same reason the argparse tree is built on the first
`main` call, not at import, and reused by every later call in the process,
and a quartic file costs one stat (`os.path.isfile`), one `os.open`,
`os.read` calls until end of file and one `os.close`, with no
`pathlib.Path`, no file object and no text-I/O layer. Timed cold, as the
census benchmark times an op (after its reference kernel and a
`gc.collect()`), a `Path` with `is_file`, `read_text` and `.stem` took about
280 us of a 0.9 ms height cell and a text-mode `open` 180 us; the stat and
read of fermat's file take 88-103 us through `open(ref, "rb",
buffering=0)` and 71-88 us through `os.read` (medians of 300 interleaved
calls, three runs, 2-core host, Python 3.11.7).

Two more fixed costs per question are cut the same way. `main` parses
well-formed argv itself: `_scan` takes exact long options of the named
command, each flag alone and each other option with one value that does not
start with '-', and converts, checks and stores every value through the
subcommand parser's own Action objects, as argparse does. Everything else
(help, an abbreviation, --opt=value, --, a value starting with '-', a bad
value, a missing required option, argv naming no command) goes to the root
parser's parse_args, the one source of help, usage and error text, so
every byte and exit code is that of a full parse. Timed cold as above, the
census's height argv parses in 231-260 us through the root parser and
58-69 us through `_scan`. And `_json` writes the indent-2 JSON of every
command: Python 3.10-3.13 use the C encoder only when `indent is None`
(json/encoder.py), so json.dumps(doc, indent=2) runs the pure-Python
generator encoder; `_json` gives its bytes with the C string encoder and
plain joins. Timed cold, interleaved (medians of 300 calls, three runs,
2-core host, Python 3.11.7), json.dumps against `_json` took 53-59 against
28-34 us on a height document, 64-90 against 36-54 us on a landweber report
and 160-171 against 101-114 us on a certificate.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from functools import cache
from json.encoder import encode_basestring_ascii
from pathlib import Path
from time import perf_counter

from . import __version__
from .coefficients import QQ, Prime, is_prime
from .errors import CapTooSmall, CertificationRefused, NonIntegral
from .k3brauer import (
    BUILTIN_QUARTICS,
    QuarticForm,
    brauer_generators,
    named_quartic,
)
from .landweber import (
    SCENARIOS,
    builtin_scenario,
    certify_k3_spectrum,
    landweber_check,
    rational_certificate,
    zp_presentation,
)
from .fgl import standard_law

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NONINTEGRAL = 2
EXIT_REFUSED = 3

HEIGHT_COLUMNS = ("quartic", "prime", "kind", "value",
                  "first_nonzero_degree", "beta_p_mod_p", "ordinary",
                  "wall_ms")
QUARTIC_HELP = ("built-in name (fermat, diag-1248, fermat-cross), which wins "
                "over a file of that name, or a quartic file: a path with "
                "'/', a name ending in .quartic, or any other existing file")


class _Parser(argparse.ArgumentParser):
    # usage problems are exit code 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


@cache
def _build_parser() -> _Parser:
    # Reusable across calls: the append options default to None, so argparse
    # starts a fresh list per parse, each parse fills a fresh namespace, and
    # error, usage and --version look up sys.stdout and sys.stderr when they
    # run.
    parser = _Parser(prog="formalbrauer",
                     description="formal Brauer groups of quartic surfaces: "
                                 "heights, exactness reports, certificates")
    parser.add_argument("--version", action="version",
                        version=f"formalbrauer {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    hp = sub.add_parser("height", help="height census over (quartic, prime)",
                        description="CSV columns: " + ",".join(HEIGHT_COLUMNS))
    hp.add_argument("--quartic", action="append", required=True,
                    metavar="NAME|PATH", help=QUARTIC_HELP + "; repeatable")
    hp.add_argument("--primes", required=True,
                    help="comma-separated odd primes, e.g. 5,13")
    hp.add_argument("--hmax", type=int, default=1,
                    help="height bound to certify up to (default 1)")
    hp.add_argument("--format", choices=("json", "csv", "text"),
                    default="text")
    hp.add_argument("--jobs", type=int, default=1,
                    help="parallel workers over grid cells")
    hp.add_argument("--out", type=Path, default=None,
                    help="write output here instead of stdout")
    hp.add_argument("--no-timestamp", action="store_true",
                    help="suppress timestamps and wall times for "
                         "byte-reproducible output")

    lp = sub.add_parser("landweber", help="exactness report")
    lp.add_argument("--scenario", choices=SCENARIOS, default=None)
    lp.add_argument("--ring", choices=("zp",), default=None,
                    help="presentation for --law (p-local integers)")
    lp.add_argument("--law", choices=("multiplicative", "additive"),
                    default=None)
    lp.add_argument("--p", type=int, default=3, help="the prime (default 3)")
    lp.add_argument("--hmax", type=int, default=2,
                    help="height bound (default 2)")
    lp.add_argument("--format", choices=("json", "csv", "text"),
                    default="text")
    lp.add_argument("--out", type=Path, default=None)
    lp.add_argument("--no-timestamp", action="store_true")

    cp = sub.add_parser("certify", help="emit a K3 spectrum certificate")
    cp.add_argument("--quartic", required=True, metavar="NAME|PATH",
                    help=QUARTIC_HELP)
    cp.add_argument("--rational", action="store_true",
                    help="certificate over the rationals")
    cp.add_argument("--ring", choices=("zp",), default=None)
    cp.add_argument("--p", type=int, default=None)
    cp.add_argument("--hmax", type=int, default=None,
                    help="height bound for --ring zp (default 2)")
    cp.add_argument("--out", type=Path, default=None)
    cp.add_argument("--no-timestamp", action="store_true")

    sp = sub.add_parser("selftest", help="run the acceptance suite")
    sp.add_argument("--only", action="append", default=None,
                    metavar="CHECK",
                    help="run a subset (comma-separated, repeatable); an "
                         "unknown name is an error that lists every check")
    # each subcommand's parser and its long options by name, for _scan; the
    # options map to the Action objects add_argument returned, help aside
    parser.commands = {
        name: (sub, {a.option_strings[0]: a for a in sub._actions
                     if a.dest != "help"})
        for name, sub in (("height", hp), ("landweber", lp),
                          ("certify", cp), ("selftest", sp))}
    return parser


def _scan(command, argv):
    """The namespace argparse would give well-formed argv, else None.

    `command` is an entry of the root parser's `commands`, and well-formed
    is as the module docstring says. Each value goes through its Action's
    type, choices and call, as in argparse.
    """
    sub, options = command
    ns = argparse.Namespace(command=argv[0])
    for action in options.values():
        setattr(ns, action.dest, action.default)
    seen = set()
    args = iter(argv[1:])
    for flag in args:
        action = options.get(flag)
        if action is None or action.nargs not in (None, 0):
            return None
        value = []
        if action.nargs is None:
            value = next(args, "-")     # a missing value is refused too
            if value.startswith("-"):
                return None
            if action.type is not None:
                try:
                    value = action.type(value)
                except (TypeError, ValueError):
                    return None
            if action.choices is not None and value not in action.choices:
                return None
        action(sub, ns, value, flag)
        seen.add(action)
    if any(a.required and a not in seen for a in options.values()):
        return None
    return ns


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _load_quartic(ref: str) -> QuarticForm:
    # built-in names hold no '/' and no .quartic, so they are read first
    if ref in BUILTIN_QUARTICS:
        return BUILTIN_QUARTICS[ref]
    # one stat decides; a directory or a FIFO is never opened (opening a
    # FIFO would block)
    if not os.path.isfile(ref):
        if "/" in ref or ref.endswith(".quartic"):
            raise ValueError(f"quartic file not found: {ref}")
        return named_quartic(ref)
    chunks = []
    try:
        fd = os.open(ref, os.O_RDONLY | getattr(os, "O_BINARY", 0))
        try:
            while chunk := os.read(fd, 1 << 16):
                chunks.append(chunk)
        finally:
            os.close(fd)
    except OSError as exc:
        raise ValueError(
            f"cannot read quartic file {ref}: {exc.strerror}") from None
    try:
        text = b"".join(chunks).decode("utf-8")
    except UnicodeDecodeError:
        raise ValueError(f"quartic file {ref} is not UTF-8 text") from None
    # the row name is Path(ref).stem: a final suffix is dropped only when
    # the dot is neither the name's first nor its last character
    name = os.path.basename(ref)
    dot = name.rfind(".")
    if 0 < dot < len(name) - 1:
        name = name[:dot]
    return QuarticForm.parse(text, name=name)


def _parse_primes(text: str) -> list:
    out = []
    for bit in text.split(","):
        bit = bit.strip()
        if not bit:
            continue
        try:
            p = int(bit)
        except ValueError:
            raise ValueError(f"not an integer prime: {bit!r}") from None
        if p == 2:
            raise ValueError(
                "p = 2 is not supported: the quartic theory here needs odd "
                "characteristic (char 2 requires a separate treatment)")
        if p < 3 or not is_prime(p):
            raise ValueError(f"need an odd prime >= 3, got {p}")
        out.append(p)
    if not out:
        raise ValueError("empty prime list")
    return out


def _json(x, depth: int = 0) -> str:
    """json.dumps(x, indent=2), byte for byte, by the C string encoder."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    items = []
    if isinstance(x, (list, tuple)):
        for v in x:
            items.append(_json(v, depth + 1))
        ends = "[]"
    elif isinstance(x, dict):
        for k, v in x.items():
            if not isinstance(k, str):
                # other keys are converted, or refused, by json itself
                text = json.dumps(x, indent=2)
                return text.replace("\n", "\n" + "  " * depth)
            items.append(encode_basestring_ascii(k) + ": "
                         + _json(v, depth + 1))
        ends = "{}"
    else:
        return json.dumps(x)    # floats, and the TypeError of other types
    if not items:
        return ends
    pad = "\n" + "  " * depth
    return ends[0] + pad + "  " + f",{pad}  ".join(items) + pad + ends[1]


def _check_out(out: Path | None):
    # refuse a missing directory before any work: stat of the parent with a
    # trailing separator fails as the write would, ENOENT for a missing
    # directory and ENOTDIR for a file
    if out is not None:
        try:
            os.stat(os.path.join(out.parent, ""))
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc.strerror}") from None


def _emit(text: str, out: Path | None):
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            out.write_text(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc.strerror}") from None


def _timestamp(suppress: bool) -> str | None:
    if suppress:
        return None
    from datetime import datetime, timezone
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


# ---------------------------------------------------------------------------
# height
# ---------------------------------------------------------------------------


def _height_cell(args):
    """One (quartic, prime) grid cell; top level so worker pools can run it."""
    f, p, h_max = args
    start = perf_counter()
    result, vs = brauer_generators(f, p, h_max)
    beta_p = int(vs[0]) % p     # v_1 = beta_p
    wall_ms = int((perf_counter() - start) * 1000)
    return {
        "quartic": f.name,
        "prime": p,
        "kind": result.kind,
        "value": result.value,
        "first_nonzero_degree": result.first_nonzero_degree,
        "beta_p_mod_p": beta_p,
        "ordinary": beta_p != 0,
        "wall_ms": wall_ms,
    }


def cmd_height(ns) -> int:
    quartics = [_load_quartic(q) for q in ns.quartic]
    primes = _parse_primes(ns.primes)
    if ns.hmax < 1:
        raise ValueError("--hmax must be >= 1")
    if ns.jobs < 1:
        raise ValueError("--jobs must be >= 1")
    _check_out(ns.out)
    cells = [(f, p, ns.hmax) for f in quartics for p in primes]
    # a pool forks all its workers up front, so never more than the cells
    workers = min(ns.jobs, len(cells))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_height_cell, cells))
    else:
        rows = [_height_cell(c) for c in cells]
    rows.sort(key=lambda r: (r["quartic"], r["prime"]))
    if ns.no_timestamp:
        for r in rows:
            r["wall_ms"] = 0
    if ns.format == "json":
        doc = {"schema": "formalbrauer.height/1"}
        stamp = _timestamp(ns.no_timestamp)
        if stamp is not None:
            doc["generated_at"] = stamp
        doc["rows"] = rows
        _emit(_json(doc), ns.out)
    elif ns.format == "csv":
        import csv
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=HEIGHT_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
        _emit(buf.getvalue(), ns.out)
    else:
        widths = {c: max(len(c), *(len(str(r[c])) for r in rows))
                  for c in HEIGHT_COLUMNS}
        lines = ["  ".join(c.ljust(widths[c]) for c in HEIGHT_COLUMNS)]
        for r in rows:
            lines.append("  ".join(str(r[c]).ljust(widths[c])
                                   for c in HEIGHT_COLUMNS))
        _emit("\n".join(lines), ns.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# landweber
# ---------------------------------------------------------------------------


def cmd_landweber(ns) -> int:
    if ns.p == 2:
        raise ValueError(
            "p = 2 is not supported: odd characteristic only")
    p = Prime(ns.p)
    if ns.scenario and (ns.ring or ns.law):
        raise ValueError("--scenario cannot be combined with --ring or --law")
    if ns.hmax < 1:
        raise ValueError("h_max must be >= 1")
    if not ns.scenario and not (ns.ring and ns.law):
        raise ValueError("need --scenario, or --ring together with --law")
    _check_out(ns.out)
    if ns.scenario:
        R, source, _ = builtin_scenario(ns.scenario, p, ns.hmax)
    else:
        R = zp_presentation(p)
        source = standard_law(ns.law, QQ, p.p ** ns.hmax + 1)
    report = landweber_check(R, source, ns.hmax)
    doc = report.to_json_dict()
    stamp = _timestamp(ns.no_timestamp)
    if stamp is not None:
        doc = {"generated_at": stamp, **doc}
    if ns.format == "json":
        _emit(_json(doc), ns.out)
    elif ns.format == "csv":
        import csv
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(("element", "status", "witness", "reason"))
        for v in report.verdicts:
            writer.writerow((v.element, v.status, v.witness or "", v.reason))
        _emit(buf.getvalue(), ns.out)
    else:
        lines = [
            f"ring:      {R}",
            f"p:         {report.p.p}",
            f"closed fibre: {report.closed_fibre_height.describe()}",
            f"v-sequence: {', '.join(str(v) for v in report.vs)}",
        ]
        for v in report.verdicts:
            extra = f" (witness {v.witness})" if v.witness else ""
            lines.append(f"  {v.element}: {v.status}{extra}")
        lines.append(f"verdict:   {report.verdict.upper()} - {report.reason}")
        lines.append(f"note:      {report.note_other_primes}")
        _emit("\n".join(lines), ns.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def cmd_certify(ns) -> int:
    if ns.rational and (ns.ring or ns.p is not None or ns.hmax is not None):
        raise ValueError(
            "--rational cannot be combined with --ring, --p or --hmax")
    f = _load_quartic(ns.quartic)
    if not ns.rational:
        if not ns.ring or ns.p is None:
            raise ValueError("need --rational, or --ring zp with --p")
        if ns.p == 2:
            raise ValueError("p = 2 is not supported: odd characteristic only")
        R = zp_presentation(Prime(ns.p))
    _check_out(ns.out)
    if ns.rational:
        cert = rational_certificate(f)
    else:
        h_max = ns.hmax if ns.hmax is not None else 2
        cert = certify_k3_spectrum(R, f, h_max)
    doc = cert.to_json_dict(timestamp=_timestamp(ns.no_timestamp))
    _emit(_json(doc), ns.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def cmd_selftest(ns) -> int:
    from .acceptance import run_checks
    names = None
    if ns.only:
        names = []
        for chunk in ns.only:
            names.extend(x.strip() for x in chunk.split(",") if x.strip())
    outcomes = run_checks(names)
    failures = 0
    for o in outcomes:
        mark = "PASS" if o.ok else "FAIL"
        print(f"{mark} {o.name} ({o.seconds:.2f}s)")
        if not o.ok:
            failures += 1
            print(f"     {o.detail}")
    total = sum(o.seconds for o in outcomes)
    print(f"{len(outcomes) - failures}/{len(outcomes)} checks passed "
          f"({total:.2f}s)")
    return EXIT_OK if failures == 0 else EXIT_USAGE


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    command = parser.commands.get(argv[0]) if argv else None
    ns = _scan(command, argv) if command is not None else None
    if ns is None:
        ns = parser.parse_args(argv)
    handlers = {
        "height": cmd_height,
        "landweber": cmd_landweber,
        "certify": cmd_certify,
        "selftest": cmd_selftest,
    }
    try:
        return handlers[ns.command](ns)
    except NonIntegral as exc:
        sys.stderr.write(f"integrality abort: {exc}\n")
        return EXIT_NONINTEGRAL
    except CertificationRefused as exc:
        sys.stderr.write(f"certification refused: {exc}\n")
        if exc.report is not None:
            sys.stderr.write(_json(exc.report.to_json_dict()))
            sys.stderr.write("\n")
        return EXIT_REFUSED
    except (ValueError, CapTooSmall) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
