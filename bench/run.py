"""Census benchmark for formalbrauer.

    python3 bench/run.py --workload height-ordinary --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`, nothing needs installing. One process, one thread. The workloads,
metric names and units are those of BENCHMARK.json at the root; see
bench/README.md for what each one measures and why.

With `--trace 0` the run times each operation of the workload, pass after
pass, until `--seconds` would be exceeded, and reports the end-to-end
metrics. With `--trace 1` each operation is also run a second time with the
program's stage functions wrapped in spans, and the run reports the
per-layer metrics. Either way every outcome is checked against the oracle,
and the last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}. The exit code is 0 when every outcome was
correct, 1 when some were not, and 2 when the benchmark could not run at all.

Spans, per-operation times and the environment record are written under
`.bench_work/` at the root.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 11
# the reference kernel's nominal time; see scaled()
REFERENCE_S = 0.010
SELF_LAYERS = ("k3brauer", "fgl", "series", "landweber")
STAGE_METRICS = ("k3brauer.stienstra_log", "k3brauer.beta_p",
                 "fgl.law_check", "fgl.p_series", "fgl.reduce",
                 "fgl.height_scan", "fgl.ideal_contains",
                 "landweber.regular_sequence", "landweber.certify",
                 "landweber.certificate_json")


def _load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def reference() -> float:
    """Seconds a fixed pure-Python kernel takes now: Fraction arithmetic on
    growing integers and dict updates, the mix the program spends its time
    on. It does not touch formalbrauer, so no change to the program moves
    it; only the host's speed does. The garbage collector is off while it
    runs: a collection it set off would scan the heap the program left, and
    time that instead."""
    gc.disable()
    try:
        start = perf_counter()
        x, acc = Fraction(1), Fraction(0)
        for i in range(1, 300):
            x = x * Fraction(i + 1, i + 2) + Fraction(1, i)
            acc += x
        d = {}
        for i in range(15000):
            k = (i % 977, i % 13)
            d[k] = d.get(k, 0) + i * i
        return perf_counter() - start
    finally:
        gc.enable()


def scaled(step):
    """Run step() between two calls of the reference kernel; returns (its
    result, its time in seconds, its time scaled to a host on which the
    kernel takes REFERENCE_S). A shared host's speed can drift by a fifth
    and more over tens of seconds; the program and the kernel slow down
    together, so the scaled time holds still."""
    before = reference()
    start = perf_counter()
    out = step()
    took = perf_counter() - start
    after = reference()
    return out, took, took * REFERENCE_S * 2 / (before + after)


def drop_modules(baseline: set):
    """Forget every module loaded since `baseline` was taken, and collect
    them, so that the next set-up pays the full import cost a user pays."""
    for name in set(sys.modules) - baseline:
        del sys.modules[name]
    gc.collect()


def set_up(workload: str, seed: int, work_dir: Path) -> tuple:
    """Import formalbrauer, through census, and build the workload's
    operations; returns (census module, operations)."""
    census = importlib.import_module("census")
    return census, census.build(workload, seed, work_dir)


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "formalbrauer").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    backend = importlib.import_module("formalbrauer").rat(1)
    return {
        "python": platform.python_version(),
        "rational_backend": f"{type(backend).__module__}.{type(backend).__qualname__}",
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Run:
    """The passes of one run: samples, oracle failures, traced totals."""

    def __init__(self, ops, stages, tracer: Tracer | None):
        self.ops = ops
        self.stages = stages
        self.tracer = tracer
        self.samples = {op.id: [] for op in ops}   # (seconds, scaled)
        self.attempted = 0
        self.failures = []
        self.walls = []      # (seconds, scaled) of each pass, untraced
        self.passes = []     # per traced pass: dict of per-layer values

    def one_pass(self):
        tr = self.tracer
        if tr is not None:
            s0, c0 = len(tr.spans), len(tr.counts)
        plain = scaled_sum = traced = 0.0
        for op in self.ops:
            self.attempted += 1
            why, (took, took_scaled, traced_took) = self._attempt(op)
            if why:
                self.failures.append({"op": op.id, "why": "; ".join(why)})
            plain += took
            scaled_sum += took_scaled
            traced += traced_took
        self.walls.append((plain, scaled_sum))
        if tr is not None:
            self.passes.append(self._layer_metrics(tr.totals(s0, c0), plain,
                                                   traced))

    def _attempt(self, op) -> tuple:
        """Ask one question, and again traced when tracing; returns the
        reasons it failed, if it did, and (untraced time, its scaled time,
        traced time), zeros if it raised."""
        steps = [("untraced", lambda: scaled(op.run))]
        if self.tracer is not None:
            steps.append(("traced", lambda: self._traced(op)))
            if len(self.walls) % 2:
                # every other pass runs traced first, so that neither side
                # always runs on a heap the other has just warmed up
                steps.reverse()
        done = {}
        for name, step in steps:
            gc.collect()
            try:
                done[name] = step()
            except Exception as exc:  # an operation that raised is a failure
                return ([f"{name} run raised {type(exc).__name__}: {exc}"],
                        (0.0, 0.0, 0.0))
        out, took, took_scaled = done["untraced"]
        self.samples[op.id].append((took, took_scaled))
        why = op.failures(out)
        traced_took = 0.0
        if self.tracer is not None:
            again, traced_took = done["traced"]
            if again != out:
                why.append(f"traced run gave {again!r}, untraced {out!r}")
        return why, (took, took_scaled, traced_took)

    def _traced(self, op) -> tuple:
        self.tracer.op = op.id
        with self.tracer.installed(self.stages):
            start = perf_counter()
            out = op.run()
            return out, perf_counter() - start

    @staticmethod
    def _layer_metrics(totals, plain, traced) -> dict:
        dur, own, under = totals["duration"], totals["self"], totals["under"]
        counts = totals["counts"]
        out = {f"{name}_s": dur.get(name, 0.0) for name in STAGE_METRICS}
        for half in ("reversion", "compose"):
            out[f"series.{half}_s"] = under.get(
                f"fgl.p_series>series.{half}", 0.0)
        for layer in SELF_LAYERS:
            out[f"{layer}.self_s"] = sum((v for k, v in own.items()
                                          if k.split(".")[0] == layer), 0.0)
        out["k3brauer.log_terms"] = counts.get("k3brauer.log_terms", 0)
        out["fgl.p_series_bits"] = counts.get("fgl.p_series_bits", 0)
        attempted = counts.get("landweber.verdicts", 0)
        out["landweber.decided_ratio"] = (
            counts.get("landweber.decided", 0) / attempted if attempted else 0.0)
        out["cli.overhead_s"] = own.get("cli.main", 0.0)
        out["trace.untraced_wall_s"] = plain
        out["trace.overhead_s"] = traced - plain
        return out

    def measure(self, seconds: float):
        """Passes until the next one would end after `seconds`; at least one."""
        start = perf_counter()
        longest = 0.0
        while True:
            t = perf_counter()
            self.one_pass()
            longest = max(longest, perf_counter() - t)
            if perf_counter() - start + longest > seconds:
                return


def main(argv=None) -> int:
    baseline = set(sys.modules)
    spec = _load_spec()
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    ap = argparse.ArgumentParser(description="formalbrauer census benchmark")
    ap.add_argument("--workload", required=True,
                    help="one of the workloads in BENCHMARK.json")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tamper", action="store_true",
                    help="give the first operation a deliberately wrong "
                         "expectation, to show that failures are counted")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    work_dir = WORK / f"{args.workload}-seed{args.seed}"
    setups = []      # (seconds, scaled) of each set-up

    def timed_set_up():
        drop_modules(baseline)
        (census, ops), took, took_scaled = scaled(
            lambda: set_up(args.workload, args.seed, work_dir))
        setups.append((took, took_scaled))
        return census, ops

    try:
        census, ops = timed_set_up()
    except ImportError as exc:
        sys.stderr.write(f"cannot import formalbrauer from {SRC}: {exc}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    loaded = Path(census.cli.__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        sys.stderr.write(f"formalbrauer was imported from {loaded}, "
                         f"not from {SRC}\n")
        return 2
    if args.tamper:
        ops[0].expect["tampered"] = "deliberately wrong"

    env = environment(args)
    print("environment:", json.dumps(env))

    tracer = Tracer() if args.trace else None
    run = Run(ops, census.STAGES, tracer)
    gc.collect()
    run.measure(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.trace:
        metrics = {name: statistics.median(p[name] for p in run.passes)
                   for name in run.passes[0]}
    else:
        # the other set-ups come after the passes, so that the peak memory
        # above is that of one set-up and the workload
        for _ in range(SETUP_REPEATS - 1):
            timed_set_up()
        # index 1: times scaled by the reference kernel; 0: as measured
        metrics, unscaled = ({
            "wall_s": statistics.median(w[i] for w in run.walls),
            "cell_max_s": max(statistics.median(t[i] for t in v)
                              for v in run.samples.values() if v),
            "setup_s": statistics.median(s[i] for s in setups),
        } for i in (1, 0))
        metrics["peak_rss_mb"] = peak_rss_mb
    declared = [m["name"] for m in spec["per_layer" if args.trace
                                         else "end_to_end"]]
    if sorted(metrics) != sorted(declared):
        sys.stderr.write(f"metrics {sorted(metrics)} differ from "
                         f"BENCHMARK.json {sorted(declared)}\n")
        return 2

    error_rate = len(run.failures) / run.attempted
    for name in declared:
        raw = (f" (as measured {unscaled[name]:.6g})"
               if not args.trace and name in unscaled else "")
        print(f"{name} = {metrics[name]:.6g} {units[name]}{raw}")
    print(f"error_rate = {error_rate:.6g} ratio "
          f"({len(run.failures)} of {run.attempted} operations)")
    for fail in run.failures:
        print(f"FAILED {fail['op']}: {fail['why']}")

    WORK.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORK / f"result-{stem}.json").write_text(json.dumps({
        "environment": env, "order": [op.id for op in ops],
        "setup_s": setups, "samples_s": run.samples,
        "pass_walls_s": run.walls, "failures": run.failures,
        "error_rate": error_rate, "per_pass": run.passes,
        "metrics": metrics,
        "unscaled": None if args.trace else unscaled}, indent=2))
    if tracer is not None:
        tracer.dump(WORK / f"trace-{stem}.json")

    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in declared},
    }))
    return 0 if not run.failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
