#!/usr/bin/env python3
"""Benchmark of the ``delpezzo`` package, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one seeded cycle of ops (see ``workloads.py``), run as a
closed loop by one client, whole cycles at a time, until ``--seconds`` of
time inside ops have passed.  Every output is checked against an independent
reference (``reference.py``).  ``--trace 0`` reports the end-to-end metrics
of BENCHMARK.json, with times scaled to a reference core (``scaled``);
``--trace 1`` reports its per-layer metrics from spans
recorded by ``spans.py`` (end-to-end numbers never come from a traced run).
The last line of stdout is the JSON result; the lines before it are a
readable report with the environment record.  Exit code: 0 when every
output matched, 1 when any did not, 2 when the checkout is incomplete.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import reference as R
import spans
import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MODULES = ("lattice", "classify", "gallery", "cli")
#: set-ups per run; setup_s is their median
SETUP_REPEATS = 11
#: interpreter-start probes a run makes at least
MIN_PROBES = 5
#: the reference core, on which ``calibration_ms`` reads this many ms; the
#: end-to-end times of an untraced run are scaled to it
CAL_REFERENCE_MS = 5.0
#: tail percentiles, highest first; the tail is the first with >= 10 samples beyond it
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
CHILD_TIMEOUT_S = 120


def pin_to_one_cpu() -> int | None:
    """Keep this process and its children on one CPU, so the calibration
    read before an op measures the core the op runs on."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):  # no affinity control here: run unpinned
        return None
    return cpu


def fail_setup(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def import_package() -> SimpleNamespace:
    """A fresh import of ``delpezzo`` from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "delpezzo" or n.startswith("delpezzo.")]:
        del sys.modules[name]
    pkg = importlib.import_module("delpezzo")
    if SRC.resolve() not in Path(pkg.__file__).resolve().parents:
        fail_setup(f"imported delpezzo from {pkg.__file__}, not from this checkout")
    return SimpleNamespace(**{m: importlib.import_module(f"delpezzo.{m}") for m in MODULES})


# ---------------------------------------------------------------------------
# running ops


def run_cli(cli, argv, stdin: str) -> tuple[int, str]:
    out, saved = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def execute(op: W.Op, mods, subprocess_mode: bool, env):
    if op.fn:
        return getattr(getattr(mods, op.module), op.fn)(*op.args)
    if subprocess_mode:
        proc = subprocess.run(
            [sys.executable, "-m", "delpezzo", *op.argv], input=op.stdin, capture_output=True,
            text=True, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout
    return run_cli(mods.cli, op.argv, op.stdin)


def calibration_ms() -> float:
    """Wall time (ms) of a fixed stdlib ``Fraction`` loop: the current speed
    of the core, which on a shared host changes from second to second."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 2000):
        total += Fraction(1, i % 97 + 1)
    return (time.perf_counter() - t0) * 1e3


def scaled(seconds: float, cal_before: float, cal_after: float) -> float:
    """``seconds`` as they would read on the reference core."""
    return seconds * CAL_REFERENCE_MS / ((cal_before + cal_after) / 2)


class Loop:
    """Runs cycles of ops and collects per-op latency and failures.  With
    ``calibrate`` it also reads ``calibration_ms`` before every op; call
    ``scaled_latencies`` after the last cycle."""

    def __init__(self, ops, mods, subprocess_mode: bool, env, calibrate: bool = False):
        self.ops, self.mods, self.subprocess_mode, self.env = ops, mods, subprocess_mode, env
        self.calibrate = calibrate
        self.calibration: list[float] = []
        self.latencies: list[float] = []
        self.failed = 0
        self.failures: list[str] = []

    def scaled_latencies(self) -> list[float]:
        """Each op's latency scaled by the calibration read before and after it."""
        cal = self.calibration + [calibration_ms()]
        return [scaled(dt, cal[i], cal[i + 1]) for i, dt in enumerate(self.latencies)]

    def cycle(self, tracer: spans.Tracer | None = None) -> tuple[float, int]:
        """One pass over the ops: (seconds spent inside ops, ops completed)."""
        busy, done = 0.0, 0
        for k, op in enumerate(self.ops):
            if self.calibrate:
                self.calibration.append(calibration_ms())
            span = tracer.begin_op(k) if tracer else None
            t0 = time.perf_counter()
            try:
                out = execute(op, self.mods, self.subprocess_mode, self.env)
                error = None
            except Exception as exc:  # any raise is a failed op, reported below
                error = repr(exc)
            dt = time.perf_counter() - t0
            if tracer:
                tracer.end_op(span)
            if error is None:
                try:
                    ok = op.view(out, self.mods) == op.expected
                except Exception as exc:  # unparsable output is a failed op
                    ok, error = False, repr(exc)
            else:
                ok = False
            busy += dt
            done += ok
            self.latencies.append(dt)
            if not ok:
                self.failed += 1
                self.failures.append(f"{op.label} {' '.join(op.argv)} {op.fn}{op.args}: {error or 'mismatch'}")
        return busy, done


def probe_interp(env) -> float:
    """Wall time (ms) of a bare ``python -c pass``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)
    return (time.perf_counter() - t0) * 1e3


_IMPORT_LINE = re.compile(r"import time:\s*(\d+) \|\s*(\d+) \|( *)(\S+)")


def probe_import(env) -> dict[str, float]:
    """``-X importtime`` of ``import delpezzo.cli``: the whole import and the
    cumulative time of each module (ms), 0 for a module it did not import."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import delpezzo.cli"],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S,
    )
    total, per = 0.0, {}
    for match in _IMPORT_LINE.finditer(proc.stderr):
        cumulative, indent, name = int(match.group(2)) / 1e3, len(match.group(3)), match.group(4)
        if name.startswith("delpezzo"):
            per[name] = cumulative
            if indent == 1:  # a top-level import
                total += cumulative
    out = {"cli.import_ms": total}
    for m in ("lattice", "classify", "gallery"):
        out[f"cli.import.{m}_ms"] = per.get(f"delpezzo.{m}", 0.0)
    return out


def percentile(sorted_xs: list[float], q: float) -> float:
    pos = q / 100 * (len(sorted_xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least ten
    samples beyond it."""
    xs = sorted(latencies)
    for q in TAIL_LADDER:
        if len(xs) * (100 - q) / 100 >= 10:
            return q, percentile(xs, q)
    return 100.0, xs[-1]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# the two kinds of run


def untraced(args, ops, mods, env, setups: list[tuple[float, float, float]]) -> tuple[dict, Loop, dict]:
    """Whole cycles until ``--seconds`` inside ops, with an interpreter-start
    probe after each cycle.  Times are reported scaled to the reference core
    (``scaled``); the raw ones go to the report and the ``out/`` record."""
    subprocess_mode = args.workload == "cli_oneshot"
    loop = Loop(ops, mods, subprocess_mode, env, calibrate=True)
    busy = done = 0
    probes = []
    while busy < args.seconds:
        b, d = loop.cycle()
        busy, done = busy + b, done + d
        probes.append(probe_interp(env))
    while len(probes) < MIN_PROBES:
        probes.append(probe_interp(env))
    attempted = len(loop.latencies)
    lat = loop.scaled_latencies()
    q, tail_s = tail(lat)
    metrics = {
        "ops_per_s": done / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "ok_ratio": (attempted - loop.failed) / attempted,
        "peak_rss_mb": peak_rss_mb(children=subprocess_mode),
        "setup_s": statistics.median(scaled(*s) for s in setups),
    }
    extra = {
        "latency_tail_percentile": q,
        "samples": attempted,
        "cycles": attempted // len(ops),
        "fail_ratio": loop.failed / attempted,
        "calibration_ms": statistics.median(loop.calibration),
        "raw": {
            "ops_per_s": done / busy,
            "latency_p50_ms": statistics.median(loop.latencies) * 1e3,
            "latency_tail_ms": tail(loop.latencies)[1] * 1e3,
            "setup_s": statistics.median(s[0] for s in setups),
        },
        "cli.interp_start_ms": statistics.median(probes),
    }
    return metrics, loop, extra


def traced(args, ops, mods, env) -> tuple[dict, Loop, dict]:
    """A warm-up cycle, then pairs of (untraced, traced) cycles until
    ``--seconds`` have passed.  Work counts come from the first traced cycle,
    so they repeat exactly for a seed; times are medians over the pairs."""
    loop = Loop(ops, mods, False, env)
    loop.cycle()
    summaries, ratios, first = [], [], None
    elapsed = 0.0
    while not summaries or elapsed < args.seconds:
        t0 = time.perf_counter()
        b_plain, d_plain = loop.cycle()
        tracer = spans.Tracer()
        tracer.install(mods)
        try:
            b_traced, d_traced = loop.cycle(tracer)
        finally:
            tracer.uninstall()
        elapsed += time.perf_counter() - t0
        summaries.append(tracer.summary())
        ratios.append((d_traced / b_traced) / (d_plain / b_plain))
        first = first or tracer
    first.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    metrics = dict(summaries[0])
    for key in metrics:
        if key.endswith("_ms"):
            metrics[key] = statistics.median(s[key] for s in summaries)
    imports = [probe_import(env) for _ in range(MIN_PROBES)]
    for key in imports[0]:
        metrics[key] = statistics.median(p[key] for p in imports)
    probes = [probe_interp(env) for _ in range(MIN_PROBES)]
    metrics["cli.interp_start_ms"] = statistics.median(probes)
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    attempted = len(loop.latencies)
    extra = {
        "traced_cycles": len(summaries),
        "samples": attempted,
        "fail_ratio": loop.failed / attempted,
        "cli.interp_start_ms": metrics["cli.interp_start_ms"],
    }
    return metrics, loop, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corrupt-reference", action="store_true",
        help="self-test: perturb every reference value, so every op must fail",
    )
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "delpezzo" / "__init__.py").is_file():
        fail_setup(f"no delpezzo package under {SRC}")
    if not (ROOT / "tests" / "golden").is_dir():
        fail_setup("no tests/golden directory to check outputs against")
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    env = child_env()

    nproc = len(os.sched_getaffinity(0))
    cpu = pin_to_one_cpu()
    setups = []  # (seconds, calibration before, calibration after)
    for _ in range(SETUP_REPEATS):
        gc.collect()
        cal = calibration_ms()
        t0 = time.perf_counter()
        mods = import_package()
        ops = W.build(args.workload, args.seed, R.Golden(ROOT), corrupt=args.corrupt_reference)
        setups.append((time.perf_counter() - t0, cal, calibration_ms()))

    if args.trace:
        metrics, loop, extra = traced(args, ops, mods, env)
        wanted = spec["per_layer"]
    else:
        metrics, loop, extra = untraced(args, ops, mods, env, setups)
        wanted = spec["end_to_end"]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": {
            "python": platform.python_version(),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", ""),
            "nproc": nproc,
            "pinned_cpu": cpu,
            "calibration_reference_ms": CAL_REFERENCE_MS,
            "seed": args.seed,
            "cli.interp_start_ms": extra["cli.interp_start_ms"],
        },
        **extra,
    }
    result = {
        "correct": loop.failed == 0,
        "attempted": len(loop.latencies),
        "failed": loop.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "result": result, "failures": loop.failures[:20]}, indent=2) + "\n"
    )

    for line in loop.failures[:5]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(record["env"]))
    if "raw" in extra:
        print(f"calibration median {extra['calibration_ms']:.4g} ms (reference {CAL_REFERENCE_MS:g} ms)")
    for name, m in result["metrics"].items():
        note = f"  (raw {extra['raw'][name]:.6g})" if name in extra.get("raw", {}) else ""
        if name == "latency_tail_ms":
            note += f"  (p{extra['latency_tail_percentile']:g} of {extra['samples']} samples)"
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}{note}")
    print(f"  fail_ratio {extra['fail_ratio']:g} ({loop.failed} of {len(loop.latencies)} ops)")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
