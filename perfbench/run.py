"""Run one corruga benchmark workload and print its metrics.

    python3 perfbench/run.py --workload analyze-fine --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The process sets CORRUGA_THREADS to the number of usable cores
before anything imports numpy.

``--trace 0`` measures end to end with tracing off: timed passes of the
workload until another would overrun ``--seconds`` (at least one), peak
RSS of this process, and set-up time, taken as the median over fresh child
processes of the time to import, generate the inputs and make one warm-up
call.  ``--trace 1`` runs one pass untraced and one traced, reports the
per-layer metrics of the traced pass and the tracing overhead (traced wall
time minus untraced), and writes the spans to
``.perfbench-work/trace-<workload>-seed<seed>.json``.

Every item's output is checked; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 60
# the keys of workloads.WORKLOADS, which imports numpy: it may only be
# imported once CORRUGA_THREADS is set
WORKLOAD_NAMES = ("analyze-sweep", "analyze-fine", "verify-catalogue")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)   # child process of a set-up sample
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def import_corruga() -> None:
    """Put the checkout's sources first on the path, threads capped."""
    src = ROOT / "src"
    if not (src / "corruga" / "__init__.py").is_file():
        sys.exit(f"perfbench: no corruga sources under {src}")
    os.environ["CORRUGA_THREADS"] = str(len(os.sched_getaffinity(0)))
    sys.path.insert(0, str(src))
    import corruga
    if Path(corruga.__file__).resolve().parent != (src / "corruga").resolve():
        sys.exit(f"perfbench: imported corruga from {corruga.__file__}")


# -- passes ------------------------------------------------------------------

def run_pass(workload_items, tracer=None) -> tuple[float, dict[str, list]]:
    """Run items back to back; returns (wall seconds, failures by item)."""
    results = []
    t0 = time.perf_counter()
    for item in workload_items:
        if tracer is not None:
            tracer.item = item.id
        try:
            results.append((item, item.run(), None))
        except (Exception, SystemExit):    # SystemExit: a CLI usage error
            results.append((item, None, traceback.format_exc()))
    wall = time.perf_counter() - t0
    failures = {}
    for item, out, err in results:
        if err is None:
            try:
                reasons = item.check(out)
            except (OSError, ValueError, KeyError) as exc:
                reasons = [f"output check raised {exc!r}"]
        else:
            reasons = [err.strip().splitlines()[-1]]
            print(err, file=sys.stderr)
        if reasons:
            failures[item.id] = reasons
    return wall, failures


def clear(paths) -> None:
    for path in paths:
        shutil.rmtree(path, ignore_errors=True)


def setup_sample(args) -> float:
    """Seconds from starting a fresh process to its being ready to time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{done.stderr}")
    # CLOCK_MONOTONIC is shared by all processes of the machine
    return float(done.stdout.split()[-1]) - t0


# -- reporting ---------------------------------------------------------------

def output_metrics(outputs) -> dict[str, tuple[float | None, str]]:
    """Bytes written and the smallest cut gap, read off the pass's outputs."""
    files = [f for d in outputs if d.is_dir() for f in d.rglob("*")
             if f.is_file()]
    gaps = []
    for d in outputs:
        report = d / "report.json"
        if report.is_file():
            cuts = json.loads(report.read_text())["threshold"]
            gaps += [cuts[k]["gap"] for k in ("E_cut", "chi_cut")
                     if math.isfinite(cuts[k]["gap"])]
    return {
        "analysis.bytes_written": (sum(f.stat().st_size for f in files)
                                   if files else None, "bytes"),
        "strains.cut_gap_min": (min(gaps) if gaps else None, "ratio"),
    }


def emit(metrics, attempted: int, failures: dict) -> None:
    """Print a readable table, then the result as the last line."""
    absent = sorted(k for k, (v, _) in metrics.items() if v is None)
    for name, (value, unit) in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:34s} {shown:>14s} {unit}")
    failed = len(failures)
    print(f"  {'failed_frac':34s} {failed / attempted:>14.6g} "
          f"({failed} of {attempted} items)")
    for item, reasons in failures.items():
        print(f"  FAILED {item}: {'; '.join(reasons)}")
    if absent:
        print("  absent (never called; reported as 0 below): "
              + ", ".join(absent))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": 0 if v is None else v, "unit": u}
                    for k, (v, u) in metrics.items()}}))


def main(argv=None) -> int:
    args = parse_args(argv)
    import_corruga()
    from workloads import WORKLOADS

    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    clear([work])
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        for item in wl.warmup:      # outputs unchecked: sizes are off-spec
            item.run()
        if args.setup_only:
            print(time.perf_counter())
            return 0
        if args.trace:
            return traced_run(args, wl)
        return timed_run(args, wl)
    finally:
        clear([work])


def timed_run(args, wl) -> int:
    setups = [setup_sample(args) for _ in range(SETUP_SAMPLES)]
    walls, failures, attempted = [], {}, 0
    start = time.perf_counter()
    while True:
        clear(wl.outputs)
        wall, fails = run_pass(wl.items)
        walls.append(wall)
        attempted += len(wl.items)
        failures |= {f"pass{len(walls)}:{k}": v for k, v in fails.items()}
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(walls) > args.seconds:
            break
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{args.workload} seed {args.seed}: {len(walls)} pass(es), "
          f"wall {', '.join(f'{w:.3f}' for w in walls)} s; "
          f"set-up {', '.join(f'{s:.3f}' for s in setups)} s")
    emit({"wall_s": (statistics.median(walls), "s"),
          "peak_rss_mib": (peak, "MiB"),
          "setup_s": (statistics.median(setups), "s")},
         attempted, failures)
    return 0


def traced_run(args, wl) -> int:
    from spans import Tracer, layer_metrics

    clear(wl.outputs)
    plain, fails0 = run_pass(wl.items)
    clear(wl.outputs)
    tracer = Tracer()
    tracer.install()
    try:
        traced, fails1 = run_pass(wl.items, tracer)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer) | output_metrics(wl.outputs)
    metrics["trace.overhead_s"] = (traced - plain, "s")
    failures = ({f"untraced:{k}": v for k, v in fails0.items()}
                | {f"traced:{k}": v for k, v in fails1.items()})

    path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(tracer.dump()) + "\n")
    _, incl, _ = tracer.totals()
    spaces = (incl.get("solver.growth_space", 0.0)
              + incl.get("solver.constrained_space", 0.0))
    print(f"{args.workload} seed {args.seed}: untraced {plain:.3f} s, "
          f"traced {traced:.3f} s; spans in {path.relative_to(ROOT)}")
    for item, secs in tracer.item_seconds().items():
        print(f"  item {item}: {secs:.3f} s")
    print(f"  growth_space + constrained_space: {spaces:.3f} s "
          f"= {100 * spaces / traced:.1f}% of the traced pass")
    if tracer.missing:
        print("  entry points not found: " + ", ".join(tracer.missing))
    emit(metrics, 2 * len(wl.items), failures)
    return 0


if __name__ == "__main__":
    sys.exit(main())
