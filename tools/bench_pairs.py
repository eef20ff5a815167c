"""Run the benchmark on two source trees in alternating pairs.

    python3 tools/bench_pairs.py --parent DIR --change DIR --label NAME \
        [--pairs 10] [--seconds 20] [--single SURFACE@RES ...] [--out DIR]

Each tree is a checkout (for example a ``git archive`` of a commit) with
its own ``BENCHMARK.json`` and ``perfbench/``.  For every workload in the
change tree's ``BENCHMARK.json``, pair k runs the benchmark command once in
each tree with ``--workload W --seed k --seconds S --trace 0``, one process
at a time, the parent first in odd pairs and the change first in even
ones.  Both sides run with the caller's environment.

The script writes ``BENCH_<label>.json`` into ``--out`` (default: the
current directory): every run with its exit code and result line, and per
workload and end-to-end metric the medians, inclusive quartiles, the number
of pairs the change won, the median's relative change against the
metric's bound, and each side's ``correct`` and ``failed`` counts.

After the pairs, one ``--trace 1`` run per workload in each tree records
the per-layer metrics under ``layers``.  ``--single`` runs ``corruga analyze
--surface SURFACE --resolution RES`` once per case in each tree, the trees
alternating which goes first from case to case (list a case twice to run
it twice).  Each run's wall time, user+sys CPU time and peak RSS come from
that child's own rusage (``os.wait4``); they go under ``single``, with
each side's medians per case.  ``--pairs 0`` skips the pairs and the
traced runs when ``--single`` is given.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")
SINGLE_METRICS = ("wall_s", "cpu_s", "peak_rss_mib")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, type=Path)
    p.add_argument("--change", required=True, type=Path)
    p.add_argument("--label", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--single", nargs="+", default=[], metavar="SURFACE@RES")
    p.add_argument("--out", type=Path, default=Path("."))
    args = p.parse_args(argv)
    if args.pairs < (0 if args.single else 1):
        p.error("--pairs must be at least 1, or 0 with --single")
    for case in args.single:
        if case.count("@") != 1 or not all(case.split("@")):
            p.error(f"--single: {case!r} is not SURFACE@RES")
    for side in SIDES:
        if not (getattr(args, side) / "BENCHMARK.json").is_file():
            p.error(f"--{side}: no BENCHMARK.json in {getattr(args, side)}")
    return args


def run_once(tree: Path, command: list[str], workload: str, seed: int,
             seconds: float, trace: int = 0) -> dict:
    """One benchmark process in ``tree``: its exit code and result line."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {"exit": proc.returncode, "result": result,
            "stderr_tail": proc.stderr.strip().splitlines()[-3:]}


def run_single(tree: Path, case: str) -> dict:
    """One ``corruga analyze`` of SURFACE@RES with ``tree``'s package: its
    exit code, wall time, and user+sys CPU time and peak RSS from its own
    rusage."""
    surface, resolution = case.split("@")
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    with tempfile.TemporaryDirectory() as out, \
            tempfile.TemporaryFile() as err:
        argv = [sys.executable, "-m", "corruga.cli", "analyze", "--surface",
                surface, "--resolution", resolution, "--out", out]
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=tree, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        tail = err.read().decode(errors="replace").strip().splitlines()[-3:]
    return {"exit": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mib": usage.ru_maxrss / 1024.0, "stderr_tail": tail}


def summarize_single(runs: list[dict]) -> dict:
    """Per case: each side's run count, exit codes and medians of wall
    time, CPU time and peak RSS, and the change's relative difference in
    each median."""
    out = {}
    for case in dict.fromkeys(r["case"] for r in runs):
        entry = {}
        for side in SIDES:
            mine = [r for r in runs if r["case"] == case and r["side"] == side]
            entry[side] = {"runs": len(mine), "exits": [r["exit"] for r in mine]}
            for metric in SINGLE_METRICS:
                entry[side][metric] = (statistics.median(r[metric] for r in mine)
                                       if mine else None)
        for metric in SINGLE_METRICS:
            p, c = entry["parent"][metric], entry["change"][metric]
            entry[f"{metric}_rel"] = (c - p) / p if p and c is not None else None
        out[case] = entry
    return out


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload and end-to-end metric: medians, quartiles, pair wins
    and the median's relative change against the metric's bound; per
    workload and side: failed operations and whether every run was
    correct.  A run without a result line counts as incorrect."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        entry = {}
        for metric in end_to_end:
            name, lower = metric["name"], metric["better"] == "lower"
            value = {}
            for r in mine:
                res = r["result"]
                if res is not None and name in res.get("metrics", {}):
                    value[r["side"], r["pair"]] = res["metrics"][name]["value"]
            pairs = sorted(p for s, p in value
                           if s == "parent" and ("change", p) in value)
            if not pairs:
                continue
            par = [value["parent", p] for p in pairs]
            chg = [value["change", p] for p in pairs]
            pm, cm = statistics.median(par), statistics.median(chg)
            q = quartiles(par)
            rel = (cm - pm) / pm if pm else 0.0
            worse = rel if lower else -rel
            entry[name] = {
                "parent_median": pm, "change_median": cm,
                "parent_quartiles": q, "change_quartiles": quartiles(chg),
                "parent_iqr": q[1] - q[0], "pairs": len(pairs),
                "change_better_pairs": sum((c < p) if lower else (c > p)
                                           for p, c in zip(par, chg)),
                "median_change_rel": rel, "bound": metric.get("bound"),
                "within_bound": (metric.get("bound") is None
                                 or worse <= metric["bound"]),
                "parent_values": par, "change_values": chg}
        for side in SIDES:
            results = [r["result"] for r in mine if r["side"] == side]
            entry[side] = {
                "runs": len(results),
                "all_correct": all(res is not None and res.get("correct")
                                   for res in results),
                "failed": sum(res.get("failed", 0) for res in results
                              if res is not None),
                "attempted": sum(res.get("attempted", 0) for res in results
                                 if res is not None)}
        out[workload] = entry
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = []
    for wl in bench["workloads"]:
        for pair in range(1, args.pairs + 1):
            order = SIDES if pair % 2 else SIDES[::-1]
            for side in order:
                t0 = time.perf_counter()
                run = run_once(trees[side], bench["command"], wl["name"],
                               pair, args.seconds)
                runs.append({"side": side, "workload": wl["name"],
                             "pair": pair, "seed": pair, "first": order[0],
                             "elapsed_s": time.perf_counter() - t0} | run)
                res = run["result"] or {}
                wall = res.get("metrics", {}).get("wall_s", {}).get("value")
                print(f"{wl['name']} pair {pair} {side}: exit {run['exit']}"
                      f", wall_s {wall}", file=sys.stderr, flush=True)
    layers = []
    for wl in bench["workloads"] if args.pairs else ():
        for side in SIDES:
            run = run_once(trees[side], bench["command"], wl["name"], 1,
                           args.seconds, trace=1)
            metrics = (run["result"] or {}).get("metrics", {})
            layers.append({"side": side, "workload": wl["name"],
                           "exit": run["exit"],
                           "metrics": {k: v["value"] for k, v in metrics.items()}})
            print(f"{wl['name']} --trace 1 {side}: exit {run['exit']}",
                  file=sys.stderr, flush=True)
    single = []
    for k, case in enumerate(args.single):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            run = run_single(trees[side], case)
            single.append({"side": side, "case": case} | run)
            print(f"{case} {side}: exit {run['exit']}, wall_s "
                  f"{run['wall_s']:.2f}, peak_rss_mib {run['peak_rss_mib']:.1f}",
                  file=sys.stderr, flush=True)
    record = {
        "label": args.label,
        "trees": {side: tree.name for side, tree in trees.items()},
        "machine": f"{platform.machine()}, {platform.system()} "
                   f"{platform.release()}, Python {platform.python_version()}",
        "command": " ".join(bench["command"])
                   + f" --workload <w> --seed <pair> --seconds {args.seconds}"
                   " --trace 0",
        "protocol": f"{args.pairs} pairs per workload, one process at a time,"
                    " parent first in odd pairs and change first in even "
                    "pairs; medians and inclusive quartiles over each side's"
                    " runs",
        "summary": summarize(runs, bench["end_to_end"]),
        "runs": runs}
    if layers:
        record["layers"] = layers
    if single:
        record["single"] = {
            "command": "python -m corruga.cli analyze --surface <s> "
                       "--resolution <r> --out <tmp>, PYTHONPATH=<tree>/src,"
                       " with the caller's environment",
            "protocol": "one process at a time, each case once per tree, "
                        "the parent first in odd cases; wall from the "
                        "parent process's clock, CPU and peak RSS from the "
                        "child's rusage",
            "summary": summarize_single(single), "runs": single}
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
