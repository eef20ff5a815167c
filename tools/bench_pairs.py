"""Run the benchmark on two source trees in alternating pairs.

    python3 tools/bench_pairs.py --parent DIR --change DIR --label NAME \
        [--pairs 10] [--seconds 20] [--out DIR]

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
"""
from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, type=Path)
    p.add_argument("--change", required=True, type=Path)
    p.add_argument("--label", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--out", type=Path, default=Path("."))
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    for side in SIDES:
        if not (getattr(args, side) / "BENCHMARK.json").is_file():
            p.error(f"--{side}: no BENCHMARK.json in {getattr(args, side)}")
    return args


def run_once(tree: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> dict:
    """One benchmark process in ``tree``: its exit code and result line."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {"exit": proc.returncode, "result": result,
            "stderr_tail": proc.stderr.strip().splitlines()[-3:]}


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
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
