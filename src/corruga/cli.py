"""Command-line front end: analyze one surface or run a verification suite.

Exit codes form a stable contract: 0 success, 1 unreadable or invalid
surface config (also one the analysis rejects, such as a degenerate crease
tangent), an invalid resolution, threshold or seed, an output that cannot
be written, or a solver step that failed (any ARPACK error among them)
or lost all precision, 2 verification failure, 3 ambiguous rank (no clear
spectral gap, or dims that break the rank bound dim E + dim chi <= 3; the
report is still written).  argparse keeps its own exit code 2 for usage
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="corruga",
        description="Rigidity analysis of periodic piecewise-smooth surfaces.")
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser(
        "analyze", help="solve one surface and write report artifacts")
    a.add_argument("--surface", required=True,
                   help="built-in family name or path to a JSON config")
    a.add_argument("--resolution", default="32", metavar="N[,M]",
                   help="samples per period, one or two counts (default 32)")
    a.add_argument("--threshold", default="auto",
                   help="'auto' for gap detection or a fixed relative cut "
                        "in (0, 1)")
    a.add_argument("--out", default="out", help="output directory")
    a.add_argument("--export-obj", action="store_true",
                   help="also write modes.json and per-mode OBJ meshes")

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite",
                   choices=("examples", "lemma", "scaling", "warping", "all"))
    v.add_argument("--resolution", type=int, default=32,
                   help="grid resolution for the examples suite, also "
                        "within all (default 32)")
    v.add_argument("--seed", type=int, default=2024,
                   help="seed for the random fields of the lemma suite")
    v.add_argument("--out", default=None,
                   help="optional path for a JSON summary")
    return p


def _load_surface(source: str):
    from .chart import BUILTIN_NAMES, builtin_chart, load_chart
    if source in BUILTIN_NAMES:
        return builtin_chart(source)
    return load_chart(Path(source))


def cmd_analyze(args) -> int:
    from .analysis import (export_modes, run_analysis, write_report,
                           write_spectrum)
    from .grid import resolution_counts
    from .solver import SolverError
    from .strains import parse_threshold
    try:
        chart = _load_surface(args.surface)
    except (OSError, ValueError, KeyError) as exc:
        print(f"corruga: bad surface config: {exc}", file=sys.stderr)
        return 1
    try:
        resolution = resolution_counts(args.resolution.split(","))
        tau = parse_threshold(args.threshold)
    except ValueError as exc:
        print(f"corruga: bad argument: {exc}", file=sys.stderr)
        return 1
    try:
        report = run_analysis(chart, resolution=resolution, threshold=tau)
    except SolverError as exc:
        print(f"corruga: solver failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"corruga: bad surface config: {exc}", file=sys.stderr)
        return 1

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        write_report(report, out / "report.json")
        write_spectrum(report, out / "spectrum.csv")
        if args.export_obj:
            export_modes(report, out)
    except OSError as exc:
        print(f"corruga: cannot write output: {exc}", file=sys.stderr)
        return 1

    d = report["dims"]
    print(f"surface {args.surface}: dims (membrane, bending) = "
          f"({d['membrane']}, {d['bending']})")
    for m in report["modes"]:
        print(f"  {m['id']}: class={m['class']} sigma_rel={m['sigma_rel']:.2e}")
    worst = max((abs(p["residual_rel"]) for p in report["pairs"]), default=0.0)
    print(f"  worst pair residual (relative): {worst:.2e}")
    print(f"  report written to {out / 'report.json'}")

    if report["threshold"]["ambiguous"]:
        why = ("no clear spectral gap" if d["rank_bound_ok"] else
               f"dim E + dim chi = {d['sum']} breaks the rank bound <= 3")
        print(f"corruga: ambiguous rank ({why})", file=sys.stderr)
        return 3
    return 0


def cmd_verify(args) -> int:
    from . import analysis
    from .grid import resolution_counts

    try:
        resolution_counts(args.resolution)
        if args.seed < 0:
            raise ValueError(f"seed must be non-negative, got {args.seed}")
    except ValueError as exc:
        print(f"corruga: bad argument: {exc}", file=sys.stderr)
        return 1
    if args.suite == "examples":
        ok, lines = analysis.verify_examples(resolution=args.resolution)
    elif args.suite == "lemma":
        ok, lines = analysis.verify_lemma(seed=args.seed)
    elif args.suite == "scaling":
        ok, lines = analysis.verify_scaling()
    elif args.suite == "warping":
        ok, lines = analysis.verify_warping()
    else:
        ok, lines = analysis.verify_all(resolution=args.resolution,
                                        seed=args.seed)

    for line in lines:
        print(line)
    summary = {"suite": args.suite, "passed": bool(ok)}
    print(json.dumps(summary))
    if args.out:
        try:
            Path(args.out).write_text(json.dumps(summary | {"log": lines},
                                                 indent=2) + "\n")
        except OSError as exc:
            print(f"corruga: cannot write output: {exc}", file=sys.stderr)
            return 1
    return 0 if ok else 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "analyze":
        return cmd_analyze(args)
    return cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
