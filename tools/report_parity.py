"""Check that two source trees write the same analysis reports.

    python3 tools/report_parity.py --parent DIR --change DIR \
        [--case SURFACE@RES[:THRESHOLD] ...]

Each tree is a checkout (for example a ``git archive`` of a commit).  For
every case, ``corruga analyze --surface SURFACE --resolution RES
--threshold THRESHOLD --export-obj`` runs once in each tree (THRESHOLD
defaults to ``auto``), then ``corruga verify all`` runs once in each tree;
one process at a time, with ``PYTHONPATH=<tree>/src`` and the caller's
working directory and environment otherwise.

Per case the two runs are compared part by part: ``report.json`` without
its ``timings``, ``spectrum.csv``, ``modes.json``, every mode OBJ, stdout
with the output directory masked (it differs on every run), and the exit
code.  ``verify all`` is compared by stdout and exit code.  The script
prints one line per case, naming the parts that differ; when
``report.json``, ``modes.json`` or ``spectrum.csv`` differs, one more line
per field that moved gives its path (list indices as ``[]``) with the
largest absolute and relative change of its numbers, or says it changed
otherwise.  Then it prints a count of the identical cases, and exits 1 on
any difference.  The default cases are the six builtins at 12, 32 and 64
under ``auto`` and ``1e-6``, and eggbox, eggbox-hybrid, miura and
translation at 128 under ``auto``.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
BUILTINS = ("plane", "corrugation", "eggbox", "eggbox-hybrid", "miura",
            "translation")
DEFAULT_CASES = ([f"{s}@{r}{t}" for s in BUILTINS for r in (12, 32, 64)
                  for t in ("", ":1e-6")]
                 + [f"{s}@128" for s in ("eggbox", "eggbox-hybrid", "miura",
                                         "translation")])


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, type=Path)
    p.add_argument("--change", required=True, type=Path)
    p.add_argument("--case", nargs="+", default=DEFAULT_CASES,
                   metavar="SURFACE@RES[:THRESHOLD]")
    args = p.parse_args(argv)
    for case in args.case:
        if case.count("@") != 1 or not all(case.split(":")[0].split("@")):
            p.error(f"--case: {case!r} is not SURFACE@RES[:THRESHOLD]")
    for side in SIDES:
        if not (getattr(args, side) / "src" / "corruga").is_dir():
            p.error(f"--{side}: no src/corruga in {getattr(args, side)}")
    return args


def run(tree: Path, argv: list[str]) -> tuple[int, str]:
    """One ``corruga`` process with ``tree``'s package: exit code, stdout."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
    proc = subprocess.run([sys.executable, "-m", "corruga.cli"] + argv,
                          env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout


def snapshot(out: Path, code: int, stdout: str) -> dict:
    """The compared parts of one analyze run that wrote into ``out``."""
    parts = {"exit code": code, "stdout": stdout.replace(str(out), "<out>")}
    report = out / "report.json"
    if report.is_file():
        data = json.loads(report.read_text())
        data.pop("timings", None)
        parts["report.json"] = json.dumps(data, sort_keys=True)
    for path in [out / "spectrum.csv", out / "modes.json",
                 *sorted((out / "modes").glob("*.obj"))]:
        if path.is_file():
            parts[str(path.relative_to(out))] = path.read_bytes()
    return parts


def differing(a: dict, b: dict) -> list[str]:
    """The parts that differ or that only one side has."""
    return [k for k in dict.fromkeys([*a, *b]) if a.get(k) != b.get(k)]


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _parsed(part: str, content):
    """A JSON part as its data, spectrum.csv as a list of rows."""
    if part.endswith(".json"):
        return json.loads(content)
    return [{k: _number(v) for k, v in row.items()}
            for row in csv.DictReader(io.StringIO(content.decode()))]


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def moved(a, b, path: str = "", out: dict | None = None) -> dict:
    """Each field path where ``a`` and ``b`` differ, list indices as [],
    mapped to the largest (absolute, relative) change of its numbers, or
    to None where anything else changed: a string, a flag, a length, a
    key, or a number to or from inf or NaN."""
    out = {} if out is None else out
    if isinstance(a, dict) and isinstance(b, dict):
        for k in dict.fromkeys([*a, *b]):
            sub = f"{path}.{k}" if path else str(k)
            if k in a and k in b:
                moved(a[k], b[k], sub, out)
            else:
                out[sub] = None
        return out
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            moved(x, y, path + "[]", out)
        return out
    if a == b or (_is_number(a) and _is_number(b)
                  and math.isnan(a) and math.isnan(b)):
        return out
    change = None
    if (_is_number(a) and _is_number(b)
            and math.isfinite(a) and math.isfinite(b)):
        d = abs(a - b)
        change = (d, d / max(abs(a), abs(b)))
    if change is None or (path in out and out[path] is None):
        out[path] = None
    else:
        old = out.get(path, (0.0, 0.0))
        out[path] = (max(old[0], change[0]), max(old[1], change[1]))
    return out


def field_lines(diff: list[str], a: dict, b: dict) -> list[str]:
    """One line per moved field of a differing report.json, modes.json or
    spectrum.csv that both sides wrote."""
    lines = []
    for part in ("report.json", "modes.json", "spectrum.csv"):
        if part in diff and part in a and part in b:
            fields = moved(_parsed(part, a[part]), _parsed(part, b[part]))
            lines += [f"  {part} {path}: " + (
                "changed" if c is None else
                f"largest change {c[0]:.3g} absolute, {c[1]:.3g} relative")
                for path, c in fields.items()]
    return lines


def analyze_case(trees: dict, case: str) -> tuple[list[str], list[str]]:
    """The parts that differ, and field_lines of them."""
    surface, _, threshold = case.partition(":")
    surface, resolution = surface.split("@")
    snaps = []
    for side in SIDES:
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            code, stdout = run(trees[side], [
                "analyze", "--surface", surface, "--resolution", resolution,
                "--threshold", threshold or "auto", "--export-obj",
                "--out", str(out)])
            snaps.append(snapshot(out, code, stdout))
    diff = differing(*snaps)
    return diff, field_lines(diff, *snaps)


def verdict(diff: list[str]) -> str:
    return f"differs in {', '.join(diff)}" if diff else "identical"


def main(argv=None) -> int:
    args = parse_args(argv)
    trees = {side: getattr(args, side) for side in SIDES}
    same = 0
    for case in args.case:
        diff, fields = analyze_case(trees, case)
        same += not diff
        print("\n".join([f"{case}: {verdict(diff)}", *fields]), flush=True)
    verify = differing(*(dict(zip(("exit code", "stdout"),
                                  run(trees[side], ["verify", "all"])))
                         for side in SIDES))
    print(f"verify all: {verdict(verify)}")
    print(f"{same} of {len(args.case)} cases identical")
    return 0 if same == len(args.case) and not verify else 1


if __name__ == "__main__":
    sys.exit(main())
