"""tools/report_parity.py compares two analyze runs' output directories."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "report_parity.py"


def _load():
    spec = importlib.util.spec_from_file_location("report_parity", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_run(out: Path, timings: dict, spectrum: str) -> str:
    """A synthetic analyze output directory and the stdout naming it."""
    (out / "modes").mkdir(parents=True)
    report = {"dims": {"membrane": 1, "bending": 2}, "gap": float("inf"),
              "timings": timings}
    (out / "report.json").write_text(json.dumps(report, indent=2))
    (out / "spectrum.csv").write_text(spectrum)
    (out / "modes.json").write_text("[]\n")
    (out / "modes" / "membrane-0.obj").write_text("v 0 0 0\n")
    return f"  report written to {out / 'report.json'}\n"


def test_timings_alone_are_identical(tmp_path):
    rp = _load()
    a, b = tmp_path / "a", tmp_path / "b"
    snaps = [rp.snapshot(out, 0, _write_run(out, {"assemble": t}, "x,1\n"))
             for out, t in ((a, 0.1), (b, 0.7))]
    assert rp.differing(*snaps) == []


def test_one_changed_byte_of_the_spectrum_is_reported(tmp_path):
    rp = _load()
    a, b = tmp_path / "a", tmp_path / "b"
    snaps = [rp.snapshot(out, 0, _write_run(out, {"assemble": 0.1}, text))
             for out, text in ((a, "x,1\n"), (b, "x,2\n"))]
    assert rp.differing(*snaps) == ["spectrum.csv"]
