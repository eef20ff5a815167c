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


def _write_run(out: Path, timings: dict, spectrum: str, **fields) -> str:
    """A synthetic analyze output directory and the stdout naming it;
    ``fields`` are added to its report."""
    (out / "modes").mkdir(parents=True)
    report = {"dims": {"membrane": 1, "bending": 2}, "gap": float("inf"),
              "timings": timings, **fields}
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


def test_a_level_moved_by_rounding_is_reported_per_field(tmp_path):
    rp = _load()
    header = "space,index,sigma,sigma_rel\n"
    snaps = []
    for out, level in ((tmp_path / "a", 0.5), (tmp_path / "b",
                                               0.5 * (1 + 1e-15))):
        levels = [{"space": "growth", "index": 0, "sigma_rel": 0.25},
                  {"space": "growth", "index": 1, "sigma_rel": level}]
        spectrum = header + "".join(f"growth,{lv['index']},1.0,"
                                    f"{lv['sigma_rel']:.17e}\n"
                                    for lv in levels)
        snaps.append(rp.snapshot(out, 0, _write_run(
            out, {"assemble": 0.1}, spectrum, sigma_spectrum_ref=levels)))
    diff = rp.differing(*snaps)
    assert diff == ["report.json", "spectrum.csv"]
    lines = rp.field_lines(diff, *snaps)
    assert [line.split(":")[0] for line in lines] == [
        "  report.json sigma_spectrum_ref[].sigma_rel",
        "  spectrum.csv [].sigma_rel"]
    for part in diff:
        (path, (absolute, relative)), = rp.moved(
            rp._parsed(part, snaps[0][part]),
            rp._parsed(part, snaps[1][part])).items()
        assert 0.5e-15 <= relative <= 1.5e-15
        assert 0.25e-15 <= absolute <= 0.75e-15


def test_a_changed_flag_or_length_is_reported_as_changed():
    rp = _load()
    got = rp.moved({"dims": {"sum": 3}, "ok": True, "levels": [1.0, 2.0]},
                   {"dims": {"sum": 3}, "ok": False, "levels": [1.0]})
    assert got == {"ok": None, "levels": None}
