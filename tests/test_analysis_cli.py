"""End-to-end report pipeline and command line entry points."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from corruga import cli
from corruga.analysis import (export_modes, run_analysis, write_report,
                              write_spectrum)
from corruga.chart import BUILTIN_NAMES, builtin_chart, save_chart
from corruga.strains import vec_sym

REPORT_KEYS = {"E_basis", "chi_basis", "dims", "modes", "pairs", "poisson",
               "resolution", "row_counts", "sigma_max", "sigma_spectrum_ref",
               "surface", "threshold", "timings"}


def test_report_schema(analysis_bundle):
    report = analysis_bundle("eggbox", 16)
    assert REPORT_KEYS <= {k for k in report if not k.startswith("_")}
    dims = report["dims"]
    assert dims["sum"] == dims["membrane"] + dims["bending"]
    for m in report["modes"]:
        assert m["class"] in ("constant", "membrane", "bending", "mixed",
                              "strain-free")
        assert np.asarray(m["E"]).shape == (2, 2)
        assert np.asarray(m["chi"]).shape == (2, 2)
    for p in report["pairs"]:
        assert p["E_of"].startswith("membrane")
        assert p["chi_of"].startswith("bending")


def test_report_is_deterministic():
    chart = builtin_chart("corrugation")
    a = run_analysis(chart, 16)
    b = run_analysis(chart, 16)

    def strip(r):
        r = {k: v for k, v in r.items() if not k.startswith("_")}
        r.pop("timings")
        r["modes"] = [{k: v for k, v in m.items() if not k.startswith("_")}
                      for m in r["modes"]]
        return json.dumps(r, sort_keys=True,
                          default=lambda o: np.asarray(o).tolist())

    assert strip(a) == strip(b)


def test_writers_produce_artifacts(tmp_path, analysis_bundle):
    report = analysis_bundle("eggbox", 16)
    write_report(report, tmp_path / "report.json")
    write_spectrum(report, tmp_path / "spectrum.csv")
    names = export_modes(report, tmp_path)

    loaded = json.loads((tmp_path / "report.json").read_text())
    assert not any(k.startswith("_") for k in loaded)
    assert loaded["dims"] == report["dims"]

    with open(tmp_path / "spectrum.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["space", "index", "sigma", "sigma_rel"]
    assert all(row[0] in ("membrane", "growth") for row in rows[1:])
    assert len(rows) > 1

    assert names
    for name in names:
        p = Path(name)
        assert p.exists() and p.suffix == ".obj"
    entries = json.loads((tmp_path / "modes.json").read_text())
    assert len(entries) == len(names)


def test_obj_vertices_have_display_amplitude(tmp_path, analysis_bundle):
    report = analysis_bundle("eggbox", 16)
    names = export_modes(report, tmp_path)
    text = Path(names[0]).read_text()
    verts = np.array([[float(t) for t in line.split()[1:]]
                      for line in text.splitlines() if line.startswith("v ")])
    assert len(verts) > 0
    assert np.all(np.isfinite(verts))


def test_cli_analyze_builtin(tmp_path, capsys):
    out = tmp_path / "run"
    code = cli.main(["analyze", "--surface", "eggbox", "--resolution", "16",
                     "--out", str(out)])
    assert code == 0
    assert (out / "report.json").exists()
    assert (out / "spectrum.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["dims"]["membrane"] == 1
    assert report["dims"]["bending"] == 2
    text = capsys.readouterr().out
    assert "membrane" in text and "bending" in text


def test_cli_analyze_from_config_file(tmp_path):
    cfg = tmp_path / "surface.json"
    save_chart(builtin_chart("corrugation"), cfg)
    out = tmp_path / "run"
    code = cli.main(["analyze", "--surface", str(cfg), "--resolution", "16",
                     "--out", str(out), "--export-obj"])
    assert code == 0
    assert (out / "modes").is_dir()
    assert list((out / "modes").glob("*.obj"))


def test_cli_analyze_rectangular_resolution(tmp_path):
    out = tmp_path / "run"
    code = cli.main(["analyze", "--surface", "corrugation",
                     "--resolution", "16,12", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["resolution"]["requested"] == [16, 12]


def test_cli_analyze_bad_surface(tmp_path, capsys):
    code = cli.main(["analyze", "--surface", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err != ""


def test_cli_exit_code_for_ambiguous_threshold(tmp_path, monkeypatch):
    import corruga.analysis as analysis_mod

    def fake(chart, resolution=32, threshold="auto"):
        return {
            "surface": {"family": "plane"}, "resolution": 16,
            "row_counts": {}, "sigma_max": 1.0,
            "threshold": {"kind": "auto", "ambiguous": True,
                          "E_cut": 0, "chi_cut": 0},
            "dims": {"membrane": 0, "bending": 0, "sum": 0,
                     "rank_bound_ok": True},
            "E_basis": [], "chi_basis": [], "modes": [], "pairs": [],
            "poisson": None, "sigma_spectrum_ref": [],
            "timings": {}, "_spectrum_rows": [],
        }

    monkeypatch.setattr(analysis_mod, "run_analysis", fake)
    out = tmp_path / "run"
    code = cli.main(["analyze", "--surface", "plane", "--out", str(out)])
    assert code == 3
    # report still written so the run can be inspected
    assert (out / "report.json").exists()


def test_cli_verify_warping(tmp_path, capsys):
    summary = tmp_path / "verify.json"
    code = cli.main(["verify", "warping", "--out", str(summary)])
    assert code == 0
    data = json.loads(summary.read_text())
    assert data["passed"] is True
    assert "warping" in capsys.readouterr().out


def test_cli_rejects_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_cli_threshold_fixed_value(tmp_path):
    out = tmp_path / "run"
    code = cli.main(["analyze", "--surface", "plane", "--resolution", "16",
                     "--threshold", "1e-6", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["threshold"]["kind"] == "fixed"
    assert report["dims"]["membrane"] == 0
    assert report["dims"]["bending"] == 3


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1", "2"])
def test_cli_rejects_bad_threshold(tmp_path, capsys, value):
    out = tmp_path / "run"
    code = cli.main(["analyze", "--surface", "plane", "--resolution", "16",
                     "--threshold", value, "--out", str(out)])
    assert code == 1
    assert "threshold" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["4", "0", "4,64"])
def test_cli_rejects_bad_resolution(tmp_path, capsys, value):
    out = tmp_path / "run"
    code = cli.main(["analyze", "--surface", "plane", "--resolution", value,
                     "--out", str(out)])
    assert code == 1
    assert "resolution" in capsys.readouterr().err
    assert not out.exists()


def test_cli_solver_failure_exits_1(tmp_path, capsys, monkeypatch):
    import scipy.sparse.linalg as spla

    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", np.zeros(0),
                                        np.zeros((0, 0)))

    monkeypatch.setattr(spla, "svds", no_convergence)
    out = tmp_path / "run"
    code = cli.main(["analyze", "--surface", "plane", "--resolution", "24",
                     "--out", str(out)])
    assert code == 1
    assert "ARPACK" in capsys.readouterr().err
    assert not out.exists()


def _write_json(path, text):
    path.write_text(text)
    return str(path)


def test_cli_analysis_value_error_exits_1(tmp_path, capsys):
    # a slope this steep leaves no usable crease tangent at resolution 8;
    # assemble_system rejects it after the CLI's own argument checks
    cfg = _write_json(tmp_path / "steep.json",
                      '{"family": "simple-corrugation", "profiles": '
                      '[{"kind": "piecewise-linear", "amplitude": 1e150}]}')
    out = tmp_path / "run"
    code = cli.main(["analyze", "--surface", cfg, "--resolution", "8",
                     "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "bad surface config" in err and "crease tangent" in err
    assert not out.exists()


def test_cli_ill_conditioned_release_exits_1(tmp_path, capsys):
    # so steep a lateral fold leaves the membrane release step with no
    # precision; the report it used to give broke the rank bound
    cfg = _write_json(tmp_path / "steep-miura.json",
                      '{"family": "miura-like", "profiles": ['
                      '{"kind": "piecewise-linear", "amplitude": 1e8}, '
                      '{"kind": "piecewise-linear", "amplitude": 1.0}]}')
    out = tmp_path / "run"
    code = cli.main(["analyze", "--surface", cfg, "--resolution", "8",
                     "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "solver failed" in err and "rcond" in err
    assert not out.exists()


def test_cli_rejects_profile_less_translation_curve(tmp_path, capsys):
    cfg = _write_json(tmp_path / "bare.json",
                      '{"family": "translation-surface", "profiles": ['
                      '{"axis": 0, "vertical": {"kind": "piecewise-linear", '
                      '"amplitude": 1.0}}, {"axis": 1}]}')
    out = tmp_path / "run"
    code = cli.main(["analyze", "--surface", cfg, "--resolution", "8",
                     "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "bad surface config" in err and "at least one profile" in err
    assert not out.exists()


@pytest.mark.parametrize("config", [
    '{"family": "simple-corrugation", "profiles": '
    '[{"kind": "piecewise-linear", "amplitude": NaN}]}',
    '{"family": "simple-corrugation", "period": [NaN, 6.0], "profiles": '
    '[{"kind": "piecewise-linear", "amplitude": 1.0}]}',
    '{"family": "plane", "gamma": NaN}',
], ids=["amplitude", "period", "gamma"])
def test_cli_rejects_non_finite_config_numbers(tmp_path, capsys, config):
    cfg = _write_json(tmp_path / "nan.json", config)
    out = tmp_path / "run"
    code = cli.main(["analyze", "--surface", cfg, "--resolution", "8",
                     "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "bad surface config" in err and "finite" in err
    assert not out.exists()


def test_cli_analyze_has_no_seed_flag(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", "--surface", "plane", "--seed", "1",
                  "--out", str(tmp_path / "run")])
    assert exc.value.code == 2


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_reported_strains_have_a_fixed_sign(analysis_bundle, name):
    # the first vec_sym entry at >= 0.1 of the peak is positive, for every
    # basis row and for each representative's own strain
    def leading(M):
        v = vec_sym(M)
        return v[np.argmax(np.abs(v) >= 0.1 * np.abs(v).max())]

    report = analysis_bundle(name, 16)
    rows = list(report["E_basis"]) + list(report["chi_basis"])
    rows += [m["E"] for m in report["modes"] if m["id"].startswith("membrane")]
    rows += [m["chi"] for m in report["modes"] if m["id"].startswith("bending")]
    assert rows
    assert all(leading(M) > 0 for M in rows)
