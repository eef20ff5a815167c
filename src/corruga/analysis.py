"""End-to-end surface analysis and the self-check bundles behind `verify`.

run_analysis drives one chart through grid / constraint-system / strain-space
extraction and packs the result into a plain dict that serializes to JSON.
Dimension counts always come from the achievable strain spans; the raw null
set of the discrete system also holds a large cloud of strain-free fields,
so its size carries no geometric information.
"""
from __future__ import annotations

import csv
import json
import time
from pathlib import Path

import numpy as np

from .chart import SurfaceChart, chart_to_config
from .grid import PeriodicGrid, build_grid, display_positions, write_obj
from .solver import ThresholdPolicy, assemble_system, recover_deflection
from .strains import (classify_mode, chi_from_growth,
                      effective_membrane_strain, effective_spaces, mode_scale,
                      orthogonality_residual, orthogonality_residual_rel,
                      poisson_ratios)

# displayed deflection amplitude as a fraction of the parameter cell
DISPLAY_AMPLITUDE = 0.2


def _round_trip(obj):
    """numpy -> plain python, recursively."""
    if isinstance(obj, dict):
        return {k: _round_trip(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_trip(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _round_trip(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def _cut_dict(cut) -> dict:
    return {"count": cut.count, "cap": cut.cap, "gap": cut.gap,
            "ambiguous": cut.ambiguous}


def run_analysis(chart: SurfaceChart, resolution=32,
                 threshold="auto") -> dict:
    """Analyze one surface; returns the report dict (JSON-ready values).

    The report's `modes` list holds one entry per extracted representative,
    tensors normalized per unit RMS rotation.  `pairs` evaluates the strain
    orthogonality identity on every (membrane E, bending chi) pair.
    ``threshold`` is "auto", a fixed relative cut or a ThresholdPolicy.
    """
    pol = ThresholdPolicy.coerce(threshold)
    t0 = time.perf_counter()
    grid = build_grid(chart, resolution)
    system = assemble_system(grid)
    t1 = time.perf_counter()
    spaces = effective_spaces(system, policy=pol)
    t2 = time.perf_counter()

    smax = system.sigma_max()
    geom = grid.geometry
    reps = {}
    for kind, modes in (("membrane", spaces.membrane_modes),
                        ("bending", spaces.bending_modes)):
        reps[kind] = []
        for i, m in enumerate(modes):
            s = mode_scale(m, grid)
            E = effective_membrane_strain(m, grid).E / s
            chi = chi_from_growth(m.W1, m.W2, geom) / s
            reps[kind].append({
                "id": f"{kind}-{i}",
                "class": classify_mode(m, grid),
                "sigma_rel": m.sigma / smax,
                "E": E, "chi": chi,
                "W1": m.W1 / s, "W2": m.W2 / s,
                "_mode": m,
            })

    pairs = []
    poisson = []
    for a in reps["membrane"]:
        for b in reps["bending"]:
            pairs.append({
                "E_of": a["id"], "chi_of": b["id"],
                "residual": orthogonality_residual(a["E"], b["chi"]),
                "residual_rel": orthogonality_residual_rel(a["E"], b["chi"]),
            })
            try:
                pr = poisson_ratios(a["E"], b["chi"])
            except ValueError:
                continue
            poisson.append({
                "membrane": a["id"], "bending": b["id"],
                "nu_in": pr.nu_in if pr.in_defined else None,
                "nu_out": pr.nu_out if pr.out_defined else None,
            })

    levels = [{"space": "growth", "index": i, "sigma_rel": float(v),
               "sigma": float(v * smax)}
              for i, v in enumerate(spaces.chi_values)]
    levels += [{"space": "membrane", "index": i, "sigma_rel": float(v),
                "sigma": float(v * smax)}
               for i, v in enumerate(spaces.E_values)]

    report = {
        "surface": chart_to_config(chart),
        "resolution": {"requested": list(resolution)
                       if isinstance(resolution, (tuple, list))
                       else [int(resolution), int(resolution)],
                       "nodes": list(grid.shape), "h_max": grid.h_max},
        "dims": {"membrane": spaces.dims[0], "bending": spaces.dims[1],
                 "sum": spaces.dims[0] + spaces.dims[1],
                 "rank_bound_ok": spaces.rank_bound_ok},
        "E_basis": [M for M in spaces.E_basis],
        "chi_basis": [M for M in spaces.chi_basis],
        "threshold": {"kind": pol.kind,
                      "E_cut": _cut_dict(spaces.E_cut),
                      "chi_cut": _cut_dict(spaces.chi_cut),
                      "ambiguous": spaces.E_cut.ambiguous
                      or spaces.chi_cut.ambiguous},
        "modes": reps["membrane"] + reps["bending"],
        "pairs": pairs,
        "poisson": poisson,
        "sigma_spectrum_ref": levels,
        "sigma_max": smax,
        "row_counts": system.row_counts(),
        "timings": {"assemble": t1 - t0, "spaces": t2 - t1},
    }
    report["_grid"] = grid          # stripped before serialization
    return report


def write_report(report: dict, path) -> None:
    clean = {k: v for k, v in report.items() if not k.startswith("_")}
    clean["modes"] = [{k: v for k, v in m.items() if not k.startswith("_")}
                      for m in clean["modes"]]
    Path(path).write_text(json.dumps(_round_trip(clean), indent=2) + "\n")


def write_spectrum(report: dict, path) -> None:
    """CSV of the residual levels the dimension counts were cut from."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["space", "index", "sigma", "sigma_rel"])
        for row in report["sigma_spectrum_ref"]:
            wr.writerow([row["space"], row["index"],
                         f"{row['sigma']:.12e}", f"{row['sigma_rel']:.12e}"])


def export_modes(report: dict, out_dir) -> list[str]:
    """Write modes.json plus one displaced-surface OBJ per representative.

    Deflections are scaled so the largest displacement is DISPLAY_AMPLITUDE
    times the parameter cell diagonal; the scale is recorded per mode.
    """
    grid: PeriodicGrid = report["_grid"]
    out = Path(out_dir)
    mode_dir = out / "modes"
    mode_dir.mkdir(parents=True, exist_ok=True)
    cell = float(np.hypot(*grid.chart.period))
    entries = []
    paths = []
    for m in report["modes"]:
        mode = m["_mode"]
        defl = recover_deflection(mode, grid)
        peak = float(np.max(np.linalg.norm(defl.values, axis=-1)))
        amp = DISPLAY_AMPLITUDE * cell / peak if peak > 0 else 0.0
        path = mode_dir / f"{m['id']}.obj"
        write_obj(path, display_positions(grid) + amp * defl.values)
        paths.append(str(path))
        entries.append({k: v for k, v in m.items() if not k.startswith("_")}
                       | {"obj": path.name, "display_scale": amp})
    (out / "modes.json").write_text(
        json.dumps(_round_trip(entries), indent=2) + "\n")
    return paths


# -- verification bundles ---------------------------------------------------

def _check(lines, ok_list, label, ok, detail=""):
    ok_list.append(bool(ok))
    mark = "ok  " if ok else "FAIL"
    lines.append(f"  [{mark}] {label}" + (f"  ({detail})" if detail else ""))


def verify_examples(resolution: int = 32):
    """Dims, strain directions and Poisson ratios of the built-in surfaces."""
    from .chart import builtin_chart

    expected = {
        "plane": ((0, 3), None),
        "corrugation": ((1, 2), np.array([[1.0, 0.0], [0.0, 0.0]])),
        "eggbox": ((1, 2), np.array([[1.0, 0.0], [0.0, -1.0]])),
        "eggbox-hybrid": ((1, 2), np.array([[1.0 / 3.0, 0.0], [0.0, -1.0]])),
        "miura": ((1, 2), np.array([[1.0, 0.0], [0.0, 1.0]])),
        "translation": ((1, 2), np.array([[1.0, 0.0], [0.0, -1.0 / 3.0]])),
    }
    lines = [f"built-in surfaces at resolution {resolution}:"]
    oks: list[bool] = []
    for name, (dims, E_dir) in expected.items():
        rep = run_analysis(builtin_chart(name), resolution)
        got = (rep["dims"]["membrane"], rep["dims"]["bending"])
        amb = rep["threshold"]["ambiguous"]
        _check(lines, oks, f"{name}: dims {got}, expected {dims}",
               got == dims and not amb, "ambiguous" if amb else "")
        if E_dir is not None and got[0] == 1:
            B = rep["E_basis"][0]
            ref = E_dir / np.linalg.norm(E_dir)
            err = min(np.linalg.norm(B - ref), np.linalg.norm(B + ref))
            _check(lines, oks, f"{name}: membrane direction within 2%",
                   err <= 2e-2, f"err={err:.1e}")
        if name == "eggbox":
            nus = [(p["nu_in"], p["nu_out"]) for p in rep["poisson"]
                   if p["nu_in"] is not None and p["nu_out"] is not None]
            ok = any(abs(ni - 1) <= 5e-2 and abs(no + 1) <= 5e-2
                     for ni, no in nus)
            _check(lines, oks, "eggbox: nu_in ~ +1 and nu_out ~ -1 on a "
                   "membrane/bending pair", ok, f"pairs={len(nus)}")
        worst = max((abs(p["residual_rel"]) for p in rep["pairs"]),
                    default=0.0)
        _check(lines, oks, f"{name}: orthogonality residuals <= 1e-2",
               worst <= 1e-2, f"worst={worst:.1e}")
    return all(oks), lines


def verify_lemma(samples: int = 128, npairs: int = 20, seed: int = 2024):
    """Symmetry of the defect operator against random smooth field pairs."""
    from .chart import SIMPLE_CORRUGATION, TAU, SurfaceChart
    from .oracle import make_trig_field, symmetry_lemma_check
    from .profiles import SINUSOIDAL, make_profile

    chart = SurfaceChart(SIMPLE_CORRUGATION, (TAU, TAU),
                         (make_profile(SINUSOIDAL, 1.0, TAU),))
    grid = build_grid(chart, samples)
    lines = [f"defect-operator symmetry, {npairs} random smooth pairs "
             f"at {samples} x {samples}:"]
    oks: list[bool] = []
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(npairs):
        omega = make_trig_field(rng.integers(1 << 31))
        w = make_trig_field(rng.integers(1 << 31))
        lhs, rhs = symmetry_lemma_check(chart, omega, w, grid)
        scale = max(abs(lhs), abs(rhs), omega.rms() * w.rms())
        worst = max(worst, abs(lhs - rhs) / scale)
    _check(lines, oks, "max |<omega, D w> - <w, D omega>| / scale <= 1e-6",
           worst <= 1e-6, f"worst={worst:.1e}")
    return all(oks), lines


def verify_scaling():
    """Quadratic-order remainder of the finite motion built on each mode."""
    from .oracle import (MODE_IDS, analytic_mode, fitted_rate,
                         scaling_limit_check)

    lines = ["finite-motion remainder vs amplitude:"]
    oks: list[bool] = []
    eps = (0.25, 0.125, 0.0625, 0.03125)
    for mid in MODE_IDS:
        am = analytic_mode(mid)
        errs = scaling_limit_check(am, eps_list=eps)
        if mid == "plane-bending":
            ok = max(errs) == 0.0
            _check(lines, oks, f"{mid}: exactly quadratic (zero remainder)",
                   ok, f"max={max(errs):.1e}")
            continue
        rate = fitted_rate(eps, errs)
        mono = all(b < a for a, b in zip(errs, errs[1:]))
        _check(lines, oks, f"{mid}: remainder decreasing, rate >= 0.9",
               mono and rate >= 0.9, f"rate={rate:.2f}")
    return all(oks), lines


def verify_warping():
    """Torsion-constant machinery on sections with known answers."""
    from .warping import dislocation, section_from_points

    lines = ["section warping / dislocation:"]
    oks: list[bool] = []

    t = np.linspace(0.0, 2.0 * np.pi, 1025)
    circle = section_from_points(
        np.column_stack([np.cos(t), np.sin(t)]), closed=True)
    d = dislocation(circle, alpha=1.0)
    _check(lines, oks, "unit circle, 1024 segments: dislocation ~ -2 pi",
           abs(d + 2.0 * np.pi) <= 1e-3 * 2.0 * np.pi, f"d={d:.6f}")

    sq = section_from_points(
        [[0, 0], [1, 0], [1, 1], [0, 1]], closed=True)
    d = dislocation(sq, alpha=1.0)
    _check(lines, oks, "unit square: dislocation exactly -2",
           d == -2.0, f"d={d}")

    # L-shaped midline: horizontal leg on y=0 from the origin to (a, 0),
    # then vertical leg at x=a.  The first leg sweeps no area, the second
    # accumulates -alpha * a * y(s).
    from .warping import warping_function
    a, alpha = 1.0, 2.0
    leg = section_from_points([[0, 0], [a, 0], [a, 0.5], [a, 1.0]])
    w = warping_function(leg, alpha=alpha)
    hand = np.array([0.0, 0.0, -alpha * a * 0.5, -alpha * a * 1.0])
    err = float(np.max(np.abs(w.w - hand)))
    _check(lines, oks, "L-section: hand-integrated warping on both legs",
           err <= 1e-6, f"max err={err:.1e}")

    flipped = section_from_points(
        [[0, 0], [0, 1], [1, 1], [1, 0]], closed=True)
    d = dislocation(flipped, alpha=1.0)
    _check(lines, oks, "orientation flip negates the dislocation",
           d == 2.0, f"d={d}")
    return all(oks), lines


def verify_all(resolution: int = 32, seed: int = 2024):
    """Every suite; resolution goes to the examples, seed to the lemma."""
    ok = True
    lines: list[str] = []
    for good, sub in (verify_examples(resolution=resolution),
                      verify_lemma(seed=seed), verify_scaling(),
                      verify_warping()):
        ok = ok and good
        lines.extend(sub)
    return ok, lines
