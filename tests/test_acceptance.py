"""Acceptance suite.

Thirteen checks, one test each, run against the full pipeline at the stated
resolutions. Decay clauses are floor-guarded: piecewise surfaces integrate
machine-exactly, so their errors sit on the rounding floor at every
resolution instead of shrinking like h^2.
"""

import numpy as np
from conftest import analysis_bundle, bending_reps, membrane_reps
from numpy.linalg import lstsq, norm

from corruga.chart import (SIMPLE_CORRUGATION, TAU, SurfaceChart,
                           builtin_chart, period_geometry)
from corruga.grid import build_grid
from corruga.oracle import (MODE_IDS, analytic_mode, fitted_rate,
                            make_trig_field, reparametrization_check,
                            sample_rotation, scaling_limit_check,
                            symmetry_lemma_check)
from corruga.profiles import make_profile
from corruga.solver import assemble_system, kernel_distance
from corruga.strains import orthogonality_residual
from corruga.warping import dislocation, section_from_points, warping_function

NONTRIVIAL = ("corrugation", "eggbox", "eggbox-hybrid", "miura",
              "translation")
ALL_BUILTINS = ("plane",) + NONTRIVIAL

_systems: dict = {}


def _system(chart, res):
    key = (chart.family, chart.gamma, res)
    if key not in _systems:
        grid = build_grid(chart, res)
        _systems[key] = (grid, assemble_system(grid))
    return _systems[key]


def _acceptance(n, checks, detail=""):
    bad = [msg for ok, msg in checks if not ok]
    status = "PASS" if not bad else "FAIL"
    tail = detail if not bad else "; ".join(bad)
    print(f"ACCEPTANCE {n:02d}: {status}" + (f" ({tail})" if tail else ""))
    assert not bad, "; ".join(bad)


def _decays(seq, factor, floor):
    """Each step shrinks by `factor` unless already below `floor`."""
    return all(b <= max(factor * a, floor) for a, b in zip(seq, seq[1:]))


def _worst_pair_residual_rel(report):
    return max((p["residual_rel"] for p in report["pairs"]), default=0.0)


def _bending_diag_ratio(report):
    """chi_22 / chi_11 of the off-diagonal-free bending combination."""
    a, b = (np.asarray(m["chi"]) for m in bending_reps(report))
    c, d = b[0, 1], -a[0, 1]
    if max(abs(c), abs(d)) < 1e-12 * max(norm(a), norm(b)):
        m = a if abs(a[0, 0]) >= abs(b[0, 0]) else b
    else:
        m = c * a + d * b
    return m[1, 1] / m[0, 0]


def test_criterion_01_plane_is_pure_bending():
    report = analysis_bundle("plane", 64)
    dims = report["dims"]
    reps = report["modes"]
    worst = max(abs(orthogonality_residual(np.asarray(ma["E"]),
                                           np.asarray(mb["chi"])))
                for ma in reps for mb in reps)
    _acceptance(1, [
        (dims["membrane"] == 0, f"membrane dim {dims['membrane']} != 0"),
        (dims["bending"] == 3, f"bending dim {dims['bending']} != 3"),
        (worst < 1e-8, f"pair residual {worst:.2e} >= 1e-8"),
    ], detail=f"dims=(0,3), worst pair {worst:.1e}")


def test_criterion_02_corrugation_membrane_direction():
    fracs = []
    for res in (32, 64, 128):
        report = analysis_bundle("corrugation", res)
        fracs.append(max(abs(np.asarray(m["chi"])[1, 1])
                         / norm(np.asarray(m["chi"]))
                         for m in bending_reps(report)))
    report = analysis_bundle("corrugation", 64)
    dims = report["dims"]
    E = np.asarray(membrane_reps(report)[0]["E"])
    dir_err = norm(E / E[0, 0] - np.diag([1.0, 0.0]))
    _acceptance(2, [
        (dims["membrane"] == 1, f"membrane dim {dims['membrane']} != 1"),
        (dir_err <= 0.02, f"E direction off by {dir_err:.2e}"),
        (fracs[1] <= 1e-2, f"chi_22 fraction {fracs[1]:.2e} > 1e-2"),
        (_decays(fracs, 0.35, 1e-10),
         f"chi_22 fractions not decaying: {fracs}"),
    ], detail=f"E err {dir_err:.1e}, chi22 fracs {[f'{f:.1e}' for f in fracs]}")


def test_criterion_03_eggbox_strain_signatures():
    egg = analysis_bundle("eggbox", 64)
    E = np.asarray(membrane_reps(egg)[0]["E"])
    target = np.diag([1.0, -1.0])
    dir_err = norm(E / E[0, 0] - target) / norm(target)
    r_egg = _bending_diag_ratio(egg)
    r_hyb = _bending_diag_ratio(analysis_bundle("eggbox-hybrid", 64))
    _acceptance(3, [
        (dir_err <= 0.02, f"E direction off by {dir_err:.2e}"),
        (abs(r_egg - 1.0) <= 0.05, f"eggbox bending ratio {r_egg:.4f}"),
        (abs(r_hyb - 3.0) <= 0.15, f"hybrid bending ratio {r_hyb:.4f}"),
    ], detail=f"E err {dir_err:.1e}, ratios {r_egg:.3f} / {r_hyb:.3f}")


def test_criterion_04_miura_saddle_bending():
    report = analysis_bundle("miura", 64)
    ratio = _bending_diag_ratio(report)
    chis = [np.asarray(m["chi"]) for m in bending_reps(report)]
    dets = [np.linalg.det(c) for c in chis]
    rng = np.random.default_rng(404)
    for _ in range(20):
        c, d = rng.normal(size=2)
        m = c * chis[0] + d * chis[1]
        if norm(m) > 1e-9:
            dets.append(np.linalg.det(m) / norm(m) ** 2)
    _acceptance(4, [
        (abs(ratio + 1.0) <= 0.05, f"bending ratio {ratio:.4f} != -1"),
        (max(dets) < 0.0, f"non-saddle bending, max det {max(dets):.2e}"),
    ], detail=f"ratio {ratio:.3f}, max det {max(dets):.2e}")


def test_criterion_05_translation_twist():
    report = analysis_bundle("translation", 64)
    checks = []
    for m in membrane_reps(report):
        E = np.asarray(m["E"])
        frac = abs(E[0, 1]) / norm(E)
        checks.append((frac <= 1e-6, f"membrane E_12 fraction {frac:.2e}"))

    # combine the bending pair so the growth matches unit twist
    reps = bending_reps(report)
    A = np.stack([np.concatenate([np.asarray(m["W1"]), np.asarray(m["W2"])])
                  for m in reps], axis=1)
    target = np.concatenate([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    coeffs, *_ = lstsq(A, target, rcond=None)
    fit = norm(A @ coeffs - target)
    checks.append((fit <= 1e-8, f"twist growth fit residual {fit:.2e}"))
    chi = sum(c * np.asarray(m["chi"]) for c, m in zip(coeffs, reps))
    diag_frac = max(abs(chi[0, 0]), abs(chi[1, 1])) / abs(chi[0, 1])
    checks.append((diag_frac <= 1e-2, f"twist chi diagonal {diag_frac:.2e}"))

    # hand value: parallelogram area of the mean generator derivatives
    alpha, beta = builtin_chart("translation").curves
    va = (alpha.point(alpha.period) - alpha.point(0.0)) / alpha.period
    vb = (beta.point(beta.period) - beta.point(0.0)) / beta.period
    hand = norm(np.cross(va, vb))
    gap = abs(abs(chi[0, 1]) - hand) / hand
    checks.append((gap <= 0.02, f"chi_12 vs hand value off by {gap:.2e}"))
    _acceptance(5, checks,
                detail=f"chi_12 {abs(chi[0,1]):.6f} vs {hand:.6f}, "
                       f"diag frac {diag_frac:.1e}")


def test_criterion_06_orthogonality_all_families():
    checks = []
    details = []
    for name in NONTRIVIAL:
        seq = [_worst_pair_residual_rel(analysis_bundle(name, res))
               for res in (16, 32, 64)]
        checks.append((seq[-1] <= 1e-2,
                       f"{name}: residual {seq[-1]:.2e} > 1e-2"))
        checks.append((_decays(seq, 0.35, 1e-10),
                       f"{name}: no h^2 decay {seq}"))
        details.append(f"{name} {seq[-1]:.1e}")
        report = analysis_bundle(name, 64)
        by_id = {m["id"]: m for m in report["modes"]}
        for p in report["pairs"]:
            E = np.asarray(by_id[p["E_of"]]["E"])
            chi = np.asarray(by_id[p["chi_of"]]["chi"])
            ri = orthogonality_residual(E, chi, form="index")
            ra = orthogonality_residual(E, chi, form="adjugate")
            scale = max(norm(E) * norm(chi), abs(ri))
            checks.append((abs(ri - ra) <= 1e-14 * scale,
                           f"{name}: forms disagree {abs(ri - ra):.2e}"))
    _acceptance(6, checks, detail=", ".join(details))


def test_criterion_07_rank_bound():
    checks = []
    sums = {}
    for name in ALL_BUILTINS:
        dims = analysis_bundle(name, 64)["dims"]
        sums[name] = dims["sum"]
        checks.append((dims["sum"] <= 3, f"{name}: dim sum {dims['sum']} > 3"))
        checks.append((dims["rank_bound_ok"], f"{name}: rank bound flag"))
    for name in NONTRIVIAL:
        checks.append((sums[name] == 3, f"{name}: dim sum {sums[name]} != 3"))
    _acceptance(7, checks, detail=f"sums {sums}")


def test_criterion_08_bending_growth_structure():
    checks = []
    worst_cross = worst_normal = 0.0
    for name in ALL_BUILTINS:
        geom = period_geometry(builtin_chart(name))
        for m in bending_reps(analysis_bundle(name, 64)):
            W1, W2 = np.asarray(m["W1"]), np.asarray(m["W2"])
            scale = max(norm(W1), norm(W2)) * max(norm(geom.p1),
                                                  norm(geom.p2))
            if scale == 0.0:
                continue
            cross = norm(np.cross(W2, geom.p1) - np.cross(W1, geom.p2))
            normal = max(abs(np.dot(W1, geom.n)), abs(np.dot(W2, geom.n)))
            worst_cross = max(worst_cross, cross / scale)
            worst_normal = max(worst_normal, normal / scale)
            checks.append((cross <= 1e-2 * scale,
                           f"{name}/{m['id']}: cross identity {cross:.2e}"))
            checks.append((normal <= 1e-2 * scale,
                           f"{name}/{m['id']}: normal part {normal:.2e}"))
    _acceptance(8, checks,
                detail=f"worst cross {worst_cross:.1e}, "
                       f"normal {worst_normal:.1e}")


def test_criterion_09_symmetry_identity():
    chart = SurfaceChart(SIMPLE_CORRUGATION, (TAU, TAU),
                         (make_profile("sinusoidal", 1.0, TAU),))
    grid = build_grid(chart, 128)
    rng = np.random.default_rng(20240814)
    worst = 0.0
    for _ in range(20):
        a = make_trig_field(int(rng.integers(1 << 31)))
        b = make_trig_field(int(rng.integers(1 << 31)))
        lhs, rhs = symmetry_lemma_check(chart, a, b, grid)
        scale = max(abs(lhs), abs(rhs), a.rms() * b.rms())
        worst = max(worst, abs(lhs - rhs) / scale)
    _acceptance(9, [(worst <= 1e-6, f"identity gap {worst:.2e} > 1e-6")],
                detail=f"worst gap {worst:.1e} over 20 pairs")


def test_criterion_10_scaling_limit():
    eps = (0.25, 0.125, 0.0625, 0.03125)
    checks = []
    rates = {}
    for mid in MODE_IDS:
        errs = scaling_limit_check(analytic_mode(mid), eps_list=eps)
        if mid == "plane-bending":
            checks.append((np.max(errs) == 0.0,
                           f"{mid}: error {np.max(errs):.2e} != 0"))
            continue
        checks.append((all(b < a for a, b in zip(errs, errs[1:])),
                       f"{mid}: not monotone {errs}"))
        rate = fitted_rate(eps, errs)
        rates[mid] = round(rate, 2)
        checks.append((rate >= 0.9, f"{mid}: rate {rate:.2f} < 0.9"))
    _acceptance(10, checks, detail=f"rates {rates}")


def test_criterion_11_warping_identities():
    theta = np.linspace(0.0, TAU, 1025)
    circle = section_from_points(np.column_stack([np.cos(theta),
                                                  np.sin(theta)]),
                                 closed=True)
    d_circle = dislocation(circle, alpha=1.0)
    gap_circle = abs(d_circle + TAU) / TAU

    square = section_from_points([[0, 0], [1, 0], [1, 1], [0, 1]],
                                 closed=True)
    d_square = dislocation(square, alpha=1.0)

    a, al = 1.0, 2.0
    leg = section_from_points([[0, 0], [a, 0], [a, 0.5], [a, 1.0]])
    w = warping_function(leg, al).w
    hand = np.array([0.0, 0.0, -al * a * 0.5, -al * a * 1.0])
    gap_leg = np.max(np.abs(w - hand))

    _acceptance(11, [
        (gap_circle <= 1e-3, f"circle dislocation {d_circle:.6f}"),
        (d_square == -2.0, f"square dislocation {d_square!r} != -2"),
        (gap_leg <= 1e-6, f"L-section values off by {gap_leg:.2e}"),
    ], detail=f"circle {d_circle:.5f}, square {d_square}, leg {gap_leg:.1e}")


def test_criterion_12_catalogue_lies_in_numeric_kernel():
    checks = []
    worst64 = 0.0
    for mid in MODE_IDS:
        am = analytic_mode(mid)
        if not am.chart.grid_compatible:
            continue
        ds = []
        for res in (32, 64):
            grid, system = _system(am.chart, res)
            vec = sample_rotation(am, grid).vector(grid)
            d = float(np.max(kernel_distance(system, vec,
                                             threshold_rel=1e-3)))
            ds.append(d)
        worst64 = max(worst64, ds[1])
        checks.append((ds[1] <= 1e-2, f"{mid}: distance {ds[1]:.2e}"))
        checks.append((ds[1] <= max(0.35 * ds[0], 1e-8),
                       f"{mid}: distance grew {ds}"))
    _acceptance(12, checks, detail=f"worst distance at 64: {worst64:.1e}")


def test_criterion_13_reparametrization_congruence():
    sgn = make_profile("piecewise-linear", 1.0, TAU)
    quad = make_profile("piecewise-quadratic", 1.0, TAU)
    checks = []
    worst = 0.0
    for f, g in ((sgn, sgn), (sgn, quad), (quad, quad)):
        for gamma in (0.0, 0.4, 1.0, -0.7):
            res = reparametrization_check(f, g, gamma)
            worst = max(worst, res.congruence_residual,
                        res.invariance_residual)
            checks.append((res.congruence_residual <= 1e-12,
                           f"gamma={gamma}: congruence "
                           f"{res.congruence_residual:.2e}"))
            checks.append((res.invariance_residual <= 1e-12,
                           f"gamma={gamma}: invariance "
                           f"{res.invariance_residual:.2e}"))
            checks.append((res.ok, f"gamma={gamma}: expansion "
                           f"{res.expansion_residual:.2e}, zero set "
                           f"{res.zero_residual:.2e}"))
    ref = reparametrization_check(sgn, sgn, 1.0)
    checks.append((np.allclose(ref.E_congruent, [[0.0, -1.0], [-1.0, -1.0]],
                               atol=1e-12),
                   f"unit-shear strain {ref.E_congruent}"))
    _acceptance(13, checks, detail=f"worst residual {worst:.1e}")
