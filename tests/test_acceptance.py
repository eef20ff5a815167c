"""Acceptance suite.

Thirteen checks, one test each, run against the full pipeline at the stated
resolutions. Decay clauses are floor-guarded: piecewise surfaces integrate
machine-exactly, so their errors sit on the rounding floor at every
resolution instead of shrinking like h^2. Criteria 9, 10 and 11 are the
`corruga verify` lemma, scaling and warping suites, run as they are.
"""

import numpy as np
from conftest import (adjugate_residual, analysis_bundle, bending_reps,
                      membrane_reps, reparametrization_check)
from numpy.linalg import lstsq, norm

from corruga import analysis
from corruga.chart import TAU, builtin_chart, period_geometry
from corruga.grid import build_grid
from corruga.oracle import MODE_IDS, analytic_mode, sample_rotation
from corruga.profiles import make_profile
from corruga.solver import assemble_system, kernel_distance
from corruga.strains import orthogonality_residual

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


def _suite_acceptance(n, suite):
    """Criterion n is the `corruga verify` suite whose (ok, lines) result is
    given: its ok decides, and its check lines give the detail."""
    ok, lines = suite
    details, failed = [], []
    for line in lines[1:]:
        label, _, value = line.strip()[len("[ok  ] "):].partition("  (")
        details.append(f"{label.partition(': ')[0]} {value[:-1]}")
        if "[FAIL]" in line:
            failed.append(line.strip())
    _acceptance(n, [(len(lines) > 1, "the suite ran no check"),
                    (ok, "; ".join(failed) or "the suite failed")],
                detail="; ".join(details))


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
            ri = orthogonality_residual(E, chi)
            ra = adjugate_residual(E, chi)
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
    _suite_acceptance(9, analysis.verify_lemma(samples=128, npairs=20,
                                               seed=20240814))


def test_criterion_10_scaling_limit():
    _suite_acceptance(10, analysis.verify_scaling())


def test_criterion_11_warping_identities():
    _suite_acceptance(11, analysis.verify_warping())


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
