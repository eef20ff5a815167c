"""Effective strain tensors, the orthogonality identity, Poisson ratios."""

import numpy as np
import pytest
from conftest import adjugate_residual, scaled_config
from numpy.testing import assert_allclose

from corruga.analysis import run_analysis
from corruga.chart import (BUILTIN_NAMES, PeriodGeometry, builtin_chart,
                           chart_from_config, period_geometry)
from corruga.grid import build_grid
from corruga.oracle import analytic_mode, sample_rotation
from corruga.solver import RotationMode
from corruga.strains import (CAP_SCALE, chi_from_growth, classify_mode, cut,
                             effective_membrane_strain, growth_share,
                             membrane_row_map, mode_scale,
                             orthogonality_residual,
                             orthogonality_residual_rel, poisson_ratios,
                             unvec_sym, vec_sym)


def test_orthogonality_residual_reference_values():
    assert orthogonality_residual(np.diag([1.0, -1.0]),
                                  np.diag([1.0, 1.0])) == 0.0
    assert orthogonality_residual(np.diag([1.0, 0.0]),
                                  np.diag([0.0, 1.0])) == 1.0
    twist = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert orthogonality_residual(np.diag([1.0, 1.0]), twist) == 0.0


def test_index_and_adjugate_forms_agree():
    rng = np.random.default_rng(11)
    for _ in range(100):
        E = rng.normal(size=(2, 2))
        E = 0.5 * (E + E.T)
        chi = rng.normal(size=(2, 2))
        chi = 0.5 * (chi + chi.T)
        a = orthogonality_residual(E, chi)
        b = adjugate_residual(E, chi)
        assert abs(a - b) <= 1e-14 * max(1.0, abs(a))


def test_residual_rel_is_zero_safe():
    assert orthogonality_residual_rel(np.zeros((2, 2)), np.eye(2)) == 0.0


def test_vec_sym_preserves_frobenius_norm():
    rng = np.random.default_rng(3)
    M = rng.normal(size=(2, 2))
    M = 0.5 * (M + M.T)
    v = vec_sym(M)
    assert_allclose(np.linalg.norm(v), np.linalg.norm(M), rtol=1e-14)
    assert_allclose(unvec_sym(v), M, atol=1e-15)


def test_poisson_ratios_eggbox_reference():
    nu_in, nu_out = poisson_ratios(np.diag([1.0, -1.0]), np.diag([1.0, 1.0]))
    assert nu_in is not None and nu_out is not None
    assert_allclose(nu_in, 1.0, rtol=1e-12)
    assert_allclose(nu_out, -1.0, rtol=1e-12)


def test_poisson_ratios_corrugation_reference():
    # chi22 = 0 gives an out-of-plane ratio of exactly 0
    _, nu_out = poisson_ratios(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
    assert nu_out == 0.0


def test_poisson_ratios_flags_not_fabricated():
    with pytest.raises(ValueError):
        poisson_ratios(np.zeros((2, 2)), np.eye(2))
    # chi11 ~ 0 in the principal basis: out-of-plane ratio undefined
    _, nu_out = poisson_ratios(np.diag([1.0, -1.0]),
                               np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert nu_out is None


def test_chi_sign_covariance_under_normal_flip():
    geom = period_geometry(builtin_chart("translation"))
    flipped = PeriodGeometry(geom.p1, geom.p2, -geom.n)
    W1, W2 = np.array([1.0, 0.0, 0.0]), np.array([0.0, -1.0, 0.0])
    assert_allclose(chi_from_growth(W1, W2, flipped),
                    -chi_from_growth(W1, W2, geom), atol=1e-15)
    # the zero-set of the pairing is unchanged
    E = np.diag([1.0, -1.0])
    r = orthogonality_residual(E, chi_from_growth(W1, W2, geom))
    rf = orthogonality_residual(E, chi_from_growth(W1, W2, flipped))
    assert_allclose(rf, -r, atol=1e-15)


def test_strain_invariance_under_constant_rotation_shift():
    am = analytic_mode("eggbox-membrane")
    grid = build_grid(am.chart, 16)
    mode = sample_rotation(am, grid)
    shifted = RotationMode(w=mode.w + np.array([0.4, -0.2, 0.9]),
                           W1=mode.W1, W2=mode.W2, sigma=mode.sigma)
    E0 = effective_membrane_strain(mode, grid)
    E1 = effective_membrane_strain(shifted, grid)
    assert_allclose(E1, E0, atol=1e-12)
    geom = grid.geometry
    assert_allclose(chi_from_growth(shifted.W1, shifted.W2, geom),
                    chi_from_growth(mode.W1, mode.W2, geom), atol=1e-15)


def test_constant_mode_has_no_strain():
    grid = build_grid(builtin_chart("miura"), 16)
    w = np.tile(np.array([0.3, 0.1, -0.7]), (grid.shape[0], grid.shape[1], 1))
    mode = RotationMode(w=w, W1=np.zeros(3), W2=np.zeros(3), sigma=0.0)
    E = effective_membrane_strain(mode, grid)
    assert np.max(np.abs(E)) <= 1e-13
    assert np.max(np.abs(chi_from_growth(mode.W1, mode.W2,
                                         grid.geometry))) == 0.0
    assert classify_mode(mode, grid, grid.h_max) == "constant"


def test_sampled_catalogue_strains_match_predictions():
    cases = (("corrugation-membrane", "E"), ("eggbox-membrane", "E"),
             ("miura-membrane", "E"), ("translation-twist", "chi"))
    for mid, which in cases:
        am = analytic_mode(mid)
        grid = build_grid(am.chart, 32)
        mode = sample_rotation(am, grid)
        if which == "E":
            got = effective_membrane_strain(mode, grid)
            want = am.E
        else:
            got = chi_from_growth(mode.W1, mode.W2, grid.geometry)
            want = am.chi
        assert_allclose(got, want, atol=5e-3 * max(1.0, np.abs(want).max()),
                        err_msg=mid)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_membrane_row_map_gives_vec_sym_of_E(name):
    # L pairs at each node and then averages; effective_membrane_strain
    # averages the rates first and then pairs them
    grid = build_grid(builtin_chart(name), 16)
    L = membrane_row_map(grid)
    w = np.random.default_rng(5).normal(size=grid.shape + (3,))
    mode = RotationMode(w=w, W1=np.zeros(3), W2=np.zeros(3), sigma=0.0)
    assert_allclose(L @ w.reshape(-1),
                    vec_sym(effective_membrane_strain(mode, grid)), rtol=0,
                    atol=1e-13 * np.abs(L).max() * np.abs(w).max())
    if name == "plane":
        # e1 x e1 = 0 and (e2 x e1 + e1 x e2) / 2 = 0
        assert not np.any(L)


def test_classify_mode_labels():
    am = analytic_mode("eggbox-membrane")
    grid = build_grid(am.chart, 16)
    assert classify_mode(sample_rotation(am, grid), grid,
                         grid.h_max) == "membrane"
    tw = analytic_mode("corrugation-twist")
    gridt = build_grid(tw.chart, 16)
    assert classify_mode(sample_rotation(tw, gridt), gridt,
                         gridt.h_max) == "bending"


def test_mode_scale_is_positive_and_scales_linearly():
    am = analytic_mode("eggbox-membrane")
    grid = build_grid(am.chart, 16)
    mode = sample_rotation(am, grid)
    s = mode_scale(mode, grid)
    doubled = RotationMode(w=2.0 * mode.w, W1=2.0 * mode.W1,
                           W2=2.0 * mode.W2, sigma=mode.sigma)
    assert s > 0
    assert_allclose(mode_scale(doubled, grid), 2.0 * s, rtol=1e-12)


def test_growth_share_holds_under_refinement():
    # a share of per-node means: the sampled twist reads 0.868 at 16 nodes
    # and 0.861 at 64, where a sum over the nodes would fall fourfold
    am = analytic_mode("translation-twist")
    shares = []
    for res in (16, 64):
        grid = build_grid(am.chart, res)
        shares.append(growth_share(sample_rotation(am, grid), grid))
    assert 0.5 < shares[1] < 1.0
    assert abs(shares[0] - shares[1]) <= 1e-2


@pytest.mark.parametrize("name, sign", [("eggbox", -1.0), ("miura", 1.0)])
def test_membrane_representative_matches_catalogue(analysis_bundle, name,
                                                   sign):
    # the reported field is the KKT minimizer itself, so its E per unit RMS
    # rotation is the catalogue mode's: diag(1, sign) / sqrt(3)
    report = analysis_bundle(name, 16)
    grid = report["_grid"]
    am = analytic_mode(f"{name}-membrane")
    ref = am.E / mode_scale(sample_rotation(am, grid), grid)
    assert_allclose(ref, np.diag([1.0, sign]) / np.sqrt(3.0), atol=1e-12)
    (E,) = [m["E"] for m in report["modes"] if m["id"].startswith("membrane")]
    assert np.linalg.norm(E - ref) <= 1e-4 * np.linalg.norm(ref)


LEVELS = np.array([1e-8, 1e-7, 1e-5, 1e-4])


@pytest.mark.parametrize("tau, count, top", [(5e-9, 0, 1e-8),
                                             (1e-6, 2, 1e-5),
                                             (1e-3, 4, 1e-3)])
@pytest.mark.parametrize("factor", [0.99, 1.01])
def test_fixed_cut_is_ambiguous_when_its_gap_is_under_one(tau, count, top,
                                                          factor):
    # every level's floor just under or just over top, the first level above
    # the fixed cut (the cut itself when all are kept): the gap is top over
    # the largest floor of the levels kept, and a cut among levels under
    # their own floor (gap under 1) is ambiguous.  With none kept no floor
    # is read, and the gap is the lowest level over the cut
    floor = np.full(LEVELS.size, factor * top)
    got = cut(LEVELS, 1.0, floor, tau)
    assert got.count == count
    if count == 0:
        assert_allclose(got.gap, LEVELS[0] / tau, rtol=1e-15)
        assert not got.ambiguous
    else:
        assert_allclose(got.gap, 1.0 / factor, rtol=1e-15)
        assert got.ambiguous == (factor > 1.0)
    # the automatic cut at the same cap still asks for a gap of GAP_MIN
    auto = cut(LEVELS, tau / CAP_SCALE, floor)
    assert auto.count == count and auto.ambiguous


def _decision(report):
    th = report["threshold"]
    return (report["dims"], th["ambiguous"],
            [(th[k]["count"], th[k]["ambiguous"])
             for k in ("E_cut", "chi_cut")],
            [(m["id"], m["class"]) for m in report["modes"]])


def _projector(basis):
    rows = np.array([vec_sym(M) for M in basis]).reshape(-1, 3)
    return rows.T @ rows


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_auto_cut_does_not_depend_on_the_length_unit(name):
    # the levels sigma/sigma_max do not change with the chart's length unit,
    # and neither may the cap they are cut at
    ref = run_analysis(builtin_chart(name), 32)
    for scale in (1e-8, 0.25, 4.0, 1e8):
        got = run_analysis(chart_from_config(scaled_config(name, scale)), 32)
        assert _decision(got) == _decision(ref), scale
        for key in ("E_basis", "chi_basis"):
            assert np.abs(_projector(got[key])
                          - _projector(ref[key])).max() <= 1e-10, (scale, key)
