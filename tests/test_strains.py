"""Effective strain tensors, the orthogonality identity, Poisson ratios."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from corruga.chart import PeriodGeometry, builtin_chart, period_geometry
from corruga.grid import build_grid
from corruga.oracle import analytic_mode, sample_rotation
from corruga.solver import RotationMode
from corruga.strains import (chi_from_growth, classify_mode,
                             effective_membrane_strain, mode_scale,
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
        a = orthogonality_residual(E, chi, form="index")
        b = orthogonality_residual(E, chi, form="adjugate")
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
    pr = poisson_ratios(np.diag([1.0, -1.0]), np.diag([1.0, 1.0]))
    assert pr.in_defined and pr.out_defined
    assert_allclose(pr.nu_in, 1.0, rtol=1e-12)
    assert_allclose(pr.nu_out, -1.0, rtol=1e-12)


def test_poisson_ratios_corrugation_reference():
    # chi22 = 0 gives an out-of-plane ratio of exactly 0
    pr = poisson_ratios(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
    assert pr.out_defined
    assert pr.nu_out == 0.0


def test_poisson_ratios_flags_not_fabricated():
    with pytest.raises(ValueError):
        poisson_ratios(np.zeros((2, 2)), np.eye(2))
    # chi11 ~ 0 in the principal basis: out-of-plane ratio undefined
    pr = poisson_ratios(np.diag([1.0, -1.0]),
                        np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert not pr.out_defined


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
    mode = sample_rotation(am, grid, normalize=False)
    shifted = RotationMode(w=mode.w + np.array([0.4, -0.2, 0.9]),
                           W1=mode.W1, W2=mode.W2, sigma=mode.sigma)
    E0 = effective_membrane_strain(mode, grid).E
    E1 = effective_membrane_strain(shifted, grid).E
    assert_allclose(E1, E0, atol=1e-12)
    geom = grid.geometry
    assert_allclose(chi_from_growth(shifted.W1, shifted.W2, geom),
                    chi_from_growth(mode.W1, mode.W2, geom), atol=1e-15)


def test_constant_mode_has_no_strain():
    grid = build_grid(builtin_chart("miura"), 16)
    w = np.tile(np.array([0.3, 0.1, -0.7]), (grid.shape[0], grid.shape[1], 1))
    mode = RotationMode(w=w, W1=np.zeros(3), W2=np.zeros(3), sigma=0.0)
    E = effective_membrane_strain(mode, grid).E
    assert np.max(np.abs(E)) <= 1e-13
    assert np.max(np.abs(chi_from_growth(mode.W1, mode.W2,
                                         grid.geometry))) == 0.0
    assert classify_mode(mode, grid) == "constant"


def test_sampled_catalogue_strains_match_predictions():
    cases = (("corrugation-membrane", "E"), ("eggbox-membrane", "E"),
             ("miura-membrane", "E"), ("translation-twist", "chi"))
    for mid, which in cases:
        am = analytic_mode(mid)
        grid = build_grid(am.chart, 32)
        mode = sample_rotation(am, grid, normalize=False)
        if which == "E":
            got = effective_membrane_strain(mode, grid).E
            want = am.E
        else:
            got = chi_from_growth(mode.W1, mode.W2, grid.geometry)
            want = am.chi
        assert_allclose(got, want, atol=5e-3 * max(1.0, np.abs(want).max()),
                        err_msg=mid)


def test_classify_mode_labels():
    am = analytic_mode("eggbox-membrane")
    grid = build_grid(am.chart, 16)
    assert classify_mode(sample_rotation(am, grid), grid) == "membrane"
    tw = analytic_mode("corrugation-twist")
    gridt = build_grid(tw.chart, 16)
    assert classify_mode(sample_rotation(tw, gridt), gridt) == "bending"


def test_mode_scale_is_positive_and_scales_linearly():
    am = analytic_mode("eggbox-membrane")
    grid = build_grid(am.chart, 16)
    mode = sample_rotation(am, grid, normalize=False)
    s = mode_scale(mode, grid)
    doubled = RotationMode(w=2.0 * mode.w, W1=2.0 * mode.W1,
                           W2=2.0 * mode.W2, sigma=mode.sigma)
    assert s > 0
    assert_allclose(mode_scale(doubled, grid), 2.0 * s, rtol=1e-12)


@pytest.mark.parametrize("name, sign", [("eggbox", -1.0), ("miura", 1.0)])
def test_membrane_representative_matches_catalogue(analysis_bundle, name,
                                                   sign):
    # the reported field is the KKT minimizer itself, so its E per unit RMS
    # rotation is the catalogue mode's: diag(1, sign) / sqrt(3)
    report = analysis_bundle(name, 16)
    grid = report["_grid"]
    am = analytic_mode(f"{name}-membrane")
    ref = am.E / mode_scale(sample_rotation(am, grid, normalize=False), grid)
    assert_allclose(ref, np.diag([1.0, sign]) / np.sqrt(3.0), atol=1e-12)
    (E,) = [m["E"] for m in report["modes"] if m["id"].startswith("membrane")]
    assert np.linalg.norm(E - ref) <= 1e-4 * np.linalg.norm(ref)
