"""Closed-form mode catalogue, quadrature cross-checks, symbolic identities."""

import numpy as np
from numpy.testing import assert_allclose

from corruga.chart import (SHEARED_DOUBLE_CORRUGATION, SIMPLE_CORRUGATION,
                           TAU, SurfaceChart, builtin_chart)
from corruga.grid import build_grid, cell_average
from corruga.oracle import (MODE_IDS, TrigField, analytic_mode, fitted_rate,
                            make_trig_field, reparametrization_check,
                            sample_rotation, scaling_limit_check,
                            symmetry_lemma_check)
from corruga.profiles import PIECEWISE_QUADRATIC, SINUSOIDAL, make_profile
from corruga.solver import assemble_system


def test_catalogue_reference_tensors():
    assert_allclose(analytic_mode("eggbox-membrane").E, np.diag([1.0, -1.0]),
                    atol=1e-14)
    miura = analytic_mode("miura-membrane")
    assert_allclose(miura.E, np.diag([1.0, 1.0]), atol=1e-14)
    twist = analytic_mode("translation-twist")
    assert_allclose(twist.chi, [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)
    corr = analytic_mode("corrugation-membrane")
    assert_allclose(corr.E, np.diag([1.0, 0.0]), atol=1e-14)
    assert not corr.has_growth


def test_sampled_modes_are_discrete_solutions():
    for mid in MODE_IDS:
        am = analytic_mode(mid)
        if not am.chart.grid_compatible:
            continue  # sheared panels: analytic catalogue only
        grid = build_grid(am.chart, 16)
        system = assemble_system(grid)
        mode = sample_rotation(am, grid)
        assert (np.linalg.norm(system.matrix @ mode.vector(grid))
                <= 1e-9 * system.sigma_max()), mid


def test_sheared_membrane_matches_first_principles():
    # the catalogue pulls the eggbox membrane back through the shear; the
    # reparametrization check assembles E from the sheared cell means
    sgn = make_profile("piecewise-linear", 1.0, TAU)
    quad = make_profile(PIECEWISE_QUADRATIC, 0.7, TAU / 2)
    for f, g, gamma in ((sgn, sgn, 1.0), (sgn, sgn, -2.0), (quad, sgn, 2.0),
                        (sgn, quad, 0.5)):
        chart = SurfaceChart(SHEARED_DOUBLE_CORRUGATION,
                             (f.period, g.period), (f, g), gamma=gamma)
        am = analytic_mode("sheared-membrane", chart)
        want = reparametrization_check(f, g, gamma).E_direct
        assert_allclose(am.E, want, rtol=1e-14, atol=1e-14,
                        err_msg=f"gamma={gamma}")


def test_corrugation_twist_stretch_is_origin_offset():
    # E12 = (mean f - f(0)) / 2 on a simple corrugation, read here off the
    # translation twist of its curve pair
    wave = make_profile(SINUSOIDAL, 0.8, TAU)
    quad = make_profile(PIECEWISE_QUADRATIC, 1.3, 3.0)
    for chart in (SurfaceChart(SIMPLE_CORRUGATION, (TAU, TAU), (wave,)),
                  SurfaceChart(SIMPLE_CORRUGATION, (3.0, 5.0), (quad,))):
        f = chart.f
        e12 = 0.5 * (f.value_mean() - float(f.value(0.0)))
        E = analytic_mode("corrugation-twist", chart).E
        assert_allclose(E, [[0.0, e12], [e12, 0.0]], rtol=1e-14, atol=1e-15)
    assert abs(e12) > 0.1


def test_membrane_catalogue_matches_cell_quadrature():
    # E from first principles: sym <p_mu, mean(w ^ x_nu)>
    for mid in ("corrugation-membrane", "eggbox-membrane", "miura-membrane"):
        am = analytic_mode(mid)
        grid = build_grid(am.chart, 32)
        mode = sample_rotation(am, grid, normalize=False)
        w = mode.w
        geom = grid.geometry
        E = np.empty((2, 2))
        pd1 = cell_average(np.cross(w, grid.x1), grid)
        pd2 = cell_average(np.cross(w, grid.x2), grid)
        E[0, 0] = np.dot(pd1, geom.p1)
        E[1, 1] = np.dot(pd2, geom.p2)
        E[0, 1] = E[1, 0] = 0.5 * (np.dot(pd1, geom.p2)
                                   + np.dot(pd2, geom.p1))
        assert_allclose(E, am.E, atol=5e-3, err_msg=mid)


def test_scaling_limit_plane_is_exact():
    errs = scaling_limit_check(analytic_mode("plane-bending"))
    assert np.max(errs) == 0.0


def test_scaling_limit_rate_for_growth_modes():
    eps = (0.25, 0.125, 0.0625, 0.03125)
    for mid in ("corrugation-twist", "translation-twist"):
        errs = scaling_limit_check(analytic_mode(mid), eps_list=eps)
        assert all(b < a for a, b in zip(errs, errs[1:])), mid
        assert fitted_rate(eps, errs) >= 0.9, mid


def test_fitted_rate_recovers_exponent():
    eps = np.array([0.25, 0.125, 0.0625])
    assert_allclose(fitted_rate(eps, 3.0 * eps**1.7), 1.7, rtol=1e-12)


def test_symmetry_lemma_trivial_cases():
    chart = SurfaceChart(SIMPLE_CORRUGATION, (TAU, TAU),
                         (make_profile(SINUSOIDAL, 1.0, TAU),))
    grid = build_grid(chart, 64)
    w = make_trig_field(5)
    lhs, rhs = symmetry_lemma_check(chart, w, w, grid)
    assert lhs == rhs  # identical expressions

    const = TrigField(period=(TAU, TAU), waves=np.array([[0, 0]]),
                      cos_c=np.array([[0.3, -1.1, 0.6]]),
                      sin_c=np.zeros((1, 3)))
    lhs, rhs = symmetry_lemma_check(chart, const, w, grid)
    scale = max(1.0, abs(lhs), abs(rhs))
    assert abs(rhs) <= 1e-12 * scale          # D of a constant vanishes
    assert abs(lhs) <= 1e-6 * scale           # forces mean(D w) _|_ const


def test_symmetry_lemma_random_pairs():
    # trapezoid rule is spectrally exact on harmonics, so the gap sits at
    # machine level already; just pin the bound
    chart = SurfaceChart(SIMPLE_CORRUGATION, (TAU, TAU),
                         (make_profile(SINUSOIDAL, 1.0, TAU),))
    rng = np.random.default_rng(77)
    grid = build_grid(chart, 64)
    for _ in range(5):
        a = make_trig_field(int(rng.integers(1 << 31)))
        b = make_trig_field(int(rng.integers(1 << 31)))
        lhs, rhs = symmetry_lemma_check(chart, a, b, grid)
        scale = max(abs(lhs), abs(rhs), a.rms() * b.rms())
        assert abs(lhs - rhs) <= 1e-10 * scale


def test_reparametrization_congruence():
    sgn = make_profile("piecewise-linear", 1.0, TAU)
    res = reparametrization_check(sgn, sgn, gamma=0.0)
    assert_allclose(res.E_congruent, np.diag([1.0, -1.0]), atol=1e-14)
    assert res.congruence_residual <= 1e-12

    res = reparametrization_check(sgn, sgn, gamma=1.0)
    assert_allclose(res.E_congruent, [[0.0, -1.0], [-1.0, -1.0]], atol=1e-14)
    assert res.congruence_residual <= 1e-12
    assert res.invariance_residual <= 1e-12
    assert res.ok


def test_trig_field_rms_matches_sampling():
    f = make_trig_field(123)
    xi = np.random.default_rng(0).uniform(0, TAU, size=(20000, 2))
    vals, _, _ = f.sample(xi[:, 0], xi[:, 1])
    sampled = np.sqrt(np.mean(np.sum(vals**2, axis=-1)))
    assert_allclose(sampled, f.rms(), rtol=5e-2)
