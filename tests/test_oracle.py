"""Closed-form mode catalogue, quadrature cross-checks, symbolic identities."""

from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest
from conftest import reparametrization_check
from numpy.testing import assert_allclose

from corruga.chart import (SHEARED_DOUBLE_CORRUGATION, SIMPLE_CORRUGATION,
                           TAU, SpaceCurve, SurfaceChart, builtin_chart)
from corruga.grid import build_grid, cell_average
from corruga.oracle import (MODE_IDS, TrigField, _curve_swirl, analytic_mode,
                            fitted_rate, lemma_scratch, make_trig_field,
                            sample_rotation, scaling_limit_check,
                            symmetry_lemma_check)
from corruga.profiles import (PIECEWISE_LINEAR, PIECEWISE_QUADRATIC,
                              PROFILE_KINDS, SINUSOIDAL, make_profile)
from corruga.solver import assemble_system, mode_from_vector, strain_forms

SRC = Path(__file__).resolve().parents[1] / "src"

# counts the translation charts' parallel-tangent checks: after the import,
# after the first and second requests for the canonical chart, and after
# the mode that uses it
CATALOGUE_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
checks = []
def count(frame, event, arg):
    if event == "call" and frame.f_code.co_name == "_check_translation_partials":
        checks.append(frame.f_code.co_filename)
sys.setprofile(count)
import corruga
print(len(checks))
chart = corruga.canonical_chart("translation-twist")
print(len(checks))
assert corruga.canonical_chart("translation-twist") is chart
print(len(checks))
assert corruga.analytic_mode("translation-twist").chart is chart
print(len(checks))
"""


def test_catalogue_charts_are_built_on_first_use():
    out = subprocess.run([sys.executable, "-c", CATALOGUE_CHILD, str(SRC)],
                         capture_output=True, text=True, check=True,
                         timeout=120).stdout
    assert out.split() == ["0", "1", "1", "1"]


def test_catalogue_reference_tensors():
    assert_allclose(analytic_mode("eggbox-membrane").E, np.diag([1.0, -1.0]),
                    atol=1e-14)
    miura = analytic_mode("miura-membrane")
    assert_allclose(miura.E, np.diag([1.0, 1.0]), atol=1e-14)
    twist = analytic_mode("translation-twist")
    assert_allclose(twist.chi, [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)
    corr = analytic_mode("corrugation-membrane")
    assert_allclose(corr.E, np.diag([1.0, 0.0]), atol=1e-14)
    assert not np.any(corr.W1) and not np.any(corr.W2)


def test_sampled_modes_are_discrete_solutions():
    for mid in MODE_IDS:
        am = analytic_mode(mid)
        if not am.chart.grid_compatible:
            continue  # sheared panels: analytic catalogue only
        grid = build_grid(am.chart, 16)
        system = assemble_system(grid)
        v = sample_rotation(am, grid).vector(grid)
        assert (np.linalg.norm(system.matrix @ v)
                <= 1e-9 * system.sigma_max() * np.linalg.norm(v)), mid


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
        mode = sample_rotation(am, grid)
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


@pytest.mark.parametrize("kind", PROFILE_KINDS)
@pytest.mark.parametrize("slot", ["lateral", "vertical"])
@pytest.mark.parametrize("axis", [0, 1])
def test_curve_swirl_matches_quadrature(axis, slot, kind):
    # the integral of c x c' from 0 to t by the trapezoid rule, piece by
    # piece between breakpoints, each piece's last sample its left limit
    period = 5.0
    p = make_profile(kind, 0.8, period)
    curve = SpaceCurve(axis, **{slot: p})
    for t in (1.3, 0.5 * period + 0.4, period, 1.7 * period):
        knots = sorted({0.0, t} | {b + k * period for b in p.breakpoints
                                   for k in (0, 1) if 0.0 < b + k * period < t})
        want = np.zeros(3)
        for a, b in zip(knots[:-1], knots[1:]):
            s = np.linspace(a, b, int(2000 * (b - a)) + 2)
            side = np.where(np.arange(s.size) == s.size - 1, -1, 1)
            want += np.trapezoid(np.cross(curve.point(s),
                                          curve.tangent(s, side)), s, axis=0)
        assert_allclose(_curve_swirl(curve, t), want, rtol=0, atol=2e-6)


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


def _lemma_reference(chart, omega, w, grid):
    """Both pairing sides with fresh arrays for every plane and temporary."""
    def det(a, b, c):
        return (a[0] * (b[1] * c[2] - b[2] * c[1])
                + a[1] * (b[2] * c[0] - b[0] * c[2])
                + a[2] * (b[0] * c[1] - b[1] * c[0]))

    x1, x2 = np.moveaxis(grid.x1, -1, 0), np.moveaxis(grid.x2, -1, 0)
    po = omega.planes(grid.axis1.xi, grid.axis2.xi)
    pw = w.planes(grid.axis1.xi, grid.axis2.xi)

    def pair(u, v):
        return float(cell_average(det(u[:3], v[6:], x1)
                                  - det(u[:3], v[3:6], x2), grid))
    return pair(po, pw), pair(pw, po)


def test_symmetry_lemma_reused_scratch_changes_no_bit():
    grid = build_grid(_SMOOTH, 32)
    scratch = lemma_scratch(grid)
    for seeds in ((1, 2), (3, 4), (2, 1)):
        a, b = map(make_trig_field, seeds)
        got = symmetry_lemma_check(_SMOOTH, a, b, grid, scratch)
        assert got == _lemma_reference(_SMOOTH, a, b, grid), seeds
        assert symmetry_lemma_check(_SMOOTH, a, b, grid) == got


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


def test_trig_field_partials_are_derivatives_of_its_value():
    # the lemma cannot see every partial's sign flipped (D changes sign on
    # both sides of the identity), so the partials are checked on their own
    f = make_trig_field(11)
    xi1, xi2 = np.random.default_rng(5).uniform(0.0, TAU, (2, 64))
    h = 1e-5
    _, v1, v2 = f.sample(xi1, xi2)
    d1 = (f.sample(xi1 + h, xi2)[0] - f.sample(xi1 - h, xi2)[0]) / (2 * h)
    d2 = (f.sample(xi1, xi2 + h)[0] - f.sample(xi1, xi2 - h)[0]) / (2 * h)
    assert_allclose(v1, d1, rtol=0, atol=1e-7 * np.abs(v1).max())
    assert_allclose(v2, d2, rtol=0, atol=1e-7 * np.abs(v2).max())


def _lemma_chart():
    return SurfaceChart(SIMPLE_CORRUGATION, (TAU, TAU),
                        (make_profile(SINUSOIDAL, 1.0, TAU),))


@pytest.mark.parametrize("resolution", [128, (40, 24)], ids=["128", "40x24"])
def test_trig_field_planes_match_pointwise_sample(resolution):
    # the grid route against the pointwise reference at the grid's nodes; a
    # non-square grid catches swapped axes
    grid = build_grid(_lemma_chart(), resolution)
    xi1, xi2 = grid.axis1.xi, grid.axis2.xi
    for seed in (3, 11):
        f = make_trig_field(seed)
        planes = f.planes(xi1, xi2)
        assert planes.shape == (9,) + grid.shape
        for k, ref in enumerate(f.sample(xi1[:, None], xi2[None, :])):
            got = np.moveaxis(planes[3 * k:3 * k + 3], 0, -1)
            assert_allclose(got, ref, rtol=0,
                            atol=1e-13 * np.abs(ref).max())


def test_symmetry_lemma_matches_cross_product_reference():
    # both sides against <omega, w_2 x x_1 - w_1 x x_2> from the pointwise
    # samples and np.cross
    chart = _lemma_chart()
    grid = build_grid(chart, 128)
    X1, X2 = grid.axis1.xi[:, None], grid.axis2.xi[None, :]

    def side(u, v):
        uv, _, _ = u.sample(X1, X2)
        _, v1, v2 = v.sample(X1, X2)
        dv = np.cross(v2, grid.x1) - np.cross(v1, grid.x2)
        return float(cell_average(np.einsum("ijk,ijk->ij", uv, dv), grid))

    rng = np.random.default_rng(15)
    for _ in range(5):
        a = make_trig_field(int(rng.integers(1 << 31)))
        b = make_trig_field(int(rng.integers(1 << 31)))
        lhs, rhs = symmetry_lemma_check(chart, a, b, grid)
        ref_lhs, ref_rhs = side(a, b), side(b, a)
        scale = max(abs(ref_lhs), abs(ref_rhs), a.rms() * b.rms())
        assert abs(lhs - ref_lhs) <= 1e-13 * scale
        assert abs(rhs - ref_rhs) <= 1e-13 * scale


def _eggbox8():
    return build_grid(builtin_chart("eggbox"), 8)


def _zero_mode():
    system = assemble_system(_eggbox8())
    return mode_from_vector(system, np.zeros(system.nunknowns))


def _nan_average():
    grid = _eggbox8()
    return cell_average(np.full(grid.shape, np.nan), grid)


_SMOOTH = SurfaceChart(SIMPLE_CORRUGATION, (TAU, TAU),
                       (make_profile(SINUSOIDAL, 1.0, TAU),))
_TWO_COMPONENTS = SpaceCurve(0, lateral=make_profile(PIECEWISE_QUADRATIC, 0.5),
                             vertical=make_profile(PIECEWISE_LINEAR, 1.0))

# each documented ValueError: (the call, a pattern of its message)
REFUSALS = {
    "cell-average-shape": (
        lambda: cell_average(np.ones((3, 3)), _eggbox8()),
        r"field shape \(3, 3\) does not match grid"),
    "cell-average-flattened": (
        lambda: cell_average(np.ones((_eggbox8().nnodes, 3)), _eggbox8()),
        r"field shape \(100, 3\) does not match grid"),
    "cell-average-non-finite": (
        _nan_average, "field contains non-finite values"),
    "mode-from-zero-vector": (
        _zero_mode, "zero mode vector"),
    "row-map-width": (
        lambda: strain_forms(assemble_system(_eggbox8()), np.ones((3, 5))),
        r"row map width must be 3 \* nnodes"),
    "unknown-mode": (
        lambda: analytic_mode("no-such-mode"),
        "unknown analytic mode 'no-such-mode'"),
    "mode-on-other-family": (
        lambda: analytic_mode("eggbox-membrane", builtin_chart("miura")),
        "needs a 'double-corrugation' chart, got 'miura-like'"),
    "sample-on-other-grid": (
        lambda: sample_rotation(analytic_mode("miura-membrane"), _eggbox8()),
        "grid was built for a different chart"),
    "lemma-on-creased-chart": (
        lambda: symmetry_lemma_check(builtin_chart("eggbox"),
                                     make_trig_field(1), make_trig_field(2),
                                     _eggbox8()),
        "needs a smooth chart"),
    "lemma-on-other-grid": (
        lambda: symmetry_lemma_check(_SMOOTH, make_trig_field(1),
                                     make_trig_field(2), _eggbox8()),
        "grid was built for a different chart"),
    "swirl-of-two-components": (
        lambda: _curve_swirl(_TWO_COMPONENTS, 1.0),
        "single profile component"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_documented_refusals(case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError, match=message):
        call()
