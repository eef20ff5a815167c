"""Chart evaluation, one-sided partials, and period geometry."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from corruga.chart import (BUILTIN_NAMES, TAU, SpaceCurve, SurfaceChart,
                           builtin_chart, chart_from_config, chart_partials,
                           chart_to_config, evaluate_chart, period_geometry)
from corruga.profiles import make_profile


def test_plane_evaluation():
    chart = builtin_chart("plane")
    assert_allclose(evaluate_chart(chart, 0.3, 0.7), [0.3, 0.7, 0.0],
                    atol=1e-15)
    x1, x2 = chart_partials(chart, 0.3, 0.7)
    assert_allclose(x1, [1.0, 0.0, 0.0], atol=1e-15)
    assert_allclose(x2, [0.0, 1.0, 0.0], atol=1e-15)


def test_corrugation_graph_form():
    chart = builtin_chart("corrugation")
    f = chart.profiles[0]
    for xi1, xi2 in ((0.2, 1.1), (2.0, 4.4)):
        assert_allclose(evaluate_chart(chart, xi1, xi2),
                        [xi1, xi2, f.value(xi1)], atol=1e-14)


def test_miura_map_form():
    chart = builtin_chart("miura")
    f, g = chart.profiles
    xi1, xi2 = 0.9, 2.3
    assert_allclose(evaluate_chart(chart, xi1, xi2),
                    [xi1, xi2 + f.value(xi1), g.value(xi2)], atol=1e-14)


def test_eggbox_partials():
    chart = builtin_chart("eggbox")
    f, g = chart.profiles
    xi1, xi2 = 0.35, 1.7
    x1, x2 = chart_partials(chart, xi1, xi2)
    assert_allclose(x1, [1.0, 0.0, float(f.slope(xi1))], atol=1e-14)
    assert_allclose(x2, [0.0, 1.0, float(g.slope(xi2))], atol=1e-14)


def test_one_sided_partials_flip_at_crease():
    chart = builtin_chart("corrugation")
    b = chart.profiles[0].crease_breakpoints[0]
    left, _ = chart_partials(chart, b, 0.5, side=(-1, 1))
    right, _ = chart_partials(chart, b, 0.5, side=(1, 1))
    assert_allclose(left[2], 1.0, atol=1e-14)
    assert_allclose(right[2], -1.0, atol=1e-14)


def _closed_form(chart, xi1, xi2, s1, s2):
    """Each grid family's position and one-sided partials, written out."""
    one, zero = np.ones_like(xi1), np.zeros_like(xi1)
    fam = chart.family
    if fam == "translation-surface":
        a, b = chart.profiles
        al, av = a.lateral, a.vertical
        bl, bv = b.lateral, b.vertical

        def val(p, t):
            return p.value(t) if p else zero

        def slp(p, t, s):
            return p.slope(t, s) if p else zero
        x = [xi1 + val(bl, xi2), val(al, xi1) + xi2, val(av, xi1) + val(bv, xi2)]
        x1 = [one, slp(al, xi1, s1), slp(av, xi1, s1)]
        x2 = [slp(bl, xi2, s2), one, slp(bv, xi2, s2)]
    elif fam == "plane":
        x, x1, x2 = [xi1, xi2, zero], [one, zero, zero], [zero, one, zero]
    elif fam == "simple-corrugation":
        f = chart.f
        x = [xi1, xi2, f.value(xi1)]
        x1, x2 = [one, zero, f.slope(xi1, s1)], [zero, one, zero]
    elif fam == "double-corrugation":
        f, g = chart.profiles
        x = [xi1, xi2, f.value(xi1) + g.value(xi2)]
        x1, x2 = [one, zero, f.slope(xi1, s1)], [zero, one, g.slope(xi2, s2)]
    else:
        assert fam == "miura-like"
        f, g = chart.profiles
        x = [xi1, xi2 + f.value(xi1), g.value(xi2)]
        x1, x2 = [one, f.slope(xi1, s1), zero], [zero, one, g.slope(xi2, s2)]
    return tuple(np.stack(c, axis=-1) for c in (x, x1, x2))


def _lateral_translation():
    wave = make_profile("piecewise-linear", 0.5, TAU, (1.0, 1.0 + TAU / 2))
    bump = make_profile("piecewise-quadratic", 0.8, TAU)
    return SurfaceChart("translation-surface", (TAU, TAU),
                        (SpaceCurve(0, lateral=wave, vertical=bump),
                         SpaceCurve(1, lateral=bump)))


@pytest.mark.parametrize("name", BUILTIN_NAMES + ("translation-lateral",))
def test_grid_families_match_their_closed_forms(name):
    chart = (_lateral_translation() if name == "translation-lateral"
             else builtin_chart(name))
    rng = np.random.default_rng(3)
    # breakpoints of both directions, approached from either side; the
    # first offset is 0, where only ``side`` picks the panel
    b1 = chart.panel_breakpoints(0) or (1.0,)
    b2 = chart.panel_breakpoints(1) or (2.0,)
    offsets = np.concatenate([[0.0], rng.uniform(0.0, 0.3, 39)])
    for s1 in (1, -1):
        for s2 in (1, -1):
            xi1 = rng.choice(b1, 40) + s1 * offsets + TAU * rng.integers(-1, 2, 40)
            xi2 = rng.choice(b2, 40) + s2 * rng.permutation(offsets)
            want = _closed_form(chart, xi1, xi2, s1, s2)
            got = (evaluate_chart(chart, xi1, xi2),
                   *chart_partials(chart, xi1, xi2, (s1, s2)))
            for g, w in zip(got, want):
                assert_allclose(g, w, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_periodicity_modulo_linear(name):
    # x(xi + (T1, 0)) - x(xi) is the same vector wherever it is evaluated
    chart = builtin_chart(name)
    t1, t2 = chart.period
    probes = [(0.1, 0.2), (1.0, 2.7), (3.1, 5.9)]
    shifts1 = [evaluate_chart(chart, a + t1, b) - evaluate_chart(chart, a, b)
               for a, b in probes]
    shifts2 = [evaluate_chart(chart, a, b + t2) - evaluate_chart(chart, a, b)
               for a, b in probes]
    for s in shifts1[1:]:
        assert_allclose(s, shifts1[0], atol=1e-12)
    for s in shifts2[1:]:
        assert_allclose(s, shifts2[0], atol=1e-12)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_partials_match_finite_differences(name):
    chart = builtin_chart(name)
    # stay away from breakpoints of both coordinates
    xi1, xi2 = 0.13, 0.11
    h = 1e-5
    x1, x2 = chart_partials(chart, xi1, xi2)
    d1 = (evaluate_chart(chart, xi1 + h, xi2)
          - evaluate_chart(chart, xi1 - h, xi2)) / (2 * h)
    d2 = (evaluate_chart(chart, xi1, xi2 + h)
          - evaluate_chart(chart, xi1, xi2 - h)) / (2 * h)
    assert_allclose(x1, d1, atol=1e-8)
    assert_allclose(x2, d2, atol=1e-8)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_period_geometry_unit_normal(name):
    geom = period_geometry(builtin_chart(name))
    assert_allclose(np.linalg.norm(geom.n), 1.0, rtol=1e-14)
    assert abs(np.dot(np.cross(geom.p1, geom.p2), geom.n)) > 1e-8


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_config_roundtrip(name):
    chart = builtin_chart(name)
    clone = chart_from_config(chart_to_config(chart))
    xi = np.array([0.4, 1.9])
    assert_allclose(evaluate_chart(clone, *xi), evaluate_chart(chart, *xi),
                    atol=1e-15)
    assert clone.family == chart.family
    assert clone.period == chart.period


def test_unknown_builtin_rejected():
    with pytest.raises((KeyError, ValueError)):
        builtin_chart("moebius")
