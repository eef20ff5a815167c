"""Chart evaluation, one-sided partials, and period geometry."""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from corruga.chart import (BUILTIN_NAMES, TAU, SpaceCurve, SurfaceChart,
                           _min_tangent_sine, _tangent_samples,
                           builtin_chart, chart_from_config, chart_partials,
                           chart_to_config, evaluate_chart, period_geometry)
from corruga.oracle import canonical_chart
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
    elif fam == "miura-like":
        f, g = chart.profiles
        x = [xi1, xi2 + f.value(xi1), g.value(xi2)]
        x1, x2 = [one, f.slope(xi1, s1), zero], [zero, one, g.slope(xi2, s2)]
    else:
        assert fam == "sheared-double-corrugation"
        f, g = chart.profiles
        gamma = chart.gamma
        eta = xi2 + gamma * xi1
        gs = g.slope(eta, s2)
        x = [xi1, eta, f.value(xi1) + g.value(eta)]
        x1 = [one, gamma * one, f.slope(xi1, s1) + gamma * gs]
        x2 = [zero, one, gs]
    return tuple(np.stack(c, axis=-1) for c in (x, x1, x2))


def _lateral_translation():
    wave = make_profile("piecewise-linear", 0.5, TAU, (1.0, 1.0 + TAU / 2))
    bump = make_profile("piecewise-quadratic", 0.8, TAU)
    return SurfaceChart("translation-surface", (TAU, TAU),
                        (SpaceCurve(0, lateral=wave, vertical=bump),
                         SpaceCurve(1, lateral=bump)))


def _sheared(gamma):
    sgn = make_profile("piecewise-linear", 1.0, TAU)
    bump = make_profile("piecewise-quadratic", 0.8, TAU)
    return SurfaceChart("sheared-double-corrugation", (TAU, TAU), (sgn, bump),
                        gamma=gamma)


_EXTRA_CHARTS = {"translation-lateral": _lateral_translation,
                 "sheared@1": lambda: _sheared(1.0),
                 "sheared@-2": lambda: _sheared(-2.0)}


@pytest.mark.parametrize("name", BUILTIN_NAMES + tuple(_EXTRA_CHARTS))
def test_grid_families_match_their_closed_forms(name):
    chart = (_EXTRA_CHARTS[name]() if name in _EXTRA_CHARTS
             else builtin_chart(name))
    rng = np.random.default_rng(3)
    # breakpoints of both curves, approached from either side; the first
    # offset is 0, where only ``side`` picks the panel
    b1 = chart.curves[0].panel_breakpoints() or (1.0,)
    b2 = chart.curves[1].panel_breakpoints() or (2.0,)
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


_ROUNDTRIP_CHARTS = {
    "translation-lateral": _lateral_translation,
    "sinusoidal": lambda: SurfaceChart(
        "double-corrugation", (5.0, 7.0),
        (make_profile("sinusoidal", 0.4, 5.0),
         make_profile("sinusoidal", 1.3, 7.0))),
    "custom-layout": lambda: SurfaceChart(
        "miura-like", (6.0, 4.0),
        (make_profile("piecewise-quadratic", 0.6, 6.0, (1.0, 3.0, 4.0, 5.0)),
         make_profile("piecewise-linear", 0.9, 4.0, (0.5, 2.5)))),
    "sheared": lambda: canonical_chart("sheared-membrane"),
}


@pytest.mark.parametrize("name", BUILTIN_NAMES + tuple(_ROUNDTRIP_CHARTS))
def test_config_roundtrip(name):
    chart = (_ROUNDTRIP_CHARTS[name]() if name in _ROUNDTRIP_CHARTS
             else builtin_chart(name))
    cfg = chart_to_config(chart)
    assert chart_from_config(cfg) == chart
    # and through the JSON text of a config file, where a sinusoid's empty
    # breakpoint list is written as []
    text = json.dumps(cfg)
    assert chart_from_config(json.loads(text)) == chart
    if name == "sinusoidal":
        assert text.count('"breakpoints": []') == 2


def test_config_null_keys_take_their_defaults():
    # a missing or null optional key reads the same at every level: chart,
    # curve entry and profile entry
    pl = {"kind": "piecewise-linear", "amplitude": 1.0}
    bare = {"family": "translation-surface",
            "profiles": [{"vertical": pl}, {"lateral": pl}]}
    nulls = {"family": "translation-surface", "period": None, "gamma": None,
             "profiles": [{"axis": None, "lateral": None,
                           "vertical": dict(pl, period=None,
                                            breakpoints=None)},
                          {"axis": None, "vertical": None, "lateral": pl}]}
    chart = chart_from_config(bare)
    assert chart_from_config(nulls) == chart
    assert chart == SurfaceChart(
        "translation-surface", (TAU, TAU),
        (SpaceCurve(0, vertical=_pl()), SpaceCurve(1, lateral=_pl())))
    assert chart_from_config({"family": "plane", "profiles": None}) == \
        builtin_chart("plane")


def test_unknown_builtin_rejected():
    with pytest.raises(ValueError) as err:
        builtin_chart("moebius")
    assert all(name in str(err.value) for name in BUILTIN_NAMES)


def _pl():
    return make_profile("piecewise-linear", 1.0, TAU)


def _pq():
    return make_profile("piecewise-quadratic", 1.0, TAU)


def _curves(*axes):
    return tuple(SpaceCurve(a, vertical=_pl()) for a in axes)


# each case builds a chart that must be refused, with the message it gives
CHART_REFUSALS = {
    "unknown-family": (
        lambda: SurfaceChart("moebius-strip", (TAU, TAU)),
        "unknown family 'moebius-strip'"),
    "plane-with-profile": (
        lambda: SurfaceChart("plane", (TAU, TAU), (_pl(),)),
        r"family 'plane' needs 0 Profile value\(s\)"),
    "corrugation-two-profiles": (
        lambda: SurfaceChart("simple-corrugation", (TAU, TAU), (_pl(), _pl())),
        r"family 'simple-corrugation' needs 1 Profile value\(s\)"),
    "double-corrugation-one-profile": (
        lambda: SurfaceChart("double-corrugation", (TAU, TAU), (_pl(),)),
        r"family 'double-corrugation' needs 2 Profile value\(s\)"),
    "double-corrugation-curves": (
        lambda: SurfaceChart("double-corrugation", (TAU, TAU), _curves(0, 1)),
        r"family 'double-corrugation' needs 2 Profile value\(s\)"),
    "translation-profiles": (
        lambda: SurfaceChart("translation-surface", (TAU, TAU), (_pl(), _pl())),
        r"family 'translation-surface' needs 2 SpaceCurve value\(s\)"),
    "corrugation-period-T1": (
        lambda: SurfaceChart("simple-corrugation", (2 * TAU, TAU), (_pl(),)),
        r"profile periods must equal \(T1, T2\)"),
    "double-corrugation-period-T2": (
        lambda: SurfaceChart("double-corrugation", (TAU, 2 * TAU),
                             (_pl(), _pl())),
        r"profile periods must equal \(T1, T2\)"),
    "miura-period-T1": (
        lambda: SurfaceChart("miura-like", (2 * TAU, TAU), (_pl(), _pl())),
        r"profile periods must equal \(T1, T2\)"),
    "translation-period-T2": (
        lambda: SurfaceChart("translation-surface", (TAU, 2 * TAU),
                             _curves(0, 1)),
        r"profile periods must equal \(T1, T2\)"),
    "translation-swapped-axes": (
        lambda: SurfaceChart("translation-surface", (TAU, TAU), _curves(1, 0)),
        r"translation curves must have axes \(0, 1\)"),
    "translation-profile-less-curve": (
        lambda: SurfaceChart("translation-surface", (TAU, TAU),
                             (SpaceCurve(0, vertical=_pl()), SpaceCurve(1))),
        "a translation curve needs at least one profile"),
    "miura-quadratic-second-profile": (
        lambda: SurfaceChart("miura-like", (TAU, TAU), (_pl(), _pq())),
        "miura-like needs a piecewise-linear second profile"),
    "sheared-half-gamma": (
        lambda: SurfaceChart("sheared-double-corrugation", (TAU, TAU),
                             (_pl(), _pq()), gamma=0.5),
        r"gamma\*T1 must be an integer multiple of T2"),
    "gamma-on-double-corrugation": (
        lambda: SurfaceChart("double-corrugation", (TAU, TAU), (_pl(), _pq()),
                             gamma=1.0),
        "gamma applies to the sheared family only"),
    "zero-period": (
        lambda: SurfaceChart("plane", (0.0, TAU)),
        "periods must be finite positive numbers"),
    "nan-gamma": (
        lambda: SurfaceChart("plane", (TAU, TAU), gamma=math.nan),
        "gamma must be a finite number"),
    "translation-parallel-tangents": (
        # tangents (1, +-1, 0) and (+-1, 1, 0): parallel where the signs agree
        lambda: SurfaceChart("translation-surface", (TAU, TAU),
                             (SpaceCurve(0, lateral=_pl()),
                              SpaceCurve(1, lateral=_pl()))),
        "curve tangents become parallel"),
    "unknown-builtin": (
        lambda: builtin_chart("moebius"),
        "unknown builtin surface 'moebius'; choose from plane, corrugation, "
        "eggbox, eggbox-hybrid, miura, translation"),
}


@pytest.mark.parametrize("case", CHART_REFUSALS)
def test_chart_refusals(case):
    build, message = CHART_REFUSALS[case]
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("case", ["builtin", "nearly-parallel"])
def test_blocked_tangent_check_equals_one_table(case):
    # the parallel-tangent check takes its minimum over row blocks of the
    # pair table; it must be bit-equal to the minimum of the whole table
    if case == "builtin":
        chart = builtin_chart("translation")
    else:
        # lateral slopes +-1 and +-1.001: tangents (1, 1, 0) and
        # (1.001, 1, 0) meet at a sine of about 5e-4
        chart = SurfaceChart("translation-surface", (TAU, TAU),
                             (SpaceCurve(0, lateral=_pl()),
                              SpaceCurve(1, lateral=make_profile(
                                  "piecewise-linear", 1.001, TAU))))
    ta, tb = map(_tangent_samples, chart.profiles, chart.period)
    table = (np.linalg.norm(np.cross(ta[:, None, :], tb[None, :, :]), axis=-1)
             / (np.linalg.norm(ta, axis=-1)[:, None]
                * np.linalg.norm(tb, axis=-1)[None, :]))
    assert _min_tangent_sine(ta, tb) == np.min(table)
    if case == "nearly-parallel":
        assert 1e-8 < np.min(table) < 1e-3
