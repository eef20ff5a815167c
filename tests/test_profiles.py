"""Profile construction, exact integrals, and breakpoint semantics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from corruga.profiles import (PIECEWISE_LINEAR, PIECEWISE_QUADRATIC,
                              SINUSOIDAL, make_profile)

TAU = 2.0 * math.pi


def test_sgn_profile_slope_values():
    # f' = sgn(cos x): +1 on (0, pi/2), -1 on (pi/2, 3pi/2)
    f = make_profile(PIECEWISE_LINEAR, 1.0, TAU, (TAU / 4, 3 * TAU / 4))
    assert f.slope(0.1) == 1.0
    assert f.slope(math.pi) == -1.0
    assert f.slope(TAU - 0.1) == 1.0
    # one-sided limits flip across the breakpoint
    assert f.slope(TAU / 4, side=-1) == 1.0
    assert f.slope(TAU / 4, side=1) == -1.0


def test_sgn_profile_exact_means():
    f = make_profile(PIECEWISE_LINEAR, 1.0, TAU)
    assert f.slope_mean_square() == 1.0
    # triangle wave quarter-period values
    assert_allclose(f.value(TAU / 4) - f.value(0.0), TAU / 4, rtol=1e-14)
    assert_allclose(f.running_slope_square(TAU), TAU, rtol=1e-14)


def test_piecewise_quadratic_mean_third():
    # unit triangle-wave slope: mean of f'^2 over a period is exactly 1/3
    f = make_profile(PIECEWISE_QUADRATIC, 1.0, 2.0)
    assert_allclose(f.slope_mean_square(), 1.0 / 3.0, rtol=1e-14)
    # the slope itself is continuous: one-sided limits agree at breakpoints
    for b in f.breakpoints:
        assert_allclose(f.slope(b, side=-1), f.slope(b, side=1), atol=1e-14)


def test_sinusoidal_profile():
    f = make_profile(SINUSOIDAL, 1.0, TAU)
    x = np.linspace(0.0, TAU, 7)
    assert_allclose(f.value(x), np.cos(x), atol=1e-15)
    assert_allclose(f.slope(x), -np.sin(x), atol=1e-15)
    assert_allclose(f.slope_mean_square(), 0.5, rtol=1e-15)


def test_make_profile_rejects_bad_input():
    with pytest.raises(ValueError):
        make_profile("splines", 1.0)
    with pytest.raises(ValueError):
        make_profile(PIECEWISE_LINEAR, 0.0)
    with pytest.raises(ValueError):
        make_profile(PIECEWISE_LINEAR, 1.0, TAU, ())
    with pytest.raises(ValueError):
        make_profile(PIECEWISE_LINEAR, 1.0, TAU, (1.0,))
    with pytest.raises(ValueError):
        make_profile(SINUSOIDAL, 1.0, TAU, (1.0, 2.0))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_make_profile_rejects_non_finite_numbers(value):
    with pytest.raises(ValueError, match="amplitude must be a finite"):
        make_profile(PIECEWISE_LINEAR, value)
    with pytest.raises(ValueError, match="period must be a finite"):
        make_profile(SINUSOIDAL, 1.0, value)
    with pytest.raises(ValueError, match="breakpoints must be finite"):
        make_profile(PIECEWISE_QUADRATIC, 1.0, TAU, (1.0, value))


@pytest.mark.parametrize("kind", [PIECEWISE_LINEAR, PIECEWISE_QUADRATIC,
                                  SINUSOIDAL])
def test_make_profile_rejects_overflowing_amplitude(kind):
    # finite, but its square overflows the exact slope-square integrals
    with pytest.raises(ValueError, match=r"amplitude 1e\+200"):
        make_profile(kind, 1e200)
    assert math.isfinite(make_profile(kind, 1e150).slope_mean_square())


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from((PIECEWISE_LINEAR, PIECEWISE_QUADRATIC,
                             SINUSOIDAL)),
       amplitude=st.floats(0.1, 4.0),
       period=st.floats(0.5, 12.0))
def test_profile_periodicity_and_zero_mean_slope(kind, amplitude, period):
    f = make_profile(kind, amplitude, period)
    x = np.linspace(0.0, period, 17)
    # continuity + periodicity of the value implies zero-mean slope
    assert_allclose(f.value(x + period), f.value(x),
                    atol=1e-12 * max(1.0, amplitude * period))
    vals = f.slope(np.linspace(0.0, period, 4097)[:-1] + period / 8192)
    assert abs(np.mean(vals)) <= 1e-10 * max(1.0, abs(amplitude))


def test_running_slope_square_matches_quadrature():
    f = make_profile(PIECEWISE_QUADRATIC, 1.3, 2.0)
    xs = np.linspace(0.0, 5.0, 11)
    fine = np.linspace(0.0, 5.0, 200001)
    vals = f.slope(fine) ** 2
    for x in xs:
        n = int(round(x / 5.0 * 200000))
        approx = np.trapezoid(vals[:n + 1], fine[:n + 1]) if n else 0.0
        assert_allclose(f.running_slope_square(x), approx, atol=2e-7)


# a layout other than the default, with four breakpoints and pieces of
# unequal length, and the sinusoid's own non-default period; dyadic, so
# that shifting a breakpoint by whole periods is exact
LAYOUTS = {PIECEWISE_LINEAR: (1.2, 5.5, (0.875, 2.5, 3.0, 4.125)),
           PIECEWISE_QUADRATIC: (0.8, 5.5, (0.875, 2.5, 3.0, 4.125)),
           SINUSOIDAL: (0.6, 5.5, None)}


def _running_trapezoid(g, x):
    """Trapezoid integral of g(x, side) from x[0] to every node; each
    interval reads its ends from inside itself."""
    pieces = 0.5 * np.diff(x) * (g(x[:-1], 1) + g(x[1:], -1))
    return np.concatenate([[0.0], np.cumsum(pieces)])


@pytest.mark.parametrize("kind", sorted(LAYOUTS))
def test_running_integrals_match_quadrature_over_four_periods(kind):
    amplitude, period, breakpoints = LAYOUTS[kind]
    f = make_profile(kind, amplitude, period, breakpoints)
    # nodes on every breakpoint and period multiple of [-T, 3T]
    knots = (np.add.outer(np.arange(-1, 3) * period,
                          (0.0,) + f.breakpoints).ravel())
    x = np.unique(np.concatenate([np.linspace(-period, 3 * period, 40001),
                                  knots, [3 * period]]))
    integrands = {"value_integral": lambda t, side: f.value(t),
                  "running_slope_square": lambda t, side: f.slope(t, side) ** 2}
    if kind == PIECEWISE_LINEAR:
        integrands["running_inverse_slope"] = lambda t, side: 1.0 / f.slope(t, side)
    for name, g in integrands.items():
        exact = getattr(f, name)(x)
        quad = _running_trapezoid(g, x)
        assert_allclose(exact - exact[0], quad, rtol=0, atol=1e-6, err_msg=name)
    # f gains its mean over every period
    t = np.linspace(-period, 2 * period, 37)
    assert_allclose(f.value_integral(t + period) - f.value_integral(t),
                    period * f.value_mean(), rtol=0, atol=1e-12)


def test_one_sided_limits_at_period_multiples():
    # 0 and the period are one point: a left limit there reads the end of
    # the previous period, where the continuous slope of a
    # piecewise-quadratic profile has its value at 0
    amplitude, period, breakpoints = LAYOUTS[PIECEWISE_QUADRATIC]
    f = make_profile(PIECEWISE_QUADRATIC, amplitude, period, breakpoints)
    for x in (0.0, period, -2 * period):
        assert_allclose(f.slope(x, side=-1), f.slope(x, side=1), atol=1e-12)
    # roundoff just below a period multiple picks no far piece
    x = np.nextafter(np.arange(-50, 51) * period, -np.inf)
    assert_allclose(f.value(x), f.value(0.0), rtol=0, atol=1e-9)
    assert_allclose(f.slope(x, side=-1), f.slope(0.0), rtol=0, atol=1e-9)


def test_config_roundtrip():
    from corruga.profiles import profile_from_config
    f = make_profile(PIECEWISE_QUADRATIC, 0.7, 3.0, (0.6, 2.1))
    g = profile_from_config(f.to_config())
    x = np.linspace(-1.0, 4.0, 23)
    assert_allclose(g.value(x), f.value(x), atol=1e-15)
    assert g.kind == f.kind and g.breakpoints == f.breakpoints
