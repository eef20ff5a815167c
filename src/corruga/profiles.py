"""Periodic profile curves.

A profile is a continuous, periodic, piecewise-smooth scalar function f
with zero-mean derivative, used to corrugate flat charts.  Three kinds are
supported:

* ``piecewise-linear``: f' is a square wave of height ``amplitude`` that
  flips sign at each breakpoint.  The graph of f is a triangle-like wave
  and every breakpoint is a genuine tangent discontinuity (a crease once
  the profile is extruded into a surface).
* ``piecewise-quadratic``: f' is the continuous triangle-like wave obtained
  by normalising the corresponding piecewise-linear profile, so f is C^1
  with curvature jumps at the breakpoints but no creases.
* ``sinusoidal``: f(x) = amplitude * cos(2*pi*x/period), smooth everywhere.

Amplitude normalisation is per kind: for the two piecewise kinds it is the
peak of |f'| (a slope), for the sinusoidal kind the peak of |f| (a value).

All integrals (running or full-period) are evaluated from exact piecewise
polynomial antiderivatives, never by quadrature, so they can serve as
reference values for the grid machinery.
"""
from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
import math

import numpy as np
from numpy.polynomial.polynomial import polyint, polyval

PIECEWISE_LINEAR = "piecewise-linear"
PIECEWISE_QUADRATIC = "piecewise-quadratic"
SINUSOIDAL = "sinusoidal"
PROFILE_KINDS = (PIECEWISE_LINEAR, PIECEWISE_QUADRATIC, SINUSOIDAL)

# relative tolerance used when validating that a breakpoint layout closes
# up into a periodic profile
_BALANCE_RTOL = 1e-12


def _poly_square(coeffs: np.ndarray) -> np.ndarray:
    """Square a stack of degree-1 polynomials."""
    c0, c1 = coeffs[..., 0], coeffs[..., 1]
    return np.stack([c0 * c0, 2.0 * c0 * c1, c1 * c1], axis=-1)


@dataclass(frozen=True)
class _Piecewise:
    """A piecewise polynomial over one period, continued past it by a
    constant gain per period.

    Piece i holds coefficients (low order first) in the local coordinate
    t = x - knots[i], with the value at its left knot in the constant term.
    """

    knots: np.ndarray          # (npieces + 1,), 0 to the period
    poly: np.ndarray           # (npieces, degree + 1)
    gain: float = 0.0

    def __call__(self, x, side=1):
        """The value at any real x.  ``side`` picks the right piece where it
        is >= 0, else the left one, at knots and at multiples of the period;
        one sign for all x or an array of signs that broadcasts against x."""
        knots = self.knots
        period = knots[-1]
        x = np.asarray(x, dtype=float)
        wraps = np.floor(x / period)
        # roundoff can leave x - wraps*period just outside [0, period]
        r = np.clip(x - wraps * period, 0.0, period)
        # 0 and period are one point, the end of one period and the start of
        # the next: a right limit there reads the next period's first piece,
        # a left limit the previous period's last
        left = np.asarray(side) < 0
        up = ~left & (r == period)
        down = left & (r == 0.0)
        r = np.where(up, 0.0, np.where(down, period, r))
        wraps = wraps + up - down
        idx = np.where(left, np.searchsorted(knots, r, side="left"),
                       np.searchsorted(knots, r, side="right")) - 1
        out = polyval(r - knots[idx], self.poly.T[:, idx], tensor=False)
        # a periodic table adds nothing, not even to the sign of a zero
        return out + wraps * self.gain if self.gain else out

    def integral(self) -> "_Piecewise":
        """The running integral from 0, its gain the integral over a period."""
        anti = polyint(self.poly, axis=1)
        ends = polyval(np.diff(self.knots), anti.T, tensor=False)
        at_knots = np.concatenate([[0.0], np.cumsum(ends)])
        anti[:, 0] = at_knots[:-1]
        return _Piecewise(self.knots, anti, float(at_knots[-1]))


@dataclass(frozen=True)
class _PiecewiseTables:
    """The exact piecewise polynomials of a piecewise profile."""

    slope: _Piecewise                 # f'
    value: _Piecewise                 # f
    value_integral: _Piecewise        # integral of f from 0
    slope_square: _Piecewise          # integral of f'^2 from 0
    inverse_slope: _Piecewise | None  # integral of 1/f' (piecewise-linear)


def _build_tables(kind: str, amplitude: float, period: float,
                  breakpoints: tuple[float, ...]) -> _PiecewiseTables:
    knots = np.concatenate([[0.0], np.asarray(breakpoints, dtype=float), [period]])
    lengths = np.diff(knots)
    npieces = len(lengths)
    signs = np.array([1.0 if i % 2 == 0 else -1.0 for i in range(npieces)])

    # the underlying unit-slope alternating wave; both piecewise kinds need
    # it to close up over one period
    closure = float(np.dot(signs, lengths))
    if abs(closure) > _BALANCE_RTOL * period:
        raise ValueError(
            "breakpoints do not balance: the alternating-slope wave gains "
            f"{closure:g} over one period and cannot be periodic")

    slope_poly = np.zeros((npieces, 2))
    if kind == PIECEWISE_LINEAR:
        slope_poly[:, 0] = amplitude * signs
    else:
        # piecewise-quadratic: f' is the centred, peak-normalised version of
        # the unit-slope alternating wave
        v_knots = np.concatenate([[0.0], np.cumsum(signs * lengths)])
        # mean of the piecewise-linear wave V over the period
        v_mean = float(np.sum(v_knots[:-1] * lengths + signs * lengths**2 / 2.0)) / period
        centred = v_knots - v_mean
        peak = float(np.max(np.abs(centred[:-1])))
        if peak == 0.0:
            raise ValueError("degenerate breakpoint layout: slope wave is identically zero")
        scale = amplitude / peak
        slope_poly[:, 0] = scale * centred[:-1]
        slope_poly[:, 1] = scale * signs

    slope = _Piecewise(knots, slope_poly)
    # f is periodic: its gain over a period is exactly 0
    value = _Piecewise(knots, slope.integral().poly)
    inverse = None
    if kind == PIECEWISE_LINEAR:
        inverse = _Piecewise(knots, 1.0 / slope_poly[:, :1]).integral()
    return _PiecewiseTables(
        slope, value, value.integral(),
        _Piecewise(knots, _poly_square(slope_poly)).integral(), inverse)


@dataclass(frozen=True)
class Profile:
    """A periodic corrugation profile.  Build with :func:`make_profile`."""

    kind: str
    amplitude: float
    period: float
    breakpoints: tuple[float, ...] = ()
    _tables: _PiecewiseTables | None = field(default=None, repr=False, compare=False)

    # -- evaluation ---------------------------------------------------

    def value(self, x):
        """f(x), for any real x."""
        if self.kind == SINUSOIDAL:
            k = 2.0 * math.pi / self.period
            return self.amplitude * np.cos(k * np.asarray(x, dtype=float))
        return self._tables.value(x)

    def slope(self, x, side=1):
        """f'(x).  ``side`` picks the one-sided limit at breakpoints, one
        sign for all x or an array of signs that broadcasts against x."""
        if self.kind == SINUSOIDAL:
            k = 2.0 * math.pi / self.period
            return -self.amplitude * k * np.sin(k * np.asarray(x, dtype=float))
        return self._tables.slope(x, side)

    def value_integral(self, x):
        """Integral of f from 0 to x, exactly."""
        if self.kind == SINUSOIDAL:
            k = 2.0 * math.pi / self.period
            return (self.amplitude / k) * np.sin(k * np.asarray(x, dtype=float))
        return self._tables.value_integral(x)

    def running_slope_square(self, x):
        """Integral of f'^2 from 0 to x, exactly."""
        if self.kind == SINUSOIDAL:
            k = 2.0 * math.pi / self.period
            x = np.asarray(x, dtype=float)
            return self.amplitude**2 * k**2 * (x / 2.0 - np.sin(2.0 * k * x) / (4.0 * k))
        return self._tables.slope_square(x)

    def running_inverse_slope(self, x):
        """Integral of 1/f' from 0 to x.  Piecewise-linear profiles only."""
        if self.kind != PIECEWISE_LINEAR:
            raise ValueError("1/f' is integrable in closed form only for "
                             f"piecewise-linear profiles, not {self.kind!r}")
        return self._tables.inverse_slope(x)

    # -- exact means ----------------------------------------------------

    def slope_mean_square(self) -> float:
        """Mean of f'^2 over one period, exactly."""
        if self.kind == SINUSOIDAL:
            k = 2.0 * math.pi / self.period
            return 0.5 * self.amplitude**2 * k**2
        return self._tables.slope_square.gain / self.period

    def value_mean(self) -> float:
        if self.kind == SINUSOIDAL:
            return 0.0
        return self._tables.value_integral.gain / self.period

    # -- structure -------------------------------------------------------

    @property
    def crease_breakpoints(self) -> tuple[float, ...]:
        """Breakpoints where the tangent of the extruded surface jumps."""
        return self.breakpoints if self.kind == PIECEWISE_LINEAR else ()

    @property
    def panel_breakpoints(self) -> tuple[float, ...]:
        """Breakpoints that must lie on grid lines (smoothness ends there);
        a sinusoid has none."""
        return self.breakpoints

    def to_config(self) -> dict:
        return {"kind": self.kind, "amplitude": self.amplitude,
                "period": self.period, "breakpoints": list(self.breakpoints)}


def as_float(value, name: str) -> float:
    """float(value), with a bool, a string or a value of the wrong type a
    ValueError as well."""
    if not isinstance(value, (bool, str)):
        with contextlib.suppress(TypeError):
            return float(value)
    raise ValueError(f"{name} must be a number, got {value!r}")


def optional(cfg: dict, key: str, default=None):
    """cfg[key], with a missing or null key ``default``."""
    return default if cfg.get(key) is None else cfg[key]


def required(cfg: dict, key: str, what: str):
    """cfg[key], with a missing key a ValueError naming it and ``what``."""
    try:
        return cfg[key]
    except KeyError:
        raise ValueError(f"{what} has no {key!r} key: {cfg!r}") from None


def make_profile(kind: str, amplitude: float, period: float = 2.0 * math.pi,
                 breakpoints=None) -> Profile:
    """Validate and construct a :class:`Profile`.

    Piecewise kinds need an even number of breakpoints, strictly increasing
    inside (0, period), whose alternating-sign interval lengths cancel so
    the profile closes up over a period.  The default breakpoint layout
    (pi/2, 3*pi/2) with the default period 2*pi gives f' = sgn(cos x) for
    the piecewise-linear kind and the unit triangle wave with mean square
    1/3 for the piecewise-quadratic kind.  ``breakpoints`` is a list or
    tuple of numbers, or None for that layout.  An amplitude so large that
    the exact integrals overflow is refused.
    """
    if kind not in PROFILE_KINDS:
        raise ValueError(f"unknown profile kind {kind!r}")
    amplitude = as_float(amplitude, "amplitude")
    period = as_float(period, "period")
    if not math.isfinite(amplitude) or amplitude == 0.0:
        raise ValueError(f"amplitude must be a finite nonzero number, got "
                         f"{amplitude} (zero makes the profile constant)")
    if not math.isfinite(period) or period <= 0.0:
        raise ValueError(f"period must be a finite positive number, got "
                         f"{period}")

    if breakpoints is None:
        breakpoints = (() if kind == SINUSOIDAL
                       else (period / 4.0, 3.0 * period / 4.0))
    if not isinstance(breakpoints, (list, tuple)):
        raise ValueError(f"breakpoints must be a list of numbers, got "
                         f"{breakpoints!r}")
    bp = tuple(as_float(b, "a breakpoint") for b in breakpoints)
    if kind == SINUSOIDAL:
        if bp:
            raise ValueError("sinusoidal profiles take no breakpoints")
        return _checked(Profile(kind, amplitude, period))
    if len(bp) == 0:
        raise ValueError(f"{kind} profiles need breakpoints")
    if len(bp) % 2 != 0:
        raise ValueError("breakpoint count must be even so the slope wave is "
                         "consistent across the period seam")
    arr = np.asarray(bp)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"breakpoints must be finite numbers, got {bp}")
    if np.any(arr <= 0.0) or np.any(arr >= period):
        raise ValueError("breakpoints must lie strictly inside (0, period)")
    if np.any(np.diff(arr) <= 0.0):
        raise ValueError("breakpoints must be strictly increasing")

    with np.errstate(over="ignore", invalid="ignore"):
        tables = _build_tables(kind, amplitude, period, bp)
    return _checked(Profile(kind, amplitude, period, bp, tables))


def _checked(profile: Profile) -> Profile:
    """Refuse a profile whose exact tables or mean square slope overflow."""
    try:
        sms = profile.slope_mean_square()
    except OverflowError:   # float ** overflows instead of returning inf
        sms = math.inf
    tables = vars(profile._tables).values() if profile._tables else ()
    if not (math.isfinite(sms) and all(
            np.isfinite(t.poly).all() and math.isfinite(t.gain)
            for t in tables if t is not None)):
        raise ValueError(f"amplitude {profile.amplitude} is too large: the "
                         "profile's exact integrals overflow")
    return profile


def profile_from_config(cfg: dict, default_period=2.0 * math.pi) -> Profile:
    """A profile entry; a missing or null ``period`` is ``default_period``
    and a missing or null ``breakpoints`` the default layout."""
    if not isinstance(cfg, dict):
        raise ValueError(f"a profile entry must be an object, got {cfg!r}")
    return make_profile(required(cfg, "kind", "a profile entry"),
                        required(cfg, "amplitude", "a profile entry"),
                        optional(cfg, "period", default_period),
                        cfg.get("breakpoints"))
