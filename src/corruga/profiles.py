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

from dataclasses import dataclass, field
import math

import numpy as np

PIECEWISE_LINEAR = "piecewise-linear"
PIECEWISE_QUADRATIC = "piecewise-quadratic"
SINUSOIDAL = "sinusoidal"
PROFILE_KINDS = (PIECEWISE_LINEAR, PIECEWISE_QUADRATIC, SINUSOIDAL)

# relative tolerance used when validating that a breakpoint layout closes
# up into a periodic profile
_BALANCE_RTOL = 1e-12


def _poly_eval(coeffs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Evaluate sum_k coeffs[..., k] * t**k (low order first)."""
    out = np.zeros_like(t, dtype=float)
    for k in range(coeffs.shape[-1] - 1, -1, -1):
        out = out * t + coeffs[..., k]
    return out


def _poly_antiderivative(coeffs: np.ndarray) -> np.ndarray:
    k = np.arange(1, coeffs.shape[-1] + 1, dtype=float)
    out = np.zeros(coeffs.shape[:-1] + (coeffs.shape[-1] + 1,))
    out[..., 1:] = coeffs / k
    return out


def _poly_square(coeffs: np.ndarray) -> np.ndarray:
    """Square a stack of degree-1 polynomials."""
    c0, c1 = coeffs[..., 0], coeffs[..., 1]
    return np.stack([c0 * c0, 2.0 * c0 * c1, c1 * c1], axis=-1)


@dataclass(frozen=True)
class _PiecewiseTables:
    """Exact per-piece polynomial data for a piecewise profile.

    Every table is indexed by piece; polynomials are in the local
    coordinate t = x - knots[i].  ``*_knots`` arrays hold cumulative
    antiderivative values at the left knot of each piece plus the full
    period total in the last slot.
    """

    knots: np.ndarray          # (npieces + 1,)
    slope_poly: np.ndarray     # (npieces, 2)    f'
    value_knots: np.ndarray    # (npieces + 1,)  f at knots
    value_poly: np.ndarray     # (npieces, 3)    f - f(knot)
    vint_knots: np.ndarray     # (npieces + 1,)  integral of f
    vint_poly: np.ndarray      # (npieces, 4)
    ss_knots: np.ndarray       # (npieces + 1,)  integral of f'^2
    ss_poly: np.ndarray        # (npieces, 4)


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

    if kind == PIECEWISE_LINEAR:
        slope_poly = np.zeros((npieces, 2))
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
        slope_poly = np.zeros((npieces, 2))
        slope_poly[:, 0] = scale * centred[:-1]
        slope_poly[:, 1] = scale * signs

    def _accumulate(poly):
        anti = _poly_antiderivative(poly)
        piece_totals = _poly_eval(anti, lengths)
        knot_vals = np.concatenate([[0.0], np.cumsum(piece_totals)])
        return knot_vals, anti

    value_knots, value_poly = _accumulate(slope_poly)
    # shift antiderivative polys so each piece starts from the knot value
    ss_knots, ss_poly = _accumulate(_poly_square(slope_poly))

    # integral of f itself: per piece, f(x) = value_knots[i] + value_poly_i(t)
    vpoly_full = value_poly.copy()
    vpoly_full[:, 0] += value_knots[:-1]
    vint_knots, vint_poly = _accumulate(vpoly_full)

    return _PiecewiseTables(knots, slope_poly, value_knots, value_poly,
                            vint_knots, vint_poly, ss_knots, ss_poly)


@dataclass(frozen=True)
class Profile:
    """A periodic corrugation profile.  Build with :func:`make_profile`."""

    kind: str
    amplitude: float
    period: float
    breakpoints: tuple[float, ...] = ()
    _tables: _PiecewiseTables | None = field(default=None, repr=False, compare=False)

    # -- piece lookup -------------------------------------------------

    def _split(self, x):
        x = np.asarray(x, dtype=float)
        wraps = np.floor(x / self.period)
        r = x - wraps * self.period
        # guard against r == period from roundoff
        hi = r >= self.period
        r = np.where(hi, r - self.period, r)
        wraps = np.where(hi, wraps + 1, wraps)
        return wraps, r

    def _piece(self, r: np.ndarray, side: int) -> np.ndarray:
        knots = self._tables.knots
        last = len(knots) - 2
        if side >= 0:
            idx = np.searchsorted(knots, r, side="right") - 1
        else:
            # left limit: r == 0 belongs to the final piece of the previous
            # period copy
            idx = np.searchsorted(knots, r, side="left") - 1
        return np.where(idx < 0, last, np.minimum(idx, last))

    def _eval_piecewise(self, knot_vals, polys, x, side=1):
        wraps, r = self._split(x)
        idx = self._piece(r, side)
        t = r - self._tables.knots[idx]
        per_period = knot_vals[-1]
        return wraps * per_period + knot_vals[idx] + _poly_eval(polys[idx], t)

    # -- evaluation ---------------------------------------------------

    def value(self, x):
        """f(x), for any real x."""
        if self.kind == SINUSOIDAL:
            k = 2.0 * math.pi / self.period
            return self.amplitude * np.cos(k * np.asarray(x, dtype=float))
        t = self._tables
        poly = t.value_poly.copy()
        poly[:, 0] += t.value_knots[:-1]
        wraps, r = self._split(x)
        idx = self._piece(r, 1)
        return _poly_eval(poly[idx], r - t.knots[idx])

    def slope(self, x, side: int = 1):
        """f'(x).  ``side`` picks the one-sided limit at breakpoints."""
        if self.kind == SINUSOIDAL:
            k = 2.0 * math.pi / self.period
            return -self.amplitude * k * np.sin(k * np.asarray(x, dtype=float))
        t = self._tables
        wraps, r = self._split(x)
        idx = self._piece(r, side)
        return _poly_eval(t.slope_poly[idx], r - t.knots[idx])

    def value_integral(self, x):
        """Integral of f from 0 to x, exactly."""
        if self.kind == SINUSOIDAL:
            k = 2.0 * math.pi / self.period
            return (self.amplitude / k) * np.sin(k * np.asarray(x, dtype=float))
        t = self._tables
        return self._eval_piecewise(t.vint_knots, t.vint_poly, x)

    def running_slope_square(self, x):
        """Integral of f'^2 from 0 to x, exactly."""
        if self.kind == SINUSOIDAL:
            k = 2.0 * math.pi / self.period
            x = np.asarray(x, dtype=float)
            return self.amplitude**2 * k**2 * (x / 2.0 - np.sin(2.0 * k * x) / (4.0 * k))
        t = self._tables
        return self._eval_piecewise(t.ss_knots, t.ss_poly, x)

    def running_inverse_slope(self, x):
        """Integral of 1/f' from 0 to x.  Piecewise-linear profiles only."""
        if self.kind != PIECEWISE_LINEAR:
            raise ValueError("1/f' is integrable in closed form only for "
                             f"piecewise-linear profiles, not {self.kind!r}")
        t = self._tables
        inv = np.zeros_like(t.slope_poly)
        inv[:, 0] = 1.0 / t.slope_poly[:, 0]
        knot_vals, anti = np.concatenate(
            [[0.0], np.cumsum(inv[:, 0] * np.diff(t.knots))]), _poly_antiderivative(inv)
        return self._eval_piecewise(knot_vals, anti, x)

    # -- exact means ----------------------------------------------------

    def slope_mean_square(self) -> float:
        """Mean of f'^2 over one period, exactly."""
        if self.kind == SINUSOIDAL:
            k = 2.0 * math.pi / self.period
            return 0.5 * self.amplitude**2 * k**2
        return float(self._tables.ss_knots[-1]) / self.period

    def value_mean(self) -> float:
        if self.kind == SINUSOIDAL:
            return 0.0
        return float(self._tables.vint_knots[-1]) / self.period

    # -- structure -------------------------------------------------------

    @property
    def crease_breakpoints(self) -> tuple[float, ...]:
        """Breakpoints where the tangent of the extruded surface jumps."""
        return self.breakpoints if self.kind == PIECEWISE_LINEAR else ()

    @property
    def panel_breakpoints(self) -> tuple[float, ...]:
        """Breakpoints that must lie on grid lines (smoothness ends there)."""
        if self.kind == SINUSOIDAL:
            return ()
        return self.breakpoints

    def to_config(self) -> dict:
        return {"kind": self.kind, "amplitude": self.amplitude,
                "period": self.period, "breakpoints": list(self.breakpoints)}


def as_float(value, name: str) -> float:
    """float(value), with a value of the wrong type a ValueError as well."""
    try:
        return float(value)
    except TypeError:
        raise ValueError(f"{name} must be a number, got {value!r}") from None


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
    1/3 for the piecewise-quadratic kind.  An amplitude so large that the
    exact integrals overflow is refused.
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

    if kind == SINUSOIDAL:
        if breakpoints:
            raise ValueError("sinusoidal profiles take no breakpoints")
        return _checked(Profile(kind, amplitude, period))

    if breakpoints is None:
        breakpoints = (period / 4.0, 3.0 * period / 4.0)
    try:
        bp = tuple(float(b) for b in breakpoints)
    except TypeError:
        raise ValueError(f"breakpoints must be a list of numbers, got "
                         f"{breakpoints!r}") from None
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
    if not (math.isfinite(sms) and all(np.isfinite(t).all() for t in tables)):
        raise ValueError(f"amplitude {profile.amplitude} is too large: the "
                         "profile's exact integrals overflow")
    return profile


def profile_from_config(cfg: dict, default_period: float | None = None) -> Profile:
    if not isinstance(cfg, dict):
        raise ValueError(f"a profile entry must be an object, got {cfg!r}")
    period = cfg.get("period", default_period)
    if period is None:
        period = 2.0 * math.pi
    return make_profile(required(cfg, "kind", "a profile entry"),
                        required(cfg, "amplitude", "a profile entry"), period,
                        cfg.get("breakpoints") or None)
