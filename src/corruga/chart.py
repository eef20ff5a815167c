"""Parametric periodic surfaces and their panel structure.

A chart maps parameters (xi1, xi2) to a position in R^3 and is periodic
modulo a linear part: x(xi + T_a e_a) = x(xi) + T_a p_a with constant
lattice tangents p_a.  Every family is a pair of space curves under the
lattice shear eta = xi2 + gamma*xi1, x = alpha(xi1) + beta(eta), with
gamma = 0 outside the sheared family.  One row of ``_FAMILY_TABLE`` per
family gives how many entries ``profiles`` holds, their type, and the pair
``SurfaceChart.curves`` builds from them (a missing component is zero):

* ``plane``: no entries; alpha = (t, 0, 0), beta = (0, t, 0)
* ``simple-corrugation``: f; alpha = (t, 0, f(t)), beta = (0, t, 0)
* ``double-corrugation`` and ``sheared-double-corrugation`` (one row):
  f, g; alpha = (t, 0, f(t)), beta = (0, t, g(t))
* ``miura-like``: f, g; alpha = (t, f(t), 0), beta = (0, t, g(t))
* ``translation-surface``: the two curves alpha, beta themselves

Positions and one-sided partials all come from that pair, and so do the
checks every family shares: the curves lie along axes (0, 1), and each
curve that carries profiles has the period of its axis.  The sheared
family is for analytic use only: its panel joints are oblique in parameter
space, which the structured grid does not support, so it reports no
breakpoints and is not grid-compatible.

``builtin_chart`` builds the named examples of ``_BUILTINS``, whose keys
are ``BUILTIN_NAMES``.  ``chart_from_config`` refuses an unknown family
first, then reads each ``profiles`` entry with the reader of its row's
entry type (``_READERS``); in every entry, a missing or null optional key
takes its default.

Tangent discontinuities (creases) happen exactly on the parameter lines
passing through piecewise-linear profile breakpoints; piecewise-quadratic
breakpoints give curvature jumps only and the tangent plane stays
continuous there.
"""
from __future__ import annotations

from dataclasses import dataclass
import json
import math

import numpy as np

from .profiles import (PIECEWISE_LINEAR, PIECEWISE_QUADRATIC, Profile,
                       as_float, make_profile, optional, profile_from_config,
                       required)

PLANE = "plane"
SIMPLE_CORRUGATION = "simple-corrugation"
DOUBLE_CORRUGATION = "double-corrugation"
TRANSLATION_SURFACE = "translation-surface"
MIURA_LIKE = "miura-like"
SHEARED_DOUBLE_CORRUGATION = "sheared-double-corrugation"

TAU = 2.0 * np.pi

# periods a chart may have: further out the grid weights, the constraint
# entries (~ 1/h) and their squares leave the floating-point range
PERIOD_RANGE = (1e-50, 1e50)

# samples per period at which translation curve tangents are checked, and
# the rows of the first curve's tangents in one block of that check
TRANSLATION_CHECK_SAMPLES = 257
TRANSLATION_CHECK_ROWS = 32


@dataclass(frozen=True)
class SpaceCurve:
    """A periodic-modulo-linear space curve driving a translation surface.

    c(t) = t*e_axis + lateral(t)*e_other + vertical(t)*e_3, where e_other
    is the remaining in-plane direction, and ``axis`` is the int 0 or 1.
    Either component profile may be absent; with neither, c is the
    straight line along e_axis.  The mean
    tangent is exactly e_axis since profiles have zero-mean slopes.
    """

    axis: int
    lateral: Profile | None = None
    vertical: Profile | None = None

    def __post_init__(self):
        if type(self.axis) is not int or self.axis not in (0, 1):
            raise ValueError(f"curve axis must be the int 0 or 1, got "
                             f"{self.axis!r}")
        periods = {p.period for p, _ in self.parts}
        if len(periods) > 1:
            raise ValueError("lateral and vertical profiles must share a period")

    @property
    def parts(self) -> tuple[tuple[Profile, int], ...]:
        """(profile, component) of each profile the curve carries: lateral
        drives component 1 - axis, vertical component 2."""
        return tuple((p, k) for p, k in ((self.lateral, 1 - self.axis),
                                         (self.vertical, 2)) if p is not None)

    @property
    def period(self) -> float:
        return self.parts[0][0].period

    def _sample(self, t, derivative: bool, side=1):
        """c(t), or c'(t) when ``derivative``, with ``side`` as for
        Profile.slope."""
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape + (3,))
        out[..., self.axis] = 1.0 if derivative else t
        for p, k in self.parts:
            out[..., k] = p.slope(t, side) if derivative else p.value(t)
        return out

    def point(self, t):
        return self._sample(t, False)

    def tangent(self, t, side=1):
        """c'(t); ``side`` is as for Profile.slope."""
        return self._sample(t, True, side)

    def _breakpoints(self, attr: str) -> tuple[float, ...]:
        return tuple(sorted({b for p, _ in self.parts
                             for b in getattr(p, attr)}))

    def panel_breakpoints(self) -> tuple[float, ...]:
        return self._breakpoints("panel_breakpoints")

    def crease_breakpoints(self) -> tuple[float, ...]:
        return self._breakpoints("crease_breakpoints")

    def to_config(self) -> dict:
        return {"axis": self.axis,
                "lateral": self.lateral.to_config() if self.lateral else None,
                "vertical": self.vertical.to_config() if self.vertical else None}


@dataclass(frozen=True)
class PeriodGeometry:
    """Lattice tangents p1, p2 (mean partials over a period) and unit normal."""

    p1: np.ndarray
    p2: np.ndarray
    n: np.ndarray

    @staticmethod
    def from_tangents(p1, p2) -> "PeriodGeometry":
        p1 = np.asarray(p1, dtype=float)
        p2 = np.asarray(p2, dtype=float)
        cross = np.cross(p1, p2)
        area = np.linalg.norm(cross)
        if area <= 1e-12 * max(np.linalg.norm(p1) * np.linalg.norm(p2), 1e-300):
            raise ValueError("degenerate period geometry: p1 and p2 are parallel")
        return PeriodGeometry(p1, p2, cross / area)


# family -> (entry count, entry type, the (alpha, beta) pair from the entries)
_FAMILY_TABLE = {
    PLANE: (0, Profile, lambda: (SpaceCurve(0), SpaceCurve(1))),
    SIMPLE_CORRUGATION: (1, Profile,
                         lambda f: (SpaceCurve(0, vertical=f), SpaceCurve(1))),
    DOUBLE_CORRUGATION: (2, Profile, lambda f, g: (SpaceCurve(0, vertical=f),
                                                   SpaceCurve(1, vertical=g))),
    MIURA_LIKE: (2, Profile, lambda f, g: (SpaceCurve(0, lateral=f),
                                           SpaceCurve(1, vertical=g))),
    TRANSLATION_SURFACE: (2, SpaceCurve, lambda a, b: (a, b)),
}
_FAMILY_TABLE[SHEARED_DOUBLE_CORRUGATION] = _FAMILY_TABLE[DOUBLE_CORRUGATION]


def _row(family):
    """The family's row of ``_FAMILY_TABLE``; any other value, hashable or
    not, is an unknown family."""
    if family not in tuple(_FAMILY_TABLE):
        raise ValueError(f"unknown family {family!r}")
    return _FAMILY_TABLE[family]


@dataclass(frozen=True)
class SurfaceChart:
    family: str
    period: tuple[float, float]
    profiles: tuple = ()
    gamma: float = 0.0

    def __post_init__(self):
        _validate_chart(self)

    # profile accessors, valid for the profile-based families
    @property
    def f(self) -> Profile:
        return self.profiles[0]

    @property
    def g(self) -> Profile:
        return self.profiles[1]

    @property
    def curves(self) -> tuple[SpaceCurve, SpaceCurve]:
        """The (alpha, beta) pair with x = alpha(xi1) + beta(xi2 + gamma*xi1)."""
        return _FAMILY_TABLE[self.family][2](*self.profiles)

    @property
    def grid_compatible(self) -> bool:
        """False when panel joints are not axis-aligned parameter lines."""
        return self.family != SHEARED_DOUBLE_CORRUGATION

    def panel_breakpoints(self, direction: int) -> tuple[float, ...]:
        """Parameter values in (0, T) where smoothness ends, per direction."""
        if not self.grid_compatible:
            # sheared panels are oblique; never queried by the grid
            return ()
        return self.curves[direction].panel_breakpoints()

    def crease_breakpoints(self, direction: int) -> tuple[float, ...]:
        """The subset of panel breakpoints where the tangent plane jumps."""
        if not self.grid_compatible:
            return ()
        return self.curves[direction].crease_breakpoints()


def _check_periods(period) -> None:
    t1, t2 = period
    if not (math.isfinite(t1) and math.isfinite(t2)) or t1 <= 0 or t2 <= 0:
        raise ValueError(f"periods must be finite positive numbers, got "
                         f"{period}")
    lo, hi = PERIOD_RANGE
    for t in period:
        if not lo <= t <= hi:
            raise ValueError(f"period {t:g} is outside [{lo:g}, {hi:g}]")


def _validate_chart(chart: SurfaceChart) -> None:
    fam = chart.family
    count, entry, _ = _row(fam)
    _check_periods(chart.period)
    t1, t2 = chart.period
    if not math.isfinite(chart.gamma):
        raise ValueError(f"gamma must be a finite number, got {chart.gamma}")
    if fam != SHEARED_DOUBLE_CORRUGATION and chart.gamma != 0.0:
        raise ValueError("gamma applies to the sheared family only")
    if (len(chart.profiles) != count
            or not all(isinstance(p, entry) for p in chart.profiles)):
        raise ValueError(f"family {fam!r} needs {count} {entry.__name__} "
                         "value(s)")
    curves = chart.curves
    if fam == TRANSLATION_SURFACE and not all(c.parts for c in curves):
        raise ValueError("a translation curve needs at least one profile")
    if tuple(c.axis for c in curves) != (0, 1):
        raise ValueError("translation curves must have axes (0, 1)")
    if any(c.parts and c.period != t for c, t in zip(curves, chart.period)):
        raise ValueError("profile periods must equal (T1, T2)")
    if fam == MIURA_LIKE and chart.g.kind != PIECEWISE_LINEAR:
        # every linear piece then has slope +-amplitude != 0, which keeps
        # the lateral profile's slope bounded away from zero
        raise ValueError("miura-like needs a piecewise-linear second profile")
    if fam == SHEARED_DOUBLE_CORRUGATION:
        # x must stay T1-periodic in xi1: g(.+gamma*T1) = g(.)
        k = chart.gamma * t1 / t2
        if abs(k - round(k)) > 1e-9:
            raise ValueError("gamma*T1 must be an integer multiple of T2")
    if fam == TRANSLATION_SURFACE:
        _check_translation_partials(chart)


def _check_translation_partials(chart: SurfaceChart) -> None:
    """Reject curve pairs whose tangents become parallel somewhere."""
    ta, tb = map(_tangent_samples, chart.profiles, chart.period)
    if _min_tangent_sine(ta, tb) < 1e-8:
        raise ValueError("degenerate translation surface: curve tangents "
                         "become parallel")


def _tangent_samples(curve: SpaceCurve, period: float) -> np.ndarray:
    """Both sides of the curve's tangent at its check samples."""
    t = np.linspace(0.0, period, TRANSLATION_CHECK_SAMPLES)
    return np.concatenate([curve.tangent(t, 1), curve.tangent(t, -1)])


def _min_tangent_sine(ta: np.ndarray, tb: np.ndarray) -> float:
    """min |a x b| / (|a||b|) over all pairs of rows, one block of
    TRANSLATION_CHECK_ROWS rows of ``ta`` at a time, so no full pair table
    is held."""
    nb = np.linalg.norm(tb, axis=-1)
    worst = np.inf
    for i in range(0, len(ta), TRANSLATION_CHECK_ROWS):
        a = ta[i:i + TRANSLATION_CHECK_ROWS]
        cross = np.linalg.norm(np.cross(a[:, None, :], tb[None, :, :]), axis=-1)
        worst = min(worst, np.min(cross / (np.linalg.norm(a, axis=-1)[:, None]
                                           * nb[None, :])))
    return worst


# -- evaluation ---------------------------------------------------------

def _sheared(chart: SurfaceChart, xi1, xi2):
    """The second curve's argument eta = xi2 + gamma*xi1.

    Each curve is evaluated on its own inputs and the sum broadcasts, so on
    a grid a curve costs one value per grid line; only a sheared chart's
    eta needs every node.
    """
    return xi2 + chart.gamma * xi1 if chart.gamma else xi2


def evaluate_chart(chart: SurfaceChart, xi1, xi2) -> np.ndarray:
    """Position x(xi1, xi2), broadcasting over the inputs."""
    xi1 = np.asarray(xi1, dtype=float)
    xi2 = np.asarray(xi2, dtype=float)
    a, b = chart.curves
    return a.point(xi1) + b.point(_sheared(chart, xi1, xi2))


def chart_partials(chart: SurfaceChart, xi1, xi2, side=(1, 1)):
    """One-sided partial derivatives (x1, x2) at (xi1, xi2), broadcasting
    over the inputs.

    ``side`` picks the panel when the point sits on a breakpoint line:
    +1 takes the limit from above in that parameter, -1 from below.  Each
    side broadcasts against its own parameter.
    """
    s1, s2 = side
    xi1, s1 = np.broadcast_arrays(np.asarray(xi1, dtype=float), s1)
    xi2, s2 = np.broadcast_arrays(np.asarray(xi2, dtype=float), s2)
    a, b = chart.curves
    tb = b.tangent(_sheared(chart, xi1, xi2), s2)
    x1 = a.tangent(xi1, s1) + chart.gamma * tb
    return x1, np.broadcast_to(tb, x1.shape).copy()


def period_geometry(chart: SurfaceChart) -> PeriodGeometry:
    """Exact mean tangents p_a and the unit normal of their plane.

    Profiles have zero-mean slopes, so the means are the linear part of the
    chart: (1, gamma, 0) and (0, 1, 0), with gamma = 0 outside the sheared
    family.
    """
    return PeriodGeometry.from_tangents([1.0, chart.gamma, 0.0],
                                        [0.0, 1.0, 0.0])


# -- construction and serialization -------------------------------------

def _pl() -> Profile:
    return make_profile(PIECEWISE_LINEAR, 1.0, TAU)


def _pq() -> Profile:
    return make_profile(PIECEWISE_QUADRATIC, 1.0, TAU)


_BUILTINS = {
    "plane": lambda: SurfaceChart(PLANE, (TAU, TAU)),
    "corrugation": lambda: SurfaceChart(SIMPLE_CORRUGATION, (TAU, TAU),
                                        (_pl(),)),
    "eggbox": lambda: SurfaceChart(DOUBLE_CORRUGATION, (TAU, TAU),
                                   (_pl(), _pl())),
    "eggbox-hybrid": lambda: SurfaceChart(DOUBLE_CORRUGATION, (TAU, TAU),
                                          (_pq(), _pl())),
    "miura": lambda: SurfaceChart(MIURA_LIKE, (TAU, TAU), (_pl(), _pl())),
    "translation": lambda: SurfaceChart(
        TRANSLATION_SURFACE, (TAU, TAU),
        (SpaceCurve(0, vertical=_pl()), SpaceCurve(1, vertical=_pq()))),
}

BUILTIN_NAMES = tuple(_BUILTINS)


def builtin_chart(name: str) -> SurfaceChart:
    """Named example surfaces with default periods and unit amplitudes."""
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin surface {name!r}; choose from "
                         f"{', '.join(BUILTIN_NAMES)}")
    return _BUILTINS[name]()


def chart_to_config(chart: SurfaceChart) -> dict:
    cfg = {"family": chart.family, "period": list(chart.period)}
    if chart.profiles:
        cfg["profiles"] = [p.to_config() for p in chart.profiles]
    if chart.family == SHEARED_DOUBLE_CORRUGATION:
        cfg["gamma"] = chart.gamma
    return cfg


def _profile_from_config(cfg: dict, period: float) -> Profile:
    """A profile entry at a place of period ``period``, which its own
    period defaults to.  An entry with another period is refused before
    make_profile builds its tables, which can overflow at an extreme one."""
    if (isinstance(cfg, dict)
            and as_float(optional(cfg, "period", period), "period") != period):
        raise ValueError("profile periods must equal (T1, T2)")
    return profile_from_config(cfg, period)


def _curve_from_config(cfg: dict, period: float, place: int) -> SpaceCurve:
    """A curve entry; its axis defaults to its place in the pair, and its
    profiles' period to ``period``."""
    if not isinstance(cfg, dict):
        raise ValueError(f"a curve entry must be an object, got {cfg!r}")
    lateral, vertical = (None if cfg.get(key) is None
                         else _profile_from_config(cfg[key], period)
                         for key in ("lateral", "vertical"))
    return SpaceCurve(optional(cfg, "axis", place), lateral, vertical)


# a family-table entry type -> the reader of one ``profiles`` entry, given
# the entry, the period of its place and that place
_READERS = {
    Profile: lambda cfg, period, place: _profile_from_config(cfg, period),
    SpaceCurve: _curve_from_config}


def chart_from_config(cfg: dict) -> SurfaceChart:
    if not isinstance(cfg, dict):
        raise ValueError(f"a surface config must be an object, got {cfg!r}")
    fam = required(cfg, "family", "the surface config")
    read = _READERS[_row(fam)[1]]
    period = optional(cfg, "period", [TAU, TAU])
    if not isinstance(period, (list, tuple)) or len(period) != 2:
        raise ValueError(f"period must be two numbers, got {period!r}")
    t1, t2 = (as_float(t, "period") for t in period)
    _check_periods((t1, t2))     # before the profiles, which use them
    raw = optional(cfg, "profiles", [])
    if not isinstance(raw, list):
        raise ValueError(f"profiles must be a list, got {raw!r}")
    return SurfaceChart(fam, (t1, t2),
                        tuple(read(p, t1 if i == 0 else t2, i)
                              for i, p in enumerate(raw)),
                        as_float(optional(cfg, "gamma", 0.0), "gamma"))


def load_chart(path) -> SurfaceChart:
    with open(path) as fh:
        return chart_from_config(json.load(fh))
