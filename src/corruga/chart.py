"""Parametric periodic surfaces and their panel structure.

A chart maps parameters (xi1, xi2) to a position in R^3 and is periodic
modulo a linear part: x(xi + T_a e_a) = x(xi) + T_a p_a with constant
lattice tangents p_a.  Every family is a pair of space curves under the
lattice shear eta = xi2 + gamma*xi1, x = alpha(xi1) + beta(eta), with
gamma = 0 outside the sheared family.  ``SurfaceChart.curves`` gives the
pair (a missing component is zero):

* ``plane``: alpha = (t, 0, 0), beta = (0, t, 0)
* ``simple-corrugation``: alpha = (t, 0, f(t)), beta = (0, t, 0)
* ``double-corrugation`` and ``sheared-double-corrugation``:
  alpha = (t, 0, f(t)), beta = (0, t, g(t))
* ``miura-like``: alpha = (t, f(t), 0), beta = (0, t, g(t))
* ``translation-surface``: alpha, beta given as curves built from profiles

Positions and one-sided partials all come from that pair.  The sheared
family is for analytic use only: its panel joints are oblique in parameter
space, which the structured grid does not support, so it reports no
breakpoints and is not grid-compatible.

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

from .profiles import (PIECEWISE_LINEAR, Profile, as_float, make_profile,
                       profile_from_config, required)

PLANE = "plane"
SIMPLE_CORRUGATION = "simple-corrugation"
DOUBLE_CORRUGATION = "double-corrugation"
TRANSLATION_SURFACE = "translation-surface"
MIURA_LIKE = "miura-like"
SHEARED_DOUBLE_CORRUGATION = "sheared-double-corrugation"

FAMILIES = (PLANE, SIMPLE_CORRUGATION, DOUBLE_CORRUGATION,
            TRANSLATION_SURFACE, MIURA_LIKE, SHEARED_DOUBLE_CORRUGATION)

TAU = 2.0 * np.pi


@dataclass(frozen=True)
class SpaceCurve:
    """A periodic-modulo-linear space curve driving a translation surface.

    c(t) = t*e_axis + lateral(t)*e_other + vertical(t)*e_3, where e_other
    is the remaining in-plane direction.  Either component profile may be
    absent; with neither, c is the straight line along e_axis.  The mean
    tangent is exactly e_axis since profiles have zero-mean slopes.
    """

    axis: int
    lateral: Profile | None = None
    vertical: Profile | None = None

    def __post_init__(self):
        if self.axis not in (0, 1):
            raise ValueError("curve axis must be 0 or 1")
        periods = {p.period for p in (self.lateral, self.vertical) if p is not None}
        if len(periods) > 1:
            raise ValueError("lateral and vertical profiles must share a period")

    @property
    def period(self) -> float:
        p = self.lateral or self.vertical
        return p.period

    def point(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape + (3,))
        out[..., self.axis] = t
        if self.lateral is not None:
            out[..., 1 - self.axis] = self.lateral.value(t)
        if self.vertical is not None:
            out[..., 2] = self.vertical.value(t)
        return out

    def tangent(self, t, side: int = 1):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape + (3,))
        out[..., self.axis] = 1.0
        if self.lateral is not None:
            out[..., 1 - self.axis] = self.lateral.slope(t, side)
        if self.vertical is not None:
            out[..., 2] = self.vertical.slope(t, side)
        return out

    def _breakpoints(self, attr: str) -> tuple[float, ...]:
        vals = set()
        for p in (self.lateral, self.vertical):
            if p is not None:
                vals.update(getattr(p, attr))
        return tuple(sorted(vals))

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
        fam = self.family
        if fam == TRANSLATION_SURFACE:
            return self.profiles
        if fam == PLANE:
            return SpaceCurve(0), SpaceCurve(1)
        if fam == SIMPLE_CORRUGATION:
            return SpaceCurve(0, vertical=self.f), SpaceCurve(1)
        if fam == MIURA_LIKE:
            return SpaceCurve(0, lateral=self.f), SpaceCurve(1, vertical=self.g)
        # double corrugation, sheared or not
        return SpaceCurve(0, vertical=self.f), SpaceCurve(1, vertical=self.g)

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


def _validate_chart(chart: SurfaceChart) -> None:
    fam = chart.family
    if fam not in FAMILIES:
        raise ValueError(f"unknown family {fam!r}")
    t1, t2 = chart.period
    if not (math.isfinite(t1) and math.isfinite(t2)) or t1 <= 0 or t2 <= 0:
        raise ValueError(f"periods must be finite positive numbers, got "
                         f"{chart.period}")
    if not math.isfinite(chart.gamma):
        raise ValueError(f"gamma must be a finite number, got {chart.gamma}")

    def _expect_profiles(k):
        if len(chart.profiles) != k or not all(isinstance(p, Profile) for p in chart.profiles):
            raise ValueError(f"family {fam!r} needs {k} profile(s)")

    if fam == PLANE:
        if chart.profiles:
            raise ValueError("plane takes no profiles")
    elif fam == SIMPLE_CORRUGATION:
        _expect_profiles(1)
        if chart.f.period != t1:
            raise ValueError("profile period must equal T1")
    elif fam in (DOUBLE_CORRUGATION, MIURA_LIKE, SHEARED_DOUBLE_CORRUGATION):
        _expect_profiles(2)
        if chart.f.period != t1 or chart.g.period != t2:
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
    elif fam == TRANSLATION_SURFACE:
        if (len(chart.profiles) != 2
                or not all(isinstance(c, SpaceCurve) for c in chart.profiles)):
            raise ValueError("translation-surface needs two SpaceCurve values")
        a, b = chart.profiles
        if any(c.lateral is None and c.vertical is None for c in (a, b)):
            raise ValueError("a translation curve needs at least one profile")
        if (a.axis, b.axis) != (0, 1):
            raise ValueError("translation curves must have axes (0, 1)")
        if a.period != t1 or b.period != t2:
            raise ValueError("curve periods must equal (T1, T2)")
        _check_translation_partials(chart)

    if fam != SHEARED_DOUBLE_CORRUGATION and chart.gamma != 0.0:
        raise ValueError("gamma applies to the sheared family only")


def _check_translation_partials(chart: SurfaceChart, samples: int = 257) -> None:
    """Reject curve pairs whose tangents become parallel somewhere."""
    a, b = chart.profiles
    t1 = np.linspace(0.0, chart.period[0], samples)
    t2 = np.linspace(0.0, chart.period[1], samples)
    worst = np.inf
    for s1 in (1, -1):
        ta = a.tangent(t1, s1)
        for s2 in (1, -1):
            tb = b.tangent(t2, s2)
            cross = np.cross(ta[:, None, :], tb[None, :, :])
            norms = np.linalg.norm(cross, axis=-1)
            scale = (np.linalg.norm(ta, axis=-1)[:, None]
                     * np.linalg.norm(tb, axis=-1)[None, :])
            worst = min(worst, float(np.min(norms / scale)))
    if worst < 1e-8:
        raise ValueError("degenerate translation surface: curve tangents "
                         "become parallel")


# -- evaluation ---------------------------------------------------------

def evaluate_chart(chart: SurfaceChart, xi1, xi2) -> np.ndarray:
    """Position x(xi1, xi2), broadcasting over the inputs."""
    xi1 = np.asarray(xi1, dtype=float)
    xi2 = np.asarray(xi2, dtype=float)
    xi1, xi2 = np.broadcast_arrays(xi1, xi2)
    a, b = chart.curves
    return a.point(xi1) + b.point(xi2 + chart.gamma * xi1)


def chart_partials(chart: SurfaceChart, xi1, xi2, side=(1, 1)):
    """One-sided partial derivatives (x1, x2) at (xi1, xi2).

    ``side`` picks the panel when the point sits on a breakpoint line:
    +1 takes the limit from above in that parameter, -1 from below.
    """
    xi1 = np.asarray(xi1, dtype=float)
    xi2 = np.asarray(xi2, dtype=float)
    xi1, xi2 = np.broadcast_arrays(xi1, xi2)
    s1, s2 = side
    a, b = chart.curves
    tb = b.tangent(xi2 + chart.gamma * xi1, s2)
    return a.tangent(xi1, s1) + chart.gamma * tb, tb


def period_geometry(chart: SurfaceChart) -> PeriodGeometry:
    """Exact mean tangents p_a and the unit normal of their plane.

    Profiles have zero-mean slopes, so the means are the linear part of the
    chart: (1, gamma, 0) and (0, 1, 0), with gamma = 0 outside the sheared
    family.
    """
    return PeriodGeometry.from_tangents([1.0, chart.gamma, 0.0],
                                        [0.0, 1.0, 0.0])


# -- construction and serialization -------------------------------------

def _sgn_profile(period: float = TAU) -> Profile:
    return make_profile(PIECEWISE_LINEAR, 1.0, period)


def builtin_chart(name: str) -> SurfaceChart:
    """Named example surfaces with default periods and unit amplitudes."""
    if name == "plane":
        return SurfaceChart(PLANE, (TAU, TAU))
    if name == "corrugation":
        return SurfaceChart(SIMPLE_CORRUGATION, (TAU, TAU), (_sgn_profile(),))
    if name == "eggbox":
        return SurfaceChart(DOUBLE_CORRUGATION, (TAU, TAU),
                            (_sgn_profile(), _sgn_profile()))
    if name == "eggbox-hybrid":
        f = make_profile("piecewise-quadratic", 1.0, TAU)
        return SurfaceChart(DOUBLE_CORRUGATION, (TAU, TAU), (f, _sgn_profile()))
    if name == "miura":
        return SurfaceChart(MIURA_LIKE, (TAU, TAU),
                            (_sgn_profile(), _sgn_profile()))
    if name == "translation":
        alpha = SpaceCurve(0, vertical=_sgn_profile())
        beta = SpaceCurve(1, vertical=make_profile("piecewise-quadratic", 1.0, TAU))
        return SurfaceChart(TRANSLATION_SURFACE, (TAU, TAU), (alpha, beta))
    raise ValueError(f"unknown builtin surface {name!r}; choose from "
                     "plane, corrugation, eggbox, eggbox-hybrid, miura, translation")

BUILTIN_NAMES = ("plane", "corrugation", "eggbox", "eggbox-hybrid",
                 "miura", "translation")


def chart_to_config(chart: SurfaceChart) -> dict:
    cfg = {"family": chart.family, "period": list(chart.period)}
    if chart.profiles:
        cfg["profiles"] = [p.to_config() for p in chart.profiles]
    if chart.family == SHEARED_DOUBLE_CORRUGATION:
        cfg["gamma"] = chart.gamma
    return cfg


def chart_from_config(cfg: dict) -> SurfaceChart:
    if not isinstance(cfg, dict):
        raise ValueError(f"a surface config must be an object, got {cfg!r}")
    fam = required(cfg, "family", "the surface config")
    period = cfg.get("period", [TAU, TAU])
    if not isinstance(period, (list, tuple)) or len(period) != 2:
        raise ValueError(f"period must be two numbers, got {period!r}")
    t1, t2 = (as_float(t, "period") for t in period)
    raw = cfg.get("profiles", [])
    if not isinstance(raw, list):
        raise ValueError(f"profiles must be a list, got {raw!r}")
    if fam == TRANSLATION_SURFACE:
        curves = []
        for i, c in enumerate(raw):
            if not isinstance(c, dict):
                raise ValueError(f"a curve entry must be an object, got {c!r}")
            default = t1 if i == 0 else t2
            lat = profile_from_config(c["lateral"], default) if c.get("lateral") else None
            ver = profile_from_config(c["vertical"], default) if c.get("vertical") else None
            curves.append(SpaceCurve(c.get("axis", i), lat, ver))
        profiles = tuple(curves)
    else:
        profiles = tuple(profile_from_config(p, t1 if i == 0 else t2)
                         for i, p in enumerate(raw))
    return SurfaceChart(fam, (t1, t2), profiles,
                        as_float(cfg.get("gamma", 0.0), "gamma"))


def load_chart(path) -> SurfaceChart:
    with open(path) as fh:
        return chart_from_config(json.load(fh))


def save_chart(chart: SurfaceChart, path) -> None:
    with open(path, "w") as fh:
        json.dump(chart_to_config(chart), fh, indent=2)
        fh.write("\n")
