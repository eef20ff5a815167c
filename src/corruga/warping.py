"""Axial warping of twisted thin-walled prismatic bars.

Sections are polylines (x(s), y(s)) ordered by arclength.  The warping
integrand (x'y - xy') ds is constant on each straight segment, so the
per-segment increment x_{k+1} y_k - x_k y_{k+1} is exact, not a quadrature
approximation; summed around a closed loop it equals minus twice the
shoelace area, which is why closed sections pick up a dislocation instead
of a single-valued warping.

Sign convention: sections are oriented by their sample order, and a
counterclockwise loop has positive enclosed area, so its dislocation is
negative for positive twist rate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SectionCurve:
    """An arclength-ordered polyline section, optionally closed."""

    x: np.ndarray
    y: np.ndarray
    closed: bool = False

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.ndim != 1 or x.shape != y.shape:
            raise ValueError("x and y must be 1-d arrays of equal length")
        if len(x) < 2:
            raise ValueError("a section needs at least two samples")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("section coordinates must be finite")
        steps = np.hypot(np.diff(x), np.diff(y))
        if np.any(steps == 0.0):
            raise ValueError("consecutive section samples must be distinct")
        if self.closed and (x[0] != x[-1] or y[0] != y[-1]):
            raise ValueError("a closed section must end at its first sample")


def section_from_points(points, closed: bool | None = None) -> SectionCurve:
    """Build a section from an (n, 2) array; detect or enforce closure.

    With ``closed=True`` the loop is closed by repeating the first point
    when needed; with ``closed=None`` it is inferred from the endpoints.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must have shape (n, 2)")
    x, y = pts[:, 0], pts[:, 1]
    loops = len(x) >= 2 and x[0] == x[-1] and y[0] == y[-1]
    if closed is None:
        closed = loops
    elif closed and not loops:
        x = np.append(x, x[0])
        y = np.append(y, y[0])
    return SectionCurve(x=x, y=y, closed=closed)


@dataclass(frozen=True)
class WarpingResult:
    """Twist rate and per-sample warping values of an open section."""

    alpha: float
    w: np.ndarray


def _increments(section: SectionCurve) -> np.ndarray:
    x, y = section.x, section.y
    return x[1:] * y[:-1] - x[:-1] * y[1:]


def shoelace_area(section: SectionCurve) -> float:
    """Signed enclosed area of a closed section (counterclockwise positive)."""
    if not section.closed:
        raise ValueError("shoelace area needs a closed section")
    x, y = section.x, section.y
    return 0.5 * float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))


def warping_function(section: SectionCurve, alpha: float) -> WarpingResult:
    """Warping values w(s) = alpha * integral of (x'y - xy'), with w(0) = 0.

    Only open sections have a single-valued warping; pass closed loops to
    :func:`dislocation` instead.
    """
    if section.closed:
        raise ValueError("closed sections have no single-valued warping; "
                         "use dislocation()")
    w = np.concatenate([[0.0], np.cumsum(alpha * _increments(section))])
    return WarpingResult(alpha=float(alpha), w=w)


def dislocation(section: SectionCurve, alpha: float) -> float:
    """Mismatch accumulated by the warping integrand around a closed loop.

    Equals -2 * alpha * (signed enclosed area), exactly, for any polyline.
    """
    if not section.closed:
        raise ValueError("dislocation is defined for closed sections only; "
                         "use warping_function()")
    return float(alpha * np.sum(_increments(section)))

