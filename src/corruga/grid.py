"""Panel-aligned periodic grids.

One period of the chart is covered per direction by a chain of arcs, the
closed intervals between consecutive profile breakpoints.  Breakpoints are
always grid nodes and are *duplicated*, one instance per adjacent arc, so
fields may be double-valued there (rotation fields jump across creases).
The chain starts at the first breakpoint and its last arc wraps across the
periodicity seam; nodes past the seam carry a period count m = 1 and have
unwrapped coordinate u = xi + m*T.  A direction without breakpoints gets a
single circular arc whose centered stencils wrap around.

Derivatives never cross an arc end.  Stencils are second order: centered
inside an arc, one-sided (-3, 4, -1)/2h at its ends.  For fields that grow
by a constant G per period (cover fields v + m*G), the derivative of the
cover field is D @ v + wrap_coef * G, where wrap_coef row-sums the stencil
coefficients against the period counts of the referenced nodes.

Quadrature is per-arc trapezoid, so breakpoint instances contribute half
weights from both sides.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .chart import SpaceCurve, SurfaceChart, PeriodGeometry, period_geometry

MIN_RESOLUTION = 8

# tolerance for recognizing a node that sits mathematically on the seam
_SEAM_RTOL = 1e-9


@dataclass(frozen=True)
class AxisPair:
    """Duplicated breakpoint: ``minus`` ends one arc, ``plus`` starts the next."""

    minus: int
    plus: int
    value: float
    is_crease: bool
    spacing: float  # mean of the adjacent arc spacings


@dataclass(frozen=True)
class Axis:
    """One direction of the grid."""

    period: float
    u: np.ndarray             # unwrapped node coordinates, ascending
    xi: np.ndarray            # fundamental-domain coordinates, u - wrap_m*T
    wrap_m: np.ndarray        # period count per node (0 or 1)
    sides: np.ndarray         # +1 at arc starts, -1 at arc ends
    weights: np.ndarray       # trapezoid weights, sum = period
    D: sp.csr_matrix
    wrap_coef: np.ndarray
    pairs: tuple[AxisPair, ...]
    circular: bool
    h_max: float
    arc_of: np.ndarray        # arc index per node

    @property
    def n(self) -> int:
        return len(self.u)


_D4 = np.array([1.0, -4.0, 6.0, -4.0, 1.0])


def _axis_fourth_difference(axis: Axis):
    """Interior fourth differences (1, -4, 6, -4, 1) / h on 5-node windows.

    Returns (S, swrap) with S of shape (nrows, n), one row per node whose
    5-point neighborhood lies inside a single arc, and swrap = S @ m for
    the conceptual period counts of the referenced nodes, so the fourth
    difference of a cover field v + m*G is S @ v + swrap * G.  The stencil
    annihilates cubics, so it is exactly zero on arc-wise polynomial fields
    of degree <= 3 and O(h^3) on smooth fields (1/h scaling matches the
    first-derivative rows), while a mesh-frequency checkerboard, which the
    centered first-derivative stencils cannot see at all, responds at
    16/h times its amplitude.
    """
    n = axis.n
    if axis.circular:
        h = axis.h_max
        idx = np.arange(n)
        offs = np.arange(-2, 3)
        rows = np.repeat(idx, 5)
        refs = idx[:, None] + offs[None, :]
        cols = (refs % n).ravel()
        vals = np.tile(_D4 / h, n)
        S = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
        # conceptual period count of out-of-window references: -1 left, +1 right
        m_conc = np.where(refs < 0, -1.0, np.where(refs >= n, 1.0, 0.0))
        swrap = (m_conc * (_D4 / h)[None, :]).sum(axis=1)
        return S, swrap
    a = axis.arc_of
    same = (a[:-4] == a[1:-3]) & (a[1:-3] == a[2:-2]) \
        & (a[2:-2] == a[3:-1]) & (a[3:-1] == a[4:])
    keep = np.flatnonzero(same) + 2
    m = keep.size
    if m == 0:
        return sp.csr_matrix((0, n)), np.zeros(0)
    rows = np.repeat(np.arange(m), 5)
    cols = (keep[:, None] + np.arange(-2, 3)[None, :]).ravel()
    inv_h = 1.0 / axis.weights[keep]   # interior trapezoid weight is h
    vals = (inv_h[:, None] * _D4[None, :]).ravel()
    S = sp.csr_matrix((vals, (rows, cols)), shape=(m, n))
    swrap = np.asarray(S @ axis.wrap_m, dtype=float)
    return S, swrap


def _arc_stencil(m: int, h: float):
    """Rows (i, j, c) of the 3-point first-derivative stencil on m+1 nodes."""
    rows = [0, 0, 0]
    cols = [0, 1, 2]
    vals = [-1.5 / h, 2.0 / h, -0.5 / h]
    for i in range(1, m):
        rows.extend((i, i))
        cols.extend((i - 1, i + 1))
        vals.extend((-0.5 / h, 0.5 / h))
    rows.extend((m, m, m))
    cols.extend((m, m - 1, m - 2))
    vals.extend((1.5 / h, -2.0 / h, 0.5 / h))
    return rows, cols, vals


def _build_axis(period: float, resolution: int, panel_breaks, crease_breaks) -> Axis:
    creases = set(crease_breaks)
    breaks = sorted(panel_breaks)

    if not breaks:
        n = resolution
        h = period / n
        u = h * np.arange(n)
        D = sp.lil_matrix((n, n))
        for i in range(n):
            D[i, (i - 1) % n] = -0.5 / h
            D[i, (i + 1) % n] = 0.5 / h
        # stencil references that leave [0, period) sit one period away
        wrap_coef = np.zeros(n)
        wrap_coef[0] = 0.5 / h       # left neighbor of node 0 has m = -1
        wrap_coef[n - 1] = 0.5 / h   # right neighbor of node n-1 has m = +1
        return Axis(period, u, u.copy(), np.zeros(n, dtype=int),
                    np.ones(n, dtype=int), np.full(n, h), D.tocsr(),
                    wrap_coef, (), True, h, np.zeros(n, dtype=int))

    # arcs between consecutive breaks; the last one wraps past the seam
    ends = breaks[1:] + [breaks[0] + period]
    arcs = list(zip(breaks, ends))
    intervals = [max(2, round(resolution * (b - a) / period)) for a, b in arcs]
    spacings = [(b - a) / m for (a, b), m in zip(arcs, intervals)]

    u_parts, side_parts, weight_parts, arc_parts = [], [], [], []
    starts = []
    total = 0
    for r, ((a, b), m, h) in enumerate(zip(arcs, intervals, spacings)):
        starts.append(total)
        total += m + 1
        u_parts.append(np.linspace(a, b, m + 1))
        s = np.ones(m + 1, dtype=int)
        s[-1] = -1
        side_parts.append(s)
        w = np.full(m + 1, h)
        w[0] = w[-1] = h / 2
        weight_parts.append(w)
        arc_parts.append(np.full(m + 1, r, dtype=int))

    u = np.concatenate(u_parts)
    u[np.abs(u - period) <= _SEAM_RTOL * period] = period
    wrap_m = (u >= period).astype(int)
    xi = u - wrap_m * period
    # the wrapped copy of the first breakpoint must land on it exactly,
    # or one-sided profile lookups there would pick the wrong panel
    xi[-1] = breaks[0]

    n = len(u)
    rows, cols, vals = [], [], []
    for start, m, h in zip(starts, intervals, spacings):
        r, c, v = _arc_stencil(m, h)
        rows.extend(start + i for i in r)
        cols.extend(start + j for j in c)
        vals.extend(v)
    D = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    wrap_coef = np.asarray(D @ wrap_m, dtype=float)

    pairs = []
    narcs = len(arcs)
    for j, b in enumerate(breaks):
        plus = starts[j]
        prev = (j - 1) % narcs
        minus = starts[prev] + intervals[prev]
        hbar = 0.5 * (spacings[prev] + spacings[j])
        pairs.append(AxisPair(minus, plus, b, b in creases, hbar))

    return Axis(period, u, xi, wrap_m, np.concatenate(side_parts),
                np.concatenate(weight_parts), D, wrap_coef, tuple(pairs),
                False, max(spacings), np.concatenate(arc_parts))


@dataclass(frozen=True)
class PeriodicGrid:
    """Tensor-product grid over one period of a chart.

    Node (i, j) flattens to i * n2 + j.  ``positions`` are fundamental-domain
    evaluations; display_positions adds the exact lattice offsets m_a T_a p_a.
    """

    chart: SurfaceChart
    axis1: Axis
    axis2: Axis
    geometry: PeriodGeometry
    positions: np.ndarray        # (n1, n2, 3)
    x1: np.ndarray               # (n1, n2, 3) one-sided partials
    x2: np.ndarray
    weights: np.ndarray = field(init=False)  # (n1, n2), sums to T1*T2

    def __post_init__(self):
        object.__setattr__(self, "weights",
                           np.outer(self.axis1.weights, self.axis2.weights))

    @property
    def shape(self) -> tuple[int, int]:
        return self.axis1.n, self.axis2.n

    @property
    def nnodes(self) -> int:
        return self.axis1.n * self.axis2.n

    @property
    def h_max(self) -> float:
        return max(self.axis1.h_max, self.axis2.h_max)

    @property
    def cell_area(self) -> float:
        return self.axis1.period * self.axis2.period

    def node_index(self, i: int, j: int) -> int:
        return i * self.axis2.n + j

    def axis(self, direction: int) -> Axis:
        return self.axis1 if direction == 0 else self.axis2

    def derivative_operator(self, direction: int):
        """(D, wrap_coef) over flattened nodes for the given direction."""
        n1, n2 = self.shape
        if direction == 0:
            D = sp.kron(self.axis1.D, sp.identity(n2, format="csr"), format="csr")
            wc = np.repeat(self.axis1.wrap_coef, n2)
        else:
            D = sp.kron(sp.identity(n1, format="csr"), self.axis2.D, format="csr")
            wc = np.tile(self.axis2.wrap_coef, n1)
        return D, wc

    def fourth_difference_operator(self, direction: int):
        """(S, swrap) over flattened nodes; cover-field convention as for D.

        S holds one row per node whose 5-point neighborhood along the given
        direction stays inside one arc; rows near arc ends are dropped.
        """
        n1, n2 = self.shape
        S, sw = _axis_fourth_difference(self.axis(direction))
        if direction == 0:
            return (sp.kron(S, sp.identity(n2, format="csr"), format="csr"),
                    np.repeat(sw, n2))
        return (sp.kron(sp.identity(n1, format="csr"), S, format="csr"),
                np.tile(sw, n1))


def _node_tangents(curve: SpaceCurve, axis: Axis) -> np.ndarray:
    """One-sided curve tangents at the axis nodes, each from its own arc."""
    return np.where(axis.sides[:, None] > 0, curve.tangent(axis.xi, 1),
                    curve.tangent(axis.xi, -1))


def build_grid(chart: SurfaceChart, resolution) -> PeriodicGrid:
    """Discretize one period of ``chart``.

    ``resolution`` is the approximate node count per direction (int or pair);
    each arc gets a proportional share, at least two intervals.
    """
    if isinstance(resolution, (tuple, list)):
        n1, n2 = int(resolution[0]), int(resolution[1])
    else:
        n1 = n2 = int(resolution)
    if n1 < MIN_RESOLUTION or n2 < MIN_RESOLUTION:
        raise ValueError(f"resolution must be at least {MIN_RESOLUTION} per direction")
    if not chart.grid_compatible:
        raise ValueError(f"family {chart.family!r} has panel joints that are "
                         "not axis-aligned; it is supported analytically only")

    t1, t2 = chart.period
    axis1 = _build_axis(t1, n1, chart.panel_breakpoints(0), chart.crease_breakpoints(0))
    axis2 = _build_axis(t2, n2, chart.panel_breakpoints(1), chart.crease_breakpoints(1))

    alpha, beta = chart.curves
    positions = alpha.point(axis1.xi)[:, None] + beta.point(axis2.xi)[None]
    x1 = np.broadcast_to(_node_tangents(alpha, axis1)[:, None],
                         positions.shape).copy()
    x2 = np.broadcast_to(_node_tangents(beta, axis2)[None],
                         positions.shape).copy()

    return PeriodicGrid(chart, axis1, axis2, period_geometry(chart),
                        positions, x1, x2)


def cell_average(values, grid: PeriodicGrid):
    """Mean over the period, (1/T1 T2) * integral, by per-arc trapezoid.

    ``values`` may be (n1, n2), (n1, n2, k), or flattened along the first
    two axes.
    """
    v = np.asarray(values, dtype=float)
    n1, n2 = grid.shape
    if v.shape[0] == n1 * n2:
        v = v.reshape((n1, n2) + v.shape[1:])
    if v.shape[:2] != (n1, n2):
        raise ValueError(f"field shape {np.shape(values)} does not match grid {grid.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("field contains non-finite values")
    return np.tensordot(grid.weights, v, axes=([0, 1], [0, 1])) / grid.cell_area


def differentiate(values, grid: PeriodicGrid, direction: int):
    """Second-order derivative of a per-node field along one direction.

    The field must be smooth per arc as a function of the unwrapped
    coordinates; stencils never cross arc ends.  Periodic fields sampled in
    the fundamental domain qualify as-is.
    """
    v = np.asarray(values, dtype=float)
    n1, n2 = grid.shape
    flat_in = v.shape[0] == n1 * n2
    if flat_in:
        v = v.reshape((n1, n2) + v.shape[1:])
    if direction == 0:
        out = (grid.axis1.D @ v.reshape(n1, -1)).reshape(v.shape)
    else:
        vt = np.moveaxis(v, 1, 0)
        out = (grid.axis2.D @ vt.reshape(n2, -1)).reshape(vt.shape)
        out = np.moveaxis(out, 0, 1)
    if flat_in:
        out = out.reshape((n1 * n2,) + v.shape[2:])
    return out


def display_derivative(values, grid: PeriodicGrid, direction: int):
    """Like differentiate, but for fields sampled on the display lattice.

    Broken axes reuse their per-arc stencils (display = fundamental there);
    a circular axis closes into one arc of n+1 nodes spanning a full period,
    with one-sided ends.  The field need not be periodic.
    """
    v = np.asarray(values, dtype=float)
    axis = grid.axis(direction)
    if axis.circular:
        m = axis.n
        h = axis.period / m
        rows, cols, vals = _arc_stencil(m, h)
        D = sp.csr_matrix((vals, (rows, cols)), shape=(m + 1, m + 1))
    else:
        D = axis.D
    if v.shape[direction] != D.shape[0]:
        raise ValueError(f"field has {v.shape[direction]} rows along direction "
                         f"{direction}, display lattice has {D.shape[0]}")
    if direction == 0:
        return (D @ v.reshape(v.shape[0], -1)).reshape(v.shape)
    vt = np.moveaxis(v, 1, 0)
    out = (D @ vt.reshape(vt.shape[0], -1)).reshape(vt.shape)
    return np.moveaxis(out, 0, 1)


# -- mesh export --------------------------------------------------------

def display_lattice(grid: PeriodicGrid):
    """Index arrays building the visual lattice over one closed period.

    Returns (i_base, j_base, extra_m1, extra_m2): broken axes already end
    with their wrapped copy, circular axes get one appended.
    """
    n1, n2 = grid.shape
    i = np.arange(n1 + (1 if grid.axis1.circular else 0))
    j = np.arange(n2 + (1 if grid.axis2.circular else 0))
    return i % n1, j % n2, i // n1, j // n2


def display_cover(grid: PeriodicGrid, values: np.ndarray, growth1,
                  growth2) -> np.ndarray:
    """A cover field on the display lattice, continuous over the period.

    ``values`` (n1, n2, k) are fundamental-domain samples and ``growth1``,
    ``growth2`` the field's growth over one period in each direction; each
    lattice node adds its period counts m_a times growth_a.
    """
    ib, jb, e1, e2 = display_lattice(grid)
    m1 = grid.axis1.wrap_m[ib] + e1
    m2 = grid.axis2.wrap_m[jb] + e2
    out = np.asarray(values, dtype=float)[np.ix_(ib, jb)]
    out = out + m1[:, None, None] * growth1
    return out + m2[None, :, None] * growth2


def display_positions(grid: PeriodicGrid) -> np.ndarray:
    t1, t2 = grid.chart.period
    return display_cover(grid, grid.positions, t1 * grid.geometry.p1,
                         t2 * grid.geometry.p2)


def write_obj(path, vertices: np.ndarray) -> None:
    """Write a lattice of vertices (r, c, 3) as a triangulated OBJ mesh.

    Each quad is split along the diagonal running toward increasing
    (xi1 + xi2), i.e. from corner (i, j) to (i+1, j+1).  Quads collapsed by
    duplicated breakpoint nodes are skipped.
    """
    r, c = vertices.shape[:2]
    lines = ["# corruga mesh export"]
    for row in vertices.reshape(-1, 3):
        lines.append(f"v {row[0]:.12g} {row[1]:.12g} {row[2]:.12g}")

    def vid(i, j):
        return i * c + j + 1

    for i in range(r - 1):
        for j in range(c - 1):
            d1 = np.linalg.norm(vertices[i + 1, j] - vertices[i, j])
            d2 = np.linalg.norm(vertices[i, j + 1] - vertices[i, j])
            if d1 < 1e-14 or d2 < 1e-14:
                continue
            lines.append(f"f {vid(i, j)} {vid(i + 1, j)} {vid(i + 1, j + 1)}")
            lines.append(f"f {vid(i, j)} {vid(i + 1, j + 1)} {vid(i, j + 1)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
