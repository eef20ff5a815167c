"""Panel-aligned periodic grids.

One period of the chart is covered per direction by a chain of arcs, the
closed intervals between consecutive profile breakpoints.  Breakpoints are
always grid nodes and are *duplicated*, one instance per adjacent arc, so
fields may be double-valued there (rotation fields jump across creases).
The chain starts at the first breakpoint and its last arc wraps across the
periodicity seam; nodes past the seam carry a period count m = 1 and have
unwrapped coordinate u = xi + m*T.  A direction without breakpoints is one
arc that closes on itself: its chain wraps around and has no arc ends.

Every stencil comes from one rule (_stencil).  Node i reads cover index
k = i + offset, stored at k mod n with period count wrap_m + k // n, and a
row exists only where its window stays inside one arc.  Stencils are
second order: first derivatives centered inside an arc, one-sided
(-3, 4, -1)/2h at its ends; fourth differences (1, -4, 6, -4, 1)/h on
interior windows only.  For fields that grow by a constant G per period
(cover fields v + m*G), the stencil of the cover field is M @ v + wrap * G,
where wrap row-sums the coefficients against the period counts.  Stencils
exist only as (row, col, value) triplets: PeriodicGrid.stencil_entries
lifts a rule onto the flattened nodes by index arithmetic, and the
solver's constraint matrix is built from those.

Quadrature is per-arc trapezoid, so breakpoint instances contribute half
weights from both sides.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chart import (TAU, SurfaceChart, PeriodGeometry, chart_partials,
                    evaluate_chart, period_geometry)

MIN_RESOLUTION = 8

# tolerance for recognizing a node that sits mathematically on the seam
_SEAM_RTOL = 1e-9

# stencil rules, (offsets, coefficients) in the order a node tries them
_FIRST = (((-1, 1), (-0.5, 0.5)),               # centered inside an arc
          ((0, 1, 2), (-1.5, 2.0, -0.5)),       # one-sided at an arc start
          ((0, -1, -2), (1.5, -2.0, 0.5)))      # one-sided at an arc end
# The fourth difference annihilates cubics, so it is exactly zero on
# arc-wise polynomial fields of degree <= 3 and O(h^3) on smooth ones (1/h
# scaling matches the first-derivative rows), while a mesh-frequency
# checkerboard, which the centered first-derivative stencils cannot see at
# all, responds at 16/h times its amplitude.
_FOURTH = (((-2, -1, 0, 1, 2), (1.0, -4.0, 6.0, -4.0, 1.0)),)
_RULES = {1: _FIRST, 4: _FOURTH}   # by derivative order


def _stencil(arc, h, m, closed: bool, rules):
    """One stencil rule M on a chain of nodes, as the int32 (rows, cols)
    of its entries, their values and wrap.

    Node i reads cover index k = i + offset, stored at k mod n with period
    count m[k mod n] + k // n.  It takes the first of ``rules`` whose window
    stays inside its own arc, a closed chain wrapping around and an open
    one ending, with each coefficient over its arc spacing h[i]; a node
    with none gets no row.  wrap row-sums the coefficients against the
    period counts, so the stencil of a cover field v + m*G is M @ v + wrap*G.
    """
    n = arc.size
    node = np.arange(n)
    free = np.ones(n, dtype=bool)
    nodes, ks, vals = [], [], []
    for offsets, coefs in rules:
        k = node[:, None] + np.asarray(offsets)
        fits = free & np.all(arc[k % n] == arc[:, None], axis=1)
        if not closed:
            fits &= np.all((k >= 0) & (k < n), axis=1)
        free &= ~fits
        nodes.append(np.repeat(node[fits], len(offsets)))
        ks.append(k[fits].ravel())
        vals.append((np.asarray(coefs) / h[fits, None]).ravel())
    nodes, k, vals = map(np.concatenate, (nodes, ks, vals))
    # rows are numbered over the nodes that got one, in node order
    rows = (np.cumsum(~free) - 1)[nodes]
    # every rule's coefficients sum to 0, so counting the periods from the
    # row's own node changes nothing but makes a window that lies wholly
    # past the seam an exact 0
    lag = m[k % n] + k // n - m[nodes]
    wrap = np.bincount(rows, weights=vals * lag,
                       minlength=n - np.count_nonzero(free))
    return rows.astype(np.int32), (k % n).astype(np.int32), vals, wrap


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
    spacing: np.ndarray       # node spacing of each node's arc
    pairs: tuple[AxisPair, ...]
    arc_of: np.ndarray        # arc index per node

    @property
    def n(self) -> int:
        return len(self.u)

    @property
    def closed(self) -> bool:
        """Without breakpoints the one arc closes on itself."""
        return not self.pairs


def _build_axis(period: float, resolution: int, panel_breaks, crease_breaks) -> Axis:
    creases = set(crease_breaks)
    breaks = sorted(panel_breaks)

    if not breaks:
        # one closed arc: no node is duplicated and none lies past the seam
        n = resolution
        h = period / n
        u = h * np.arange(n)
        zeros = np.zeros(n, dtype=int)
        return Axis(period, u, u.copy(), zeros, zeros + 1, np.full(n, h),
                    np.full(n, h), (), zeros)

    # arcs between consecutive breaks; the last one wraps past the seam
    ends = breaks[1:] + [breaks[0] + period]
    arcs = list(zip(breaks, ends))
    intervals = [max(2, round(resolution * (b - a) / period)) for a, b in arcs]
    spacings = [(b - a) / m for (a, b), m in zip(arcs, intervals)]

    u_parts, side_parts, weight_parts = [], [], []
    starts = []
    total = 0
    for (a, b), m, h in zip(arcs, intervals, spacings):
        starts.append(total)
        total += m + 1
        u_parts.append(np.linspace(a, b, m + 1))
        s = np.ones(m + 1, dtype=int)
        s[-1] = -1
        side_parts.append(s)
        w = np.full(m + 1, h)
        w[0] = w[-1] = h / 2
        weight_parts.append(w)
    arc_of = np.repeat(np.arange(len(arcs)), np.add(intervals, 1))

    u = np.concatenate(u_parts)
    u[np.abs(u - period) <= _SEAM_RTOL * period] = period
    wrap_m = (u >= period).astype(int)
    xi = u - wrap_m * period
    # the wrapped copy of the first breakpoint must land on it exactly,
    # or one-sided profile lookups there would pick the wrong panel
    xi[-1] = breaks[0]

    pairs = []
    narcs = len(arcs)
    for j, b in enumerate(breaks):
        plus = starts[j]
        prev = (j - 1) % narcs
        minus = starts[prev] + intervals[prev]
        hbar = 0.5 * (spacings[prev] + spacings[j])
        pairs.append(AxisPair(minus, plus, b, b in creases, hbar))

    return Axis(period, u, xi, wrap_m, np.concatenate(side_parts),
                np.concatenate(weight_parts), np.asarray(spacings)[arc_of],
                tuple(pairs), arc_of)


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
        return float(max(self.axis1.spacing.max(), self.axis2.spacing.max()))

    @property
    def h_angle(self) -> float:
        """h_max in units where each axis's period is 2*pi, which a chart's
        length unit does not change: the spacing the automatic cut scales
        with.  It is h_max itself at the builtins' period 2*pi."""
        return float(max(a.spacing.max() * (TAU / a.period)
                         for a in (self.axis1, self.axis2)))

    @property
    def cell_area(self) -> float:
        return self.axis1.period * self.axis2.period

    def axis(self, direction: int) -> Axis:
        return self.axis1 if direction == 0 else self.axis2

    def stencil_entries(self, direction: int, order: int = 1):
        """A stencil rule along one direction over the flattened nodes, as
        int32 (rows, cols) with their values and the lifted wrap: the first
        derivative (order 1) or the fourth difference (order 4).

        Row r of the 1-D stencil becomes row r*n2 + j on grid line j along
        xi1, and row i*m + r on grid line i along xi2 (m rows per line).
        """
        a = self.axis(direction)
        r, c, vals, wrap = _stencil(a.arc_of, a.spacing, a.wrap_m, a.closed,
                                    _RULES[order])
        n1, n2 = self.shape
        if direction == 0:
            j = np.arange(n2, dtype=np.int32)
            return ((r[:, None] * n2 + j).ravel(), (c[:, None] * n2 + j).ravel(),
                    np.repeat(vals, n2), np.repeat(wrap, n2))
        i = np.arange(n1, dtype=np.int32)[:, None]
        return ((i * wrap.size + r).ravel(), (i * n2 + c).ravel(),
                np.tile(vals, n1), np.tile(wrap, n1))


def resolution_counts(resolution) -> tuple[int, int]:
    """(n1, n2) from one count or a sequence of one or two counts.

    Refuses any count below MIN_RESOLUTION.
    """
    counts = ([int(n) for n in resolution]
              if isinstance(resolution, (tuple, list)) else [int(resolution)])
    if len(counts) == 1:
        counts *= 2
    if len(counts) != 2:
        raise ValueError(f"resolution must be one or two counts, got "
                         f"{resolution!r}")
    n1, n2 = counts
    if min(n1, n2) < MIN_RESOLUTION:
        raise ValueError(f"resolution {n1},{n2} is below the minimum of "
                         f"{MIN_RESOLUTION} samples per period")
    return n1, n2


def build_grid(chart: SurfaceChart, resolution) -> PeriodicGrid:
    """Discretize one period of ``chart``.

    ``resolution`` is the approximate node count per direction (int or pair);
    each arc gets a proportional share, at least two intervals.
    """
    n1, n2 = resolution_counts(resolution)
    if not chart.grid_compatible:
        raise ValueError(f"family {chart.family!r} has panel joints that are "
                         "not axis-aligned; it is supported analytically only")

    t1, t2 = chart.period
    axis1 = _build_axis(t1, n1, chart.panel_breakpoints(0), chart.crease_breakpoints(0))
    axis2 = _build_axis(t2, n2, chart.panel_breakpoints(1), chart.crease_breakpoints(1))

    # one-sided partials, each node's from its own arc
    X1, X2 = axis1.xi[:, None], axis2.xi[None, :]
    x1, x2 = chart_partials(chart, X1, X2,
                            (axis1.sides[:, None], axis2.sides[None, :]))
    return PeriodicGrid(chart, axis1, axis2, period_geometry(chart),
                        evaluate_chart(chart, X1, X2), x1, x2)


def cell_average(values, grid: PeriodicGrid):
    """Mean over the period, (1/T1 T2) * integral, by per-arc trapezoid.

    ``values`` is (n1, n2) or (n1, n2, k).
    """
    v = np.asarray(values, dtype=float)
    if v.shape[:2] != grid.shape:
        raise ValueError(f"field shape {np.shape(values)} does not match grid {grid.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("field contains non-finite values")
    return np.tensordot(grid.weights, v, axes=([0, 1], [0, 1])) / grid.cell_area


# -- mesh export --------------------------------------------------------

def display_lattice(grid: PeriodicGrid):
    """Index arrays building the visual lattice over one closed period.

    Returns (i_base, j_base, extra_m1, extra_m2): broken axes already end
    with their wrapped copy, closed axes get one appended.
    """
    n1, n2 = grid.shape
    i = np.arange(n1 + grid.axis1.closed)
    j = np.arange(n2 + grid.axis2.closed)
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
    corner = vertices[:-1, :-1]
    keep = ((np.linalg.norm(vertices[1:, :-1] - corner, axis=-1) >= 1e-14)
            & (np.linalg.norm(vertices[:-1, 1:] - corner, axis=-1) >= 1e-14))
    # 1-based vertex ids of each kept quad's corners, in (i, j) order
    vid = np.arange(1, r * c + 1).reshape(r, c)
    a, b = vid[:-1, :-1][keep], vid[1:, :-1][keep]
    d, e = vid[1:, 1:][keep], vid[:-1, 1:][keep]
    faces = np.stack([a, b, d, a, d, e], axis=1)
    with open(path, "w") as fh:
        fh.write("# corruga mesh export\n")
        fh.write("v %.12g %.12g %.12g\n" * (r * c)
                 % tuple(vertices.reshape(-1).tolist()))
        fh.write("f %d %d %d\n" * (2 * len(faces))
                 % tuple(faces.reshape(-1).tolist()))
