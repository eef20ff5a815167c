"""Grid construction, quadrature, differentiation, oscillation rows, OBJ."""

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from conftest import stencil_operator
from corruga.chart import TAU, SurfaceChart, builtin_chart, period_geometry
from corruga.grid import build_grid, cell_average, display_positions, write_obj


def test_plane_grid_counts():
    grid = build_grid(builtin_chart("plane"), 8)
    assert grid.shape == (8, 8)
    assert grid.nnodes == 64
    assert_allclose(np.sum(grid.weights), grid.cell_area, rtol=1e-14)


def test_sheared_family_is_refused():
    # its curve pair evaluates, but its panel joints are oblique lines
    sheared = SurfaceChart("sheared-double-corrugation", (TAU, TAU),
                           builtin_chart("eggbox").profiles, gamma=1.0)
    assert sheared.curves and not sheared.panel_breakpoints(0)
    with pytest.raises(ValueError, match="not axis-aligned"):
        build_grid(sheared, 8)


def test_corrugation_grid_duplicates_crease_columns():
    # two creases per period, each duplicated into a left/right instance
    grid = build_grid(builtin_chart("corrugation"), 16)
    assert grid.shape == (18, 16)


def test_eggbox_grid_duplicates_both_directions():
    grid = build_grid(builtin_chart("eggbox"), 32)
    assert grid.shape == (34, 34)


def test_cell_average_constant_and_sgn_square():
    grid = build_grid(builtin_chart("corrugation"), 16)
    assert_allclose(cell_average(np.full(grid.shape, 3.25), grid), 3.25,
                    rtol=1e-14)
    f = grid.chart.profiles[0]
    slopes = np.asarray(grid.x1[:, :, 2])      # f'(xi1) replicated
    assert_allclose(cell_average(slopes**2, grid), f.slope_mean_square(),
                    rtol=1e-13)


def test_cell_average_quadratic_convergence():
    # piecewise-quadratic slope squared: exact mean known, trapezoid O(h^2)
    chart = builtin_chart("eggbox-hybrid")
    f = chart.profiles[0]
    exact = f.slope_mean_square()
    errs = []
    for res in (8, 16, 32):
        grid = build_grid(chart, res)
        vals = np.asarray(grid.x1[:, :, 2]) ** 2
        errs.append(abs(cell_average(vals, grid) - exact))
    assert errs[0] > 0.0
    assert errs[1] <= 0.35 * errs[0]
    assert errs[2] <= 0.35 * errs[1]


def test_cell_average_of_partials_is_period_geometry():
    # the mean tangent over a period equals the lattice vector exactly
    for name in ("corrugation", "eggbox", "miura", "translation"):
        chart = builtin_chart(name)
        grid = build_grid(chart, 16)
        geom = period_geometry(chart)
        assert_allclose(cell_average(grid.x1, grid), geom.p1, atol=2e-13)
        assert_allclose(cell_average(grid.x2, grid), geom.p2, atol=2e-13)


def test_differentiate_exactness_and_accuracy():
    # the linear coordinate grows by one period per wrap; with its growth
    # coefficient restored the second-order stencil reproduces it exactly,
    # past the seam of a broken direction (eggbox) and around a closed one
    # (corrugation along xi2)
    for name in ("eggbox", "corrugation"):
        grid = build_grid(builtin_chart(name), 32)
        xi2 = grid.positions[:, :, 1].reshape(-1)
        D, wc = stencil_operator(grid, 1)
        t2 = grid.chart.period[1]
        assert np.count_nonzero(wc) > 0
        assert_allclose(D @ xi2 + wc * t2, np.ones(grid.nnodes), atol=1e-12,
                        err_msg=name)
        D, _ = stencil_operator(grid, 0)
        assert_allclose(D @ np.full(grid.nnodes, 7.0), np.zeros(grid.nnodes),
                        atol=1e-13, err_msg=name)

    errs = []
    for res in (16, 32, 64):
        g = build_grid(builtin_chart("plane"), res)
        xi1 = g.positions[:, :, 0].reshape(-1)
        D, _ = stencil_operator(g, 0)
        errs.append(np.max(np.abs(D @ np.sin(xi1) - np.cos(xi1))))
    assert errs[1] <= 0.35 * errs[0]
    assert errs[2] <= 0.35 * errs[1]


def test_derivative_matches_per_node_reference():
    # per node: centered inside its arc (around a closed axis too),
    # one-sided (-3, 4, -1)/2h at an arc start or end
    for name in ("eggbox", "corrugation"):
        grid = build_grid(builtin_chart(name), 16)
        n1, n2 = grid.shape
        for direction, pick in ((0, np.s_[::n2]), (1, np.s_[:n2])):
            axis = grid.axis(direction)
            n, arc = axis.n, axis.arc_of
            ref = np.zeros((n, n))
            for i in range(n):
                h = axis.spacing[i]
                lo, hi = (i - 1) % n, (i + 1) % n
                if axis.closed or 0 < i < n - 1 and arc[lo] == arc[i] == arc[hi]:
                    ref[i, lo], ref[i, hi] = -0.5 / h, 0.5 / h
                elif i + 1 < n and arc[i + 1] == arc[i]:
                    ref[i, i:i + 3] = -1.5 / h, 2.0 / h, -0.5 / h
                else:
                    ref[i, i - 2:i + 1] = 0.5 / h, -2.0 / h, 1.5 / h
            wrap = sp.csr_matrix(ref) @ axis.wrap_m   # sums in column order
            if axis.closed:   # the neighbors across the seam sit one period away
                wrap[[0, -1]] = 0.5 / axis.spacing[0]
            D, wc = stencil_operator(grid, direction)
            assert np.array_equal(D.toarray()[pick, pick], ref)
            assert np.array_equal(wc[pick], wrap)


def test_fourth_difference_annihilates_low_order_fields():
    # across the crease columns along xi1, around the closed arc along xi2
    grid = build_grid(builtin_chart("corrugation"), 16)
    for direction in (0, 1):
        S, sw = stencil_operator(grid, direction, 4)
        assert S.shape[0] > 0
        xi = grid.positions[:, :, direction].reshape(-1)
        t = grid.chart.period[direction]
        # constants: plain row-sum cancellation
        assert np.max(np.abs(S @ np.ones_like(xi))) <= 1e-12
        # a pure growth field is linear in the unwrapped coordinate; rows
        # that cross the period seam need the per-period increment restored
        c = 0.37
        vals = S @ (c * xi) + sw * (c * t)
        assert np.max(np.abs(vals)) <= 1e-10
        # cubics die on every window that stays inside the fundamental cell
        inside = sw == 0.0
        assert 0 < np.count_nonzero(inside) < sw.size
        vals = (S @ xi**3)[inside]
        assert np.max(np.abs(vals)) <= 1e-9


def test_fourth_difference_prices_checkerboards():
    grid = build_grid(builtin_chart("plane"), 32)
    S, _ = stencil_operator(grid, 0, 4)
    n1, n2 = grid.shape
    checker = np.tile((-1.0) ** np.arange(n1)[:, None], (1, n2)).reshape(-1)
    amp = np.max(np.abs(S @ checker))
    assert amp >= 10.0 / grid.h_max  # 16/h on alternating samples


def test_fourth_difference_smooth_field_third_order():
    errs = []
    for res in (16, 32, 64):
        g = build_grid(builtin_chart("plane"), res)
        S, _ = stencil_operator(g, 0, 4)
        w = np.sin(g.positions[:, :, 0]).reshape(-1)
        errs.append(np.max(np.abs(S @ w)))
    assert errs[1] <= 0.2 * errs[0]
    assert errs[2] <= 0.2 * errs[1]


def test_write_obj(tmp_path):
    grid = build_grid(builtin_chart("eggbox"), 8)
    path = tmp_path / "mesh.obj"
    write_obj(path, display_positions(grid))
    text = path.read_text()
    assert text.count("v ") > 0 and text.count("f ") > 0
