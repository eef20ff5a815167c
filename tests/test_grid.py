"""Grid construction, quadrature, differentiation, oscillation rows, OBJ."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from corruga.chart import TAU, SurfaceChart, builtin_chart, period_geometry
from corruga.grid import (build_grid, cell_average, differentiate,
                          display_positions, write_obj)


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
    grid = build_grid(builtin_chart("eggbox"), 32)
    n1, n2 = grid.shape
    # the linear coordinate grows by one period per wrap; with its growth
    # coefficient restored the second-order stencil reproduces it exactly
    xi2 = grid.positions[:, :, 1]
    D, wc = grid.derivative_operator(1)
    t2 = grid.chart.period[1]
    out = (D @ xi2.reshape(-1) + wc * t2).reshape(n1, n2)
    assert_allclose(out, np.ones(grid.shape), atol=1e-12)
    assert_allclose(differentiate(np.full(grid.shape, 7.0), grid, 0),
                    np.zeros(grid.shape), atol=1e-13)

    errs = []
    for res in (16, 32, 64):
        g = build_grid(builtin_chart("plane"), res)
        xi1 = g.positions[:, :, 0]
        d = differentiate(np.sin(xi1), g, 0)
        errs.append(np.max(np.abs(d - np.cos(xi1))))
    assert errs[1] <= 0.35 * errs[0]
    assert errs[2] <= 0.35 * errs[1]


def test_fourth_difference_annihilates_low_order_fields():
    grid = build_grid(builtin_chart("corrugation"), 16)
    S, sw = grid.fourth_difference_operator(0)
    assert S.shape[0] > 0
    xi1 = grid.positions[:, :, 0].reshape(-1)
    t1 = grid.chart.period[0]
    # constants: plain row-sum cancellation
    assert np.max(np.abs(S @ np.ones_like(xi1))) <= 1e-12
    # a pure growth field is linear in the unwrapped coordinate; rows that
    # cross the period seam need the per-period increment restored
    c = 0.37
    vals = S @ (c * xi1) + sw * (c * t1)
    assert np.max(np.abs(vals)) <= 1e-10
    # cubics die on every window that stays inside the fundamental cell
    inside = sw == 0.0
    assert np.count_nonzero(inside) > 0
    vals = (S @ xi1**3)[inside]
    assert np.max(np.abs(vals)) <= 1e-9


def test_fourth_difference_prices_checkerboards():
    grid = build_grid(builtin_chart("plane"), 32)
    S, _ = grid.fourth_difference_operator(0)
    n1, n2 = grid.shape
    checker = np.tile((-1.0) ** np.arange(n1)[:, None], (1, n2)).reshape(-1)
    amp = np.max(np.abs(S @ checker))
    assert amp >= 10.0 / grid.h_max  # 16/h on alternating samples


def test_fourth_difference_smooth_field_third_order():
    errs = []
    for res in (16, 32, 64):
        g = build_grid(builtin_chart("plane"), res)
        S, _ = g.fourth_difference_operator(0)
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
