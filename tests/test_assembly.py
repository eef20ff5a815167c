"""The constraint matrix against its block-operator formula, bit for bit.

``reference_system`` is the assembly written with scipy.sparse algebra:
C1 (D2 x I3) - C2 (D1 x I3) for the interior rows, 3x3 column blocks for
the growth columns, jump blocks at duplicated breakpoints and
kron(S, I3) for the oscillation rows.  The package writes the same rows as
(row, col, value) triplets; every value must come from the same
floating-point operations, so the two CSR matrices agree in ``indptr``,
``indices`` and the raw bits of ``data``.
"""
from dataclasses import replace
import re

import numpy as np
import pytest
import scipy.sparse as sp

from corruga.chart import BUILTIN_NAMES, builtin_chart, chart_from_config
from corruga.grid import _FIRST, _FOURTH, _stencil, build_grid
from corruga.oracle import MODE_IDS, canonical_chart
from corruga.solver import (OSC_SCALE, ROW_CONTINUITY, ROW_CREASE,
                            ROW_OSCILLATION, ROW_PDE, assemble_system)

from conftest import stencil_operator
from test_solver import MIRRORLESS


def cross_blocks(vs):
    """Per-row matrices C with C @ a = a x v (post-cross by v)."""
    vs = np.atleast_2d(np.asarray(vs, dtype=float))
    B = np.zeros(vs.shape[:-1] + (3, 3))
    B[..., 0, 1] = vs[..., 2]
    B[..., 0, 2] = -vs[..., 1]
    B[..., 1, 0] = -vs[..., 2]
    B[..., 1, 2] = vs[..., 0]
    B[..., 2, 0] = vs[..., 1]
    B[..., 2, 1] = -vs[..., 0]
    return B


def _block_diag(blocks):
    n = blocks.shape[0]
    return sp.bsr_matrix((blocks, np.arange(n), np.arange(n + 1)),
                         shape=(3 * n, 3 * n))


def _column_block(blocks):
    """Stack n 3x3 blocks into a (3n, 3) column."""
    n = blocks.shape[0]
    return sp.bsr_matrix((blocks, np.zeros(n, dtype=int), np.arange(n + 1)),
                         shape=(3 * n, 3))


def reference_lift(grid, direction, rules):
    """A 1-D stencil rule lifted onto the flattened nodes by sp.kron."""
    a = grid.axis(direction)
    r, c, vals, wrap = _stencil(a.arc_of, a.spacing, a.wrap_m, a.closed, rules)
    M = sp.csr_matrix((vals, (r, c)), shape=(wrap.size, a.n))
    n1, n2 = grid.shape
    if direction == 0:
        return (sp.kron(M, sp.identity(n2, format="csr"), format="csr"),
                np.repeat(wrap, n2))
    return (sp.kron(sp.identity(n1, format="csr"), M, format="csr"),
            np.tile(wrap, n1))


def reference_system(grid):
    """(A, row counts) by block-operator algebra."""
    n1, n2 = grid.shape
    n = grid.nnodes
    x1 = grid.x1.reshape(n, 3)
    x2 = grid.x2.reshape(n, 3)
    scale = max(np.abs(x1).max(), np.abs(x2).max())

    C1 = _block_diag(cross_blocks(x1))
    C2 = _block_diag(cross_blocks(x2))
    D1, wc1 = reference_lift(grid, 0, _FIRST)
    D2, wc2 = reference_lift(grid, 1, _FIRST)
    I3 = sp.identity(3, format="csr")
    Aw = (C1 @ sp.kron(D2, I3, format="csr")
          - C2 @ sp.kron(D1, I3, format="csr")).tocsr()
    B1 = _column_block(-wc1[:, None, None] * cross_blocks(x2))
    B2 = _column_block(wc2[:, None, None] * cross_blocks(x1))
    parts = [sp.hstack([Aw, B1, B2], format="csr")]
    rows = {ROW_PDE: 3 * n}

    node = np.arange(n).reshape(n1, n2)
    blocks, bcols = [], []
    for direction, along in ((0, grid.x2), (1, grid.x1)):
        for pair in grid.axis(direction).pairs:
            kp = np.take(node, pair.plus, axis=direction)
            km = np.take(node, pair.minus, axis=direction)
            inv_h = 1.0 / pair.spacing
            if pair.is_crease:
                tangents = np.take(along, pair.plus, axis=direction)
                R = cross_blocks(tangents) * inv_h
                tag = ROW_CREASE
            else:
                R = np.broadcast_to(np.eye(3) * inv_h, (kp.size, 3, 3))
                tag = ROW_CONTINUITY
            rows[tag] = rows.get(tag, 0) + 3 * kp.size
            blocks.append(np.stack([R, -R], axis=1).reshape(-1, 3, 3))
            bcols.append(np.stack([kp, km], axis=1).ravel())
    if bcols:
        nb = sum(c.size for c in bcols) // 2
        P = sp.bsr_matrix((np.concatenate(blocks), np.concatenate(bcols),
                           2 * np.arange(nb + 1)), shape=(3 * nb, 3 * n))
        parts.append(sp.hstack([P, sp.csr_matrix((3 * nb, 6))], format="csr"))

    for direction in (0, 1):
        S, sw = reference_lift(grid, direction, _FOURTH)
        m = S.shape[0]
        if m == 0:
            continue
        Sw = sp.kron(S, I3, format="csr") * (OSC_SCALE * scale)
        gcol = _column_block((OSC_SCALE * scale * sw)[:, None, None]
                             * np.eye(3))
        zcol = sp.csr_matrix((3 * m, 3))
        cols = [Sw, gcol, zcol] if direction == 0 else [Sw, zcol, gcol]
        parts.append(sp.hstack(cols, format="csr"))
        rows[ROW_OSCILLATION] = rows.get(ROW_OSCILLATION, 0) + 3 * m

    A = sp.vstack(parts, format="csr")
    A.eliminate_zeros()
    return A, rows


def assert_same_csr(got, ref):
    assert got.shape == ref.shape
    for name in ("indptr", "indices"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.data.dtype == ref.data.dtype
    assert got.data.tobytes() == ref.data.tobytes(), "data bits"


def _grids():
    for name in BUILTIN_NAMES:
        for res in (8, 12, 33, 64, (64, 8)):
            yield f"{name}@{res}", lambda c=builtin_chart(name), r=res: \
                build_grid(c, r)
    for res in (12, 33):
        yield f"mirrorless@{res}", lambda r=res: \
            build_grid(chart_from_config(MIRRORLESS), r)
    for mid in MODE_IDS:
        if canonical_chart(mid).grid_compatible:
            yield f"{mid}@48", lambda m=mid: build_grid(canonical_chart(m), 48)


GRIDS = dict(_grids())


@pytest.mark.parametrize("case", GRIDS)
def test_assembly_matches_block_formula_bit_for_bit(case):
    grid = GRIDS[case]()
    system = assemble_system(grid)
    A, rows = reference_system(grid)
    assert_same_csr(system.matrix, A)
    assert system.rows == rows and list(system.rows) == list(rows)


@pytest.mark.parametrize("case", GRIDS)
def test_stencil_operators_match_kron_lifts(case):
    grid = GRIDS[case]()
    for direction in (0, 1):
        for rules, order in ((_FIRST, 1), (_FOURTH, 4)):
            M, wrap = stencil_operator(grid, direction, order)
            M_ref, wrap_ref = reference_lift(grid, direction, rules)
            assert_same_csr(M, M_ref)
            assert wrap.tobytes() == wrap_ref.tobytes()


def test_degenerate_crease_tangent_is_refused():
    # corrugation's creases run along xi2 at breakpoints of xi1, so their
    # tangent is x2 on the crease column
    grid = build_grid(builtin_chart("corrugation"), 12)
    pair = next(p for p in grid.axis1.pairs if p.is_crease)
    x2 = grid.x2.copy()
    x2[pair.plus, 5] = 0.0
    bad = replace(grid, x2=x2)
    message = f"degenerate crease tangent at breakpoint {pair.value} "
    with pytest.raises(ValueError, match=re.escape(message + "(direction 0)")):
        assemble_system(bad)
    assemble_system(grid)   # the untouched grid assembles
