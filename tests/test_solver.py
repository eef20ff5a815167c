"""Constraint assembly, the operator kernel, strain forms, deflection recovery."""

from dataclasses import replace
import weakref

import numpy as np
import pytest
import scipy.linalg as la
from scipy.linalg import lapack
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose, assert_array_equal

from corruga import solver
from corruga.analysis import _analysis_system
from corruga.chart import BUILTIN_NAMES, builtin_chart, chart_from_config
from corruga.grid import (_FIRST, _stencil, build_grid, display_cover,
                          display_lattice, display_positions)
from corruga.oracle import analytic_mode, sample_rotation
from corruga.solver import (ARPACK_RETRY, ROW_CREASE, ROW_PDE, SolverError,
                            assemble_system, kernel_distance,
                            recover_deflection, strain_forms)
from corruga.strains import (cut, effective_spaces, membrane_row_map,
                             parse_threshold)


def test_plane_system_counts():
    system = assemble_system(build_grid(builtin_chart("plane"), 8))
    counts = system.row_counts()
    assert counts[ROW_PDE] == 3 * 64
    assert system.matrix.shape[1] == 3 * 64 + 6


def test_corrugation_row_count_formula():
    grid = build_grid(builtin_chart("corrugation"), 16)
    system = assemble_system(grid)
    counts = system.row_counts()
    n1, n2 = grid.shape
    assert counts[ROW_PDE] == 3 * n1 * n2
    # two crease columns, one vector condition per duplicated node pair
    assert counts[ROW_CREASE] == 3 * 2 * n2


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_assembled_matrix_stores_no_zeros(name):
    # the 3x3 blocks of assembly hold zeros that every product would pay for
    system = assemble_system(build_grid(builtin_chart(name), 12))
    A = system.matrix
    assert A.nnz > 0 and np.all(A.data != 0)
    assert sum(system.row_counts().values()) == A.shape[0]


def test_constant_rotation_is_exact():
    grid = build_grid(builtin_chart("eggbox"), 16)
    system = assemble_system(grid)
    v = np.concatenate([np.tile([0.2, -1.0, 0.7], grid.nnodes),
                        np.zeros(6)])
    resid = np.linalg.norm(system.matrix @ v)
    assert resid <= 1e-12 * system.sigma_max() * np.linalg.norm(v)


def _dense_spectrum(system, vectors=True):
    """sigma/sigma_max ascending (zeros for missing rows), from a dense SVD
    of the operator, and with ``vectors`` the matching right singular
    vectors as columns."""
    A = system.matrix.toarray()
    if vectors:
        _, s, Vt = la.svd(A, full_matrices=A.shape[0] < A.shape[1])
    else:
        s = la.svd(A, compute_uv=False)
    s = np.concatenate([s, np.zeros(A.shape[1] - s.size)])
    order = np.argsort(s)
    rel = s[order] / s.max()
    return (rel, Vt[order].T) if vectors else rel


def _exact_kernel(system):
    """The right singular vectors V_k of A with sigma <= 1e-6 sigma_max, as
    columns, and a bound on the largest such sigma over sigma_max.

    G = A^T A is formed densely and its eigenpairs under 1e-11 lambda_max
    come from LAPACK.  Each must sit under 1e-13 lambda_max, so rounding in
    G cannot move one across sigma = 1e-6 sigma_max (lambda = 1e-12
    lambda_max) and k is exact.  G cannot resolve sigma below about 1e-8
    sigma_max, so the bound is ||A V_k||_2 >= sigma_k (Courant-Fischer),
    with A applied directly.
    """
    A = system.matrix
    G = (A.T @ A).toarray()
    n = G.shape[0]
    lmax = la.eigh(G, eigvals_only=True, subset_by_index=[n - 1, n - 1])[0]
    lam, V = la.eigh(G, subset_by_value=[-np.inf, 1e-11 * lmax])
    assert np.all(lam <= 1e-13 * lmax), lam / lmax
    return V, la.norm(A @ V, 2) / np.sqrt(lmax)


def test_plane_exact_kernel_is_six_dimensional():
    # the operator kernel proper: 3 constants + 3 growth modes, all at
    # machine-precision sigma; everything else sits orders above 1e-6
    system = assemble_system(build_grid(builtin_chart("plane"), 32))
    V, bound = _exact_kernel(system)
    k = V.shape[1]
    assert k == 6
    assert bound <= 1e-9
    # the kernel carries exactly three independent growth directions
    svals = np.linalg.svd(V[system.w_size:, :k], compute_uv=False)
    assert np.sum(svals > 1e-8 * svals[0]) == 3


def test_eggbox_exact_kernel_contains_catalogue_and_folds():
    # 3 constants + 1 membrane + 2 bending, plus exact per-panel fold
    # mechanisms admitted by the crease conditions; all at machine sigma
    system = assemble_system(build_grid(builtin_chart("eggbox"), 32))
    V, bound = _exact_kernel(system)
    k = V.shape[1]
    assert k >= 6
    assert bound <= 1e-9


def test_plane_near_kernel_is_a_continuum_slice():
    # sub-threshold strain-free oscillations accumulate under the auto cap;
    # the policy must flag that rather than pick an arbitrary rank
    system = assemble_system(build_grid(builtin_chart("plane"), 16))
    rel = _dense_spectrum(system, vectors=False)
    count, _, _, ambiguous = cut(rel, system.grid.h_max, 1e-12)
    assert ambiguous or count >= 6


def test_threshold_policy_coercion():
    assert parse_threshold("auto") is None
    assert parse_threshold(1e-5) == 1e-5


@pytest.mark.parametrize("tau", [float("nan"), float("inf"), 0.0, -1.0,
                                 1.0, 2.0])
def test_threshold_policy_rejects_tau_outside_unit_interval(tau):
    with pytest.raises(ValueError, match="threshold"):
        parse_threshold(tau)
    with pytest.raises(ValueError, match="threshold"):
        parse_threshold(str(tau))


# symmetry blocks per chart, the same at 16, 32 and 64: 2^m for the m
# involutions kept from each open axis's breakpoint and arc-midpoint
# reversals and the glides.  Closed axes give none
BLOCKS = {"plane": 1, "corrugation": 4, "eggbox": 4, "eggbox-hybrid": 8,
          "miura": 8, "translation": 8, "mirrorless": 2,
          "double-sinusoid": 1}


# a sinusoid's axis is closed, and this piecewise-quadratic profile is even
# only about its arc midpoints, so the grid keeps one involution, which
# fixes the nodes at those midpoints
MIRRORLESS = {"family": "double-corrugation",
              "profiles": [{"kind": "sinusoidal", "amplitude": 0.5},
                           {"kind": "piecewise-quadratic", "amplitude": 0.7}]}

# two closed axes: no involution, and H itself is the one block
DOUBLE_SINUSOID = {"family": "double-corrugation",
                   "profiles": [{"kind": "sinusoidal", "amplitude": 0.5},
                                {"kind": "sinusoidal", "amplitude": 0.7}]}

CONFIGS = {"mirrorless": MIRRORLESS, "double-sinusoid": DOUBLE_SINUSOID}


def _chart(name):
    return (chart_from_config(CONFIGS[name]) if name in CONFIGS
            else builtin_chart(name))


def _rotation_block(system):
    """H = A_w^T A_w + eps I, as strain_forms builds it."""
    Aw = system.matrix.tocsr()[:, :system.w_size]
    eps = solver.EPS_REL * system.sigma_max() ** 2
    return (Aw.T @ Aw + eps * sp.identity(system.w_size)).tocsc()


def _spy_factors(monkeypatch):
    """Patch the banded Cholesky route of _block_minimizers.  Returns a dict
    of lists, one entry per factorization: "blocks" the block K that
    _block_minimizers was given, "bands" a copy of the band that
    la.cholesky_banded factored, "alive" how many factors were alive right
    after it was made (weakref.finalize on the factor array itself), and
    "solves" the column count of each triangular solve (lapack.dtbtrs) with
    it.  A solve with no column is refused before LAPACK sees it."""
    block_minimizers = solver._block_minimizers
    cholesky, dtbtrs = la.cholesky_banded, lapack.dtbtrs
    rec = {"blocks": [], "bands": [], "alive": [], "solves": []}
    live, latest = [0], [lambda: None]

    def freed():
        live[0] -= 1

    def spy_block(K, b, C):
        rec["blocks"].append(K)
        return block_minimizers(K, b, C)

    def spy_cholesky(ab, *args, **kwargs):
        rec["bands"].append(ab.copy())
        factor = cholesky(ab, *args, **kwargs)
        weakref.finalize(factor, freed)
        live[0] += 1
        rec["alive"].append(live[0])
        rec["solves"].append([])
        latest[0] = weakref.ref(factor)
        return factor

    def spy_solve(ab, b, *args, **kwargs):
        assert ab is latest[0]()
        assert b.shape[1] > 0
        rec["solves"][-1].append(b.shape[1])
        return dtbtrs(ab, b, *args, **kwargs)

    monkeypatch.setattr(solver, "_block_minimizers", spy_block)
    monkeypatch.setattr(la, "cholesky_banded", spy_cholesky)
    monkeypatch.setattr(lapack, "dtbtrs", spy_solve)
    return rec


def _lower_band(K):
    """LAPACK's lower banded storage of tril(K), from its dense diagonals:
    row d holds the d-th subdiagonal, zero past its end, down to the lowest
    subdiagonal with a nonzero."""
    A = np.tril(K.toarray())
    i, j = np.nonzero(A)
    n = A.shape[0]
    band = np.zeros(((i - j).max() + 1, n))
    for d in range(band.shape[0]):
        band[d, :n - d] = np.diagonal(A, -d)
    return band


@pytest.mark.parametrize("name", ["eggbox", "plane"])
def test_effective_spaces_factors_once(name, monkeypatch):
    # one factorization per symmetry block, each of an exactly symmetric
    # block of the rotation-sample matrix alone, gives the growth and the
    # membrane levels, the cuts and the representatives
    system = assemble_system(build_grid(builtin_chart(name), 16))
    system.sigma_max()
    Qs = [Q for Q, _ in solver._symmetry_blocks(
        _rotation_block(system), system.grid, membrane_row_map(system.grid))]
    rec = _spy_factors(monkeypatch)
    effective_spaces(system, system.grid.h_max)
    assert len(rec["bands"]) == len(rec["blocks"]) == len(Qs) == BLOCKS[name]
    for K, band, Q in zip(rec["blocks"], rec["bands"], Qs):
        assert K.shape == (Q.shape[1],) * 2
        assert abs(K - K.T).max() == 0.0
        assert_array_equal(band, _lower_band(K))


def _kept(system):
    """The involutions _group keeps on the system's H and membrane rows."""
    return solver._group(_rotation_block(system), system.grid,
                         membrane_row_map(system.grid))[0]


def _node_orbits(kept, nnodes):
    """Each node's orbit label under the group the kept involutions
    generate, as connected components of the graph node ~ its images."""
    nodes = np.arange(nnodes)
    images = [k.perm[::3] // 3 for k in kept]
    G = sp.csr_matrix((np.ones(nnodes * len(kept)),
                       (np.tile(nodes, len(kept)),
                        np.concatenate(images or [np.zeros(0, int)]))),
                      shape=(nnodes, nnodes))
    return sp.csgraph.connected_components(G, directed=False)[1]


def _block_factorizations(system, monkeypatch):
    """(H, L, the _spy_factors record) from strain_forms."""
    calls = []
    ridge = solver._ridge_minimizers

    def spy_ridge(H, Gwg, L, grid):
        calls.append((H, L))
        return ridge(H, Gwg, L, grid)

    monkeypatch.setattr(solver, "_ridge_minimizers", spy_ridge)
    rec = _spy_factors(monkeypatch)
    strain_forms(system, membrane_row_map(system.grid))
    (H, L), = calls
    return H, L, rec


def _assert_permuted(Q, B, H):
    """Q is a permutation matrix and B is exactly Q^T H Q."""
    assert np.all(Q.data == 1.0)
    assert_array_equal(Q.getnnz(axis=0), 1)
    assert_array_equal(Q.getnnz(axis=1), 1)
    assert abs(B - Q.T @ H @ Q).max() == 0.0


@pytest.mark.parametrize("name", ["eggbox", "miura", "plane", "mirrorless"])
def test_lu_keeps_each_nodes_unknowns_together(name, monkeypatch):
    # each Cholesky factor is of its block H_k as _symmetry_blocks yields
    # it, already in band order: the band it factors is exactly tril(H_k),
    # and each column of H_k is one component of one node orbit, the
    # columns of an orbit together and in component order
    system = assemble_system(build_grid(_chart(name), 16))
    H, L, rec = _block_factorizations(system, monkeypatch)
    blocks = list(solver._symmetry_blocks(H, system.grid, L))
    assert len(rec["bands"]) == len(blocks) == BLOCKS[name]
    label = _node_orbits(_kept(system), system.grid.nnodes)
    seen = np.zeros(system.w_size, dtype=int)
    for (Q, B), K, band in zip(blocks, rec["blocks"], rec["bands"]):
        assert abs(K - B).max() == 0.0
        assert_array_equal(band, _lower_band(B))
        assert abs(Q.T @ H @ Q - B).max() <= 1e-14 * abs(H).max()
        Q = Q.tocsc(copy=True)
        Q.sort_indices()
        size = np.diff(Q.indptr)
        z = [Q.indices[a:b] for a, b in zip(Q.indptr[:-1], Q.indptr[1:])]
        comp = np.array([u[0] % 3 for u in z])
        orbit = np.array([label[u[0] // 3] for u in z])
        for u, c, o in zip(z, comp, orbit):
            assert_array_equal(u % 3, c)
            assert_array_equal(np.sort(u // 3), np.flatnonzero(label == o))
        starts = np.flatnonzero(np.diff(orbit, prepend=-1))
        assert len(set(orbit)) == starts.size
        assert np.all(np.diff(comp)[np.diff(orbit) == 0] > 0)
        # entries +-1/sqrt|orbit|, and each column's least unknown, its
        # orbit's representative, holds the + sign
        assert_array_equal(abs(Q.data), np.repeat(1.0 / np.sqrt(size), size))
        assert_array_equal(Q.data[Q.indptr[:-1]], 1.0 / np.sqrt(size))
        seen[Q.indices] += 1
    # the classes together take every unknown; one with a fixed node can
    # take it in several classes, in different components
    assert seen.min() >= 1


@pytest.mark.parametrize("name", ["eggbox", "miura", "plane"])
def test_node_order_runs_once_per_analysis(name, monkeypatch):
    # one band order serves every symmetry block, and each block reaches
    # its factorization as _symmetry_blocks yielded it: not reordered,
    # not copied
    system = assemble_system(build_grid(builtin_chart(name), 16))
    orders, yielded, factored = [], [], []
    node_order, symmetry_blocks = solver._node_order, solver._symmetry_blocks
    block_minimizers = solver._block_minimizers

    def spy_order(N):
        orders.append(N.shape)
        return node_order(N)

    def spy_blocks(*args):
        for Q, K in symmetry_blocks(*args):
            yielded.append(K)
            yield Q, K

    def spy_block(K, b, C):
        factored.append(K)
        return block_minimizers(K, b, C)

    monkeypatch.setattr(solver, "_node_order", spy_order)
    monkeypatch.setattr(solver, "_symmetry_blocks", spy_blocks)
    monkeypatch.setattr(solver, "_block_minimizers", spy_block)
    strain_forms(system, membrane_row_map(system.grid))
    orbits = _node_orbits(_kept(system), system.grid.nnodes).max() + 1
    assert orders == [(orbits, orbits)]
    assert len(factored) == BLOCKS[name]
    assert all(K is Kf for K, Kf in zip(yielded, factored))


def test_node_order_fill_on_eggbox(monkeypatch):
    # the factor is the band: half-bandwidth 199 in each of eggbox@32's 4
    # symmetry blocks, and at most 152 in eggbox-hybrid@32's and
    # translation@32's 8 blocks and 196 in miura@32's 8 (381 in each of
    # their 2 blocks with one breakpoint reversal per axis, 1683 in a
    # row-major node order)
    for name, blocks, width in (("eggbox", 4, 199), ("eggbox-hybrid", 8, 152),
                                ("translation", 8, 152), ("miura", 8, 196)):
        system = assemble_system(build_grid(builtin_chart(name), 32))
        _, _, rec = _block_factorizations(system, monkeypatch)
        assert len(rec["bands"]) == blocks
        for band in rec["bands"]:
            assert band.shape[0] - 1 <= 1.02 * width
        monkeypatch.undo()


@pytest.mark.parametrize("name", BUILTIN_NAMES + tuple(CONFIGS))
def test_mirror_is_a_signed_involution_that_keeps_components(name):
    # every kept involution P: P P = I with signs that square to 1, each
    # unknown's image is the same component of another node or of itself,
    # P^T H P = H, its row signs s give L P = diag(s) L, and the kept
    # involutions commute: what _commutes and the blocks assume
    system = assemble_system(build_grid(_chart(name), 16))
    H, L = _rotation_block(system), membrane_row_map(system.grid)
    z = np.arange(system.w_size)
    kept = _kept(system)
    for k in kept:
        perm, sign = k.perm, k.sign
        assert_array_equal(perm[perm], z)
        assert_array_equal(sign * sign[perm], 1.0)
        assert_array_equal(perm % 3, z % 3)
        assert (_commutes_two_gathers(H, perm, sign)
                <= solver.MIRROR_RTOL * abs(H).max())
        assert set(k.rows) <= {1.0, -1.0}
        assert_allclose(L[:, perm] * sign, k.rows[:, None] * L, rtol=0,
                        atol=solver.MIRROR_RTOL * abs(L).max())
        for j in kept:
            assert_array_equal(perm[j.perm], j.perm[perm])
            assert_array_equal(sign * j.sign[perm], j.sign * sign[j.perm])
    assert 2 ** len(kept) == BLOCKS[name]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_symmetry_blocks_per_builtin(name):
    system = assemble_system(build_grid(builtin_chart(name), 16))
    blocks = list(solver._symmetry_blocks(_rotation_block(system),
                                          system.grid,
                                          membrane_row_map(system.grid)))
    assert len(blocks) == BLOCKS[name]


@pytest.mark.parametrize("name", BUILTIN_NAMES + tuple(CONFIGS))
def test_involutions_kept_at_32(name):
    # the group does not depend on the resolution: 32 keeps what 16 keeps
    system = assemble_system(build_grid(_chart(name), 32))
    assert 2 ** len(_kept(system)) == BLOCKS[name]


@pytest.mark.parametrize("name", ["eggbox", "miura"])
def test_symmetry_blocks_split_h_orthogonally(name):
    # the bases together are orthogonal, and H maps each one's span into
    # itself: the cross blocks are rounding
    system = assemble_system(build_grid(builtin_chart(name), 16))
    H = _rotation_block(system)
    Qs = [Q for Q, _ in solver._symmetry_blocks(
        H, system.grid, membrane_row_map(system.grid))]
    eye = sum(Q @ Q.T for Q in Qs) - sp.identity(system.w_size)
    assert abs(eye).max() <= 1e-15
    for a, Qa in enumerate(Qs):
        for Qb in Qs[a + 1:]:
            assert abs(Qa.T @ H @ Qb).max() <= 1e-14 * abs(H).max()


@pytest.mark.parametrize("res", [12, 16, 33])
@pytest.mark.parametrize("name", BUILTIN_NAMES + tuple(CONFIGS))
def test_symmetry_blocks_reassemble_h(name, res):
    # sum_k Q_k H_k Q_k^T = H and sum_k Q_k Q_k^T = I to rounding, whatever
    # the orbit sizes and however many nodes the involutions fix
    system = assemble_system(build_grid(_chart(name), res))
    H = _rotation_block(system)
    blocks = list(solver._symmetry_blocks(
        H, system.grid, membrane_row_map(system.grid)))
    assert len(blocks) == BLOCKS[name]
    assert (abs(sum(Q @ K @ Q.T for Q, K in blocks) - H).max()
            <= 1e-15 * abs(H).max())
    eye = sum(Q @ Q.T for Q, _ in blocks) - sp.identity(system.w_size)
    assert abs(eye).max() <= 1e-15


def test_chart_without_mirrors_factors_once_in_node_order(monkeypatch):
    # one factor of H itself, in the band order of reverse Cuthill-McKee on
    # H's graph of nodes (i ~ j when H[3i:3i+3, 3j:3j+3] is nonzero), each
    # node's 3 unknowns together and in component order
    system = assemble_system(build_grid(_chart("double-sinusoid"), 16))
    H, L, rec = _block_factorizations(system, monkeypatch)
    (Q, B), = solver._symmetry_blocks(H, system.grid, L)
    _assert_permuted(Q, B, H)
    n = system.grid.nnodes
    N = sp.csc_matrix((np.ones(H.nnz), H.indices // 3, H.indptr[::3].copy()),
                      shape=(n, n))
    N.sum_duplicates()
    order = sp.csgraph.reverse_cuthill_mckee(N, symmetric_mode=True)
    p = (3 * order[:, None] + np.arange(3)).ravel()
    assert_array_equal(Q.tocsc().indices, p)
    (K,), (band,) = rec["blocks"], rec["bands"]
    assert abs(K - H[p][:, p]).max() == 0.0
    assert_array_equal(band, _lower_band(H[p][:, p]))


@pytest.mark.parametrize("name, direction, kept", [("miura", 1, 1),
                                                    ("eggbox", 0, 2)])
def test_broken_symmetry_is_refused(name, direction, kept):
    # one crease row rescaled, of a crease across xi1 (direction 0) or xi2:
    # the grid and its partials are still mirror images, but H no longer
    # commutes with an involution that maps the row onto another.  On
    # eggbox the mirror across that crease maps the row onto itself and
    # holds; each of miura's three involutions moves the row, and it falls
    # back to one block, H itself.
    system = assemble_system(build_grid(builtin_chart(name), 16))
    grid = system.grid
    A = system.matrix.tocsr(copy=True)
    row = system.row_counts()[ROW_PDE]
    if direction == 1:
        row += 3 * len(grid.axis1.pairs) * grid.shape[1]
    A.data[A.indptr[row]:A.indptr[row + 1]] *= 1.5
    H = _rotation_block(replace(system, matrix=A))
    blocks = list(solver._symmetry_blocks(H, grid, membrane_row_map(grid)))
    assert len(blocks) == kept
    if kept == 1:
        (Q, B), = blocks
        _assert_permuted(Q, B, H)


def _commutes_two_gathers(H, perm, sign):
    """max |P^T H P - H| entrywise, P^T H P gathered by rows and columns:
    sign[i] sign[j] H[perm[i], perm[j]] at (i, j)."""
    moved = H[perm][:, perm]
    cols = np.repeat(np.arange(H.shape[1]), np.diff(moved.indptr))
    moved.data *= sign[moved.indices] * sign[cols]
    return abs(moved - H).max()


@pytest.mark.parametrize("name", ["eggbox", "miura"])
def test_commutes_reads_the_two_gather_gap(name, monkeypatch):
    # one gather of H P gives the same number as P^T H P - H: _commutes
    # flips exactly where MIRROR_RTOL crosses the two-gather gap, on the
    # surface's own H and on one whose symmetric perturbation breaks every
    # kept involution
    system = assemble_system(build_grid(builtin_chart(name), 16))
    H = _rotation_block(system)
    E = sp.random(H.shape[0], H.shape[0], density=1e-3, random_state=3,
                  format="csc")
    kept = _kept(system)
    for k in kept:
        perm, sign = k.perm, k.sign
        for M, holds in ((H, True), ((H + E + E.T).tocsc(), False)):
            assert solver._commutes(M, perm, sign) == holds
            gap = _commutes_two_gathers(M, perm, sign) / abs(M).max()
            assert gap > 0 and (gap <= solver.MIRROR_RTOL) == holds
            for factor, expect in ((1 + 1e-12, True), (1 - 1e-12, False)):
                monkeypatch.setattr(solver, "MIRROR_RTOL", gap * factor)
                assert solver._commutes(M, perm, sign) == expect
            monkeypatch.undo()
    assert 2 ** len(kept) == BLOCKS[name]


@pytest.mark.parametrize("name", ["eggbox", "miura"])
def test_each_block_factor_is_freed_before_the_next(name, monkeypatch):
    # one factor alive at a time: each block is factored, solved and
    # refined, and its factor freed before the next block's is made
    system = assemble_system(build_grid(builtin_chart(name), 16))
    rec = _spy_factors(monkeypatch)
    strain_forms(system, membrane_row_map(system.grid))
    assert rec["alive"] == [1] * BLOCKS[name]


def test_block_solves_take_only_their_columns(monkeypatch):
    # eggbox@32: of the 6 growth and 3 membrane columns, each growth column
    # reaches the 2 blocks of its parity under the mirror of its own axis
    # and each membrane coordinate 1 block, so a pass solves 15
    # block-columns, not 4 x 9.  A pass is a forward and a back solve with
    # the block's factor: one for the solution, one for its refinement step
    system = assemble_system(build_grid(builtin_chart("eggbox"), 32))
    rec = _spy_factors(monkeypatch)
    strain_forms(system, membrane_row_map(system.grid))
    solves = rec["solves"]
    assert len(solves) == 4
    for cols in solves:
        assert len(cols) == 4 and len(set(cols)) == 1
    assert sum(cols[0] for cols in solves) == 15


@pytest.mark.parametrize("name", ["eggbox", "miura", "plane", "corrugation"])
def test_no_triangular_solve_takes_an_empty_right_hand_side(name,
                                                            monkeypatch):
    # dtbtrs on an (n, 0) right-hand side corrupts the heap (scipy 1.17.1):
    # the spy refuses such a call before LAPACK sees it.  Blocks with growth
    # columns and no membrane coordinate, or the reverse, solve only what
    # they have
    system = assemble_system(build_grid(builtin_chart(name), 16))
    rec = _spy_factors(monkeypatch)
    strain_forms(system, membrane_row_map(system.grid))
    assert len(rec["solves"]) == BLOCKS[name]
    assert all(len(cols) == 4 for cols in rec["solves"])


def test_block_without_growth_or_membrane_columns_solves(monkeypatch):
    # g = 0 with r = 2, and r = 0 with g = 1, called directly on a small band
    n = 6
    K = sp.diags([-1.0, 3.0, -1.0], [-1, 0, 1], shape=(n, n), format="csc")
    rows = np.vstack([np.arange(1.0, n + 1), np.ones(n)])
    rec = _spy_factors(monkeypatch)
    for b, C, shapes in ((np.zeros((n, 0)), rows, ((n, 0), (n, 2))),
                         (np.ones((n, 1)), np.zeros((0, n)), ((n, 1), (n, 0)))):
        out = solver._block_minimizers(K, b, C)
        assert tuple(a.shape for a in out) == shapes
        assert all(np.isfinite(a).all() for a in out)
        assert_allclose(C @ out[1], np.eye(C.shape[0]), rtol=0, atol=1e-14)
    assert rec["solves"] == [[2] * 4, [1] * 4]


@pytest.mark.parametrize("e, holds", [(1e-9, False), (1e-6, True)])
def test_membrane_rows_near_dependence_bracket_the_rcond_guard(e, holds):
    # K = 2I and C = [[1, 0, 0], [1, e, 0]]: R of the thin QR of L^-1 C^T has
    # rcond about e / 2, against the guard's sqrt(machine eps) = 1.5e-8
    K = sp.csc_matrix(2.0 * np.eye(3))
    C = np.array([[1.0, 0.0, 0.0], [1.0, e, 0.0]])
    if not holds:
        with pytest.raises(SolverError, match="rcond"):
            solver._block_minimizers(K, np.ones((3, 1)), C)
        return
    X, Y = solver._block_minimizers(K, np.ones((3, 1)), C)
    assert_allclose(X, 0.5 * np.ones((3, 1)), rtol=0, atol=1e-15)
    assert_allclose(C @ Y, np.eye(2), rtol=0, atol=1e-12)


def test_indefinite_block_is_refused():
    # a symmetric block with a negative pivot has no Cholesky factor: the
    # solve refuses it instead of returning fields from a broken factor
    K = sp.csc_matrix(np.array([[2.0, 1.0, 0.0],
                                [1.0, -1.0, 1.0],
                                [0.0, 1.0, 2.0]]))
    with pytest.raises(SolverError, match="not positive definite"):
        solver._block_minimizers(K, np.ones((3, 1)), np.zeros((0, 3)))


@pytest.mark.parametrize("name", ["eggbox", "miura", "eggbox-hybrid"])
def test_membrane_coordinates_split_by_parity(name):
    # U_k spans the range of L Q_k; the U_k are orthonormal, their ranks
    # add up to r, the rank of L, and O = [U_1 ... U_K] is orthogonal
    system = assemble_system(build_grid(builtin_chart(name), 16))
    H, L = _rotation_block(system), membrane_row_map(system.grid)
    scale = np.linalg.norm(L, axis=1).max()
    Us = [solver._parity_range((Q.T @ L.T).T, scale)
          for Q, _ in solver._symmetry_blocks(H, system.grid, L)]
    assert len(Us) == BLOCKS[name]
    for U in Us:
        assert_allclose(U.T @ U, np.eye(U.shape[1]), rtol=0, atol=1e-14)
    O = np.hstack(Us)
    assert O.shape == (L.shape[0], np.linalg.matrix_rank(L)) == (3, 3)
    assert_allclose(O.T @ O, np.eye(O.shape[1]), rtol=0, atol=1e-14)


@pytest.mark.parametrize("name", ["eggbox", "miura"])
def test_mirror_that_does_not_split_membrane_rows_is_refused(name,
                                                              monkeypatch):
    # one node's weights rescaled in the membrane row map: H still commutes
    # with every mirror, but no mirror maps the membrane rows onto their
    # own span, so each is dropped and H is factored as one block
    system = assemble_system(build_grid(builtin_chart(name), 16))
    L = membrane_row_map(system.grid)
    L[:, 3 * 40:3 * 41] *= 1.5
    H = _rotation_block(system)
    assert len(list(solver._symmetry_blocks(
        H, system.grid, membrane_row_map(system.grid)))) == BLOCKS[name]
    (Q, B), = solver._symmetry_blocks(H, system.grid, L)
    _assert_permuted(Q, B, H)
    # the membrane minimizers still solve O^T L w = e_i, O the returned
    # basis; a lone rescaled node
    # lets near-strain-free fields reach one row, so the Schur complement
    # holds less precision than on the surface itself (1e-9 to 3e-8 here,
    # in one block or in the mirror blocks), where a kept mirror would
    # leave errors of order 1
    rec = _spy_factors(monkeypatch)
    _, membrane = strain_forms(system, L)
    assert len(rec["bands"]) == 1 and rec["alive"] == [1]
    O, Wm = membrane.basis, membrane.minimizers[:system.w_size]
    assert O.shape == (3, 3)
    assert_allclose(O.T @ L @ Wm, np.eye(3), rtol=0, atol=1e-6)


@pytest.mark.parametrize("name", ["eggbox", "miura", "plane", "eggbox-hybrid",
                                  "translation", "corrugation", "mirrorless",
                                  "double-sinusoid"])
def test_ridge_minimizers_match_dense_kkt(name, monkeypatch):
    # the factored, refined solves against dense ones, H = A_w^T A_w + eps I:
    # growth minimizers are -H^-1 A_w^T A_g with w free of the membrane
    # constraint, membrane ones solve [[H, Lr^T], [Lr, 0]] with growth 0,
    # Lr = O^T L with O the membrane space's basis, as returned.
    # Corrugation runs on the reduced-direction system an analysis solves
    if name == "corrugation":
        system, _ = _analysis_system(_chart(name), [16, 16])
    else:
        system = assemble_system(build_grid(_chart(name), 16))
    calls = []
    ridge = solver._ridge_minimizers

    def spy(H, Gwg, L, grid):
        W, O = ridge(H, Gwg, L, grid)
        calls.append((H, Gwg, O, O.T @ L))
        return W, O

    monkeypatch.setattr(solver, "_ridge_minimizers", spy)
    growth, membrane = strain_forms(system, membrane_row_map(system.grid))
    (H, Gwg, O, Lr), = calls
    assert membrane.basis is O
    ws, r = H.shape[0], Lr.shape[0]
    H = H.toarray()
    K = np.block([[H, Lr.T], [Lr, np.zeros((r, r))]])
    b = np.zeros((ws + r, r))
    b[ws:] = np.eye(r)
    refs = (np.vstack([la.solve(H, -Gwg), np.eye(6)]),
            np.vstack([la.solve(K, b)[:ws], np.zeros((6, r))]))
    A = system.matrix
    for space, Y_ref in zip((growth, membrane), refs):
        Y = space.minimizers
        assert_allclose(Y[ws:], Y_ref[ws:], rtol=0, atol=0)
        s, s_ref = la.svdvals(A @ Y), la.svdvals(A @ Y_ref)
        assert_allclose(s, s_ref, rtol=0, atol=1e-9 * s_ref.max(initial=0))
    W, Wm = growth.minimizers[:ws], membrane.minimizers[:ws]
    assert_allclose(Lr @ Wm, np.eye(r), rtol=0, atol=1e-10)
    assert np.linalg.norm(Gwg + H @ W) <= 1e-10 * np.linalg.norm(Gwg)
    lam = la.lstsq(Lr.T, -H @ Wm)[0]
    assert np.linalg.norm(H @ Wm + Lr.T @ lam) <= 1e-10 * np.sqrt(r)


def _growth_levels_own_kkt(system, eps_rel=1e-13):
    """Growth-form levels from a KKT system bordered by the 6 growth rows
    alone, an independent route to what effective_spaces reports."""
    A = system.matrix.tocsr()
    N = A.shape[1]
    smax = system.sigma_max()
    C = sp.hstack([sp.csr_matrix((6, system.w_size)), sp.identity(6)])
    K = sp.bmat([[A.T @ A + eps_rel * smax ** 2 * sp.identity(N), C.T],
                 [C, None]], format="csc")
    lu = spla.splu(K)
    b = np.zeros((N + 6, 6))
    b[N:] = np.eye(6)
    z = lu.solve(b)
    for _ in range(2):
        z = z + lu.solve(b - K @ z)
    R = A @ z[:N]
    return np.sqrt(np.clip(la.eigvalsh(R.T @ R), 0.0, None)) / smax


@pytest.mark.parametrize("name", ["eggbox", "miura"])
def test_growth_levels_match_growth_only_kkt(name):
    system = assemble_system(build_grid(builtin_chart(name), 16))
    spaces = effective_spaces(system, system.grid.h_max)
    ref = _growth_levels_own_kkt(system)
    count, cap, _, ambiguous = cut(ref, system.grid.h_max, 1e-15)
    assert (count, ambiguous) == (spaces.chi_cut.count,
                                  spaces.chi_cut.ambiguous)
    assert spaces.dims[1] == count
    above = ref > cap
    assert np.count_nonzero(above) == 6 - count
    assert_allclose(spaces.chi_values[above], ref[above], rtol=1e-9)


def _no_convergence(*args, **kwargs):
    raise spla.ArpackNoConvergence("no convergence", np.zeros(0),
                                    np.zeros((0, 0)))


@pytest.fixture(name="large_system")
def large_system_fixture():
    return assemble_system(build_grid(builtin_chart("plane"), 24))


def _dense_sigma_max(system):
    """The root of the largest eigenvalue of A^T A, from a dense eigh."""
    A = system.matrix
    G = (A.T @ A).toarray()
    n = G.shape[0]
    return np.sqrt(la.eigh(G, eigvals_only=True,
                           subset_by_index=[n - 1, n - 1])[0])


def test_sigma_max_retries_arpack_once(large_system, monkeypatch):
    eigsh = spla.eigsh
    calls = []

    def flaky(*args, **kwargs):
        calls.append(kwargs)
        if len(calls) == 1:
            _no_convergence()
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", flaky)
    creased = assemble_system(build_grid(builtin_chart("eggbox"), 12))
    for system in (large_system, creased):
        calls.clear()
        assert_allclose(system.sigma_max(), _dense_sigma_max(system),
                        rtol=4e-15)
        assert len(calls) == 2
        assert "ncv" not in calls[0] and "maxiter" not in calls[0]
        assert {k: calls[1][k] for k in ARPACK_RETRY} == ARPACK_RETRY


def test_sigma_max_is_repeatable_at_arpack_sizes(large_system, monkeypatch):
    # every ARPACK call, the retry included, starts from the same vector, so
    # on either route sigma_max does not move in its last bits from one call
    # to the next.  The retry's larger ncv converges past the first try's
    # sqrt(eps) stop, so the two routes agree to rounding, not to the bit
    eigsh = spla.eigsh
    starts = []

    def spy_on(fail_first):
        def spy(*args, **kwargs):
            starts.append(np.array(kwargs["v0"]))
            if fail_first and "ncv" not in kwargs:
                _no_convergence()
            return eigsh(*args, **kwargs)
        return spy

    creased = assemble_system(build_grid(builtin_chart("eggbox"), 12))
    for system in (large_system, creased):
        expect = _dense_sigma_max(system)
        routes = []
        starts.clear()
        # tries so far: one per call, then two per call
        for fail_first, tries in ((False, 4), (True, 12)):
            monkeypatch.setattr(spla, "eigsh", spy_on(fail_first))
            values = {replace(system, _sigma_max=None).sigma_max()
                      for _ in range(4)}
            assert len(starts) == tries
            assert all(np.array_equal(v, starts[0]) for v in starts)
            assert len(values) == 1
            routes.append(values.pop())
            assert_allclose(routes[-1], expect, rtol=4e-15)
        assert_allclose(routes[0], routes[1], rtol=4e-15)


def test_sigma_max_of_a_wide_matrix_runs_on_its_smaller_side(large_system,
                                                           monkeypatch):
    eigsh = spla.eigsh
    shapes = []

    def spy(op, *args, **kwargs):
        shapes.append(op.shape)
        return eigsh(op, *args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", spy)
    A = large_system.matrix
    tall = solver._largest_singular_value(A)
    wide = solver._largest_singular_value(A.T.tocsr())
    assert shapes == [(A.shape[1], A.shape[1])] * 2
    assert_allclose(wide, tall, rtol=4e-15)


def test_sigma_max_raises_instead_of_dense_svd(large_system, monkeypatch):
    def dense(*args, **kwargs):
        raise AssertionError("dense SVD fallback")

    monkeypatch.setattr(spla, "eigsh", _no_convergence)
    monkeypatch.setattr(la, "svdvals", dense)
    with pytest.raises(SolverError, match="ARPACK"):
        large_system.sigma_max()


def test_sigma_max_does_not_swallow_other_errors(large_system, monkeypatch):
    def broken(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(spla, "eigsh", broken)
    with pytest.raises(MemoryError):
        large_system.sigma_max()


def test_kernel_distance_separates_members_from_probes():
    am = analytic_mode("eggbox-membrane")
    grid = build_grid(am.chart, 32)
    system = assemble_system(grid)
    mode = sample_rotation(am, grid)
    inside = float(np.atleast_1d(
        kernel_distance(system, mode.vector(grid), threshold_rel=1e-3))[0])
    rng = np.random.default_rng(7)
    probe = rng.normal(size=system.matrix.shape[1])
    outside = float(np.atleast_1d(
        kernel_distance(system, probe, threshold_rel=1e-3))[0])
    assert inside <= 1e-6
    assert outside >= 0.5


@pytest.mark.parametrize("vectors, tau", [
    ("zero-row", 1e-3), ("nan", 1e-3),
    ("unit", 0.0), ("unit", -1.0), ("unit", 1.0), ("unit", np.nan)])
def test_kernel_distance_refuses_what_it_cannot_bound(vectors, tau):
    system = assemble_system(build_grid(builtin_chart("plane"), 8))
    v = np.ones(system.nunknowns)
    vs = {"zero-row": np.array([np.zeros_like(v), v]),
          "nan": np.full_like(v, np.nan), "unit": v}[vectors]
    message = "threshold_rel" if vectors == "unit" else "finite nonzero"
    with pytest.raises(ValueError, match=message):
        kernel_distance(system, vs, threshold_rel=tau)


def test_kernel_distance_bounds_the_exact_distance():
    # the residual bound sits above the exact distance to the sub-threshold
    # right singular subspace, for a member, an outsider and a mixture
    am = analytic_mode("eggbox-membrane")
    grid = build_grid(am.chart, 8)
    system = assemble_system(grid)
    rel, V = _dense_spectrum(system)
    member = sample_rotation(am, grid).vector(grid)
    probe = np.random.default_rng(7).normal(size=system.nunknowns)
    probe /= np.linalg.norm(probe)
    vs = np.array([member, probe, member + 1e-3 * probe])
    bound = kernel_distance(system, vs, threshold_rel=1e-3)
    unit = vs / np.linalg.norm(vs, axis=1, keepdims=True)
    exact = np.linalg.norm(unit @ V[:, rel > 1e-3], axis=1)
    # 1e-12 is the dense SVD's own rounding
    assert np.all(exact <= bound + 1e-12), (exact, bound)
    assert bound[0] <= 1e-12
    assert exact[1] >= 0.5


# -- references for the recovery tests ------------------------------------

def display_derivative(values, grid, direction: int):
    """Second-order derivative of a field sampled on the display lattice.

    The lattice is each axis's chain left open at both ends: a broken axis
    as it is, a closed one with its wrapped first node appended, so its one
    arc spans a full period with one-sided ends.  The field need not be
    periodic.
    """
    v = np.asarray(values, dtype=float)
    axis = grid.axis(direction)
    idx, extra = display_lattice(grid)[direction::2]   # base index, extra m
    r, c, vals, wrap = _stencil(axis.arc_of[idx], axis.spacing[idx],
                                axis.wrap_m[idx] + extra, False, _FIRST)
    D = sp.csr_matrix((vals, (r, c)), shape=(wrap.size, idx.size))
    vt = np.moveaxis(v, direction, 0)
    out = (D @ vt.reshape(vt.shape[0], -1)).reshape(vt.shape)
    return np.moveaxis(out, 0, direction)


def membrane_strain_field(deflection, grid) -> np.ndarray:
    """Per-node symmetric 2x2 strain of a deflection, on the display lattice.

    eps_mn = sym <d_m(xdot), x_n>; an infinitesimal isometry has eps -> 0.
    """
    V = deflection
    d1 = display_derivative(V, grid, 0)
    d2 = display_derivative(V, grid, 1)
    ib, jb, _, _ = display_lattice(grid)
    x1 = grid.x1[np.ix_(ib, jb)]
    x2 = grid.x2[np.ix_(ib, jb)]
    dot = lambda a, b: np.einsum("...k,...k->...", a, b)
    eps = np.empty(V.shape[:2] + (2, 2))
    eps[..., 0, 0] = dot(d1, x1)
    eps[..., 1, 1] = dot(d2, x2)
    eps[..., 0, 1] = eps[..., 1, 0] = 0.5 * (dot(d1, x2) + dot(d2, x1))
    return eps


def recover_deflection_by_columns(mode, grid) -> np.ndarray:
    """recover_deflection along the transposed spanning tree: the first row,
    then each column."""
    t1, t2 = grid.chart.period
    P = display_positions(grid)
    w = display_cover(grid, mode.w, t1 * mode.W1, t2 * mode.W2)
    d0 = np.cross(0.5 * (w[1:] + w[:-1]), P[1:] - P[:-1])
    d1 = np.cross(0.5 * (w[:, 1:] + w[:, :-1]), P[:, 1:] - P[:, :-1])
    out = np.zeros_like(P)
    out[0, 1:] = np.cumsum(d1[0], axis=0)
    out[1:, :] = out[:1, :] + np.cumsum(d0, axis=0)
    return out


def test_recover_deflection_constant_mode_is_rigid():
    grid = build_grid(builtin_chart("corrugation"), 16)
    system = assemble_system(grid)
    v = np.concatenate([np.tile([0.0, 0.0, 1.0], grid.nnodes), np.zeros(6)])
    from corruga.solver import mode_from_vector
    mode = mode_from_vector(system, v)
    defl = recover_deflection(mode, grid)
    # xdot = w ^ x up to the anchor offset; w is unit after normalization
    w0 = np.array([0.0, 0.0, 1.0]) * np.max(np.abs(mode.w))
    expect = np.cross(w0, display_positions(grid))
    expect = expect - expect[0, 0]
    got = defl - defl[0, 0]
    scale = np.max(np.linalg.norm(expect, axis=-1))
    assert np.max(np.linalg.norm(got - expect, axis=-1)) <= 1e-10 * scale
    eps = membrane_strain_field(defl, grid)
    assert np.max(np.abs(eps)) <= 1e-10 * np.max(np.abs(w0))


def test_recover_deflection_strainfree_on_analytic_modes():
    # piecewise catalogue fields integrate exactly; smooth ones decay ~h^2
    am = analytic_mode("corrugation-membrane")
    grid = build_grid(am.chart, 16)
    mode = sample_rotation(am, grid)
    eps = membrane_strain_field(recover_deflection(mode, grid), grid)
    assert np.max(np.abs(eps)) <= 1e-12

    errs = []
    for res in (16, 32):
        am = analytic_mode("translation-twist")
        grid = build_grid(am.chart, res)
        mode = sample_rotation(am, grid)
        eps = membrane_strain_field(recover_deflection(mode, grid), grid)
        errs.append(np.max(np.abs(eps)))
    assert errs[0] <= 1e-1
    assert errs[1] <= 0.35 * errs[0]


def test_path_independence_of_recovery():
    # integrating along the transposed spanning tree lands on the same field
    am = analytic_mode("eggbox-membrane")
    grid = build_grid(am.chart, 32)
    mode = sample_rotation(am, grid)
    rows = recover_deflection(mode, grid)
    cols = recover_deflection_by_columns(mode, grid)
    rows = rows - rows[0, 0]
    cols = cols - cols[0, 0]
    scale = max(1e-300, float(np.max(np.linalg.norm(rows, axis=-1))))
    gap = np.max(np.linalg.norm(rows - cols, axis=-1)) / scale
    assert gap <= 5e-3


def test_recovery_matches_analytic_deflection():
    am = analytic_mode("corrugation-membrane")
    grid = build_grid(am.chart, 32)
    mode = sample_rotation(am, grid)
    got = recover_deflection(mode, grid)
    ib, jb, e1, e2 = display_lattice(grid)
    t1, t2 = grid.chart.period
    u1 = grid.axis1.u[ib] + e1 * t1
    u2 = grid.axis2.u[jb] + e2 * t2
    analytic = am.deflection(u1[:, None], u2[None, :])
    analytic = analytic - analytic[0, 0]
    got = got - got[0, 0]
    scale = max(1e-300, float(np.max(np.linalg.norm(analytic, axis=-1))))
    assert np.max(np.linalg.norm(got - analytic, axis=-1)) <= 1e-2 * scale


def test_sampled_analytic_modes_have_tiny_residual():
    # the discrete operator annihilates the catalogue fields
    for mid in ("corrugation-membrane", "eggbox-membrane",
                "translation-twist"):
        am = analytic_mode(mid)
        grid = build_grid(am.chart, 24)
        system = assemble_system(grid)
        v = sample_rotation(am, grid).vector(grid)
        assert (np.linalg.norm(system.matrix @ v)
                <= 1e-9 * system.sigma_max() * np.linalg.norm(v)), mid


def test_growth_columns_hold_no_rounding_noise():
    # every stencil's coefficients sum to 0, so a window that lies wholly
    # past the seam reads no growth: its wrap term is an exact 0, which
    # assemble_system does not store
    for name in ("eggbox", "corrugation"):
        A = assemble_system(build_grid(builtin_chart(name), 16)).matrix
        G = np.abs(A[:, -6:].tocsc().data)
        assert G.min() > 1e-10 * G.max(), name
