"""Constraint assembly, the operator kernel, strain forms, deflection recovery."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose

from corruga import solver
from corruga.chart import builtin_chart
from corruga.grid import build_grid, differentiate
from corruga.oracle import analytic_mode, sample_rotation
from corruga.solver import (ROW_CREASE, ROW_PDE, SolverError,
                            ThresholdPolicy, assemble_system,
                            kernel_distance, recover_deflection,
                            strain_forms)
from corruga.strains import (effective_spaces, membrane_row_map,
                             membrane_strain_field)


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


def test_constant_rotation_is_exact():
    grid = build_grid(builtin_chart("eggbox"), 16)
    system = assemble_system(grid)
    v = np.concatenate([np.tile([0.2, -1.0, 0.7], grid.nnodes),
                        np.zeros(6)])
    resid = np.linalg.norm(system.matrix @ v)
    assert resid <= 1e-12 * system.sigma_max() * np.linalg.norm(v)


def _dense_spectrum(system):
    """sigma/sigma_max ascending (zeros for missing rows) and the matching
    right singular vectors as columns, from a dense SVD of the operator."""
    A = system.matrix.toarray()
    _, s, Vt = la.svd(A, full_matrices=A.shape[0] < A.shape[1])
    s = np.concatenate([s, np.zeros(A.shape[1] - s.size)])
    order = np.argsort(s)
    return s[order] / s.max(), Vt[order].T


def test_plane_exact_kernel_is_six_dimensional():
    # the operator kernel proper: 3 constants + 3 growth modes, all at
    # machine-precision sigma; everything else sits orders above 1e-6
    system = assemble_system(build_grid(builtin_chart("plane"), 32))
    rel, V = _dense_spectrum(system)
    k = int(np.sum(rel <= 1e-6))
    assert k == 6
    assert rel[k - 1] <= 1e-9
    # the kernel carries exactly three independent growth directions
    svals = np.linalg.svd(V[system.w_size:, :k], compute_uv=False)
    assert np.sum(svals > 1e-8 * svals[0]) == 3


def test_eggbox_exact_kernel_contains_catalogue_and_folds():
    # 3 constants + 1 membrane + 2 bending, plus exact per-panel fold
    # mechanisms admitted by the crease conditions; all at machine sigma
    system = assemble_system(build_grid(builtin_chart("eggbox"), 32))
    rel, _ = _dense_spectrum(system)
    k = int(np.sum(rel <= 1e-6))
    assert k >= 6
    assert rel[k - 1] <= 1e-9


def test_plane_near_kernel_is_a_continuum_slice():
    # sub-threshold strain-free oscillations accumulate under the auto cap;
    # the policy must flag that rather than pick an arbitrary rank
    system = assemble_system(build_grid(builtin_chart("plane"), 16))
    rel, _ = _dense_spectrum(system)
    count, _, _, ambiguous = ThresholdPolicy().cut(rel, system.grid.h_max,
                                                   1e-12)
    assert ambiguous or count >= 6


def test_threshold_policy_coercion():
    pol = ThresholdPolicy.coerce("auto")
    assert pol.kind == "auto"
    pol = ThresholdPolicy.coerce(1e-5)
    assert pol.kind == "fixed" and pol.tau == 1e-5


@pytest.mark.parametrize("tau", [float("nan"), float("inf"), 0.0, -1.0,
                                 1.0, 2.0])
def test_threshold_policy_rejects_tau_outside_unit_interval(tau):
    with pytest.raises(ValueError, match="threshold"):
        ThresholdPolicy(kind="fixed", tau=tau)
    with pytest.raises(ValueError, match="threshold"):
        ThresholdPolicy.coerce(str(tau))


@pytest.mark.parametrize("name", ["eggbox", "plane"])
def test_effective_spaces_factors_once(name, monkeypatch):
    # one factorization, of the symmetric rotation-sample block alone, gives
    # the growth and the membrane levels, the cuts and the representatives
    system = assemble_system(build_grid(builtin_chart(name), 16))
    system.sigma_max()
    factored = []
    splu = spla.splu

    def counted(H, *args, **kwargs):
        factored.append(H)
        return splu(H, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", counted)
    effective_spaces(system)
    assert len(factored) == 1
    H = factored[0]
    assert H.shape == (system.w_size, system.w_size)
    assert abs(H - H.T).max() == 0.0


@pytest.mark.parametrize("name", ["eggbox", "miura", "plane"])
def test_ridge_minimizers_match_dense_kkt(name, monkeypatch):
    # the block-eliminated, refined solve against a dense LU of the same
    # bordered KKT matrix K = [[A^T A + eps I, C^T], [C, 0]]
    system = assemble_system(build_grid(builtin_chart(name), 16))
    calls = []
    ridge = solver._ridge_minimizers

    def spy(G, C, eps, ws):
        z = ridge(G, C, eps, ws)
        calls.append((G, C, eps, z))
        return z

    monkeypatch.setattr(solver, "_ridge_minimizers", spy)
    strain_forms(system, membrane_row_map(system.grid))
    (G, C, eps, z), = calls
    N, k = C.shape[1], C.shape[0]
    K = np.block([[G.toarray() + eps * np.eye(N), C.T],
                  [C, np.zeros((k, k))]])
    b = np.zeros((N + k, k))
    b[N:] = np.eye(k)
    Y, Y_ref = z[:N], la.solve(K, b)[:N]
    assert_allclose(C @ Y, np.eye(k), rtol=0, atol=1e-10)
    A = system.matrix
    s, s_ref = la.svdvals(A @ Y), la.svdvals(A @ Y_ref)
    assert_allclose(s, s_ref, rtol=0, atol=1e-9 * s_ref.max())
    assert np.linalg.norm(b - K @ z) <= 1e-10 * np.linalg.norm(b)


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
    spaces = effective_spaces(system)
    ref = _growth_levels_own_kkt(system)
    count, cap, _, ambiguous = ThresholdPolicy().cut(
        ref, system.grid.h_max, 1e-15)
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


def test_sigma_max_retries_arpack_once(large_system, monkeypatch):
    svds = spla.svds
    calls = []

    def flaky(*args, **kwargs):
        calls.append(kwargs)
        if len(calls) == 1:
            _no_convergence()
        return svds(*args, **kwargs)

    monkeypatch.setattr(spla, "svds", flaky)
    expect = la.svdvals(large_system.matrix.toarray())[0]
    assert_allclose(large_system.sigma_max(), expect, rtol=1e-8)
    assert len(calls) == 2
    assert calls[1]["maxiter"] and calls[1]["ncv"]


def test_sigma_max_is_repeatable_at_arpack_sizes(large_system, monkeypatch):
    # every ARPACK call, the retry included, starts from the same vector, so
    # sigma_max does not move in its last bits from one call to the next
    svds = spla.svds
    starts = []

    def spy(*args, **kwargs):
        starts.append(np.array(kwargs["v0"]))
        if len(starts) == 1:
            _no_convergence()
        return svds(*args, **kwargs)

    monkeypatch.setattr(spla, "svds", spy)
    values = {replace(large_system, _sigma_max=None).sigma_max()
              for _ in range(4)}
    assert len(starts) == 5
    assert all(np.array_equal(v, starts[0]) for v in starts)
    assert len(values) == 1


def test_sigma_max_raises_instead_of_dense_svd(large_system, monkeypatch):
    def dense(*args, **kwargs):
        raise AssertionError("dense SVD fallback")

    monkeypatch.setattr(spla, "svds", _no_convergence)
    monkeypatch.setattr(la, "svdvals", dense)
    with pytest.raises(SolverError, match="ARPACK"):
        large_system.sigma_max()


def test_sigma_max_does_not_swallow_other_errors(large_system, monkeypatch):
    def broken(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(spla, "svds", broken)
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


def test_recover_deflection_constant_mode_is_rigid():
    grid = build_grid(builtin_chart("corrugation"), 16)
    system = assemble_system(grid)
    v = np.concatenate([np.tile([0.0, 0.0, 1.0], grid.nnodes), np.zeros(6)])
    from corruga.grid import display_positions
    from corruga.solver import mode_from_vector
    mode = mode_from_vector(system, v)
    defl = recover_deflection(mode, grid)
    # xdot = w ^ x up to the anchor offset; w is unit after normalization
    w0 = np.array([0.0, 0.0, 1.0]) * np.max(np.abs(mode.w))
    expect = np.cross(w0, display_positions(grid))
    expect = expect - expect[0, 0]
    got = defl.values - defl.values[0, 0]
    scale = np.max(np.linalg.norm(expect, axis=-1))
    assert np.max(np.linalg.norm(got - expect, axis=-1)) <= 1e-10 * scale
    eps = membrane_strain_field(defl, grid)
    assert np.max(np.abs(eps)) <= 1e-10 * np.max(np.abs(w0))


def test_recover_deflection_strainfree_on_analytic_modes():
    # piecewise catalogue fields integrate exactly; smooth ones decay ~h^2
    am = analytic_mode("corrugation-membrane")
    grid = build_grid(am.chart, 16)
    mode = sample_rotation(am, grid, normalize=False)
    eps = membrane_strain_field(recover_deflection(mode, grid), grid)
    assert np.max(np.abs(eps)) <= 1e-12

    errs = []
    for res in (16, 32):
        am = analytic_mode("translation-twist")
        grid = build_grid(am.chart, res)
        mode = sample_rotation(am, grid, normalize=False)
        eps = membrane_strain_field(recover_deflection(mode, grid), grid)
        errs.append(np.max(np.abs(eps)))
    assert errs[0] <= 1e-1
    assert errs[1] <= 0.35 * errs[0]


def test_path_independence_of_recovery():
    # integrating along the transposed spanning tree lands on the same field
    am = analytic_mode("eggbox-membrane")
    grid = build_grid(am.chart, 32)
    mode = sample_rotation(am, grid, normalize=False)
    rows = recover_deflection(mode, grid, order="rows").values
    cols = recover_deflection(mode, grid, order="cols").values
    rows = rows - rows[0, 0]
    cols = cols - cols[0, 0]
    scale = max(1e-300, float(np.max(np.linalg.norm(rows, axis=-1))))
    gap = np.max(np.linalg.norm(rows - cols, axis=-1)) / scale
    assert gap <= 5e-3


def test_recovery_matches_analytic_deflection():
    am = analytic_mode("corrugation-membrane")
    grid = build_grid(am.chart, 32)
    mode = sample_rotation(am, grid, normalize=False)
    got = recover_deflection(mode, grid).values
    from corruga.grid import display_lattice
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
        mode = sample_rotation(am, grid)
        assert (np.linalg.norm(system.matrix @ mode.vector(grid))
                <= 1e-9 * system.sigma_max()), mid
