"""Directions a surface does not vary in: analyzed on MIN_RESOLUTION nodes.

Plane (both directions) and the simple corrugation (along xi2) have a
curve without profile.  run_analysis solves them on MIN_RESOLUTION nodes
there, and judges the levels against the requested grid's sigma_max and
spacing; the full grid, solved through the same route, is the reference,
for the builtins and for random simple corrugations.
"""

import numpy as np
import pytest
from conftest import analysis_bundle, bending_reps
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg import norm

from corruga.analysis import run_analysis
from corruga.chart import SIMPLE_CORRUGATION, TAU, SurfaceChart, builtin_chart
from corruga.grid import MIN_RESOLUTION, build_grid
from corruga.profiles import PROFILE_KINDS, make_profile
from corruga.solver import assemble_system
from corruga.strains import (chi_from_growth, classify_mode,
                             effective_membrane_strain, effective_spaces,
                             mode_scale, orthogonality_residual_rel, vec_sym)

REDUCED = {"plane": (True, True), "corrugation": (False, True)}


def _projector(basis) -> np.ndarray:
    rows = np.array([vec_sym(M) for M in basis]).reshape(-1, 3)
    return rows.T @ rows


def _assert_matches_full_grid(chart, res, reduced):
    """run_analysis of ``chart`` against the full grid's strain spaces,
    judged at the same spacing: the decision, the classes and the spans.
    ``reduced`` flags the directions that run_analysis gives
    MIN_RESOLUTION nodes.  Returns the report, the full grid, its spaces
    and its representatives by report id."""
    rep = run_analysis(chart, res)
    grid = build_grid(chart, res)
    spaces = effective_spaces(assemble_system(grid), grid.h_max)

    assert rep["resolution"]["requested"] == [res, res]
    assert rep["resolution"]["nodes"] == [
        MIN_RESOLUTION if flat else n for flat, n in zip(reduced, grid.shape)]
    assert rep["resolution"]["h_max"] == grid.h_max

    # the decision: dims, cuts, caps and flags
    assert (rep["dims"]["membrane"], rep["dims"]["bending"]) == spaces.dims
    th = rep["threshold"]
    for key, cut in (("E_cut", spaces.E_cut), ("chi_cut", spaces.chi_cut)):
        assert th[key]["count"] == cut.count
        assert th[key]["cap"] == cut.cap
        assert th[key]["ambiguous"] == cut.ambiguous
    assert th["ambiguous"] == (spaces.E_cut.ambiguous
                               or spaces.chi_cut.ambiguous)

    # the representatives: ids and classes
    ids = ([f"membrane-{i}" for i in range(len(spaces.membrane_modes))]
           + [f"bending-{i}" for i in range(len(spaces.bending_modes))])
    modes = dict(zip(ids, spaces.membrane_modes + spaces.bending_modes))
    assert [m["id"] for m in rep["modes"]] == ids
    assert [m["class"] for m in rep["modes"]] == [
        classify_mode(m, grid, grid.h_max) for m in modes.values()]

    # the spans
    assert np.abs(_projector(rep["E_basis"])
                  - _projector(spaces.E_basis)).max() <= 1e-12
    assert np.abs(_projector(rep["chi_basis"])
                  - _projector(spaces.chi_basis)).max() <= 1e-12
    return rep, grid, spaces, modes


@pytest.mark.parametrize("res", [16, 32])
@pytest.mark.parametrize("name", ["plane", "corrugation"])
def test_reduced_grid_matches_full_grid(name, res):
    rep, grid, spaces, modes = _assert_matches_full_grid(
        builtin_chart(name), res, REDUCED[name])

    # pair residuals, on decisive cuts whose bending fields all bend
    strains = {}
    for i, m in modes.items():
        s = mode_scale(m, grid)
        strains[i] = (effective_membrane_strain(m, grid) / s,
                      chi_from_growth(m.W1, m.W2, grid.geometry) / s)
    for p in rep["pairs"]:
        ref = orthogonality_residual_rel(strains[p["E_of"]][0],
                                         strains[p["chi_of"]][1])
        assert abs(p["residual_rel"] - ref) <= 1e-12

    # levels above the cap: the full grid's, relative to its sigma_max
    ratios = []
    for space, ref, cut in (("growth", spaces.chi_values, spaces.chi_cut),
                            ("membrane", spaces.E_values, spaces.E_cut)):
        got = [lv["sigma_rel"] for lv in rep["sigma_spectrum_ref"]
               if lv["space"] == space]
        assert len(got) == len(ref)
        ratios += [g / r for g, r in zip(got, ref) if r > cut.cap]
    assert len(ratios) >= 3
    assert max(abs(r - 1.0) for r in ratios) <= 1e-9


@settings(max_examples=10, deadline=None, derandomize=True)
@given(kind=st.sampled_from(PROFILE_KINDS), factor=st.floats(0.25, 4.0),
       res=st.integers(12, 20))
def test_reduced_grid_matches_full_grid_on_random_corrugations(kind, factor,
                                                               res):
    chart = SurfaceChart(SIMPLE_CORRUGATION, (TAU, TAU),
                         (make_profile(kind, factor, TAU),))
    _assert_matches_full_grid(chart, res, REDUCED["corrugation"])


def test_build_grid_keeps_the_requested_nodes():
    # the reduction belongs to the analysis: quadrature and kernel checks
    # integrate fields that vary along every direction
    assert build_grid(builtin_chart("plane"), 32).shape == (32, 32)
    assert build_grid(builtin_chart("corrugation"), 32).shape[1] == 32


def test_reduced_direction_refuses_a_resolution_below_minimum():
    with pytest.raises(ValueError, match="resolution"):
        run_analysis(builtin_chart("plane"), (16, MIN_RESOLUTION - 1))


def test_corrugation_convergence_holds_to_256():
    # the chi22 fraction and the worst pair residual keep decaying, or sit
    # on the rounding floor, from 32 to 256
    fracs, pairs = [], []
    for res in (32, 64, 128, 256):
        report = analysis_bundle("corrugation", res)
        assert (report["dims"]["membrane"], report["dims"]["bending"]) \
            == (1, 2), res
        assert not report["threshold"]["ambiguous"], res
        fracs.append(max(abs(np.asarray(m["chi"])[1, 1])
                         / norm(np.asarray(m["chi"]))
                         for m in bending_reps(report)))
        pairs.append(max(p["residual_rel"] for p in report["pairs"]))
    assert fracs[-1] <= 1e-2 and pairs[-1] <= 1e-2
    assert all(b <= max(0.35 * a, 1e-10) for a, b in zip(fracs, fracs[1:]))
    assert all(b <= max(0.35 * a, 1e-10) for a, b in zip(pairs, pairs[1:]))
