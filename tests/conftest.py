"""Shared helpers: full-pipeline analyses are cached per (surface, resolution).

The heavier acceptance checks reuse the same reports, so each surface is
solved once per resolution for the whole session.  The shear-covariance
check of the stretch tensor, the CSR form of a grid's stencils and a
builtin's config in another length unit live here too: only tests call
them.
"""

from dataclasses import dataclass

import numpy as np
import pytest
import scipy.sparse as sp

from corruga.analysis import run_analysis
from corruga.chart import PeriodGeometry, builtin_chart, chart_to_config
from corruga.profiles import SINUSOIDAL, Profile
from corruga.strains import orthogonality_residual, stretch_from_rates

_reports: dict = {}


def analysis_bundle(name: str, resolution: int) -> dict:
    key = (name, resolution)
    if key not in _reports:
        _reports[key] = run_analysis(builtin_chart(name),
                                     resolution=resolution)
    return _reports[key]


@pytest.fixture(name="analysis_bundle")
def analysis_bundle_fixture():
    return analysis_bundle


def scaled_config(name: str, scale: float) -> dict:
    """The builtin ``name``'s config with every length times ``scale``:
    periods, breakpoints and a sinusoid's amplitude, which is a height.
    Piecewise amplitudes are slopes and stay."""
    cfg = chart_to_config(builtin_chart(name))
    cfg["period"] = [t * scale for t in cfg["period"]]
    for entry in cfg.get("profiles", []):
        # a translation curve's entry holds its lateral and vertical profiles
        parts = [entry] if "kind" in entry else [entry["lateral"],
                                                 entry["vertical"]]
        for p in filter(None, parts):
            p["period"] *= scale
            p["breakpoints"] = [b * scale for b in p["breakpoints"]]
            if p["kind"] == SINUSOIDAL:
                p["amplitude"] *= scale
    return cfg


def stencil_operator(grid, direction: int, order: int = 1):
    """(M, wrap): the grid's stencil rule along one direction, the first
    derivative (order 1) or the fourth difference (order 4), as a CSR
    matrix over the flattened nodes built from its triplets."""
    rows, cols, vals, wrap = grid.stencil_entries(direction, order)
    return (sp.csr_matrix((vals, (rows, cols)),
                          shape=(wrap.size, grid.nnodes)), wrap)


def membrane_reps(report: dict) -> list:
    return [m for m in report["modes"] if m["id"].startswith("membrane")]


def bending_reps(report: dict) -> list:
    return [m for m in report["modes"] if m["id"].startswith("bending")]


def adjugate_residual(E, chi) -> float:
    """The orthogonality residual as tr(adj(E) chi): a second form of
    E11 chi22 - 2 E12 chi12 + E22 chi11 to check that one against."""
    E = np.asarray(E, dtype=float)
    adj = np.array([[E[1, 1], -E[0, 1]], [-E[1, 0], E[0, 0]]])
    return float(np.trace(adj @ np.asarray(chi, dtype=float)))


@dataclass(frozen=True)
class ReparametrizationResult:
    """Outcome of the shear-covariance identity checks."""

    E_congruent: np.ndarray          # S^T diag(a, -b) S
    E_direct: np.ndarray             # from first-principles cell means
    congruence_residual: float
    invariance_residual: float       # pair residual vs untransformed pairs
    expansion_residual: float        # vs the explicit component expansion
    zero_residual: float             # residual on the transformed zero set

    @property
    def ok(self) -> bool:
        return max(self.congruence_residual, self.invariance_residual,
                   self.expansion_residual, self.zero_residual) <= 1e-12


def reparametrization_check(f: Profile, g: Profile,
                            gamma: float) -> ReparametrizationResult:
    """Check how the stretch tensor responds to shearing the parameter grid.

    The sheared chart (xi1, xi2) -> (xi1, xi2 + gamma xi1) turns the straight
    double corrugation's membrane tensor diag(a, -b) into S^T diag(a, -b) S
    with S = [[1, 0], [gamma, 1]].  Verified against tensors assembled from
    explicit cell means, and the membrane/bending pair residual is checked to
    be invariant (det S = 1) with an explicit component expansion.
    """
    a = f.slope_mean_square()
    b = g.slope_mean_square()
    E0 = np.diag([a, -b])
    S = np.array([[1.0, 0.0], [gamma, 1.0]])
    E_cong = S.T @ E0 @ S

    # first principles: sheared partials mix as x1' = x1 + gamma x2, so the
    # averaged stretch vectors mix the same way before pairing
    geom = PeriodGeometry.from_tangents([1.0, gamma, 0.0], [0.0, 1.0, 0.0])
    pdot1 = np.array([a, -gamma * b, 0.0])    # pdot1_0 + gamma pdot2_0
    pdot2 = np.array([0.0, -b, 0.0])
    E_direct = stretch_from_rates(pdot1, pdot2, geom)
    cong_res = float(np.max(np.abs(E_direct - E_cong)))

    chis = [np.array([[1.0, 0.0], [0.0, 0.0]]),
            np.array([[0.0, 1.0], [1.0, 0.0]]),
            np.array([[0.0, 0.0], [0.0, 1.0]]),
            np.array([[0.7, -0.3], [-0.3, 2.1]])]
    inv_res = 0.0
    exp_res = 0.0
    for chi in chis:
        chi_s = S.T @ chi @ S
        r_s = orthogonality_residual(E_cong, chi_s)
        inv_res = max(inv_res, abs(r_s - orthogonality_residual(E0, chi)))
        expansion = a * chi_s[1, 1] - b * (gamma * gamma * chi_s[1, 1]
                                           - 2.0 * gamma * chi_s[0, 1]
                                           + chi_s[0, 0])
        exp_res = max(exp_res, abs(r_s - expansion))

    zero_res = 0.0
    for t, u in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, -3.0)):
        chi = np.array([[a * t, u], [u, b * t]])
        zero_res = max(zero_res,
                       abs(orthogonality_residual(E_cong, S.T @ chi @ S)))

    return ReparametrizationResult(E_congruent=E_cong, E_direct=E_direct,
                                   congruence_residual=cong_res,
                                   invariance_residual=inv_res,
                                   expansion_residual=exp_res,
                                   zero_residual=zero_res)
