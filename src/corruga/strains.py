"""Effective strain tensors of rotation modes and their spans.

A periodic rotation field stretches the period vectors at rate
E_mn = sym <p_m, pdot_n> with pdot_n the period mean of w x x_n.  A field
with growth bends: chi_mn = sym <W_n x p_m, n> with W_a the growth per unit
parameter.  Spans of achievable E and chi obey dim{E} + dim{chi} <= 3, with
each achievable pair satisfying E11 chi22 - 2 E12 chi12 + E22 chi11 = 0.

effective_spaces finds the spans by minimizing the constraint residual
subject to hitting prescribed growth / strain coordinates, which needs no
null basis and scales to fine grids.  Basis rows and representative modes
carry a fixed sign: the leading entry of their vec_sym strain is positive.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as la

from .chart import PeriodGeometry
from .grid import PeriodicGrid, cell_average, display_derivative, display_lattice
from .solver import (ConstraintSystem, DeflectionField, RotationMode,
                     ThresholdPolicy, mode_from_vector, strain_forms)

_SQRT2 = np.sqrt(2.0)

SIGN_LEAD = 0.1       # sign-fixing entry: the first at this share of the peak
SPAN_RTOL = 1e-9      # chi rows below this share of the largest are dropped
GROWTH_TOL = 1e-6     # growth fraction above which a mode bends
STRAIN_TOL = 1e-5     # relative E above which a mode stretches


def vec_sym(M) -> np.ndarray:
    """(M11, sqrt(2) M12, M22): Euclidean norm equals the Frobenius norm."""
    M = np.asarray(M, dtype=float)
    return np.array([M[0, 0], _SQRT2 * M[0, 1], M[1, 1]])


def unvec_sym(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    off = v[1] / _SQRT2
    return np.array([[v[0], off], [off, v[2]]])


def _as_matrix(T) -> np.ndarray:
    if isinstance(T, EffectiveStrain):
        return T.E
    M = np.asarray(T, dtype=float)
    if M.shape != (2, 2):
        raise ValueError(f"expected a 2x2 tensor, got shape {M.shape}")
    return M


@dataclass(frozen=True)
class EffectiveStrain:
    E: np.ndarray  # symmetric 2x2

    def __post_init__(self):
        E = 0.5 * (self.E + self.E.T)
        object.__setattr__(self, "E", E)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.E))


def mode_scale(mode: RotationMode, grid: PeriodicGrid) -> float:
    """RMS size of the rotation field including its growth share."""
    t1, t2 = grid.chart.period
    g = float(np.dot(mode.W1, mode.W1) * t1 * t1
              + np.dot(mode.W2, mode.W2) * t2 * t2)
    return float(np.sqrt(np.mean(np.sum(mode.w ** 2, axis=-1)) + g))


def effective_membrane_strain(mode: RotationMode,
                              grid: PeriodicGrid) -> EffectiveStrain:
    """E of a mode: E_mn = sym <p_m, mean(w x x_n)>.

    E is defined for periodic rotation fields; on a field with growth the
    formula is evaluated on its periodic part, e.g. for mixed-mode reporting.
    """
    geom = grid.geometry
    pdot1 = cell_average(np.cross(mode.w, grid.x1), grid)
    pdot2 = cell_average(np.cross(mode.w, grid.x2), grid)
    E = np.empty((2, 2))
    E[0, 0] = geom.p1 @ pdot1
    E[1, 1] = geom.p2 @ pdot2
    E[0, 1] = E[1, 0] = 0.5 * (geom.p1 @ pdot2 + geom.p2 @ pdot1)
    return EffectiveStrain(E=E)


def chi_from_growth(W1, W2, geometry: PeriodGeometry) -> np.ndarray:
    """chi from per-unit growth vectors: chi_mn = sym <W_n x p_m, n>."""
    p1, p2, n = geometry.p1, geometry.p2, geometry.n
    if np.linalg.norm(n) < 1e-12:
        raise ValueError("degenerate period geometry (p1 parallel to p2)")
    chi = np.empty((2, 2))
    chi[0, 0] = np.cross(W1, p1) @ n
    chi[1, 1] = np.cross(W2, p2) @ n
    chi[0, 1] = chi[1, 0] = 0.5 * (np.cross(W2, p1) + np.cross(W1, p2)) @ n
    return chi


def membrane_strain_field(deflection: DeflectionField,
                          grid: PeriodicGrid) -> np.ndarray:
    """Per-node symmetric 2x2 strain of a deflection, on the display lattice.

    eps_mn = sym <d_m(xdot), x_n>; an infinitesimal isometry has eps -> 0.
    """
    V = deflection.values
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


def membrane_row_map(grid: PeriodicGrid) -> np.ndarray:
    """Linear map w samples -> (E11, sqrt2 E12, E22), dense (3, 3n).

    Row k uses the scalar triple <p, w x x> = w . (x cross p) under the
    quadrature weights, so L @ w equals vec_sym(E(w)) exactly.
    """
    n = grid.nnodes
    geom = grid.geometry
    c = (grid.weights / grid.cell_area).reshape(n, 1)
    x1 = grid.x1.reshape(n, 3)
    x2 = grid.x2.reshape(n, 3)
    r11 = c * np.cross(x1, geom.p1)
    r22 = c * np.cross(x2, geom.p2)
    r12 = 0.5 * _SQRT2 * c * (np.cross(x2, geom.p1) + np.cross(x1, geom.p2))
    return np.stack([r11.reshape(-1), r12.reshape(-1), r22.reshape(-1)])


# -- the orthogonality identity -------------------------------------------

def orthogonality_residual(E, chi, form: str = "index") -> float:
    """E11 chi22 - 2 E12 chi12 + E22 chi11; zero on every admissible pair.

    form "adjugate" evaluates the same number as tr(adj(E) chi).
    """
    Em = _as_matrix(E)
    Cm = _as_matrix(chi)
    if form == "index":
        return float(Em[0, 0] * Cm[1, 1] - 2.0 * Em[0, 1] * Cm[0, 1]
                     + Em[1, 1] * Cm[0, 0])
    if form == "adjugate":
        adj = np.array([[Em[1, 1], -Em[0, 1]], [-Em[1, 0], Em[0, 0]]])
        return float(np.trace(adj @ Cm))
    raise ValueError(f"unknown form {form!r}")


def orthogonality_residual_rel(E, chi) -> float:
    """|residual| / (||E||_F ||chi||_F), safe for zero tensors."""
    Em = _as_matrix(E)
    Cm = _as_matrix(chi)
    den = np.linalg.norm(Em) * np.linalg.norm(Cm)
    if den == 0:
        return 0.0
    return abs(orthogonality_residual(Em, Cm)) / den


# -- Poisson ratios ---------------------------------------------------------

@dataclass(frozen=True)
class PoissonRatios:
    nu_in: float
    nu_out: float
    basis: np.ndarray       # columns: principal directions of E (rotation)
    in_defined: bool
    out_defined: bool


def poisson_ratios(E, chi, tol: float = 1e-9) -> PoissonRatios:
    """-E22/E11 and -chi22/chi11 in an orthonormal principal basis of E.

    Principal axes sorted by |eigenvalue| descending.  Ratios with
    denominators below tol (relative) are flagged, not invented.
    """
    Em = _as_matrix(E)
    Cm = _as_matrix(chi)
    En = np.linalg.norm(Em)
    if En <= tol:
        raise ValueError("zero membrane strain: principal basis undefined")
    evals, evecs = la.eigh(Em)
    order = np.argsort(-np.abs(evals))
    lam = evals[order]
    R = evecs[:, order]
    if la.det(R) < 0:
        R = R @ np.diag([1.0, -1.0])
    if R[0, 0] < 0:
        R = -R
    Cp = R.T @ Cm @ R
    in_defined = abs(lam[0]) > tol * En
    nu_in = float(-lam[1] / lam[0]) if in_defined else float("nan")
    Cn = np.linalg.norm(Cm)
    out_defined = Cn > 0 and abs(Cp[0, 0]) > tol * Cn
    nu_out = float(-Cp[1, 1] / Cp[0, 0]) if out_defined else float("nan")
    return PoissonRatios(nu_in=nu_in, nu_out=nu_out, basis=R,
                         in_defined=bool(in_defined),
                         out_defined=bool(out_defined))


# -- strain spaces ----------------------------------------------------------

@dataclass(frozen=True)
class SpectralCut:
    count: int
    cap: float
    gap: float
    ambiguous: bool


@dataclass(frozen=True)
class StrainSpaces:
    """Achievable membrane / bending strain spans of one surface."""

    E_basis: np.ndarray           # (dimE, 2, 2), orthonormal under vec_sym
    chi_basis: np.ndarray         # (dimChi, 2, 2)
    dims: tuple[int, int]
    E_values: np.ndarray          # residual levels behind the E count
    chi_values: np.ndarray
    E_cut: SpectralCut
    chi_cut: SpectralCut
    membrane_modes: tuple[RotationMode, ...] = ()
    bending_modes: tuple[RotationMode, ...] = ()

    @property
    def rank_bound_ok(self) -> bool:
        return self.dims[0] + self.dims[1] <= 3


def _leading_sign(v) -> float:
    """-1 when the first entry of v at least SIGN_LEAD times its largest
    magnitude is negative, else +1: the fixed sign of a basis row or mode."""
    a = np.abs(v)
    return -1.0 if v[np.argmax(a >= SIGN_LEAD * a.max())] < 0 else 1.0


def _negated(mode: RotationMode) -> RotationMode:
    return replace(mode, w=-mode.w, W1=-mode.W1, W2=-mode.W2)


def _orthonormal_rows(stack: np.ndarray) -> np.ndarray:
    """Orthonormal basis (sign-fixed rows) of the row span of (k, 3) rows."""
    if not len(stack):
        return np.zeros((0, 3))
    _, sv, Vt = la.svd(stack, full_matrices=False)
    rank = int(np.sum(sv > SPAN_RTOL * sv[0])) if sv[0] > 0 else 0
    return np.array([_leading_sign(r) * r for r in Vt[:rank]]).reshape(-1, 3)


def effective_spaces(system: ConstraintSystem, policy=None) -> StrainSpaces:
    """Strain spans straight from the constraint system, no null basis.

    Bending: the best-residual levels over the 6 growth coordinates; their
    directions below the threshold policy's cap are achievable, and chi is a
    linear function of growth alone.  Membrane: the analogous levels over
    (E11, E12, E22) subject to strict periodicity.  Both come from one
    solver.strain_forms call; representative modes come from its minimizers.
    """
    pol = policy or ThresholdPolicy()
    grid = system.grid
    geom = grid.geometry
    h = grid.h_max
    smax = system.sigma_max()

    gs, ms = strain_forms(system, membrane_row_map(grid))

    # bending side
    sig = gs.levels / smax
    floor = max(gs.floor_sigma() / smax, 1e-15)
    kG, capG, gapG, ambG = pol.cut(sig, h, floor)
    bending = []
    chis = []
    for u in gs.directions[:, :kG].T:
        m = mode_from_vector(system, gs.minimizers @ u)
        chi = vec_sym(chi_from_growth(m.W1, m.W2, geom))
        if _leading_sign(chi) < 0:
            m, chi = _negated(m), -chi
        bending.append(m)
        chis.append(chi)
    chi_rows = _orthonormal_rows(np.array(chis).reshape(-1, 3))
    chi_basis = np.array([unvec_sym(r) for r in chi_rows]) \
        if len(chi_rows) else np.zeros((0, 2, 2))

    # membrane side
    E_vals = ms.levels / smax
    floorE = max(ms.floor_sigma() / smax, 1e-15)
    kE, capE, gapE, ambE = pol.cut(E_vals, h, floorE)
    membrane = []
    for u in ms.directions[:, :kE].T:
        m = mode_from_vector(system, ms.minimizers @ u)
        E = vec_sym(effective_membrane_strain(m, grid).E)
        membrane.append(_negated(m) if _leading_sign(E) < 0 else m)
    dirs = (ms.basis @ ms.directions[:, :kE]).T   # rows: vec_sym(E)
    E_basis = np.array([unvec_sym(_leading_sign(r) * r) for r in dirs]) \
        if kE else np.zeros((0, 2, 2))

    return StrainSpaces(
        E_basis=E_basis, chi_basis=chi_basis,
        dims=(int(kE), int(len(chi_rows))),
        E_values=E_vals, chi_values=sig,
        E_cut=SpectralCut(int(kE), capE, float(gapE), bool(ambE)),
        chi_cut=SpectralCut(int(kG), capG, float(gapG), bool(ambG)),
        membrane_modes=tuple(membrane), bending_modes=tuple(bending))


# -- classification ---------------------------------------------------------

def classify_mode(mode: RotationMode, grid: PeriodicGrid,
                  geometry: PeriodGeometry | None = None) -> str:
    """One of constant / membrane / bending / mixed / strain-free."""
    if geometry is None:
        geometry = grid.geometry
    s = mode_scale(mode, grid)
    if s == 0:
        return "strain-free"
    mean_w = np.mean(mode.w.reshape(-1, 3), axis=0)
    dev = np.sqrt(np.mean(np.sum((mode.w - mean_w) ** 2, axis=-1)))
    gf = mode.growth_fraction()
    if dev / s < 1e-10 and gf < 1e-10:
        return "constant"
    p_scale = np.linalg.norm(geometry.p1) ** 2 + np.linalg.norm(geometry.p2) ** 2
    E = effective_membrane_strain(mode, grid).E
    tol = STRAIN_TOL
    if gf > GROWTH_TOL:
        # fields with per-period growth are sampled one-sidedly at the seam,
        # which limits the quadrature of their lattice stretch to O(h) times
        # the growth magnitude
        gsize = np.sqrt(np.dot(mode.W1, mode.W1) + np.dot(mode.W2, mode.W2))
        tol = max(STRAIN_TOL, grid.h_max * gsize / s)
    has_E = np.linalg.norm(E) / (s * p_scale) > tol
    if gf > GROWTH_TOL:
        return "mixed" if has_E else "bending"
    return "membrane" if has_E else "strain-free"
