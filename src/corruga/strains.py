"""Effective strain tensors of rotation modes and their spans.

A periodic rotation field stretches the period vectors at rate
E_mn = sym <p_m, pdot_n> with pdot_n the period mean of w x x_n.  A field
with growth bends: chi_mn = sym <W_n x p_m, n> with W_a the growth per unit
parameter.  Spans of achievable E and chi obey dim{E} + dim{chi} <= 3, with
each achievable pair satisfying E11 chi22 - 2 E12 chi12 + E22 chi11 = 0.
Both tensors are one symmetric pairing over the lattice indices, _pairing,
which also builds membrane_row_map and growth_pairing (the oracle's scaling
limit reads the latter), so E and chi share one index convention.

effective_spaces finds the spans by minimizing the constraint residual
subject to hitting prescribed growth / strain coordinates, which needs no
null basis and scales to fine grids.  Basis rows and representative modes
carry a fixed sign: the leading entry of their vec_sym strain is positive.
cut is the one decision that turns the residual levels into dimensions.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
import math
from typing import NamedTuple

import numpy as np
import scipy.linalg as la

from .chart import PeriodGeometry
from .grid import PeriodicGrid, cell_average
from .solver import (ConstraintSystem, RotationMode, mode_from_vector,
                     strain_forms)

_SQRT2 = np.sqrt(2.0)

SIGN_LEAD = 0.1       # sign-fixing entry: the first at this share of the peak
SPAN_RTOL = 1e-9      # chi rows below this share of the largest are dropped
GROWTH_TOL = 1e-6     # growth share above which a mode bends
STRAIN_TOL = 1e-5     # relative E above which a mode stretches
POISSON_TOL = 1e-9    # relative denominator under which a ratio is undefined

# The default cut (calibrated on the built-in families; see
# tests/test_solver.py for the calibration evidence).  The cap scales like
# h, not h^2: per unit strain target, the residual of a discretized smooth
# mode is sigma * ||y|| ~ h^2 * h^-1, while the non-realizable band stays
# O(1), so a multiple of h separates the two at every resolution.  The
# levels sigma/sigma_max do not depend on the chart's length unit, so h is
# taken in units where one period is 2*pi, the builtins' own.
CAP_SCALE = 0.2       # cap on sigma/sigma_max is CAP_SCALE * h
GAP_MIN = 10.0        # spectral ratio at the cut for a decisive split
FLOOR_MIN = 1e-15     # least regularization floor a gap is taken against


def vec_sym(M) -> np.ndarray:
    """(M11, sqrt(2) M12, M22): Euclidean norm equals the Frobenius norm."""
    M = np.asarray(M, dtype=float)
    return np.array([M[0, 0], _SQRT2 * M[0, 1], M[1, 1]])


def unvec_sym(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    off = v[1] / _SQRT2
    return np.array([[v[0], off], [off, v[2]]])


def _as_matrix(T) -> np.ndarray:
    M = np.asarray(T, dtype=float)
    if M.shape != (2, 2):
        raise ValueError(f"expected a 2x2 tensor, got shape {M.shape}")
    return M


def _scale_parts(mode: RotationMode, grid: PeriodicGrid):
    """The two parts of mode_scale squared: the mean square of w over the
    nodes and the squared growth over one period, |W1 T1|^2 + |W2 T2|^2."""
    t1, t2 = grid.chart.period
    g = float(np.dot(mode.W1, mode.W1) * t1 * t1
              + np.dot(mode.W2, mode.W2) * t2 * t2)
    return np.mean(np.sum(mode.w ** 2, axis=-1)), g


def mode_scale(mode: RotationMode, grid: PeriodicGrid) -> float:
    """RMS size of the rotation field including its growth share."""
    w2, g = _scale_parts(mode, grid)
    return float(np.sqrt(w2 + g))


def growth_share(mode: RotationMode, grid: PeriodicGrid) -> float:
    """Share of mode_scale carried by the growth, sqrt(growth part / s^2);
    a ratio of per-node means, so it holds still under refinement."""
    w2, g = _scale_parts(mode, grid)
    return float(np.sqrt(g / (w2 + g))) if w2 + g > 0 else 0.0


def effective_membrane_strain(mode: RotationMode,
                              grid: PeriodicGrid) -> np.ndarray:
    """E of a mode, symmetric 2x2: E_mn = sym <p_m, mean(w x x_n)>.

    E is defined for periodic rotation fields; on a field with growth the
    formula is evaluated on its periodic part, e.g. for mixed-mode reporting.
    """
    return stretch_from_rates(cell_average(np.cross(mode.w, grid.x1), grid),
                              cell_average(np.cross(mode.w, grid.x2), grid),
                              grid.geometry)


def _pairing(f) -> np.ndarray:
    """The symmetric pairing over the lattice indices m, n = 0, 1:
    [[f(0, 0), (f(0, 1) + f(1, 0)) / 2], [the same, f(1, 1)]], for scalar,
    vector or array values of f."""
    off = 0.5 * (f(0, 1) + f(1, 0))
    return np.array([[f(0, 0), off], [off, f(1, 1)]])


def stretch_from_rates(pdot1, pdot2, geometry: PeriodGeometry) -> np.ndarray:
    """E from the period-mean rates pdot_n of the lattice tangents:
    E_mn = sym <p_m, pdot_n>."""
    p, pdot = (geometry.p1, geometry.p2), (pdot1, pdot2)
    return _pairing(lambda m, n: p[m] @ pdot[n])


def growth_pairing(W1, W2, geometry: PeriodGeometry) -> np.ndarray:
    """sym (W_n x p_m) over m, n, shape (2, 2, 3), from the growth W_n per
    unit parameter: chi is its normal component."""
    p, W = (geometry.p1, geometry.p2), (W1, W2)
    return _pairing(lambda m, n: np.cross(W[n], p[m]))


def chi_from_growth(W1, W2, geometry: PeriodGeometry) -> np.ndarray:
    """chi from per-unit growth vectors: chi_mn = sym <W_n x p_m, n>."""
    if np.linalg.norm(geometry.n) < 1e-12:
        raise ValueError("degenerate period geometry (p1 parallel to p2)")
    # np.dot takes each entry's 1-D dot with n; a stacked matmul sums in
    # another order
    return np.dot(growth_pairing(W1, W2, geometry), geometry.n)


def membrane_row_map(grid: PeriodicGrid) -> np.ndarray:
    """Linear map w samples -> (E11, sqrt2 E12, E22), dense (3, 3n).

    Row k uses the scalar triple <p, w x x> = w . (x cross p): the pairing
    of x_n x p_m at each node under the quadrature weights, so L @ w equals
    vec_sym(E(w)) to rounding (E averages the rates before it pairs).
    """
    c = (grid.weights / grid.cell_area).reshape(-1, 1)
    p = grid.geometry.p1, grid.geometry.p2
    x = grid.x1.reshape(-1, 3), grid.x2.reshape(-1, 3)
    R = _pairing(lambda m, n: np.cross(x[n], p[m]))
    return np.stack([c * R[0, 0], _SQRT2 * c * R[0, 1],
                     c * R[1, 1]]).reshape(3, -1)


# -- the orthogonality identity -------------------------------------------

def orthogonality_residual(E, chi) -> float:
    """E11 chi22 - 2 E12 chi12 + E22 chi11; zero on every admissible pair."""
    Em = _as_matrix(E)
    Cm = _as_matrix(chi)
    return float(Em[0, 0] * Cm[1, 1] - 2.0 * Em[0, 1] * Cm[0, 1]
                 + Em[1, 1] * Cm[0, 0])


def orthogonality_residual_rel(E, chi) -> float:
    """|residual| / (||E||_F ||chi||_F), safe for zero tensors."""
    Em = _as_matrix(E)
    Cm = _as_matrix(chi)
    den = np.linalg.norm(Em) * np.linalg.norm(Cm)
    if den == 0:
        return 0.0
    return abs(orthogonality_residual(Em, Cm)) / den


# -- Poisson ratios ---------------------------------------------------------

def poisson_ratios(E, chi) -> tuple[float | None, float | None]:
    """(nu_in, nu_out) = (-E22/E11, -chi22/chi11) in an orthonormal
    principal basis of E.

    Principal axes sorted by |eigenvalue| descending.  A ratio whose
    denominator is below POISSON_TOL (relative) is None, not invented.
    """
    Em = _as_matrix(E)
    Cm = _as_matrix(chi)
    En = np.linalg.norm(Em)
    if En <= POISSON_TOL:
        raise ValueError("zero membrane strain: principal basis undefined")
    evals, evecs = la.eigh(Em)
    order = np.argsort(-np.abs(evals))
    lam = evals[order]
    # the diagonal of chi in that basis does not depend on the axes' signs
    R = evecs[:, order]
    Cp = R.T @ Cm @ R
    nu_in = (float(-lam[1] / lam[0]) if abs(lam[0]) > POISSON_TOL * En
             else None)
    Cn = np.linalg.norm(Cm)
    nu_out = (float(-Cp[1, 1] / Cp[0, 0])
              if Cn > 0 and abs(Cp[0, 0]) > POISSON_TOL * Cn else None)
    return nu_in, nu_out


# -- the cut ----------------------------------------------------------------

class SpectralCut(NamedTuple):
    count: int
    cap: float
    gap: float
    ambiguous: bool


def parse_threshold(value) -> float | None:
    """The fixed relative cut a caller asked for; None for "auto" or None.

    Anything else must be a finite number in (0, 1).
    """
    if value is None or value == "auto":
        return None
    try:
        tau = float(value)
    except (TypeError, ValueError):
        tau = math.nan
    if not 0.0 < tau < 1.0:
        raise ValueError(f"threshold must be 'auto' or a finite number in "
                         f"(0, 1), got {value!r}")
    return tau


def cut(rel, h: float, floor, tau: float | None = None) -> SpectralCut:
    """Cut sorted-ascending sigma/sigma_max levels into achievable or not.

    The cap is CAP_SCALE * h, or ``tau`` when the caller fixed one.  The
    gap is the first level above the cap (the cap itself when every level
    is under it) over the last level under it, or over the cap when none
    is.  ``floor`` bounds the regularization bias of the levels, one value
    for all or one per level, and is taken as at least FLOOR_MIN; the
    gap's denominator is never taken below the largest floor of the levels
    under the cap, and the count does not depend on it.  An automatic cut
    is ambiguous when its gap is under GAP_MIN.  A fixed cut is ambiguous
    when its gap is under 1: the first level above it sits below the
    largest floor of the levels kept, so it cuts among levels that the
    regularization cannot tell apart.
    """
    rel = np.asarray(rel, dtype=float)
    floor = np.broadcast_to(np.maximum(floor, FLOOR_MIN), rel.shape)
    cap = CAP_SCALE * h if tau is None else tau
    k = int(np.searchsorted(rel, cap, side="right"))
    if k == 0:
        gap = float(rel[0] / cap) if rel.size else np.inf
    else:
        top = rel[k] if k < rel.size else cap
        gap = float(top / max(rel[k - 1], floor[:k].max()))
    return SpectralCut(k, float(cap), gap,
                       gap < (GAP_MIN if tau is None else 1.0))


# -- strain spaces ----------------------------------------------------------

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


def _spanning(stack: np.ndarray) -> list[int]:
    """Indices of the (k, 3) rows that each add to the span of the rows
    before them, ranks taken as in _orthonormal_rows: as many as it keeps."""
    tol = SPAN_RTOL * la.svdvals(stack)[0] if len(stack) else 0.0
    ranks = [0] + [int(np.sum(la.svdvals(stack[:k]) > tol))
                   for k in range(1, len(stack) + 1)]
    return [k for k in range(len(stack)) if ranks[k + 1] > ranks[k]]


def _tensors(rows) -> np.ndarray:
    """(k, 2, 2) symmetric tensors from (k, 3) vec_sym rows, k possibly 0."""
    return np.array([unvec_sym(r) for r in rows]).reshape(-1, 2, 2)


def effective_spaces(system: ConstraintSystem, h: float,
                     tau: float | None = None) -> StrainSpaces:
    """Strain spans straight from the constraint system, no null basis.

    Bending: the best-residual levels over the 6 growth coordinates; their
    directions under the cut are achievable, and chi is a linear function of
    growth alone.  Membrane: the analogous levels over (E11, E12, E22)
    subject to strict periodicity.  Both come from one solver.strain_forms
    call; representative modes come from its minimizers, one per basis row:
    a bending one whose chi adds nothing to the span of those before it is
    dropped.  ``h`` is the mesh spacing the analysis is judged at, in
    units where one period is 2*pi (PeriodicGrid.h_angle), and ``tau`` the
    fixed cut, if any (see cut).
    """
    grid = system.grid
    smax = system.sigma_max()

    def levels_cut(space):
        rel = space.levels / smax
        return rel, cut(rel, h, space.floor / smax, tau)

    def representatives(space, count, strain):
        """Sign-fixed modes along the first count directions, with their
        vec_sym strains as rows."""
        modes, strains = [], []
        for u in space.directions[:, :count].T:
            m = mode_from_vector(system, space.minimizers @ u)
            s = vec_sym(strain(m))
            if _leading_sign(s) < 0:
                m, s = _negated(m), -s
            modes.append(m)
            strains.append(s)
        return tuple(modes), np.array(strains).reshape(-1, 3)

    gs, ms = strain_forms(system, membrane_row_map(grid))
    chi_vals, chi_cut = levels_cut(gs)
    E_vals, E_cut = levels_cut(ms)
    bending, chis = representatives(
        gs, chi_cut.count, lambda m: chi_from_growth(m.W1, m.W2, grid.geometry))
    membrane, _ = representatives(
        ms, E_cut.count, lambda m: effective_membrane_strain(m, grid))
    chi_rows = _orthonormal_rows(chis)
    bending = tuple(bending[k] for k in _spanning(chis))
    E_rows = [_leading_sign(r) * r
              for r in (ms.basis @ ms.directions[:, :E_cut.count]).T]
    return StrainSpaces(
        E_basis=_tensors(E_rows), chi_basis=_tensors(chi_rows),
        dims=(E_cut.count, len(chi_rows)),
        E_values=E_vals, chi_values=chi_vals, E_cut=E_cut, chi_cut=chi_cut,
        membrane_modes=membrane, bending_modes=bending)


# -- classification ---------------------------------------------------------

def classify_mode(mode: RotationMode, grid: PeriodicGrid, h: float) -> str:
    """One of constant / membrane / bending / mixed / strain-free.

    ``h`` is the mesh spacing the analysis is judged at, which scales the
    stretch tolerance of a mode with growth.
    """
    geometry = grid.geometry
    s = mode_scale(mode, grid)
    if s == 0:
        return "strain-free"
    mean_w = np.mean(mode.w.reshape(-1, 3), axis=0)
    dev = np.sqrt(np.mean(np.sum((mode.w - mean_w) ** 2, axis=-1)))
    gf = growth_share(mode, grid)
    if dev / s < 1e-10 and gf < 1e-10:
        return "constant"
    p_scale = np.linalg.norm(geometry.p1) ** 2 + np.linalg.norm(geometry.p2) ** 2
    E = effective_membrane_strain(mode, grid)
    tol = STRAIN_TOL
    if gf > GROWTH_TOL:
        # fields with per-period growth are sampled one-sidedly at the seam,
        # which limits the quadrature of their lattice stretch to O(h) times
        # the growth magnitude
        gsize = np.sqrt(np.dot(mode.W1, mode.W1) + np.dot(mode.W2, mode.W2))
        tol = max(STRAIN_TOL, h * gsize / s)
    has_E = np.linalg.norm(E) / (s * p_scale) > tol
    if gf > GROWTH_TOL:
        return "mixed" if has_E else "bending"
    return "membrane" if has_E else "strain-free"
