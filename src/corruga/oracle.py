"""Closed-form reference modes and independent identity checks.

The catalogue packages, for each built-in family, an exact admissible
rotation field, its deflection, the per-period growth vectors, and the
predicted effective tensors.  Everything is evaluated from exact piecewise
antiderivatives (profiles.py) and small closed-form means; none of it
touches the finite-difference machinery, so these objects can arbitrate
solver output.  Whether a sampled field solves the discrete system is the
solver's question (solver.kernel_distance), never asked here.

Catalogue ids:

* ``plane-bending``         quadratic bend of the flat chart
* ``corrugation-membrane``  lateral stretch of a simple corrugation
* ``corrugation-twist``     twist of a simple corrugation (linear growth)
* ``eggbox-membrane``       stretch/contract pair of a double corrugation
* ``miura-membrane``        stretch of the miura-like chart
* ``translation-twist``     twist of a translation surface (linear growth)
* ``sheared-membrane``      eggbox membrane composed with a lattice shear

Each entry is stated once: ``corrugation-twist`` is the translation twist on
the corrugation's curve pair, and ``sheared-membrane`` is the eggbox
membrane pulled back by the lattice shear eta = xi2 + gamma*xi1.  The one
table ``_CATALOGUE`` maps every id to its canonical chart and builder.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .chart import (TAU, SHEARED_DOUBLE_CORRUGATION, SpaceCurve,
                    SurfaceChart, builtin_chart, period_geometry)
from .grid import PeriodicGrid, cell_average
from .profiles import Profile
from .solver import RotationMode
from .strains import chi_from_growth, orthogonality_residual


@dataclass(frozen=True)
class AnalyticMode:
    """A closed-form admissible rotation field with its exact invariants.

    ``W1``/``W2`` are the growth per unit parameter shift (zero for strictly
    periodic fields).  ``E`` is the exact cell average of the induced lattice
    stretch over the fundamental period; ``chi`` the exact curvature tensor
    carried by the growth.
    """

    mode_id: str
    chart: SurfaceChart
    W1: np.ndarray
    W2: np.ndarray
    E: np.ndarray
    chi: np.ndarray
    _rotation: Callable = field(repr=False, compare=False)
    _deflection: Callable = field(repr=False, compare=False)

    def rotation(self, xi1, xi2, side=(1, 1)):
        """w at (xi1, xi2); ``side`` picks the panel on breakpoint lines."""
        xi1, xi2 = np.broadcast_arrays(np.asarray(xi1, dtype=float),
                                       np.asarray(xi2, dtype=float))
        return self._rotation(xi1, xi2, side)

    def deflection(self, xi1, xi2):
        """The deflection produced by the rotation field, up to a constant."""
        xi1, xi2 = np.broadcast_arrays(np.asarray(xi1, dtype=float),
                                       np.asarray(xi2, dtype=float))
        return self._deflection(xi1, xi2)

    @property
    def has_growth(self) -> bool:
        return bool(np.any(self.W1) or np.any(self.W2))


# -- per-id constructions -------------------------------------------------

def _plane_bending(chart):
    def rot(xi1, xi2, side):
        w = np.zeros(xi1.shape + (3,))
        w[..., 1] = -xi1
        return w

    def defl(xi1, xi2):
        out = np.zeros(xi1.shape + (3,))
        out[..., 2] = 0.5 * xi1 * xi1
        return out

    W1 = np.array([0.0, -1.0, 0.0])
    W2 = np.zeros(3)
    chi = chi_from_growth(W1, W2, period_geometry(chart))
    return rot, defl, W1, W2, np.zeros((2, 2)), chi


def _corrugation_membrane(chart):
    f = chart.f

    def rot(xi1, xi2, side):
        w = np.zeros(xi1.shape + (3,))
        w[..., 1] = f.slope(xi1, side[0])
        return w

    def defl(xi1, xi2):
        out = np.zeros(xi1.shape + (3,))
        out[..., 0] = f.running_slope_square(xi1)
        out[..., 2] = -f.value(xi1)
        return out

    E = np.diag([f.slope_mean_square(), 0.0])
    return rot, defl, np.zeros(3), np.zeros(3), E, np.zeros((2, 2))


def _eggbox_membrane(chart):
    f, g = chart.f, chart.g

    def rot(xi1, xi2, side):
        fs = f.slope(xi1, side[0])
        gs = g.slope(xi2, side[1])
        return np.stack([gs, fs, fs * gs], axis=-1)

    def defl(xi1, xi2):
        return np.stack([f.running_slope_square(xi1),
                         -g.running_slope_square(xi2),
                         g.value(xi2) - f.value(xi1)], axis=-1)

    E = np.diag([f.slope_mean_square(), -g.slope_mean_square()])
    return rot, defl, np.zeros(3), np.zeros(3), E, np.zeros((2, 2))


def _miura_membrane(chart):
    f, g = chart.f, chart.g

    def rot(xi1, xi2, side):
        fs = f.slope(xi1, side[0])
        gs = g.slope(xi2, side[1])
        return np.stack([-1.0 / gs, -fs / gs, -fs], axis=-1)

    def defl(xi1, xi2):
        return np.stack([f.running_slope_square(xi1),
                         xi2 - f.value(xi1),
                         -g.running_inverse_slope(xi2)], axis=-1)

    E = np.diag([f.slope_mean_square(), 1.0])
    return rot, defl, np.zeros(3), np.zeros(3), E, np.zeros((2, 2))


def _sminus(p: Profile | None, t):
    """Exact integral of (p - s p') from 0 to t; zero for a missing profile."""
    if p is None:
        return np.zeros_like(np.asarray(t, dtype=float))
    t = np.asarray(t, dtype=float)
    return 2.0 * p.value_integral(t) - t * p.value(t)


def _curve_swirl(curve: SpaceCurve, t):
    """Exact integral of c x c' from 0 to t for a single-component curve."""
    if curve.lateral is not None and curve.vertical is not None:
        raise ValueError("twist deflection in closed form needs curves with "
                         "a single profile component")
    sv = _sminus(curve.vertical, t)
    sl = _sminus(curve.lateral, t)
    zero = np.zeros_like(sv)
    if curve.axis == 0:
        comps = [zero, sv, -sl]
    else:
        comps = [-sv, zero, sl]
    return np.stack(comps, axis=-1)


def _curve_mean(curve: SpaceCurve, period: float) -> np.ndarray:
    """Mean of c over [0, period]; a straight line has no period of its own."""
    out = np.zeros(3)
    out[curve.axis] = 0.5 * period
    for p, k in ((curve.lateral, 1 - curve.axis), (curve.vertical, 2)):
        if p is not None:
            out[k] = p.value_integral(period) / period
    return out


def _translation_twist(chart):
    alpha, beta = chart.curves
    t1, t2 = chart.period
    geom = period_geometry(chart)

    def rot(xi1, xi2, side):
        return alpha.point(xi1) - beta.point(xi2)

    def defl(xi1, xi2):
        return (np.cross(alpha.point(xi1), beta.point(xi2))
                + _curve_swirl(alpha, xi1) - _curve_swirl(beta, xi2))

    W1 = np.array([1.0, 0.0, 0.0])
    W2 = np.array([0.0, -1.0, 0.0])
    chi = chi_from_growth(W1, W2, geom)

    # exact cell-averaged stretch from one-period means
    pdot1 = (_curve_swirl(alpha, t1) / t1
             + np.cross(geom.p1, _curve_mean(beta, t2)))
    pdot2 = (-_curve_swirl(beta, t2) / t2
             + np.cross(_curve_mean(alpha, t1), geom.p2))
    E = np.array([
        [np.dot(pdot1, geom.p1),
         0.5 * (np.dot(pdot1, geom.p2) + np.dot(pdot2, geom.p1))],
        [0.0, np.dot(pdot2, geom.p2)]])
    E[1, 0] = E[0, 1]
    return rot, defl, W1, W2, E, chi


def _sheared(build):
    """``build``'s periodic mode pulled back by eta = xi2 + gamma*xi1.

    The stretch tensor transforms by congruence, E -> S^T E S with
    S = [[1, 0], [gamma, 1]]; the mode must carry no growth.
    """
    def pulled(chart):
        rot, defl, W1, W2, E, chi = build(chart)
        gamma = chart.gamma
        S = np.array([[1.0, 0.0], [gamma, 1.0]])
        return (lambda xi1, xi2, side: rot(xi1, xi2 + gamma * xi1, side),
                lambda xi1, xi2: defl(xi1, xi2 + gamma * xi1),
                W1, W2, S.T @ E @ S, chi)
    return pulled


# id -> (canonical chart, builder); a mode accepts charts of its canonical
# chart's family
_CATALOGUE = {
    "plane-bending": (builtin_chart("plane"), _plane_bending),
    "corrugation-membrane": (builtin_chart("corrugation"),
                             _corrugation_membrane),
    "corrugation-twist": (builtin_chart("corrugation"), _translation_twist),
    "eggbox-membrane": (builtin_chart("eggbox"), _eggbox_membrane),
    "miura-membrane": (builtin_chart("miura"), _miura_membrane),
    "translation-twist": (builtin_chart("translation"), _translation_twist),
    "sheared-membrane": (SurfaceChart(SHEARED_DOUBLE_CORRUGATION, (TAU, TAU),
                                      builtin_chart("eggbox").profiles,
                                      gamma=1.0),
                         _sheared(_eggbox_membrane)),
}

MODE_IDS = tuple(_CATALOGUE)


def _entry(mode_id: str):
    if mode_id not in _CATALOGUE:
        raise ValueError(f"unknown analytic mode {mode_id!r}; "
                         f"choose from {', '.join(MODE_IDS)}")
    return _CATALOGUE[mode_id]


def canonical_chart(mode_id: str) -> SurfaceChart:
    """The default chart each catalogue entry is stated on."""
    return _entry(mode_id)[0]


def analytic_mode(mode_id: str, chart: SurfaceChart | None = None) -> AnalyticMode:
    """Build a catalogue entry on ``chart`` (default: its canonical chart)."""
    canonical, build = _entry(mode_id)
    if chart is None:
        chart = canonical
    if chart.family != canonical.family:
        raise ValueError(f"mode {mode_id!r} needs a {canonical.family!r} "
                         f"chart, got {chart.family!r}")
    rot, defl, W1, W2, E, chi = build(chart)
    return AnalyticMode(mode_id=mode_id, chart=chart, W1=W1, W2=W2,
                        E=E, chi=chi, _rotation=rot, _deflection=defl)


# -- grid sampling ---------------------------------------------------------

def sample_rotation(amode: AnalyticMode, grid: PeriodicGrid,
                    normalize: bool = True) -> RotationMode:
    """Evaluate the analytic rotation on the grid's node set.

    Breakpoint instances are evaluated with the side of the arc they belong
    to, matching how the grid samples chart partials.  sigma stays NaN: the
    oracle never applies the discrete operator (solver.kernel_distance does).
    """
    if grid.chart != amode.chart:
        raise ValueError("grid was built for a different chart")
    n1, n2 = grid.shape
    w = np.empty((n1, n2, 3))
    for s1 in (1, -1):
        rows = np.flatnonzero(grid.axis1.sides == s1)
        if rows.size == 0:
            continue
        for s2 in (1, -1):
            cols = np.flatnonzero(grid.axis2.sides == s2)
            if cols.size == 0:
                continue
            w[np.ix_(rows, cols)] = amode.rotation(
                grid.axis1.xi[rows, None], grid.axis2.xi[None, cols], (s1, s2))

    mode = RotationMode(w=w, W1=amode.W1.copy(), W2=amode.W2.copy(),
                        sigma=float("nan"))
    nrm = float(np.linalg.norm(mode.vector(grid)))
    if nrm == 0.0:
        raise ValueError("analytic mode sampled to zero")
    if not normalize:
        return mode
    scale = 1.0 / nrm
    return RotationMode(w=w * scale, W1=amode.W1 * scale,
                        W2=amode.W2 * scale, sigma=float("nan"))


# -- random periodic fields and the pairing identity ----------------------

@dataclass(frozen=True)
class TrigField:
    """A vector-valued trigonometric polynomial, periodic on the cell."""

    period: tuple[float, float]
    waves: np.ndarray   # (nk, 2) integer harmonics
    cos_c: np.ndarray   # (nk, 3)
    sin_c: np.ndarray   # (nk, 3)

    def sample(self, xi1, xi2):
        """The value and both partials (v, v_1, v_2) at (xi1, xi2).

        All three come from one phase table and one cos/sin pair.
        """
        k1 = TAU * self.waves[:, 0] / self.period[0]
        k2 = TAU * self.waves[:, 1] / self.period[1]
        th = (np.asarray(xi1, dtype=float)[..., None] * k1
              + np.asarray(xi2, dtype=float)[..., None] * k2)
        c = np.cos(th)
        s = np.sin(th, out=th)   # the phase table is not needed past here
        # the wavenumbers go into the coefficients, so no table is scaled
        k1, k2 = k1[:, None], k2[:, None]
        out = (c @ np.hstack([self.cos_c, k1 * self.sin_c, k2 * self.sin_c])
               + s @ np.hstack([self.sin_c, -k1 * self.cos_c,
                                -k2 * self.cos_c]))
        return out[..., :3], out[..., 3:6], out[..., 6:]

    def rms(self) -> float:
        # mean square over the cell is exactly half the coefficient energy
        # (plus the full energy of the constant term)
        const = ~self.waves.any(axis=1)
        e = 0.5 * (np.sum(self.cos_c[~const] ** 2) + np.sum(self.sin_c[~const] ** 2))
        e += np.sum(self.cos_c[const] ** 2)
        return float(np.sqrt(e))


def make_trig_field(seed: int, kmax: int = 5,
                    period: tuple[float, float] = (TAU, TAU)) -> TrigField:
    """Random band-limited periodic field with reproducible coefficients."""
    rng = np.random.default_rng(seed)
    k1, k2 = np.meshgrid(np.arange(-kmax, kmax + 1),
                         np.arange(0, kmax + 1), indexing="ij")
    keep = (k2 > 0) | ((k2 == 0) & (k1 >= 0))   # one representative per pair
    waves = np.column_stack([k1[keep], k2[keep]])
    decay = 1.0 / (1.0 + np.abs(waves).sum(axis=1))[:, None]
    cos_c = rng.standard_normal((len(waves), 3)) * decay
    sin_c = rng.standard_normal((len(waves), 3)) * decay
    sin_c[(waves == 0).all(axis=1)] = 0.0
    return TrigField(period=period, waves=waves, cos_c=cos_c, sin_c=sin_c)


def symmetry_lemma_check(chart: SurfaceChart, omega: TrigField, w: TrigField,
                         grid: PeriodicGrid) -> tuple[float, float]:
    """Both sides of the pairing identity mean<omega, D w> = mean<w, D omega>.

    D v = v_2 x x_1 - v_1 x x_2 with analytic field partials; only the cell
    average uses grid quadrature.  Needs a smooth chart so that every smooth
    periodic field is admissible.
    """
    if chart.panel_breakpoints(0) or chart.panel_breakpoints(1):
        raise ValueError("the pairing identity check needs a smooth chart")
    if grid.chart != chart:
        raise ValueError("grid was built for a different chart")
    X1 = grid.axis1.xi[:, None]
    X2 = grid.axis2.xi[None, :]

    def dop(v1, v2):
        return np.cross(v2, grid.x1) - np.cross(v1, grid.x2)

    ov, o1, o2 = omega.sample(X1, X2)
    wv, w1, w2 = w.sample(X1, X2)
    lhs = float(cell_average(np.einsum("ijk,ijk->ij", ov, dop(w1, w2)), grid))
    rhs = float(cell_average(np.einsum("ijk,ijk->ij", wv, dop(o1, o2)), grid))
    return lhs, rhs


# -- quadratic-limit check -------------------------------------------------

def scaling_limit_check(amode: AnalyticMode, probes=None,
                        eps_list=(0.25, 0.125, 0.0625, 0.03125),
                        seed: int = 0) -> np.ndarray:
    """Error of eps^2 xdot(xi/eps) against its quadratic limit, per eps.

    The limit is q(xi) = 1/2 xi_mu xi_nu W_nu x p_mu.  The error is the max
    over a fixed probe set; modes without growth have q = 0.
    """
    if probes is None:
        rng = np.random.default_rng(seed)
        probes = rng.uniform(-1.0, 1.0, size=(8, 2))
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    geom = period_geometry(amode.chart)
    q11 = np.cross(amode.W1, geom.p1)
    q12 = np.cross(amode.W2, geom.p1) + np.cross(amode.W1, geom.p2)
    q22 = np.cross(amode.W2, geom.p2)
    x1, x2 = probes[:, 0], probes[:, 1]
    limit = 0.5 * (x1[:, None] ** 2 * q11 + (x1 * x2)[:, None] * q12
                   + x2[:, None] ** 2 * q22)
    out = []
    for eps in eps_list:
        vals = eps * eps * amode.deflection(x1 / eps, x2 / eps)
        out.append(float(np.max(np.linalg.norm(vals - limit, axis=-1))))
    return np.array(out)


def fitted_rate(eps_list, errors) -> float:
    """Least-squares slope of log(error) against log(eps)."""
    e = np.asarray(errors, dtype=float)
    x = np.log(np.asarray(eps_list, dtype=float))
    if np.any(e <= 0):
        return float("inf")
    return float(np.polyfit(x, np.log(e), 1)[0])


# -- lattice shear covariance ----------------------------------------------

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
    p1 = np.array([1.0, gamma, 0.0])
    p2 = np.array([0.0, 1.0, 0.0])
    pdot1 = np.array([a, -gamma * b, 0.0])    # pdot1_0 + gamma pdot2_0
    pdot2 = np.array([0.0, -b, 0.0])
    E_direct = np.array([
        [np.dot(pdot1, p1), 0.5 * (np.dot(pdot1, p2) + np.dot(pdot2, p1))],
        [0.0, np.dot(pdot2, p2)]])
    E_direct[1, 0] = E_direct[0, 1]
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
