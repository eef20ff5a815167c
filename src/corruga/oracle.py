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
table ``_CATALOGUE`` maps every id to its canonical chart's maker and its
builder; each canonical chart is built on first use, once per process.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Callable

import numpy as np

from .chart import (TAU, SHEARED_DOUBLE_CORRUGATION, SpaceCurve,
                    SurfaceChart, builtin_chart, period_geometry)
from .grid import PeriodicGrid, cell_average
from .profiles import Profile
from .solver import RotationMode
from .strains import chi_from_growth, growth_pairing, stretch_from_rates


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
        """w at (xi1, xi2); ``side`` picks the panel on breakpoint lines,
        a sign or an array of signs per parameter."""
        xi1, xi2 = np.broadcast_arrays(np.asarray(xi1, dtype=float),
                                       np.asarray(xi2, dtype=float))
        return self._rotation(xi1, xi2, side)

    def deflection(self, xi1, xi2):
        """The deflection produced by the rotation field, up to a constant."""
        xi1, xi2 = np.broadcast_arrays(np.asarray(xi1, dtype=float),
                                       np.asarray(xi2, dtype=float))
        return self._deflection(xi1, xi2)


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


def _sminus(p: Profile, t):
    """Exact integral of (p - s p') from 0 to t."""
    t = np.asarray(t, dtype=float)
    return 2.0 * p.value_integral(t) - t * p.value(t)


def _curve_swirl(curve: SpaceCurve, t):
    """Exact integral of c x c' from 0 to t for a single-component curve:
    its one part (p, k) has c x c' = (s p' - p) e_axis x e_k, which
    integrates to -sminus(p, t) e_axis x e_k; a straight line has none."""
    if len(curve.parts) > 1:
        raise ValueError("twist deflection in closed form needs curves with "
                         "a single profile component")
    out = np.zeros(np.shape(t) + (3,))
    e = np.eye(3)
    for p, k in curve.parts:
        out -= _sminus(p, t)[..., None] * np.cross(e[curve.axis], e[k])
    return out


def _curve_mean(curve: SpaceCurve, period: float) -> np.ndarray:
    """Mean of c over [0, period]; a straight line has no period of its own."""
    out = np.zeros(3)
    out[curve.axis] = 0.5 * period
    for p, k in curve.parts:
        out[k] = p.value_mean()
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
    E = stretch_from_rates(pdot1, pdot2, geom)
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


# id -> (canonical chart's maker, builder); a mode accepts charts of its
# canonical chart's family
_CATALOGUE = {
    "plane-bending": (lambda: builtin_chart("plane"), _plane_bending),
    "corrugation-membrane": (lambda: builtin_chart("corrugation"),
                             _corrugation_membrane),
    "corrugation-twist": (lambda: builtin_chart("corrugation"),
                          _translation_twist),
    "eggbox-membrane": (lambda: builtin_chart("eggbox"), _eggbox_membrane),
    "miura-membrane": (lambda: builtin_chart("miura"), _miura_membrane),
    "translation-twist": (lambda: builtin_chart("translation"),
                          _translation_twist),
    "sheared-membrane": (lambda: SurfaceChart(
                             SHEARED_DOUBLE_CORRUGATION, (TAU, TAU),
                             builtin_chart("eggbox").profiles, gamma=1.0),
                         _sheared(_eggbox_membrane)),
}

MODE_IDS = tuple(_CATALOGUE)


def _entry(mode_id: str):
    if mode_id not in _CATALOGUE:
        raise ValueError(f"unknown analytic mode {mode_id!r}; "
                         f"choose from {', '.join(MODE_IDS)}")
    return _CATALOGUE[mode_id]


@cache
def canonical_chart(mode_id: str) -> SurfaceChart:
    """The default chart each catalogue entry is stated on, built when it
    is first asked for and kept for the process."""
    return _entry(mode_id)[0]()


def analytic_mode(mode_id: str, chart: SurfaceChart | None = None) -> AnalyticMode:
    """Build a catalogue entry on ``chart`` (default: its canonical chart)."""
    build = _entry(mode_id)[1]
    canonical = canonical_chart(mode_id)
    if chart is None:
        chart = canonical
    if chart.family != canonical.family:
        raise ValueError(f"mode {mode_id!r} needs a {canonical.family!r} "
                         f"chart, got {chart.family!r}")
    rot, defl, W1, W2, E, chi = build(chart)
    return AnalyticMode(mode_id=mode_id, chart=chart, W1=W1, W2=W2,
                        E=E, chi=chi, _rotation=rot, _deflection=defl)


# -- grid sampling ---------------------------------------------------------

def sample_rotation(amode: AnalyticMode, grid: PeriodicGrid) -> RotationMode:
    """Evaluate the analytic rotation on the grid's node set, unscaled.

    Breakpoint instances are evaluated with the side of the arc they belong
    to, matching how the grid samples chart partials.  sigma stays NaN: the
    oracle never applies the discrete operator (solver.kernel_distance does,
    on the normalized vector).
    """
    if grid.chart != amode.chart:
        raise ValueError("grid was built for a different chart")
    a1, a2 = grid.axis1, grid.axis2
    w = amode.rotation(a1.xi[:, None], a2.xi[None, :],
                       (a1.sides[:, None], a2.sides[None, :]))
    mode = RotationMode(w=w, W1=amode.W1.copy(), W2=amode.W2.copy(),
                        sigma=float("nan"))
    if not np.any(mode.vector(grid)):
        raise ValueError("analytic mode sampled to zero")
    return mode


# -- random periodic fields and the pairing identity ----------------------

TRIG_KMAX = 5           # highest harmonic of make_trig_field per direction


@dataclass(frozen=True)
class TrigField:
    """A vector-valued trigonometric polynomial, periodic on the cell."""

    period: tuple[float, float]
    waves: np.ndarray   # (nk, 2) integer harmonics
    cos_c: np.ndarray   # (nk, 3)
    sin_c: np.ndarray   # (nk, 3)

    @property
    def amplitudes(self) -> np.ndarray:
        """One complex amplitude per harmonic, a = cos_c - i sin_c, so that
        the field is Re sum a exp(i (k1 xi1 + k2 xi2))."""
        return self.cos_c - 1j * self.sin_c

    def _tables(self, xi1, xi2):
        """The coefficients [a, i k1 a, i k2 a] as a (k1, k2, 9) array C over
        the distinct wavenumbers of each direction, and one exponential
        table per direction, E1 = exp(i xi1 k1) and E2 = exp(i xi2 k2), so
        the field and both partials are Re sum C E1 E2."""
        u1, i1 = np.unique(self.waves[:, 0], return_inverse=True)
        u2, i2 = np.unique(self.waves[:, 1], return_inverse=True)
        k1 = TAU * u1 / self.period[0]
        k2 = TAU * u2 / self.period[1]
        a = self.amplitudes
        C = np.zeros((u1.size, u2.size, 9), dtype=complex)
        np.add.at(C, (i1, i2), np.hstack([a, 1j * k1[i1, None] * a,
                                          1j * k2[i2, None] * a]))
        E1 = np.exp(1j * np.asarray(xi1, dtype=float)[..., None] * k1)
        E2 = np.exp(1j * np.asarray(xi2, dtype=float)[..., None] * k2)
        return C, E1, E2

    def sample(self, xi1, xi2):
        """The value and both partials (v, v_1, v_2) at (xi1, xi2),
        broadcasting over the inputs: T = E1 @ C at each xi1, then E2
        contracts T at each point.  The reference for ``planes``."""
        C, E1, E2 = self._tables(xi1, xi2)
        u1, u2 = C.shape[:2]
        T = (E1 @ C.reshape(u1, -1)).reshape(E1.shape[:-1] + (u2, 9))
        out = (E2[..., None, :] @ T)[..., 0, :].real
        return out[..., :3], out[..., 3:6], out[..., 6:]

    def planes(self, xi1, xi2, out=None) -> np.ndarray:
        """The value and both partials on the tensor grid xi1 x xi2 of two
        1-D axes, as component planes of shape (9, n1, n2): rows 0-2 hold
        v, 3-5 v_1 and 6-8 v_2.  They are written into ``out`` when given.

        E1 contracts C first, M = E1 @ C, and Re(M E2^T) is one real
        product of [Re M, -Im M] with [Re E2, Im E2]^T.
        """
        C, E1, E2 = self._tables(xi1, xi2)
        u1, u2 = C.shape[:2]
        n1, n2 = E1.shape[0], E2.shape[0]
        M = (E1 @ C.reshape(u1, -1)).reshape(n1, u2, 9).transpose(2, 0, 1)
        M = np.concatenate([M.real, -M.imag], axis=2).reshape(9 * n1, 2 * u2)
        E = np.concatenate([E2.real, E2.imag], axis=1)
        out = np.empty((9, n1, n2)) if out is None else out
        np.matmul(M, E.T, out=out.reshape(9 * n1, n2))
        return out

    def rms(self) -> float:
        # mean square over the cell is exactly half the coefficient energy
        # (plus the full energy of the constant term)
        energy = np.sum(np.abs(self.amplitudes) ** 2, axis=1)
        const = ~self.waves.any(axis=1)
        return float(np.sqrt(0.5 * np.sum(energy[~const])
                             + np.sum(energy[const])))


def make_trig_field(seed: int) -> TrigField:
    """Random periodic field on the (TAU, TAU) cell, harmonics up to
    TRIG_KMAX, with reproducible coefficients."""
    rng = np.random.default_rng(seed)
    k1, k2 = np.meshgrid(np.arange(-TRIG_KMAX, TRIG_KMAX + 1),
                         np.arange(0, TRIG_KMAX + 1), indexing="ij")
    keep = (k2 > 0) | ((k2 == 0) & (k1 >= 0))   # one representative per pair
    waves = np.column_stack([k1[keep], k2[keep]])
    decay = 1.0 / (1.0 + np.abs(waves).sum(axis=1))[:, None]
    cos_c = rng.standard_normal((len(waves), 3)) * decay
    sin_c = rng.standard_normal((len(waves), 3)) * decay
    sin_c[(waves == 0).all(axis=1)] = 0.0
    return TrigField(period=(TAU, TAU), waves=waves, cos_c=cos_c,
                     sin_c=sin_c)


def _det(a, b, c, out, tmp):
    """out = det(a, b, c) = <a, b x c> over (3, ...) component planes, as
    a0 (b1 c2 - b2 c1) + a1 (b2 c0 - b0 c2) + a2 (b0 c1 - b1 c0); ``tmp``
    holds two scratch planes."""
    for i, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.multiply(b[j], c[k], out=tmp[0])
        np.subtract(tmp[0], np.multiply(b[k], c[j], out=tmp[1]), out=tmp[0])
        if i == 0:
            np.multiply(a[i], tmp[0], out=out)
        else:
            out += np.multiply(a[i], tmp[0], out=tmp[0])
    return out


def lemma_scratch(grid: PeriodicGrid) -> np.ndarray:
    """Scratch planes for symmetry_lemma_check on ``grid``; one array
    serves every pair checked on that grid."""
    return np.empty((22,) + grid.shape)


def symmetry_lemma_check(chart: SurfaceChart, omega: TrigField, w: TrigField,
                         grid: PeriodicGrid,
                         scratch: np.ndarray | None = None) -> tuple[float, float]:
    """Both sides of the pairing identity mean<omega, D w> = mean<w, D omega>.

    D v = v_2 x x_1 - v_1 x x_2 with analytic field partials, so
    <u, D v> = det(u, v_2, x_1) - det(u, v_1, x_2); only the cell average
    uses grid quadrature.  Needs a smooth chart so that every smooth
    periodic field is admissible.  ``scratch`` (from lemma_scratch) holds
    the field planes and the determinants; a fresh one is used without it.
    """
    if chart.panel_breakpoints(0) or chart.panel_breakpoints(1):
        raise ValueError("the pairing identity check needs a smooth chart")
    if grid.chart != chart:
        raise ValueError("grid was built for a different chart")
    x1, x2 = np.moveaxis(grid.x1, -1, 0), np.moveaxis(grid.x2, -1, 0)
    buf = lemma_scratch(grid) if scratch is None else scratch
    dets, tmp = buf[18:20], buf[20:]

    def pair(u, v):
        _det(u[:3], v[6:], x1, dets[0], tmp)
        _det(u[:3], v[3:6], x2, dets[1], tmp)
        return float(cell_average(np.subtract(*dets, out=dets[0]), grid))

    po = omega.planes(grid.axis1.xi, grid.axis2.xi, out=buf[:9])
    pw = w.planes(grid.axis1.xi, grid.axis2.xi, out=buf[9:18])
    return pair(po, pw), pair(pw, po)


# -- quadratic-limit check -------------------------------------------------

# (xi1, xi2) points the finite-motion remainder is taken at
SCALING_PROBES = np.random.default_rng(0).uniform(-1.0, 1.0, size=(8, 2))


def scaling_limit_check(amode: AnalyticMode,
                        eps_list=(0.25, 0.125, 0.0625, 0.03125)) -> np.ndarray:
    """Error of eps^2 xdot(xi/eps) against its quadratic limit, per eps.

    The limit is q(xi) = 1/2 xi_m xi_n Q_mn with Q = growth_pairing, the
    sym(W_n x p_m) whose normal component is chi.  The error is the max
    over the fixed SCALING_PROBES; modes without growth have q = 0.
    """
    Q = growth_pairing(amode.W1, amode.W2, period_geometry(amode.chart))
    x1, x2 = SCALING_PROBES[:, 0], SCALING_PROBES[:, 1]
    limit = 0.5 * (x1[:, None] ** 2 * Q[0, 0]
                   + (x1 * x2)[:, None] * 2 * Q[0, 1]
                   + x2[:, None] ** 2 * Q[1, 1])
    diffs = [eps * eps * amode.deflection(x1 / eps, x2 / eps) - limit
             for eps in eps_list]
    return np.array([np.max(np.linalg.norm(d, axis=-1)) for d in diffs])


def fitted_rate(eps_list, errors) -> float:
    """Least-squares slope of log(error) against log(eps)."""
    e = np.asarray(errors, dtype=float)
    x = np.log(np.asarray(eps_list, dtype=float))
    if np.any(e <= 0):
        return float("inf")
    return float(np.polyfit(x, np.log(e), 1)[0])

