"""Constraint system and strain-form solver for the rotation-field formulation.

Unknowns are the rotation samples w (3 per node instance, so crease values
stay double-valued) plus two global 3-vectors What1, What2 holding the
growth of w over one full period in each direction.  Stored samples are
fundamental-domain values; wherever a stencil reaches past the periodic
seam the growth vector enters through the grid's wrap coefficients, so no
explicit wrap rows exist.

Row families, all scaled like first derivatives (O(1/h) entries):

  interior-PDE          at every node instance, one-sided at panel ends:
                        d2(w) x x1 - d1(w) x x2 = 0          (3 rows)
  crease-admissibility  per crease pair and cross node:
                        (w+ - w-) x t / hbar = 0, t the crease tangent
                        (3 rows, rank 2 by construction)
  panel-continuity      identity jump (w+ - w-) / hbar = 0 at smooth panel
                        joints, where the field cannot jump
  oscillation-control   scaled interior fourth differences along each
                        direction.  Centered first-derivative stencils
                        annihilate mesh-frequency checkerboards, which would
                        otherwise enter the numeric null set and fake strain
                        states no actual field reaches; these rows price
                        them out while staying exactly zero on fields that
                        are arc-wise cubic along grid lines (every closed-
                        form mode of the built-in families) and O(h^3)-small
                        on smooth fields.

The null set of these systems is large: besides the handful of modes with
nonzero effective strains it holds rigid rotations and a swarm of strain-free
oscillatory fields, so no basis of it is ever formed.  strain_forms instead
takes the best residual over the 6 growth coordinates and over the membrane
strain coordinates from one bordered KKT factorization per ridge (a weak
ridge for the residual levels, a strong one for the representative fields),
and dimension counts are taken on those strain images.  A threshold policy
cuts the levels at sigma/sigma_max: the automatic policy cuts at a
resolution-dependent cap and checks that the gap at the cut is decisive; an
indecisive gap is flagged, never silently resolved.
"""
from __future__ import annotations

from dataclasses import dataclass, field
import warnings

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import PeriodicGrid, display_lattice, display_positions

ROW_PDE = "interior-PDE"
ROW_CREASE = "crease-admissibility"
ROW_CONTINUITY = "panel-continuity"
ROW_OSCILLATION = "oscillation-control"

OSC_SCALE = 0.25         # weight of the checkerboard-control rows

SIGMA_DENSE_MAX = 1500   # dense SVD for sigma_max up to this min(shape)
SVDS_RETRY = {"ncv": 64, "maxiter": 2000}   # second ARPACK try, bounded

# default threshold-policy constants (calibrated on the built-in families;
# see tests/test_solver.py for the calibration evidence).  The cap scales
# like h, not h^2: per unit strain target, the residual of a discretized
# smooth mode is sigma * ||y|| ~ h^2 * h^-1, while the non-realizable band
# stays O(1), so a multiple of h separates the two at every resolution.
CAP_SCALE = 0.2          # cap on sigma/sigma_max is CAP_SCALE * h
GAP_MIN = 10.0           # spectral ratio at the cut for a decisive split

# strain_forms constants; the ridges are relative to sigma_max^2
EPS_REL = 1e-13          # weak ridge: the residual levels
REP_EPS_REL = 1e-7       # strong ridge: the representative fields
RANK_RTOL = 1e-10        # rows of the membrane map below this are dropped


class SolverError(RuntimeError):
    """A numerical step did not converge or lost all precision; there is no
    result to report."""


def cross_blocks(vs: np.ndarray) -> np.ndarray:
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


def _block_diag(blocks: np.ndarray) -> sp.bsr_matrix:
    n = blocks.shape[0]
    return sp.bsr_matrix((blocks, np.arange(n), np.arange(n + 1)),
                         shape=(3 * n, 3 * n))


def _column_block(blocks: np.ndarray) -> sp.bsr_matrix:
    """Stack n 3x3 blocks into a (3n, 3) column."""
    n = blocks.shape[0]
    return sp.bsr_matrix((blocks, np.zeros(n, dtype=int), np.arange(n + 1)),
                         shape=(3 * n, 3))


@dataclass
class ConstraintSystem:
    """Sparse row system over [w samples, What1, What2]."""

    matrix: sp.csr_matrix
    grid: PeriodicGrid
    segments: tuple[tuple[str, int, int], ...]
    _sigma_max: float | None = field(default=None, repr=False)

    @property
    def nrows(self) -> int:
        return self.matrix.shape[0]

    @property
    def nunknowns(self) -> int:
        return self.matrix.shape[1]

    @property
    def w_size(self) -> int:
        return 3 * self.grid.nnodes

    def row_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for tag, start, stop in self.segments:
            counts[tag] = counts.get(tag, 0) + (stop - start)
        return counts

    def sigma_max(self) -> float:
        if self._sigma_max is None:
            self._sigma_max = _largest_singular_value(self.matrix)
        return self._sigma_max

    def split(self, y: np.ndarray):
        """Split an unknown vector into (w field, What1, What2)."""
        n1, n2 = self.grid.shape
        w = np.asarray(y[: self.w_size], dtype=float).reshape(n1, n2, 3)
        return w, np.asarray(y[self.w_size:self.w_size + 3], dtype=float), \
            np.asarray(y[self.w_size + 3:], dtype=float)


def _largest_singular_value(A: sp.spmatrix) -> float:
    """Dense SVD up to the cap, else ARPACK retried once, never dense."""
    if min(A.shape) <= SIGMA_DENSE_MAX:
        return float(la.svdvals(A.toarray())[0])
    for opts in ({}, SVDS_RETRY):
        try:
            return float(spla.svds(A, k=1, return_singular_vectors=False,
                                   **opts)[0])
        except spla.ArpackNoConvergence as exc:
            err = exc
    raise SolverError(
        f"sigma_max of the {A.shape[0]} x {A.shape[1]} constraint matrix: "
        f"ARPACK did not converge ({err})") from err


def assemble_system(grid: PeriodicGrid) -> ConstraintSystem:
    """Build the full constraint matrix for one period of the chart."""
    n1, n2 = grid.shape
    n = grid.nnodes
    x1 = grid.x1.reshape(n, 3)
    x2 = grid.x2.reshape(n, 3)
    scale = max(np.abs(x1).max(), np.abs(x2).max())

    C1 = _block_diag(cross_blocks(x1))
    C2 = _block_diag(cross_blocks(x2))
    D1, wc1 = grid.derivative_operator(0)
    D2, wc2 = grid.derivative_operator(1)
    I3 = sp.identity(3, format="csr")
    Aw = (C1 @ sp.kron(D2, I3, format="csr")
          - C2 @ sp.kron(D1, I3, format="csr")).tocsr()

    # growth columns: only nodes whose stencils span the seam contribute
    def growth_col(wc, C):
        blocks = np.zeros((n, 3, 3))
        nz = np.flatnonzero(wc)
        if nz.size:
            blocks[nz] = wc[nz, None, None] * C[nz]
        return _column_block(blocks)

    B1 = growth_col(-wc1, cross_blocks(x2))
    B2 = growth_col(wc2, cross_blocks(x1))
    parts = [sp.hstack([Aw, B1, B2], format="csr")]
    segments: list[tuple[str, int, int]] = [(ROW_PDE, 0, 3 * n)]

    # jump rows at duplicated breakpoints
    blocks: list[np.ndarray] = []
    bcols: list[int] = []
    tags: list[str] = []
    eye3 = np.eye(3)
    for direction in (0, 1):
        axis = grid.axis(direction)
        cross_count = n2 if direction == 0 else n1
        for pair in axis.pairs:
            inv_h = 1.0 / pair.spacing
            for j in range(cross_count):
                if direction == 0:
                    kp = grid.node_index(pair.plus, j)
                    km = grid.node_index(pair.minus, j)
                    tangent = grid.x2[pair.plus, j]
                else:
                    kp = grid.node_index(j, pair.plus)
                    km = grid.node_index(j, pair.minus)
                    tangent = grid.x1[j, pair.plus]
                if pair.is_crease:
                    if np.linalg.norm(tangent) <= 1e-12 * scale:
                        raise ValueError(
                            f"degenerate crease tangent at breakpoint "
                            f"{pair.value} (direction {direction})")
                    R = cross_blocks(tangent)[0] * inv_h
                    tags.append(ROW_CREASE)
                else:
                    R = eye3 * inv_h
                    tags.append(ROW_CONTINUITY)
                blocks.extend((R, -R))
                bcols.extend((kp, km))

    if tags:
        nb = len(tags)
        P = sp.bsr_matrix((np.array(blocks), np.array(bcols),
                           2 * np.arange(nb + 1)), shape=(3 * nb, 3 * n))
        parts.append(sp.hstack([P, sp.csr_matrix((3 * nb, 6))], format="csr"))
        start = 3 * n
        run_tag, run_start = tags[0], start
        for t in tags[1:]:
            start += 3
            if t != run_tag:
                segments.append((run_tag, run_start, start))
                run_tag, run_start = t, start
        segments.append((run_tag, run_start, start + 3))

    # checkerboard control, applied to the cover field w + m * What
    offset = sum(p.shape[0] for p in parts)
    for direction in (0, 1):
        S, sw = grid.fourth_difference_operator(direction)
        m = S.shape[0]
        if m == 0:
            continue
        Sw = sp.kron(S, I3, format="csr") * (OSC_SCALE * scale)
        gblocks = np.zeros((m, 3, 3))
        nz = np.flatnonzero(sw)
        if nz.size:
            gblocks[nz] = (OSC_SCALE * scale * sw[nz])[:, None, None] * eye3
        gcol = _column_block(gblocks)
        zcol = sp.csr_matrix((3 * m, 3))
        cols = [Sw, gcol, zcol] if direction == 0 else [Sw, zcol, gcol]
        parts.append(sp.hstack(cols, format="csr"))
        segments.append((ROW_OSCILLATION, offset, offset + 3 * m))
        offset += 3 * m

    A = sp.vstack(parts, format="csr")
    return ConstraintSystem(matrix=A, grid=grid, segments=tuple(segments))


# -- threshold policy ----------------------------------------------------

@dataclass(frozen=True)
class ThresholdPolicy:
    """How to cut the singular spectrum into null / non-null.

    kind "fixed" cuts at sigma/sigma_max <= tau and is never ambiguous (the
    caller chose it).  kind "auto" cuts at CAP_SCALE * h and calls the cut
    decisive only when the spectral ratio across it is at least GAP_MIN;
    otherwise the result is flagged ambiguous.
    """

    kind: str = "auto"
    tau: float | None = None

    def __post_init__(self):
        if self.kind not in ("auto", "fixed"):
            raise ValueError(f"unknown threshold kind {self.kind!r}")
        if self.kind == "fixed" and self.tau is None:
            raise ValueError("fixed policy needs a tau")
        if self.tau is not None and not 0.0 < self.tau < 1.0:
            raise ValueError(
                f"threshold must be a finite number in (0, 1), got {self.tau}")

    @staticmethod
    def coerce(threshold) -> "ThresholdPolicy":
        """A policy from itself, "auto" or a fixed relative cut."""
        if isinstance(threshold, ThresholdPolicy):
            return threshold
        if threshold == "auto":
            return ThresholdPolicy()
        return ThresholdPolicy(kind="fixed", tau=float(threshold))

    def cut(self, rel: np.ndarray, h: float, floor: float):
        """Cut a sorted-ascending sigma/sigma_max array.

        Returns (count_below, cap, gap_ratio, ambiguous).
        """
        rel = np.asarray(rel, dtype=float)
        cap = self.tau if self.kind == "fixed" else CAP_SCALE * h
        k = int(np.searchsorted(rel, cap, side="right"))
        if k == 0:
            gap = float(rel[0] / cap) if rel.size else np.inf
        elif k == rel.size:
            gap = float(cap / max(rel[-1], floor))
        else:
            gap = float(rel[k] / max(rel[k - 1], floor))
        ambiguous = self.kind == "auto" and gap < GAP_MIN
        return k, float(cap), gap, ambiguous


# -- modes ----------------------------------------------------------------

@dataclass(frozen=True)
class RotationMode:
    """One rotation field: per-node samples plus growth per unit parameter."""

    w: np.ndarray          # (n1, n2, 3)
    W1: np.ndarray         # growth per unit xi1 (What1 / T1)
    W2: np.ndarray
    sigma: float

    def vector(self, grid: PeriodicGrid) -> np.ndarray:
        t1, t2 = grid.chart.period
        return np.concatenate([self.w.reshape(-1), self.W1 * t1, self.W2 * t2])

    def growth_fraction(self) -> float:
        """Share of the mode's norm carried by the growth vectors."""
        g = float(np.dot(self.W1, self.W1) + np.dot(self.W2, self.W2))
        total = float(np.sum(self.w * self.w)) + g
        return np.sqrt(g / total) if total > 0 else 0.0


def mode_from_vector(system: ConstraintSystem, y: np.ndarray) -> RotationMode:
    y = np.asarray(y, dtype=float)
    nrm = np.linalg.norm(y)
    if nrm == 0:
        raise ValueError("zero mode vector")
    y = y / nrm
    sigma = float(np.linalg.norm(system.matrix @ y))
    t1, t2 = system.grid.chart.period
    w, h1, h2 = system.split(y)
    return RotationMode(w=w, W1=h1 / t1, W2=h2 / t2, sigma=sigma)


def kernel_distance(system: ConstraintSystem, vectors,
                    threshold_rel: float) -> np.ndarray:
    """Distance from unit vectors to the sub-threshold singular subspace.

    Uses the spectral filter sigma^2/(sigma^2 + eps) with eps at the
    threshold, so no basis of the (large) null set is ever formed.  Accurate
    when the spectrum stays clear of the threshold by a decade or so.
    """
    A = system.matrix.tocsr()
    smax = system.sigma_max()
    eps = (threshold_rel * smax) ** 2
    G = (A.T @ A).tocsc()
    H = (G + eps * sp.identity(A.shape[1], format="csc")).tocsc()
    lu = spla.splu(H)
    vs = np.atleast_2d(np.asarray(vectors, dtype=float))
    out = []
    for v in vs:
        v = v / np.linalg.norm(v)
        b = G @ v
        z = lu.solve(b)
        z = z + lu.solve(b - H @ z)
        out.append(float(np.linalg.norm(z)))
    return np.array(out)


# -- constrained least-squares forms --------------------------------------

@dataclass(frozen=True)
class QuadraticSpace:
    """A small quadratic landscape q(c) = best residual^2 achieving c.

    Its square-root levels come ascending, with their c-directions as the
    columns of ``directions``.
    """

    levels: np.ndarray       # (m,) singular values of A @ minimizers
    directions: np.ndarray   # (m, m), orthonormal columns
    minimizers: np.ndarray   # (N, m)
    basis: np.ndarray        # (param_dim, m): c-coordinates -> natural ones
    eps: float

    def floor_sigma(self) -> float:
        """Regularization bias bound on the residual values."""
        norms = np.linalg.norm(self.minimizers, axis=0)
        return float(np.sqrt(self.eps) * norms.max(initial=1.0))


def _ridge_minimizers(A, G, C: np.ndarray, eps: float) -> np.ndarray:
    """Minimizers of ||A y||^2 + eps ||y||^2 subject to C y = e_i, every i.

    One sparse LU of the stationarity (KKT) system, one block solve over all
    unit right-hand sides with two refinement steps; the factorization is
    freed on return.
    """
    N = A.shape[1]
    k = C.shape[0]
    Cs = sp.csr_matrix(C)
    K = sp.bmat([[G + eps * sp.identity(N), Cs.T], [Cs, None]], format="csc")
    lu = spla.splu(K)
    b = np.zeros((N + k, k))
    b[N:] = np.eye(k)
    z = lu.solve(b)
    for _ in range(2):
        z = z + lu.solve(b - K @ z)
    return z[:N]


def _drop_leading_constraints(A, Y: np.ndarray, r: int,
                              eps: float) -> np.ndarray:
    """Release the first r constraints from the minimizers Y of C y = e_i.

    Column r + j of Y also pins the first r coordinates to zero; the best
    field with those free is Y[:, r + j] + Y[:, :r] d, d minimizing the
    regularized objective over the (r + 6)-dimensional span of Y.  An
    ill-conditioned Q[:r, :r] would give fields that break the rank bound,
    so it raises SolverError instead.
    """
    if r == 0:
        return Y
    AY = A @ Y
    Q = AY.T @ AY + eps * (Y.T @ Y)
    with warnings.catch_warnings():
        warnings.simplefilter("error", la.LinAlgWarning)
        try:
            D = la.solve(Q[:r, :r], -Q[:r, r:], assume_a="sym")
        except la.LinAlgWarning as exc:
            raise SolverError("releasing the membrane constraints lost all "
                              f"precision: {exc}") from exc
    return Y[:, r:] + Y[:, :r] @ D


def strain_forms(system: ConstraintSystem, L: np.ndarray):
    """Best residual over the growth and over the membrane coordinates.

    Returns (growth, membrane) QuadraticSpaces: the forms over the 6 growth
    coordinates and over the image coordinates of a linear map L (m, 3n) on
    w, the latter with fields kept strictly periodic.  Rank-deficient rows
    of L are projected out first; ``basis`` maps the surviving r coordinates
    back (r = 0 gives an empty membrane space).

    One KKT matrix per ridge, bordered by C = [L w; growth], serves both:
    its r + 6 unit solves are the membrane minimizers and, with the membrane
    rows released, the growth ones.  The Schur step is (r + 6)-sized; the
    ill-conditioned L (A^T A + eps I)^-1 L^T never forms.  The levels are
    the singular values of A times the minimizers, never square roots of
    their Gram form.  A near-vanishing ridge (EPS_REL) leaves the residuals
    essentially unbiased, but its minimizers wander deep into the
    strain-free continuum, so representative fields come from a stronger
    ridge (REP_EPS_REL) whose residuals are discarded.
    """
    A = system.matrix.tocsr()
    N = A.shape[1]
    ws = system.w_size
    L = np.atleast_2d(np.asarray(L, dtype=float))
    if L.shape[1] != ws:
        raise ValueError("row map width must be 3 * nnodes")
    U, sv, _ = la.svd(L, full_matrices=False)
    r = int(np.sum(sv > RANK_RTOL * sv[0])) if sv.size and sv[0] > 0 else 0
    Ur = U[:, :r]
    C = np.zeros((r + 6, N))
    C[:r, :ws] = Ur.T @ L
    C[r:, ws:] = np.eye(6)
    G = (A.T @ A).tocsr()
    lam = system.sigma_max() ** 2

    def minimizers(eps):
        Y = _ridge_minimizers(A, G, C, eps)
        return _drop_leading_constraints(A, Y, r, eps), Y[:, :r]

    def spectrum(Y):
        _, s, Vt = la.svd(A @ Y, full_matrices=False)
        return s[::-1], Vt[::-1].T

    eps = EPS_REL * lam
    (sg, Vg), (sm, Vm) = (spectrum(Y) for Y in minimizers(eps))
    Yg, Ym = minimizers(REP_EPS_REL * lam)
    return (QuadraticSpace(levels=sg, directions=Vg, minimizers=Yg,
                           basis=np.eye(6), eps=eps),
            QuadraticSpace(levels=sm, directions=Vm, minimizers=Ym,
                           basis=Ur, eps=eps))


# -- deflection recovery ---------------------------------------------------

@dataclass(frozen=True)
class DeflectionField:
    """Deflection samples on the display lattice, anchored to 0 at [0, 0]."""

    values: np.ndarray               # (r, c, 3)
    fundamental_shape: tuple[int, int]


def _cover_rotation(mode: RotationMode, grid: PeriodicGrid):
    """Rotation samples on the display lattice, growth offsets included."""
    ib, jb, e1, e2 = display_lattice(grid)
    t1, t2 = grid.chart.period
    m1 = grid.axis1.wrap_m[ib] + e1
    m2 = grid.axis2.wrap_m[jb] + e2
    w = mode.w[np.ix_(ib, jb)].astype(float)
    w = w + m1[:, None, None] * (t1 * mode.W1)
    w = w + m2[None, :, None] * (t2 * mode.W2)
    return w


def recover_deflection(mode: RotationMode, grid: PeriodicGrid,
                       order: str = "rows") -> DeflectionField:
    """Path-integrate d(deflection) = w x dx over the display lattice.

    Trapezoid increments along lattice edges; the spanning tree is the first
    column then each row ("rows") or the transpose ("cols").  Duplicated
    breakpoint nodes are zero-length edges and pick up no increment.
    """
    P = display_positions(grid)
    w = _cover_rotation(mode, grid)
    d0 = np.cross(0.5 * (w[1:] + w[:-1]), P[1:] - P[:-1])
    d1 = np.cross(0.5 * (w[:, 1:] + w[:, :-1]), P[:, 1:] - P[:, :-1])
    out = np.zeros_like(P)
    if order == "rows":
        out[1:, 0] = np.cumsum(d0[:, 0], axis=0)
        out[:, 1:] = out[:, :1] + np.cumsum(d1, axis=1)
    elif order == "cols":
        out[0, 1:] = np.cumsum(d1[0], axis=0)
        out[1:, :] = out[:1, :] + np.cumsum(d0, axis=0)
    else:
        raise ValueError(f"unknown integration order {order!r}")
    return DeflectionField(values=out, fundamental_shape=grid.shape)
