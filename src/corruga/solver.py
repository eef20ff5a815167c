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

assemble_system writes every row family's (row, col, value) triplets
straight from the grid's partials and stencil entries (int32 indices, and
only the 6 off-diagonal entries of each cross-product block) and
compresses them into CSR once.  Each value comes from the same
floating-point operations as the block formula C(x1)(D2 x I3) -
C(x2)(D1 x I3): one product, negated or not, and one difference where the
two derivative stencils meet at a node, so the matrix is that formula's
bit for bit.

The null set is large: besides the few modes with nonzero effective
strains it holds rigid rotations and a swarm of strain-free oscillatory
fields, so no basis of it is ever formed.  strain_forms instead takes the
best residual over the 6 growth coordinates and over the membrane strain
coordinates; the minimizers are the representative fields, and dims are
counted on their strain images.  One pipeline computes them:

  gather  H = A_w^T A_w + eps I splits by the group of the grid's
          involutions, each a signed permutation of the unknowns, into one
          block per class of the group (H itself without one), and the
          membrane coordinates split with it.  The candidates come from the
          open axes: the reversals about each breakpoint and each arc
          midpoint, and the glides (half a period along one axis, the other
          reversed).  A midpoint reversal fixes nodes, and a class keeps
          only the fixed components its signs allow, so blocks differ in
          size.  Closed axes give no candidate.  All blocks share one
          node-orbit graph, put once in reverse Cuthill-McKee order, and
          each is gathered straight into it.
  solve   one block at a time: LAPACK's banded Cholesky (dpbtrf) factors
          the band, and triangular solves with the factor (dtbtrs) give the
          block's growth columns and membrane coordinates, the membrane
          constraints through a thin QR of the factor's solve of them.
  refine  one refinement step, after which the factor is freed before the
          next block is gathered.

Those factors are the module's only factorizations: kernel_distance
certifies a sampled field by its residual, one sparse product.  strains.cut
decides which levels count as achievable.
"""
from __future__ import annotations

from dataclasses import dataclass, field
import os

import numpy as np
import scipy.linalg as la
from scipy.linalg import lapack
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import PeriodicGrid, display_cover, display_positions

ROW_PDE = "interior-PDE"
ROW_CREASE = "crease-admissibility"
ROW_CONTINUITY = "panel-continuity"
ROW_OSCILLATION = "oscillation-control"

OSC_SCALE = 0.25         # weight of the checkerboard-control rows

ARPACK_RETRY = {"ncv": 64, "maxiter": 2000}  # second ARPACK try, bounded

# strain_forms constants; the ridge is relative to sigma_max^2
EPS_REL = 1e-13          # ridge of the one KKT system
RANK_RTOL = 1e-10        # membrane map rank, of its max row norm
MIRROR_RTOL = 1e-13      # relative gap up to which u, x1, x2, H, L mirror
PROJ_RTOL = 1e-12        # a growth column's share that a block solves


class SolverError(RuntimeError):
    """A numerical step did not converge or lost all precision; there is no
    result to report."""


# the six off-diagonal entries C[r, a] = sign * v[k] of the cross block C(v),
# C @ u = u x v, one column per entry
_CROSS_ROW = np.array([0, 0, 1, 1, 2, 2], dtype=np.int32)
_CROSS_COL = np.array([1, 2, 0, 2, 0, 1], dtype=np.int32)
_CROSS_K = np.array([2, 1, 2, 0, 1, 0])
_CROSS_SIGN = np.array([1.0, -1.0, -1.0, 1.0, 1.0, -1.0])
_EYE = np.arange(3, dtype=np.int32)


def _cross_entries(brows, bcols, vs, coef):
    """Triplets of the 3x3 blocks coef[e] * C(vs[e]) at block (brows[e],
    bcols[e]); each value is sign * (v[k] * coef[e]).  The entries that are
    zero, wherever a component of v is, are left out."""
    vals = ((vs * coef[:, None])[:, _CROSS_K] * _CROSS_SIGN).ravel()
    keep = vals != 0
    return ((3 * brows[:, None] + _CROSS_ROW).ravel()[keep],
            (3 * bcols[:, None] + _CROSS_COL).ravel()[keep], vals[keep])


def _identity_entries(brows, bcols, vals):
    """Triplets of the 3x3 blocks vals[e] * I at block (brows[e], bcols[e])."""
    return ((3 * brows[:, None] + _EYE).ravel(),
            (3 * bcols[:, None] + _EYE).ravel(), np.repeat(vals, 3))


@dataclass
class ConstraintSystem:
    """Sparse row system over [w samples, What1, What2]."""

    matrix: sp.csr_matrix
    grid: PeriodicGrid
    rows: dict[str, int]             # row count per row family
    _sigma_max: float | None = field(default=None, repr=False)

    @property
    def nunknowns(self) -> int:
        return self.matrix.shape[1]

    @property
    def w_size(self) -> int:
        return 3 * self.grid.nnodes

    def row_counts(self) -> dict[str, int]:
        return dict(self.rows)

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


def _largest_singular_value(A: sp.csr_matrix) -> float:
    """sigma_max as the root of the largest eigenvalue of A^T A, from one
    ARPACK Lanczos run on x -> A^T (A x) (A A^T when A is wide), retried
    once; never a dense SVD.  Its Ritz residual stops at sqrt(eps): for a
    symmetric operator the Ritz value's error is about the residual squared
    over the spectral gap (Kato-Temple), so sigma_max^2 is already at
    rounding.

    Raises SolverError when neither try succeeds, whatever ARPACK error
    each raised.
    """
    rows, cols = A.shape
    At = A.T                     # CSR's transpose is a CSC view, no copy
    if rows < cols:
        A, At = At, A
    n = A.shape[1]
    gram = spla.LinearOperator((n, n), matvec=lambda x: At @ (A @ x),
                               dtype=A.dtype)
    # a fixed start makes repeated calls agree to the bit; not a constant
    # one, which is orthogonal to the checkerboard top singular vector
    v0 = np.random.default_rng(0).standard_normal(n)
    for opts in ({}, ARPACK_RETRY):
        try:
            top = spla.eigsh(gram, k=1, which="LA", v0=v0,
                             tol=np.sqrt(np.finfo(float).eps),
                             return_eigenvectors=False, **opts)[0]
            return float(np.sqrt(top))
        except spla.ArpackError as exc:
            err = exc
    raise SolverError(
        f"sigma_max of the {rows} x {cols} constraint matrix: "
        f"ARPACK failed ({err})") from err


def assemble_system(grid: PeriodicGrid) -> ConstraintSystem:
    """Build the full constraint matrix for one period of the chart.

    Every row family writes its (row, col, value) triplets from the grid's
    partials and stencil entries, with int32 indices; the CSR matrix is
    built once from them.  The unknowns' block column of node k holds
    columns 3k..3k+2, and What1, What2 are block columns n and n + 1.
    """
    n1, n2 = grid.shape
    n = grid.nnodes
    x1 = grid.x1.reshape(n, 3)
    x2 = grid.x2.reshape(n, 3)
    scale = max(np.abs(x1).max(), np.abs(x2).max())

    # interior rows C(x1) D2 w - C(x2) D1 w: where D1 and D2 meet at a node
    # the CSR build sums the two products
    i1, k1, d1, wc1 = grid.stencil_entries(0)
    i2, k2, d2, wc2 = grid.stencil_entries(1)
    node = np.arange(n, dtype=np.int32).reshape(n1, n2)
    parts = [_cross_entries(i2, k2, x1[i2], d2),
             _cross_entries(i1, k1, x2[i1], -d1),
             # growth columns, nonzero only where a stencil spans the seam
             _cross_entries(node.ravel(), np.full(n, n, np.int32), x2, -wc1),
             _cross_entries(node.ravel(), np.full(n, n + 1, np.int32), x1, wc2)]
    rows = {ROW_PDE: 3 * n}
    brow = n   # next block row

    # jump rows at duplicated breakpoints, one pair at a time; a pair's
    # cross nodes run along the other direction, whose tangent is the crease
    for direction, along in ((0, grid.x2), (1, grid.x1)):
        for pair in grid.axis(direction).pairs:
            kp = np.take(node, pair.plus, axis=direction)
            km = np.take(node, pair.minus, axis=direction)
            b = np.arange(brow, brow + kp.size, dtype=np.int32)
            inv_h = np.full(kp.size, 1.0 / pair.spacing)
            if pair.is_crease:
                tangents = np.take(along, pair.plus, axis=direction)
                if np.any(np.linalg.norm(tangents, axis=1) <= 1e-12 * scale):
                    raise ValueError(
                        f"degenerate crease tangent at breakpoint "
                        f"{pair.value} (direction {direction})")
                parts += [_cross_entries(b, kp, tangents, inv_h),
                          _cross_entries(b, km, tangents, -inv_h)]
                tag = ROW_CREASE
            else:
                parts += [_identity_entries(b, kp, inv_h),
                          _identity_entries(b, km, -inv_h)]
                tag = ROW_CONTINUITY
            rows[tag] = rows.get(tag, 0) + 3 * kp.size
            brow += kp.size

    # checkerboard control, applied to the cover field w + m * What
    weight = OSC_SCALE * scale
    for direction in (0, 1):
        r, k, s, sw = grid.stencil_entries(direction, 4)
        if sw.size == 0:
            continue
        seam = np.flatnonzero(sw).astype(np.int32)
        parts += [_identity_entries(brow + r, k, s * weight),
                  _identity_entries(brow + seam,
                                    np.full(seam.size, n + direction, np.int32),
                                    weight * sw[seam])]
        rows[ROW_OSCILLATION] = rows.get(ROW_OSCILLATION, 0) + 3 * sw.size
        brow += sw.size

    # a sum where D1 and D2 meet can still cancel
    rr, cc, vv = (np.concatenate(t) for t in zip(*parts))
    A = sp.csr_matrix((vv, (rr, cc)), shape=(3 * brow, 3 * n + 6))
    A.eliminate_zeros()
    return ConstraintSystem(matrix=A, grid=grid, rows=rows)


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
    """Upper bound on the distance from unit vectors to the span of the
    right singular vectors with sigma <= threshold_rel * sigma_max.

    Every component above the threshold adds at least threshold_rel *
    sigma_max to ||A v||, so min(1, ||A v|| / (threshold_rel * sigma_max))
    bounds that distance for any spectrum; one sparse product serves all
    vectors, and no basis of the (large) null set is ever formed.  Raises
    ValueError for a zero or non-finite vector, and for a threshold_rel
    that is not a finite number in (0, 1).
    """
    if not 0.0 < threshold_rel < 1.0:
        raise ValueError(f"threshold_rel must be a finite number in (0, 1), "
                         f"got {threshold_rel!r}")
    vs = np.atleast_2d(np.asarray(vectors, dtype=float))
    norms = np.linalg.norm(vs, axis=1, keepdims=True)
    if not np.all(np.isfinite(norms) & (norms > 0.0)):
        raise ValueError("kernel_distance needs finite nonzero vectors")
    vs = vs / norms
    residual = np.linalg.norm(system.matrix @ vs.T, axis=0)
    return np.minimum(1.0, residual / (threshold_rel * system.sigma_max()))


# -- constrained least-squares forms --------------------------------------

@dataclass(frozen=True)
class QuadraticSpace:
    """A small quadratic landscape q(c) = best residual^2 achieving c.

    Its square-root levels come ascending, with their c-directions as the
    columns of ``directions``.  ``floor`` bounds each level's regularization
    bias: sqrt(eps) times the norm of its minimizer.  It is per level, since
    the minimizers of non-achievable directions wander into the strain-free
    continuum and grow with resolution; strains.cut reads only those under
    the cap.  ``basis`` has orthonormal columns; the membrane space's is
    the parity-split basis of strain_forms.
    """

    levels: np.ndarray       # (m,) singular values of A @ minimizers
    directions: np.ndarray   # (m, m), orthonormal columns
    minimizers: np.ndarray   # (N, m)
    basis: np.ndarray        # (param_dim, m): c-coordinates -> natural ones
    floor: np.ndarray        # (m,) regularization bias bound per level


@dataclass(frozen=True)
class _Involution:
    """A kept symmetry: the signed permutation (perm, sign) of the unknowns,
    (P w)[z] = sign[z] w[perm[z]], and the sign of each membrane row under
    it, L P = diag(rows) L."""

    perm: np.ndarray
    sign: np.ndarray
    rows: np.ndarray


def _onto(a, image: np.ndarray, orient: float) -> bool:
    """Whether the node map k -> image[k] of axis a moves nodes onto nodes:
    a reversal (orient -1) when u[image] + u is one value mod T, a shift
    (orient +1) when u[image] - u is T/2 mod T, to MIRROR_RTOL of T."""
    d = a.u[image] - orient * a.u
    d -= d[0] if orient < 0 else 0.5 * a.period
    return (np.abs(d - a.period * np.round(d / a.period)).max()
            <= MIRROR_RTOL * a.period)


def _candidates(grid: PeriodicGrid):
    """Yield the signed permutations (perm, sign) of the unknowns that map
    the grid onto itself, in one fixed order, each distinct node map once:
      - on each open axis, the reversal k -> c - k (mod n) about each
        breakpoint, c = minus + plus of its pair;
      - on each open axis, the reversal about each arc midpoint, c = start
        + end of the arc, which fixes the nodes with 2k = c (mod n);
      - on two open axes, each glide: one axis shifted by half its period,
        the other reversed about its first breakpoint.
    Closed axes give none: there a reversal about a node or a half-node
    would split the cell into small blocks with no band gain.

    The screen reads 1-D samples: every chart is a translation surface, so
    x1 varies only along xi1 and x2 only along xi2.  A node map pi_a of
    each axis, with orientation o_a (-1 reverses), is a symmetry when it
    moves nodes onto nodes (_onto) and x_a(pi_a k) = o_a M x_a(k) on both
    axes for one diagonal M of signs; component c of every node is signed
    by M[c] (w is a pseudovector).  P keeps each unknown's component.
    """
    axes = (grid.axis1, grid.axis2)
    samples = (grid.x1[:, 0], grid.x2[0])
    tol = MIRROR_RTOL * max(np.abs(x).max() for x in samples)
    opened = [d for d in (0, 1) if not axes[d].closed]

    def reversal(d, c):
        return (c - np.arange(axes[d].n)) % axes[d].n, -1.0

    def centres(d):
        p = axes[d].pairs
        return ([q.minus + q.plus for q in p],
                [q.plus + r.minus for q, r in zip(p, p[1:] + p[:1])])

    moves = [{d: reversal(d, c)} for kind in (0, 1) for d in opened
             for c in centres(d)[kind]]
    if len(opened) == 2:
        for d, e in ((0, 1), (1, 0)):
            first = axes[e].pairs[0]
            moves += [{d: ((np.arange(axes[d].n) + q.plus) % axes[d].n, 1.0),
                       e: reversal(e, first.minus + first.plus)}
                      for q in axes[d].pairs[1:]]
    seen = set()
    for move in moves:
        maps = [move.get(d, (np.arange(a.n), 1.0)) for d, a in enumerate(axes)]
        key = b"".join(image.tobytes() for image, _ in maps)
        if key in seen or not all(_onto(axes[d], *move[d]) for d in move):
            continue
        seen.add(key)
        signs = []
        for c in range(3):
            fits = [s for s in (1.0, -1.0)
                    if all(np.abs(x[image, c] - o * s * x[:, c]).max() <= tol
                           for x, (image, o) in zip(samples, maps))]
            if not fits:
                break
            signs.append(fits[0])
        else:
            image = maps[0][0][:, None] * axes[1].n + maps[1][0]
            yield ((3 * image.reshape(-1, 1) + np.arange(3)).ravel(),
                   np.tile(signs, grid.nnodes))


def _commutes(H, perm: np.ndarray, sign: np.ndarray) -> bool:
    """Whether the signed permutation (P w)[i] = sign[i] w[perm[i]], a
    symmetric involution, satisfies P^T H P = H entrywise to MIRROR_RTOL of
    max|H|.  H must be symmetric and CSC.

    Then P^T H P - H = P (H P - (H P)^T), and P only moves and signs
    entries, so one gather decides it: column j of H P is
    sign[j] H[:, perm[j]].
    """
    HP = H[:, perm]
    HP.data *= np.repeat(sign, np.diff(HP.indptr))
    return abs(HP - HP.T).max() <= MIRROR_RTOL * np.abs(H.data).max()


def _parity_range(B: np.ndarray, scale: float) -> np.ndarray:
    """Orthonormal basis of B's range: its left singular vectors whose
    singular values exceed RANK_RTOL * scale, the one rank rule of the
    membrane rows."""
    U, s, _ = la.svd(B, full_matrices=False)
    return U[:, s > RANK_RTOL * scale]


def _row_signs(L: np.ndarray, perm: np.ndarray, sign: np.ndarray):
    """The signs s with L P = diag(s) L to MIRROR_RTOL of max|L|, P as in
    _commutes, or None when a row of L is neither even nor odd under P.  A
    zero row is taken as even.  (L P)[:, j] is sign[j] L[:, perm[j]]."""
    LP = L[:, perm] * sign
    tol = MIRROR_RTOL * np.abs(L).max(initial=0.0)
    s = np.where(np.abs(LP - L).max(axis=1, initial=0.0) <= tol, 1.0, -1.0)
    if np.abs(LP - s[:, None] * L).max(initial=0.0) > tol:
        return None
    return s


def _group(H, grid: PeriodicGrid, L: np.ndarray):
    """The kept involutions and the orbits and signs they generate.

    A candidate (_candidates) is kept when it commutes with H (_commutes),
    has a row-sign record on L (_row_signs), commutes with every involution
    kept before it, and enlarges the orbits.  Returns (kept, rep, word,
    sig, stab), from one pass per kept involution P_i:
      - rep[z] is the least index of z's orbit;
      - word[z] has bit i set when the path from rep[z] to z takes P_i,
        and sig[z] = +-1 is the sign that path carries: e_z = sig[z] g
        e_rep for g the product of those P_i;
      - stab lists (idx, mask, val): where P_i maps an orbit onto itself,
        the product of the P_i in mask fixes idx's representative with
        sign val, so a class chi keeps that orbit only if chi(mask) = val.
    """
    z = np.arange(H.shape[0])
    rep, word, sig = z, np.zeros_like(z), np.ones(z.size)
    kept, stab = [], []
    for perm, sign in _candidates(grid):
        if not _commutes(H, perm, sign):
            continue
        rows = _row_signs(L, perm, sign)
        to = rep[perm]
        if rows is None or not all(
                np.array_equal(k.perm[perm], perm[k.perm])
                and np.array_equal(k.sign[perm] * sign, k.sign * sign[k.perm])
                for k in kept) or np.array_equal(to, rep):
            continue
        bit = 1 << len(kept)
        same = np.flatnonzero(to == rep)
        if same.size:
            stab.append((same, word[same] ^ word[perm[same]] ^ bit,
                         sig[same] * sign[same] * sig[perm[same]]))
        joins = to < rep
        word = np.where(joins, word[perm] ^ bit, word)
        sig = np.where(joins, sign * sig[perm], sig)
        rep = np.minimum(rep, to)
        kept.append(_Involution(perm, sign, rows))
    return kept, rep, word, sig, stab


def _character(a: int, words: np.ndarray) -> np.ndarray:
    """The class a's sign on group elements given as bit words: -1 to the
    number of involutions both name."""
    return np.where(np.bitwise_count(words & a) & 1, -1.0, 1.0)


def _symmetry_blocks(H, grid: PeriodicGrid, L: np.ndarray):
    """Yield (Q_k, H_k = Q_k^T H Q_k) for each class of the group that the
    kept involutions generate (_group), each gathered only when asked for,
    in band order (Bossavit, Comput. Methods Appl. Mech. Engrg. 56, 1986;
    Fassler & Stiefel, Group Theoretical Methods and Their Applications,
    1992).

    The involutions come from the open axes (_candidates): reversals
    about breakpoints and arc midpoints, and half-period glides; closed
    axes give none yet.  m kept involutions give 2^m classes, class a with
    sign chi_a(P_i) = (-1)^(bit i of a).  Q_k has one column per orbit O of an unknown that
    the class keeps: the orbit's unknowns z with t(z) = sig[z] chi_a(word[z])
    over sqrt|O|.  A class drops each orbit whose stabilizer contradicts
    it, such as a component that an involution fixing its node signs the
    other way, so blocks differ in size.  The Q_k are orthogonal and H maps
    each one's span into itself, so H^-1 = sum_k Q_k H_k^-1 Q_k^T and the
    L Q_k have orthogonal ranges.  H_k is CSC, gathered from H's
    representative rows, entry (O_i, O_j) scaled by sqrt(|O_i| / |O_j|),
    and symmetrized.  Every class shares the _node_order of the node-orbit
    graph: orbit q's unknowns are columns 3 pos[q] + (0, 1, 2), less the
    columns the class drops.
    """
    kept, rep, word, sig, stab = _group(H, grid, L)
    classes = list(np.ndindex((2,) * len(kept)))
    del kept        # the classes need only the orbits and their signs
    z = np.arange(H.shape[0])
    size = np.bincount(rep)[rep]                            # |z's orbit|
    _, orbit = np.unique(rep // 3, return_inverse=True)    # z's node orbit
    nk = 3 * (orbit.max() + 1)
    # H's entries in representative rows, and their graph of node orbits
    e = (rep == z)[H.indices]
    rows, vals = H.indices[e], H.data[e]
    cols = np.repeat(z, np.diff(H.indptr))[e]
    if np.ptp(size):
        vals = vals * np.sqrt(size[rows] / size[cols])
    N = sp.csr_matrix((np.ones_like(vals), (orbit[rows], orbit[cols])),
                      shape=(nk // 3, nk // 3))
    col = 3 * np.argsort(_node_order(N))[orbit] + z % 3  # column of z's orbit
    rows = col[rows]

    for parity in classes:
        a = sum(bit << i for i, bit in enumerate(parity))
        t = sig * _character(a, word)
        keeps = np.ones(z.size, dtype=bool)
        for idx, mask, val in stab:
            keeps[idx] &= _character(a, mask) == val
        K = sp.csc_matrix((vals * t[cols], (rows, col[cols])), shape=(nk, nk))
        Q = sp.csc_matrix((t / np.sqrt(size), (z, col)), shape=(z.size, nk))
        if not keeps.all():
            live = np.ones(nk, dtype=bool)
            live[col[~keeps]] = False
            K, Q = K[:, live][live], Q[:, live]
        yield Q, ((K + K.T) * 0.5).tocsc()


def _node_order(N) -> np.ndarray:
    """Reverse Cuthill-McKee order of the node graph N, taken as N + N^T
    (Cuthill & McKee, ACM 1969; George & Liu, 1981).

    A block's node orbits tile a fraction of the cell, with reflecting or
    glide-joined ends and no wrap, and H couples nodes at most 4 apart
    along each axis, so this order makes each block a narrow band.
    """
    return sp.csgraph.reverse_cuthill_mckee(N + N.T, symmetric_mode=True)


def _band_limit() -> int:
    """Bytes one block's banded factor may take: half of physical memory."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2


def _block_minimizers(K, b: np.ndarray, C: np.ndarray):
    """X = K^-1 b and the Y of [[K, C^T], [C, 0]] [Y; lam] = [0; I] for one
    symmetry block K (CSC, exactly symmetric, in band order), b its growth
    columns and C (r_k, n_k) its membrane rows; b and C have a column
    between them, since dtbtrs corrupts the heap on an (n, 0) right-hand
    side (scipy 1.17.1).

    With V = L^-1 [b | C^T] and the thin QR V[:, g:] = Q R, the Schur
    complement C K^-1 C^T is R^T R, never formed, so its conditioning is
    not squared (Golub & Van Loan, Matrix Computations, 4th ed., 6.2).  One
    refinement step (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., ch. 12) takes X and Y to their rounding floor.  Raises
    SolverError for a band over _band_limit, a block that is not positive
    definite, or an R with rcond under sqrt(eps): S is as ill-conditioned
    as R squared, so it has no precision left and its fields would break
    the rank bound.
    """
    n = K.shape[0]
    cols = np.repeat(np.arange(n), np.diff(K.indptr))
    off = K.indices - cols
    w = int(off.max(initial=0))
    need, limit = 8 * (w + 1) * n, _band_limit()
    if need > limit:
        raise SolverError(
            f"the banded factor of a symmetry block of {n} unknowns "
            f"(half-bandwidth {w}) needs {need} bytes, more than the "
            f"{limit} bytes allowed (half of physical memory)")
    band = np.zeros((w + 1, n), order="F")
    low = off >= 0
    band[off[low], cols[low]] = K.data[low]
    try:
        band = la.cholesky_banded(band, overwrite_ab=True, lower=True,
                                  check_finite=False)
    except la.LinAlgError as exc:
        raise SolverError(f"a symmetry block of {n} unknowns is not "
                          f"positive definite: {exc}") from exc

    def tri(rhs, trans):
        """L^-1 rhs ("N") or L^-T rhs ("T"); rhs must have a column."""
        return lapack.dtbtrs(band, rhs, uplo="L", trans=trans)[0]

    g, r = b.shape[1], C.shape[0]
    V = tri(np.hstack([b, C.T]), "N")
    lam = np.zeros((r, r))
    if r:
        Q, R = la.qr(V[:, g:], mode="economic")
        rcond = lapack.dtrcon(R)[0]
        if rcond < np.sqrt(np.finfo(float).eps):
            raise SolverError("the membrane constraints of a symmetry block "
                              f"lost all precision: rcond(R) = {rcond:.3g}")
        Ri = la.solve_triangular(R, np.eye(r))
        V[:, g:] = Q @ Ri.T
        lam = -Ri @ Ri.T
    W = tri(V, "T")
    res = np.hstack([b, np.zeros((n, r))]) - K @ W
    res[:, g:] -= C.T @ lam
    T = tri(tri(res, "N"), "T")
    T[:, g:] -= W[:, g:] @ (C @ (W[:, g:] + T[:, g:]) - np.eye(r))
    W += T
    return W[:, :g], W[:, g:]


def _ridge_minimizers(H, Gwg: np.ndarray, L: np.ndarray,
                      grid: PeriodicGrid):
    """Ridge minimizers over the rotation samples w, H = A_w^T A_w + eps I.

    Returns (W, O).  Column j < g = Gwg.shape[1] of W fixes growth
    coordinate j to 1 and minimizes ||A_w w + A_g e_j||^2 + eps ||w||^2, so
    w = -H^-1 Gwg e_j, Gwg = A_w^T A_g; its other r columns keep the growth
    at 0 and solve O^T L w = e_i.  O = [U_1 ... U_K] is L's range split by
    parity, U_k that of L Q_k, so block k's membrane columns solve U_k's
    rows of O^T L and vanish on the others.  Block k solves only the growth
    columns whose share in it exceeds PROJ_RTOL of their norm: the rest lie
    in it only by rounding, and solving them too made eggbox@64 8-15%
    slower.  A block that no column reaches is not factored.
    """
    g = Gwg.shape[1]
    scale = np.linalg.norm(L, axis=1).max(initial=0.0)
    col = np.linalg.norm(Gwg, axis=0)
    W, Ys, Us = np.zeros((H.shape[0], g)), [], []
    for Q, K in _symmetry_blocks(H, grid, L):
        b = -(Q.T @ Gwg)
        grow = np.linalg.norm(b, axis=0) > PROJ_RTOL * col
        B = (Q.T @ L.T).T
        U = _parity_range(B, scale)
        Us.append(U)
        if not grow.any() and not U.size:
            continue
        X, Y = _block_minimizers(K, b[:, grow], U.T @ B)
        W[:, grow] += Q @ X
        Ys.append(Q @ Y)
    return np.hstack([W] + Ys), np.hstack(Us)


def strain_forms(system: ConstraintSystem, L: np.ndarray):
    """Best residual over the growth and over the membrane coordinates.

    Returns (growth, membrane) QuadraticSpaces: the forms over the 6 growth
    coordinates and over the coordinates O^T L w of a linear map L (m, 3n)
    on w, with fields kept strictly periodic.  The membrane space's
    ``basis`` is O, the parity-split basis of L's range (no column gives an
    empty space).  The levels are the singular values of A times the
    minimizers, never square roots of their Gram form, and the ridge
    EPS_REL leaves them essentially unbiased.  Raises ValueError for an L
    whose width is not 3n, and SolverError from the block solves.
    """
    A = system.matrix.tocsr()
    ws = system.w_size
    L = np.atleast_2d(np.asarray(L, dtype=float))
    if L.shape[1] != ws:
        raise ValueError("row map width must be 3 * nnodes")
    eps = EPS_REL * system.sigma_max() ** 2
    Aw = A[:, :ws]
    H = (Aw.T @ Aw + eps * sp.identity(ws)).tocsc()
    H.sort_indices()      # one entry order for every block's gather
    W, O = _ridge_minimizers(H, (Aw.T @ A[:, ws:]).toarray(), L, system.grid)

    def space(Ys, basis):
        _, s, Vt = la.svd(A @ Ys, full_matrices=False)
        directions = Vt[::-1].T
        floor = np.sqrt(eps) * np.linalg.norm(Ys @ directions, axis=0)
        return QuadraticSpace(levels=s[::-1], directions=directions,
                              minimizers=Ys, basis=basis, floor=floor)

    return (space(np.vstack([W[:, :6], np.eye(6)]), np.eye(6)),
            space(np.vstack([W[:, 6:], np.zeros((6, O.shape[1]))]), O))


# -- deflection recovery ---------------------------------------------------

def recover_deflection(mode: RotationMode, grid: PeriodicGrid) -> np.ndarray:
    """Path-integrate d(deflection) = w x dx over the display lattice.

    Returns the (r, c, 3) deflection samples, anchored to 0 at [0, 0].
    Trapezoid increments along lattice edges; the spanning tree is the first
    column then each row.  Duplicated breakpoint nodes are zero-length edges
    and pick up no increment.
    """
    t1, t2 = grid.chart.period
    P = display_positions(grid)
    w = display_cover(grid, mode.w, t1 * mode.W1, t2 * mode.W2)
    d0 = np.cross(0.5 * (w[1:] + w[:-1]), P[1:] - P[:-1])
    d1 = np.cross(0.5 * (w[:, 1:] + w[:, :-1]), P[:, 1:] - P[:, :-1])
    out = np.zeros_like(P)
    out[1:, 0] = np.cumsum(d0[:, 0], axis=0)
    out[:, 1:] = out[:, :1] + np.cumsum(d1, axis=1)
    return out
