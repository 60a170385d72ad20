"""Constructive convex-combination reductions.

Three reductions:

* ``caratheodory_reduce`` rewrites a convex combination in R^d over at most
  d+1 of its points by repeatedly cancelling an affine dependence among the
  support points (degenerate point sets reduce further, to the dimension of
  their affine span plus one);
* ``boundary_reduce`` strengthens this to at most d points when the target
  lies on the hull boundary with a known supporting direction: only points
  on the supporting hyperplane can carry weight, and inside that hyperplane
  the problem is (d-1)-dimensional;
* ``reduce_aux_u`` shrinks the auxiliary randomisation alphabet of an
  extended witness to at most K symbols without increasing any of the K
  per-(x, z) conditional distortions and without touching the Z-channel
  (so the rate objective is unchanged): for each (x, z) it walks the
  distortion vector along -(1, ..., 1) by the same elimination, cancelling
  a dependence among the weighted per-u vectors and the walk's direction
  until at most K of them are left.

Determinism: every elimination breaks ties by eliminating the
largest-index point, and all of it is plain numpy (an SVD per step).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._scipy import nnls
from .errors import InvalidInstanceError, RdsiError
from .model import DERIVED_MASS_TOL, ExtendedInstance, JointSource, _freeze

WEIGHT_TOL = 1e-10
RECON_TOL = 1e-9
HULL_TOL = 1e-9


@dataclass(frozen=True)
class ConvexCombination:
    """Points in R^d with nonnegative weights summing to one."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        w = np.asarray(self.weights, dtype=float).ravel()
        if pts.shape[0] != w.shape[0]:
            raise RdsiError("points and weights must have the same length")
        if w.min() < -WEIGHT_TOL:
            raise RdsiError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > WEIGHT_TOL:
            raise RdsiError(f"weights sum to {w.sum():.12g}, not 1")
        object.__setattr__(self, "points", _freeze(pts))
        object.__setattr__(self, "weights", _freeze(np.maximum(w, 0.0)))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def support_size(self) -> int:
        return int(np.count_nonzero(self.weights > 0.0))

    def target(self) -> np.ndarray:
        return self.weights @ self.points


def _null_vector(stacked: np.ndarray) -> np.ndarray | None:
    """A unit vector v with stacked @ v = 0, or None if the columns are independent."""
    _, s, vt = np.linalg.svd(stacked)
    # wide matrix: a dependence certainly exists; otherwise test the rank
    if stacked.shape[1] > stacked.shape[0] or s[-1] <= 1e-12 * max(s[0], 1.0):
        return vt[-1]
    return None


def _affine_dependence(points: np.ndarray) -> np.ndarray | None:
    """A nonzero gamma with sum(gamma) = 0 and sum(gamma_i p_i) = 0, or None."""
    m = points.shape[0]
    if m < 2:
        return None
    return _null_vector(np.vstack([points.T, np.ones(m)]))  # (d+1, m)


def _eliminate_once(points, weights, idx, gamma, signs=(1.0, -1.0)):
    """One cancellation step, moving the weights along -sign * gamma for the
    allowed sign whose ratio test zeroes the largest index; returns the
    shrunken (points, weights, idx)."""
    best = None
    for sign in signs:
        g = sign * gamma
        pos = g > 1e-14
        if not np.any(pos):
            continue
        ratios = weights[pos] / g[pos]
        t = ratios.min()
        hit = np.nonzero(pos)[0][np.nonzero(ratios <= t * (1 + 1e-12))[0]]
        cand = (int(hit.max()), t, g, hit)
        if best is None or cand[0] > best[0]:
            best = cand
    if best is None:
        raise RdsiError("degenerate affine dependence")
    _, t, g, hit = best
    new_w = weights - t * g
    new_w[hit] = 0.0
    keep = new_w > 0.0
    return points[keep], new_w[keep], idx[keep]


def _reduce_indices(points: np.ndarray, weights: np.ndarray):
    """Carathéodory elimination loop; returns (kept indices, kept weights)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    weights = np.asarray(weights, dtype=float).copy()
    idx = np.arange(points.shape[0])
    keep = weights > 0.0
    points, weights, idx = points[keep], weights[keep], idx[keep]
    while True:
        gamma = _affine_dependence(points)
        if gamma is None:
            break
        points, weights, idx = _eliminate_once(points, weights, idx, gamma)
    weights = weights / weights.sum()
    return idx, weights


def caratheodory_support(comb: ConvexCombination):
    """The points caratheodory_reduce keeps: (their indices, their weights)."""
    idx, w = _reduce_indices(comb.points, comb.weights)
    err = float(np.linalg.norm(w @ comb.points[idx] - comb.target()))
    if err > RECON_TOL:
        raise RdsiError(f"reduction lost the target (error {err:.3g})")
    return idx, w


def caratheodory_reduce(comb: ConvexCombination) -> ConvexCombination:
    """Same target, support at most dim+1 (less for degenerate point sets)."""
    idx, w = caratheodory_support(comb)
    return ConvexCombination(comb.points[idx], w)


def _hyperplane_basis(normal: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to ``normal``, d x (d-1)."""
    _, _, vt = np.linalg.svd(normal[np.newaxis, :])
    return vt[1:].T


def boundary_reduce(points, target, normal) -> ConvexCombination:
    """Decompose a hull-boundary point over at most d of the given points.

    ``normal`` must support the hull at ``target``: normal . target equals
    the maximum of normal . x over the point set (within tolerance), else
    the precondition is violated and an error is raised.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    target = np.asarray(target, dtype=float).ravel()
    normal = np.asarray(normal, dtype=float).ravel()
    norm = np.linalg.norm(normal)
    if norm == 0.0:
        raise RdsiError("supporting direction must be nonzero")
    c = normal / norm
    proj = points @ c
    level = float(c @ target)
    scale = max(1.0, float(np.abs(proj).max()), abs(level))
    if level < proj.max() - HULL_TOL * scale:
        raise RdsiError("target is not supported by the given direction")
    on_face = np.nonzero(proj >= level - HULL_TOL * scale)[0]
    face_pts = points[on_face]
    basis = _hyperplane_basis(c)
    coords = (face_pts - target) @ basis
    # initial weights on the face via nonnegative least squares
    span = max(1.0, float(np.abs(coords).max()) if coords.size else 1.0)
    a = np.vstack([coords.T / span, np.ones(len(face_pts))])
    b = np.zeros(a.shape[0])
    b[-1] = 1.0
    w, resid = nnls(a, b)
    if resid > 1e-8 or w.sum() <= 0:
        raise RdsiError("target is not a convex combination of the face points")
    w = w / w.sum()
    local_idx, w = _reduce_indices(coords, w)
    out = ConvexCombination(points[on_face[local_idx]], w)
    err = float(np.linalg.norm(out.target() - target))
    if err > RECON_TOL:
        raise RdsiError(f"boundary reduction lost the target (error {err:.3g})")
    return out


def _dominating_support(h, weights):
    """Rewrite ``weights @ h`` (h of shape (U, K)) as ``lam @ h`` with lam
    on at most K rows and ``lam @ h <= weights @ h`` entrywise.

    A walk along -(1, ..., 1) that keeps h' lam + t 1 = weights @ h and
    1' lam = 1, from lam = weights and slack t = 0: while the kept columns
    of [h' 1; 1' 0] are dependent, a null vector (gamma, tau) oriented to
    tau >= 0 moves lam by +s gamma and t by +s tau, with the ratio test of
    ``_eliminate_once`` choosing s.  Each step drops a row and never lowers
    t; K + 1 independent columns hold at most K rows besides t's.  (For
    tau > 0, 1' gamma = 0 and h' gamma = -tau 1 leave gamma a negative
    entry, so the ratio test always hits.)  Returns (kept indices, kept
    weights).
    """
    h = np.asarray(h, dtype=float)
    weights = np.asarray(weights, dtype=float)
    idx = np.nonzero(weights > 0.0)[0]
    points, weights = h[idx], weights[idx]
    slack = np.append(np.ones(h.shape[1]), 0.0)[:, np.newaxis]
    while True:
        columns = np.vstack([points.T, np.ones(len(idx))])
        null = _null_vector(np.hstack([columns, slack]))
        if null is None:
            break
        # _eliminate_once moves the weights along -down; oriented so t rises
        down = -np.copysign(1.0, null[-1]) * null[:-1]
        points, weights, idx = _eliminate_once(points, weights, idx, down, (1.0,))
    return idx, weights / weights.sum()


def reduce_aux_u(
    src: JointSource,
    ext: ExtendedInstance,
    pz_given_x: np.ndarray,
    pu_given_xz: np.ndarray,
    phi: np.ndarray,
    psi3: np.ndarray,
):
    """Shrink the auxiliary alphabet of an extended witness to at most K.

    For every (x, z) the conditional distortion vector over the K constraints
    is a convex combination of the per-u vectors; ``_dominating_support``
    walks it along -(1, ..., 1) until at most K symbols carry weight, and
    the result is checked (an RdsiError naming the (x, z) if more symbols
    are left or a distortion rose; an InvalidInstanceError if a row of
    pu_given_xz is not a distribution).  Returns the new conditional law of the
    reduced auxiliary (shape X x Z x K) and the matching reconstruction
    table psi_tilde (same shape, xhat_e indices).

    The Z-channel is untouched, so the rate objective is exactly preserved;
    every per-(x, z), per-k conditional distortion of the output is at most
    the input's (up to 1e-9).
    """
    pz_given_x = np.asarray(pz_given_x, dtype=float)
    pu_given_xz = np.asarray(pu_given_xz, dtype=float)
    phi = np.asarray(phi, dtype=np.int64)
    psi3 = np.asarray(psi3, dtype=np.int64)
    nx, nz, nu = pu_given_xz.shape
    kk = ext.k
    if nu <= kk:
        return pu_given_xz, psi3
    if pu_given_xz.min() < 0 or np.abs(pu_given_xz.sum(axis=2) - 1.0).max() > DERIVED_MASS_TOL:
        raise InvalidInstanceError("pu_given_xz rows must be distributions")

    px = src.px
    p_y_given_x = src.pxy / np.where(px > 0, px, 1.0)[:, None]
    # h[x, z, u, k] = E[d_k(x, phi(Y, z), psi3(x, z, u)) | X = x]
    per_xhat_e = np.einsum("xy,kxyze->xzke", p_y_given_x, ext.dk[:, :, phi, :])
    h = np.take_along_axis(per_xhat_e, psi3[:, :, None, :], axis=3).transpose(0, 1, 3, 2)
    d = np.einsum("xzu,xzuk->xzk", pu_given_xz, h)
    pu_new = np.zeros((nx, nz, kk))
    psi_tilde = np.zeros((nx, nz, kk), dtype=np.int64)
    for x, z in np.ndindex(nx, nz):
        try:
            u_idx, w = _dominating_support(h[x, z], pu_given_xz[x, z])
        except RdsiError as exc:
            raise RdsiError(f"reduction failed at (x={x}, z={z}): {exc}") from exc
        if len(u_idx) > kk:
            raise RdsiError(
                f"reduction failed at (x={x}, z={z}): {len(u_idx)} symbols carry weight"
            )
        reduced = w @ h[x, z, u_idx]
        if np.any(reduced > d[x, z] + RECON_TOL):
            raise RdsiError(f"reduction failed at (x={x}, z={z}): dominance not certified")
        m = len(u_idx)
        pu_new[x, z, :m] = w
        psi_tilde[x, z, :m] = psi3[x, z, u_idx]
        if m < kk:
            psi_tilde[x, z, m:] = psi_tilde[x, z, 0]
    return pu_new, psi_tilde
