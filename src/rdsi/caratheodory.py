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
  (so the rate objective is unchanged): one LP, block-diagonal over
  (x, z), walks every per-(x, z) distortion vector down to the hull
  boundary, and its basic optimum carries weight on at most K symbols in
  each block (K + 1 affinely independent points
  with weight would put the walk's end inside the hull, where it could
  still go on).

Determinism: affine-dependence elimination breaks ties by eliminating the
largest-index point; all LPs use the deterministic HiGHS backend.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._scipy import bsr_array, linprog, nnls
from .errors import RdsiError
from .model import ExtendedInstance, JointSource, _freeze

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


def _affine_dependence(points: np.ndarray) -> np.ndarray | None:
    """A nonzero gamma with sum(gamma) = 0 and sum(gamma_i p_i) = 0, or None."""
    m = points.shape[0]
    if m < 2:
        return None
    stacked = np.vstack([points.T, np.ones(m)])  # (d+1, m)
    _, s, vt = np.linalg.svd(stacked)
    # wide matrix: a dependence certainly exists; otherwise test the rank
    if m > stacked.shape[0] or s[-1] <= 1e-12 * max(s[0], 1.0):
        return vt[-1]
    return None


def _eliminate_once(points, weights, idx, gamma):
    """One cancellation step; returns the shrunken (points, weights, idx)."""
    best = None
    for sign in (1.0, -1.0):
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


def _dominating_boundary_points(hs, ds):
    """Walk each d_b in ``ds`` along -(1, ..., 1) to the hull boundary of the
    rows of its h_b in ``hs`` (B blocks, each h_b of shape (U, K)).

    Solved as one block-diagonal LP: maximise sum_b t_b subject to
    h_b' lambda_b + t_b 1 = d_b, each lambda_b in the simplex, t_b >= 0.  The
    blocks share no variable, so HiGHS's basic optimum is basic in every
    block.  Returns the lambda_b, shape (B, U).
    """
    hs = np.asarray(hs, dtype=float)
    nb, m, k = hs.shape
    blocks = np.ones((nb, k + 1, m + 1))  # rows: the K totals, the simplex
    blocks[:, :k, :m] = hs.transpose(0, 2, 1)
    blocks[:, k, m] = 0.0
    a_eq = bsr_array((blocks, np.arange(nb), np.arange(nb + 1)))
    b_eq = np.concatenate([np.asarray(ds, dtype=float), np.ones((nb, 1))], axis=1)
    cost = np.zeros((nb, m + 1))
    cost[:, m] = -1.0
    res = linprog(
        cost.ravel(), A_eq=a_eq, b_eq=b_eq.ravel(), bounds=(0.0, None), method="highs"
    )
    if not res.success:
        raise RdsiError("no dominating boundary point found")
    return np.maximum(res.x.reshape(nb, m + 1)[:, :m], 0.0)


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
    is a convex combination of the per-u vectors; one LP over all (x, z)
    walks each along -(1, ..., 1) to a boundary point of their hull, and the
    LP's basic optimum writes that point over at most K symbols (an
    RdsiError naming the (x, z) if it does not).  Returns the new
    conditional law of the reduced auxiliary (shape X x Z x K) and the
    matching reconstruction table psi_tilde (same shape, xhat_e indices).

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

    px = src.px
    p_y_given_x = src.pxy / np.where(px > 0, px, 1.0)[:, None]
    # h[x, z, u, k] = E[d_k(x, phi(Y, z), psi3(x, z, u)) | X = x]
    per_xhat_e = np.einsum("xy,kxyze->xzke", p_y_given_x, ext.dk[:, :, phi, :])
    h = np.take_along_axis(per_xhat_e, psi3[:, :, None, :], axis=3).transpose(0, 1, 3, 2)
    d = np.einsum("xzu,xzuk->xzk", pu_given_xz, h)
    try:
        lam = _dominating_boundary_points(h.reshape(nx * nz, nu, kk), d.reshape(nx * nz, kk))
    except RdsiError as exc:
        raise RdsiError(f"reduction failed: {exc}") from exc
    pu_new = np.zeros((nx, nz, kk))
    psi_tilde = np.zeros((nx, nz, kk), dtype=np.int64)
    for b, (x, z) in enumerate(np.ndindex(nx, nz)):
        u_idx = np.nonzero(lam[b] > 1e-12)[0]
        if len(u_idx) > kk:
            raise RdsiError(
                f"reduction failed at (x={x}, z={z}): {len(u_idx)} symbols carry weight"
            )
        w = lam[b, u_idx] / lam[b, u_idx].sum()
        reduced = w @ h[x, z, u_idx]
        if np.any(reduced > d[x, z] + RECON_TOL):
            raise RdsiError(f"reduction failed at (x={x}, z={z}): dominance not certified")
        m = len(u_idx)
        pu_new[x, z, :m] = w
        psi_tilde[x, z, :m] = psi3[x, z, u_idx]
        if m < kk:
            psi_tilde[x, z, m:] = psi_tilde[x, z, 0]
    return pu_new, psi_tilde
