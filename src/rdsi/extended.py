"""Solver for the extended setup: K three-argument distortion constraints.

The optimization is

    min over P_{UZ|X}, phi: Y x Z -> Xhat_d, psi: X x Z x U -> Xhat_e
        of  I(X;Z) - I(Y;Z)
    s.t.  E[d_k(X, phi(Y,Z), psi(X,Z,U))] <= D_k  for k = 1..K,

with (U, Z) - X - Y.  The objective sees only the Z-marginal of the joint
conditional table, so the inner problem stays convex in the full table
X -> (U x Z) simplex.

|U| = 1 is enough.  Take any feasible (P_{UZ|X}, phi, psi3) and split each
z by a random encoder column G, whose letter G(x) is drawn for each x from
the law of psi3(x, z, U) given (x, z), independently over x and of (X, Y):
P(z, g | x) = P(z|x) w_z(g).  Every E d_k is unchanged, because U is
independent of Y given (X, Z), and so is H(Z|Y) - H(Z|X), because given Z,
G is independent of (X, Y).  The extended problem is therefore the base
problem on the library of (decoder column f, encoder column g) pairs with
K cost matrices, and an encoder letter whose K coefficients another
matches or beats at that (f, x) is never needed; with at most one table
varying with xhat_e (every embedding of a base instance) one column per f
remains.  It runs on the base solver's machinery: the same library, the
constant-rule shortcut for rate 0, and the certified full-library solve,
whose witness has |U| = 1 and, by Caratheodory's theorem on the per-column
vectors, at most |X| + K + 1 columns (the paper's bound, with a general U,
is |X| |U| + K + 1).  Below that z_size the witness is used when it fits,
and otherwise its z_size-column candidates are scanned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .caratheodory import reduce_aux_u
from .errors import AssumptionError, InfeasibleError, InvalidInstanceError
from .model import DERIVED_MASS_TOL, ExtendedInstance, JointSource, require_valid_source
from .solver import SolveConfig, _InnerProblem, _signature_library, _solve_library, _witness_tables


@dataclass(frozen=True)
class ExtRatePoint:
    """Solved extended point with its witness (phi, psi3, P_{UZ|X}).

    ``gap`` is the rate minus a certified lower bound on the minimum over
    the column library, never negative.  ``label`` is "exact" when the gap
    is at most 1e-7 bits, at any z_size (the full-library minimum bounds
    every z_size), or the rate is 0; "upper_bound" otherwise.  ``path``
    says what settled the point: "constant" (rate 0 from constant rules),
    "library" (the full-library solve) or "scan" (the candidate
    enumeration, only below the cardinality bound).  ``multipliers`` (one
    per target, nonnegative) make the certified bound a plane, as for
    RatePoint.
    """

    targets: np.ndarray
    rate: float
    phi: np.ndarray
    psi3: np.ndarray
    p_uz_given_x: np.ndarray
    achieved: np.ndarray
    iterations: int = 0
    gap: float = 0.0
    label: str = "exact"
    path: str = "scan"
    multipliers: tuple = ()


def check_zero_distortion_assumption_ext(ext: ExtendedInstance) -> bool:
    """True iff every x admits (xhat_d, xhat_e) zeroing all K tables at once."""
    all_zero = (ext.dk == 0.0).all(axis=0)  # (X, Xhat_d, Xhat_e)
    return bool(all_zero.any(axis=(1, 2)).all())


def constraints_depending_on_xhat_e(ext: ExtendedInstance) -> int:
    """How many of the K tables actually vary with the encoder symbol."""
    varies = ext.dk.max(axis=3) != ext.dk.min(axis=3)
    return int(varies.any(axis=(1, 2)).sum())


def _validate(src: JointSource, ext: ExtendedInstance):
    require_valid_source(src)
    if ext.x_size != src.x_size:
        raise InvalidInstanceError("dk tables do not match the source alphabet")


def ext_rate_objective(src: JointSource, p_uz_given_x: np.ndarray) -> float:
    """I(X;Z) - I(Y;Z) in bits; depends on the Z-marginal only."""
    p = np.asarray(p_uz_given_x, dtype=float)
    if p.ndim != 3 or p.shape[0] != src.x_size:
        raise InvalidInstanceError("p_uz_given_x must have shape (X, U, Z)")
    sums = p.reshape(src.x_size, -1).sum(axis=1)
    if np.max(np.abs(sums - 1.0)) > DERIVED_MASS_TOL or p.min() < 0:
        raise InvalidInstanceError("p_uz_given_x rows must be distributions")
    return _witness_rate(src, p.sum(axis=1))


def ext_expected_distortion_k(
    src: JointSource,
    ext: ExtendedInstance,
    p_uz_given_x: np.ndarray,
    phi: np.ndarray,
    psi3: np.ndarray,
    k: int,
) -> float:
    """E d_k under p(x, y) p(u, z | x) with deterministic reconstructions."""
    if not 0 <= k < ext.k:
        raise InvalidInstanceError(f"constraint index {k} out of range")
    p = np.asarray(p_uz_given_x, dtype=float)
    phi = np.asarray(phi, dtype=np.int64)
    psi3 = np.asarray(psi3, dtype=np.int64)
    nx, nu, nz = p.shape
    if phi.shape != (src.y_size, nz) or psi3.shape != (nx, nz, nu):
        raise InvalidInstanceError("phi/psi3 shapes do not match the witness")
    tab = ext.dk[k][:, phi, :]  # (X, Y, Z, Xhat_e)
    idx = np.broadcast_to(psi3[:, None, :, :], tab.shape[:3] + (nu,))
    sel = np.take_along_axis(tab, idx, axis=3)  # (X, Y, Z, U)
    return float(np.einsum("xy,xuz,xyzu->", src.pxy, p, sel))


def solve_rate_ext(
    src: JointSource, ext: ExtendedInstance, cfg: SolveConfig | None = None
) -> ExtRatePoint:
    """The extended rate-distortions function at ext.targets, with witness.

    Minimizes over rule pairs (phi, psi3) and joint conditionals P_{UZ|X}
    subject to the K linear distortion constraints; the rate is bounded by
    H(X|Y) under the extended zero-distortion assumption.  The point is the
    base problem on the (decoder column, encoder column) library (see the
    module docstring), with a |U| = 1 witness.  z_size = None means the
    cardinality bound |X| + K + 1, and a larger z_size is rejected.
    """
    cfg = cfg or SolveConfig()
    _validate(src, ext)
    if not check_zero_distortion_assumption_ext(ext):
        raise AssumptionError(
            "distortion tables violate the extended zero-distortion assumption"
        )
    nx, targets = src.x_size, np.asarray(ext.targets, dtype=float)
    z_bound = nx + ext.k + 1
    z_size = cfg.z_size if cfg.z_size is not None else z_bound
    if z_size > z_bound:
        raise InvalidInstanceError(f"z_size must lie in [1, {z_bound}]")
    sigs, rows = _signature_library(src.pxy, ext.dk)
    cons = [np.ascontiguousarray(r.T) for r in rows]
    sol = _solve_library(src, cons, list(targets), cfg, z_size, z_bound)
    if sol is None:
        raise InfeasibleError("no rule pair meets the targets at this z_size")
    phi, psi, channel = _witness_tables(sigs, sol.cols, sol.channel, src.y_size, nx)
    psi3, p_uz = psi[:, :, None], channel[:, None, :]
    achieved = np.asarray(
        [ext_expected_distortion_k(src, ext, p_uz, phi, psi3, k) for k in range(ext.k)]
    )
    return ExtRatePoint(
        targets=targets, rate=sol.rate, phi=phi, psi3=psi3, p_uz_given_x=p_uz,
        achieved=achieved, iterations=sol.iterations, gap=sol.gap, label=sol.label,
        path=sol.path, multipliers=sol.multipliers,
    )


def verify_u_reduction(
    src: JointSource,
    ext: ExtendedInstance,
    pz_given_x: np.ndarray,
    pu_given_xz: np.ndarray,
    phi: np.ndarray,
    psi3: np.ndarray,
) -> bool:
    """Reduce the witness auxiliary to |U| <= K and check it still works.

    True iff the reduced witness meets all K constraints and the rate
    objective of the reduced joint's Z-marginal matches the input's within
    1e-9 bits (it moves only if the reduced u-law loses or gains mass).
    """
    pz_given_x = np.asarray(pz_given_x, dtype=float)
    pu_given_xz = np.asarray(pu_given_xz, dtype=float)
    psi3 = np.asarray(psi3, dtype=np.int64)
    pu_new, psi_new = reduce_aux_u(src, ext, pz_given_x, pu_given_xz, phi, psi3)
    rate_before = _witness_rate(src, pz_given_x)
    rate_after = _witness_rate(src, (pz_given_x[:, :, None] * pu_new).sum(axis=2))
    if abs(rate_after - rate_before) > 1e-9:
        return False
    for k in range(ext.k):
        value = _witness_distortion(src, ext, pz_given_x, pu_new, phi, psi_new, k)
        if value > ext.targets[k] + 1e-9:
            return False
    return True


def _witness_rate(src: JointSource, pz_given_x: np.ndarray) -> float:
    return max(_InnerProblem(src.pxy).value(pz_given_x), 0.0)


def _witness_distortion(src, ext, pz_given_x, pu_given_xz, phi, psi3, k) -> float:
    """E d_k for a witness given as (P_{Z|X}, P_{U|XZ})."""
    p_joint = pz_given_x[:, None, :] * pu_given_xz.transpose(0, 2, 1)  # (X, U, Z)
    psi_t = np.asarray(psi3, dtype=np.int64)
    if psi_t.shape[2] != p_joint.shape[1]:
        raise InvalidInstanceError("psi3 u-axis does not match the u-law")
    return ext_expected_distortion_k(src, ext, p_joint, phi, psi_t, k)
