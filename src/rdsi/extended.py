"""Solver for the extended setup: K three-argument distortion constraints.

The optimization is

    min over P_{UZ|X}, phi: Y x Z -> Xhat_d, psi: X x Z x U -> Xhat_e
        of  I(X;Z) - I(Y;Z)
    s.t.  E[d_k(X, phi(Y,Z), psi(X,Z,U))] <= D_k  for k = 1..K,

with (U, Z) - X - Y.  The objective sees only the Z-marginal of the joint
conditional table, so the inner problem stays convex in the full table
X -> (U x Z) simplex.  Cardinalities: |U| never needs to exceed K, nor the
number of constraints that actually depend on the encoder reconstruction
(the automatic default); |Z| never needs to exceed |X| |U| + K + 1.

Library path.  When at most one of the K tables varies with xhat_e (every
embedding of a base instance; the automatic |U| = 1 case), the encoder's
best letter for each (x, f), the argmin of that one table (letter 0 if
none varies), dominates every other, and the other tables do not depend
on it; more u symbols cannot help either.  The problem is then the base
problem on the decoder-column library with K cost matrices, and it runs
on the base solver's machinery: the same library, the constant-rule
shortcut for rate 0, and the certified full-library solve, whose
Caratheodory witness has at most |X| + K + 1 columns and |U| = 1, at any
z_size the witness fits in; otherwise its z_size-column candidates are
scanned.

Grouped path.  When two or more tables depend on xhat_e, a z symbol is
described by (phi(., z), {psi(., z, u)}_u); u symbols within a z column are
exchangeable and duplicates can carry zero mass, so distinct sorted column
subsets cover every rule pair.  The candidates are scanned with a
column-to-z grouping, floored and ordered by a full-library solve that
carries no certificate, so such points are labelled "upper_bound".
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .caratheodory import reduce_aux_u
from .errors import AssumptionError, InfeasibleError, InvalidInstanceError
from .model import DERIVED_MASS_TOL, ExtendedInstance, JointSource, require_valid_source
from .solver import (
    SolveConfig,
    _candidate_array,
    _constant_mix,
    _InnerProblem,
    _signature_library,
    _Solution,
    _solve_library,
    _witness_tables,
    scan_candidates,
    solve_constrained,
)


@dataclass(frozen=True)
class ExtSolveConfig:
    """Extended-solver knobs.

    u_size = None resolves to min(K, number of constraints that depend on
    xhat_e), at least 1.  z_size = None resolves to |X| + K + 1, the
    library path's cardinality bound, when at most one table depends on
    xhat_e, and to min(3, |X| u_size + K + 1) otherwise - the conservative
    desk-scale default of the grouped scan; larger explicit values are
    honored up to the cardinality bound |X| u_size + K + 1.
    """

    u_size: int | None = None
    z_size: int | None = None
    enumeration_cap: int = 1_000_000

    def solve_config(self) -> SolveConfig:
        return SolveConfig(enumeration_cap=self.enumeration_cap)


@dataclass(frozen=True)
class ExtRatePoint:
    """Solved extended point with its witness (phi, psi3, P_{UZ|X}).

    ``gap`` is the rate minus a certified lower bound on the minimum over
    the column library, never negative.  ``label`` is "exact" on the
    library path when the gap is at most 1e-7 bits, at any z_size (the
    full-library minimum bounds every z_size), or the rate is 0;
    "upper_bound" otherwise, and always on the grouped path, which has no
    certificate.  ``path`` says
    what settled the point: "constant" (rate 0 from constant rules),
    "library" (the certified full-library solve) or "scan" (the candidate
    enumeration).
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
    marginal = p.sum(axis=1)
    problem = _InnerProblem(src.pxy, marginal.shape[1])
    return max(problem.value(marginal), 0.0)


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


def _ext_signature_library(src: JointSource, ext: ExtendedInstance, u_size: int):
    """Distinct per-z signatures (f, sorted tuple of u-columns) with
    per-constraint cost tensors of shape (K, X, u_size).

    cost[k, x, u] is the coefficient of P(u, z | x) in E d_k when column z
    carries this signature.
    """
    pxy = src.pxy
    nx, ny = pxy.shape
    f_cols = list(itertools.product(range(ext.xhat_d_size), repeat=ny))
    g_cols = list(itertools.product(range(ext.xhat_e_size), repeat=nx))
    u_size = min(u_size, len(g_cols))
    x_idx = np.arange(nx)
    sigs, costs, seen = [], [], set()
    for f in f_cols:
        per_e = np.einsum("xy,kxye->kxe", pxy, ext.dk[:, :, list(f), :])
        for gs in itertools.combinations(range(len(g_cols)), u_size):
            g_arr = np.asarray([g_cols[g] for g in gs])  # (u, X)
            cost = per_e[:, x_idx[None, :], g_arr].transpose(0, 2, 1)  # (K, X, u)
            key = cost.tobytes()
            if key in seen:
                continue
            seen.add(key)
            sigs.append((f, tuple(g_cols[g] for g in gs)))
            costs.append(cost)
    return sigs, costs, u_size


def _rate_zero_point(src, ext, sigs, costs, targets, u_size):
    """Constant-Z shortcut with a deterministic u-choice per source symbol."""
    nx = src.x_size
    assignments = list(itertools.product(range(u_size), repeat=nx))
    x_idx = np.arange(nx)
    for i, cost in enumerate(costs):
        for uvec in assignments:
            totals = cost[:, x_idx, list(uvec)].sum(axis=1)  # (K,)
            if np.all(totals <= targets + 1e-15):
                f, gs = sigs[i]
                phi = np.asarray(f, dtype=np.int64)[:, None]
                psi3 = np.zeros((nx, 1, u_size), dtype=np.int64)
                for u, g in enumerate(gs):
                    psi3[:, 0, u] = g
                p = np.zeros((nx, u_size, 1))
                p[x_idx, list(uvec), 0] = 1.0
                return ExtRatePoint(
                    targets=np.asarray(targets, dtype=float),
                    rate=0.0,
                    phi=phi,
                    psi3=psi3,
                    p_uz_given_x=p,
                    achieved=totals,
                    path="constant",
                )
    return None


def solve_rate_ext(
    src: JointSource, ext: ExtendedInstance, cfg: ExtSolveConfig | None = None
) -> ExtRatePoint:
    """The extended rate-distortions function at ext.targets, with witness.

    Minimizes over rule pairs (phi, psi3) and joint conditionals P_{UZ|X}
    subject to the K linear distortion constraints; the rate is bounded by
    H(X|Y) under the extended zero-distortion assumption.  With at most
    one table depending on xhat_e the point is the base problem on the
    decoder-column library (the library path of the module docstring),
    whatever u_size; otherwise the grouped candidates are scanned.
    """
    cfg = cfg or ExtSolveConfig()
    _validate(src, ext)
    if not check_zero_distortion_assumption_ext(ext):
        raise AssumptionError(
            "distortion tables violate the extended zero-distortion assumption"
        )
    kk = ext.k
    dep = constraints_depending_on_xhat_e(ext)
    u_size = cfg.u_size if cfg.u_size is not None else max(1, min(kk, dep))
    if u_size < 1:
        raise InvalidInstanceError("u_size must be at least 1")
    z_bound = src.x_size * u_size + kk + 1
    if cfg.z_size is not None:
        z_size = cfg.z_size
    else:
        z_size = src.x_size + kk + 1 if dep <= 1 else min(3, z_bound)
    if not 1 <= z_size <= z_bound:
        raise InvalidInstanceError(f"z_size must lie in [1, {z_bound}]")
    targets = np.asarray(ext.targets, dtype=float)
    if dep <= 1:
        return _library_point(src, ext, targets, z_size, cfg)
    return _grouped_point(src, ext, targets, z_size, u_size, cfg)


def _library_point(src, ext, targets, z_size, cfg) -> ExtRatePoint:
    """The point on the decoder-column library with K cost matrices."""
    nx = src.x_size
    sigs, rows = _signature_library(src.pxy, ext.dk)
    mix = _constant_mix(rows.sum(axis=2), targets)
    if mix is not None:
        cols, weights = mix
        sol = _Solution(np.asarray(cols), np.tile(weights, (nx, 1)), 0.0, 0.0, 0, "constant")
    else:
        cons = [np.ascontiguousarray(r.T) for r in rows]
        sol = _solve_library(src, cons, list(targets), cfg.solve_config(), z_size, nx + ext.k + 1)
        if sol is None:
            raise InfeasibleError("no rule pair meets the targets at this z_size")
    phi, psi, channel = _witness_tables(sigs, sol.cols, sol.channel, src.y_size, nx)
    return _ext_point(
        src, ext, phi, psi[:, :, None], channel[:, None, :], rate=sol.rate,
        iterations=sol.iterations, gap=sol.gap, label=sol.label, path=sol.path,
    )


def _ext_point(src, ext, phi, psi3, p_uz, **fields) -> ExtRatePoint:
    """An ExtRatePoint whose achieved distortions come from its witness."""
    achieved = np.asarray(
        [ext_expected_distortion_k(src, ext, p_uz, phi, psi3, k) for k in range(ext.k)]
    )
    return ExtRatePoint(
        targets=np.asarray(ext.targets, dtype=float), phi=phi, psi3=psi3,
        p_uz_given_x=p_uz, achieved=achieved, **fields,
    )


def _grouped_point(src, ext, targets, z_size, u_size, cfg) -> ExtRatePoint:
    """The grouped candidate scan for two or more xhat_e-dependent tables."""
    kk = ext.k
    sigs, costs, u_size = _ext_signature_library(src, ext, u_size)
    zero = _rate_zero_point(src, ext, sigs, costs, targets, u_size)
    if zero is not None:
        return zero

    n_sig = len(sigs)
    m = min(z_size, n_sig)
    cands = _candidate_array(n_sig, m, cfg.enumeration_cap)
    ncols = m * u_size
    problem = _InnerProblem(src.pxy, ncols, col_group=np.repeat(np.arange(m), u_size))
    # library columns sig-major, u-minor; a candidate's columns z-major:
    # [z0 u0, z0 u1, ..., z1 u0, ...]
    lib = np.asarray(costs).transpose(1, 2, 0, 3).reshape(kk, src.x_size, n_sig * u_size)
    cols = (cands[:, :, None] * u_size + np.arange(u_size)).reshape(len(cands), ncols)
    floor, bound, mass, u_iters = -math.inf, -math.inf, None, 0
    if n_sig > m:
        universe = _InnerProblem(
            src.pxy, n_sig * u_size, col_group=np.repeat(np.arange(n_sig), u_size)
        )
        # only a floor: SLSQP often ends ~1e-9 outside the polytope on this
        # many columns, and a floor lost to that sends the scan through every candidate
        u_res = solve_constrained(universe, list(lib), list(targets), feasibility_tol=1e-6)
        if u_res.status == "infeasible":
            raise InfeasibleError("no rule pair meets the targets at this (z_size, u_size)")
        bound = u_res.lower_bound  # the penalty iteration's certified bound
        if u_res.status == "optimal":
            # the universe's primal value, not a certified bound: the
            # penalty bound lies far below it, and a floor that far down
            # would send the scan through every candidate
            floor = u_res.rate
        mass, u_iters = universe.px @ u_res.channel, u_res.iterations
    best, best_idx, total_iters = scan_candidates(
        problem, list(lib), cols, list(targets), floor, mass
    )
    if best is None:
        raise InfeasibleError("no rule pair meets the targets at this (z_size, u_size)")
    if n_sig <= m:
        bound = best.lower_bound  # the one candidate is the whole library
    best_cand = [int(i) for i in cands[best_idx]]

    phi = np.zeros((src.y_size, m), dtype=np.int64)
    psi3 = np.zeros((src.x_size, m, u_size), dtype=np.int64)
    for j, i in enumerate(best_cand):
        f, gs = sigs[i]
        phi[:, j] = f
        for u, g in enumerate(gs):
            psi3[:, j, u] = g
    p_flat = best.channel / best.channel.sum(axis=1, keepdims=True)
    p_uz = p_flat.reshape(src.x_size, m, u_size).transpose(0, 2, 1)  # (X, U, Z)
    return _ext_point(
        src, ext, phi, psi3, p_uz, rate=best.rate, iterations=u_iters + total_iters,
        gap=max(best.rate - bound, 0.0), label="upper_bound", path="scan",
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
    problem = _InnerProblem(src.pxy, pz_given_x.shape[1])
    return max(problem.value(pz_given_x), 0.0)


def _witness_distortion(src, ext, pz_given_x, pu_given_xz, phi, psi3, k) -> float:
    """E d_k for a witness given as (P_{Z|X}, P_{U|XZ})."""
    p_joint = pz_given_x[:, None, :] * pu_given_xz.transpose(0, 2, 1)  # (X, U, Z)
    psi_t = np.asarray(psi3, dtype=np.int64)
    if psi_t.shape[2] != p_joint.shape[1]:
        raise InvalidInstanceError("psi3 u-axis does not match the u-law")
    return ext_expected_distortion_k(src, ext, p_joint, phi, psi_t, k)
