"""Solver for the discrete rate-distortions function.

The quantity computed is

    min over P_{Z|X}, phi: Y x Z -> Xhat, psi: X x Z -> Xhat
        of  I(X;Z) - I(Y;Z)
    s.t.  E[d_d(X, phi(Y,Z))] <= dd_target,
          E[d_e(phi(Y,Z), psi(X,Z))] <= de_target,

with Z - X - Y structural.  For fixed (phi, psi) the objective
H(Z|Y) - H(Z|X) is convex in the channel matrix and both constraints are
linear, so the solver enumerates reconstruction rules in an outer loop and
runs a convex minimization inside.

Outer enumeration.  A z symbol is fully described by its column signature
(phi(., z), psi(., z)).  For a fixed decoder column f = phi(., z) the
E d_d coefficient of the column does not depend on psi, and its E d_e
coefficient at x depends only on psi(x, z), so the encoder letter
argmin_c sum_y p(x, y) d_e(f(y), c) (the smallest letter on ties)
dominates every other encoder column: the library holds one signature per
decoder column, |Xhat|^|Y| of them.  Relabeling z symbols permutes
signatures, duplicate signatures can be merged without raising the
objective, and unused signatures can carry zero mass.  Enumerating
subsets of distinct signatures of size min(z_size, #signatures) therefore
covers every (phi, psi) pair; signatures with identical cost columns are
further deduplicated, keeping the lexicographically smallest decoder
column.

Inner solve.  Conditional gradient (Frank-Wolfe) over the product of row
simplices with a staged quadratic penalty for the distortion constraints;
the linearization minimum along the way is a certified lower bound on the
candidate's constrained optimum (used to prune candidates against the
incumbent), and an SLSQP step on the exactly constrained problem lands
within ~1e-9 bits of the candidate optimum (the penalty iteration alone
stalls around 1e-4).  Joint feasibility is certified by a small linear
program.

Early stopping.  The same minimization over the complete column library
(no subset restriction) lower-bounds every candidate, and by the
cardinality bound it is attained at the default z_size.  Candidates are
scanned in descending total mass of their columns under the universe's
solution, ties in lexicographic order, so the universe's own support
comes first; the scan stops at the first candidate reaching that floor.
The floor is the universe's primal value, not a certified lower bound.
Ties between equally good candidates resolve to the first one in scan
order.

All rates are in bits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog, minimize, minimize_scalar
from scipy.special import xlogy

from .errors import AssumptionError, InfeasibleError, InvalidInstanceError, ResourceCapError
from .model import (
    LN2,
    DistortionSpec,
    JointSource,
    TestChannel,
    check_zero_distortion_assumption,
    conditional_entropy_x_given_y,
    require_valid_source,
)

_TINY = 1e-300
_PRUNE_MARGIN = 1e-7
_STOP_TOL = 1e-8
_TIE_EPS = 1e-12


@dataclass(frozen=True)
class SolveConfig:
    """Solver knobs.  z_size = None means the cardinality bound |X| + 3."""

    z_size: int | None = None
    inner_max_iters: int = 400
    inner_tolerance: float = 1e-7
    enumeration_cap: int = 1_000_000

    def __post_init__(self):
        if self.z_size is not None and self.z_size < 1:
            raise InvalidInstanceError("z_size must be at least 1")
        if self.inner_tolerance <= 0:
            raise InvalidInstanceError("inner_tolerance must be positive")
        if self.inner_max_iters < 1 or self.enumeration_cap < 1:
            raise InvalidInstanceError("iteration and enumeration caps must be positive")


@dataclass(frozen=True)
class RatePoint:
    """A solved point of the trade-off with its witness channel.

    ``label`` is "exact" when the auxiliary alphabet met the cardinality
    bound (or exhausted the distinct signatures) and "upper_bound" when a
    smaller configured z_size may leave the true value lower.
    """

    dd_target: float
    de_target: float
    rate: float
    witness: TestChannel
    achieved_dd: float
    achieved_de: float
    iterations: int = 0
    gap: float = 0.0
    label: str = "exact"


@dataclass
class InnerResult:
    """Outcome of one inner minimization for fixed reconstruction rules."""

    status: str  # "optimal" | "infeasible" | "max_iterations" | "pruned"
    channel: np.ndarray | None = None
    rate: float = math.inf
    gap: float = math.inf
    violation: float = math.inf
    iterations: int = 0
    lower_bound: float = -math.inf


class _InnerProblem:
    """H(Z|Y) - H(Z|X) (bits) as a function of the conditional table.

    ``col_group`` maps optimization columns onto z symbols; the base solver
    uses the identity, the extended solver folds (u, z) columns onto z.
    """

    def __init__(self, pxy: np.ndarray, n_cols: int, col_group: np.ndarray | None = None):
        self.pxy = pxy
        self.px = pxy.sum(axis=1)
        py = pxy.sum(axis=0)
        self._hy = float(xlogy(py, py).sum())
        self.n_cols = n_cols
        if col_group is None:
            self.group_matrix = None
            self.nz = n_cols
        else:
            col_group = np.asarray(col_group)
            self.nz = int(col_group.max()) + 1
            g = np.zeros((n_cols, self.nz))
            g[np.arange(n_cols), col_group] = 1.0
            self.group_matrix = g

    def marginal(self, p: np.ndarray) -> np.ndarray:
        return p if self.group_matrix is None else p @ self.group_matrix

    def value(self, p: np.ndarray) -> float:
        m = self.marginal(p)
        myz = self.pxy.T @ m
        nat = self._hy - xlogy(myz, myz).sum() + (self.px[:, None] * xlogy(m, m)).sum()
        return float(nat / LN2)

    def value_and_grad(self, p: np.ndarray):
        m = self.marginal(p)
        myz = self.pxy.T @ m
        nat = self._hy - xlogy(myz, myz).sum() + (self.px[:, None] * xlogy(m, m)).sum()
        grad_m = (
            self.px[:, None] * np.log(np.maximum(m, _TINY))
            - self.pxy @ np.log(np.maximum(myz, _TINY))
        ) / LN2
        if self.group_matrix is not None:
            grad_m = grad_m @ self.group_matrix.T
        return float(nat / LN2), grad_m



def rate_objective(src: JointSource, ch: TestChannel) -> float:
    """I(X;Z) - I(Y;Z) of the induced law, in bits (equals I(X;Z|Y) >= 0)."""
    if ch.x_size != src.x_size or ch.y_size != src.y_size:
        raise InvalidInstanceError("channel dimensions do not match the source")
    p = ch.pz_given_x
    pxz = src.px[:, None] * p
    pz = pxz.sum(axis=0)
    pyz = src.pxy.T @ p
    i_xz = _mutual_information(pxz, src.px, pz)
    i_yz = _mutual_information(pyz, src.py, pz)
    value = i_xz - i_yz
    assert value > -1e-9, "objective must be nonnegative up to rounding"
    return max(value, 0.0)


def _mutual_information(joint, pa, pb) -> float:
    h_a = -xlogy(pa, pa).sum()
    h_b = -xlogy(pb, pb).sum()
    h_ab = -xlogy(joint, joint).sum()
    return float((h_a + h_b - h_ab) / LN2)


def expected_distortions(src: JointSource, spec: DistortionSpec, ch: TestChannel):
    """(E d_d, E d_e) under the induced law."""
    if spec.dd.shape[0] != src.x_size:
        raise InvalidInstanceError("dd rows do not match the source alphabet")
    if ch.x_size != src.x_size or ch.y_size != src.y_size:
        raise InvalidInstanceError("channel dimensions do not match the source")
    if ch.phi.max() >= spec.xhat_size or ch.psi.max() >= spec.xhat_size:
        raise InvalidInstanceError("reconstruction indices exceed xhat_size")
    a_cols, e_cols = _cost_tables(src.pxy, spec, ch.phi, ch.psi)
    p = ch.pz_given_x
    return float((p * a_cols).sum()), float((p * e_cols).sum())


def _cost_tables(pxy, spec, phi, psi):
    """Per-(x, z) linear coefficients of the two distortion constraints."""
    dd_sel = spec.dd[:, phi]  # (X, Y, Z)
    a_cols = np.einsum("xy,xyz->xz", pxy, dd_sel)
    de_phi = spec.de[phi]  # (Y, Z, n_xhat)
    nx = pxy.shape[0]
    idx = psi[:, None, :, None]  # (X, 1, Z, 1)
    de_sel = np.take_along_axis(
        np.broadcast_to(de_phi[None], (nx,) + de_phi.shape), idx, axis=3
    )[..., 0]  # (X, Y, Z)
    e_cols = np.einsum("xy,xyz->xz", pxy, de_sel)
    return a_cols, e_cols


def _feasibility_lp(cons, targets, nx, ncols):
    """Find a channel in the product of simplices meeting the linear
    constraints, or report infeasibility."""
    nvar = nx * ncols
    a_ub = np.stack([c.ravel() for c in cons]) if cons else None
    b_ub = np.asarray(targets, dtype=float) if cons else None
    a_eq = np.zeros((nx, nvar))
    for x in range(nx):
        a_eq[x, x * ncols : (x + 1) * ncols] = 1.0
    res = linprog(
        np.zeros(nvar),
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=np.ones(nx),
        bounds=[(0.0, 1.0)] * nvar,
        method="highs",
    )
    if not res.success:
        return None
    return np.maximum(res.x.reshape(nx, ncols), 0.0)


def _fw_single(problem, cons, targets, p0, cfg):
    """Penalized Frank-Wolfe warm-up for one candidate."""
    p = p0.copy()
    lb = -math.inf
    iters = 0
    for rho, n_iters in ((16.0, 60), (4096.0, 60)):
        for j in range(min(n_iters, cfg.inner_max_iters)):
            iters += 1
            f, grad = problem.value_and_grad(p)
            fpen = f
            gpen = grad
            for a, t in zip(cons, targets):
                viol = max((a * p).sum() - t, 0.0)
                if viol > 0.0:
                    fpen += rho * viol * viol
                    gpen = gpen + (2.0 * rho * viol) * a
            s = np.zeros_like(p)
            s[np.arange(p.shape[0]), np.argmin(gpen, axis=1)] = 1.0
            gap = float((gpen * (p - s)).sum())
            lb = max(lb, fpen - gap)
            if gap <= cfg.inner_tolerance:
                break
            p = p + (2.0 / (j + 3.0)) * (s - p)
    return p, lb, gap, iters


def _lmo_lp(grad, cons, targets, nx, ncols):
    """Linear minimization over the exact feasible polytope (a vertex)."""
    nvar = nx * ncols
    a_ub = np.stack([c.ravel() for c in cons]) if cons else None
    b_ub = np.asarray(targets, dtype=float) if cons else None
    a_eq = np.zeros((nx, nvar))
    for x in range(nx):
        a_eq[x, x * ncols : (x + 1) * ncols] = 1.0
    res = linprog(
        grad.ravel(),
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=np.ones(nx),
        bounds=[(0.0, 1.0)] * nvar,
        method="highs",
    )
    if not res.success:
        return None
    return np.maximum(res.x.reshape(nx, ncols), 0.0)


def _certified_refine(problem, cons, targets, p, tol, max_rounds=60):
    """Conditional-gradient tail on the exactly constrained problem.

    Starting from a (near-)feasible point, each round takes the linear
    minimization oracle over the true polytope and an exact line search;
    the linearization gap certifies the distance to the candidate optimum.
    Returns (point, certified gap).
    """
    gap = math.inf
    for _ in range(max_rounds):
        f, grad = problem.value_and_grad(p)
        vertex = _lmo_lp(grad, cons, targets, *p.shape)
        if vertex is None:
            break
        direction = vertex - p
        gap = float(-(grad * direction).sum())
        if gap <= tol:
            break
        line = minimize_scalar(
            lambda t: problem.value(p + t * direction),
            bounds=(0.0, 1.0),
            method="bounded",
            options={"xatol": 1e-13},
        )
        step = float(line.x)
        if step <= 0.0:
            break
        p = p + step * direction
    return p, gap


def _slsqp_polish(problem, cons, targets, p0, cfg):
    """Exactly-constrained refinement of a Frank-Wolfe iterate."""
    nx, ncols = p0.shape
    nvar = nx * ncols
    a_eq = np.zeros((nx, nvar))
    for x in range(nx):
        a_eq[x, x * ncols : (x + 1) * ncols] = 1.0
    constraints = [
        {"type": "eq", "fun": lambda v: a_eq @ v - 1.0, "jac": lambda v: a_eq},
    ]
    if cons:
        a_ub = np.stack([c.ravel() for c in cons])
        b_ub = np.asarray(targets, dtype=float)
        constraints.append(
            {"type": "ineq", "fun": lambda v: b_ub - a_ub @ v, "jac": lambda v: -a_ub}
        )

    def fun(v):
        f, g = problem.value_and_grad(v.reshape(nx, ncols))
        return f, g.ravel()

    res = minimize(
        fun,
        p0.ravel(),
        jac=True,
        method="SLSQP",
        bounds=[(0.0, 1.0)] * nvar,
        constraints=constraints,
        options={"ftol": 1e-12, "maxiter": 250},
    )
    p = np.maximum(res.x.reshape(nx, ncols), 0.0)
    sums = p.sum(axis=1, keepdims=True)
    sums[sums == 0.0] = 1.0
    return p / sums


def solve_constrained(
    problem: _InnerProblem,
    cons: list[np.ndarray],
    targets: list[float],
    cfg: SolveConfig,
    best_bound: float | None = None,
    skip_lp: bool = False,
) -> InnerResult:
    """Core inner solve: convex rate objective, linear distortion constraints.

    Feasibility is certified by a linear program (lazily when skip_lp is
    set: only if the penalty loop fails to reach a near-feasible point);
    the penalized Frank-Wolfe loop provides a warm start and a lower bound
    used to prune against best_bound; SLSQP then enforces the constraints
    exactly and drives the objective to the candidate optimum.
    """
    nx = problem.pxy.shape[0]
    ncols = problem.n_cols
    # cheap necessary condition before any LP
    for c, t in zip(cons, targets):
        if c.min(axis=1).sum() > t + 1e-12:
            return InnerResult(status="infeasible")

    uniform = np.full((nx, ncols), 1.0 / ncols)
    lp_start = None
    if not skip_lp:
        feasible = _feasibility_lp(cons, targets, nx, ncols)
        if feasible is None:
            return InnerResult(status="infeasible")
        lp_start = 0.98 * feasible + 0.02 * uniform

    p, lb, gap, iters = _fw_single(
        problem, cons, targets, lp_start if lp_start is not None else uniform, cfg
    )
    if best_bound is not None and lb > best_bound + _PRUNE_MARGIN:
        return InnerResult(status="pruned", lower_bound=lb, iterations=iters)

    viol = max(
        (max((c * p).sum() - t, 0.0) for c, t in zip(cons, targets)), default=0.0
    )
    if viol > 1e-6 and lp_start is None:
        feasible = _feasibility_lp(cons, targets, nx, ncols)
        if feasible is None:
            return InnerResult(status="infeasible")
        lp_start = 0.98 * feasible + 0.02 * uniform

    # exact stage: SLSQP from the penalty iterate (and from the LP point,
    # whose basin sometimes differs), then a conditional-gradient tail on
    # the true polytope whose linearization gap certifies the result
    best_p = None
    best_value = math.inf
    starts = [p] + ([lp_start] if lp_start is not None else [])
    for start in starts:
        candidate = _slsqp_polish(problem, cons, targets, start, cfg)
        value = problem.value(candidate)
        overshoot = max(
            (max((c * candidate).sum() - t, 0.0) for c, t in zip(cons, targets)),
            default=0.0,
        )
        if overshoot <= 10 * cfg.inner_tolerance and value < best_value:
            best_p, best_value = candidate, value
    if best_p is None:
        return InnerResult(
            status="max_iterations", channel=p, rate=max(problem.value(p), 0.0),
            gap=gap, violation=viol, iterations=iters, lower_bound=lb,
        )
    refine_tol = min(cfg.inner_tolerance, 1e-8)
    best_p, gap = _certified_refine(problem, cons, targets, best_p, refine_tol)
    rate = max(problem.value(best_p), 0.0)
    viol = max(
        (max((c * best_p).sum() - t, 0.0) for c, t in zip(cons, targets)), default=0.0
    )
    status = "optimal" if viol <= 10 * cfg.inner_tolerance else "max_iterations"
    return InnerResult(
        status=status, channel=best_p, rate=rate, gap=gap,
        violation=viol, iterations=iters, lower_bound=lb,
    )


def inner_minimize(
    src: JointSource,
    spec: DistortionSpec,
    dd_target: float,
    de_target: float,
    phi: np.ndarray,
    psi: np.ndarray,
    cfg: SolveConfig | None = None,
) -> InnerResult:
    """Constrained convex minimization over P_{Z|X} for fixed rules.

    Returns the optimal channel and rate for this (phi, psi), an infeasible
    status when no channel meets both targets, or a flagged result carrying
    the best iterate and gap bound on non-convergence.
    """
    cfg = cfg or SolveConfig()
    phi = np.asarray(phi, dtype=np.int64)
    psi = np.asarray(psi, dtype=np.int64)
    a_cols, e_cols = _cost_tables(src.pxy, spec, phi, psi)
    problem = _InnerProblem(src.pxy, a_cols.shape[1])
    return solve_constrained(
        problem, [a_cols, e_cols], [float(dd_target), float(de_target)], cfg
    )


def scan_candidates(problem, cons, cands, targets, cfg, universe=None):
    """Exactly solve rule candidates, stopping as early as possible.

    cons: one (X, N) constraint matrix per target over the complete column
    library; cands: (C, m) library column indices, one row per candidate
    in ascending lexicographic order.  A candidate's columns are gathered
    only when the scan reaches it.  ``universe`` is an optional problem
    over all N columns posing the same minimization; its optimum
    lower-bounds every candidate, so the scan can stop at the first
    candidate attaining it, and its infeasibility certifies that every
    candidate is infeasible.  The floor is the universe's primal value,
    not a certified lower bound.  Candidates are visited in descending
    total universe mass sum_{col in cand} sum_x p(x) p_univ(col|x), equal
    masses in lexicographic order, so the universe's own support comes
    first.

    Returns (best InnerResult or None, best row of cands, iterations).
    """
    floor = -math.inf
    total_iters = 0
    order = range(len(cands))
    if universe is not None:
        u_res = solve_constrained(universe, cons, targets, cfg)
        total_iters += u_res.iterations
        if u_res.status == "infeasible":
            return None, -1, total_iters
        if u_res.status == "optimal":
            floor = u_res.rate
        mass = universe.px @ u_res.channel
        order = np.argsort(-mass[cands].sum(axis=1), kind="stable")
    best = None
    best_idx = -1
    for ci in order:
        ci = int(ci)
        cand_cons = [c[:, cands[ci]] for c in cons]
        if any(c.min(axis=1).sum() > t + 1e-12 for c, t in zip(cand_cons, targets)):
            continue  # even the per-x cheapest columns miss a target
        res = solve_constrained(
            problem, cand_cons, targets, cfg,
            best_bound=None if best is None else best.rate,
            skip_lp=True,
        )
        total_iters += res.iterations
        if res.status in ("infeasible", "pruned", "max_iterations"):
            continue
        if best is None or res.rate < best.rate - _TIE_EPS:
            best = res
            best_idx = ci
            if best.rate <= floor + _STOP_TOL:
                break
    return best, best_idx, total_iters


def _signature_library(src: JointSource, spec: DistortionSpec, with_psi: bool):
    """One signature per distinct decoder column, with its cost columns.

    Returns (signatures, a_rows, e_rows) where signatures[i] is (f, g) with
    f the decoder column (length Y) and g the encoder column (length X, or
    None when the encoder constraint is dropped); a_rows[i], e_rows[i] are
    the per-x coefficients of E d_d and E d_e for that column.  g picks,
    per x, the encoder letter with the smallest E d_e coefficient (the
    smallest letter on ties), which dominates every other encoder column.
    Signatures with identical cost columns keep only the lexicographically
    smallest decoder column.
    """
    pxy = src.pxy
    nx, ny = pxy.shape
    sigs, a_rows, e_rows, seen = [], [], [], set()
    for f in itertools.product(range(spec.xhat_size), repeat=ny):
        f_arr = np.asarray(f)
        a = np.einsum("xy,xy->x", pxy, spec.dd[:, f_arr])
        g, e = None, np.zeros(nx)
        if with_psi:
            per_c = pxy @ spec.de[f_arr]  # (X, Xhat): E d_e coefficient per letter
            letters = per_c.argmin(axis=1)
            g, e = tuple(letters.tolist()), per_c[np.arange(nx), letters]
        key = (a.tobytes(), e.tobytes())
        if key in seen:
            continue
        seen.add(key)
        sigs.append((f, g))
        a_rows.append(a)
        e_rows.append(e)
    return sigs, np.asarray(a_rows), np.asarray(e_rows)


def _check_instance(src: JointSource, spec: DistortionSpec):
    require_valid_source(src)
    if spec.dd.shape[0] != src.x_size:
        raise InvalidInstanceError("dd rows do not match the source alphabet")


def _candidate_array(n_sig: int, m: int, cap: int) -> np.ndarray:
    count = math.comb(n_sig, m)
    if count > cap:
        raise ResourceCapError(
            f"{count} reconstruction-rule candidates exceed the cap {cap}; "
            "reduce z_size or raise enumeration_cap"
        )
    flat = itertools.chain.from_iterable(itertools.combinations(range(n_sig), m))
    return np.fromiter(flat, dtype=np.int64, count=count * m).reshape(count, m)


def solve_rate(
    src: JointSource,
    spec: DistortionSpec,
    dd_target: float,
    de_target: float,
    cfg: SolveConfig | None = None,
) -> RatePoint:
    """The rate-distortions function at one target pair, with witness.

    Enumerates reconstruction-rule candidates (deduplicated as described in
    the module docstring), keeps the best inner minimum, and reconstructs
    the witness channel.  Requires the zero-distortion assumption; the rate
    is bounded by H(X|Y) because the identity channel with zero-distortion
    rules is always a candidate.
    """
    cfg = cfg or SolveConfig()
    _check_instance(src, spec)
    dd_target = float(dd_target)
    de_target = float(de_target)
    if dd_target < 0 or de_target < 0:
        raise AssumptionError("distortion targets must be nonnegative")
    if not check_zero_distortion_assumption(spec):
        raise AssumptionError(
            "distortion tables violate the zero-distortion assumption"
        )
    z_size = cfg.z_size if cfg.z_size is not None else src.x_size + 3
    sigs, a_rows, e_rows = _signature_library(src, spec, with_psi=True)

    zero = _constant_rule_point(src, spec, sigs, a_rows, e_rows, dd_target, de_target)
    if zero is not None:
        return zero

    n_sig = len(sigs)
    m = min(z_size, n_sig)
    cands = _candidate_array(n_sig, m, cfg.enumeration_cap)
    cons = [np.ascontiguousarray(a_rows.T), np.ascontiguousarray(e_rows.T)]
    universe = _InnerProblem(src.pxy, n_sig) if n_sig > m else None
    best, best_idx, iters = scan_candidates(
        _InnerProblem(src.pxy, m), cons, cands, [dd_target, de_target], cfg, universe
    )
    if best is None:
        raise InfeasibleError(
            "no reconstruction rule meets the targets at this z_size"
        )
    cand = [int(i) for i in cands[best_idx]]
    phi, psi, channel = _witness_tables(sigs, cand, best.channel, src.y_size, src.x_size)
    ch = TestChannel(z_size=len(cand), pz_given_x=channel, phi=phi, psi=psi)
    add, ade = expected_distortions(src, spec, ch)
    label = "exact" if m >= min(src.x_size + 3, n_sig) else "upper_bound"
    return RatePoint(
        dd_target=dd_target, de_target=de_target, rate=best.rate, witness=ch,
        achieved_dd=add, achieved_de=ade, iterations=iters, gap=best.gap, label=label,
    )


def _constant_rule_point(src, spec, sigs, a_rows, e_rows, dd_target, de_target):
    """Rate-0 shortcut: a constant-Z rule meeting both targets, if any."""
    const_dd = a_rows.sum(axis=1)
    const_de = e_rows.sum(axis=1)
    ok = np.nonzero((const_dd <= dd_target + 1e-15) & (const_de <= de_target + 1e-15))[0]
    if len(ok) == 0:
        return None
    i = int(ok[0])
    f, g = sigs[i]
    phi = np.asarray(f, dtype=np.int64)[:, None]
    psi = np.asarray(g, dtype=np.int64)[:, None]
    ch = TestChannel(
        z_size=1, pz_given_x=np.ones((src.x_size, 1)), phi=phi, psi=psi
    )
    return RatePoint(
        dd_target=dd_target, de_target=de_target, rate=0.0, witness=ch,
        achieved_dd=float(const_dd[i]), achieved_de=float(const_de[i]),
    )


def _witness_tables(sigs, cand, channel, y_size, x_size):
    phi = np.zeros((y_size, len(cand)), dtype=np.int64)
    psi = np.zeros((x_size, len(cand)), dtype=np.int64)
    for j, i in enumerate(cand):
        f, g = sigs[i]
        phi[:, j] = f
        psi[:, j] = g if g is not None else 0
    sums = channel.sum(axis=1, keepdims=True)
    return phi, psi, channel / sums


def r_wz(src: JointSource, spec_dd, dd_target: float, cfg: SolveConfig | None = None) -> float:
    """Wyner-Ziv baseline: the encoder-side constraint is dropped.

    ``spec_dd`` may be a DistortionSpec (whose d_e is ignored) or a plain
    d_d table.  The auxiliary alphabet defaults to |X| + 1 columns.
    """
    cfg = cfg or SolveConfig()
    dd = spec_dd.dd if isinstance(spec_dd, DistortionSpec) else np.asarray(spec_dd, float)
    spec = _dd_only_spec(dd)
    _check_instance(src, spec)
    dd_target = float(dd_target)
    if dd_target < 0:
        raise AssumptionError("distortion target must be nonnegative")
    if not np.all((dd == 0.0).any(axis=1)):
        raise AssumptionError("every source symbol needs a zero-distortion letter")
    z_size = cfg.z_size if cfg.z_size is not None else src.x_size + 1
    sigs, a_rows, _ = _signature_library(src, spec, with_psi=False)
    if a_rows.sum(axis=1).min() <= dd_target + 1e-15:
        return 0.0
    n_sig = len(sigs)
    m = min(z_size, n_sig)
    cands = _candidate_array(n_sig, m, cfg.enumeration_cap)
    cons = [np.ascontiguousarray(a_rows.T)]
    universe = _InnerProblem(src.pxy, n_sig) if n_sig > m else None
    best, _, _ = scan_candidates(
        _InnerProblem(src.pxy, m), cons, cands, [dd_target], cfg, universe
    )
    if best is None:
        raise InfeasibleError("no decoder rule meets the target at this z_size")
    return max(best.rate, 0.0)


def r_cr(src: JointSource, spec_dd, dd_target: float, cfg: SolveConfig | None = None) -> float:
    """Common-reconstruction baseline: the reconstruction is the auxiliary
    itself (Z ranges over Xhat and phi(y, z) = z)."""
    cfg = cfg or SolveConfig()
    dd = spec_dd.dd if isinstance(spec_dd, DistortionSpec) else np.asarray(spec_dd, float)
    spec = _dd_only_spec(dd)
    _check_instance(src, spec)
    dd_target = float(dd_target)
    if dd_target < 0:
        raise AssumptionError("distortion target must be nonnegative")
    a_cols = src.px[:, None] * dd  # E d_d coefficient of column z = xhat
    if a_cols.sum(axis=0).min() <= dd_target + 1e-15:
        return 0.0  # a constant reconstruction already meets the target
    problem = _InnerProblem(src.pxy, spec.xhat_size)
    res = solve_constrained(problem, [a_cols], [dd_target], cfg)
    if res.status == "infeasible":
        raise InfeasibleError("target below the minimum achievable distortion")
    return max(res.rate, 0.0)


def _dd_only_spec(dd: np.ndarray) -> DistortionSpec:
    nhat = dd.shape[1]
    return DistortionSpec(xhat_size=nhat, dd=dd, de=np.zeros((nhat, nhat)))


def brute_force_oracle(
    src: JointSource,
    spec: DistortionSpec,
    dd_target: float,
    de_target: float,
    z_size: int,
    grid_resolution: int,
    phi: np.ndarray | None = None,
    psi: np.ndarray | None = None,
) -> float:
    """Exhaustive simplex-grid scan over channels and reconstruction rules.

    Channel rows range over the grid {k / grid_resolution}; the result is
    the minimum objective among grid points meeting both constraints, an
    upper bound on the true rate that tightens as the grid refines.
    Intended for binary-scale instances; pass phi/psi to restrict the scan
    to one rule pair.
    """
    _check_instance(src, spec)
    rows = _simplex_grid(z_size, grid_resolution)
    n_rows = rows.shape[0]
    nx, ny = src.x_size, src.y_size
    n_channels = n_rows**nx
    if phi is None:
        pairs = [
            (np.asarray(f, np.int64).reshape(ny, z_size), np.asarray(g, np.int64).reshape(nx, z_size))
            for f in itertools.product(range(spec.xhat_size), repeat=ny * z_size)
            for g in itertools.product(range(spec.xhat_size), repeat=nx * z_size)
        ]
    else:
        pairs = [(np.asarray(phi, np.int64), np.asarray(psi, np.int64))]
    if n_channels * len(pairs) > 2e8:
        raise ResourceCapError(
            f"{n_channels} grid channels x {len(pairs)} rule pairs is beyond the oracle cap"
        )
    idx = np.indices((n_rows,) * nx).reshape(nx, -1).T  # (n_channels, X)
    channels = rows[idx]  # (n_channels, X, z)
    pxy = src.pxy
    px = src.px
    py = pxy.sum(axis=0)
    hy_const = float(xlogy(py, py).sum())
    m_yz = np.einsum("xy,cxz->cyz", pxy, channels)
    objective = (
        hy_const
        - xlogy(m_yz, m_yz).sum(axis=(1, 2))
        + (px[None, :, None] * xlogy(channels, channels)).sum(axis=(1, 2))
    ) / LN2
    best = math.inf
    for f_tab, g_tab in pairs:
        a_cols, e_cols = _cost_tables(pxy, spec, f_tab, g_tab)
        edd = np.einsum("cxz,xz->c", channels, a_cols)
        ede = np.einsum("cxz,xz->c", channels, e_cols)
        feasible = (edd <= dd_target + 1e-12) & (ede <= de_target + 1e-12)
        if feasible.any():
            best = min(best, float(objective[feasible].min()))
    if best is math.inf:
        raise InfeasibleError("no grid point meets the targets")
    return max(best, 0.0)


def _simplex_grid(z_size: int, resolution: int) -> np.ndarray:
    """All probability rows with entries k / resolution summing to 1."""
    rows = []
    for bars in itertools.combinations(range(resolution + z_size - 1), z_size - 1):
        prev = -1
        counts = []
        for b in bars:
            counts.append(b - prev - 1)
            prev = b
        counts.append(resolution + z_size - 2 - prev)
        rows.append(counts)
    return np.asarray(rows, dtype=float) / resolution


@dataclass(frozen=True)
class SweepCell:
    """One cell of a trade-off sweep: a RatePoint or recorded error."""

    dd_target: float
    de_target: float
    point: RatePoint | None = None
    error: str | None = None

    @property
    def status(self) -> str:
        return "ok" if self.point is not None else "error"


def tradeoff_sweep(
    src: JointSource,
    spec: DistortionSpec,
    dd_grid,
    de_grid,
    cfg: SolveConfig | None = None,
) -> list[list[SweepCell]]:
    """solve_rate over the target grid; per-cell errors are recorded in-cell.

    Grids must be sorted ascending.  The result is row-major in dd.
    """
    dd_grid = [float(v) for v in dd_grid]
    de_grid = [float(v) for v in de_grid]
    if dd_grid != sorted(dd_grid) or de_grid != sorted(de_grid):
        raise InvalidInstanceError("sweep grids must be sorted ascending")
    out = []
    for dd_t in dd_grid:
        row = []
        for de_t in de_grid:
            try:
                row.append(SweepCell(dd_t, de_t, point=solve_rate(src, spec, dd_t, de_t, cfg)))
            except (AssumptionError, InfeasibleError, ResourceCapError) as exc:
                row.append(SweepCell(dd_t, de_t, error=str(exc)))
        out.append(row)
    return out


def h_x_given_y_bits(src: JointSource) -> float:
    """Convenience re-export of the conditional entropy bound."""
    return conditional_entropy_x_given_y(src)
