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
column.  The same library serves the extended problem's K three-argument
tables (rdsi.extended): there an encoder letter is dropped at (f, x) only
when another matches or beats it on all K coefficients, so f carries one
encoder column per choice of letters from those fronts, and just one when
at most one table varies with the encoder letter.

Rate zero.  A Z independent of X has rate 0; its distortions are one mix
of the library columns' totals, and with two constraints one column or a
pair of them decides whether such a mix meets both targets; the pairs
come from the columns no other column beats on every total, a front
found once per library.  Every library solve (base, baselines and
extended) checks this first.

Full-library solve.  The same minimization over the complete column
library (no subset restriction) lower-bounds the rate at every z_size, a
smaller z_size only restricting it, and it equals the rate once z_size >=
|X| + 3 (|X| + 1 for the Wyner-Ziv baseline), the cardinality bound, or
once z_size covers the library; the common-reconstruction baseline is the
same problem on its |Xhat| constant decoder columns.  It is one convex
problem.  A Lagrangian Blahut-Arimoto iteration over all columns solves
its Wyner-Ziv relaxation (the decoder constraint only) at the decoder
multipliers 0, 1, 4, 16, ... until an iterate meets the decoder target;
every iterate carries a certified lower bound (its Lagrangian minus a
Frank-Wolfe gap that needs no LP), which holds for the rate too.  The
iteration finds the support of the optimum quickly but converges on it
only geometrically, so the mix of the last two iterates is settled on its
support instead, in one support solve that holds the decoder target and
every other target the mix misses: Newton's method on the KKT system of
at most |X| + 3 heaviest columns gives the exact optimum there and its
multipliers, the Frank-Wolfe gap at those multipliers, with the other
columns at their Blahut-Arimoto shapes, certifies it, and a column whose
mass would grow enters the support (column generation).  One policy
decides which targets stay held: one whose multiplier comes out negative
is released at once, and while holding several leaves the gap open, each
is released in turn.  Caratheodory's theorem on the per-column vectors
(posterior, H(X|z) - H(Y|z), distortions) cuts the solution to a witness
of at most |X| + 3 columns with the same rate and distortions.  A gap of
at most 1e-7 bits settles the point, at any z_size the witness fits in,
and nothing is enumerated.  A point the support solve leaves uncertified
(near a corner of the region, where no support from the Wyner-Ziv
solution reaches both targets) goes on to a search over the multipliers
of every target: an ellipsoid method on the concave dual, one
Blahut-Arimoto solve per step, whose channels the same support solve
settles; at the cardinality bound that is the answer.  No solve loads
scipy.

Below the cardinality bound, where the certified witness needs more than
z_size columns, the restricted problem is not convex: the z_size-column
candidates are enumerated, each solved on its own columns by the bracket
and one support solve, without the multiplier search, and pruned once a
bound of the bracket exceeds the incumbent; a candidate counts only if it
meets every target within 1e-12.

Sweeps.  Every certified bound is L(p, lam) - lam . t - gap for some
multipliers lam >= 0, a plane under R at every target pair with the same
zero targets, and a witness stays feasible at larger targets, so a sweep
settles a cell from earlier cells' planes and witnesses where they meet
within 1e-10 bits (tradeoff_sweep).  The bracket's Blahut-Arimoto solves
do not depend on the target values, only on which targets are zero, so a
sweep makes each of them once and every cell reuses them.

Early stopping.  Candidates are scanned in descending total mass of
their columns under the full-library solution, ties in lexicographic
order, so its support comes first; the scan stops at the first candidate
within 1e-8 bits of the full library's certified lower bound.  Ties
between equally good candidates resolve to the first one in scan order.

All rates are in bits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._scipy import xlogy
from .caratheodory import ConvexCombination, caratheodory_support
from .errors import AssumptionError, InfeasibleError, InvalidInstanceError, ResourceCapError
from .model import (
    LN2,
    DistortionSpec,
    JointSource,
    TestChannel,
    check_zero_distortion_assumption,
    require_valid_source,
)

_TINY = 1e-300
_PRUNE_MARGIN = 1e-7
_STOP_TOL = 1e-8
_TIE_EPS = 1e-12
_EXACT_GAP = 1e-7  # certified gap (bits) below which a full-library point is "exact"
_UNIVERSE_GAP = 1e-10  # full-library target gap (bits)
_BA_MAX_ITERS = 50_000  # Blahut-Arimoto iterations per multiplier value
_BA_RESTART_MIX = 0.1  # uniform share of a warm start, so no column stays dead
_BA_MU_GROWTH = 1.5  # over-relaxed step-size growth after a step that did not raise the gap ...
_BA_MU_MAX = 8.0  # ... up to this size (1 is the plain Blahut-Arimoto update)
_SUPPORT_EXTRA = 3  # a support solve starts from at most |X| + this many columns ...
_SUPPORT_PRUNE = 1e-9  # ... each with at least this share of the heaviest one's mass
_SUPPORT_FLOOR = 1e-9  # smallest starting entry of a support column
_NEWTON_MAX_ITERS = 50  # Newton steps of a support solve
_NEWTON_TOL = 1e-10  # largest relative entry change of a converged Newton step
_KKT_RESIDUAL = 1e-9  # relative residual above which a Newton step falls back to lstsq
_CERT_STEPS = 20  # Blahut-Arimoto steps of a support certificate
_DEAD_NATS = 60.0  # log-mass of a column off the support, below its BA shape
_PRICING_ROUNDS = 10  # support solves per settle attempt, one entering column each
_ENTER_MASS = 1e-3  # starting mass of an entering column
_SLACK_MULTIPLIER = 1e-9  # a held target whose multiplier is below minus this may be slack
_DUAL_MAX_LAMBDA = 1e12
_COARSE_GAP = 1e-2  # gap (bits) that ends the bracketing solves at lam = 1, 4, 16, ...
_ZERO_TARGET_NATS = 1e4  # log-mass penalty on entries a zero target forbids
_SEARCH_GAP = 1e-3  # gap (bits) of the multiplier search's first Blahut-Arimoto solve
_SEARCH_RADIUS = 16.0  # radius of its first ellipsoid, per target, in bracket multipliers


@dataclass(frozen=True)
class SolveConfig:
    """Solver knobs, shared by the extended solver.  z_size = None means
    the cardinality bound: |X| + K + 1 for K distortion tables, so |X| + 3
    for solve_rate (|X| + 1 for r_wz, whose bound is tighter).

    enumeration_cap limits the candidate scan, which runs only below the
    cardinality bound (where the full-library witness does not fit in
    z_size, or is uncertified), and is checked before any solve.
    """

    z_size: int | None = None
    enumeration_cap: int = 1_000_000

    def __post_init__(self):
        if self.z_size is not None and self.z_size < 1:
            raise InvalidInstanceError("z_size must be at least 1")
        if self.enumeration_cap < 1:
            raise InvalidInstanceError("enumeration cap must be positive")


@dataclass(frozen=True)
class RatePoint:
    """A solved point of the trade-off with its witness channel.

    ``gap`` is the rate minus a certified lower bound on R, never negative;
    R lower-bounds the rate at every z_size.  ``label`` is "exact" when the
    gap is at most 1e-7 bits, at any z_size: the rate is then within 1e-7
    of both R and the z_size-restricted minimum.  It is "upper_bound"
    otherwise: the z_size-restricted minimum may lie above R, or no
    certificate closed.  ``path`` says what settled the point: "constant"
    (a mix of constant rules, rate 0), "library" (the full-library solve,
    whose witness fits in z_size; it may have fewer columns) or "scan"
    (the candidate enumeration, only below the cardinality bound).
    ``multipliers`` (bits per unit of (D_d, D_e), nonnegative) make the
    certified bound a plane: rate - gap + multipliers . (t - t') lower-bounds
    R at every t' whose zero targets include those of t = (dd_target,
    de_target); a rate-0 point has zeros.  In a sweep, a cell settled from
    earlier cells reports iterations 0, and a solved cell counts only the
    bracket solves it was the first to make (see tradeoff_sweep).
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
    path: str = "scan"
    multipliers: tuple = ()


class _Bound(float):
    """A certified lower bound on R at the targets t it was made at, with
    its multipliers lam >= 0 (K,): bound + lam . (t - t') bounds R(t') as
    well, wherever every target that is zero in t is zero in t' (a zero
    target forbids entries, and the bound holds only with them at zero).
    ``max`` of two bounds keeps the higher one's multipliers."""

    def __new__(cls, value, lam):
        self = super().__new__(cls, value)
        self.lam = np.asarray(lam, dtype=float)
        return self


class _InnerProblem:
    """H(Z|Y) - H(Z|X) (bits) as a function of the conditional table."""

    def __init__(self, pxy: np.ndarray):
        self.pxy = pxy
        self.px = pxy.sum(axis=1)
        py = pxy.sum(axis=0)
        self._hy = float(xlogy(py, py).sum())

    def value(self, p: np.ndarray) -> float:
        myz = self.pxy.T @ p
        nat = self._hy - xlogy(myz, myz).sum() + (self.px[:, None] * xlogy(p, p)).sum()
        return float(nat / LN2)


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


def scan_candidates(pxy, cons, cands, targets, floor=-math.inf, mass=None):
    """Exactly solve rule candidates, stopping as early as possible.

    cons: one (X, N) constraint matrix per target over the complete column
    library; cands: (C, m) library column indices, one row per candidate
    in ascending lexicographic order.  A candidate's columns are gathered
    only when the scan reaches it, and solved by _certified_solve with the
    best rate so far as its incumbent.  ``floor`` is a lower bound on every
    candidate's optimum, the full library's certified bound; the scan stops
    at the first candidate within _STOP_TOL of it.
    ``mass`` (length N) orders the scan: candidates are visited in
    descending total mass of their columns, equal masses in lexicographic
    order, so the full library's own support comes first.

    Returns (best point, an _Iterate over its candidate's columns, or None;
    best row of cands; iterations).
    """
    best, best_idx, total_iters = None, -1, 0
    order = range(len(cands))
    if mass is not None:
        order = np.argsort(-mass[cands].sum(axis=1), kind="stable")
    for ci in map(int, order):
        ba = _LibraryBA(pxy, [c[:, cands[ci]] for c in cons], targets)
        _, point = _certified_solve(ba, incumbent=None if best is None else best.value)
        total_iters += ba.iterations
        if point is not None and (best is None or point.value < best.value - _TIE_EPS):
            best, best_idx = point, ci
            if best.value <= floor + _STOP_TOL:
                break
    return best, best_idx, total_iters


def _log_normalize(logp: np.ndarray) -> np.ndarray:
    top = logp.max(axis=1, keepdims=True)
    return logp - (top + np.log(np.exp(logp - top).sum(axis=1, keepdims=True)))


@dataclass
class _Iterate:
    """A channel over the full library, kept as its logarithm so that the
    shape of columns whose mass underflows survives, with its rate and
    constraint values."""

    logp: np.ndarray  # (X, N)
    value: float  # H(Z|Y) - H(Z|X) in bits
    costs: np.ndarray  # (K,) c . p, one per constraint
    gap: float = math.nan  # a Blahut-Arimoto solve's Frank-Wolfe gap (bits) at its multipliers

    @property
    def channel(self) -> np.ndarray:
        return np.exp(self.logp)


class _LibraryBA:
    """Lagrangian Blahut-Arimoto over the full column library.

    For multipliers lam >= 0, one per constraint, it minimizes
    L(p, lam) = F(p) + lam . c p over channels p(z|x) on all N columns,
    F = H(Z|Y) - H(Z|X) in bits, by the update

        p(z|x) ~ exp(sum_y p(y|x) log r(z|y) - ln2 lam . c(x, z) / p(x)),
        r(z|y) = sum_x p(x|y) p(z|x),

    Csiszar-Tusnady alternating minimization of a jointly convex function
    (the Wyner-Ziv Blahut-Arimoto of Dupuis, Yu and Willems, ISIT 2004).
    Iterates are kept as log p, shifted per column, so the gradient stays
    exact on columns whose mass underflows.  The Frank-Wolfe gap over the
    product of row simplices is a row-wise gradient minimum, so every
    channel certifies L(p, lam) - lam t - gap <= R without an LP.

    A solve over-relaxes the update (the step-size Blahut-Arimoto of Matz
    and Duhamel, ITW 2004; see also Yu, IEEE Trans. IT, 2010): from an
    accepted point p with plain image T(p) it moves to p^(1 - mu) T(p)^mu,
    renormalized per row.  mu starts at 1, grows by _BA_MU_GROWTH after
    every step whose gap did not rise, up to _BA_MU_MAX; an extrapolated
    point whose gap is above the last accepted one is dropped for the plain
    image T(p) of the last accepted point, with mu back at 1.  The gap
    certifies any channel however it was reached, and the bound a solve
    returns is made at the point it returns, on every exit: at a gap <=
    tol, or after _BA_MAX_ITERS iterations.

    A zero target allows no mass on an entry with a positive coefficient:
    a fixed penalty of _ZERO_TARGET_NATS on those entries drives their
    mass to an exact zero.  The penalty term is left out of the Lagrangian,
    which only lowers the certified bound.
    """

    def __init__(self, pxy: np.ndarray, costs, targets):
        self.problem = _InnerProblem(pxy)
        self.px = px = self.problem.px
        self.p_y_given_x = pxy / np.maximum(px, _TINY)[:, None]
        self.p_x_given_y = pxy / np.maximum(pxy.sum(axis=0), _TINY)
        self.costs = np.asarray(costs, dtype=float)  # (K, X, N)
        self.per_x = LN2 / np.maximum(px, _TINY)
        self.targets = np.asarray(targets, dtype=float)
        zero = self.costs[self.targets <= 0.0]
        self.forbidden = _ZERO_TARGET_NATS * (zero > 0.0).any(axis=0)
        n = self.costs.shape[2]
        self.warm = np.full((pxy.shape[0], n), 1.0 / n)  # the next solve's start
        self.reach = 1.0  # the bracket's last multiplier, where _multiplier_search starts
        self.iterations = 0

    def iterate(self, logp: np.ndarray) -> _Iterate:
        p = np.exp(logp)
        costs = np.einsum("kxn,xn->k", self.costs, p)
        return _Iterate(logp, max(self.problem.value(p), 0.0), costs)

    def penalty(self, lam: np.ndarray) -> np.ndarray:
        """Per-entry log-mass penalty of the update at multipliers lam (K,)."""
        return self.forbidden + np.tensordot(lam, self.costs, 1) * self.per_x[:, None]

    def lagrangian(self, p: np.ndarray, lam: np.ndarray) -> float:
        """L(p, lam) - lam . t."""
        cost = np.einsum("k,kxn,xn->", lam, self.costs, p)
        return self.problem.value(p) + float(cost - lam @ self.targets)

    def _step(self, logp, penalty):
        """The update's image of a normalized logp, off by a constant per row,
        and the Frank-Wolfe gap (bits) at logp."""
        top = logp.max(axis=0)
        r = self.p_x_given_y.T @ np.exp(logp - top)
        new = self.p_y_given_x @ np.log(np.maximum(r, _TINY)) + top - penalty
        d = logp - new  # the gradient in units of p(x) / ln2, up to a constant per row
        gap = float(self.px @ ((np.exp(logp) * d).sum(axis=1) - d.min(axis=1))) / LN2
        return new, gap

    def solve(self, lam: np.ndarray, tol: float):
        """Minimize L(., lam) from ``warm`` until the gap is <= tol, at
        multipliers lam >= 0 (K,).

        Returns (certified lower bound on R, a _Bound at lam, made at the
        iterate; iterate, with its gap).
        """
        penalty = self.penalty(lam)
        logp = np.log((1.0 - _BA_RESTART_MIX) * self.warm + _BA_RESTART_MIX / self.warm.shape[1])
        mu, last, plain = 1.0, math.inf, None  # mu: the step that reached logp
        for it in range(1, _BA_MAX_ITERS + 1):
            new, gap = self._step(logp, penalty)
            if gap <= tol or it == _BA_MAX_ITERS:
                break
            if gap > last and mu > 1.0:  # back to the plain image of the last accepted point
                logp, mu = _log_normalize(plain), 1.0
                continue
            if plain is not None and gap <= last:
                mu = min(_BA_MU_GROWTH * mu, _BA_MU_MAX)
            last, plain = gap, new
            logp = _log_normalize(logp + mu * (new - logp))
        self.iterations += it
        res = self.iterate(logp)
        res.gap = gap
        self.warm = res.channel
        return self.bound(lam, res), res

    def bound(self, lam: np.ndarray, res: _Iterate) -> _Bound:
        """The certified bound at these targets of a solve's iterate ``res``
        at multipliers lam; the iterate and its gap depend only on the costs
        and on which targets are zero."""
        return _Bound(res.value + float(lam @ (res.costs - self.targets)) - res.gap, lam)


def _mix(ba: _LibraryBA, lo: _Iterate, hi: _Iterate, k: int = 0) -> _Iterate:
    """The combination of two iterates, one above and one at or below
    target k, that meets it exactly (its weights kept inside (0, 1) so
    that both logarithms stay finite); F is convex, so its value is at most
    the same combination of theirs."""
    theta = (ba.targets[k] - hi.costs[k]) / (lo.costs[k] - hi.costs[k])
    theta = min(max(theta, 1e-300), 1.0 - 1e-16)
    return ba.iterate(np.logaddexp(np.log(theta) + lo.logp, np.log1p(-theta) + hi.logp))


def _support_solve(ba: _LibraryBA, channel: np.ndarray, active: list):
    """Exact minimum of F on the heaviest columns of ``channel`` with the
    ``active`` constraints held at their targets.

    Newton's method on the KKT system.  F's Hessian (in nats) is
    block-diagonal, one X x X block diag(p(x) / p(z|x)) - sum_y p(x, y)
    p(x', y) / q(y, z) per column, q(y, z) = sum_x p(x, y) p(z|x), bordered
    by the row-sum and constraint rows; steps are cut short of the simplex
    boundary.  F is positively homogeneous in each column, so with more
    columns than equations it is linear along a rescaling of the columns
    that keeps every equation: the solve moves along it, downhill, until a
    column empties, as Caratheodory's reduction does.  A column whose mass
    a Newton step would take below zero is dropped as well, and an entry
    at _SUPPORT_FLOOR that a full step would empty is fixed at zero (an
    optimum may have a zero entry inside a support column).  Entries a
    zero target forbids stay zero.  Returns (channel over the library,
    zero off its support; multipliers of the active constraints in bits
    per unit), or None if Newton does not converge or the support has
    fewer free entries than equations (a held target is then fixed by the
    row sums, and Newton cannot move it).
    """
    pxy, px = ba.problem.pxy, ba.px
    live = px > 0.0
    nx, n_live = len(px), int(live.sum())
    mass = px @ channel
    order = np.argsort(-mass, kind="stable")[: n_live + _SUPPORT_EXTRA]
    cols = order[mass[order] > _SUPPORT_PRUNE * mass[order[0]]]
    ok = live[:, None] & (ba.forbidden[:, cols] == 0.0)
    used = ok.any(axis=0)  # a zero target may forbid a whole column
    cols, ok = cols[used], ok[:, used]
    p = np.where(ok, np.maximum(channel[:, cols], _SUPPORT_FLOOR), 0.0)
    costs, targets = ba.costs[active][:, :, cols], ba.targets[active]
    diag = np.arange(nx)
    for _ in range(_NEWTON_MAX_ITERS):
        if not ok[live].any(axis=1).all():
            return None
        p[live] /= p[live].sum(axis=1, keepdims=True)
        q = pxy.T @ p
        g = px[:, None] * np.log(np.where(ok, p, 1.0)) - pxy @ np.log(np.maximum(q, _TINY))
        rows = np.concatenate([np.eye(nx)[live][:, :, None] * p, costs * p])  # (eqs, X, Z)
        if len(cols) > len(rows):
            # F is linear along a null direction of the column sums: empty
            # the first columns that reach zero going downhill (ties too)
            dirn = np.linalg.svd(rows.sum(axis=1))[2][-1]
            if dirn @ (g * p).sum(axis=0) > 0.0:
                dirn = -dirn
            shrink = 1.0 - dirn / dirn.min()
            p *= shrink
            cols, p, ok, costs = (a[..., shrink > 0.0] for a in (cols, p, ok, costs))
            continue
        var = ok.T.ravel()
        n = int(var.sum())
        if n < len(rows):
            return None
        # the step in Jacobi-scaled coordinates dp = scale * v, which give
        # the Hessian a unit diagonal however small an entry is
        scale = np.sqrt(p / np.maximum(px, _TINY)[:, None])
        w = scale.T[:, :, None] * pxy  # (Z, X, Y)
        blocks = -np.einsum("zxy,yz,zwy->zxw", w, 1.0 / np.maximum(q, _TINY), w)
        blocks[:, diag, diag] += 1.0
        a = (rows / np.where(ok, p, 1.0) * scale).transpose(0, 2, 1).reshape(len(rows), -1)[:, var]
        kkt = np.zeros((n + len(a), n + len(a)))
        # the Hessian is block diagonal by column: scatter the blocks in
        at = np.arange(len(cols))[:, None] * nx + diag
        if var.all():
            kkt[at[:, :, None], at[:, None, :]] = blocks
        else:
            hessian = np.zeros((var.size, var.size))
            hessian[at[:, :, None], at[:, None, :]] = blocks
            kkt[:n, :n] = hessian[np.ix_(var, var)]
        kkt[:n, n:] = a.T
        kkt[n:, :n] = a
        residual = np.r_[np.ones(n_live), targets] - rows.sum(axis=(1, 2))
        rhs = np.concatenate([-(g * scale).T.ravel()[var], residual])
        if not np.isfinite(kkt).all() or not np.isfinite(rhs).all():
            return None
        sol = _kkt_solve(kkt, rhs)
        step = np.zeros(var.size)
        step[var] = sol[:n]
        step = step.reshape(len(cols), nx).T * scale / np.where(ok, p, 1.0)  # relative change
        before = px @ p
        after = px @ (p * (1.0 + step))
        empties = after <= 0.0
        if empties.any():
            share = np.full(len(cols), np.inf)
            share[empties] = before[empties] / (before[empties] - after[empties])
            j = int(np.argmin(share))
            cols, p, ok, costs = (np.delete(a, j, axis=-1) for a in (cols, p, ok, costs))
            continue
        # an entry at the floor that a full step would empty is zero at the
        # optimum: fix it there, and drop a column left with no entry
        pin = ok & (p <= _SUPPORT_FLOOR) & (step <= -1.0)
        if pin.any():
            ok, p = ok & ~pin, np.where(pin, 0.0, p)
            used = ok.any(axis=0)
            cols, p, ok, costs = cols[used], p[:, used], ok[:, used], costs[..., used]
            continue
        low = step.min()
        alpha = min(1.0, 0.995 / -low) if low < 0.0 else 1.0
        p *= 1.0 + alpha * step
        if alpha == 1.0 and np.abs(step).max() <= _NEWTON_TOL:
            out = np.zeros_like(channel)
            out[:, cols] = p
            out[~live, cols[0]] = 1.0
            return out, sol[n + n_live :] / LN2
    return None


def _kkt_solve(kkt: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """A support solve's Newton step: LU, unless it fails, gives non-finite
    values or leaves a residual above _KKT_RESIDUAL times the largest
    right-hand side entry; then the least-squares solution (the system is
    singular where the equations depend on each other)."""
    sol = None
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        pass
    if sol is not None and np.isfinite(sol).all():
        if np.abs(kkt @ sol - rhs).max() <= _KKT_RESIDUAL * np.abs(rhs).max():
            return sol
    return np.linalg.lstsq(kkt, rhs, rcond=None)[0]


def _log_mass(logp: np.ndarray, px: np.ndarray) -> np.ndarray:
    """log sum_x p(x) p(z|x) of each column, from log p(z|x)."""
    logp, px = logp[px > 0.0], px[px > 0.0]  # a column may peak on a dead row
    top = logp.max(axis=0)
    return top + np.log(px @ np.exp(logp - top))


def _certificate(ba: _LibraryBA, shapes, p, lam, value: float, tol: float):
    """Certified lower bound on R from a support solution p at multipliers lam.

    The bound is L(., lam) - lam . t - FW gap at p with the columns off its
    support added _DEAD_NATS below mass one, and each zero entry of a used
    column at its log-shape (not _DEAD_NATS below it, where the gradient
    would be about -60 nats).  Only the shapes of unused columns matter
    there (a column's gradient depends on its shape alone), so they start
    from the log-shapes in ``shapes`` (a BA iterate) and take up to
    _CERT_STEPS Blahut-Arimoto steps at lam towards their best response,
    with the support held at p, stopping once value minus the bound is <=
    tol.  Returns (best bound, a _Bound at lam; the last iterate; the
    log-mass growth of each column in its last step: positive where a column
    would enter).
    """
    penalty = ba.penalty(lam)
    unused = ba.px @ p == 0.0
    with np.errstate(divide="ignore"):
        logp = np.log(p)
    bound = -math.inf
    for it in range(1, _CERT_STEPS + 1):
        inside = np.where(p == 0.0, shapes, logp)
        point = _log_normalize(np.where(unused, shapes - _log_mass(shapes, ba.px) - _DEAD_NATS, inside))
        image, gap = ba._step(point, penalty)
        shapes = _log_normalize(image)
        bound = max(bound, _Bound(ba.lagrangian(np.exp(point), lam) - gap, lam))
        if value - bound <= tol:
            break
    ba.iterations += it
    return bound, shapes, _log_mass(shapes, ba.px) - _log_mass(point, ba.px)


def _settle(ba: _LibraryBA, channel, shapes, active: list, tol: float):
    """Certified support solve holding the ``active`` targets, started on
    the heaviest columns of channel.

    Each round solves the support exactly (_support_solve) and certifies
    the solution at its KKT multipliers, with the other columns at their
    log-shapes in ``shapes``; while the gap exceeds tol, the column whose
    mass grew most in the certificate's last step enters the support (a
    column-generation step: its reduced cost is negative), for at most
    _PRICING_ROUNDS rounds.  Which targets are held follows one policy.  A
    held target whose multiplier comes out negative may be slack at the
    optimum: the support is solved once more without it, and that solution
    replaces the first when it still meets the target (the cheap first
    trigger).  While the rounds leave the gap above tol with more than one
    target held, they run again from the start with each released in turn,
    since a target held only because the start sat near it can keep the
    support from settling.  Returns (best certified lower bound on R, or
    -inf; the lowest-rate solution that meets every target within 1e-12,
    as an iterate over the library, or None).
    """
    bound, best = -math.inf, None
    for held in [active] + [[k for k in active if k != j] for j in active if len(active) > 1]:
        if held is not active and best is not None and best.value - bound <= tol:
            break
        start, logs, low = channel, shapes, None  # low: the pass's lowest-rate solution
        for _ in range(_PRICING_ROUNDS):
            got = _support_solve(ba, start, held)
            if got is None:
                break
            p, lam = got
            full = np.zeros(len(ba.targets))
            full[held] = lam
            if (full < -_SLACK_MULTIPLIER).any():
                keep = [k for k in held if full[k] >= -_SLACK_MULTIPLIER]
                slack = _support_solve(ba, start, keep)
                if slack is not None and np.all(
                    np.einsum("kxn,xn->k", ba.costs[held], slack[0]) <= ba.targets[held] + 1e-12
                ):
                    p, full = slack[0], np.zeros_like(full)
                    full[keep] = slack[1]
            full = np.maximum(full, 0.0)  # the bound needs lam >= 0
            with np.errstate(divide="ignore"):
                point = ba.iterate(np.log(p))
            low = point if low is None or point.value < low.value else low
            meets = np.all(point.costs <= ba.targets + 1e-12)
            if meets and (best is None or point.value < best.value):
                best = point
            got, logs, growth = _certificate(ba, logs, p, full, point.value, tol)
            bound = max(bound, got)
            growth[ba.px @ p > 0.0] = -math.inf
            enter = int(np.argmax(growth))
            if low.value - bound <= tol or not growth[enter] > 0.0:
                break
            start = p.copy()
            shape = logs[:, enter] - _log_mass(logs, ba.px)[enter]
            start[:, enter] += _ENTER_MASS * np.exp(shape)
    return bound, best


def _dual_search(ba: _LibraryBA, tol: float, solves: list | None = None):
    """Bracket the multiplier of the first target.

    BA solves lam = 0 (to 0.1 tol; an iterate meeting the target there is
    returned as it is), then lam = 1, 4, 16, ... to a gap of _COARSE_GAP
    bits until an iterate meets the target, each started from the one
    before; every solve's certified bound holds for R.  BA finds the support
    of the optimum long before it converges on it, and _settle solves that
    support exactly, so the bracket's primal is the mix of its last two
    iterates that meets the target exactly, and ba.reach the multiplier that
    met it (at least 1).  Returns (best certified lower bound on R, that
    primal); it misses the first target only when no multiplier up to
    _DUAL_MAX_LAMBDA reaches it.

    The solves do not depend on the target values, only on the costs and
    on which targets are zero.  ``solves`` lists the iterates of those made
    so far on this library and zero pattern, at lam = 0, 1, 4, ... (a
    sweep's _Store keeps it): the bracket walks it, making each bound at its
    own targets, and solves and appends only past its end.
    """
    solves = [] if solves is None else solves
    bound, lo = -math.inf, None
    for i in itertools.count():
        lam = np.zeros(len(ba.targets))
        lam[0] = 0.0 if i == 0 else 4.0 ** (i - 1)
        if lam[0] > _DUAL_MAX_LAMBDA:
            return bound, lo
        if i == len(solves):
            if solves:
                ba.warm = solves[-1].channel
            solves.append(ba.solve(lam, max(0.1 * tol, _COARSE_GAP if i else 0.0))[1])
        hi = solves[i]
        bound = max(bound, ba.bound(lam, hi))
        if hi.costs[0] <= ba.targets[0]:
            ba.reach = max(lam[0], 1.0)
            return bound, hi if lo is None else _mix(ba, lo, hi)
        lo = hi


def _certified_solve(ba: _LibraryBA, solves=None, incumbent: float | None = None):
    """Certified minimum over the columns of ``ba`` by the bracket alone:
    no point when the per-x cheapest columns miss a target, else the
    bracket (_dual_search), whose bound holds for R and prunes the columns,
    with no point, once it exceeds ``incumbent`` by _PRUNE_MARGIN.  Unless
    its primal meets every target and is within _UNIVERSE_GAP of the bound,
    one _settle from it, holding the first target (when positive) and every
    positive target the primal misses, replaces the primal.  Returns (lower
    bound, a _Bound with its multipliers, or -inf; primal iterate, or None
    if none meets every target or the columns are pruned).  ``solves`` is
    the bracket's (see _dual_search).
    """
    if (ba.costs.min(axis=2).sum(axis=1) > ba.targets + 1e-12).any():
        return -math.inf, None  # even the cheapest columns miss a target
    bound, primal = _dual_search(ba, _UNIVERSE_GAP, solves)
    if incumbent is not None and bound > incumbent + _PRUNE_MARGIN:
        return bound, None
    missed = primal.costs > ba.targets + 1e-12
    if missed.any() or primal.value - bound > _UNIVERSE_GAP:
        held = [k for k in np.flatnonzero(ba.targets > 0.0) if k == 0 or missed[k]]
        got, point = _settle(ba, primal.channel, primal.logp, held, _UNIVERSE_GAP)
        bound = max(bound, got)
        if point is not None or missed.any():
            primal = point
    return bound, primal


def _jointly_unmeetable(ba: _LibraryBA, lam: np.ndarray) -> bool:
    """Farkas' lemma at multipliers lam >= 0: even the channel that puts
    each row on its cheapest allowed entry of lam . c costs more than
    lam . t (each target plus 1e-12), so no channel meets every target."""
    weighted = np.where(ba.forbidden == 0.0, np.tensordot(lam, ba.costs, 1), np.inf)
    return bool(weighted.min(axis=1).sum() > lam @ (ba.targets + 1e-12))


def _multiplier_search(ba: _LibraryBA, bound, primal):
    """Maximize the dual g(lam) = min_p L(p, lam) - lam . t over the
    multipliers of the n positive targets (a zero target forbids entries
    instead), from the bound and point of _certified_solve.

    g is concave but not smooth, so the search is an ellipsoid method
    (Bland, Goldfarb and Todd, Oper. Res. 1981) from a ball of radius
    _SEARCH_RADIUS ba.reach sqrt(n) around ba.reach on every target.  At
    the centre a Blahut-Arimoto solve gives a channel p and a bound, and
    the plane L(p, mu) - mu . t lies above g, so every mu where it is below
    the best bound is cut off (a deep or shallow cut, which never loses the
    optimum).  Such a cut shrinks the ellipsoid only if the solve's gap is
    below 1/n of the most the plane rises inside it, so each solve goes to
    half that (_SEARCH_GAP at first), and a centre whose cut would not
    shrink it is solved again.  Each solve is followed by one _settle,
    holding every target whose multiplier is positive or that p misses,
    from p or, with n = 1, from the _mix of the last channels on either
    side of the target (itself a candidate point).  The search stops at a
    point certified within _EXACT_GAP, once the plane cannot rise by that
    much (after one last solve to a tenth of it, whose bound and channels
    may still close the gap), or after _BA_MAX_ITERS iterations;
    multipliers that make the targets _jointly_unmeetable end it with
    (-inf, None).  Returns what _certified_solve returns.
    """
    pos = np.flatnonzero(ba.targets > 0.0)
    n, start = len(pos), ba.iterations
    lam = np.zeros(len(ba.targets))
    centre = np.full(n, ba.reach)
    shape = np.eye(n) * n * (_SEARCH_RADIUS * ba.reach) ** 2
    tol, sides = _SEARCH_GAP, {}
    while ba.iterations - start < _BA_MAX_ITERS:
        if (centre < 0.0).any():  # cut off the negative side of one multiplier
            i = int(np.argmin(centre))
            cut, width = np.eye(n)[i], math.sqrt(shape[i, i])
            alpha = -centre[i] / width
        else:
            lam[pos] = centre
            if _jointly_unmeetable(ba, lam):
                return -math.inf, None
            got, res = ba.solve(lam, tol)
            bound = max(bound, got)
            held = [k for k in pos if lam[k] > 0.0 or res.costs[k] > ba.targets[k] + 1e-12]
            guess = res
            if n == 1:
                sides[bool(res.costs[pos[0]] > ba.targets[pos[0]])] = res
                if len(sides) == 2:
                    guess = _mix(ba, sides[True], sides[False], pos[0])
            got, point = _settle(ba, guess.channel, guess.logp, held, _UNIVERSE_GAP)
            bound = max(bound, got)
            for p in (guess, point):
                if p is not None and np.all(p.costs <= ba.targets + 1e-12):
                    primal = p if primal is None or p.value < primal.value else primal
            if primal is not None and primal.value - bound <= _EXACT_GAP:
                break
            cut = res.costs[pos] - ba.targets[pos]
            width = math.sqrt(max(cut @ shape @ cut, 0.0))
            if width <= _EXACT_GAP:
                if tol <= 0.1 * _EXACT_GAP:
                    break
                tol = 0.1 * _EXACT_GAP  # one last solve, fine enough to certify
                continue
            alpha = (bound - res.value - lam @ (res.costs - ba.targets)) / width
            tol = min(_SEARCH_GAP, 0.5 * width / n)
            if alpha <= -1.0 / n:
                continue
        if alpha >= 1.0:  # the cut leaves nothing: the first ball missed the optimum
            break
        b = shape @ cut / width
        if n == 1:
            centre = centre + (1.0 + alpha) / 2.0 * b
            shape = shape * ((1.0 - alpha) / 2.0) ** 2
        else:
            centre = centre + (1.0 + n * alpha) / (n + 1) * b
            shape = n * n * (1.0 - alpha * alpha) / (n * n - 1.0) * (
                shape - 2.0 * (1.0 + n * alpha) / ((n + 1) * (1.0 + alpha)) * np.outer(b, b)
            )
    return bound, primal


def _universe_solve(pxy, cons, targets, solves=None):
    """_certified_solve over the full column library, then the multiplier
    search (_multiplier_search) for a point still uncertified within
    _EXACT_GAP.  Returns (lower bound, a _Bound, or -inf when the targets
    are unmeetable; primal iterate, or None if none meets every target;
    iterations: Blahut-Arimoto and certificate steps).
    """
    ba = _LibraryBA(pxy, cons, targets)
    bound, primal = _certified_solve(ba, solves)
    if bound > -math.inf and (primal is None or primal.value - bound > _EXACT_GAP):
        bound, primal = _multiplier_search(ba, bound, primal)
    return bound, primal, ba.iterations


def _caratheodory_witness(src, cons, channel):
    """At most |X| + K + 1 library columns, for K cost matrices ``cons``,
    with the same rate, distortions and p(x).

    Each used column z is the point (p(x|z) without its last coordinate,
    H(X|z) - H(Y|z), E[d_1 | z], ..., E[d_K | z]) weighted by p(z); the
    rate is H(X) - H(Y) - sum_z p(z) (H(X|z) - H(Y|z)), so Caratheodory's
    reduction keeps the rate, every distortion and the X-marginal.  Returns
    (library indices, channel on them).
    """
    px = src.px
    joint = px[:, None] * channel
    mass = joint.sum(axis=0)
    used = np.flatnonzero(mass > 0.0)
    post = joint[:, used] / mass[used]  # p(x|z)
    post_y = src.pxy.T @ (post / np.maximum(px, _TINY)[:, None])  # p(y|z)
    h = (xlogy(post_y, post_y).sum(axis=0) - xlogy(post, post).sum(axis=0)) / LN2
    per_z = [(c[:, used] * channel[:, used]).sum(axis=0) / mass[used] for c in cons]
    points = np.column_stack([post[:-1].T, h] + per_z)
    rows, weights = caratheodory_support(ConvexCombination(points, mass[used] / mass.sum()))
    out = weights[None, :] * post[:, rows] / np.maximum(px, _TINY)[:, None]
    out[px <= 0.0] = 1.0 / len(rows)
    return used[rows], out / out.sum(axis=1, keepdims=True)


def _signature_library(pxy: np.ndarray, dk: np.ndarray):
    """The column library of K distortion tables, with its cost columns.

    ``dk[k, x, xhat_d, xhat_e]`` are K three-argument tables.  For a decoder
    column f (length Y) the E d_k coefficient at x with encoder letter c is
    sum_y p(x, y) dk[k, x, f(y), c].  F does not depend on the letters, so a
    letter whose K coefficients another letter matches or beats at that
    (f, x) is never needed; of letters with equal coefficients the smallest
    is kept.  Each f carries every encoder column g (length X) whose letter
    at each x is on that (f, x) front: f times the product of the fronts.
    With at most one table varying with the encoder letter every front is
    that table's argmin (the smallest letter on ties, letter 0 when no table
    varies), one column per decoder column.  Returns (signatures, rows):
    signatures[i] is (f, g), and rows[k, i] the per-x coefficients of E d_k
    for that column, shape (K, N, X).  Columns come in lexicographic order
    of (f, g), and columns with identical coefficients keep only the first.
    """
    nx, ny = pxy.shape
    ne = dk.shape[3]
    varying = (dk.max(axis=3) != dk.min(axis=3)).any(axis=(1, 2))
    f_cols = np.asarray(list(itertools.product(range(dk.shape[2]), repeat=ny)))
    per = np.einsum("xy,kxfye->kfxe", pxy, dk[:, :, f_cols, :])  # (K, F, X, Xhat_e)
    # only the varying tables tell letters apart; [f, x, a, b]: a drops b
    v = per[varying]
    drops = (v[..., :, None] <= v[..., None, :]).all(axis=0)
    equal = (v[..., :, None] == v[..., None, :]).all(axis=0)
    drops &= ~equal | (np.arange(ne)[:, None] < np.arange(ne))
    keep = ~drops.any(axis=2)  # (F, X, Xhat_e)
    # mixed-radix count over the fronts, the first x most significant
    counts = keep.sum(axis=2)
    sizes = counts.prod(axis=1)
    f_idx = np.repeat(np.arange(len(f_cols)), sizes)
    j = np.arange(len(f_idx)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    strides = np.ones_like(counts)
    strides[:, :-1] = np.cumprod(counts[:, :0:-1], axis=1)[:, ::-1]
    digits = j[:, None] // strides[f_idx] % counts[f_idx]
    fronts = np.argsort(~keep, axis=2, kind="stable")  # front letters first, ascending
    x_idx = np.arange(nx)
    letters = fronts[f_idx[:, None], x_idx, digits]  # (N, X)
    cost = per[:, f_idx[:, None], x_idx, letters]  # (K, N, X)
    first = {}
    for i, column in enumerate(cost.transpose(1, 0, 2)):
        first.setdefault(column.tobytes(), i)
    kept = list(first.values())
    sigs = list(zip(map(tuple, f_cols[f_idx[kept]].tolist()), map(tuple, letters[kept].tolist())))
    return sigs, np.ascontiguousarray(cost[:, kept])


def _base_tables(spec: DistortionSpec) -> np.ndarray:
    """The base problem as K = 2 tables d_1 = d_d(x, xhat_d), d_2 = d_e(xhat_d, xhat_e)."""
    dk = np.empty((2,) + spec.dd.shape + (spec.xhat_size,))
    dk[0], dk[1] = spec.dd[:, :, None], spec.de
    return dk


def _check_instance(src: JointSource, spec: DistortionSpec):
    require_valid_source(src)
    if spec.dd.shape[0] != src.x_size:
        raise InvalidInstanceError("dd rows do not match the source alphabet")


def _check_cap(n_sig: int, m: int, cap: int) -> int:
    count = math.comb(n_sig, m)
    if count > cap:
        raise ResourceCapError(
            f"{count} reconstruction-rule candidates exceed the cap {cap}; "
            "reduce z_size or raise enumeration_cap"
        )
    return count


def _candidate_array(n_sig: int, m: int, cap: int) -> np.ndarray:
    count = _check_cap(n_sig, m, cap)
    flat = itertools.chain.from_iterable(itertools.combinations(range(n_sig), m))
    return np.fromiter(flat, dtype=np.int64, count=count * m).reshape(count, m)


@dataclass(frozen=True)
class _Solution:
    """A point solved over a column library: library indices and the
    channel on them, its rate, a certified lower bound on the full
    library's minimum (a _Bound, with its multipliers), BA and scan
    iterations, and the path that settled it."""

    cols: np.ndarray
    channel: np.ndarray
    rate: float
    bound: _Bound
    iterations: int
    path: str

    @property
    def multipliers(self) -> tuple:
        return tuple(float(v) for v in self.bound.lam)

    @property
    def gap(self) -> float:
        return max(self.rate - self.bound, 0.0)

    @property
    def label(self) -> str:
        """"exact" when the gap is at most _EXACT_GAP, "upper_bound"
        otherwise.  The full-library minimum is a lower bound at every
        z_size (a smaller z_size only restricts the problem), so such a
        rate is within _EXACT_GAP of the z_size-restricted minimum and of R."""
        return "exact" if self.gap <= _EXACT_GAP else "upper_bound"


def _solve_library(src, cons, targets, cfg, z_size: int, z_bound: int, store=None):
    """Minimum of the rate over the column library with cost matrices
    ``cons`` (one (X, N) matrix per target), on at most z_size columns.

    A full-library solve certified within _EXACT_GAP settles the point
    (path "library") when Caratheodory's reduction cuts its channel to at
    most z_size columns (it keeps at most |X| + K + 1 for K cost matrices),
    or whatever the cut keeps once z_size meets the cardinality bound
    z_bound or the library's size (r_wz's bound |X| + 1 is tighter than
    Caratheodory's |X| + 2); its rate is the full-library value, which the
    reduction keeps.  At the bound an uncertified solve is returned as
    well, labelled by its gap.  Below the bound the z_size-column
    candidates are otherwise scanned (path "scan"), floored by that
    solve's certified bound and ordered by its primal.  Returns a
    _Solution, or None when no candidate meets the targets.

    First of all, a mix of constant rules meeting every target
    (_constant_mix) gives rate 0: path "constant", zero multipliers and no
    iterations, before the cap check and the store.  With a _Store, after
    the checks that raise or return None, a point the store settles is
    returned from it, and a solved one is added to it; the store also holds
    the library's rate-0 front and its dual-search solves.
    """
    if store is None:
        totals, front = _rate_zero_front(cons)
        solves = None
    else:
        totals, front = store.totals, store.front
        solves = store.solves.setdefault(tuple(t <= 0.0 for t in targets), [])
    mix = _constant_mix(totals, front, targets)
    if mix is not None:
        cols, channel = np.asarray(mix[0]), np.tile(mix[1], (src.x_size, 1))
        return _Solution(cols, channel, 0.0, _Bound(0.0, np.zeros(len(cons))), 0, "constant")
    n_sig = cons[0].shape[1]
    if any(c.min(axis=1).sum() > t + 1e-12 for c, t in zip(cons, targets)):
        return None  # even the per-x cheapest columns miss a target
    m = min(z_size, n_sig)
    at_bound = z_size >= min(z_bound, n_sig)
    if not at_bound:
        _check_cap(n_sig, m, cfg.enumeration_cap)  # before any solve
    sol = None if store is None else store.settle(targets)
    if sol is not None:
        return sol
    floor, primal, iters = _universe_solve(src.pxy, cons, targets, solves)
    if primal is not None and (at_bound or primal.value - floor <= _EXACT_GAP):
        cols, channel = _caratheodory_witness(src, cons, primal.channel)
        if at_bound or len(cols) <= z_size:
            sol = _Solution(cols, channel, primal.value, floor, iters, "library")
    if sol is None and not at_bound:
        cands = _candidate_array(n_sig, m, cfg.enumeration_cap)
        mass = None if primal is None else src.px @ primal.channel
        best, best_idx, scan_iters = scan_candidates(src.pxy, cons, cands, targets, floor, mass)
        if best is not None:
            sol = _Solution(
                cands[best_idx], best.channel, best.value, floor, iters + scan_iters, "scan"
            )
    if sol is not None and store is not None:
        store.add(sol, targets)
    return sol


class _Store:
    """A discrete instance's column library, built once for a sweep, with
    its rate-0 front, the dual-search solves made on it so far per pattern
    of zero targets (see _dual_search), and the plane (a _Bound and the
    targets it was made at) and the witness (with its cost vector) of every
    cell solved on it so far."""

    def __init__(self, src: JointSource, spec: DistortionSpec, cfg: SolveConfig | None):
        self.cfg = cfg or SolveConfig()
        _check_instance(src, spec)
        self.zero_distortion = check_zero_distortion_assumption(spec)
        self.z_size = self.cfg.z_size if self.cfg.z_size is not None else src.x_size + 3
        self.sigs, rows = _signature_library(src.pxy, _base_tables(spec))
        self.cons = [np.ascontiguousarray(r.T) for r in rows]
        self.totals, self.front = _rate_zero_front(self.cons)
        self.solves = {}  # tuple of zero-target flags -> the dual search's iterates
        self.planes = []  # (targets, multipliers, value at the targets)
        self.solutions = []  # (_Solution, cost vector)

    def settle(self, targets) -> _Solution | None:
        """The stored witness that settles the cell at targets, or None.

        Its bound is the highest plane holding there; the gap is the rate
        minus that plane, at most _UNIVERSE_GAP, and the iterations are 0.
        """
        t = np.asarray(targets, dtype=float)
        feasible = [sol for sol, costs in self.solutions if np.all(costs <= t + 1e-12)]
        if not feasible:
            return None
        sol = min(feasible, key=lambda s: s.rate)
        at, lam, value = (np.asarray(a) for a in zip(*self.planes))
        holds = ((at > 0.0) | (t <= 0.0)).all(axis=1)
        below = np.where(holds, value + ((at - t) * lam).sum(axis=1), -np.inf)
        best = int(np.argmax(below))
        if not sol.rate - below[best] <= _UNIVERSE_GAP:
            return None
        bound = _Bound(below[best], lam[best])
        return _Solution(sol.cols, sol.channel, sol.rate, bound, 0, sol.path)

    def add(self, sol: _Solution, targets):
        costs = np.asarray([(c[:, sol.cols] * sol.channel).sum() for c in self.cons])
        self.planes.append((np.asarray(targets, dtype=float), sol.bound.lam, float(sol.bound)))
        self.solutions.append((sol, costs))


def solve_rate(
    src: JointSource,
    spec: DistortionSpec,
    dd_target: float,
    de_target: float,
    cfg: SolveConfig | None = None,
    *,
    store: _Store | None = None,
) -> RatePoint:
    """The rate-distortions function at one target pair, with witness.

    A mix of constant rules meeting both targets gives rate 0 ("constant").
    Otherwise one certified full-library solve settles the point
    ("library") when its witness fits in z_size, which it always does at
    the cardinality bound |X| + 3, where an uncertified point is returned
    too; below the bound, when it does not fit or reaches no certificate,
    reconstruction-rule candidates are enumerated ("scan"; deduplicated
    as described in the module docstring) and the best inner minimum
    kept.  Requires the zero-distortion assumption; the
    rate is bounded by H(X|Y) because the identity channel with
    zero-distortion rules is always a candidate.

    ``store`` is tradeoff_sweep's _Store for this (src, spec, cfg), which
    holds the library and may settle the point from earlier cells; None
    solves the point on its own (an empty store).
    """
    store = _Store(src, spec, cfg) if store is None else store
    dd_target, de_target = _check_targets(dd_target, de_target)
    if not store.zero_distortion:
        raise AssumptionError(
            "distortion tables violate the zero-distortion assumption"
        )
    sol = _solve_library(
        src, store.cons, [dd_target, de_target], store.cfg, store.z_size, src.x_size + 3, store
    )
    if sol is None:
        raise InfeasibleError(
            "no reconstruction rule meets the targets at this z_size"
        )
    phi, psi, channel = _witness_tables(
        store.sigs, sol.cols, sol.channel, src.y_size, src.x_size
    )
    ch = TestChannel(z_size=len(sol.cols), pz_given_x=channel, phi=phi, psi=psi)
    add, ade = expected_distortions(src, spec, ch)
    return RatePoint(
        dd_target=dd_target, de_target=de_target, rate=sol.rate, witness=ch,
        achieved_dd=add, achieved_de=ade, iterations=sol.iterations, gap=sol.gap,
        label=sol.label, path=sol.path, multipliers=sol.multipliers,
    )


def _rate_zero_front(cons):
    """The totals (K, N) of a library with cost matrices ``cons`` (sum_x of
    each column's coefficients) and their front: the columns no other
    column matches or beats on every total (of equal ones the first in
    library order), in lexicographic order of the totals.

    One scan in that order (Kung, Luccio and Preparata 1975): the first
    remaining column is on the front, and it drops every later column it
    matches or beats, until none remains.  A dropped column is beaten by a
    front column, by transitivity, so this is the pairwise definition, for
    every K, in O(N x front size).
    """
    totals = np.asarray([c.sum(axis=0) for c in cons])
    order = np.lexsort(totals[::-1])
    ranked = totals[:, order]
    front, rest = [], np.arange(len(order))
    while len(rest):
        first, rest = rest[0], rest[1:]
        front.append(first)
        rest = rest[~(ranked[:, first, None] <= ranked[:, rest]).all(axis=0)]
    return totals, order[front]


def _constant_mix(totals: np.ndarray, front: np.ndarray, targets):
    """Rate-0 shortcut: a Z independent of X that meets every target, if any.

    Such a Z mixes library columns with one weight vector for every x, so
    its distortions are the same mix of the columns' totals (``totals``,
    shape (K, N): sum_x of each column's coefficients).  A single column
    meeting every target is taken first (the first in library order), else
    the first pair, among the columns of ``front`` (_rate_zero_front), whose
    segment meets the targets, mixed at the middle of the weights that meet
    them.  With two constraints a vertex of the feasible mixes uses one
    column or two, so this decides whether the rate is 0; with more it may
    miss a mix of more columns, which the full-library solve then finds.
    Returns (columns, weights) or None.
    """
    bounds = np.asarray(targets, dtype=float) + 1e-15
    ok = np.flatnonzero((totals <= bounds[:, None]).all(axis=0))
    if len(ok):
        return [int(ok[0])], np.ones(1)
    i, j = np.triu_indices(len(front), 1)
    i, j = front[i], front[j]
    # weight w on column i: w (c_i - c_j) <= t - c_j for every total
    lo, hi, meet = np.zeros(len(i)), np.ones(len(i)), True
    for c, t in zip(totals, bounds):
        d, r = c[i] - c[j], t - c[j]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = r / d
        lo = np.maximum(lo, np.where(d < 0.0, ratio, 0.0))
        hi = np.minimum(hi, np.where(d > 0.0, ratio, 1.0))
        meet = meet & ((d != 0.0) | (r >= 0.0))
    hit = np.flatnonzero(meet & (lo <= hi))
    if len(hit) == 0:
        return None
    k = int(hit[0])
    w = 0.5 * (lo[k] + hi[k])
    return [int(i[k]), int(j[k])], np.array([w, 1.0 - w])


def _witness_tables(sigs, cand, channel, y_size, x_size):
    phi = np.zeros((y_size, len(cand)), dtype=np.int64)
    psi = np.zeros((x_size, len(cand)), dtype=np.int64)
    for j, i in enumerate(cand):
        phi[:, j], psi[:, j] = sigs[i]
    sums = channel.sum(axis=1, keepdims=True)
    return phi, psi, channel / sums


def r_wz(src: JointSource, spec_dd, dd_target: float, cfg: SolveConfig | None = None) -> float:
    """Wyner-Ziv baseline: the encoder-side constraint is dropped.

    ``spec_dd`` may be a DistortionSpec (whose d_e is ignored) or a plain
    d_d table.  The auxiliary alphabet defaults to |X| + 1 columns, its
    cardinality bound; there, once z_size covers the decoder-column
    library, or once the solution's witness fits in z_size, the
    full-library solve gives the rate (a feasible value, within 1e-7 bits
    of the lower bound once certified), and otherwise the candidate scan
    runs.
    """
    cfg = cfg or SolveConfig()
    dd = spec_dd.dd if isinstance(spec_dd, DistortionSpec) else np.asarray(spec_dd, float)
    spec = _dd_only_spec(dd)
    _check_instance(src, spec)
    (dd_target,) = _check_targets(dd_target)
    if not np.all((dd == 0.0).any(axis=1)):
        raise AssumptionError("every source symbol needs a zero-distortion letter")
    z_size = cfg.z_size if cfg.z_size is not None else src.x_size + 1
    _, (a_rows,) = _signature_library(src.pxy, dd[None, :, :, None])
    cons = [np.ascontiguousarray(a_rows.T)]
    sol = _solve_library(src, cons, [dd_target], cfg, z_size, src.x_size + 1)
    if sol is None:
        raise InfeasibleError("no decoder rule meets the target at this z_size")
    return max(sol.rate, 0.0)


def r_cr(src: JointSource, spec_dd, dd_target: float, cfg: SolveConfig | None = None) -> float:
    """Common-reconstruction baseline: the reconstruction is the auxiliary
    itself (Z ranges over Xhat and phi(y, z) = z).

    That is the full-library problem on the |Xhat| constant decoder
    columns, so the library solve settles it; z_size plays no part.
    """
    cfg = cfg or SolveConfig()
    dd = spec_dd.dd if isinstance(spec_dd, DistortionSpec) else np.asarray(spec_dd, float)
    spec = _dd_only_spec(dd)
    _check_instance(src, spec)
    (dd_target,) = _check_targets(dd_target)
    a_cols = src.px[:, None] * dd  # E d_d coefficient of column z = xhat
    n = spec.xhat_size
    sol = _solve_library(src, [a_cols], [dd_target], cfg, n, n)
    if sol is None:
        raise InfeasibleError("target below the minimum achievable distortion")
    return max(sol.rate, 0.0)


def _check_targets(*targets) -> list[float]:
    """The distortion targets as floats, each finite and nonnegative."""
    targets = [float(t) for t in targets]
    if not all(math.isfinite(t) and t >= 0 for t in targets):
        raise AssumptionError("distortion targets must be finite and nonnegative")
    return targets


def _dd_only_spec(dd: np.ndarray) -> DistortionSpec:
    nhat = dd.shape[1]
    return DistortionSpec(xhat_size=nhat, dd=dd, de=np.zeros((nhat, nhat)))


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
    """solve_rate over the target grid, as one solve; per-cell errors are
    recorded in-cell.

    The library and its rate-0 front are built once, and the cells,
    visited in grid order, share one _Store, which also keeps the dual
    search's solves per pattern of zero targets: a cell makes only those
    no earlier cell made, and its iterations count only those.  R is
    convex, so every certified bound is a plane under it at every target
    pair sharing its zero targets, and a witness stays feasible at larger
    targets.  A cell passes solve_rate's checks first,
    so it errors exactly when its own solve does; a cell that the stored
    witnesses and planes settle within 1e-10 bits (where the encoder target
    is slack, R does not change along the row) reports that witness, the
    plane's multipliers, gap = rate minus the plane, iterations 0 and the
    path of the cell it came from.  Other cells are solved as by
    solve_rate and join the store.

    Grids must be sorted ascending.  The result is row-major in dd.
    """
    dd_grid = [float(v) for v in dd_grid]
    de_grid = [float(v) for v in de_grid]
    if dd_grid != sorted(dd_grid) or de_grid != sorted(de_grid):
        raise InvalidInstanceError("sweep grids must be sorted ascending")
    store = _Store(src, spec, cfg)
    out = []
    for dd_t in dd_grid:
        row = []
        for de_t in de_grid:
            try:
                point = solve_rate(src, spec, dd_t, de_t, cfg, store=store)
                row.append(SweepCell(dd_t, de_t, point=point))
            except (AssumptionError, InfeasibleError, ResourceCapError) as exc:
                row.append(SweepCell(dd_t, de_t, error=str(exc)))
        out.append(row)
    return out
