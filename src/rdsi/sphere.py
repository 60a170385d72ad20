"""Finite-blocklength Monte Carlo of the sphere-codebook achievability scheme.

run_simulation, configured by a SimConfig, is the entry point.  The
codebook is ceil(2^(n R')) points drawn uniformly on the centered n-sphere
of radius sqrt(n var_z), var_z = a^2 (var_w + var_x), split into
floor(2^(n (R + delta))) bins of ceil(2^(n (R' - R - delta))) consecutive
indices (the last nominal bin absorbs the remainder; at desk-scale n the
ceilings can leave trailing bins empty, which is harmless because the
encoder only ever selects the bin of an existing codeword).  Here

    R' = 1/2 log2((var_x + var_w) / var_w),
    R  = 1/2 log2((var_x var_u + var_x var_w + var_u var_w)
                  / ((var_x + var_u) var_w)).

Encoding matches the angle of the source vector to sqrt(1 - 2^(-2 R'))
over the whole codebook; decoding matches the side-information angle to
sqrt(1 - 2^(-2 (R' - R))) within the sent bin.  Ties (measure zero in
theory, possible in floats) go to the lowest codeword index.

The codebook streams through a thread pool in chunks of a few hundred
codewords: the calling thread draws each chunk, the sequential part that
bounds the pass, and keeps a core to itself, while one worker per other
usable core (at least one) normalises and scores earlier ones, with one
matrix product per chunk for a block of trials.  A trial whose largest
cosine in a chunk lies at least its best error so far below the target
cannot get closer there, so only the few other trials pay for the error
and argmin passes; the screen is exact.  The simulation draws into a
fixed ring of reused chunk buffers, scores every trial in that one pass
and keeps only the generator state saved at each chunk's start, from
which it redraws each trial's bin afterwards.  The codebook is never
held: memory stays a few chunks whatever its size.  Scores merge in
chunk order, so no result depends on the number of workers.  Everything
after the encoder's choice runs trial by trial in trial order, exactly
as for a single trial.

Randomness is fully determined by the seed through the counter-based
Philox generator: the codebook uses the stream seeded by (seed, 0); trial
t draws its source pair from the stream seeded by (seed, 1, t), X before
U.  Aggregates are therefore identical however trials are scheduled,
blocked or not.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._scipy import betainc
from .errors import AssumptionError, InfeasibleError, ResourceCapError
from .gaussian import SchemeParams

DEFAULT_CODEBOOK_CAP = 2**22

# Codebook rows per chunk and trials per matrix product: together they
# bound the score block (_TRIAL_BLOCK x _ROW_CHUNK floats, 1 MB) whatever
# the codebook and trial counts.  At most _RING chunks are in flight, which
# bounds the drawn-but-unscored rows (and the simulation's reused buffers).
_ROW_CHUNK = 512
_TRIAL_BLOCK = 256
_RING = 16


def _rng(*key) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def cap_ratio(n: int, tau: float) -> float:
    """Probability that a uniform point on the unit n-sphere has inner
    product >= tau with a fixed unit vector (the spherical-cap area ratio).

    Uses the regularized incomplete beta identity
    Pr = 1/2 I_{1 - tau^2}((n-1)/2, 1/2).
    """
    if n < 2:
        raise AssumptionError("cap_ratio requires n >= 2")
    if not 0.0 <= tau <= 1.0:
        raise AssumptionError("tau must lie in [0, 1]")
    return float(0.5 * betainc((n - 1) / 2.0, 0.5, 1.0 - tau * tau))


def cap_exponent(tau: float) -> float:
    """Large-n exponent of cap_ratio: (1/n) log2 cap_ratio -> 1/2 log2(1 - tau^2)."""
    if not 0.0 <= tau < 1.0:
        raise AssumptionError("tau must lie in [0, 1)")
    return 0.5 * math.log2(1.0 - tau * tau)


def _workers() -> int:
    """Pool size: one worker per core this process may run on, but one,
    which the drawing thread keeps; at least one worker."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return max(cores - 1, 1)


class _Search:
    """For each row p of points, the index (best) of the codebook row z whose
    cosine z.p / (radius |p|) is closest to target, filled in by _scan.

    The points are divided by radius |p| once, here, so a chunk's cosines
    are one matrix product per block of _TRIAL_BLOCK points.  A single
    point gets numpy's matrix-vector product; for several, the matrix
    product may round a cosine differently in the last bit, which can only
    move a near-tie within one rounding error.

    Workers score chunks while the calling thread merges earlier ones, so
    merge never writes best_err in place: it publishes a new array, and
    score reads one fixed array, current at some time before the chunk's
    merge.  best_err only falls and chunks merge in row order, so that
    array is never below the values the merge compares with.
    """

    def __init__(self, points: np.ndarray, target: float, radius: float):
        # per-point norm, rounded exactly as for a single point (an axis=1
        # norm sums in another order)
        scale = np.array([[radius * np.linalg.norm(p)] for p in points])
        if not np.all(scale):
            raise AssumptionError("cannot take angles with the zero vector")
        self.points, self.target = points / scale, target
        self.best, self.best_err = np.zeros(len(points), np.intp), np.full(len(points), np.inf)

    def score(self, block: np.ndarray) -> tuple[np.ndarray, ...] | None:
        """(points, row, err) for the points that block may bring strictly
        closer to target than best_err: their indices, the position of
        their closest row in block and its error; None when there are none.

        A point is skipped when target minus its largest cosine is at
        least best_err.  Rounded subtraction is monotone, so every error
        |cosine - target| is then at least best_err as well.
        """
        found, bound = [], self.best_err
        for lo in range(0, len(self.points), _TRIAL_BLOCK):
            err = self.points[lo : lo + _TRIAL_BLOCK] @ block.T
            gap = err.max(axis=1)
            np.subtract(self.target, gap, out=gap)
            near = np.flatnonzero(gap < bound[lo : lo + _TRIAL_BLOCK])
            if not len(near):
                continue
            if len(near) < len(err):
                err = err[near]
            err -= self.target
            np.abs(err, out=err)
            i = np.argmin(err, axis=1)
            found.append((lo + near, i, err[np.arange(len(i)), i]))
        return tuple(map(np.concatenate, zip(*found))) if found else None

    def merge(self, lo: int, scored: tuple[np.ndarray, ...] | None):
        """Take score's findings in the block of codebook rows from lo on:
        a point's best moves only when strictly closer, so ties keep the
        lowest index."""
        if scored is None:
            return
        at, idx, err = scored
        closer = err < self.best_err[at]
        at = at[closer]
        best_err = self.best_err.copy()
        best_err[at] = err[closer]
        self.best_err = best_err
        self.best[at] = lo + idx[closer]


def _normalise(block: np.ndarray, radius: float) -> np.ndarray:
    block *= radius / np.linalg.norm(block, axis=1, keepdims=True)
    return block


def _scan(shape: tuple[int, int], search: _Search | None = None,
          rng: np.random.Generator | None = None, radius: float = 1.0) -> list[dict]:
    """Draw a codebook of the (count, n) shape from rng and stream it
    through a thread pool in _ROW_CHUNK-row chunks, keeping no row.

    The calling thread fills a ring of _RING reused chunk buffers in row
    order, continuing one stream exactly as a single draw of every row
    would, and saves the generator state at each chunk's start (returned,
    for _redraw), while workers scale earlier chunks' rows to norm radius.
    With search, workers score each chunk, and the chunks merge into
    search in row order, each before its buffer is reused.  On any
    exception, queued chunks are cancelled and only running ones awaited.
    """
    count, n = shape
    starts = range(0, count, _ROW_CHUNK)
    ring = np.empty((min(_RING, len(starts)), _ROW_CHUNK, n))
    states = []

    def chunk(i, lo):
        block = ring[i % _RING][: count - lo]
        states.append(rng.bit_generator.state)
        rng.standard_normal(out=block)
        return block

    def work(block):
        _normalise(block, radius)
        return search.score(block) if search else None

    if len(starts) <= 1:  # nothing to overlap: a worker would only add its start-up
        for i, lo in enumerate(starts):
            scored = work(chunk(i, lo))
            if search:
                search.merge(lo, scored)
        return states
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(_workers())
    pending = deque()  # (lo, future) of the chunks in flight, in row order

    def merge():
        done, future = pending.popleft()
        scored = future.result()
        if search:
            search.merge(done, scored)

    try:
        for i, lo in enumerate(starts):
            # a full ring waits for the chunk whose buffer chunk i reuses;
            # merging finished chunks early gives scoring a fresher best_err
            while pending and (len(pending) == _RING or pending[0][1].done()):
                merge()
            pending.append((lo, pool.submit(work, chunk(i, lo))))
        while pending:
            merge()
    except BaseException:
        pool.shutdown(cancel_futures=True)
        raise
    pool.shutdown()
    return states


def _redraw(rng: np.random.Generator, states: list[dict], lo: int, hi: int,
            n: int, radius: float) -> np.ndarray:
    """Rows [lo, hi) of a codebook that _scan drew from rng, redrawn from the
    state it saved at the start of row lo's chunk (hi may lie in a later
    chunk: the draw continues the stream across the boundary)."""
    start = lo - lo % _ROW_CHUNK
    rng.bit_generator.state = states[lo // _ROW_CHUNK]
    return _normalise(rng.standard_normal((hi - start, n))[lo - start :], radius)


def rate_pair(var_x: float, var_u: float, params: SchemeParams) -> tuple[float, float]:
    """(R', R): codebook log-size and nominal description rate per symbol."""
    var_w = params.var_w
    r_fine = 0.5 * math.log2((var_x + var_w) / var_w)
    r_nom = 0.5 * math.log2(
        (var_x * var_u + var_x * var_w + var_u * var_w) / ((var_x + var_u) * var_w)
    )
    return r_fine, r_nom


def max_epsilon(var_x: float, var_u: float, params: SchemeParams, delta: float) -> float:
    """Supremum of admissible typicality slacks epsilon for the given delta.

    Admissibility is (1 - 4 eps) sqrt(1 - 2^(-2 (R'-R)))
                      > sqrt(1 - 2^(-2 (R'-R-delta/2))).
    """
    r_fine, r_nom = rate_pair(var_x, var_u, params)
    gap = r_fine - r_nom
    if not 0.0 < delta < 2.0 * gap:
        raise InfeasibleError(
            f"delta must lie in (0, {2 * gap:.6g}) for these parameters"
        )
    ratio = math.sqrt(
        (1.0 - 2.0 ** (-2.0 * (gap - delta / 2.0))) / (1.0 - 2.0 ** (-2.0 * gap))
    )
    return (1.0 - ratio) / 4.0


def max_feasible_blocklength(
    var_x: float, var_u: float, params: SchemeParams, cap: int = DEFAULT_CODEBOOK_CAP
) -> int:
    """Largest n whose codebook ceil(2^(n R')) stays within the cap."""
    r_fine, _ = rate_pair(var_x, var_u, params)
    return int(math.floor(math.log2(cap) / r_fine))


@dataclass(frozen=True)
class SimConfig:
    """One simulator run: blocklength, source variances, scheme parameters,
    slacks, trial count and seed."""

    n: int
    var_x: float
    var_u: float
    params: SchemeParams
    delta: float
    epsilon: float
    trials: int
    seed: int = 0
    codebook_cap: int = DEFAULT_CODEBOOK_CAP

    def __post_init__(self):
        if self.n < 2:
            raise AssumptionError("blocklength must be at least 2")
        if not (self.var_x > 0 and self.var_u > 0):
            raise AssumptionError("variances must be positive")
        if self.trials < 1:
            raise AssumptionError("need at least one trial")
        if not self.epsilon > 0:
            raise InfeasibleError("epsilon must be positive")
        eps_sup = max_epsilon(self.var_x, self.var_u, self.params, self.delta)
        if self.epsilon >= eps_sup:
            raise InfeasibleError(
                f"epsilon {self.epsilon:.6g} too large: needs epsilon < {eps_sup:.6g}"
            )

    # derived constants, computed once per configuration (the trial loop
    # reads them many times per trial)
    @cached_property
    def var_z(self) -> float:
        return self.params.a**2 * (self.params.var_w + self.var_x)

    @cached_property
    def rate_fine(self) -> float:
        return rate_pair(self.var_x, self.var_u, self.params)[0]

    @cached_property
    def rate_nominal(self) -> float:
        return rate_pair(self.var_x, self.var_u, self.params)[1]

    @cached_property
    def enc_target(self) -> float:
        return math.sqrt(1.0 - 2.0 ** (-2.0 * self.rate_fine))

    @cached_property
    def dec_target(self) -> float:
        return math.sqrt(1.0 - 2.0 ** (-2.0 * (self.rate_fine - self.rate_nominal)))


@dataclass(frozen=True)
class _Layout:
    """The contiguous-bin layout of size codewords in n_bins bins."""

    size: int
    n_bins: int
    bin_size: int

    def bin_of(self, index: int) -> int:
        return min(index // self.bin_size, self.n_bins - 1)

    def bin_bounds(self, m: int) -> tuple[int, int]:
        """Index range [lo, hi) of bin m; the last bin absorbs the remainder."""
        if not 0 <= m < self.n_bins:
            raise AssumptionError(f"bin index {m} out of range")
        lo = m * self.bin_size
        hi = self.size if m == self.n_bins - 1 else min((m + 1) * self.bin_size, self.size)
        return lo, hi


def _layout(cfg: SimConfig) -> _Layout:
    """Codebook size and bins for a configuration, within cfg.codebook_cap."""
    size_log = cfg.n * cfg.rate_fine
    if size_log > math.log2(cfg.codebook_cap):
        n_max = max_feasible_blocklength(cfg.var_x, cfg.var_u, cfg.params, cfg.codebook_cap)
        raise ResourceCapError(
            f"codebook 2^{size_log:.2f} exceeds cap {cfg.codebook_cap}; "
            f"largest feasible n for these parameters is {n_max}"
        )
    return _Layout(
        size=int(math.ceil(2.0**size_log)),
        n_bins=max(int(math.floor(2.0 ** (cfg.n * (cfg.rate_nominal + cfg.delta)))), 1),
        bin_size=max(
            int(math.ceil(2.0 ** (cfg.n * (cfg.rate_fine - cfg.rate_nominal - cfg.delta)))), 1
        ),
    )


def _radius(cfg: SimConfig) -> float:
    return math.sqrt(cfg.n * cfg.var_z)


def _decode_rows(rows: np.ndarray, y: np.ndarray, cfg: SimConfig) -> int:
    """Position within rows (one bin's codewords, already in memory) of the
    row whose angle with y is closest to the decoding target, scored with
    _Search's arithmetic for a single point; ties go to the lowest row."""
    scale = _radius(cfg) * np.linalg.norm(y)
    if not scale:
        raise AssumptionError("cannot take angles with the zero vector")
    err = (y[np.newaxis] / scale) @ rows.T
    err -= cfg.dec_target
    np.abs(err, out=err)
    return int(np.argmin(err))


@dataclass(frozen=True)
class SimResult:
    """Empirical distortions and error-event frequencies of one run.

    Distortions are unconditional averages over all trials; cond_dd/cond_de
    are the diagnostics conditioned on no error event, decoded_dd/decoded_de
    those conditioned on correct decoding (no dec2 event); each is nan when
    no trial qualifies.
    """

    empirical_dd: float
    empirical_de: float
    freq_src: float
    freq_enc: float
    freq_dec1: float
    freq_dec2: float
    freq_any: float
    trials_run: int
    cond_dd: float = float("nan")
    cond_de: float = float("nan")
    decoded_dd: float = float("nan")
    decoded_de: float = float("nan")


def _draw_trial(cfg: SimConfig, t: int) -> tuple[np.ndarray, np.ndarray]:
    rng = _rng(cfg.seed, 1, t)
    x = math.sqrt(cfg.var_x) * rng.standard_normal(cfg.n)
    u = math.sqrt(cfg.var_u) * rng.standard_normal(cfg.n)
    return x, u


def run_simulation(cfg: SimConfig) -> SimResult:
    """Run the scheme cfg.trials times and average distortions and events.

    Each trial draws (X, U) IID Gaussian, forms Y = X + U, encodes, decodes,
    and records the squared-error distortions |x - xhat_d|^2 / n and
    |xhat_d - xhat_e|^2 / n plus the four event indicators:

    * src:  source/side-information power or their angle atypical (band eps);
    * enc:  best codeword angle with x off the encoding target (band eps);
    * dec1: chosen codeword angle with y off the decoding target (band 4 eps);
    * dec2: decoder picked a different codeword than the encoder.

    The encoder scores every trial in one pass over the codebook while it
    is drawn through a ring of reused chunk buffers, so the codebook is
    never held; each trial's bin is then redrawn from the generator state
    saved at its chunk's start, and the decoder search and the rest of the
    trial run on those rows, trial by trial, with every sum in trial order.
    """
    n = cfg.n
    radius = _radius(cfg)
    layout = _layout(cfg)
    pairs = [_draw_trial(cfg, t) for t in range(cfg.trials)]
    search = _Search(np.stack([x for x, _ in pairs]), cfg.enc_target, radius)
    rng = _rng(cfg.seed, 0)
    states = _scan((layout.size, n), search, rng, radius)
    var_y = cfg.var_x + cfg.var_u
    rho_xy = math.sqrt(cfg.var_x / var_y)
    sums = np.zeros(2)
    cond_sums = np.zeros(2)
    decoded_sums = np.zeros(2)
    counts = np.zeros(5)  # src, enc, dec1, dec2, any
    n_clean = 0
    n_decoded = 0
    for (x, u), best in zip(pairs, map(int, search.best)):
        lo, hi = layout.bin_bounds(layout.bin_of(best))
        rows = _redraw(rng, states, lo, hi, n, radius)
        z = rows[best - lo]
        y = x + u
        picked = _decode_rows(rows, y, cfg)
        recon_d = rows[picked] + cfg.params.b * y
        recon_e = z + cfg.params.b * x
        dd = float(np.sum((x - recon_d) ** 2)) / n
        de = float(np.sum((recon_d - recon_e) ** 2)) / n

        xx = float(x @ x)
        yy = float(y @ y)
        cos_xy = float(x @ y) / math.sqrt(xx * yy)
        e_src = (
            abs(xx / n - cfg.var_x) > cfg.epsilon * cfg.var_x
            or abs(yy / n - var_y) > cfg.epsilon * var_y
            or abs(cos_xy - rho_xy) > cfg.epsilon * rho_xy
        )
        cos_xz = float(x @ z) / math.sqrt(xx * float(z @ z))
        e_enc = abs(cos_xz - cfg.enc_target) > cfg.epsilon * cfg.enc_target
        cos_yz = float(y @ z) / math.sqrt(yy * float(z @ z))
        e_dec1 = abs(cos_yz - cfg.dec_target) > 4.0 * cfg.epsilon * cfg.dec_target
        e_dec2 = lo + picked != best
        any_e = e_src or e_enc or e_dec1 or e_dec2

        sums += (dd, de)
        counts += (e_src, e_enc, e_dec1, e_dec2, any_e)
        if not any_e:
            cond_sums += (dd, de)
            n_clean += 1
        if not e_dec2:
            decoded_sums += (dd, de)
            n_decoded += 1
    trials = cfg.trials
    nan2 = np.full(2, float("nan"))
    cond = cond_sums / n_clean if n_clean else nan2
    decoded = decoded_sums / n_decoded if n_decoded else nan2
    return SimResult(
        empirical_dd=sums[0] / trials,
        empirical_de=sums[1] / trials,
        freq_src=counts[0] / trials,
        freq_enc=counts[1] / trials,
        freq_dec1=counts[2] / trials,
        freq_dec2=counts[3] / trials,
        freq_any=counts[4] / trials,
        trials_run=trials,
        cond_dd=float(cond[0]),
        cond_de=float(cond[1]),
        decoded_dd=float(decoded[0]),
        decoded_de=float(decoded[1]),
    )
