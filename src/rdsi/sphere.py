"""Finite-blocklength Monte Carlo of the sphere-codebook achievability scheme.

Codebook: ceil(2^(n R')) points drawn uniformly on the centered n-sphere of
radius sqrt(n var_z), var_z = a^2 (var_w + var_x), split into
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
codewords: the calling thread draws each chunk while workers normalise
and score earlier ones, with one matrix product per chunk for a block of
trials.  The simulation draws into a fixed ring of reused chunk buffers,
scores every trial in that one pass and keeps only the generator state
saved at each chunk's start; afterwards it redraws just the bin each
trial's codeword falls in, so memory stays a few chunks whatever the
codebook size.  Scores merge in chunk order, so no result depends on the
number of workers.  Everything after the encoder's choice runs trial by
trial in trial order, exactly as for a single trial.

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
from dataclasses import InitVar, dataclass

import numpy as np

from ._scipy import betainc
from .errors import AssumptionError, InfeasibleError, ResourceCapError
from .gaussian import SchemeParams
from .model import _freeze

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
    """Pool size: one worker per core this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Search:
    """For each row p of points, the index (best) of the codebook row z whose
    cosine z.p / (radius |p|) is closest to target, filled in by _scan.

    The points are divided by radius |p| once, here, so a chunk's cosines
    are one matrix product per block of _TRIAL_BLOCK points.  A single
    point gets numpy's matrix-vector product; for several, the matrix
    product may round a cosine differently in the last bit, which can only
    move a near-tie within one rounding error.
    """

    def __init__(self, points: np.ndarray, target: float, radius: float):
        # per-point norm, rounded exactly as for a single point (an axis=1
        # norm sums in another order)
        scale = np.array([[radius * np.linalg.norm(p)] for p in points])
        if not np.all(scale):
            raise AssumptionError("cannot take angles with the zero vector")
        self.points, self.target = points / scale, target
        self.best, self.best_err = np.zeros(len(points), np.intp), np.full(len(points), np.inf)

    def score(self, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        idx = np.empty(len(self.points), np.intp)
        best_err = np.empty(len(self.points))
        for lo in range(0, len(self.points), _TRIAL_BLOCK):
            err = self.points[lo : lo + _TRIAL_BLOCK] @ block.T
            err -= self.target
            np.abs(err, out=err)
            i = np.argmin(err, axis=1)
            idx[lo : lo + len(i)] = i
            best_err[lo : lo + len(i)] = err[np.arange(len(i)), i]
        return idx, best_err


def _normalise(block: np.ndarray, radius: float) -> np.ndarray:
    block *= radius / np.linalg.norm(block, axis=1, keepdims=True)
    return block


def _scan(rows: np.ndarray | tuple[int, int], search: _Search | None = None,
          rng: np.random.Generator | None = None, radius: float = 1.0) -> list[dict]:
    """Stream codebook rows through a thread pool in _ROW_CHUNK-row chunks.

    rows is the array to read, or to draw into when rng is given; or only
    its (count, n) shape, to draw through a ring of _RING reused chunk
    buffers that keeps no row.  With rng, the calling thread fills the
    chunks in row order, continuing one stream exactly as a single draw of
    every row would, and saves the generator state at each chunk's start
    (returned, for _redraw), while workers scale earlier chunks' rows to
    norm radius.  With search, workers score each chunk, and the chunks
    merge in row order: a later chunk replaces a point's best only when
    strictly closer, so ties go to the lowest index.  On any exception,
    queued chunks are cancelled and only running ones awaited.
    """
    stored = isinstance(rows, np.ndarray)
    count, n = rows.shape if stored else rows
    starts = range(0, count, _ROW_CHUNK)
    ring = None if stored else np.empty((min(_RING, len(starts)), _ROW_CHUNK, n))
    states = []

    def chunk(i, lo):
        block = rows[lo : lo + _ROW_CHUNK] if stored else ring[i % _RING][: count - lo]
        if rng is not None:
            states.append(rng.bit_generator.state)
            rng.standard_normal(out=block)
        return block

    def work(block):
        if rng is not None:
            _normalise(block, radius)
        return search.score(block) if search else None

    def merge(lo, scored):
        if search:
            idx, err = scored
            closer = err < search.best_err
            search.best_err[closer] = err[closer]
            search.best[closer] = lo + idx[closer]

    if len(starts) <= 1:  # nothing to overlap: a worker would only add its start-up
        for i, lo in enumerate(starts):
            merge(lo, work(chunk(i, lo)))
        return states
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(_workers())
    pending = deque()  # (lo, future) of the chunks in flight, in row order
    try:
        for i, lo in enumerate(starts):
            if len(pending) == _RING:  # frees the ring buffer chunk i reuses
                done, future = pending.popleft()
                merge(done, future.result())
            pending.append((lo, pool.submit(work, chunk(i, lo))))
        while pending:
            done, future = pending.popleft()
            merge(done, future.result())
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


def _sample_sphere_batch(count: int, n: int, radius: float,
                         rng: np.random.Generator) -> np.ndarray:
    v = np.empty((count, n))
    _scan(v, rng=rng, radius=radius)
    return v


def sample_sphere(n: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    """One point uniform on the centered n-sphere of the given radius."""
    if n < 2:
        raise AssumptionError("sample_sphere requires n >= 2")
    if not radius > 0:
        raise AssumptionError("radius must be positive")
    return _sample_sphere_batch(1, n, radius, rng)[0]


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

    @property
    def var_z(self) -> float:
        return self.params.a**2 * (self.params.var_w + self.var_x)

    @property
    def rate_fine(self) -> float:
        return rate_pair(self.var_x, self.var_u, self.params)[0]

    @property
    def rate_nominal(self) -> float:
        return rate_pair(self.var_x, self.var_u, self.params)[1]

    @property
    def enc_target(self) -> float:
        return math.sqrt(1.0 - 2.0 ** (-2.0 * self.rate_fine))

    @property
    def dec_target(self) -> float:
        return math.sqrt(1.0 - 2.0 ** (-2.0 * (self.rate_fine - self.rate_nominal)))


class _Bins:
    """The contiguous-bin layout of size codewords in n_bins bins."""

    def bin_of(self, index: int) -> int:
        return min(index // self.bin_size, self.n_bins - 1)

    def bin_bounds(self, m: int) -> tuple[int, int]:
        """Index range [lo, hi) of bin m; the last bin absorbs the remainder."""
        if not 0 <= m < self.n_bins:
            raise AssumptionError(f"bin index {m} out of range")
        lo = m * self.bin_size
        hi = self.size if m == self.n_bins - 1 else min((m + 1) * self.bin_size, self.size)
        return lo, hi


@dataclass(frozen=True)
class _Layout(_Bins):
    """The bin layout of a codebook that is streamed rather than held."""

    size: int
    n_bins: int
    bin_size: int


@dataclass(frozen=True)
class Codebook(_Bins):
    """Immutable codebook: point matrix plus the contiguous-bin layout.

    The vectors are copied, so the caller's array stays theirs; _owned=True
    (for arrays this module has just drawn) freezes the array in place
    instead of copying it.
    """

    vectors: np.ndarray
    n_bins: int
    bin_size: int
    _owned: InitVar[bool] = False

    def __post_init__(self, _owned):
        if self.n_bins < 1 or self.bin_size < 1:
            raise AssumptionError("codebook needs at least one nonempty bin")
        if _owned:
            self.vectors.flags.writeable = False
        else:
            object.__setattr__(self, "vectors", _freeze(np.asarray(self.vectors, dtype=float)))

    @property
    def size(self) -> int:
        return self.vectors.shape[0]


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


def build_codebook(cfg: SimConfig, rng: np.random.Generator | None = None) -> Codebook:
    """Draw the codebook and bin layout for a configuration, chunk by chunk
    as run_simulation streams it, but keeping every row.

    Deterministic given cfg.seed when rng is omitted.  Raises when the
    codebook size would exceed cfg.codebook_cap, reporting the largest
    feasible blocklength instead of silently truncating.
    """
    layout = _layout(cfg)
    if rng is None:
        rng = _rng(cfg.seed, 0)
    vectors = _sample_sphere_batch(layout.size, cfg.n, _radius(cfg), rng)
    return Codebook(vectors=vectors, n_bins=layout.n_bins, bin_size=layout.bin_size,
                    _owned=True)


@dataclass(frozen=True)
class EncodeResult:
    bin_index: int
    codeword_index: int
    codeword: np.ndarray
    recon_encoder: np.ndarray


@dataclass(frozen=True)
class DecodeResult:
    codeword_index: int
    codeword: np.ndarray
    recon_decoder: np.ndarray


def encode(x: np.ndarray, cb: Codebook, cfg: SimConfig) -> EncodeResult | list[EncodeResult]:
    """Pick the codeword whose angle with x is closest to the encoding target;
    send its bin, reconstruct as z* + b x.

    x is one source vector of shape (n,), giving one EncodeResult, or a
    block of them of shape (k, n), giving a list of k results from a single
    pass over the codebook.
    """
    xs = np.atleast_2d(x)
    search = _Search(xs, cfg.enc_target, _radius(cfg))
    _scan(cb.vectors, search)
    results = [
        EncodeResult(bin_index=cb.bin_of(i), codeword_index=i, codeword=cb.vectors[i],
                     recon_encoder=cb.vectors[i] + cfg.params.b * x)
        for i, x in zip(map(int, search.best), xs)
    ]
    return results if np.ndim(x) == 2 else results[0]


def _decode_rows(rows: np.ndarray, y: np.ndarray, cfg: SimConfig) -> int:
    """Position within rows (one bin's codewords) of the row whose angle with
    y is closest to the decoding target."""
    search = _Search(y[np.newaxis], cfg.dec_target, _radius(cfg))
    _scan(rows, search)
    return int(search.best[0])


def decode(m: int, y: np.ndarray, cb: Codebook, cfg: SimConfig) -> DecodeResult:
    """Pick, within bin m, the codeword whose angle with y is closest to the
    decoding target; reconstruct as zhat + b y."""
    lo, hi = cb.bin_bounds(m)
    assert hi > lo, "selected bin is empty (cannot occur for an encoder-chosen bin)"
    idx = lo + _decode_rows(cb.vectors[lo:hi], y, cfg)
    z_hat = cb.vectors[idx]
    return DecodeResult(
        codeword_index=idx,
        codeword=z_hat,
        recon_decoder=z_hat + cfg.params.b * y,
    )


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
