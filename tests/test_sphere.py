import dataclasses
import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from rdsi import sphere
from rdsi.errors import AssumptionError, InfeasibleError, ResourceCapError
from rdsi.gaussian import GaussianProblem, SchemeParams, scheme_params
from rdsi.sphere import (
    SimConfig,
    SimResult,
    _rng,
    cap_exponent,
    cap_ratio,
    max_epsilon,
    max_feasible_blocklength,
    rate_pair,
    run_simulation,
)


def case3_params() -> SchemeParams:
    return scheme_params(GaussianProblem(1, 1, 0.25, 0.0625))


def small_cfg(n=8, trials=5, seed=0, delta=None, params=None, var_u=0.5):
    # var_w = var_x = 1 gives R' = 0.5; var_u = 0.5 gives R ~ 0.2075
    params = params or SchemeParams(a=0.5, b=0.1, var_w=1.0, case_id=3)
    r_fine, r_nom = rate_pair(1.0, var_u, params)
    delta = delta if delta is not None else 0.25 - r_nom
    eps = 0.5 * max_epsilon(1.0, var_u, params, delta)
    return SimConfig(
        n=n, var_x=1.0, var_u=var_u, params=params,
        delta=delta, epsilon=eps, trials=trials, seed=seed,
    )


def one_shot(count, n, radius, rng):
    """count rows on the n-sphere of the radius, drawn in one piece."""
    v = rng.standard_normal((count, n))
    v *= radius / np.linalg.norm(v, axis=1, keepdims=True)
    return v


def streamed(count, n, radius, rng):
    """count rows drawn as run_simulation draws its codebook, then redrawn."""
    states = sphere._scan((count, n), rng=rng, radius=radius)
    return sphere._redraw(rng, states, 0, count, n, radius)


def held_book(cfg):
    """The codebook run_simulation streams, held: its one-shot draw, which
    test_chunked_draw_matches_one_shot proves equal to the chunked one."""
    return one_shot(sphere._layout(cfg).size, cfg.n, sphere._radius(cfg), _rng(cfg.seed, 0))


def best_match(book, points, target, radius):
    """Index of each point's codeword, as the encoder picks it: book's
    chunks scored and merged in row order, as _scan does with a pool."""
    search = sphere._Search(np.atleast_2d(points), target, radius)
    for lo in range(0, len(book), sphere._ROW_CHUNK):
        search.merge(lo, search.score(book[lo : lo + sphere._ROW_CHUNK]))
    return search.best


class TestSampleSphere:
    """The codebook's rows are uniform on the sphere of the radius."""

    def test_unit_circle(self):
        v = streamed(1, 2, 1.0, _rng(0))[0]
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-9

    def test_norms_exact(self):
        v = streamed(50, 7, 3.5, _rng(1))
        assert np.max(np.abs(np.linalg.norm(v, axis=1) / 3.5 - 1.0)) <= 1e-9

    def test_requires_n_at_least_2(self):
        with pytest.raises(AssumptionError):
            dataclasses.replace(small_cfg(), n=1)

    def test_coordinate_means_in_clt_band(self):
        n, count, radius = 3, 100_000, 2.0
        v = streamed(count, n, radius, _rng(42))
        sigma = radius / math.sqrt(n) / math.sqrt(count)
        assert np.all(np.abs(v.mean(axis=0)) <= 4 * sigma)

    def test_first_coordinate_median_symmetric(self):
        v = streamed(100_000, 5, 1.0, _rng(7))
        assert abs((v[:, 0] <= 0).mean() - 0.5) <= 0.01


class TestCapRatio:
    def test_hemisphere(self):
        for n in (2, 3, 10, 100):
            assert cap_ratio(n, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_single_point(self):
        assert cap_ratio(5, 1.0) == 0.0

    @pytest.mark.parametrize("tau", [0.0, 0.25, 0.5, 0.9])
    def test_three_dim_closed_form(self, tau):
        assert cap_ratio(3, tau) == pytest.approx((1 - tau) / 2, abs=1e-12)

    def test_monotone_in_tau(self):
        taus = np.linspace(0, 1, 21)
        for n in (4, 16, 64):
            vals = [cap_ratio(n, float(t)) for t in taus]
            assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(AssumptionError):
            cap_ratio(3, -0.1)
        with pytest.raises(AssumptionError):
            cap_ratio(3, 1.1)
        with pytest.raises(AssumptionError):
            cap_ratio(1, 0.5)

    def test_narrow_cap_vanishes(self):
        # half-angle pi/3 (< pi/2): area ratio tends to 0
        vals = [cap_ratio(n, math.cos(math.pi / 3)) for n in (64, 256, 1024)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-30

    def test_wide_cap_fills_sphere(self):
        # half-angle 2pi/3 (> pi/2): ratio 1 - cap_ratio(n, |cos|) tends to 1
        caps = [cap_ratio(n, abs(math.cos(2 * math.pi / 3))) for n in (64, 256, 1024)]
        ratios = [1.0 - c for c in caps]
        assert all(b >= a for a, b in zip(ratios, ratios[1:]))
        assert all(b < a for a, b in zip(caps, caps[1:]))
        assert ratios[-1] > 1.0 - 1e-12

    def test_montecarlo_agreement(self):
        n, tau, count = 12, 0.3, 200_000
        rng = _rng(5)
        v = rng.standard_normal((count, n))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        emp = (v[:, 0] >= tau).mean()
        assert emp == pytest.approx(cap_ratio(n, tau), abs=0.005)


class TestCapExponent:
    def test_zero(self):
        assert cap_exponent(0.0) == 0.0

    def test_hand_value(self):
        assert cap_exponent(0.6) == pytest.approx(0.5 * math.log2(0.64), abs=1e-12)
        assert cap_exponent(0.6) == pytest.approx(-0.3219, abs=5e-5)

    def test_convergence_at_512(self):
        assert abs(math.log2(cap_ratio(512, 0.6)) / 512 - cap_exponent(0.6)) <= 0.02

    def test_domain(self):
        with pytest.raises(AssumptionError):
            cap_exponent(1.0)


class TestCodebook:
    def test_sixteen_codewords_four_bins_of_four(self):
        cfg = small_cfg(n=8)
        r_fine, r_nom = rate_pair(1.0, 0.5, cfg.params)
        assert r_fine == pytest.approx(0.5, abs=1e-12)
        layout = sphere._layout(cfg)
        assert layout.size == 16
        assert layout.n_bins == 4 and layout.bin_size == 4
        assert [layout.bin_bounds(m) for m in range(4)] == [(0, 4), (4, 8), (8, 12), (12, 16)]
        norms = np.linalg.norm(streamed(16, cfg.n, sphere._radius(cfg), _rng(cfg.seed, 0)), axis=1)
        assert np.max(np.abs(norms / sphere._radius(cfg) - 1.0)) <= 1e-9

    def test_same_seed_bit_identical(self):
        cfg = small_cfg(n=25, seed=33)
        size, radius = sphere._layout(cfg).size, sphere._radius(cfg)
        book1 = streamed(size, cfg.n, radius, _rng(cfg.seed, 0))
        book2 = streamed(size, cfg.n, radius, _rng(cfg.seed, 0))
        assert book1.tobytes() == book2.tobytes()

    def test_memory_cap_reports_feasible_n(self, monkeypatch):
        # run_simulation checks the cap before it draws anything
        cfg = dataclasses.replace(small_cfg(n=8), codebook_cap=8)
        keys = []
        monkeypatch.setattr(sphere, "_rng", lambda *key: keys.append(key))
        with pytest.raises(ResourceCapError) as err:
            run_simulation(cfg)
        n_max = max_feasible_blocklength(1.0, 0.5, cfg.params, 8)
        assert str(n_max) in str(err.value)
        assert keys == []

    def test_bin_of_matches_bounds(self):
        layout = sphere._layout(small_cfg(n=25))
        for idx in range(layout.size):
            lo, hi = layout.bin_bounds(layout.bin_of(idx))
            assert lo <= idx < hi


class TestEncodeDecode:
    def test_single_codeword_bin(self):
        cfg = small_cfg(n=8)
        book = one_shot(1, 8, sphere._radius(cfg), _rng(3))
        x = _rng(4).standard_normal(8)
        assert best_match(book, x, cfg.enc_target, sphere._radius(cfg))[0] == 0
        assert sphere._decode_rows(book, x, cfg) == 0

    def test_exact_target_angle_wins(self):
        cfg = small_cfg(n=8)
        radius = sphere._radius(cfg)
        rng = _rng(9)
        x = rng.standard_normal(8)
        x /= np.linalg.norm(x)
        perp = rng.standard_normal(8)
        perp -= (perp @ x) * x
        perp /= np.linalg.norm(perp)
        t = cfg.enc_target
        ideal = radius * (t * x + math.sqrt(1 - t * t) * perp)
        others = np.asarray(
            [radius * (0.1 * x + math.sqrt(1 - 0.01) * perp) for _ in range(3)]
        )
        book = np.vstack([others[:2], ideal, others[2:]])
        assert best_match(book, 5.0 * x, t, radius)[0] == 2

    def test_encoder_reconstruction_identity(self):
        # the codeword run_simulation takes from its redrawn bin is the held
        # book's row, so z* + b x is the reference's reconstruction
        cfg = small_cfg(n=25)
        layout, book, radius = sphere._layout(cfg), held_book(cfg), sphere._radius(cfg)
        xs = _rng(11).standard_normal((3, cfg.n))
        rng = _rng(cfg.seed, 0)
        search = sphere._Search(xs, cfg.enc_target, radius)
        states = sphere._scan((layout.size, cfg.n), search, rng, radius)
        for x, best in zip(xs, map(int, search.best)):
            assert best == best_match(book, x, cfg.enc_target, radius)[0]
            lo, hi = layout.bin_bounds(layout.bin_of(best))
            rows = sphere._redraw(rng, states, lo, hi, cfg.n, radius)
            assert rows[best - lo].tobytes() == book[best].tobytes()

    def test_decoder_reconstruction_identity(self):
        # the decoder's pick is the bin row whose cosine with y is nearest
        # the decoding target
        cfg = small_cfg(n=25)
        layout, book = sphere._layout(cfg), held_book(cfg)
        y = _rng(12).standard_normal(cfg.n)
        lo, hi = layout.bin_bounds(1)
        picked = sphere._decode_rows(book[lo:hi], y, cfg)
        cosines = book[lo:hi] @ y / (sphere._radius(cfg) * np.linalg.norm(y))
        assert 0 <= picked < hi - lo
        assert picked == np.argmin(np.abs(cosines - cfg.dec_target))

    def test_zero_vector_rejected(self):
        cfg = small_cfg(n=8)
        book = held_book(cfg)
        with pytest.raises(AssumptionError):
            best_match(book, np.zeros(8), cfg.enc_target, sphere._radius(cfg))
        with pytest.raises(AssumptionError):
            sphere._decode_rows(book, np.zeros(8), cfg)

    def test_tie_breaks_to_lowest_index(self):
        cfg = small_cfg(n=8)
        x = np.zeros(8)
        x[0] = 1.0
        mirror = np.zeros(8)
        mirror[1] = sphere._radius(cfg)
        book = np.vstack([mirror, mirror])  # identical scores
        assert best_match(book, x, cfg.enc_target, sphere._radius(cfg))[0] == 0


def random_book(rows, n, seed):
    # random rows on the sphere of the small configuration's radius
    cfg = small_cfg(n=n)
    return cfg, one_shot(rows, n, sphere._radius(cfg), _rng(seed))


class TestBatchedEncode:
    def test_block_matches_per_row_encode(self):
        # a codebook spanning several row chunks, with a ragged last chunk
        cfg, book = random_book(3 * sphere._ROW_CHUNK + 77, 8, seed=21)
        xs = _rng(22).standard_normal((40, 8))
        block = best_match(book, xs, cfg.enc_target, sphere._radius(cfg))
        assert len(block) == 40
        for x, best in zip(xs, block):
            assert best == best_match(book, x, cfg.enc_target, sphere._radius(cfg))[0]

    def test_duplicate_across_chunk_boundary_goes_to_lower_index(self):
        cfg, book = random_book(2 * sphere._ROW_CHUNK, 8, seed=23)
        xs = _rng(24).standard_normal((2, 8))
        # move x's best codeword to the last row of the first chunk and the
        # first row of the second, and turn the original away from x
        best = best_match(book, xs[0], cfg.enc_target, sphere._radius(cfg))[0]
        low, high = sphere._ROW_CHUNK - 1, sphere._ROW_CHUNK
        winner = book[best].copy()
        book[best] = -winner
        book[[low, high]] = winner
        assert best_match(book, xs[0], cfg.enc_target, sphere._radius(cfg))[0] == low
        assert best_match(book, xs, cfg.enc_target, sphere._radius(cfg))[0] == low

    def test_zero_row_in_block_rejected(self):
        cfg, book = random_book(100, 8, seed=25)
        xs = _rng(26).standard_normal((5, 8))
        xs[3] = 0.0
        with pytest.raises(AssumptionError):
            best_match(book, xs, cfg.enc_target, sphere._radius(cfg))


def unscreened(search, block):
    """Each point's closest row of block and its error, scoring every row."""
    err = np.abs(search.points @ block.T - search.target)
    idx = np.argmin(err, axis=1)
    return idx, err[np.arange(len(idx)), idx]


class TestScreenedScore:
    def test_matches_unscreened_reference(self):
        # points whose best_err lies below, at and above the block's best
        # error, and at inf: the screen keeps every point the block can
        # improve, with the unscreened row and error
        cfg = small_cfg(n=8)
        radius = sphere._radius(cfg)
        for seed in range(5):
            rng = _rng(31, seed)
            book = one_shot(sphere._ROW_CHUNK, 8, radius, rng)
            search = sphere._Search(rng.standard_normal((40, 8)), cfg.enc_target, radius)
            idx, err = unscreened(search, book)
            search.best_err = err * rng.choice([0.5, 1.0, 1.0 + 1e-12, 2.0, np.inf], size=40)
            at, got_idx, got_err = search.score(book)
            improved = np.flatnonzero(err < search.best_err)
            assert np.isin(improved, at).all()
            assert (got_idx == idx[at]).all()
            assert got_err.tobytes() == err[at].tobytes()

    def test_skips_a_point_exactly_at_best_err(self):
        cfg = small_cfg(n=8)
        radius = sphere._radius(cfg)
        book = one_shot(sphere._ROW_CHUNK, 8, radius, _rng(32))
        # a target above every cosine, so that target minus the largest
        # cosine is the smallest error of the block
        search = sphere._Search(_rng(33).standard_normal((1, 8)), 0.999, radius)
        cosines = search.points @ book.T
        gap = search.target - cosines.max()
        assert gap > 0.0
        assert unscreened(search, book)[1][0] >= gap
        search.best_err[:] = gap
        assert search.score(book) is None
        search.best_err[:] = np.nextafter(gap, np.inf)  # gap is one ulp below
        at, idx, err = search.score(book)
        assert at.tolist() == [0] and idx[0] == np.argmax(cosines)

    def test_stale_bound_keeps_duplicates_at_the_lower_index(self):
        # the second copy of the winner, screened against a best_err read
        # before the first chunk merged, is scored and must lose the tie
        cfg, book = random_book(2 * sphere._ROW_CHUNK, 8, seed=23)
        x = _rng(24).standard_normal(8)
        radius = sphere._radius(cfg)
        best = best_match(book, x, cfg.enc_target, radius)[0]
        low, high = sphere._ROW_CHUNK - 1, sphere._ROW_CHUNK
        winner = book[best].copy()
        book[best] = -winner
        book[[low, high]] = winner
        chunks = book[:high], book[high:]
        search = sphere._Search(x[np.newaxis], cfg.enc_target, radius)
        found = [search.score(chunk) for chunk in chunks]
        assert found[1] is not None and found[1][1][0] == 0
        for lo, scored in zip((0, high), found):
            search.merge(lo, scored)
        idx, err = unscreened(search, chunks[0])
        assert search.best[0] == low == idx[0] and search.best_err[0] == err[0]

    def test_merge_publishes_a_new_best_err(self):
        # a worker may be reading best_err while the calling thread merges
        cfg, book = random_book(sphere._ROW_CHUNK, 8, seed=27)
        search = sphere._Search(_rng(28).standard_normal((3, 8)), cfg.enc_target,
                                sphere._radius(cfg))
        before = search.best_err
        search.merge(0, search.score(book))
        assert np.isinf(before).all() and np.isfinite(search.best_err).all()


class TestWorkers:
    @pytest.mark.parametrize("cores", [1, 2, 3, 8])
    def test_drawing_thread_keeps_a_core(self, monkeypatch, cores):
        monkeypatch.setattr(sphere.os, "sched_getaffinity",
                            lambda pid: set(range(cores)), raising=False)
        assert sphere._workers() == max(cores - 1, 1)
        monkeypatch.delattr(sphere.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(sphere.os, "cpu_count", lambda: cores)
        assert sphere._workers() == max(cores - 1, 1)


class TestDirectDecode:
    def test_same_pick_as_the_search(self):
        # bins of one row to several chunks, with a ragged last chunk
        cfg = small_cfg(n=25)
        radius = sphere._radius(cfg)
        rng = _rng(34)
        chunk = sphere._ROW_CHUNK
        sizes = (1, 2, 28, chunk, chunk + 1, 3 * chunk + 77)
        bins = [one_shot(size, cfg.n, radius, rng) for size in sizes]
        ys = rng.standard_normal((10, cfg.n))
        want = [[best_match(rows, y, cfg.dec_target, radius)[0] for y in ys] for rows in bins]
        got = [[sphere._decode_rows(rows, y, cfg) for y in ys] for rows in bins]
        assert got == want
        with pytest.raises(AssumptionError):
            sphere._decode_rows(bins[2], np.zeros(cfg.n), cfg)


def reference_simulation(cfg):
    """The simulation written trial by trial on the held codebook: one draw,
    one encoder search over every row and one decoder search in the sent
    bin per trial, in trial order."""
    layout, book, radius = sphere._layout(cfg), held_book(cfg), sphere._radius(cfg)
    n = cfg.n
    var_y = cfg.var_x + cfg.var_u
    rho_xy = math.sqrt(cfg.var_x / var_y)
    sums, cond_sums, decoded_sums = np.zeros(2), np.zeros(2), np.zeros(2)
    counts = np.zeros(5)
    n_clean = n_decoded = 0
    for t in range(cfg.trials):
        rng = _rng(cfg.seed, 1, t)
        x = math.sqrt(cfg.var_x) * rng.standard_normal(n)
        u = math.sqrt(cfg.var_u) * rng.standard_normal(n)
        y = x + u
        best = int(best_match(book, x, cfg.enc_target, radius)[0])
        lo, hi = layout.bin_bounds(layout.bin_of(best))
        picked = lo + sphere._decode_rows(book[lo:hi], y, cfg)
        z = book[best]
        recon_e, recon_d = z + cfg.params.b * x, book[picked] + cfg.params.b * y
        dd = float(np.sum((x - recon_d) ** 2)) / n
        de = float(np.sum((recon_d - recon_e) ** 2)) / n
        xx, yy = float(x @ x), float(y @ y)
        cos_xy = float(x @ y) / math.sqrt(xx * yy)
        e_src = (
            abs(xx / n - cfg.var_x) > cfg.epsilon * cfg.var_x
            or abs(yy / n - var_y) > cfg.epsilon * var_y
            or abs(cos_xy - rho_xy) > cfg.epsilon * rho_xy
        )
        zz = float(z @ z)
        cos_xz = float(x @ z) / math.sqrt(xx * zz)
        e_enc = abs(cos_xz - cfg.enc_target) > cfg.epsilon * cfg.enc_target
        cos_yz = float(y @ z) / math.sqrt(yy * zz)
        e_dec1 = abs(cos_yz - cfg.dec_target) > 4.0 * cfg.epsilon * cfg.dec_target
        e_dec2 = picked != best
        any_e = e_src or e_enc or e_dec1 or e_dec2
        sums += (dd, de)
        counts += (e_src, e_enc, e_dec1, e_dec2, any_e)
        if not any_e:
            cond_sums += (dd, de)
            n_clean += 1
        if not e_dec2:
            decoded_sums += (dd, de)
            n_decoded += 1
    nan = float("nan")
    return SimResult(
        *(sums / cfg.trials), *(counts / cfg.trials), cfg.trials,
        *(cond_sums / n_clean if n_clean else (nan, nan)),
        *(decoded_sums / n_decoded if n_decoded else (nan, nan)),
    )


def same_result(got, want):
    for field in dataclasses.fields(SimResult):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert a == b or (math.isnan(a) and math.isnan(b)), field.name


class Interrupt(BaseException):
    """Stands in for a timeout or Ctrl-C arriving mid-stream."""


class TestStreamedCodebook:
    def test_chunked_draw_matches_one_shot(self, monkeypatch):
        # 2^12.5 -> 5793 codewords: eleven full row chunks and a ragged one,
        # drawn through a ring of 2 reused buffers
        cfg = small_cfg(n=25)
        size = sphere._layout(cfg).size
        assert size > sphere._ROW_CHUNK and size % sphere._ROW_CHUNK
        chunks, normalise = [], sphere._normalise

        def keep(block, radius):
            chunks.append(normalise(block, radius).copy())
            return block

        monkeypatch.setattr(sphere, "_workers", lambda: 1)  # one worker keeps row order
        monkeypatch.setattr(sphere, "_RING", 2)
        monkeypatch.setattr(sphere, "_normalise", keep)
        sphere._scan((size, cfg.n), rng=_rng(cfg.seed, 0), radius=sphere._radius(cfg))
        assert np.concatenate(chunks).tobytes() == held_book(cfg).tobytes()

    def test_redrawn_rows_match_built_codebook(self):
        # 5793 codewords: eleven full row chunks and a ragged one of 161 rows
        cfg = small_cfg(n=25)
        layout, book = sphere._layout(cfg), held_book(cfg)
        chunk, radius, size = sphere._ROW_CHUNK, sphere._radius(cfg), layout.size
        rng = _rng(cfg.seed, 0)
        states = sphere._scan((size, cfg.n), rng=rng, radius=radius)
        assert len(states) == -(-size // chunk) and size % chunk
        bins = [layout.bin_bounds(m) for m in range(layout.n_bins)]
        straddling = [(lo, hi) for lo, hi in bins if lo // chunk != (hi - 1) // chunk]
        assert straddling
        ragged = (size - size % chunk, size)
        others = [(0, 1), ragged, (size - 1, size), (chunk - 1, 3 * chunk + 1), (0, chunk)]
        for lo, hi in bins[::-1] + others:
            rows = sphere._redraw(rng, states, lo, hi, cfg.n, radius)
            assert rows.tobytes() == book[lo:hi].tobytes(), (lo, hi)

    def test_simulation_never_holds_the_codebook(self):
        # 2^16 codewords of 32 coordinates: 16.8 MB if held
        cfg = small_cfg(n=32, trials=4)
        book_bytes = sphere._layout(cfg).size * cfg.n * 8
        assert book_bytes > 16e6
        tracemalloc.start()
        try:
            run_simulation(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < book_bytes / 4

    def test_codebook_stream_constructed_once(self, monkeypatch):
        # 2^13 codewords in 16 row chunks; three blocks of trials
        cfg = small_cfg(n=26, trials=2 * sphere._TRIAL_BLOCK + 13, seed=4)
        real_rng, keys = sphere._rng, []

        def rng(*key):
            keys.append(key)
            return real_rng(*key)

        monkeypatch.setattr(sphere, "_rng", rng)
        run_simulation(cfg)
        assert keys.count((cfg.seed, 0)) == 1
        assert len(keys) == cfg.trials + 1

    def test_worker_count_does_not_change_results(self, monkeypatch):
        cfg = small_cfg(n=25, trials=sphere._TRIAL_BLOCK + 13, seed=6)
        xs, ys = _rng(7).standard_normal((2, 3, cfg.n))
        book, radius = held_book(cfg), sphere._radius(cfg)
        assert len(book) == 5793

        def run(workers, ring=sphere._RING):
            with monkeypatch.context() as m:
                m.setattr(sphere, "_workers", lambda: workers)
                m.setattr(sphere, "_RING", ring)
                result = run_simulation(cfg)
                search = sphere._Search(xs, cfg.enc_target, radius)
                sphere._scan((len(book), cfg.n), search, _rng(cfg.seed, 0), radius)
                # a decoder search over every row
                decoded = [sphere._decode_rows(book, y, cfg) for y in ys]
            return result, search.best.tobytes() + search.best_err.tobytes(), decoded

        result, encoded, decoded = run(1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            # a ring of 2 buffers reuses each one five times over the 12 chunks
            for workers, ring in itertools.product((3, 2), (sphere._RING, 2)):
                other, other_encoded, other_decoded = run(workers, ring)
                same_result(other, result)
                assert other_encoded == encoded
                assert other_decoded == decoded
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("where", ["draw", "score"])
    def test_interrupt_cancels_queued_chunks_and_joins_workers(self, monkeypatch, where):
        # 2^16 codewords: 128 row chunks; the release at the 12th draw must
        # come before the ring fills, or the draw waits out the 60 s
        assert sphere._RING >= 12
        cfg = small_cfg(n=32, trials=4)
        baseline = threading.active_count()
        real_rng, real_score = sphere._rng, sphere._Search.score
        draws, scores = [], []  # list.append is atomic across threads
        release = threading.Event()

        class Stream:  # the codebook's stream, interrupted at its 12th chunk
            def __init__(self, rng):
                self.rng, self.bit_generator = rng, rng.bit_generator

            def standard_normal(self, *args, **kwargs):
                draws.append(1)
                if len(draws) == 12:
                    release.set()
                    if where == "draw":
                        raise Interrupt
                return self.rng.standard_normal(*args, **kwargs)

        def score(search, block):
            # workers hold their first chunks until the interruption
            scores.append(1)
            assert release.wait(timeout=60)
            if where == "score":
                raise Interrupt
            return real_score(search, block)

        monkeypatch.setattr(sphere, "_workers", lambda: 2)
        monkeypatch.setattr(sphere, "_rng", lambda *key: (
            Stream(real_rng(*key)) if key == (cfg.seed, 0) else real_rng(*key)))
        monkeypatch.setattr(sphere._Search, "score", score)
        with pytest.raises(Interrupt):
            run_simulation(cfg)
        assert threading.active_count() == baseline
        if where == "draw":  # chunks still queued at the interruption were never scored
            assert len(scores) < len(draws) - 1


class TestRunSimulation:
    def test_blocked_run_matches_trial_by_trial_reference(self):
        # 2^13 codewords span 16 row chunks of 512 rows, a full ring; the
        # trial count leaves a partial second block
        cfg = small_cfg(n=26, trials=sphere._TRIAL_BLOCK + 13, seed=4)
        assert sphere._layout(cfg).size > 3 * sphere._ROW_CHUNK
        got, want = run_simulation(cfg), reference_simulation(cfg)
        for field in dataclasses.fields(SimResult):
            a, b = getattr(got, field.name), getattr(want, field.name)
            assert a == b or (math.isnan(a) and math.isnan(b)), field.name
        assert 0.0 < got.freq_dec2 < 1.0
        assert not math.isnan(got.decoded_dd)

    def test_deterministic_given_seed(self):
        cfg = small_cfg(n=10, trials=8, seed=5)
        r1 = run_simulation(cfg)
        r2 = run_simulation(cfg)
        for field in (
            "empirical_dd", "empirical_de", "freq_src", "freq_enc",
            "freq_dec1", "freq_dec2", "freq_any", "trials_run",
        ):
            assert getattr(r1, field) == getattr(r2, field)

    def test_union_bound(self):
        cfg = small_cfg(n=10, trials=30, seed=2)
        r = run_simulation(cfg)
        assert (
            r.freq_any
            <= r.freq_src + r.freq_enc + r.freq_dec1 + r.freq_dec2 + 1e-12
        )
        for f in (r.freq_src, r.freq_enc, r.freq_dec1, r.freq_dec2, r.freq_any):
            assert 0.0 <= f <= 1.0

    def test_b_zero_gives_zero_encoder_distortion_on_success(self):
        # delta above R' - R makes single-codeword bins: decoding always
        # succeeds and xhat_d - xhat_e = zhat - z* = 0 exactly when b = 0
        params = SchemeParams(a=0.5, b=0.0, var_w=1.0, case_id=3)
        r_fine, r_nom = rate_pair(1.0, 0.5, params)
        delta = (r_fine - r_nom) * 1.5
        eps = 0.5 * max_epsilon(1.0, 0.5, params, delta)
        cfg = SimConfig(
            n=10, var_x=1.0, var_u=0.5, params=params,
            delta=delta, epsilon=eps, trials=20, seed=0,
        )
        r = run_simulation(cfg)
        assert r.freq_dec2 == 0.0
        assert r.empirical_de == 0.0
        assert (r.decoded_dd, r.decoded_de) == (r.empirical_dd, r.empirical_de)

    def test_epsilon_feasibility_enforced(self):
        params = case3_params()
        eps_sup = max_epsilon(1.0, 1.0, params, 0.1)
        with pytest.raises(InfeasibleError):
            SimConfig(
                n=10, var_x=1, var_u=1, params=params,
                delta=0.1, epsilon=eps_sup * 1.01, trials=5,
            )

    def test_delta_domain_enforced(self):
        params = case3_params()
        gap = rate_pair(1, 1, params)[0] - rate_pair(1, 1, params)[1]
        with pytest.raises(InfeasibleError):
            SimConfig(
                n=10, var_x=1, var_u=1, params=params,
                delta=2.1 * gap, epsilon=1e-3, trials=5,
            )

    def test_error_decay_with_blocklength(self):
        # the vanishing-error limit is out of reach at desk scale, but the
        # decode-error frequency and both distortions must trend down in n
        params = SchemeParams(a=0.2, b=0.1, var_w=4.0, case_id=3)
        eps = 0.5 * max_epsilon(1.0, 1.0, params, 0.03)
        results = {}
        for n in (40, 80):
            cfg = SimConfig(
                n=n, var_x=1, var_u=1, params=params,
                delta=0.03, epsilon=eps, trials=400, seed=11,
            )
            results[n] = run_simulation(cfg)
        assert results[80].freq_dec2 < results[40].freq_dec2
        assert results[80].empirical_dd < results[40].empirical_dd
        assert results[80].empirical_de < results[40].empirical_de

    def test_case3_parameters_run(self):
        params = case3_params()
        eps = 0.5 * max_epsilon(1.0, 1.0, params, 0.1)
        cfg = SimConfig(
            n=12, var_x=1, var_u=1, params=params,
            delta=0.1, epsilon=eps, trials=25, seed=1,
        )
        r = run_simulation(cfg)
        assert r.trials_run == 25
        assert 0.0 < r.empirical_dd < 3.0
        assert 0.0 < r.empirical_de < 3.0
