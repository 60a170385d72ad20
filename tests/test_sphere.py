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
    Codebook,
    SimConfig,
    SimResult,
    _rng,
    build_codebook,
    cap_exponent,
    cap_ratio,
    decode,
    encode,
    max_epsilon,
    max_feasible_blocklength,
    rate_pair,
    run_simulation,
    sample_sphere,
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


class TestSampleSphere:
    def test_unit_circle(self):
        v = sample_sphere(2, 1.0, _rng(0))
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-9

    def test_norms_exact(self):
        rng = _rng(1)
        for _ in range(50):
            v = sample_sphere(7, 3.5, rng)
            assert abs(np.linalg.norm(v) / 3.5 - 1.0) <= 1e-9

    def test_requires_n_at_least_2(self):
        with pytest.raises(AssumptionError):
            sample_sphere(1, 1.0, _rng(0))

    def test_coordinate_means_in_clt_band(self):
        n, count, radius = 3, 100_000, 2.0
        rng = _rng(42)
        v = rng.standard_normal((count, n))
        v *= radius / np.linalg.norm(v, axis=1, keepdims=True)
        sigma = radius / math.sqrt(n) / math.sqrt(count)
        assert np.all(np.abs(v.mean(axis=0)) <= 4 * sigma)

    def test_first_coordinate_median_symmetric(self):
        count = 100_000
        rng = _rng(7)
        v = rng.standard_normal((count, 5))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
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
        cb = build_codebook(cfg)
        assert cb.size == 16
        assert cb.n_bins == 4 and cb.bin_size == 4
        assert [cb.bin_bounds(m) for m in range(4)] == [(0, 4), (4, 8), (8, 12), (12, 16)]
        radius = math.sqrt(cfg.n * cfg.var_z)
        norms = np.linalg.norm(cb.vectors, axis=1)
        assert np.max(np.abs(norms / radius - 1.0)) <= 1e-9

    def test_same_seed_bit_identical(self):
        cfg = small_cfg(n=8, seed=33)
        cb1 = build_codebook(cfg)
        cb2 = build_codebook(cfg)
        assert cb1.vectors.tobytes() == cb2.vectors.tobytes()

    def test_memory_cap_reports_feasible_n(self):
        cfg = dataclasses.replace(small_cfg(n=8), codebook_cap=8)
        with pytest.raises(ResourceCapError) as err:
            build_codebook(cfg)
        n_max = max_feasible_blocklength(1.0, 0.5, cfg.params, 8)
        assert str(n_max) in str(err.value)

    def test_caller_array_is_copied(self):
        vec = _rng(2).standard_normal((4, 3))
        cb = Codebook(vectors=vec, n_bins=1, bin_size=4)
        before = cb.vectors.copy()
        vec[:] = 0.0
        np.testing.assert_array_equal(cb.vectors, before)
        assert not cb.vectors.flags.writeable

    def test_built_codebook_is_read_only(self):
        cb = build_codebook(small_cfg(n=8))
        assert not cb.vectors.flags.writeable
        with pytest.raises(ValueError):
            cb.vectors[0, 0] = 1.0

    def test_bin_of_matches_bounds(self):
        cfg = small_cfg(n=8)
        cb = build_codebook(cfg)
        for idx in range(cb.size):
            m = cb.bin_of(idx)
            lo, hi = cb.bin_bounds(m)
            assert lo <= idx < hi


class TestEncodeDecode:
    def test_single_codeword_bin(self):
        cfg = small_cfg(n=8)
        vec = sample_sphere(8, math.sqrt(8 * cfg.var_z), _rng(3))
        cb = Codebook(vectors=vec[np.newaxis, :], n_bins=1, bin_size=1)
        x = _rng(4).standard_normal(8)
        enc = encode(x, cb, cfg)
        assert enc.codeword_index == 0
        dec = decode(0, x, cb, cfg)
        assert dec.codeword_index == 0

    def test_exact_target_angle_wins(self):
        cfg = small_cfg(n=8)
        radius = math.sqrt(8 * cfg.var_z)
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
        cb = Codebook(np.vstack([others[:2], ideal, others[2:]]), n_bins=1, bin_size=4)
        enc = encode(5.0 * x, cb, cfg)
        assert enc.codeword_index == 2

    def test_encoder_reconstruction_identity(self):
        cfg = small_cfg(n=8)
        cb = build_codebook(cfg)
        x = _rng(11).standard_normal(8)
        enc = encode(x, cb, cfg)
        np.testing.assert_allclose(
            enc.recon_encoder - cfg.params.b * x, enc.codeword, rtol=0, atol=1e-12
        )

    def test_decoder_reconstruction_identity(self):
        cfg = small_cfg(n=8)
        cb = build_codebook(cfg)
        y = _rng(12).standard_normal(8)
        dec = decode(1, y, cb, cfg)
        np.testing.assert_allclose(
            dec.recon_decoder - cfg.params.b * y, dec.codeword, rtol=0, atol=1e-12
        )
        lo, hi = cb.bin_bounds(1)
        assert lo <= dec.codeword_index < hi

    def test_zero_vector_rejected(self):
        cfg = small_cfg(n=8)
        cb = build_codebook(cfg)
        with pytest.raises(AssumptionError):
            encode(np.zeros(8), cb, cfg)

    def test_tie_breaks_to_lowest_index(self):
        cfg = small_cfg(n=8)
        radius = math.sqrt(8 * cfg.var_z)
        x = np.zeros(8)
        x[0] = 1.0
        mirror = np.zeros(8)
        mirror[1] = radius
        cb = Codebook(
            np.vstack([mirror, mirror]), n_bins=2, bin_size=1
        )  # identical scores
        enc = encode(x, cb, cfg)
        assert enc.codeword_index == 0


def random_codebook(rows, n, seed):
    # random rows on the sphere of the small configuration's radius
    cfg = small_cfg(n=n)
    vectors = sphere._sample_sphere_batch(rows, n, math.sqrt(n * cfg.var_z), _rng(seed))
    return cfg, Codebook(vectors, n_bins=1, bin_size=rows)


class TestBatchedEncode:
    def test_block_matches_per_row_encode(self):
        # a codebook spanning several row chunks, with a ragged last chunk
        cfg, cb = random_codebook(3 * sphere._ROW_CHUNK + 77, 8, seed=21)
        xs = _rng(22).standard_normal((40, 8))
        block = encode(xs, cb, cfg)
        assert len(block) == 40
        for x, enc in zip(xs, block):
            one = encode(x, cb, cfg)
            assert enc.codeword_index == one.codeword_index
            assert enc.bin_index == one.bin_index
            np.testing.assert_array_equal(enc.recon_encoder, one.recon_encoder)

    def test_duplicate_across_chunk_boundary_goes_to_lower_index(self):
        cfg, cb = random_codebook(2 * sphere._ROW_CHUNK, 8, seed=23)
        xs = _rng(24).standard_normal((2, 8))
        vectors = np.array(cb.vectors)
        # move x's best codeword to the last row of the first chunk and the
        # first row of the second, and turn the original away from x
        best = encode(xs[0], cb, cfg).codeword_index
        low, high = sphere._ROW_CHUNK - 1, sphere._ROW_CHUNK
        winner = vectors[best].copy()
        vectors[best] = -winner
        vectors[[low, high]] = winner
        dup = Codebook(vectors, n_bins=1, bin_size=len(vectors))
        assert encode(xs[0], dup, cfg).codeword_index == low
        assert encode(xs, dup, cfg)[0].codeword_index == low

    def test_zero_row_in_block_rejected(self):
        cfg, cb = random_codebook(100, 8, seed=25)
        xs = _rng(26).standard_normal((5, 8))
        xs[3] = 0.0
        with pytest.raises(AssumptionError):
            encode(xs, cb, cfg)


def reference_simulation(cfg):
    """The simulation written trial by trial: one draw, one encode() and one
    decode() per trial, in trial order."""
    cb = build_codebook(cfg)
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
        enc = encode(x, cb, cfg)
        dec = decode(enc.bin_index, y, cb, cfg)
        dd = float(np.sum((x - dec.recon_decoder) ** 2)) / n
        de = float(np.sum((dec.recon_decoder - enc.recon_encoder) ** 2)) / n
        xx, yy = float(x @ x), float(y @ y)
        cos_xy = float(x @ y) / math.sqrt(xx * yy)
        e_src = (
            abs(xx / n - cfg.var_x) > cfg.epsilon * cfg.var_x
            or abs(yy / n - var_y) > cfg.epsilon * var_y
            or abs(cos_xy - rho_xy) > cfg.epsilon * rho_xy
        )
        zz = float(enc.codeword @ enc.codeword)
        cos_xz = float(x @ enc.codeword) / math.sqrt(xx * zz)
        e_enc = abs(cos_xz - cfg.enc_target) > cfg.epsilon * cfg.enc_target
        cos_yz = float(y @ enc.codeword) / math.sqrt(yy * zz)
        e_dec1 = abs(cos_yz - cfg.dec_target) > 4.0 * cfg.epsilon * cfg.dec_target
        e_dec2 = dec.codeword_index != enc.codeword_index
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
    def test_chunked_draw_matches_one_shot(self):
        # 2^12.5 -> 5793 codewords: eleven full row chunks and a ragged one
        cfg = small_cfg(n=25)
        cb = build_codebook(cfg)
        assert cb.size > sphere._ROW_CHUNK and cb.size % sphere._ROW_CHUNK
        v = _rng(cfg.seed, 0).standard_normal((cb.size, cfg.n))
        v *= math.sqrt(cfg.n * cfg.var_z) / np.linalg.norm(v, axis=1, keepdims=True)
        assert cb.vectors.tobytes() == v.tobytes()

    def test_redrawn_rows_match_built_codebook(self):
        # 5793 codewords: eleven full row chunks and a ragged one of 161 rows
        cfg = small_cfg(n=25)
        cb = build_codebook(cfg)
        chunk, radius = sphere._ROW_CHUNK, math.sqrt(cfg.n * cfg.var_z)
        rng = _rng(cfg.seed, 0)
        states = sphere._scan((cb.size, cfg.n), rng=rng, radius=radius)
        assert len(states) == -(-cb.size // chunk) and cb.size % chunk
        bins = [cb.bin_bounds(m) for m in range(cb.n_bins)]
        straddling = [(lo, hi) for lo, hi in bins if lo // chunk != (hi - 1) // chunk]
        assert straddling
        ragged = (cb.size - cb.size % chunk, cb.size)
        others = [(0, 1), ragged, (cb.size - 1, cb.size), (chunk - 1, 3 * chunk + 1), (0, chunk)]
        for lo, hi in bins[::-1] + others:
            rows = sphere._redraw(rng, states, lo, hi, cfg.n, radius)
            assert rows.tobytes() == cb.vectors[lo:hi].tobytes(), (lo, hi)

    def test_simulation_never_holds_the_codebook(self):
        # 2^16 codewords of 32 coordinates: 16.8 MB if held
        cfg = small_cfg(n=32, trials=4)
        book_bytes = build_codebook(cfg).vectors.nbytes
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
        ys = _rng(7).standard_normal((3, cfg.n))

        def run(workers, ring=sphere._RING):
            with monkeypatch.context() as m:
                m.setattr(sphere, "_workers", lambda: workers)
                m.setattr(sphere, "_RING", ring)
                result = run_simulation(cfg)
                book = build_codebook(cfg)
                # a single bin spanning every chunk sends decode through the pool
                one_bin = Codebook(book.vectors, n_bins=1, bin_size=book.size)
                decoded = [decode(0, y, one_bin, cfg).codeword_index for y in ys]
            return result, book.vectors.tobytes(), decoded

        result, book, decoded = run(1)
        assert len(book) == 5793 * cfg.n * 8
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            # a ring of 2 buffers reuses each one five times over the 12 chunks
            for workers, ring in itertools.product((3, 2), (sphere._RING, 2)):
                other, other_book, other_decoded = run(workers, ring)
                same_result(other, result)
                assert other_book == book
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
        assert build_codebook(cfg).size > 3 * sphere._ROW_CHUNK
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
