import numpy as np
import pytest

from conftest import (
    bsc_pair,
    grouped_instance,
    hamming,
    hamming_spec,
    ladder_instance,
    random_binary_instance,
)
import rdsi.extended as extended_module
import rdsi.solver as solver_module
from rdsi.errors import AssumptionError, InvalidInstanceError
from rdsi.extended import (
    check_zero_distortion_assumption_ext,
    constraints_depending_on_xhat_e,
    ext_expected_distortion_k,
    ext_rate_objective,
    solve_rate_ext,
    verify_u_reduction,
)
from rdsi.model import (
    ExtendedInstance,
    JointSource,
    TestChannel as Channel,
    conditional_entropy_x_given_y,
)
from rdsi.solver import SolveConfig, expected_distortions, r_wz, rate_objective, solve_rate


def embed_base_instance(dd, de, targets):
    """K = 2 tables d_1 = d_d(x, xhat_d), d_2 = d_e(xhat_d, xhat_e)."""
    nx, nd = dd.shape
    ne = de.shape[1]
    dk = np.zeros((2, nx, nd, ne))
    dk[0] = np.repeat(dd[:, :, np.newaxis], ne, axis=2)
    dk[1] = np.tile(de[np.newaxis, :, :], (nx, 1, 1))
    return ExtendedInstance(xhat_d_size=nd, xhat_e_size=ne, k=2, dk=dk, targets=targets)


def k3_instance(seed):
    """Seeded K = 3 instance, 2 x (2 + seed % 2) x 2: d_1(x, xhat_d),
    d_2(xhat_d, xhat_e) and d_3(x, xhat_d) with zero diagonals, targets
    uniform(0.2, 0.9) x each table's cheapest constant total (0 for d_2).
    (src, ExtendedInstance)."""
    rng = np.random.default_rng(seed)
    pxy = rng.random((2, 2 + seed % 2)) + 0.1
    pxy /= pxy.sum()
    d1, d2, d3 = (rng.random((2, 2)) for _ in range(3))
    for d in (d1, d2, d3):
        np.fill_diagonal(d, 0.0)
    dk = np.zeros((3, 2, 2, 2))
    dk[0], dk[1], dk[2] = d1[:, :, None], d2, d3[:, :, None]
    src = JointSource.from_pxy(pxy)
    totals = (src.px[None, :, None, None] * dk).sum(axis=1).min(axis=(1, 2))
    return src, ExtendedInstance(2, 2, 3, dk, targets=rng.uniform(0.2, 0.9, size=3) * totals)


def random_ext_witness(rng, src, nz, nu):
    pz = rng.random((src.x_size, nz)) + 0.05
    pz /= pz.sum(axis=1, keepdims=True)
    pu = rng.random((src.x_size, nz, nu)) + 0.05
    pu /= pu.sum(axis=2, keepdims=True)
    phi = rng.integers(0, 2, size=(src.y_size, nz))
    psi3 = rng.integers(0, 2, size=(src.x_size, nz, nu))
    return pz, pu, phi, psi3


def joint_from(pz, pu):
    return pz[:, None, :] * pu.transpose(0, 2, 1)  # (X, U, Z)


class TestExtRateObjective:
    def test_constant_pair_is_free(self):
        src = bsc_pair(0.2)
        p = np.zeros((2, 2, 2))
        p[:, 0, 0] = 1.0
        assert ext_rate_objective(src, p) == 0.0

    def test_copy_channel(self):
        src = bsc_pair(0.2)
        p = np.zeros((2, 1, 2))
        p[0, 0, 0] = 1.0
        p[1, 0, 1] = 1.0
        # Z = X: I(X;Z) - I(Y;Z) = H(X) - I(X;Y) = H(X|Y)
        assert ext_rate_objective(src, p) == pytest.approx(
            conditional_entropy_x_given_y(src), abs=1e-12
        )

    def test_marginal_agreement_with_base(self, rng):
        for _ in range(10):
            src, _ = random_binary_instance(rng)
            p = rng.random((2, 3, 2)) + 0.01
            p /= p.reshape(2, -1).sum(axis=1)[:, None, None]
            marg = p.sum(axis=1)
            ch = Channel(
                z_size=2,
                pz_given_x=marg / marg.sum(axis=1, keepdims=True),
                phi=np.zeros((2, 2), dtype=int),
                psi=np.zeros((2, 2), dtype=int),
            )
            assert ext_rate_objective(src, p) == pytest.approx(
                rate_objective(src, ch), abs=1e-9
            )

    def test_bad_rows_rejected(self):
        src = bsc_pair(0.2)
        with pytest.raises(InvalidInstanceError):
            ext_rate_objective(src, np.full((2, 2, 2), 0.3))

    def test_bad_shape_rejected(self):
        src = bsc_pair(0.2)
        with pytest.raises(InvalidInstanceError, match="shape"):
            ext_rate_objective(src, np.full((2, 2), 0.5))  # no U axis
        with pytest.raises(InvalidInstanceError, match="shape"):
            ext_rate_objective(src, np.full((3, 1, 2), 0.5))  # three source rows


class TestExtExpectedDistortion:
    def test_zero_table(self, rng):
        src = bsc_pair(0.2)
        ext = ExtendedInstance(2, 2, 1, np.zeros((1, 2, 2, 2)), targets=[0.0])
        pz, pu, phi, psi3 = random_ext_witness(rng, src, 2, 2)
        assert ext_expected_distortion_k(src, ext, joint_from(pz, pu), phi, psi3, 0) == 0.0

    def test_degenerate_u_reduces_to_base_decoder_distortion(self, rng):
        src, spec = random_binary_instance(rng)
        ext = embed_base_instance(spec.dd, spec.de, [1.0, 1.0])
        pz = rng.random((2, 3)) + 0.05
        pz /= pz.sum(axis=1, keepdims=True)
        phi = rng.integers(0, 2, size=(2, 3))
        psi = rng.integers(0, 2, size=(2, 3))
        ch = Channel(z_size=3, pz_given_x=pz, phi=phi, psi=psi)
        edd, ede = expected_distortions(src, spec, ch)
        p = pz[:, None, :]  # U degenerate
        psi3 = psi[:, :, None]
        assert ext_expected_distortion_k(src, ext, p, phi, psi3, 0) == pytest.approx(
            edd, abs=1e-12
        )
        assert ext_expected_distortion_k(src, ext, p, phi, psi3, 1) == pytest.approx(
            ede, abs=1e-12
        )

    @pytest.mark.parametrize("k", [-1, 2])
    def test_index_out_of_range_rejected(self, rng, k):
        src = bsc_pair(0.2)
        ext = ExtendedInstance(2, 2, 2, rng.random((2, 2, 2, 2)), targets=[1.0, 1.0])
        pz, pu, phi, psi3 = random_ext_witness(rng, src, 2, 2)
        with pytest.raises(InvalidInstanceError, match="out of range"):
            ext_expected_distortion_k(src, ext, joint_from(pz, pu), phi, psi3, k)

    def test_mismatched_shapes_rejected(self, rng):
        src = bsc_pair(0.2)
        ext = ExtendedInstance(2, 2, 2, rng.random((2, 2, 2, 2)), targets=[1.0, 1.0])
        pz, pu, phi, psi3 = random_ext_witness(rng, src, 2, 2)
        p = joint_from(pz, pu)
        with pytest.raises(InvalidInstanceError, match="shapes"):
            ext_expected_distortion_k(src, ext, p, phi[:, :1], psi3, 0)
        with pytest.raises(InvalidInstanceError, match="shapes"):
            ext_expected_distortion_k(src, ext, p, phi, psi3[:, :, :1], 0)

    def test_matches_direct_atom_sum(self, rng):
        src, _ = random_binary_instance(rng)
        dk = rng.random((2, 2, 2, 2))
        ext = ExtendedInstance(2, 2, 2, dk, targets=[1.0, 1.0])
        pz, pu, phi, psi3 = random_ext_witness(rng, src, 2, 2)
        pagg = joint_from(pz, pu)
        for k in range(2):
            direct = 0.0
            for x in range(2):
                for y in range(2):
                    for z in range(2):
                        for u in range(2):
                            direct += (
                                src.pxy[x, y]
                                * pz[x, z]
                                * pu[x, z, u]
                                * dk[k, x, phi[y, z], psi3[x, z, u]]
                            )
            assert ext_expected_distortion_k(
                src, ext, pagg, phi, psi3, k
            ) == pytest.approx(direct, abs=1e-12)


class TestSolveRateExt:
    def test_loose_targets_are_free(self, rng):
        src, _ = random_binary_instance(rng)
        dk = rng.random((2, 2, 2, 2))
        dk[:, :, 0, 0] = 0.0  # zero-distortion witness
        ext = ExtendedInstance(2, 2, 2, dk, targets=[dk[0].max() + 1, dk[1].max() + 1])
        point = solve_rate_ext(src, ext)
        assert point.rate == 0.0
        assert np.all(point.achieved <= ext.targets + 1e-12)

    def test_k1_decoder_only_matches_wyner_ziv(self):
        src = bsc_pair(0.25)
        dd = hamming(2)
        dk = np.repeat(dd[np.newaxis, :, :, np.newaxis], 2, axis=3)
        ext = ExtendedInstance(2, 2, 1, dk, targets=[0.1])
        point = solve_rate_ext(src, ext, SolveConfig(z_size=3))
        assert point.rate == pytest.approx(r_wz(src, dd, 0.1), abs=5e-3)

    def test_k2_embedding_matches_base_solver(self):
        src = bsc_pair(0.25)
        spec = hamming_spec()
        ext = embed_base_instance(spec.dd, spec.de, [0.1, 0.02])
        point = solve_rate_ext(src, ext, SolveConfig(z_size=5))
        base = solve_rate(src, spec, 0.1, 0.02, SolveConfig(z_size=5))
        assert point.rate == pytest.approx(base.rate, abs=1e-9)

    def test_automatic_u_reduction(self):
        src = bsc_pair(0.25)
        spec = hamming_spec()
        ext = embed_base_instance(spec.dd, spec.de, [0.1, 0.02])
        assert constraints_depending_on_xhat_e(ext) == 1
        point = solve_rate_ext(src, ext, SolveConfig(z_size=3))
        assert point.p_uz_given_x.shape[1] == 1  # |U| reduced to 1

    def test_assumption_violated(self):
        src = bsc_pair(0.25)
        dk = np.ones((1, 2, 2, 2))
        ext = ExtendedInstance(2, 2, 1, dk, targets=[0.5])
        assert not check_zero_distortion_assumption_ext(ext)
        with pytest.raises(AssumptionError):
            solve_rate_ext(src, ext)

    def test_bounded_by_conditional_entropy(self, rng):
        for _ in range(3):
            src, spec = random_binary_instance(rng)
            ext = embed_base_instance(
                spec.dd, spec.de, [rng.uniform(0.05, 0.3), rng.uniform(0.02, 0.3)]
            )
            point = solve_rate_ext(src, ext, SolveConfig(z_size=3))
            assert 0.0 <= point.rate <= conditional_entropy_x_given_y(src) + 1e-6

    def test_monotone_in_targets(self):
        src = bsc_pair(0.25)
        spec = hamming_spec()
        cfg = SolveConfig(z_size=3)
        r1 = solve_rate_ext(src, embed_base_instance(spec.dd, spec.de, [0.08, 0.05]), cfg).rate
        r2 = solve_rate_ext(src, embed_base_instance(spec.dd, spec.de, [0.16, 0.05]), cfg).rate
        r3 = solve_rate_ext(src, embed_base_instance(spec.dd, spec.de, [0.08, 0.15]), cfg).rate
        assert r2 <= r1 + 1e-3
        assert r3 <= r1 + 1e-3

    def test_achieved_meet_targets(self, rng):
        src, spec = random_binary_instance(rng)
        ext = embed_base_instance(spec.dd, spec.de, [0.2, 0.2])
        point = solve_rate_ext(src, ext, SolveConfig(z_size=3))
        assert np.all(point.achieved <= np.asarray(ext.targets) + 1e-6)


class TestLibraryPath:
    """At most one table depends on xhat_e: the base problem on the
    decoder-column library with K cost matrices."""

    @pytest.mark.parametrize("shape", [(2, 3, 3), (3, 3, 3), (4, 4, 4)])
    def test_ladder_embeddings_are_exact(self, shape):
        src, spec, dd_t, de_t = ladder_instance(*shape)
        ext = embed_base_instance(spec.dd, spec.de, [dd_t, de_t])
        point = solve_rate_ext(src, ext, SolveConfig(z_size=src.x_size + 3))
        assert point.path == "library"
        assert point.label == "exact"
        assert 0.0 <= point.gap <= 1e-7
        assert point.rate == pytest.approx(solve_rate(src, spec, dd_t, de_t).rate, abs=1e-9)
        assert point.p_uz_given_x.shape[1] == 1
        assert point.p_uz_given_x.shape[2] <= src.x_size + 3
        assert np.all(point.achieved <= ext.targets + 1e-9)
        assert ext_rate_objective(src, point.p_uz_given_x) == pytest.approx(point.rate, abs=1e-12)

    def test_default_z_size_is_the_bound(self):
        src = bsc_pair(0.25)
        spec = hamming_spec()
        ext = embed_base_instance(spec.dd, spec.de, [0.15, 0.1])
        point = solve_rate_ext(src, ext)
        assert (point.path, point.label) == ("library", "exact")
        assert point.rate == pytest.approx(solve_rate(src, spec, 0.15, 0.1).rate, abs=1e-9)

    def test_looser_copy_of_a_table_changes_nothing(self):
        src, spec, dd_t, de_t = ladder_instance(3, 2, 2)
        ext = embed_base_instance(spec.dd, spec.de, [dd_t, de_t])
        dk = np.concatenate([ext.dk, ext.dk[:1]])
        ext3 = ExtendedInstance(2, 2, 3, dk, targets=[dd_t, de_t, 1.5 * dd_t])
        point = solve_rate_ext(src, ext3)
        assert point.label == "exact"
        assert point.rate == pytest.approx(solve_rate_ext(src, ext).rate, abs=1e-9)
        assert len(point.achieved) == 3

    def test_rate_zero_from_two_constant_rules(self):
        # the BSC cell (0.35, 0.2): no single constant rule meets both
        # targets, a mix of two does
        src = bsc_pair(0.25)
        spec = hamming_spec()
        ext = embed_base_instance(spec.dd, spec.de, [0.35, 0.2])
        point = solve_rate_ext(src, ext)
        assert (point.rate, point.path, point.label) == (0.0, "constant", "exact")
        p = point.p_uz_given_x[:, 0, :]
        assert p.shape[1] == 2 and np.array_equal(p[0], p[1])
        assert np.all(point.achieved <= ext.targets + 1e-12)

    def test_below_the_bound_is_an_upper_bound(self):
        src = bsc_pair(0.25)
        spec = hamming_spec()
        ext = embed_base_instance(spec.dd, spec.de, [0.15, 0.1])
        point = solve_rate_ext(src, ext, SolveConfig(z_size=2))
        assert (point.path, point.label) == ("scan", "upper_bound")
        assert point.gap >= 0.0
        assert point.rate >= solve_rate_ext(src, ext).rate - 1e-9

    def test_two_encoder_tables_are_exact(self, rng):
        # a random encoder column per z replaces U: the (f, g) library with
        # both tables' costs holds the optimum, with a |U| = 1 witness
        src = bsc_pair(0.3)
        dk = rng.random((2, 2, 2, 2))
        dk[:, 0, 0, 0] = dk[:, 1, 1, 1] = 0.0
        ext = ExtendedInstance(2, 2, 2, dk, targets=[0.15, 0.15])
        assert constraints_depending_on_xhat_e(ext) == 2
        point = solve_rate_ext(src, ext)
        assert (point.path, point.label) == ("library", "exact")
        assert 0.0 <= point.gap <= 1e-7
        assert point.p_uz_given_x.shape[1] == 1
        # an enumeration of (z, u) rule candidates at |U| = 2, |Z| = 3
        assert point.rate == pytest.approx(0.016832371205534196, abs=1e-9)
        assert ext_rate_objective(src, point.p_uz_given_x) == pytest.approx(point.rate, abs=1e-12)
        assert np.all(point.achieved <= ext.targets + 1e-9)

    def test_three_letter_grouped_point_is_exact(self):
        # an enumeration of (z, u) rule candidates at |U| = 2, |Z| = 3 has
        # 5,616,324 of them here, beyond the default cap
        src, ext = grouped_instance(1, letters=3)
        assert constraints_depending_on_xhat_e(ext) == 2
        point = solve_rate_ext(src, ext)
        assert (point.path, point.label) == ("library", "exact")
        assert 0.0 <= point.gap <= 1e-7
        assert point.rate == pytest.approx(0.4210713997, abs=1e-9)
        assert ext_rate_objective(src, point.p_uz_given_x) == pytest.approx(point.rate, abs=1e-12)
        assert np.all(point.achieved <= ext.targets + 1e-9)

    @pytest.mark.parametrize(
        "seed, rate, letters",
        [
            # a scan of the (f, g) library gives the same rates, after about
            # 4 minutes and 20 s, as upper bounds with gaps 0.067 and 2.6e-3
            (7, 0.2958559010304275, 3),
            (2, 0.2531382907712534, 3),
            # rates certified by a search with a multiplier on each table in
            # turn; the barrier's point stalls just above them, so the
            # hand-off to _settle must reach them: 43 has a zero entry in a
            # support column, and 46 a first target slack by 2.7e-5 that the
            # barrier's point holds
            (9, 0.2852593865636405, 2),
            (16, 0.301593864089264, 2),
            (43, 0.17685092316776876, 2),
            (44, 0.2997630716399393, 2),
            (46, 0.24890563400057067, 2),
        ],
    )
    def test_uncertified_search_settles_on_the_barrier_point(
        self, monkeypatch, seed, rate, letters
    ):
        # the search leaves these uncertified; the barrier solve on the
        # whole library finds the support that _settle certifies
        src, ext = grouped_instance(seed, letters)
        monkeypatch.setattr(solver_module, "scan_candidates", None)
        point = solve_rate_ext(src, ext)
        assert (point.path, point.label) == ("library", "exact")
        assert 0.0 <= point.gap <= 1e-7
        assert point.rate == pytest.approx(rate, abs=1e-9)
        assert ext_rate_objective(src, point.p_uz_given_x) == pytest.approx(point.rate, abs=1e-12)
        assert np.all(point.achieved <= ext.targets + 1e-9)

    def test_k3_point_settles_on_the_barrier_point(self, monkeypatch):
        # a rate certified by a search with a multiplier on each table in
        # turn, which the barrier solve's hand-off to _settle must reach
        src, ext = k3_instance(29)
        monkeypatch.setattr(solver_module, "scan_candidates", None)
        point = solve_rate_ext(src, ext)
        assert (point.path, point.label) == ("library", "exact")
        assert 0.0 <= point.gap <= 1e-7
        assert point.rate == pytest.approx(0.47849541758100117, abs=1e-9)
        assert np.all(point.achieved <= ext.targets + 1e-9)

    def test_every_k3_point_settles(self, monkeypatch):
        # the whole K = 3 corpus: the support solve after the search holds
        # the first table and every table the search's primal misses, and
        # the barrier solve takes the points it leaves uncertified
        monkeypatch.setattr(solver_module, "scan_candidates", None)
        for seed in range(40):
            src, ext = k3_instance(seed)
            point = solve_rate_ext(src, ext)
            assert point.label == "exact", seed
            assert 0.0 <= point.gap <= 1e-7
            assert np.all(point.achieved <= ext.targets + 1e-9)

    def test_slack_first_table_settles(self, monkeypatch):
        # d_1 is slack at the optimum, so the search with the multiplier on
        # it alone leaves the point uncertified (gap 0.31 after a scan); the
        # support solves after it certify the point
        src, ext = k3_instance(4)
        monkeypatch.setattr(solver_module, "scan_candidates", None)
        point = solve_rate_ext(src, ext)
        assert (point.path, point.label) == ("library", "exact")
        assert 0.0 <= point.gap <= 1e-7
        # a candidate scan of the same library
        assert point.rate == pytest.approx(0.3429702955539016, abs=1e-9)
        assert point.achieved[0] < ext.targets[0] - 1e-3
        assert np.all(point.achieved <= ext.targets + 1e-9)


class TestVerifyUReduction:
    def test_degenerate_u_trivially_true(self, rng):
        src = bsc_pair(0.2)
        dk = rng.random((2, 2, 2, 2))
        ext = ExtendedInstance(2, 2, 2, dk, targets=[dk[0].max(), dk[1].max()])
        pz, pu, phi, psi3 = random_ext_witness(rng, src, 2, 1)
        assert verify_u_reduction(src, ext, pz, pu, phi, psi3) is True

    def test_random_feasible_witness(self, rng):
        src = bsc_pair(0.25)
        for _ in range(5):
            dk = rng.random((2, 2, 2, 2))
            pz, pu, phi, psi3 = random_ext_witness(rng, src, 2, 4)
            # set the targets at the witness's own achieved values: feasible
            joint = joint_from(pz, pu)
            ext_wide = ExtendedInstance(2, 2, 2, dk, targets=[1e3, 1e3])
            achieved = [
                ext_expected_distortion_k(src, ext_wide, joint, phi, psi3, k)
                for k in range(2)
            ]
            ext = ExtendedInstance(2, 2, 2, dk, targets=np.asarray(achieved) + 1e-12)
            assert verify_u_reduction(src, ext, pz, pu, phi, psi3) is True

    def test_structurally_infeasible_witness_stays_false(self, rng):
        src = bsc_pair(0.25)
        dk = rng.random((2, 2, 2, 2)) + 0.5  # strictly positive: floor > 0
        ext = ExtendedInstance(2, 2, 2, dk, targets=[1e-6, 1e-6])
        pz, pu, phi, psi3 = random_ext_witness(rng, src, 2, 4)
        assert verify_u_reduction(src, ext, pz, pu, phi, psi3) is False

    def test_tampered_reduction_fails(self, rng, monkeypatch):
        # a reduction that drops u-mass changes the Z-marginal, hence the rate
        src = bsc_pair(0.25)
        dk = rng.random((2, 2, 2, 2))
        ext = ExtendedInstance(2, 2, 2, dk, targets=[1e3, 1e3])
        pz, pu, phi, psi3 = random_ext_witness(rng, src, 2, 4)
        assert verify_u_reduction(src, ext, pz, pu, phi, psi3) is True
        reduce = extended_module.reduce_aux_u

        def lossy(*args):
            pu_new, psi_new = reduce(*args)
            pu_new = pu_new.copy()
            pu_new[0, 0] *= 0.5
            return pu_new, psi_new

        monkeypatch.setattr(extended_module, "reduce_aux_u", lossy)
        assert verify_u_reduction(src, ext, pz, pu, phi, psi3) is False
