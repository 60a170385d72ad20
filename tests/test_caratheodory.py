import numpy as np
import pytest
from scipy.spatial import ConvexHull

import rdsi.caratheodory as caratheodory_module
from conftest import bsc_pair
from rdsi.caratheodory import (
    ConvexCombination,
    boundary_reduce,
    caratheodory_reduce,
    reduce_aux_u,
)
from rdsi.errors import InvalidInstanceError, RdsiError
from rdsi.model import ExtendedInstance, JointSource


def random_combination(rng, d, m=None):
    m = m or int(rng.integers(d + 2, 3 * (d + 1)))
    pts = rng.normal(size=(m, d))
    w = rng.random(m)
    return ConvexCombination(pts, w / w.sum())


class TestCaratheodoryReduce:
    def test_single_point_unchanged(self):
        comb = ConvexCombination(np.array([[1.0, 2.0]]), np.array([1.0]))
        out = caratheodory_reduce(comb)
        assert out.support_size == 1
        np.testing.assert_allclose(out.target(), [1.0, 2.0], atol=0)

    def test_square_center(self):
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        comb = ConvexCombination(corners, np.full(4, 0.25))
        out = caratheodory_reduce(comb)
        assert out.support_size <= 3
        np.testing.assert_allclose(out.target(), [0.5, 0.5], atol=1e-12)

    def test_random_r3(self, rng):
        for _ in range(10):
            comb = random_combination(rng, 3, m=10)
            out = caratheodory_reduce(comb)
            assert out.support_size <= 4
            assert np.linalg.norm(out.target() - comb.target()) <= 1e-9

    def test_degenerate_points_reduce_to_affine_span(self, rng):
        # six copies of two distinct points: affine span is 1-dimensional
        base = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        pts = base[np.array([0, 1, 0, 1, 0, 1])]
        w = np.full(6, 1 / 6)
        out = caratheodory_reduce(ConvexCombination(pts, w))
        assert out.support_size <= 2
        np.testing.assert_allclose(out.target(), [0.5, 0.5, 0.5], atol=1e-12)

    def test_invalid_weights_rejected(self):
        with pytest.raises(RdsiError):
            ConvexCombination(np.eye(2), np.array([0.8, 0.1]))
        with pytest.raises(RdsiError):
            ConvexCombination(np.eye(2), np.array([1.2, -0.2]))

    def test_deterministic(self, rng):
        comb = random_combination(rng, 4, m=12)
        out1 = caratheodory_reduce(comb)
        out2 = caratheodory_reduce(comb)
        np.testing.assert_array_equal(out1.points, out2.points)
        np.testing.assert_array_equal(out1.weights, out2.weights)


class TestBoundaryReduce:
    def test_edge_midpoint(self):
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        out = boundary_reduce(corners, np.array([0.5, 1.0]), np.array([0.0, 1.0]))
        assert out.support_size == 2
        np.testing.assert_allclose(sorted(out.weights), [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(out.target(), [0.5, 1.0], atol=1e-12)

    def test_vertex_target(self):
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        out = boundary_reduce(corners, np.array([1.0, 1.0]), np.array([1.0, 1.0]))
        assert out.support_size == 1
        np.testing.assert_allclose(out.target(), [1.0, 1.0], atol=1e-12)

    def test_random_planar_hull(self, rng):
        for _ in range(20):
            pts = rng.normal(size=(12, 2))
            hull = ConvexHull(pts)
            simplex = hull.simplices[int(rng.integers(len(hull.simplices)))]
            lam = rng.random()
            target = lam * pts[simplex[0]] + (1 - lam) * pts[simplex[1]]
            eq = hull.equations[
                np.all(np.sort(hull.simplices, axis=1) == np.sort(simplex), axis=1)
            ][0]
            normal = eq[:2]
            out = boundary_reduce(pts, target, normal)
            assert out.support_size <= 2
            assert np.linalg.norm(out.target() - target) <= 1e-9

    def test_unsupported_target_raises(self):
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(RdsiError):
            boundary_reduce(corners, np.array([0.5, 0.5]), np.array([0.0, 1.0]))


def random_witness(rng, src, nz, nu):
    pz = rng.random((src.x_size, nz)) + 0.05
    pz /= pz.sum(axis=1, keepdims=True)
    pu = rng.random((src.x_size, nz, nu)) + 0.05
    pu /= pu.sum(axis=2, keepdims=True)
    phi = rng.integers(0, 2, size=(src.y_size, nz))
    psi3 = rng.integers(0, 2, size=(src.x_size, nz, nu))
    return pz, pu, phi, psi3


def conditional_distortions(src, ext, pz, pu, phi, psi3):
    """Per-(x, z), per-k conditional distortions of a witness (direct sums)."""
    nx, nz, nu = pu.shape
    out = np.zeros((nx, nz, ext.k))
    for x in range(nx):
        py_x = src.pxy[x] / src.px[x] if src.px[x] > 0 else np.zeros(src.y_size)
        for z in range(nz):
            for k in range(ext.k):
                for u in range(nu):
                    for y in range(src.y_size):
                        out[x, z, k] += (
                            pu[x, z, u]
                            * py_x[y]
                            * ext.dk[k, x, phi[y, z], psi3[x, z, u]]
                        )
    return out


class TestReduceAuxU:
    def test_small_u_returned_unchanged(self, rng):
        src = bsc_pair(0.2)
        ext = ExtendedInstance(2, 2, 3, rng.random((3, 2, 2, 2)), targets=[1, 1, 1])
        pz, pu, phi, psi3 = random_witness(rng, src, nz=2, nu=2)
        pu2, psi2 = reduce_aux_u(src, ext, pz, pu, phi, psi3)
        np.testing.assert_array_equal(pu2, pu)
        np.testing.assert_array_equal(psi2, psi3)

    def test_k1_reduces_to_deterministic_choice(self, rng):
        src = bsc_pair(0.2)
        ext = ExtendedInstance(2, 2, 1, rng.random((1, 2, 2, 2)), targets=[1.0])
        pz, pu, phi, psi3 = random_witness(rng, src, nz=2, nu=5)
        pu2, psi2 = reduce_aux_u(src, ext, pz, pu, phi, psi3)
        assert pu2.shape == (2, 2, 1)
        np.testing.assert_allclose(pu2, 1.0, atol=1e-12)
        before = conditional_distortions(src, ext, pz, pu, phi, psi3)
        after = conditional_distortions(src, ext, pz, pu2, phi, psi2)
        # the chosen letter's distortion cannot exceed the average it replaces
        assert np.all(after <= before + 1e-9)

    def test_k2_property(self, rng):
        src = bsc_pair(0.25)
        for _ in range(10):
            ext = ExtendedInstance(2, 2, 2, rng.random((2, 2, 2, 2)), targets=[1, 1])
            pz, pu, phi, psi3 = random_witness(rng, src, nz=2, nu=5)
            pu2, psi2 = reduce_aux_u(src, ext, pz, pu, phi, psi3)
            assert pu2.shape[2] == 2
            np.testing.assert_allclose(pu2.sum(axis=2), 1.0, atol=1e-10)
            assert pu2.min() >= 0
            before = conditional_distortions(src, ext, pz, pu, phi, psi3)
            after = conditional_distortions(src, ext, pz, pu2, phi, psi2)
            assert np.all(after <= before + 1e-9)

    def test_support_above_k_raises(self, rng, monkeypatch):
        # the walk stops with at most K symbols per (x, z); a walk that left
        # more is reported, not passed on
        src = bsc_pair(0.25)
        ext = ExtendedInstance(2, 2, 2, rng.random((2, 2, 2, 2)), targets=[1, 1])
        pz, pu, phi, psi3 = random_witness(rng, src, nz=2, nu=4)
        monkeypatch.setattr(
            "rdsi.caratheodory._dominating_support",
            lambda h, weights: (np.arange(4), np.full(4, 0.25)),
        )
        with pytest.raises(RdsiError, match=r"\(x=0, z=0\): 4 symbols carry weight"):
            reduce_aux_u(src, ext, pz, pu, phi, psi3)

    @pytest.mark.parametrize("row", [[0, 0, 0, 0], [0.5, 0.5, 0.5, 0.5], [1.1, -0.1, 0, 0]])
    def test_rows_must_be_distributions(self, rng, row):
        src = bsc_pair(0.25)
        ext = ExtendedInstance(2, 2, 2, rng.random((2, 2, 2, 2)), targets=[1, 1])
        pz, pu, phi, psi3 = random_witness(rng, src, nz=2, nu=4)
        pu[1, 0] = row
        with pytest.raises(InvalidInstanceError, match="pu_given_xz rows must be distributions"):
            reduce_aux_u(src, ext, pz, pu, phi, psi3)

    def test_u_law_depends_only_on_x_and_z(self, rng):
        # structural Markov property: the output law is indexed by (x, z) alone
        src = bsc_pair(0.25)
        ext = ExtendedInstance(2, 2, 2, rng.random((2, 2, 2, 2)), targets=[1, 1])
        pz, pu, phi, psi3 = random_witness(rng, src, nz=3, nu=4)
        pu2, psi2 = reduce_aux_u(src, ext, pz, pu, phi, psi3)
        assert pu2.shape == (src.x_size, 3, 2)
        assert psi2.shape == (src.x_size, 3, 2)


def general_witness(rng, k, nu, ne=4, nz=2):
    """A random K-constraint witness on a 2 x 3 source with ne xhat_e letters:
    (src, ext, pz, pu, phi, psi3)."""
    pxy = rng.random((2, 3)) + 0.05
    src = JointSource.from_pxy(pxy / pxy.sum())
    ext = ExtendedInstance(2, ne, k, rng.random((k, 2, 2, ne)), targets=np.ones(k))
    pz = rng.random((2, nz)) + 0.05
    pz /= pz.sum(axis=1, keepdims=True)
    pu = rng.random((2, nz, nu)) + 0.05
    pu /= pu.sum(axis=2, keepdims=True)
    phi = rng.integers(0, 2, size=(3, nz))
    psi3 = rng.integers(0, ne, size=(2, nz, nu))
    return src, ext, pz, pu, phi, psi3


class TestReduceAuxUProperties:
    """The walk's contract on random and degenerate witnesses: at most K
    symbols per (x, z), a conditional law, no conditional distortion raised,
    letters taken from psi3, and the same bytes on a second call."""

    @staticmethod
    def check(src, ext, pz, pu, phi, psi3):
        pu2, psi2 = reduce_aux_u(src, ext, pz, pu, phi, psi3)
        nx, nz, _ = pu.shape
        assert pu2.shape == psi2.shape == (nx, nz, ext.k)
        assert pu2.min() >= 0
        np.testing.assert_allclose(pu2.sum(axis=2), 1.0, rtol=0, atol=1e-10)
        before = conditional_distortions(src, ext, pz, pu, phi, psi3)
        after = conditional_distortions(src, ext, pz, pu2, phi, psi2)
        assert np.all(after <= before + 1e-9)
        for x, z in np.ndindex(nx, nz):
            assert np.isin(psi2[x, z], psi3[x, z]).all()
        pu3, psi3_again = reduce_aux_u(src, ext, pz, pu, phi, psi3)
        assert pu3.tobytes() == pu2.tobytes()
        assert psi3_again.tobytes() == psi2.tobytes()
        return pu2, psi2

    @pytest.mark.parametrize("k", [2, 3])
    def test_random_witnesses(self, rng, k):
        for _ in range(50):
            nu = int(rng.integers(k + 1, 3 * k + 2))
            self.check(*general_witness(rng, k, nu))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_one_symbol_over_k(self, rng, k):
        for _ in range(10):
            self.check(*general_witness(rng, k, k + 1))

    def test_zero_weights(self, rng):
        for _ in range(20):
            src, ext, pz, pu, phi, psi3 = general_witness(rng, 2, 6)
            pu[rng.random(pu.shape) < 0.4] = 0.0
            pu[:, :, 0] += 0.1  # every (x, z) keeps some mass
            pu /= pu.sum(axis=2, keepdims=True)
            self.check(src, ext, pz, pu, phi, psi3)
            # a symbol without weight never gains any
            for x, z in np.ndindex(2, 2):
                h = rng.random((6, 2))
                idx, _ = caratheodory_module._dominating_support(h, pu[x, z])
                assert np.all(pu[x, z, idx] > 0)

    def test_duplicate_u_vectors(self, rng):
        for k in (2, 3):
            for _ in range(20):
                src, ext, pz, pu, phi, psi3 = general_witness(rng, k, 6, ne=2)
                self.check(src, ext, pz, pu, phi, psi3)
        # every u repeats one letter: its vectors coincide, so one symbol is left
        src, ext, pz, pu, phi, psi3 = general_witness(rng, 2, 5)
        pu2, psi2 = self.check(src, ext, pz, pu, phi, np.full_like(psi3, 3))
        np.testing.assert_array_equal(pu2[:, :, 0], 1.0)
        np.testing.assert_array_equal(psi2, 3)

    def test_affinely_dependent_u_vectors(self, rng):
        # d_3 = (d_1 + d_2) / 2 puts every per-u vector, and the walk's
        # direction, in one plane of R^3
        for _ in range(20):
            src, ext, pz, pu, phi, psi3 = general_witness(rng, 3, 5, ne=5)
            dk = np.array(ext.dk)
            dk[2] = 0.5 * (dk[0] + dk[1])
            ext = ExtendedInstance(2, 5, 3, dk, targets=np.ones(3))
            psi3 = np.broadcast_to(rng.permutation(5), psi3.shape).copy()
            self.check(src, ext, pz, pu, phi, psi3)
