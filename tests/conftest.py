import numpy as np
import pytest

from rdsi.model import DistortionSpec, ExtendedInstance, JointSource


def binary_entropy(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return float(-p * np.log2(p) - (1 - p) * np.log2(1 - p))


def bsc_pair(crossover: float) -> JointSource:
    """Uniform binary X, Y through a binary symmetric channel."""
    p = crossover
    return JointSource.from_pxy([[0.5 * (1 - p), 0.5 * p], [0.5 * p, 0.5 * (1 - p)]])


def hamming(n: int) -> np.ndarray:
    return 1.0 - np.eye(n)


def hamming_spec(n: int = 2) -> DistortionSpec:
    return DistortionSpec(xhat_size=n, dd=hamming(n), de=hamming(n))


def random_binary_instance(rng: np.random.Generator):
    """Random valid binary instance satisfying the zero-distortion assumption."""
    pxy = rng.random((2, 2)) + 0.05
    pxy /= pxy.sum()
    dd = rng.random((2, 2))
    de = rng.random((2, 2))
    np.fill_diagonal(dd, 0.0)
    np.fill_diagonal(de, 0.0)
    return JointSource.from_pxy(pxy), DistortionSpec(xhat_size=2, dd=dd, de=de)


def ladder_instance(nx: int, ny: int, nhat: int):
    """Seeded instance of the benchmark ladder: (src, spec, dd_target, de_target).

    pxy uniform + 0.1, dd[x, x % nhat] = 0, de with a zero diagonal; targets
    0.5 x the cheapest constant E d_d and 0.3 x the mean d_e.
    """
    rng = np.random.default_rng(1)
    pxy = rng.random((nx, ny)) + 0.1
    pxy /= pxy.sum()
    dd = rng.random((nx, nhat))
    dd[np.arange(nx), np.arange(nx) % nhat] = 0.0
    de = rng.random((nhat, nhat))
    np.fill_diagonal(de, 0.0)
    const_dd = float((pxy.sum(axis=1)[:, None] * dd).sum(axis=0).min())
    spec = DistortionSpec(xhat_size=nhat, dd=dd, de=de)
    return JointSource.from_pxy(pxy), spec, 0.5 * const_dd, 0.3 * float(de.mean())


def encoder_active_instance(seed: int = 2, y_size: int = 2):
    """A 2 x y_size x 3 instance (3^y_size decoder columns) whose encoder
    constraint binds at D_d = 0.6 x the cheapest constant E d_d and a small
    D_e: (src, spec, dd_target)."""
    rng = np.random.default_rng(seed)
    pxy = rng.random((2, y_size)) + 0.1
    pxy /= pxy.sum()
    dd = hamming(3)[:2] * (0.5 + rng.random((2, 3)))
    de = hamming(3) * (0.5 + rng.random((3, 3)))
    src = JointSource.from_pxy(pxy)
    spec = DistortionSpec(xhat_size=3, dd=dd, de=de)
    return src, spec, 0.6 * float((src.px[:, None] * dd).sum(axis=0).min())


def grouped_instance(seed: int, letters: int = 2):
    """Seeded K = 2 extended instance whose two tables both depend on
    xhat_e: 2 x 2 x letters x letters, dk[:, x, x, x] = 0, and each target
    0.5 x its table's cheapest constant (xhat_d, xhat_e) total.
    (src, ExtendedInstance)."""
    rng = np.random.default_rng(seed)
    pxy = rng.random((2, 2)) + 0.1
    pxy /= pxy.sum()
    dk = rng.random((2, 2, letters, letters))
    dk[:, 0, 0, 0] = dk[:, 1, 1, 1] = 0.0
    src = JointSource.from_pxy(pxy)
    totals = (src.px[None, :, None, None] * dk).sum(axis=1).min(axis=(1, 2))
    return src, ExtendedInstance(letters, letters, 2, dk, targets=0.5 * totals)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
