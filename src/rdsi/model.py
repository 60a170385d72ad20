"""Finite-alphabet data model: joint sources, distortion tables, test channels.

Conventions used throughout the package:

* probabilities are 64-bit floats; a freshly constructed law must sum to 1
  within ``MASS_TOL`` (1e-12), laws produced by arithmetic are accepted up
  to ``DERIVED_MASS_TOL`` (1e-10);
* all logarithms are base 2, entropy terms with zero probability contribute
  exactly 0;
* every value object is immutable after construction (arrays are marked
  read-only), so instances can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._scipy import xlogy
from .errors import InvalidInstanceError

MASS_TOL = 1e-12
DERIVED_MASS_TOL = 1e-10
LN2 = float(np.log(2.0))


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.flags.writeable = False
    return out


def _freeze_int(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.int64, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class JointSource:
    """Joint law of a source symbol X (rows) and side information Y (columns).

    Construction only enforces shape consistency and finiteness; value-level
    problems (negative mass, sum != 1, dead rows) are surfaced by
    ``validate_source`` so that user-supplied instances can be reported on
    rather than rejected blindly.
    """

    x_size: int
    y_size: int
    pxy: np.ndarray

    def __post_init__(self):
        if self.x_size < 1 or self.y_size < 1:
            raise InvalidInstanceError("alphabet sizes must be positive")
        pxy = np.asarray(self.pxy, dtype=float)
        if pxy.shape != (self.x_size, self.y_size):
            raise InvalidInstanceError(
                f"pxy shape {pxy.shape} does not match ({self.x_size}, {self.y_size})"
            )
        if not np.all(np.isfinite(pxy)):
            raise InvalidInstanceError("pxy entries must be finite")
        object.__setattr__(self, "pxy", _freeze(pxy))

    @classmethod
    def from_pxy(cls, pxy) -> "JointSource":
        pxy = np.asarray(pxy, dtype=float)
        if pxy.ndim != 2:
            raise InvalidInstanceError("pxy must be a matrix")
        return cls(pxy.shape[0], pxy.shape[1], pxy)

    @property
    def px(self) -> np.ndarray:
        return self.pxy.sum(axis=1)

    @property
    def py(self) -> np.ndarray:
        return self.pxy.sum(axis=0)


@dataclass(frozen=True)
class DistortionSpec:
    """Decoder distortion table d_d (X x Xhat) and encoder table d_e (Xhat x Xhat)."""

    xhat_size: int
    dd: np.ndarray
    de: np.ndarray

    def __post_init__(self):
        if self.xhat_size < 1:
            raise InvalidInstanceError("xhat_size must be positive")
        dd = np.asarray(self.dd, dtype=float)
        de = np.asarray(self.de, dtype=float)
        if dd.ndim != 2 or dd.shape[1] != self.xhat_size:
            raise InvalidInstanceError("dd must have xhat_size columns")
        if de.shape != (self.xhat_size, self.xhat_size):
            raise InvalidInstanceError("de must be xhat_size x xhat_size")
        # Bounded tables only: +inf is rejected rather than interpreted.
        if not (np.all(np.isfinite(dd)) and np.all(np.isfinite(de))):
            raise InvalidInstanceError("distortion entries must be finite")
        if dd.min() < 0 or de.min() < 0:
            raise InvalidInstanceError("distortion entries must be nonnegative")
        object.__setattr__(self, "dd", _freeze(dd))
        object.__setattr__(self, "de", _freeze(de))

    @property
    def x_size(self) -> int:
        return self.dd.shape[0]


@dataclass(frozen=True)
class TestChannel:
    """A candidate solution witness: P_{Z|X} plus reconstruction rules.

    ``phi[y, z]`` is the decoder's reconstruction index, ``psi[x, z]`` the
    encoder's.  Z depends on X only, so the Markov chain Z - X - Y holds
    structurally.
    """

    z_size: int
    pz_given_x: np.ndarray
    phi: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        if self.z_size < 1:
            raise InvalidInstanceError("z_size must be positive")
        p = np.asarray(self.pz_given_x, dtype=float)
        if p.ndim != 2 or p.shape[1] != self.z_size:
            raise InvalidInstanceError("pz_given_x must have z_size columns")
        if p.min() < 0 or not np.all(np.isfinite(p)):
            raise InvalidInstanceError("pz_given_x entries must be finite and >= 0")
        if np.max(np.abs(p.sum(axis=1) - 1.0)) > MASS_TOL:
            raise InvalidInstanceError("pz_given_x rows must sum to 1 within 1e-12")
        phi = np.asarray(self.phi, dtype=np.int64)
        psi = np.asarray(self.psi, dtype=np.int64)
        if phi.ndim != 2 or phi.shape[1] != self.z_size:
            raise InvalidInstanceError("phi must be y_size x z_size")
        if psi.shape != (p.shape[0], self.z_size):
            raise InvalidInstanceError("psi must be x_size x z_size")
        if phi.min() < 0 or psi.min() < 0:
            raise InvalidInstanceError("reconstruction indices must be >= 0")
        object.__setattr__(self, "pz_given_x", _freeze(p))
        object.__setattr__(self, "phi", _freeze_int(phi))
        object.__setattr__(self, "psi", _freeze_int(psi))

    @property
    def x_size(self) -> int:
        return self.pz_given_x.shape[0]

    @property
    def y_size(self) -> int:
        return self.phi.shape[0]


@dataclass(frozen=True)
class ExtendedInstance:
    """K three-argument distortion tables d_k(x, xhat_d, xhat_e) with targets."""

    xhat_d_size: int
    xhat_e_size: int
    k: int
    dk: np.ndarray
    targets: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.k < 1:
            raise InvalidInstanceError("need at least one distortion constraint")
        if self.xhat_d_size < 1 or self.xhat_e_size < 1:
            raise InvalidInstanceError("reconstruction alphabets must be nonempty")
        dk = np.asarray(self.dk, dtype=float)
        if dk.ndim != 4 or dk.shape[0] != self.k or dk.shape[2:] != (
            self.xhat_d_size,
            self.xhat_e_size,
        ):
            raise InvalidInstanceError(
                "dk must have shape (k, x_size, xhat_d_size, xhat_e_size)"
            )
        if not np.all(np.isfinite(dk)) or dk.min() < 0:
            raise InvalidInstanceError("dk entries must be finite and nonnegative")
        targets = np.asarray(self.targets, dtype=float)
        if targets.shape != (self.k,):
            raise InvalidInstanceError("targets must have one entry per constraint")
        if not np.all(np.isfinite(targets)) or targets.min() < 0:
            raise InvalidInstanceError("targets must be finite and nonnegative")
        object.__setattr__(self, "dk", _freeze(dk))
        object.__setattr__(self, "targets", _freeze(targets))

    @property
    def x_size(self) -> int:
        return self.dk.shape[1]


def validate_source(src: JointSource) -> list[str]:
    """Report-style validation: a list of human-readable violations.

    Zero-mass source symbols are flagged (their distortion constraints are
    vacuous) but do not make the source unusable.
    """
    violations = []
    pxy = src.pxy
    if pxy.min() < 0:
        bad = np.argwhere(pxy < 0)[0]
        violations.append(f"negative entry at ({bad[0]}, {bad[1]})")
    total = pxy.sum()
    if abs(total - 1.0) > MASS_TOL:
        violations.append(f"mass {total:.12g} != 1")
    dead = np.nonzero(src.px == 0.0)[0]
    for x in dead:
        violations.append(f"zero-mass source symbol {x}")
    return violations


def require_valid_source(src: JointSource) -> None:
    """Raise unless the source is a bona fide joint law (dead rows allowed)."""
    hard = [v for v in validate_source(src) if not v.startswith("zero-mass")]
    if hard:
        raise InvalidInstanceError("; ".join(hard))


def conditional_entropy_x_given_y(src: JointSource) -> float:
    """H(X|Y) in bits."""
    require_valid_source(src)
    pxy = src.pxy
    py = src.py
    # sum p(x,y) log2(p(y)/p(x,y)) with 0 log 0 = 0
    h = xlogy(pxy, py[np.newaxis, :]).sum() - xlogy(pxy, pxy).sum()
    return float(max(h / LN2, 0.0))


def check_zero_distortion_assumption(spec: DistortionSpec) -> bool:
    """True iff every x admits xhat_d, xhat_e with d_d(x, xhat_d) = 0 and
    d_e(xhat_d, xhat_e) = 0."""
    xhat_d_ok = (spec.de == 0.0).any(axis=1)  # per xhat_d: a zero-cost xhat_e exists
    return bool(np.all(((spec.dd == 0.0) & xhat_d_ok[np.newaxis, :]).any(axis=1)))


def absorb_encoder_observation(pxwy: np.ndarray, dd: np.ndarray):
    """Fold an encoder-side observation W into the source alphabet.

    Given a joint law over (X, W, Y) and a decoder table d_d on X x Xhat,
    returns the equivalent instance over the product source Xtilde = X x W:
    the new joint law is the (X, W) vs Y arrangement of the same mass, and
    the new decoder table ignores the W component.  Row order is row-major:
    (x, w) -> x * |W| + w.
    """
    pxwy = np.asarray(pxwy, dtype=float)
    if pxwy.ndim != 3:
        raise InvalidInstanceError("pxwy must be a three-way array (X, W, Y)")
    if not np.all(np.isfinite(pxwy)) or pxwy.min() < 0:
        raise InvalidInstanceError("pxwy entries must be finite and >= 0")
    if abs(pxwy.sum() - 1.0) > MASS_TOL:
        raise InvalidInstanceError(f"pxwy mass {pxwy.sum():.12g} != 1")
    dd = np.asarray(dd, dtype=float)
    nx, nw, ny = pxwy.shape
    if dd.shape[0] != nx:
        raise InvalidInstanceError("dd must have one row per x symbol")
    new_pxy = pxwy.reshape(nx * nw, ny)
    new_dd = np.repeat(dd, nw, axis=0)
    return JointSource(nx * nw, ny, new_pxy), new_dd


def induced_distribution(src: JointSource, ch: TestChannel) -> np.ndarray:
    """Joint law over (X, Y, Z, Xhat_d, Xhat_e) induced by a test channel.

    p(x, y, z) = pxy(x, y) * pz_given_x(x, z); the reconstructions are the
    deterministic images under phi and psi.  Returned as a 5-axis array
    indexed (x, y, z, xhat_d, xhat_e).
    """
    if ch.x_size != src.x_size:
        raise InvalidInstanceError("channel rows do not match source alphabet")
    if ch.y_size != src.y_size:
        raise InvalidInstanceError("phi rows do not match side-information alphabet")
    nx, ny, nz = src.x_size, src.y_size, ch.z_size
    nhat = int(max(ch.phi.max(), ch.psi.max())) + 1
    joint = np.zeros((nx, ny, nz, nhat, nhat))
    pxyz = src.pxy[:, :, np.newaxis] * ch.pz_given_x[:, np.newaxis, :]
    xs, ys, zs = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij")
    joint[xs, ys, zs, ch.phi[ys, zs], ch.psi[xs, zs]] = pxyz
    return joint
