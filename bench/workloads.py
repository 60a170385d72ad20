"""Workload inputs and their ops.

An op is one call of ``rdsi.cli.main``.  The discrete instances are fixed
constructions (the ROADMAP ladder, the criterion-3 binary symmetric pair),
so their rates can be pinned to the seed commit's values in
reference.json; seed 0 rebuilds them exactly as ROADMAP item 1 states.
The seed draws the ``reduce-u`` witness and picks the ``sphere-sim`` seed.

Relabelling the letters of X, Y and Xhat would give other inputs with the
same rates, but the seed code's answers and costs depend on the labels: on
the binary symmetric pair, one relabelling moves the sweep cell
(0.05, 0) to 0.562150279 bits, 9.4e-7 below r_wz, and doubles the sweep's
time.  That is a correctness finding for the solver, not a workload.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("ladder", "surface", "sim")
TOY = "toy"  # two cheap ops for selftest.py; not a benchmark workload

# sphere-sim runs with seed % SIM_SEEDS, so that reference.json can hold
# the seed commit's CSV for every simulation seed the benchmark uses
SIM_SEEDS = 16

SWEEP_DD = (0.05, 0.15, 0.25, 0.35)
SWEEP_DE = (0.0, 0.1, 0.2, 0.3)
SWEEP_Z = 5
GAUSS_DD = tuple(f"{k / 20:g}" for k in range(1, 21))
GAUSS_DE = tuple(f"{k / 200:g}" for k in range(20))


@dataclass(frozen=True)
class Discrete:
    """A discrete instance: joint law, distortion tables and targets."""

    pxy: np.ndarray
    dd: np.ndarray
    de: np.ndarray
    dd_target: float
    de_target: float

    def file_payload(self) -> dict:
        nx, ny = self.pxy.shape
        return {
            "x_size": nx, "y_size": ny, "xhat_size": self.dd.shape[1],
            "pxy": self.pxy.ravel().tolist(),
            "dd": self.dd.ravel().tolist(),
            "de": self.de.ravel().tolist(),
        }

    def embed_k2(self) -> dict:
        """The K = 2 extended instance d_1 = d_d(x, xhat_d), d_2 = d_e(xhat_d, xhat_e)."""
        nx, nhat = self.dd.shape
        dk = np.zeros((2, nx, nhat, nhat))
        dk[0] = self.dd[:, :, None]
        dk[1] = self.de[None, :, :]
        payload = self.file_payload()
        del payload["xhat_size"], payload["dd"], payload["de"]
        payload.update(
            xhat_d_size=nhat, xhat_e_size=nhat, k=2, dk=dk.ravel().tolist(),
            targets=[self.dd_target, self.de_target],
        )
        return payload


def ternary_instance() -> Discrete:
    """The 2x2x3 instance of test_ternary_reconstruction_alphabet."""
    rng = np.random.default_rng(20240817)
    pxy = rng.random((2, 2)) + 0.1
    pxy /= pxy.sum()
    dd = rng.random((2, 3))
    dd[0, 0] = dd[1, 1] = 0.0
    de = rng.random((3, 3))
    np.fill_diagonal(de, 0.0)
    return Discrete(pxy, dd, de, 0.15, 0.1)


def ladder_instance(nx: int, ny: int, nhat: int) -> Discrete:
    """ROADMAP item 1: default_rng(1), pxy uniform + 0.1, dd[x, x % n] = 0,
    targets 0.5 x the cheapest constant E d_d and 0.3 x the mean d_e."""
    rng = np.random.default_rng(1)
    pxy = rng.random((nx, ny)) + 0.1
    pxy /= pxy.sum()
    dd = rng.random((nx, nhat))
    dd[np.arange(nx), np.arange(nx) % nhat] = 0.0
    de = rng.random((nhat, nhat))
    np.fill_diagonal(de, 0.0)
    const_dd = (pxy.sum(axis=1)[:, None] * dd).sum(axis=0).min()
    return Discrete(pxy, dd, de, 0.5 * float(const_dd), 0.3 * float(de.mean()))


def bsc_hamming(crossover: float = 0.25) -> Discrete:
    p = crossover
    pxy = np.array([[0.5 * (1 - p), 0.5 * p], [0.5 * p, 0.5 * (1 - p)]])
    ham = 1.0 - np.eye(2)
    return Discrete(pxy, ham, ham.copy(), 0.15, 0.1)


def reduce_u_witness(rng: np.random.Generator, src: Discrete) -> dict:
    """A random K = 2, |Z| = 2, |U| = 5 extended witness on a binary source."""
    nx, ny = src.pxy.shape
    nz, nu = 2, 5
    pz = rng.random((nx, nz)) + 0.05
    pz /= pz.sum(axis=1, keepdims=True)
    pu = rng.random((nx, nz, nu)) + 0.05
    pu /= pu.sum(axis=2, keepdims=True)
    return {
        "x_size": nx, "y_size": ny, "xhat_d_size": 2, "xhat_e_size": 2, "k": 2,
        "pxy": src.pxy.ravel().tolist(),
        "dk": rng.random((2, nx, 2, 2)).ravel().tolist(),
        "targets": [1.0, 1.0],
        "z_size": nz, "u_size": nu,
        "pz_given_x": pz.ravel().tolist(),
        "pu_given_xz": pu.ravel().tolist(),
        "phi": rng.integers(0, 2, (ny, nz)).ravel().tolist(),
        "psi3": rng.integers(0, 2, (nx, nz, nu)).ravel().tolist(),
    }


@dataclass
class Op:
    """One CLI call with what its output is checked against.

    ``kind`` selects the check in checks.py; ``accept`` lists the exit
    statuses that are answers (5 is the resource cap, accepted only on the
    ladder's reach points); ``data`` holds what the check needs.
    """

    name: str
    argv: list
    kind: str
    accept: tuple = (0,)
    data: dict = field(default_factory=dict)


def _cfg(**values) -> list:
    out = []
    for key, value in values.items():
        text = ",".join(map(str, value)) if isinstance(value, (tuple, list)) else repr(value)
        out += ["--config", f"{key}={text}"]
    return out


def _write(path: str, payload: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


def build_ops(workload: str, seed: int, input_dir: str) -> list:
    """Generate the inputs of one workload into input_dir and list its ops."""
    if workload not in WORKLOADS + (TOY,):
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(input_dir, exist_ok=True)
    ops = []

    def solve_op(name, inst, accept=(0,), **cfg):
        path = _write(os.path.join(input_dir, f"{name}.json"), inst.file_payload())
        argv = ["discrete-solve", "--input", path] + _cfg(
            dd_target=inst.dd_target, de_target=inst.de_target, **cfg
        )
        ops.append(Op(f"{workload}.{name}", argv, "solve", accept, {"inst": inst, "ref": name}))

    def reduce_u_op():
        witness = reduce_u_witness(np.random.default_rng(seed), bsc_hamming())
        path = _write(os.path.join(input_dir, "witness.json"), witness)
        ops.append(Op(f"{workload}.reduce-u", ["reduce-u", "--input", path], "reduce_u",
                      data={"witness": witness}))

    if workload == "ladder":
        solve_op("2x2x3", ternary_instance(), z_size=2)
        solve_op("3x2x2", ladder_instance(3, 2, 2))
        for shape in ((2, 3, 3), (3, 3, 3), (4, 4, 4)):
            solve_op("x".join(map(str, shape)), ladder_instance(*shape), accept=(0, 5))
        inst = bsc_hamming()
        path = _write(os.path.join(input_dir, "ext.json"), inst.embed_k2())
        ops.append(
            Op("ladder.ext", ["ext-solve", "--input", path] + _cfg(z_size=SWEEP_Z),
               "ext", data={"inst": inst, "ref": "ext"})
        )
    elif workload == "surface":
        inst = bsc_hamming()
        path = _write(os.path.join(input_dir, "bsc.json"), inst.file_payload())
        ops.append(
            Op("surface.sweep",
               ["discrete-sweep", "--input", path]
               + _cfg(dd_grid=SWEEP_DD, de_grid=SWEEP_DE, z_size=SWEEP_Z),
               "sweep", data={"inst": inst})
        )
        for base in ("wz", "cr"):
            for dd in SWEEP_DD:
                ops.append(
                    Op(f"surface.{base}.{dd:g}",
                       [base, "--input", path] + _cfg(dd_target=dd, z_size=SWEEP_Z),
                       "baseline", data={"inst": inst, "ref": f"{base}.{dd:g}"})
                )
        ops.append(
            Op("surface.gaussian-curve",
               ["gaussian-curve"] + _cfg(var_x=1, var_u=1, dd=GAUSS_DD, de=GAUSS_DE),
               "bytes", data={"ref": "gaussian-curve"})
        )
        reduce_u_op()
    elif workload == TOY:
        solve_op("bsc", bsc_hamming(), z_size=2)
        reduce_u_op()
    else:
        sim_seed = seed % SIM_SEEDS
        ops.append(
            Op("sim.sphere-sim",
               ["sphere-sim", "--seed", str(sim_seed)]
               + _cfg(var_x=1, var_u=1, dd=0.25, de=0.0625, delta=0.1, n=(12, 25), trials=200),
               "bytes", data={"ref": f"sphere-sim.{sim_seed}", "trials": 2 * 200})
        )
    return ops


def warmup_ops(input_dir: str) -> list:
    """Tiny calls through the same code paths, so that lazy imports and
    first-call set-up are paid before anything is timed."""
    os.makedirs(input_dir, exist_ok=True)
    path = _write(os.path.join(input_dir, "warmup.json"), bsc_hamming().file_payload())
    return [
        ["discrete-solve", "--input", path] + _cfg(dd_target=0.15, de_target=0.1, z_size=2),
        ["sphere-sim", "--seed", "0"]
        + _cfg(var_x=1, var_u=1, dd=0.25, de=0.0625, delta=0.1, n=4, trials=2),
    ]
