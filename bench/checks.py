"""Independent checks of CLI outputs, written with the benchmark's own numpy.

Each check takes the op, its exit status and its output text and returns
the number of items the output holds (correct rate points, or simulation
trials for sphere-sim), or raises CheckFailed.
Rates are in bits.  Rates are compared with the seed commit's values in
reference.json; witnesses are re-evaluated from scratch.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json

import numpy as np

from workloads import SWEEP_DD, SWEEP_DE

RATE_TOL = 1e-7       # agreement with the seed commit's rates, in bits
DIST_TOL = 1e-6       # achieved distortion above its target
RECOMPUTE_TOL = 1e-8  # printed value against the benchmark's recomputation
REDUCE_TOL = 1e-9     # reduce-u may not raise a conditional distortion


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def _bits(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def cond_entropy_x_given_y(pxy: np.ndarray) -> float:
    return _bits(pxy.ravel()) - _bits(pxy.sum(axis=0))


def rate_of_channel(pxy: np.ndarray, pz_given_x: np.ndarray) -> float:
    """I(X;Z) - I(Y;Z) = H(Z|Y) - H(Z|X) for the Markov chain Z - X - Y."""
    px = pxy.sum(axis=1)
    pyz = pxy.T @ pz_given_x
    pxz = px[:, None] * pz_given_x
    return (_bits(pyz.ravel()) - _bits(pxy.sum(axis=0))) - (_bits(pxz.ravel()) - _bits(px))


def _channel(table, rows: int) -> np.ndarray:
    p = np.asarray(table, dtype=float)
    require(p.ndim >= 2 and p.shape[0] == rows, f"channel shape {p.shape}")
    require(p.min() >= -1e-12, "negative channel entry")
    sums = p.reshape(rows, -1).sum(axis=1)
    require(np.all(np.abs(sums - 1.0) <= 1e-9), "channel rows do not sum to 1")
    return p


def _json(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from exc


def _check_rate(rate: float, op, ref: dict, recomputed: float):
    inst = op.data["inst"]
    require(abs(rate - recomputed) <= RECOMPUTE_TOL,
            f"printed rate {rate!r} but the witness gives {recomputed!r}")
    require(rate <= cond_entropy_x_given_y(inst.pxy) + RATE_TOL, "rate above H(X|Y)")
    entry = ref["rates"].get(op.data["ref"], {})
    if "r_wz" in entry:
        require(rate >= entry["r_wz"] - RATE_TOL, f"rate {rate!r} below r_wz {entry['r_wz']!r}")
    if "rate" in entry:
        require(abs(rate - entry["rate"]) <= RATE_TOL,
                f"rate {rate!r} differs from the seed's {entry['rate']!r}")


def check_solve(op, status: int, text: str, ref: dict) -> int:
    if status == 5:
        error = _json(text).get("error", {})
        require(error.get("kind") == "cap", f"exit 5 without a cap error: {error}")
        return 0
    inst = op.data["inst"]
    out = _json(text)
    w = out["witness"]
    nx, ny = inst.pxy.shape
    pz = _channel(w["pz_given_x"], nx)
    phi = np.asarray(w["phi"], dtype=np.int64)
    psi = np.asarray(w["psi"], dtype=np.int64)
    nz = pz.shape[1]
    require(phi.shape == (ny, nz) and psi.shape == (nx, nz), "rule table shapes")
    # joint p(x, y, z) and the two expected distortions
    pxyz = inst.pxy[:, :, None] * pz[:, None, :]
    e_dd = float((pxyz * inst.dd[np.arange(nx)[:, None, None], phi[None, :, :]]).sum())
    e_de = float((pxyz * inst.de[phi[None, :, :], psi[:, None, :]]).sum())
    for name, got, target in (("dd", e_dd, inst.dd_target), ("de", e_de, inst.de_target)):
        require(abs(out[f"achieved_{name}"] - got) <= RECOMPUTE_TOL,
                f"printed achieved_{name} {out[f'achieved_{name}']!r}, witness gives {got!r}")
        require(got <= target + DIST_TOL, f"E d_{name[1]} {got!r} above target {target!r}")
    _check_rate(out["rate"], op, ref, rate_of_channel(inst.pxy, pz))
    return 1


def check_ext(op, status: int, text: str, ref: dict) -> int:
    inst = op.data["inst"]
    out = _json(text)
    w = out["witness"]
    nx, ny = inst.pxy.shape
    p_uz = _channel(w["p_uz_given_x"], nx)  # (X, U, Z)
    phi = np.asarray(w["phi"], dtype=np.int64)
    psi3 = np.asarray(w["psi3"], dtype=np.int64)  # (X, Z, U)
    nu, nz = p_uz.shape[1:]
    require(phi.shape == (ny, nz) and psi3.shape == (nx, nz, nu), "rule table shapes")
    # K = 2 embedding: d_1 = d_d(x, xhat_d), d_2 = d_e(xhat_d, xhat_e)
    pxyuz = inst.pxy[:, :, None, None] * p_uz[:, None, :, :]
    xd = phi[None, :, None, :]                         # (1, Y, 1, Z)
    xe = psi3.transpose(0, 2, 1)[:, None, :, :]        # (X, 1, U, Z)
    xs = np.arange(nx)[:, None, None, None]
    achieved = [float((pxyuz * inst.dd[xs, xd]).sum()), float((pxyuz * inst.de[xd, xe]).sum())]
    targets = (inst.dd_target, inst.de_target)
    for k, (got, target) in enumerate(zip(achieved, targets)):
        require(abs(out["achieved"][k] - got) <= RECOMPUTE_TOL,
                f"printed achieved[{k}] {out['achieved'][k]!r}, witness gives {got!r}")
        require(got <= target + DIST_TOL, f"constraint {k} {got!r} above target {target!r}")
    _check_rate(out["rate"], op, ref, rate_of_channel(inst.pxy, p_uz.sum(axis=1)))
    return 1


def check_sweep(op, status: int, text: str, ref: dict) -> int:
    inst = op.data["inst"]
    rows = list(csv.DictReader(io.StringIO(text)))
    require(len(rows) == len(SWEEP_DD) * len(SWEEP_DE), f"{len(rows)} sweep rows")
    rates = np.zeros((len(SWEEP_DD), len(SWEEP_DE)))
    h_xy = cond_entropy_x_given_y(inst.pxy)
    for i, dd in enumerate(SWEEP_DD):
        wz = ref["rates"][f"wz.{dd:g}"]["rate"]
        for j, de in enumerate(SWEEP_DE):
            row = rows[i * len(SWEEP_DE) + j]
            require(row["status"] == "ok", f"cell ({dd}, {de}) status {row['status']}")
            require(float(row["dd"]) == dd and float(row["de"]) == de, "cell order")
            require(float(row["achieved_dd"]) <= dd + DIST_TOL, f"cell ({dd}, {de}) E d_d")
            require(float(row["achieved_de"]) <= de + DIST_TOL, f"cell ({dd}, {de}) E d_e")
            rate = float(row["rate"])
            require(wz - RATE_TOL <= rate <= h_xy + RATE_TOL,
                    f"cell ({dd}, {de}) rate {rate!r} outside [r_wz, H(X|Y)]")
            rates[i, j] = rate
    seed_rates = np.asarray(ref["sweep"])
    require(np.all(np.abs(rates - seed_rates) <= RATE_TOL),
            f"sweep differs from the seed's by {np.abs(rates - seed_rates).max():.3g} bits")
    require(np.all(np.diff(rates, axis=0) <= RATE_TOL) and np.all(np.diff(rates, axis=1) <= RATE_TOL),
            "sweep is not nonincreasing in the targets")
    return rates.size


def check_baseline(op, status: int, text: str, ref: dict) -> int:
    rate = _json(text)["rate"]
    entry = ref["rates"][op.data["ref"]]
    require(abs(rate - entry["rate"]) <= RATE_TOL,
            f"rate {rate!r} differs from the seed's {entry['rate']!r}")
    require(0.0 <= rate <= cond_entropy_x_given_y(op.data["inst"].pxy) + RATE_TOL,
            "baseline outside [0, H(X|Y)]")
    if op.data["ref"].startswith("cr."):
        wz = ref["rates"]["wz." + op.data["ref"][3:]]["rate"]
        require(rate >= wz - RATE_TOL, "r_cr below r_wz")
    return 1


def check_bytes(op, status: int, text: str, ref: dict) -> int:
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    require(digest == ref["sha256"][op.data["ref"]],
            f"{op.data['ref']} output differs from the seed's")
    return op.data.get("trials", 0)


def conditional_distortions(w: dict, pu: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """E[d_k(x, phi(Y, z), psi(x, z, U)) | X = x, Z = z], shape (X, Z, K)."""
    nx, ny, kk = w["x_size"], w["y_size"], w["k"]
    nz = w["z_size"]
    pxy = np.asarray(w["pxy"]).reshape(nx, ny)
    dk = np.asarray(w["dk"]).reshape(kk, nx, w["xhat_d_size"], w["xhat_e_size"])
    phi = np.asarray(w["phi"]).reshape(ny, nz)
    py_x = pxy / pxy.sum(axis=1, keepdims=True)
    out = np.zeros((nx, nz, kk))
    for x in range(nx):
        for z in range(nz):
            per_u = dk[:, x, phi[:, z]][:, :, psi[x, z]]  # (K, Y, U)
            out[x, z] = np.einsum("y,kyu,u->k", py_x[x], per_u, pu[x, z])
    return out


def check_reduce_u(op, status: int, text: str, ref: dict) -> int:
    w = op.data["witness"]
    out = _json(text)
    nx, nz, nu, kk = w["x_size"], w["z_size"], w["u_size"], w["k"]
    pu_new = np.asarray(out["pu_given_xz"], dtype=float)
    psi_new = np.asarray(out["psi_tilde"], dtype=np.int64)
    require(out["u_tilde_size"] <= kk and pu_new.shape == (nx, nz, out["u_tilde_size"]),
            f"reduced alphabet {pu_new.shape} for K = {kk}")
    require(psi_new.shape == pu_new.shape, "psi_tilde shape")
    require(pu_new.min() >= -1e-12 and np.all(np.abs(pu_new.sum(axis=2) - 1) <= 1e-9),
            "reduced law is not a conditional distribution")
    before = conditional_distortions(
        w, np.asarray(w["pu_given_xz"]).reshape(nx, nz, nu),
        np.asarray(w["psi3"]).reshape(nx, nz, nu),
    )
    after = conditional_distortions(w, pu_new, psi_new)
    require(np.all(after <= before + REDUCE_TOL), "reduce-u raised a conditional distortion")
    return 0


CHECKS = {
    "solve": check_solve,
    "ext": check_ext,
    "sweep": check_sweep,
    "baseline": check_baseline,
    "bytes": check_bytes,
    "reduce_u": check_reduce_u,
}


def check(op, status: int, text: str, ref: dict) -> int:
    """Run the op's check; KeyError, ValueError and friends from a malformed
    output count as a failed check too."""
    if status not in op.accept:
        raise CheckFailed(f"exit status {status}")
    check_kind = CHECKS[op.kind]
    try:
        return check_kind(op, status, text, ref)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        raise CheckFailed(f"malformed output: {exc!r}") from exc
