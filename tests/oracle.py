"""Exhaustive simplex-grid oracle for the discrete rate-distortions
function, a reference for the solver on binary-scale instances."""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.special import xlogy

from rdsi.errors import InfeasibleError, ResourceCapError
from rdsi.model import LN2, DistortionSpec, JointSource
from rdsi.solver import _check_instance, _cost_tables


def brute_force_oracle(
    src: JointSource,
    spec: DistortionSpec,
    dd_target: float,
    de_target: float,
    z_size: int,
    grid_resolution: int,
    phi: np.ndarray | None = None,
    psi: np.ndarray | None = None,
) -> float:
    """Exhaustive simplex-grid scan over channels and reconstruction rules.

    Channel rows range over the grid {k / grid_resolution}; the result is
    the minimum objective among grid points meeting both constraints, an
    upper bound on the true rate that tightens as the grid refines.
    Intended for binary-scale instances; pass phi/psi to restrict the scan
    to one rule pair.
    """
    _check_instance(src, spec)
    rows = _simplex_grid(z_size, grid_resolution)
    n_rows = rows.shape[0]
    nx, ny = src.x_size, src.y_size
    n_channels = n_rows**nx
    if phi is None:
        pairs = [
            (np.asarray(f, np.int64).reshape(ny, z_size), np.asarray(g, np.int64).reshape(nx, z_size))
            for f in itertools.product(range(spec.xhat_size), repeat=ny * z_size)
            for g in itertools.product(range(spec.xhat_size), repeat=nx * z_size)
        ]
    else:
        pairs = [(np.asarray(phi, np.int64), np.asarray(psi, np.int64))]
    if n_channels * len(pairs) > 2e8:
        raise ResourceCapError(
            f"{n_channels} grid channels x {len(pairs)} rule pairs is beyond the oracle cap"
        )
    idx = np.indices((n_rows,) * nx).reshape(nx, -1).T  # (n_channels, X)
    channels = rows[idx]  # (n_channels, X, z)
    pxy = src.pxy
    px = src.px
    py = pxy.sum(axis=0)
    hy_const = float(xlogy(py, py).sum())
    m_yz = np.einsum("xy,cxz->cyz", pxy, channels)
    objective = (
        hy_const
        - xlogy(m_yz, m_yz).sum(axis=(1, 2))
        + (px[None, :, None] * xlogy(channels, channels)).sum(axis=(1, 2))
    ) / LN2
    best = math.inf
    for f_tab, g_tab in pairs:
        a_cols, e_cols = _cost_tables(pxy, spec, f_tab, g_tab)
        edd = np.einsum("cxz,xz->c", channels, a_cols)
        ede = np.einsum("cxz,xz->c", channels, e_cols)
        feasible = (edd <= dd_target + 1e-12) & (ede <= de_target + 1e-12)
        if feasible.any():
            best = min(best, float(objective[feasible].min()))
    if best is math.inf:
        raise InfeasibleError("no grid point meets the targets")
    return max(best, 0.0)


def _simplex_grid(z_size: int, resolution: int) -> np.ndarray:
    """All probability rows with entries k / resolution summing to 1."""
    rows = []
    for bars in itertools.combinations(range(resolution + z_size - 1), z_size - 1):
        prev = -1
        counts = []
        for b in bars:
            counts.append(b - prev - 1)
            prev = b
        counts.append(resolution + z_size - 2 - prev)
        rows.append(counts)
    return np.asarray(rows, dtype=float) / resolution
