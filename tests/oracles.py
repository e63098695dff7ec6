"""Slow, independent reference implementations used to pin expected values.

Everything here is deliberately written as direct summation or dense linear
algebra so it shares no code path with the fast implementations under test.
"""

from __future__ import annotations

import numpy as np

from cheblat.dct import BoundaryType, nodes_1d


def dct_oracle(values: np.ndarray, boundary: BoundaryType) -> np.ndarray:
    """O(n^2) analysis transform by explicit weighted sums.

    c_k = a_k * sum_i w_i f(x_i) cos(k theta_i), with w_i = 1/2 at
    theta in {0, pi} and the a_k fixed by requiring cos(k theta) -> e_k.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    grid = nodes_1d(n, boundary)
    w = np.ones(n)
    for i, t in enumerate(grid.thetas):
        if abs(t) < 1e-15 or abs(t - np.pi) < 1e-15:
            w[i] = 0.5
    coeffs = np.empty(n)
    for k in range(n):
        basis = np.cos(k * grid.thetas)
        raw = np.sum(w * values * basis)
        norm = np.sum(w * basis * basis)
        coeffs[k] = raw / norm
    return coeffs


def synthesis_oracle(coeffs: np.ndarray, boundary: BoundaryType) -> np.ndarray:
    """Evaluate sum_k c_k cos(k theta_i) at the grid nodes directly."""
    coeffs = np.asarray(coeffs, dtype=float)
    n = coeffs.size
    grid = nodes_1d(n, boundary)
    out = np.zeros(n)
    for k in range(n):
        out += coeffs[k] * np.cos(k * grid.thetas)
    return out


def dct_nd_oracle(values: np.ndarray, boundaries) -> np.ndarray:
    """Axis-by-axis application of `dct_oracle`."""
    out = np.asarray(values, dtype=float)
    for ax, boundary in enumerate(boundaries):
        out = np.apply_along_axis(dct_oracle, ax, out, boundary)
    return out


def synthesis_nd_oracle(coeffs: np.ndarray, boundaries) -> np.ndarray:
    """Axis-by-axis application of `synthesis_oracle`."""
    out = np.asarray(coeffs, dtype=float)
    for ax, boundary in enumerate(boundaries):
        out = np.apply_along_axis(synthesis_oracle, ax, out, boundary)
    return out


def vandermonde(lattice) -> np.ndarray:
    """Dense collocation matrix V[i, j] = basis_j(point_i) by direct cosines."""
    thetas = np.arccos(np.clip(lattice.points, -1.0, 1.0))
    cols = []
    for entry in lattice.basis:
        col = np.zeros(len(lattice.points))
        for member in entry.members:
            col += np.prod(np.cos(thetas * np.asarray(member)), axis=1)
        cols.append(col)
    return np.column_stack(cols)


def alias_search(Q: np.ndarray, k, radius: float) -> list[tuple[int, ...]]:
    """All folded images of index k under the reciprocal lattice and sign flips.

    Exhaustive enumeration of reciprocal elements ``l = Q^T z`` within a
    bounding box, combined with every sign pattern; returns the distinct
    non-negative representatives with Euclidean norm <= radius.
    """
    Q = np.asarray(Q, dtype=np.int64)
    d = Q.shape[0]
    k = np.asarray(k, dtype=np.int64)
    # bound |z| so that |Q^T z| covers the ball of interest
    zmax = int(np.ceil((radius + np.linalg.norm(k) + 1) * np.linalg.norm(np.linalg.inv(Q.T), ord=2))) + 1
    found = set()
    grids = np.meshgrid(*([np.arange(-zmax, zmax + 1)] * d), indexing="ij")
    zs = np.stack([g.ravel() for g in grids], axis=1)
    ells = zs @ Q
    for sign in np.ndindex(*([2] * d)):
        sigma = 1 - 2 * np.asarray(sign)
        images = np.abs(sigma * k + ells)
        norms = np.sqrt((images.astype(float) ** 2).sum(axis=1))
        for img in images[norms <= radius + 1e-9]:
            found.add(tuple(int(v) for v in img))
    return sorted(found, key=lambda t: (sum(v * v for v in t), t))
