"""Interpolant evaluation, spectral differentiation and quadrature.

Interpolants are coefficient vectors over a lattice's basis.  Evaluation
sums the series by tensor sum factorization over per-axis Chebyshev
tables built with the three-term recurrence, in cache-sized chunks of
points, so its working memory does not grow with the point count;
``ChebyshevLattice.basis_matrix`` stays the dense reference.
Differentiation runs the first-kind coefficient recurrence along
per-axis chains of the (non-rectangular) index set; integration applies
the adjoint transform to the vector of basis integrals, which yields a
stencil that integrates every basis polynomial exactly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .lattice import ChebyshevLattice, _coordinate_strings
# ``make_plan`` stays a module attribute: perfbench/tracer.py wraps calculus.make_plan.
from .transform import (TransformPlan, _check_vector, _records, adjoint, forward,  # noqa: F401
                        plan as make_plan)


class CalculusError(ValueError):
    pass


def _frozen_vector(values, n: int, what: str) -> np.ndarray:
    """A private read-only copy of ``values``, checked by `_check_vector`."""
    values = _check_vector(values, n, what, CalculusError).copy()
    values.flags.writeable = False
    return values


@dataclass(frozen=True, eq=False)
class Interpolant:
    """A polynomial in the lattice basis: ``p = sum_k coeffs_k Phi_k``.

    Immutable: ``coeffs`` is a read-only copy of the given values.
    """

    lattice: ChebyshevLattice
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs",
                           _frozen_vector(self.coeffs, len(self.lattice.basis), "coefficients"))

    def __call__(self, x):
        return evaluate(self, x)


def interpolate(plan: TransformPlan, samples) -> Interpolant:
    """Interpolant through samples at the lattice points."""
    return Interpolant(plan.lattice, forward(plan, samples))


def _chunk_points(nprefix: int, kmax: np.ndarray) -> int:
    """Points per `evaluate` chunk for ``nprefix`` prefixes and per-axis top degrees ``kmax``.

    The (prefix x points) accumulator, a gathered prefix table and the
    stacked Chebyshev tables each hold at most 2^16 floats (512 KB) where a
    floor of 1024 points allows, so the arrays the inner loop streams
    together fit in a 2 MB per-core L2 cache, and the allocator can serve
    them from its heap rather than map and page-fault them afresh on every
    call.  The floor spreads each chunk's fixed cost, one recurrence step
    per degree, on lattices with many prefixes.
    """
    return max(1024, (1 << 16) // max(nprefix, (int(kmax.max()) + 1) * len(kmax)))


def _chebyshev_tables(x: np.ndarray, kmax: int) -> np.ndarray:
    """``T_0, ..., T_kmax`` at each coordinate of the (npts, dim) points ``x``,
    shape (kmax + 1, dim, npts), all axes in one recurrence.

    Built by the three-term recurrence ``T_{k+1} = 2x T_k - T_{k-1}``
    (Clenshaw 1955), which is stable on [-1, 1].
    """
    x = np.ascontiguousarray(x.T)
    table = np.empty((kmax + 1,) + x.shape)
    table[0] = 1.0
    if kmax:
        table[1] = x
    x2 = 2.0 * x
    for k in range(2, kmax + 1):
        np.multiply(x2, table[k - 1], out=table[k])
        table[k] -= table[k - 2]
    return table


def evaluate(interp: Interpolant, x) -> float | np.ndarray:
    """Evaluate at one point or an (npts, dim) array of points in the cube.

    Sum factorization (Orszag 1980): basis members are grouped by their
    first ``dim - 1`` components, the prefix, and their coefficients are
    scattered into a dense (prefix x last-axis degree) matrix.  Per chunk
    of points one matrix product with the last axis's Chebyshev table
    contracts that axis; each prefix row is then scaled by the other
    axes' tables and the rows are summed.  Tie entries contribute every
    member with the entry's coefficient, as in ``basis_matrix``.  The
    chunk size (`_chunk_points`) keeps working memory cache-sized and
    independent of the point count.
    """
    lattice = interp.lattice
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    if pts.ndim != 2 or pts.shape[1] != lattice.dim:
        raise CalculusError(f"points must have dim {lattice.dim}")
    if not np.all(np.isfinite(pts)):
        raise CalculusError("evaluation points must be finite")
    if np.any(np.abs(pts) > 1.0 + 1e-12):
        raise CalculusError("evaluation point outside [-1, 1]^d")
    pts = np.clip(pts, -1.0, 1.0)

    members, owners = lattice.basis_member_matrix()
    kmax = members.max(axis=0)
    key = np.zeros(len(members), dtype=np.int64)
    for axis in range(lattice.dim - 1):
        key = key * (kmax[axis] + 1) + members[:, axis]
    _, first, row = np.unique(key, return_index=True, return_inverse=True)
    prefixes = members[first, :-1]
    width = int(kmax[-1]) + 1
    coeffs = np.bincount(
        row * width + members[:, -1],
        weights=interp.coeffs[owners],
        minlength=len(prefixes) * width,
    ).reshape(len(prefixes), width)

    vals = np.empty(len(pts))
    step = _chunk_points(len(prefixes), kmax)
    for lo in range(0, len(pts), step):
        tables = _chebyshev_tables(pts[lo : lo + step], int(kmax.max()))
        acc = coeffs @ tables[:width, -1]
        for axis in range(lattice.dim - 1):
            acc *= tables[prefixes[:, axis], axis]
        vals[lo : lo + step] = acc.sum(axis=0)
    return float(vals[0]) if single else vals


# ---------------------------------------------------------------- d/dx


def differentiate(interp: Interpolant, axis: int) -> Interpolant:
    """Partial derivative along an axis, expressed in the same basis.

    Tie-combination entries are differentiated member by member; result
    indices landing on a tie entry are projected onto it with weight
    one over the member count (all members of a class agree at the
    lattice points), and indices outside every basis class are dropped.
    """
    lattice = interp.lattice
    if not 0 <= axis < lattice.dim:
        raise CalculusError(f"axis {axis} out of range for dim {lattice.dim}")
    members, owners = lattice.basis_member_matrix()
    # chains: runs of members whose other components agree, by degree along the axis
    rest = [a for a in range(lattice.dim) if a != axis]
    order = np.lexsort([members[:, axis]] + [members[:, a] for a in rest])
    sm = members[order]
    sc = interp.coeffs[owners][order]
    new_chain = np.r_[True, np.any(sm[1:, rest] != sm[:-1, rest], axis=1)]
    starts, chain = np.flatnonzero(new_chain), np.cumsum(new_chain) - 1
    # first-kind recurrence T_k' = 2k T_{k-1} + k/(k-2) T_{k-2}', run backward
    # over degree for every chain at once; degrees above a chain's top stay 0
    kmax = int(sm[:, axis].max())
    dense = np.zeros((len(starts), kmax + 1))
    dense[chain, sm[:, axis]] += sc
    b = np.zeros((len(starts), kmax + 2))
    for j in range(kmax - 1, -1, -1):
        b[:, j] = b[:, j + 2] + 2.0 * (j + 1) * dense[:, j + 1]
    b[:, 0] /= 2.0
    rows, degs = np.nonzero(b[:, :kmax])  # chain by chain, by degree
    idx = sm[starts[rows]]
    idx[:, axis] = degs
    pos = lattice._entry_positions(idx)
    keep = pos >= 0
    out = np.zeros_like(interp.coeffs)
    np.add.at(out, pos[keep], b[rows, degs][keep] / np.bincount(owners)[pos[keep]])
    return Interpolant(lattice, out)


# ----------------------------------------------------------- quadrature


def basis_integrals(lattice: ChebyshevLattice) -> np.ndarray:
    """Integral over the cube of each basis entry of the lattice.

    For a product index the integral factorizes as
    ``prod_i w(k_i)`` with ``w(0) = 2``, ``w(odd) = 0`` and
    ``w(even m) = 2 / (1 - m^2)``; tie entries sum their members.
    """
    members, owners = lattice.basis_member_matrix()
    even = members % 2 == 0
    w = np.zeros(members.shape)
    w[even] = 2.0 / (1.0 - members[even] ** 2)
    v = np.ones(len(members))
    for a in range(lattice.dim):
        v *= w[:, a]
    # bincount sums each entry's members in order from +0.0
    return np.bincount(owners, weights=v, minlength=len(lattice.basis))


@dataclass(frozen=True, eq=False)
class QuadratureStencil:
    """Per-node weights integrating the lattice's basis exactly.

    Immutable: ``weights`` is a read-only copy of the given values.
    """

    lattice: ChebyshevLattice
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights",
                           _frozen_vector(self.weights, self.lattice.npoints, "weights"))


def quadrature_stencil(plan: TransformPlan) -> QuadratureStencil:
    """Clenshaw-Curtis style stencil: adjoint transform of the basis integrals."""
    integrals = basis_integrals(plan.lattice)
    return QuadratureStencil(lattice=plan.lattice, weights=adjoint(plan, integrals))


def integrate(stencil: QuadratureStencil, samples) -> float:
    """Dot product of stencil weights with samples at the lattice points."""
    samples = _check_vector(samples, len(stencil.weights), "samples", CalculusError)
    return float(stencil.weights @ samples)


def gauss_legendre(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product Gauss-Legendre rule: ``n^d`` nodes and weights.

    The one-dimensional rule integrates polynomials of degree ``2n - 1``
    exactly.
    """
    if n < 1:
        raise CalculusError("rule order must be >= 1")
    x, w = np.polynomial.legendre.leggauss(n)
    nodes = np.stack(np.meshgrid(*([x] * d), indexing="ij", copy=False), axis=-1).reshape(-1, d)
    return nodes, functools.reduce(np.multiply.outer, [w] * d).ravel()


def stencil_to_csv(stencil: QuadratureStencil) -> str:
    """One record per node: coordinate columns then the weight."""
    return _records(_coordinate_strings(stencil.lattice.points), stencil.weights)
