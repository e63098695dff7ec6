"""Interpolant evaluation, spectral differentiation and quadrature.

Interpolants are coefficient vectors over a lattice's basis.  Evaluation
sums the series by tensor sum factorization over per-axis Chebyshev
tables built with the three-term recurrence, in chunks of points of a
fixed size, so its working memory does not grow with the point count;
``ChebyshevLattice.basis_matrix`` stays the dense reference.
Differentiation runs the first-kind coefficient recurrence along
per-axis chains of the (non-rectangular) index set; integration applies
the adjoint transform to the vector of basis integrals, which yields a
stencil that integrates every basis polynomial exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import ChebyshevLattice
# ``make_plan`` stays a module attribute: perfbench/tracer.py wraps calculus.make_plan.
from .transform import TransformPlan, adjoint, forward, plan as make_plan  # noqa: F401


class CalculusError(ValueError):
    pass


@dataclass
class Interpolant:
    """A polynomial in the lattice basis: ``p = sum_k coeffs_k Phi_k``."""

    lattice: ChebyshevLattice
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (len(self.lattice.basis),):
            raise CalculusError(
                f"expected {len(self.lattice.basis)} coefficients, "
                f"got shape {self.coeffs.shape}"
            )

    def __call__(self, x):
        return evaluate(self, x)


def interpolate(plan: TransformPlan, samples) -> Interpolant:
    """Interpolant through samples at the lattice points."""
    return Interpolant(plan.lattice, forward(plan, samples))


# Evaluation chunk budget in floats (8 MB).  The chunk's row count is set so
# that the (prefix x points) accumulator, the gathered prefix table and the
# stacked per-axis tables each stay within it.
_CHUNK_ELEMENTS = 1 << 20


def _chebyshev_table(x: np.ndarray, kmax: int) -> np.ndarray:
    """Rows ``T_0(x), ..., T_kmax(x)``, shape (kmax + 1, len(x)).

    Built by the three-term recurrence ``T_{k+1} = 2x T_k - T_{k-1}``
    (Clenshaw 1955), which is stable on [-1, 1].
    """
    table = np.empty((kmax + 1, x.size))
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
    chunk size keeps working memory independent of the point count.
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
    step = max(1, _CHUNK_ELEMENTS // max(len(prefixes), int(kmax.sum()) + lattice.dim))
    for lo in range(0, len(pts), step):
        chunk = pts[lo : lo + step]
        acc = coeffs @ _chebyshev_table(chunk[:, -1], int(kmax[-1]))
        for axis in range(lattice.dim - 1):
            acc *= _chebyshev_table(chunk[:, axis], int(kmax[axis]))[prefixes[:, axis]]
        vals[lo : lo + step] = acc.sum(axis=0)
    return float(vals[0]) if single else vals


# ---------------------------------------------------------------- d/dx


@dataclass
class DiffPlan:
    """Per-axis chain layout of the basis member indices.

    For each axis: a stable lexicographic permutation putting that axis
    least significant, chain boundary offsets (runs whose other
    components agree), and the member degrees along the axis.
    """

    orders: list[np.ndarray]
    chain_starts: list[np.ndarray]


def _diff_plan(members: np.ndarray) -> DiffPlan:
    dim = members.shape[1]
    orders = []
    starts = []
    for axis in range(dim):
        rest = [members[:, a] for a in range(dim) if a != axis]
        order = np.lexsort([members[:, axis]] + rest)
        sorted_rest = members[order][:, [a for a in range(dim) if a != axis]]
        if sorted_rest.shape[1]:
            change = np.any(sorted_rest[1:] != sorted_rest[:-1], axis=1)
            cs = np.flatnonzero(np.r_[True, change])
        else:
            cs = np.array([0])
        orders.append(order)
        starts.append(cs)
    return DiffPlan(orders=orders, chain_starts=starts)


def _chain_derivative(degs: np.ndarray, coefs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First-kind derivative along one chain: T_k' = 2k T_{k-1} + k/(k-2) T_{k-2}'."""
    kmax = int(degs.max())
    dense = np.zeros(kmax + 1)
    dense[degs] += coefs
    out = np.zeros(kmax + 1)
    if kmax >= 1:
        b = np.zeros(kmax + 2)
        for j in range(kmax - 1, -1, -1):
            b[j] = b[j + 2] + 2.0 * (j + 1) * dense[j + 1]
        b[0] /= 2.0
        out[: kmax] = b[:kmax]
    nz = np.flatnonzero(out)
    return nz, out[nz]


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
    dplan = _diff_plan(members)
    mcoefs = interp.coeffs[owners]
    order = dplan.orders[axis]
    starts = dplan.chain_starts[axis]
    sm = members[order]
    sc = mcoefs[order]
    out = np.zeros_like(interp.coeffs)
    bounds = list(starts) + [len(order)]
    for ci in range(len(starts)):
        lo, hi = bounds[ci], bounds[ci + 1]
        degs = sm[lo:hi, axis]
        if degs.max() == 0:
            continue
        nz, vals = _chain_derivative(degs, sc[lo:hi])
        rest = sm[lo]
        for j, v in zip(nz, vals):
            idx = tuple(int(rest[a]) if a != axis else int(j) for a in range(lattice.dim))
            bi = lattice.basis_index_of(idx)
            if bi is not None:
                out[bi] += v / len(lattice.basis[bi].members)
    return Interpolant(lattice, out)


# ----------------------------------------------------------- quadrature


def _axis_weight(k: int) -> float:
    if k % 2:
        return 0.0
    return 2.0 / (1.0 - k * k) if k else 2.0


def basis_integrals(basis) -> np.ndarray:
    """Integral over the cube of each basis entry.

    For a product index the integral factorizes as
    ``prod_i w(k_i)`` with ``w(0) = 2``, ``w(odd) = 0`` and
    ``w(even m) = 2 / (1 - m^2)``; tie entries sum their members.
    """
    out = np.empty(len(basis))
    for i, entry in enumerate(basis):
        total = 0.0
        for member in entry.members:
            v = 1.0
            for k in member:
                v *= _axis_weight(int(k))
            total += v
        out[i] = total
    return out


@dataclass
class QuadratureStencil:
    """Per-node weights integrating the lattice's basis exactly."""

    lattice: ChebyshevLattice
    weights: np.ndarray


def quadrature_stencil(plan: TransformPlan) -> QuadratureStencil:
    """Clenshaw-Curtis style stencil: adjoint transform of the basis integrals."""
    integrals = basis_integrals(plan.lattice.basis)
    return QuadratureStencil(lattice=plan.lattice, weights=adjoint(plan, integrals))


def integrate(stencil: QuadratureStencil, samples) -> float:
    """Dot product of stencil weights with samples at the lattice points."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape != stencil.weights.shape:
        raise CalculusError(
            f"expected {stencil.weights.shape[0]} samples, got shape {samples.shape}"
        )
    return float(stencil.weights @ samples)


def gauss_legendre(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product Gauss-Legendre rule: ``n^d`` nodes and weights.

    The one-dimensional rule integrates polynomials of degree ``2n - 1``
    exactly.
    """
    if n < 1:
        raise CalculusError("rule order must be >= 1")
    x, w = np.polynomial.legendre.leggauss(n)
    grids = np.meshgrid(*([x] * d), indexing="ij")
    nodes = np.column_stack([g.ravel() for g in grids])
    wgrids = np.meshgrid(*([w] * d), indexing="ij")
    weights = np.ones(n**d)
    for g in wgrids:
        weights = weights * g.ravel()
    return nodes, weights


def stencil_to_csv(stencil: QuadratureStencil) -> str:
    """One record per node: coordinate columns then the weight."""
    lines = []
    for pt, w in zip(stencil.lattice.points, stencil.weights):
        cols = [format(c, ".17g") for c in pt] + [format(w, ".17g")]
        lines.append(",".join(cols))
    return "\n".join(lines) + "\n"
