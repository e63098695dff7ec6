"""Fast transforms between samples at lattice points and basis coefficients.

The forward transform runs one separable DCT per Cartesian sublattice and
then solves a small linear system per aliasing group to untangle the
coefficients that the sublattices see folded together (the interleaved
fast transform).  Each group's response is exact: its integer entries sum
the sampling signs of the group's basis polynomials on its DCT slots, and
the lattice computes them at build time.  They take on a fixed small set
of values, the lattice's distinct `AliasingBlock`s; the plan inverts each
once and applies it to all of its groups as one batched matrix product.
Every slot and every basis position belongs to exactly one group, so the
blocks' index arrays, raveled end to end, are two permutations: a call
gathers its input once into block order, where each block's groups are one
contiguous span, runs the products span by span, and scatters the result
once.

All operations are reentrant; plans are immutable after construction.
"""

from __future__ import annotations

import itertools

import numpy as np

# dct_nd, idct_nd, adjoint_dct_nd and dct_axis stay bound here: perfbench/tracer.py wraps them.
from .dct import GridDCT, adjoint_dct_nd, dct_axis, dct_nd, idct_nd  # noqa: F401
from .lattice import _G17, ChebyshevLattice, Family, LatticeError, _canonical_indices, _format_rows


class TransformError(ValueError):
    """Raised for malformed transform inputs."""


class TransformPlan:
    """Precomputed data for `forward`, `inverse` and `adjoint`.

    Immutable and shareable across threads; every call works on fresh
    arrays.
    """

    def __init__(self, lattice: ChebyshevLattice):
        self.lattice = lattice
        self._slot_base = lattice._slot_base
        self._grid_dcts = tuple(GridDCT(g.counts, g.boundaries) for g in lattice._grids)
        blocks = lattice.blocks
        # the gather and scatter permutations (see the module docstring)
        self._slot_order, self._slot_rank = _permutation([b.slots for b in blocks])
        self._entry_order, self._entry_rank = _permutation([b.entries for b in blocks])
        ends = np.cumsum([b.slots.size for b in blocks]).tolist()
        stages = []  # (span, block shape, (forward M = V^{-1}, inverse V, adjoint M^T)) per block
        for b, hi in zip(blocks, ends):
            M, V = np.linalg.inv(b.V), b.V.astype(float)  # the build rejects singular blocks
            M.flags.writeable = V.flags.writeable = False
            stages.append((slice(hi - b.slots.size, hi), b.slots.shape, (M, V, M.T)))
        self._stages = tuple(stages)

    def aliasing_matrices(self) -> list[np.ndarray]:
        """``M = V^{-1}`` of each of ``lattice.blocks``, in that order, for
        inspection and testing; the plan's own read-only arrays."""
        return [matrices[0] for _, _, matrices in self._stages]

    def _per_grid(self, apply, values: np.ndarray) -> np.ndarray:
        """``apply(op, block)`` for every sublattice's `GridDCT` and block of ``values``."""
        out = np.empty(self.lattice.npoints)
        base = self._slot_base
        for si, op in enumerate(self._grid_dcts):
            lo, hi = base[si], base[si + 1]
            out[lo:hi].reshape(op.sizes)[...] = apply(op, values[lo:hi].reshape(op.sizes))
        return out

    def _solve(self, x: np.ndarray, k: int) -> np.ndarray:
        """Matrix ``k`` of each block's stage applied to its span of the gathered ``x``."""
        y = np.empty_like(x)
        for span, shape, matrices in self._stages:
            np.matmul(matrices[k], x[span].reshape(shape), out=y[span].reshape(shape))
        return y


def _permutation(indices: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``indices`` raveled end to end, a permutation, and its inverse (O(n), no
    sort); both read-only."""
    order = np.concatenate([a.ravel() for a in indices])
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    order.flags.writeable = rank.flags.writeable = False
    return order, rank


def plan(lattice: ChebyshevLattice) -> TransformPlan:
    """Build the transform plan (aliasing matrices, index maps, DCT specs)."""
    return TransformPlan(lattice)


def _check_vector(values, n: int, what: str, error: type = TransformError,
                  batch: bool = False) -> np.ndarray:
    """``values`` as a float vector of ``n`` finite ``what`` (with ``batch``,
    also a ``(B, n)`` stack of such vectors), else ``error``."""
    values = np.asarray(values, dtype=float)
    if values.shape[-1:] != (n,) or values.ndim > 1 + batch:
        raise error(f"expected {n} {what}, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise error(f"{what} contain NaN or Inf")
    return values


def forward(plan: TransformPlan, samples) -> np.ndarray:
    """Interpolant coefficients from samples at the lattice points.

    Cost is O(m n log n + m^2 n) for n points on m sublattices.
    """
    samples = _check_vector(samples, plan.lattice.npoints, "samples")
    slots = plan._per_grid(GridDCT.forward, samples).take(plan._slot_order)
    return plan._solve(slots, 0).take(plan._entry_rank)


def inverse(plan: TransformPlan, coeffs) -> np.ndarray:
    """Samples at the lattice points from coefficients (exact right inverse)."""
    coeffs = _check_vector(coeffs, len(plan.lattice.basis), "coefficients").take(plan._entry_order)
    slots = plan._solve(coeffs, 1).take(plan._slot_rank)
    return plan._per_grid(GridDCT.inverse, slots)


def adjoint(plan: TransformPlan, functional) -> np.ndarray:
    """Transpose of `forward`: pull a coefficient functional back to nodes.

    Satisfies ``<functional, forward(samples)> = <adjoint(functional),
    samples>`` for all samples.
    """
    functional = _check_vector(functional, len(plan.lattice.basis), "coefficients"
                               ).take(plan._entry_order)
    slots = plan._solve(functional, 2).take(plan._slot_rank)
    return plan._per_grid(GridDCT.adjoint, slots)


def forward_padua(plan: TransformPlan, samples) -> np.ndarray:
    """`forward` restricted to the Padua family.

    Kept for callers of the former Padua-only path; the result is
    `forward`'s, bit for bit.
    """
    if plan.lattice.family is not Family.PADUA:
        raise TransformError("forward_padua requires a Padua lattice")
    return forward(plan, samples)


# ---------------------------------------------------------------- oracle


def dense_oracle(lattice: ChebyshevLattice, samples) -> np.ndarray:
    """Coefficients by dense collocation solve (slow reference path).

    ``samples`` is one vector or a ``(B, npoints)`` batch; the matrix is
    built, checked and factored once per call.  Guarded to <= 2000 points.
    Shares no machinery with `forward`: the Vandermonde matrix is built by
    direct cosine evaluation and factored densely.
    """
    if lattice.npoints > 2000:
        raise TransformError("dense oracle limited to 2000 points")
    samples = _check_vector(samples, lattice.npoints, "samples", batch=True)
    V = lattice.basis_matrix(lattice.point_thetas)
    cond = np.linalg.cond(V)
    if not np.isfinite(cond) or cond > 1e12:
        raise LatticeError(
            f"collocation matrix numerically singular (cond={cond:.3e}); "
            "lattice is not unisolvent"
        )
    return np.linalg.solve(V, samples.T).T


def dense_condition(lattice: ChebyshevLattice) -> float:
    """Condition number of the dense collocation matrix."""
    if lattice.npoints > 2000:
        raise TransformError("dense oracle limited to 2000 points")
    return float(np.linalg.cond(lattice.basis_matrix(lattice.point_thetas)))


# ------------------------------------------------------------------- CSV


def _csv(table: np.ndarray) -> str:
    """CSV text of a 2-d float table, 17 significant digits per cell."""
    return _format_rows(table, ",".join([_G17] * table.shape[1])) + "\n"


def _check_rows(ok: np.ndarray, message: str) -> None:
    """Raise `TransformError` for the first row where ``ok`` is False;
    ``message`` has a ``{}`` for the row number."""
    if not ok.all():
        raise TransformError(message.format(int(np.argmin(ok))))


def _parse_rows(text: str, nrows: int, ncols: int, what: str) -> np.ndarray:
    """The non-blank rows of a CSV text as an ``(nrows, ncols)`` float array.

    Every field goes through `float` in one pass, so the number syntax is
    Python's; a wrong row count, a row with another column count, or a
    field `float` rejects raises `TransformError` naming the first such row.
    """
    rows = list(filter(str.strip, text.splitlines()))
    if len(rows) != nrows:
        raise TransformError(f"expected {nrows} {what} rows, got {len(rows)}")
    commas = np.fromiter(map(str.count, rows, itertools.repeat(",")), np.int64, nrows)
    _check_rows(commas == ncols - 1, f"{what} row {{}} does not have {ncols} columns")
    try:
        return np.fromiter(map(float, ",".join(rows).split(",")), float, nrows * ncols
                           ).reshape(nrows, ncols)
    except ValueError:
        for i, row in enumerate(rows):  # find the row to name
            try:
                list(map(float, row.split(",")))
            except ValueError as exc:
                raise TransformError(f"{what} row {i}: {exc}") from None
        raise


def coefficients_to_csv(lattice: ChebyshevLattice, coeffs) -> str:
    """One record per basis entry: canonical index columns then the value."""
    d = lattice.dim
    table = np.empty((len(lattice.basis), d + 1), dtype=object)  # Python ints print fastest
    table[:, :d] = _canonical_indices(lattice)
    table[:, d] = np.asarray(coeffs, dtype=float)
    return _format_rows(table, ",".join(["%d"] * d + [_G17])) + "\n"


def coefficients_from_csv(lattice: ChebyshevLattice, text: str) -> np.ndarray:
    """Inverse of `coefficients_to_csv`; index columns must match the basis."""
    d = lattice.dim
    table = _parse_rows(text, len(lattice.basis), d + 1, "coefficient")
    canon = _canonical_indices(lattice)
    with np.errstate(invalid="ignore"):  # NaN/Inf cast to a garbage index: no match
        idx = table[:, :d].astype(np.int64)  # truncates as int(float(field))
    match = (idx == canon).all(axis=1)
    if not match.all():
        i = int(np.argmin(match))
        raise TransformError(
            f"coefficient row {i} index ({', '.join(_G17 % v for v in table[i, :d])}) "
            f"does not match basis {tuple(canon[i].tolist())}"
        )
    _check_rows(np.isfinite(table[:, d]), "coefficient row {} value is not finite")
    return table[:, d].copy()


def samples_to_csv(lattice: ChebyshevLattice, samples) -> str:
    """One record per lattice point: coordinate columns then the value."""
    return _csv(np.column_stack([lattice.points, np.asarray(samples, dtype=float)]))


def samples_from_csv(lattice: ChebyshevLattice, text: str) -> np.ndarray:
    """Inverse of `samples_to_csv`; coordinates must match the points to 1e-9."""
    d = lattice.dim
    table = _parse_rows(text, lattice.npoints, d + 1, "sample")
    err = np.abs(table[:, :d] - lattice.points).max(axis=1)
    _check_rows(err <= 1e-9, "sample row {} coordinates do not match the lattice point")
    _check_rows(np.isfinite(table[:, d]), "sample row {} value is not finite")
    return table[:, d].copy()
