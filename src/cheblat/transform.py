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
from .lattice import (_G17, ChebyshevLattice, Family, LatticeError, _canonical_indices,
                      _coordinate_strings, _format_rows)


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


# ------------------------------------------------------------------- CSV


def _records(labels: np.ndarray, values: np.ndarray) -> str:
    """CSV text, one row per row of the 2-d ``labels`` (string or int cells,
    printed as they are) followed by the matching ``values`` entry to 17
    significant digits."""
    n, d = labels.shape
    table = np.empty((n, d + 1), dtype=object)  # Python ints and floats print fastest
    table[:, :d] = labels
    table[:, d] = values
    return _format_rows(table, ",".join(["%s"] * d + [_G17])) + "\n"


def _check_rows(ok: np.ndarray, message: str) -> None:
    """Raise `TransformError` for the first row where ``ok`` is False;
    ``message`` has a ``{}`` for the row number."""
    if not ok.all():
        raise TransformError(message.format(int(np.argmin(ok))))


def _parse_rows(text: str, nrows: int, ncols: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The non-blank rows of a CSV text as an ``(nrows, ncols - 1)`` float
    array of labels (coordinates or indices) and a float vector of values.

    Every field goes through `float`, so the number syntax is Python's.  A
    label column repeats a few distinct strings, so each distinct label
    string is converted once; each value field is converted on its own.  A
    wrong row count, a row with another column count, or a field `float`
    rejects raises `TransformError` naming the first such row.
    """
    rows = list(filter(str.strip, text.splitlines()))
    if len(rows) != nrows:
        raise TransformError(f"expected {nrows} {what} rows, got {len(rows)}")
    commas = list(map(str.count, rows, itertools.repeat(",")))
    if commas.count(ncols - 1) != nrows:  # list.count: no array on the good path
        _check_rows(np.array(commas) == ncols - 1,
                    f"{what} row {{}} does not have {ncols} columns")
    labels = ",".join(rows).split(",")
    values = labels[ncols - 1::ncols]
    del labels[ncols - 1::ncols]  # the label fields remain
    try:
        distinct = set(labels)
        number = dict(zip(distinct, map(float, distinct)))
        return (np.fromiter(map(number.__getitem__, labels), float, len(labels)
                            ).reshape(nrows, ncols - 1),
                np.fromiter(map(float, values), float, nrows))
    except ValueError:
        for i, row in enumerate(rows):  # find the row to name
            try:
                list(map(float, row.split(",")))
            except ValueError as exc:
                raise TransformError(f"{what} row {i}: {exc}") from None
        raise


def coefficients_to_csv(lattice: ChebyshevLattice, coeffs) -> str:
    """One record per basis entry: canonical index columns then the value."""
    coeffs = _check_vector(coeffs, len(lattice.basis), "coefficients")
    return _records(_canonical_indices(lattice), coeffs)


def coefficients_from_csv(lattice: ChebyshevLattice, text: str) -> np.ndarray:
    """Inverse of `coefficients_to_csv`; index columns must equal the basis's
    canonical indices as numbers (``2.0`` is 2; ``0.9`` matches no index)."""
    d = lattice.dim
    index, values = _parse_rows(text, len(lattice.basis), d + 1, "coefficient")
    canon = _canonical_indices(lattice)
    match = (index == canon).all(axis=1)  # exact: 2.0 equals 2; 0.9, NaN and Inf no index
    if not match.all():
        i = int(np.argmin(match))
        raise TransformError(
            f"coefficient row {i} index ({', '.join(_G17 % v for v in index[i])}) "
            f"does not match basis {tuple(canon[i].tolist())}"
        )
    _check_rows(np.isfinite(values), "coefficient row {} value is not finite")
    return values


def samples_to_csv(lattice: ChebyshevLattice, samples) -> str:
    """One record per lattice point: coordinate columns then the value."""
    samples = _check_vector(samples, lattice.npoints, "samples")
    return _records(_coordinate_strings(lattice.points), samples)


def samples_from_csv(lattice: ChebyshevLattice, text: str) -> np.ndarray:
    """Inverse of `samples_to_csv`; coordinates must match the points to 1e-9."""
    coords, values = _parse_rows(text, lattice.npoints, lattice.dim + 1, "sample")
    err = np.abs(coords - lattice.points).max(axis=1)
    _check_rows(err <= 1e-9, "sample row {} coordinates do not match the lattice point")
    _check_rows(np.isfinite(values), "sample row {} value is not finite")
    return values
