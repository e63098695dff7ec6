"""Fast transforms between samples at lattice points and basis coefficients.

The forward transform runs one separable DCT per Cartesian sublattice and
then solves a small linear system per aliasing group to untangle the
coefficients that the sublattices see folded together (the interleaved
fast transform).  The systems are sampled numerically at plan time by
pushing each group's basis polynomials through the sublattice transforms;
the resulting matrices take on a fixed small set of values, so they are
deduplicated and applied as batched matrix products.

All operations are reentrant; plans are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# dct_nd, idct_nd, adjoint_dct_nd and dct_axis stay bound here: perfbench/tracer.py wraps them.
from .dct import GridDCT, adjoint_dct_nd, dct_axis, dct_nd, idct_nd  # noqa: F401
from .lattice import ChebyshevLattice, Family, LatticeError


class TransformError(ValueError):
    """Raised for malformed transform inputs."""


@dataclass(frozen=True)
class AliasingMatrix:
    """Solved aliasing system for one group of mutually aliasing entries."""

    class_key: tuple[int, ...]
    M: np.ndarray
    members: tuple[tuple[tuple[int, ...], ...], ...]


@dataclass(frozen=True)
class _Bucket:
    """Groups sharing one matrix, with gathered index arrays."""

    class_key: tuple[int, ...]  # key of the first group in the bucket
    members: tuple[tuple[tuple[int, ...], ...], ...]  # its entries' members
    M: np.ndarray  # (nentries, nslots): slot values -> coefficients
    V: np.ndarray  # (nslots, nentries): sampled responses, M = V^{-1}
    slots: np.ndarray  # (nslots, ngroups) flat slot indices
    entries: np.ndarray  # (nentries, ngroups) basis positions


class TransformPlan:
    """Precomputed data for `forward`, `inverse` and `adjoint`.

    Immutable and shareable across threads; every call works on fresh
    arrays.
    """

    def __init__(self, lattice: ChebyshevLattice):
        self.lattice = lattice
        self._slot_base = lattice._slot_base
        self.buckets = self._bucketize(lattice)
        self._grid_dcts = tuple(GridDCT(g.counts, g.boundaries) for g in lattice._grids)

    def _bucketize(self, lattice: ChebyshevLattice) -> tuple[_Bucket, ...]:
        # response bytes -> (first group, M, V, slot lists, entry lists)
        table: dict[bytes, tuple] = {}
        for comp in lattice.components:
            V = comp.response
            key = V.round(9).tobytes() + bytes(str(V.shape), "ascii")
            if key not in table:
                try:
                    M = np.linalg.inv(V)
                except np.linalg.LinAlgError as exc:
                    raise LatticeError(
                        f"aliasing matrix for group {comp.key} is singular"
                    ) from exc
                V = V.copy()  # the plan's own, read-only like M
                M.flags.writeable = V.flags.writeable = False
                table[key] = (comp, M, V, [], [])
            _, _, _, slots, entries = table[key]
            slots.append([self._slot_base[si] + fi for si, fi in comp.slots])
            entries.append(comp.entry_ids)
        return tuple(
            _Bucket(
                class_key=first.key,
                members=tuple(lattice.basis[i].members for i in first.entry_ids),
                M=M,
                V=V,
                slots=np.asarray(slots, dtype=np.int64).T,
                entries=np.asarray(entries, dtype=np.int64).T,
            )
            for first, M, V, slots, entries in table.values()
        )

    def aliasing_matrices(self) -> list[AliasingMatrix]:
        """The deduplicated aliasing systems, for inspection and testing."""
        return [AliasingMatrix(class_key=b.class_key, M=b.M, members=b.members)
                for b in self.buckets]

    def _per_grid(self, apply, values: np.ndarray) -> np.ndarray:
        """``apply(op, block)`` for every sublattice's `GridDCT` and block of ``values``."""
        out = np.empty(self.lattice.npoints)
        base = self._slot_base
        for si, op in enumerate(self._grid_dcts):
            lo, hi = base[si], base[si + 1]
            out[lo:hi].reshape(op.sizes)[...] = apply(op, values[lo:hi].reshape(op.sizes))
        return out


def plan(lattice: ChebyshevLattice) -> TransformPlan:
    """Build the transform plan (aliasing matrices, index maps, DCT specs)."""
    return TransformPlan(lattice)


def _check_samples(plan: TransformPlan, samples) -> np.ndarray:
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (plan.lattice.npoints,):
        raise TransformError(
            f"expected {plan.lattice.npoints} samples, got shape {samples.shape}"
        )
    if not np.all(np.isfinite(samples)):
        raise TransformError("samples contain NaN or Inf")
    return samples


def _check_coeffs(plan: TransformPlan, coeffs) -> np.ndarray:
    coeffs = np.asarray(coeffs, dtype=float)
    nbasis = len(plan.lattice.basis)
    if coeffs.shape != (nbasis,):
        raise TransformError(f"expected {nbasis} coefficients, got shape {coeffs.shape}")
    if not np.all(np.isfinite(coeffs)):
        raise TransformError("coefficients contain NaN or Inf")
    return coeffs


def forward(plan: TransformPlan, samples) -> np.ndarray:
    """Interpolant coefficients from samples at the lattice points.

    Cost is O(m n log n + m^2 n) for n points on m sublattices.
    """
    samples = _check_samples(plan, samples)
    slots = plan._per_grid(GridDCT.forward, samples)
    out = np.empty(len(plan.lattice.basis))
    for b in plan.buckets:
        out[b.entries] = b.M @ slots[b.slots]
    return out


def inverse(plan: TransformPlan, coeffs) -> np.ndarray:
    """Samples at the lattice points from coefficients (exact right inverse)."""
    coeffs = _check_coeffs(plan, coeffs)
    slots = np.empty(plan.lattice.npoints)
    for b in plan.buckets:
        slots[b.slots] = b.V @ coeffs[b.entries]
    return plan._per_grid(GridDCT.inverse, slots)


def adjoint(plan: TransformPlan, functional) -> np.ndarray:
    """Transpose of `forward`: pull a coefficient functional back to nodes.

    Satisfies ``<functional, forward(samples)> = <adjoint(functional),
    samples>`` for all samples.
    """
    functional = _check_coeffs(plan, functional)
    slots = np.zeros(plan.lattice.npoints)
    for b in plan.buckets:
        slots[b.slots] = b.M.T @ functional[b.entries]
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

    Guarded to <= 2000 points.  Shares no machinery with `forward`: the
    Vandermonde matrix is built by direct cosine evaluation and factored
    densely.
    """
    if lattice.npoints > 2000:
        raise TransformError("dense oracle limited to 2000 points")
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (lattice.npoints,):
        raise TransformError(
            f"expected {lattice.npoints} samples, got shape {samples.shape}"
        )
    V = lattice.basis_matrix(lattice.point_thetas)
    cond = np.linalg.cond(V)
    if not np.isfinite(cond) or cond > 1e12:
        raise LatticeError(
            f"collocation matrix numerically singular (cond={cond:.3e}); "
            "lattice is not unisolvent"
        )
    return np.linalg.solve(V, samples)


def dense_condition(lattice: ChebyshevLattice) -> float:
    """Condition number of the dense collocation matrix."""
    if lattice.npoints > 2000:
        raise TransformError("dense oracle limited to 2000 points")
    return float(np.linalg.cond(lattice.basis_matrix(lattice.point_thetas)))


# ------------------------------------------------------------------- CSV


def coefficients_to_csv(lattice: ChebyshevLattice, coeffs) -> str:
    """One record per basis entry: canonical index columns then the value."""
    coeffs = np.asarray(coeffs, dtype=float)
    lines = []
    for entry, c in zip(lattice.basis, coeffs):
        cols = [str(v) for v in entry.canonical] + [format(c, ".17g")]
        lines.append(",".join(cols))
    return "\n".join(lines) + "\n"


def coefficients_from_csv(lattice: ChebyshevLattice, text: str) -> np.ndarray:
    out = np.empty(len(lattice.basis))
    rows = [line for line in text.strip().splitlines() if line.strip()]
    if len(rows) != len(lattice.basis):
        raise TransformError(
            f"expected {len(lattice.basis)} coefficient rows, got {len(rows)}"
        )
    for i, (entry, line) in enumerate(zip(lattice.basis, rows)):
        parts = line.split(",")
        idx = tuple(int(float(p)) for p in parts[: lattice.dim])
        if idx != entry.canonical:
            raise TransformError(
                f"coefficient row {i} index {idx} does not match basis {entry.canonical}"
            )
        out[i] = float(parts[lattice.dim])
    return out


def samples_to_csv(lattice: ChebyshevLattice, samples) -> str:
    """One record per lattice point: coordinate columns then the value."""
    samples = np.asarray(samples, dtype=float)
    lines = []
    for pt, v in zip(lattice.points, samples):
        cols = [format(c, ".17g") for c in pt] + [format(v, ".17g")]
        lines.append(",".join(cols))
    return "\n".join(lines) + "\n"


def samples_from_csv(lattice: ChebyshevLattice, text: str) -> np.ndarray:
    rows = [line for line in text.strip().splitlines() if line.strip()]
    if len(rows) != lattice.npoints:
        raise TransformError(
            f"expected {lattice.npoints} sample rows, got {len(rows)}"
        )
    out = np.empty(lattice.npoints)
    for i, line in enumerate(rows):
        parts = [float(p) for p in line.split(",")]
        if len(parts) != lattice.dim + 1:
            raise TransformError(f"sample row {i} has {len(parts)} columns")
        coords = np.asarray(parts[: lattice.dim])
        if np.max(np.abs(coords - lattice.points[i])) > 1e-9:
            raise TransformError(
                f"sample row {i} coordinates do not match the lattice point"
            )
        out[i] = parts[-1]
    return out
