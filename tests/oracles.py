"""Slow, independent reference implementations used to pin expected values.

Everything here is deliberately written as direct summation or dense linear
algebra so it shares no code path with the fast implementations under test.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from cheblat.dct import BoundaryType, GridDCT


def dct_oracle(values: np.ndarray, boundary: BoundaryType) -> np.ndarray:
    """O(n^2) analysis transform by explicit weighted sums.

    c_k = a_k * sum_i w_i f(x_i) cos(k theta_i), with w_i = 1/2 at
    theta in {0, pi} and the a_k fixed by requiring cos(k theta) -> e_k.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    thetas = nodes_1d_oracle(n, boundary)
    w = np.ones(n)
    for i, t in enumerate(thetas):
        if abs(t) < 1e-15 or abs(t - np.pi) < 1e-15:
            w[i] = 0.5
    coeffs = np.empty(n)
    for k in range(n):
        basis = np.cos(k * thetas)
        raw = np.sum(w * values * basis)
        norm = np.sum(w * basis * basis)
        coeffs[k] = raw / norm
    return coeffs


def synthesis_oracle(coeffs: np.ndarray, boundary: BoundaryType) -> np.ndarray:
    """Evaluate sum_k c_k cos(k theta_i) at the grid nodes directly."""
    coeffs = np.asarray(coeffs, dtype=float)
    n = coeffs.size
    thetas = nodes_1d_oracle(n, boundary)
    out = np.zeros(n)
    for k in range(n):
        out += coeffs[k] * np.cos(k * thetas)
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


# ------------------------------------------------------ node families
#
# The per-family definitions `cheblat.dct` once spelled out branch by
# branch, kept verbatim as references: the single ``theta_j = pi (2j + s) / N``
# rule must reproduce them bitwise.


def contains_plus_one_oracle(boundary: BoundaryType) -> bool:
    return boundary in (BoundaryType.TYPE_I, BoundaryType.TYPE_V_MINUS)


def contains_minus_one_oracle(boundary: BoundaryType) -> bool:
    return boundary in (BoundaryType.TYPE_I, BoundaryType.TYPE_V_PLUS)


def circle_count_oracle(n: int, boundary: BoundaryType) -> int:
    if boundary is BoundaryType.TYPE_I:
        return 2 * (n - 1)
    if boundary is BoundaryType.TYPE_II:
        return 2 * n
    return 2 * n - 1


def grid_spec_from_circle_oracle(N: int, half_shift: int) -> tuple[int, BoundaryType]:
    """Node count and family of the grid with ``N`` full-circle points.

    ``half_shift`` selects whether the grid contains ``theta = 0``
    (``0``) or is offset by half a spacing (``1``).
    """
    if N < 1 or half_shift not in (0, 1):
        raise ValueError(f"invalid grid spec N={N}, half_shift={half_shift}")
    if N % 2 == 0:
        if half_shift == 0:
            return N // 2 + 1, BoundaryType.TYPE_I
        return N // 2, BoundaryType.TYPE_II
    if half_shift == 0:
        return (N + 1) // 2, BoundaryType.TYPE_V_MINUS
    return (N + 1) // 2, BoundaryType.TYPE_V_PLUS


def nodes_1d_oracle(n: int, boundary: BoundaryType) -> np.ndarray:
    """Node angles of the ``n``-point set of the given family, increasing."""
    i = np.arange(n)
    if boundary is BoundaryType.TYPE_I:
        thetas = np.pi * i / (n - 1)
    elif boundary is BoundaryType.TYPE_II:
        thetas = np.pi * (2 * i + 1) / (2 * n)
    elif boundary is BoundaryType.TYPE_V_MINUS:
        thetas = np.pi * (2 * i) / (2 * n - 1)
    else:
        thetas = np.pi * (2 * i + 1) / (2 * n - 1)
    return thetas


def analysis_prefactor_oracle(n: int, boundary: BoundaryType) -> np.ndarray:
    """Diagonal factor ``a_k`` of the analysis transform.

    ``c_k = a_k * sum_i w_i f_i cos(k theta_i)`` with ``w_i = 1/2`` at
    ``theta in {0, pi}`` and 1 elsewhere.
    """
    a = np.empty(n)
    if boundary is BoundaryType.TYPE_I:
        a[:] = 2.0 / (n - 1)
        a[0] = 1.0 / (n - 1)
        a[-1] = 1.0 / (n - 1)  # top mode pairs with itself on the circle
    elif boundary is BoundaryType.TYPE_II:
        a[:] = 2.0 / n
        a[0] = 1.0 / n
    else:
        N = 2 * n - 1
        a[:] = 4.0 / N
        a[0] = 2.0 / N
    return a


def node_weights_oracle(n: int, boundary: BoundaryType) -> np.ndarray:
    """Trapezoidal node weights ``w_i`` (1/2 at ``theta in {0, pi}``)."""
    w = np.ones(n)
    if boundary is BoundaryType.TYPE_I:
        w[0] = 0.5
        w[-1] = 0.5
    elif boundary is BoundaryType.TYPE_V_MINUS:
        w[0] = 0.5
    elif boundary is BoundaryType.TYPE_V_PLUS:
        w[-1] = 0.5
    return w


def halving_oracle(n: int, boundary: BoundaryType) -> np.ndarray:
    """Synthesis factor ``h``: 1/2 on every mode that appears twice on the circle.

    The analysis is ``a/2`` times the unscaled forward transform (DCT-I,
    DCT-II or the type V FFT), the synthesis is the unscaled backward
    transform (DCT-I, DCT-III or the inverse type V FFT) of ``h * c``, and
    the adjoint is ``w`` times the unscaled synthesis of ``a * h * u``, with
    ``a`` = `analysis_prefactor` and ``w`` = `node_weights`.
    """
    half = np.full(n, 0.5)
    half[0] = 1.0
    if boundary is BoundaryType.TYPE_I:
        half[-1] = 1.0
    return half


def reflect_index_oracle(n: int, boundary: BoundaryType) -> np.ndarray:
    """Index map unfolding samples to the full circle (type V only)."""
    if boundary is BoundaryType.TYPE_V_MINUS:
        # angles 2*pi*j/N for j = 0..N-1; j >= n mirrors index N - j
        return np.concatenate([np.arange(n), np.arange(n - 1, 0, -1)])
    # V+: angles 2*pi*(j + 1/2)/N; j >= n mirrors index N - 1 - j
    return np.concatenate([np.arange(n), np.arange(n - 2, -1, -1)])


def cosine_matrix_oracle(n: int, boundary: BoundaryType) -> np.ndarray:
    """``C[k, j] = cos(k theta_j)``, with the angle reduced exactly mod ``2 pi``.

    ``theta_j = pi p_j / q`` for integers ``p_j, q``, so ``k theta_j`` is
    reduced as the integer ``k p_j mod 2q`` before the cosine is taken.
    """
    j = np.arange(n)
    if boundary is BoundaryType.TYPE_I:
        p, q = 2 * j, 2 * (n - 1)
    elif boundary is BoundaryType.TYPE_II:
        p, q = 2 * j + 1, 2 * n
    elif boundary is BoundaryType.TYPE_V_MINUS:
        p, q = 2 * j, 2 * n - 1
    else:
        p, q = 2 * j + 1, 2 * n - 1
    return np.cos(np.pi * (np.outer(j, p) % (2 * q)) / q)


def point_fractions_oracle(lattice) -> list[tuple[Fraction, ...]]:
    """Every point's angles as exact fractions of pi, in the lattice's order.

    Built from each sublattice's circle counts ``N`` and half shifts ``s``
    alone: axis ``a`` holds the angles ``(2j + s_a) / N_a`` that lie in
    ``[0, 1]``, and each grid is their tensor product in C order.
    """
    rows = []
    for g in lattice._grids:
        axes = [[Fraction(2 * j + s, N) for j in range((N - s) // 2 + 1)]
                for N, s in zip(g.circle_counts, g.shift)]
        rows.extend(itertools.product(*axes))
    return rows


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


# ------------------------------------------------------------ basis search


def _fold(k: int, N: int) -> int:
    r = k % N
    return r if 2 * r <= N else N - r


def _axis_response(k: int, N: int, shift: int) -> tuple[int, int]:
    """Fold frequency and sampling sign of cos(k theta) on an (N, shift) grid.

    Writing ``k = m N + eps f`` with ``f`` the folded frequency, the grid
    samples equal ``(-1)^(m * shift) cos(f theta)``; the sign is the return
    value, and 0 signals the invisible half-shift top mode ``2f = N``.
    """
    f = _fold(k, N)
    if shift and 2 * f == N:
        return f, 0
    m = (k - f) // N if k % N == f else (k + f) // N
    return f, (-1 if (m * shift) % 2 else 1)


class _BasisSearch:
    """The per-group pairwise class search that `ChebyshevLattice` once ran.

    Each aliasing group's candidates are scanned in (norm, index) order and
    compared pairwise against the classes found so far; the candidate range
    grows through 2, 3 and 5 coarse periods until the group closes.
    """

    def __init__(self, lattice):
        self.dim = lattice.dim
        self.grids = lattice._grids
        self.coarse = tuple(
            math.gcd(*(g.circle_counts[ax] for g in self.grids)) for ax in range(self.dim)
        )

    def identity_shift(self, v) -> bool:
        for g in self.grids:
            parity = 0
            for vi, N, o in zip(v, g.circle_counts, g.shift):
                if vi % N:
                    return False
                parity += (vi // N) * o
            if parity % 2:
                return False
        return True

    def same_class(self, a, b) -> bool:
        for signs in itertools.product((1, -1), repeat=self.dim):
            if self.identity_shift(tuple(bi - s * ai for ai, bi, s in zip(a, b, signs))):
                return True
        return False

    def response_row(self, members) -> dict:
        """Map (sublattice, flat slot) -> summed sampling sign for an entry."""
        out: dict = {}
        for member in members:
            for si, g in enumerate(self.grids):
                val = 1
                flat = 0
                for ax in range(self.dim):
                    f, sgn = _axis_response(member[ax], g.circle_counts[ax], g.shift[ax])
                    if sgn == 0 or f >= g.counts[ax]:
                        val = 0
                        break
                    val *= sgn
                    flat = flat * g.counts[ax] + f
                if val:
                    out[(si, flat)] = out.get((si, flat), 0) + val
        return {k: v for k, v in out.items() if v != 0}

    def candidates(self, key, periods):
        axis_vals = []
        for w, N in zip(key, self.coarse):
            vals = set()
            for base in (w % N, (N - w % N) % N):
                vals.update(range(base, periods * N + w + 1, N))
            axis_vals.append(sorted(vals))
        return sorted(itertools.product(*axis_vals), key=lambda t: (sum(v * v for v in t), t))

    def select(self, key, need, cut_ties) -> list:
        """The `need` lowest-norm alias classes visible in group `key`."""
        for periods in (2, 3, 5):
            classes: list = []  # [members, norm2, visible]
            closed = False
            for cand in self.candidates(key, periods):
                n2 = sum(v * v for v in cand)
                for cl in classes:
                    if self.same_class(cl[0][0], cand):
                        if n2 == cl[1] and cand not in cl[0]:
                            cl[0].append(cand)
                        break
                else:
                    classes.append([[cand], n2, bool(self.response_row([cand]))])
                vis = [cl for cl in classes if cl[2]]
                if len(vis) >= need and n2 > vis[need - 1][1]:
                    closed = True
                    break
            vis = [cl for cl in classes if cl[2]]
            if closed:
                if len(vis) > need and vis[need - 1][1] == vis[need][1]:
                    cut_ties.append(key)
                return [sorted(cl[0]) for cl in vis[:need]]
        raise AssertionError(f"could not close aliasing group {key}")


@dataclass
class Component:
    """One aliasing group as the pairwise search finds it."""

    key: tuple[int, ...]
    slots: list[tuple[int, int]]  # (sublattice index, flat grid index)
    entry_ids: list[int]  # basis positions
    response: np.ndarray  # int64, (len(slots), len(entry_ids)) summed sampling signs


def basis_oracle(lattice):
    """Basis, cut ties and aliasing components by the pairwise class search.

    Returns ``(basis, cut_ties, components)``: basis entries sorted by
    (norm, canonical index), as in `ChebyshevLattice`, and per aliasing
    group, in key order, a `Component`.
    """
    from cheblat.lattice import BasisEntry

    search = _BasisSearch(lattice)
    comp_slots: dict = {}
    for si, g in enumerate(search.grids):
        for flat, idx in enumerate(itertools.product(*map(range, g.counts))):
            key = tuple(_fold(i, N) for i, N in zip(idx, search.coarse))
            comp_slots.setdefault(key, []).append((si, flat))

    components = []
    entries: list = []
    cut_ties: list = []
    for key in sorted(comp_slots):
        slots = comp_slots[key]
        chosen = search.select(key, len(slots), cut_ties)
        V = np.zeros((len(slots), len(chosen)), dtype=np.int64)
        for j, members in enumerate(chosen):
            row = search.response_row(members)
            for i, slot in enumerate(slots):
                V[i, j] = row.get(slot, 0)
        ids = list(range(len(entries), len(entries) + len(chosen)))
        entries.extend(BasisEntry(members=tuple(m)) for m in chosen)
        components.append(Component(key=key, slots=slots, entry_ids=ids, response=V))

    order = sorted(range(len(entries)), key=lambda i: (entries[i].norm2, entries[i].canonical))
    rank = {old: new for new, old in enumerate(order)}
    for comp in components:
        comp.entry_ids = [rank[i] for i in comp.entry_ids]
    return [entries[i] for i in order], cut_ties, components



def buckets_oracle(lattice, basis, components):
    """Plan buckets by the per-group loop the transform plan once ran.

    Groups are keyed by their response bytes; each distinct response is
    inverted once, and a bucket gathers the slots and entries of every
    group that has it.  Returns ``(class_key, members, M, V, slots,
    entries)`` per bucket, in the order of the buckets' first groups, with
    ``V`` the integer response.
    """
    base = lattice._slot_base
    table: dict = {}
    for comp in components:
        V = comp.response
        key = (V.shape, V.tobytes())
        if key not in table:
            table[key] = (comp, np.linalg.inv(V), V, [], [])
        table[key][3].append([base[si] + fi for si, fi in comp.slots])
        table[key][4].append(comp.entry_ids)
    return [(first.key, tuple(basis[i].members for i in first.entry_ids), M, V,
             np.asarray(slots, dtype=np.int64).T, np.asarray(entries, dtype=np.int64).T)
            for first, M, V, slots, entries in table.values()]


# ------------------------------------------------------ bucket loops
#
# forward, inverse and adjoint with the aliasing stage as the per-block
# gather/scatter loops the plan's slot and entry permutations replaced; the
# per-sublattice DCT stage and the matrices ``M = V^{-1}`` are the plan's own.


def forward_bucket_oracle(plan, samples) -> np.ndarray:
    slots = plan._per_grid(GridDCT.forward, np.asarray(samples, dtype=float))
    out = np.empty(len(plan.lattice.basis))
    for b, M in zip(plan.lattice.blocks, plan.aliasing_matrices()):
        out[b.entries] = M @ slots[b.slots]
    return out


def inverse_bucket_oracle(plan, coeffs) -> np.ndarray:
    coeffs = np.asarray(coeffs, dtype=float)
    slots = np.empty(plan.lattice.npoints)
    for b in plan.lattice.blocks:
        slots[b.slots] = b.V.astype(float) @ coeffs[b.entries]
    return plan._per_grid(GridDCT.inverse, slots)


def adjoint_bucket_oracle(plan, functional) -> np.ndarray:
    functional = np.asarray(functional, dtype=float)
    slots = np.zeros(plan.lattice.npoints)
    for b, M in zip(plan.lattice.blocks, plan.aliasing_matrices()):
        slots[b.slots] = M.T @ functional[b.entries]
    return plan._per_grid(GridDCT.adjoint, slots)


# ------------------------------------------------------ per-entry loops
#
# The entry-by-entry and chain-by-chain loops the array code replaced, kept
# as references: the array code must match them bitwise.


def basis_integrals_oracle(lattice) -> np.ndarray:
    """Integral of each basis entry: a product of 1-d weights per member."""
    out = np.empty(len(lattice.basis))
    for i, entry in enumerate(lattice.basis):
        total = 0.0
        for member in entry.members:
            v = 1.0
            for k in member:
                v *= 0.0 if k % 2 else (2.0 / (1.0 - k * k) if k else 2.0)
            total += v
        out[i] = total
    return out


def gauss_legendre_oracle(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Legendre nodes from d separate meshgrids and weights as a
    running product of the raveled weight grids, starting from ones."""
    x, w = np.polynomial.legendre.leggauss(n)
    grids = np.meshgrid(*([x] * d), indexing="ij")
    nodes = np.column_stack([g.ravel() for g in grids])
    wgrids = np.meshgrid(*([w] * d), indexing="ij")
    weights = np.ones(n**d)
    for g in wgrids:
        weights = weights * g.ravel()
    return nodes, weights


def boundary_degree_oracle(lattice, axis: int = -1) -> int:
    """Largest k with every face frequency 0..k in the projected basis."""
    axis = axis % lattice.dim
    proj = {tuple(v for i, v in enumerate(m) if i != axis)
            for e in lattice.basis for m in e.members}
    k = 0
    while (k + 1,) + (0,) * (lattice.dim - 2) in proj:
        k += 1
    return k


def differentiate_oracle(lattice, coeffs, axis: int) -> np.ndarray:
    """Derivative coefficients by the first-kind recurrence, one chain at a time.

    A chain is the set of basis members that agree off ``axis``; chains run
    in the order of their other components, last axis first, and each
    chain's nonzero results in degree order.  A result on a basis member
    adds ``value / member count`` to that member's entry, one at a time.
    """
    owner, count, chains = {}, [], {}
    for i, entry in enumerate(lattice.basis):
        count.append(len(entry.members))
        for m in entry.members:
            owner[m] = i
            rest = tuple(v for a, v in enumerate(m) if a != axis)
            chains.setdefault(rest[::-1], []).append((m[axis], coeffs[i]))
    out = np.zeros(len(count))
    for rest in sorted(chains):
        chain = chains[rest]
        kmax = max(k for k, _ in chain)
        if kmax == 0:
            continue
        dense = np.zeros(kmax + 1)
        for k, c in chain:
            dense[k] += c
        b = np.zeros(kmax + 2)
        for j in range(kmax - 1, -1, -1):
            b[j] = b[j + 2] + 2.0 * (j + 1) * dense[j + 1]
        b[0] /= 2.0
        for k in np.flatnonzero(b[:kmax]).tolist():
            m = list(rest[::-1])
            m.insert(axis, k)
            i = owner.get(tuple(m))
            if i is not None:
                out[i] += b[k] / count[i]
    return out

# ------------------------------------------------------------- text I/O
#
# The per-cell writers and readers the array-native CSV and descriptor code
# replaced, kept as references: outputs must match them byte for byte, and
# readers must return bitwise-equal arrays on every input these accept.


def _g17(x) -> str:
    return format(float(x), ".17g")


def coefficients_to_csv_oracle(lattice, coeffs) -> str:
    lines = []
    for entry, c in zip(lattice.basis, np.asarray(coeffs, dtype=float)):
        lines.append(",".join([str(v) for v in entry.canonical] + [_g17(c)]))
    return "\n".join(lines) + "\n"


def samples_to_csv_oracle(lattice, samples) -> str:
    lines = []
    for pt, v in zip(lattice.points, np.asarray(samples, dtype=float)):
        lines.append(",".join([_g17(c) for c in pt] + [_g17(v)]))
    return "\n".join(lines) + "\n"


def stencil_to_csv_oracle(stencil) -> str:
    return samples_to_csv_oracle(stencil.lattice, stencil.weights)


def eval_lines_oracle(points, values) -> str:
    """`cheblat eval` output: one ``x1,...,xd,value`` line per point."""
    lines = [",".join([_g17(c) for c in pt] + [_g17(v)]) for pt, v in zip(points, values)]
    return "\n".join(lines) + "\n"


def coefficients_from_csv_oracle(lattice, text: str) -> np.ndarray:
    """Row by row; assumes a well-formed file (the readers under test own the checks)."""
    rows = [line for line in text.strip().splitlines() if line.strip()]
    assert len(rows) == len(lattice.basis)
    out = np.empty(len(rows))
    for i, (entry, line) in enumerate(zip(lattice.basis, rows)):
        parts = line.split(",")
        # an index field must be an integer value: 2.0 reads as 2, 0.9 is no index
        assert tuple(float(p) for p in parts[: lattice.dim]) == entry.canonical
        out[i] = float(parts[lattice.dim])
    return out


def samples_from_csv_oracle(lattice, text: str) -> np.ndarray:
    rows = [line for line in text.strip().splitlines() if line.strip()]
    assert len(rows) == lattice.npoints
    out = np.empty(len(rows))
    for i, line in enumerate(rows):
        parts = [float(p) for p in line.split(",")]
        assert len(parts) == lattice.dim + 1
        assert np.max(np.abs(np.asarray(parts[:-1]) - lattice.points[i])) <= 1e-9
        out[i] = parts[-1]
    return out


def _json_value_oracle(obj) -> str:
    if isinstance(obj, str):
        import json

        return json.dumps(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _g17(obj)
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{_json_value_oracle(k)}: {_json_value_oracle(v)}"
                               for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_json_value_oracle(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)}")


def lattice_descriptor_oracle(lattice) -> str:
    """The JSON descriptor, serialised value by value."""
    doc = {
        "family": lattice.family.value,
        "dim": lattice.dim,
        "resolution": lattice.resolution,
        "npoints": lattice.npoints,
        "basis": [list(e.canonical) for e in lattice.basis],
        "points": [list(map(float, row)) for row in lattice.points],
        "sublattices": [
            {"counts": list(s.counts), "boundaries": [b.value for b in s.boundaries],
             "offset": [float(Fraction(a, 2)) for a in s.shift]}
            for s in lattice._grids
        ],
        "ties": [{"entry": i, "members": [list(m) for m in e.members]}
                 for i, e in enumerate(lattice.basis) if e.is_tie],
    }
    return _json_value_oracle(doc)


def records_to_csv_oracle(records) -> str:
    from cheblat.bench import CSV_HEADER

    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join([r.family, str(r.dim), str(r.resolution), str(r.npoints),
                               _g17(r.euclidean_degree), _g17(r.error_mean),
                               _g17(r.error_std), str(r.trials), str(r.seed)]))
    return "\n".join(lines) + "\n"


def min_vector_norm_oracle(Q) -> float:
    """Shortest nonzero combination with coefficients in [-3, 3], one norm at a time.

    The rows of ``Q`` may be dependent, so a combination is skipped when its
    vector, not its coefficient tuple, is zero.
    """
    best = np.inf
    for z in itertools.product(range(-3, 4), repeat=Q.shape[0]):
        v = np.asarray(z) @ np.asarray(Q, dtype=float)
        if v.any():
            best = min(best, float(np.linalg.norm(v)))
    return best


# ------------------------------------------------------ lattice geometry
#
# Reciprocal-lattice geometry that only tests use: the Brillouin-zone
# ranking the composite-oct7 basis is checked against, and the integer row
# reduction `boundary_efficiency` once ran on the projected generators.


def lattice_elements_within(Q: np.ndarray, radius: float) -> np.ndarray:
    """Every integer combination of the rows of ``Q`` of norm at most ``radius``."""
    d = Q.shape[0]
    inv_norm = np.linalg.norm(np.linalg.inv(Q.astype(float).T), ord=2)
    zmax = int(math.ceil(radius * inv_norm)) + 1
    zs = np.array(list(itertools.product(range(-zmax, zmax + 1), repeat=d)), dtype=np.int64)
    ells = zs @ Q
    keep = (ells.astype(float) ** 2).sum(axis=1) <= radius * radius
    return ells[keep].astype(float)


def brillouin_union(Q: np.ndarray, m: int, radius_hint: float | None = None):
    """Integer frequencies whose norm ranks within the first ``m`` Brillouin
    zones of the reciprocal lattice spanned by the rows of ``Q``, restricted
    to the non-negative orthant.

    Returns ``(indices, tie_flags)``: ``tie_flags[i]`` marks points lying on
    a zone boundary (their rank is ambiguous by exactly the tie count).
    """
    Q = np.asarray(Q, dtype=np.int64)
    d = Q.shape[0]
    # enough reciprocal elements to rank everything inside the hint radius
    if radius_hint is None:
        radius_hint = (m ** (1.0 / d) + 1.5) * min_vector_norm_oracle(Q)
    ells = lattice_elements_within(Q, 2.0 * radius_hint + 1.0)
    indices = []
    ties = []
    rng = int(radius_hint) + 1
    for k in itertools.product(*[range(0, rng + 1)] * d):
        kv = np.asarray(k, dtype=float)
        nk = kv @ kv
        if nk > radius_hint * radius_hint:
            continue
        dists = ((kv + ells) ** 2).sum(axis=1)
        closer = int((dists < nk - 1e-9).sum())
        equal = int((np.abs(dists - nk) <= 1e-9).sum())  # includes l = 0
        if closer + 1 <= m:
            indices.append(k)
            ties.append(closer + equal > m)
    return indices, ties


def hnf_basis(rows: list[list[int]]) -> list[list[int]]:
    """Reduce integer generators to a square upper triangular basis by gcd steps."""
    rows = [list(r) for r in rows if any(r)]
    cols = len(rows[0])
    basis: list[list[int]] = []
    for pivot in range(cols):
        while True:
            nonzero = [r for r in rows if r[pivot] != 0]
            if len(nonzero) <= 1:
                break
            nonzero.sort(key=lambda r: abs(r[pivot]))
            a = nonzero[0]
            for r in nonzero[1:]:
                q = r[pivot] // a[pivot]
                for c in range(cols):
                    r[c] -= q * a[c]
        piv = next(r for r in rows if r[pivot] != 0)  # the rows have full rank
        basis.append(list(piv))
        rows = [r for r in rows if r is not piv and any(r)]
    return basis


def face_lattice_oracle(Q, axis: int) -> tuple[int, float]:
    """Cell volume and shortest-vector norm of the reciprocal lattice
    projected along ``axis``, from its triangular `hnf_basis`: the volume is
    the product of the diagonal, and the norm is `min_vector_norm_oracle`
    of the basis rows."""
    basis = hnf_basis([[v for j, v in enumerate(row) if j != axis] for row in np.asarray(Q).tolist()])
    return abs(math.prod(row[i] for i, row in enumerate(basis))), min_vector_norm_oracle(np.array(basis))


# ------------------------------------------------------------ bench sweeps


_PROFILE_ORACLES = {
    "gaussian": lambda r2: np.exp(-r2),
    "runge": lambda r2: 1.0 / (1.0 + np.sqrt(r2)),
    "esssing": lambda r2: np.where(r2 > 0, np.exp(-1.0 / np.maximum(r2, 1e-300)), 0.0),
}


def radial_function_oracle(kind: str, center, rotation):
    """``profile(||R x - c||^2)`` with a fresh array per step and a row reduction."""
    profile = _PROFILE_ORACLES[kind]
    R = np.array(rotation, dtype=float)
    c = np.array(center, dtype=float)

    def f(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return profile(((X @ R.T - c) * (X @ R.T - c)).sum(axis=1))

    return f


def _oracle_record(bench, config, family, res, npoints, degree, errs):
    return bench.ErrorRecord(family=family, dim=config.dim, resolution=res, npoints=npoints,
                             euclidean_degree=degree, error_mean=float(errs.mean()),
                             error_std=float(errs.std()), trials=config.trials, seed=config.seed)


def interp_convergence_oracle(config) -> list:
    """`run_interp_convergence` as a family-outer loop.

    Every (family, resolution) draws each trial's rotation from
    ``(seed, t)`` and its Monte Carlo points from ``(seed, t, 1)`` afresh.
    """
    from cheblat import bench, calculus, lattice as lat, transform as tf

    records = []
    for family, resolutions in config.sweep.items():
        for res in resolutions:
            lattice = lat.build(family, config.dim, res)
            plan = tf.plan(lattice)
            errs = np.empty(config.trials)
            for t in range(config.trials):
                R = bench.random_rotation(config.dim, np.random.default_rng([config.seed, t, 0]))
                f = radial_function_oracle(config.kind, config.resolved_center(), R)
                interp = calculus.Interpolant(lattice, tf.forward(plan, f(lattice.points)))
                if config.metric == "l2-grid":
                    per_axis = max(4, int(round(config.sample_budget ** (1.0 / config.dim))))
                    axis = np.linspace(-1.0, 1.0, per_axis)
                    X = np.array(list(itertools.product(axis, repeat=config.dim)))
                else:
                    rng = np.random.default_rng([config.seed, t, 1])
                    X = rng.uniform(-1.0, 1.0, (config.sample_budget, config.dim))
                fx = f(X)
                px = calculus.evaluate(interp, X)
                denom = math.sqrt(float(np.mean(fx * fx))) or 1.0
                errs[t] = math.sqrt(float(np.mean((fx - px) ** 2))) / denom
            records.append(_oracle_record(bench, config, family, res, lattice.npoints,
                                          lattice.euclidean_degree(), errs))
    return records


def quad_convergence_oracle(config) -> list:
    """`run_quad_convergence` as a family-outer loop that builds every rule per trial."""
    from cheblat import bench, calculus, lattice as lat, transform as tf

    rules = {}
    for family, resolutions in config.sweep.items():
        for res in resolutions:
            if family == "gauss-legendre":
                rules[family, res] = (None, res**config.dim, float(2 * res - 1))
            else:
                lattice = lat.build(family, config.dim, res)
                rules[family, res] = (lattice, lattice.npoints, lattice.euclidean_degree())
    ref_order = int(math.ceil(max([1.0] + [d for _, _, d in rules.values()]))) + 12
    fns, refs = [], []
    for t in range(config.trials):
        R = bench.random_rotation(config.dim, np.random.default_rng([config.seed, t, 0]))
        fns.append(radial_function_oracle(config.kind, config.resolved_center(), R))
        refs.append(bench.reference_integral(fns[-1], config.dim, ref_order))
    records = []
    for (family, res), (lattice, npoints, degree) in rules.items():
        errs = np.empty(config.trials)
        for t, (f, ref) in enumerate(zip(fns, refs)):
            if lattice is None:
                nodes, w = calculus.gauss_legendre(res, config.dim)
                val = float(w @ f(nodes))
            else:
                stencil = calculus.quadrature_stencil(tf.plan(lattice))
                val = calculus.integrate(stencil, f(lattice.points))
            errs[t] = abs(val - ref) / max(abs(ref), 1e-30)
        records.append(_oracle_record(bench, config, family, res, npoints, degree, errs))
    return records
