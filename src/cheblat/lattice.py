"""Collocation lattices on ``[-1, 1]^d`` built from integer reciprocal lattices.

A lattice here is a point set in angle space ``[0, pi]^d`` (mapped to the
cube through ``x_i = cos(theta_i)``) that is the restriction of a periodic
lattice on the reflected torus.  Every such point set decomposes into a
small number of shifted Cartesian grids whose axes are the four node
families of :mod:`cheblat.dct`; that decomposition is what makes the fast
transforms possible.

Shipped families:

``cartesian``
    Tensor product of endpoint (``TYPE_I``) grids; resolution is the
    per-axis point count.
``padua``
    The classical bivariate point set ``{(cos(pi j / n), cos(pi i / (n+1))):
    i + j even}``; reciprocal generators ``(n, n+1)`` and ``(n, -(n+1))``.
``hex``
    Near-hexagonal 2d lattice with reciprocal generators ``(8n, 0)`` and
    ``(4n, 7n)``.
``bcc`` / ``fcc``
    Body- and face-centered cubic point lattices; the reciprocal of the
    BCC point lattice is generated by ``n * {(0,1,1), (1,0,1), (1,1,0)}``
    and the reciprocal of the FCC point lattice by
    ``n * {(-1,1,1), (1,-1,1), (1,1,-1)}``.
``composite-oct7``
    Seven-point composite 2d lattice whose unisolvent basis is the union
    of the first seven Brillouin zones of an equal-aspect Cartesian
    reciprocal lattice (an irregular octagon).

Every lattice carries its unisolvent basis: one Chebyshev product index
per collocation point, selected per aliasing group as the lowest Euclidean
norm candidates.  When several mutually aliasing indices share the minimal
norm the basis entry stores their equal-weight sum and the entry is
flagged as a tie combination.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .dct import BoundaryType, grid_spec_from_circle


class LatticeError(ValueError):
    """Raised for invalid lattice parameters or construction failures."""


class Family(str, enum.Enum):
    CARTESIAN = "cartesian"
    PADUA = "padua"
    HEX = "hex"
    BCC = "bcc"
    FCC = "fcc"
    COMPOSITE_OCT7 = "composite-oct7"


_FAMILY_DIMS = {
    Family.CARTESIAN: (1, 2, 3),
    Family.PADUA: (2,),
    Family.HEX: (2,),
    Family.BCC: (3,),
    Family.FCC: (3,),
    Family.COMPOSITE_OCT7: (2,),
}

_MIN_RESOLUTION = {
    Family.CARTESIAN: 2,
    Family.PADUA: 1,
    Family.HEX: 1,
    Family.BCC: 1,
    Family.FCC: 1,
    Family.COMPOSITE_OCT7: 1,
}


@dataclass(frozen=True)
class ReciprocalBasis:
    """Integer reciprocal-lattice generators (rows of ``Q``).

    The real-space generators are the rows of ``P = 2 pi Q^{-T}``, so
    ``P Q^T = 2 pi I`` holds exactly.
    """

    Q: np.ndarray
    scale: int

    def real_basis(self) -> np.ndarray:
        return 2.0 * np.pi * np.linalg.inv(np.asarray(self.Q, dtype=float)).T

    def duality_defect(self) -> Fraction:
        """Max abs deviation of ``P Q^T / (2 pi)`` from identity, exactly."""
        Q = [[int(v) for v in row] for row in np.asarray(self.Q)]
        d = len(Q)
        det = _int_det(Q)
        adj = _int_adjugate(Q)
        # P Q^T = 2 pi Q^{-T} Q^T; Q^{-1} = adj / det
        worst = Fraction(0)
        for i in range(d):
            for j in range(d):
                # (Q^{-T} Q^T)_{ij} = sum_k adj[k][i]/det * Q[j][k]
                val = sum(Fraction(adj[k][i], det) * Q[j][k] for k in range(d))
                worst = max(worst, abs(val - (1 if i == j else 0)))
        return worst


def _int_det(M: list[list[int]]) -> int:
    d = len(M)
    if d == 1:
        return M[0][0]
    if d == 2:
        return M[0][0] * M[1][1] - M[0][1] * M[1][0]
    det = 0
    for j in range(d):
        minor = [[M[r][c] for c in range(d) if c != j] for r in range(1, d)]
        det += (-1) ** j * M[0][j] * _int_det(minor)
    return det


def _int_adjugate(M: list[list[int]]) -> list[list[int]]:
    d = len(M)
    if d == 1:
        return [[1]]
    adj = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            minor = [[M[r][c] for c in range(d) if c != j] for r in range(d) if r != i]
            adj[j][i] = (-1) ** (i + j) * _int_det(minor)
    return adj


@dataclass(frozen=True)
class BasisEntry:
    """One unisolvent basis function: a Chebyshev product index, or an
    equal-weight sum of mutually aliasing indices of the same norm."""

    members: tuple[tuple[int, ...], ...]

    @property
    def canonical(self) -> tuple[int, ...]:
        return self.members[0]

    @property
    def norm2(self) -> int:
        return sum(v * v for v in self.members[0])

    @property
    def degree(self) -> float:
        return math.sqrt(self.norm2)

    @property
    def is_tie(self) -> bool:
        return len(self.members) > 1


@dataclass(frozen=True)
class CartesianSublattice:
    """A shifted tensor grid: per-axis full-circle counts and half-spacing
    shift flags, with the node counts and families they imply."""

    circle_counts: tuple[int, ...]
    shift: tuple[int, ...]  # 1 where the axis is offset by half a spacing
    counts: tuple[int, ...] = field(init=False)
    boundaries: tuple[BoundaryType, ...] = field(init=False)

    def __post_init__(self):
        specs = [grid_spec_from_circle(N, s) for N, s in zip(self.circle_counts, self.shift)]
        object.__setattr__(self, "counts", tuple(n for n, _ in specs))
        object.__setattr__(self, "boundaries", tuple(b for _, b in specs))

    @property
    def offset(self) -> tuple[Fraction, ...]:
        """Per-axis shift as an exact fraction of the grid spacing."""
        return tuple(Fraction(s, 2) for s in self.shift)

    @property
    def npoints(self) -> int:
        return math.prod(self.counts)

    def axis_theta_fractions(self, axis: int) -> list[Fraction]:
        """Node angles along one axis as exact fractions of pi."""
        N = self.circle_counts[axis]
        return [Fraction(self.shift[axis] + 2 * j, N) for j in range(self.counts[axis])]


@dataclass
class ComponentSystem:
    """One mutually aliasing group: lattice-wide DCT slots and the basis
    entries visible on them, with the sampled response matrix."""

    key: tuple[int, ...]
    slots: list[tuple[int, int]]  # (sublattice index, flat grid index)
    entry_ids: list[int]
    response: np.ndarray  # shape (len(slots), len(entry_ids))


def _fold(k: int, N: int) -> int:
    r = k % N
    return r if 2 * r <= N else N - r


def _axis_response(k: int, N: int, shift: int) -> tuple[int, int]:
    """Fold frequency and sampling sign of cos(k theta) on an (N, shift) grid.

    Writing ``k = m N + eps f`` with ``f`` the folded frequency, the grid
    samples equal ``(-1)^(m * shift) cos(f theta)``; the sign is the return
    value, and 0 signals the invisible half-shift top mode ``2f = N``.
    """
    r = k % N
    f = r if 2 * r <= N else N - r
    if shift and 2 * f == N:
        return f, 0
    m = (k - f) // N if r == f else (k + f) // N
    return f, (-1 if (m * shift) % 2 else 1)


def _reciprocal_matrix(family: Family, dim: int, resolution: int) -> np.ndarray:
    n = resolution
    if family is Family.CARTESIAN:
        return np.eye(dim, dtype=np.int64) * 2 * (n - 1)
    if family is Family.PADUA:
        return np.array([[n, n + 1], [n, -(n + 1)]], dtype=np.int64)
    if family is Family.HEX:
        return np.array([[8 * n, 0], [4 * n, 7 * n]], dtype=np.int64)
    if family is Family.BCC:
        return n * np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=np.int64)
    if family is Family.FCC:
        return n * np.array([[-1, 1, 1], [1, -1, 1], [1, 1, -1]], dtype=np.int64)
    if family is Family.COMPOSITE_OCT7:
        return 2 * n * np.eye(2, dtype=np.int64)
    raise LatticeError(f"unknown family {family}")


def _bravais_grids(Q: np.ndarray) -> list[CartesianSublattice]:
    """Decompose the dual of an integer reciprocal lattice into shifted grids.

    Per-axis spacings come from the column gcds of Q; candidate half-shift
    patterns are tested for membership in the dual lattice exactly.
    """
    Qi = [[int(v) for v in row] for row in Q]
    d = len(Qi)
    circle = tuple(math.gcd(*(abs(Qi[r][c]) for r in range(d))) for c in range(d))
    grids = []
    for shift in itertools.product((0, 1), repeat=d):
        # theta/pi = shift_i / N_i must satisfy <q_row, theta> in 2 pi Z
        ok = True
        for row in Qi:
            acc = sum(Fraction(row[i] * shift[i], circle[i]) for i in range(d))
            if acc % 2 != 0:
                ok = False
                break
        if ok:
            grids.append(CartesianSublattice(circle, shift))
    return grids


# Unit-cell residues of the 7-point composite lattice on the quarter grid
# of the translation cell, grouped into maximal shifted Cartesian grids:
# (0,0) corner, the two half-edge points, and the quarter-diagonal quartet
# (which merges into a single half-spacing grid).  Chosen from the
# reflection-closed candidates by the unisolvency sweep.
_OCT7_CELL_RESIDUES = ((0, 0), (2, 0), (0, 2), (1, 1), (1, 3), (3, 1), (3, 3))


def _composite_oct7_grids(resolution: int) -> list[CartesianSublattice]:
    N = 2 * resolution
    return [
        CartesianSublattice((N, N), (0, 0)),
        CartesianSublattice((N, N), (1, 0)),
        CartesianSublattice((N, N), (0, 1)),
        CartesianSublattice((2 * N, 2 * N), (1, 1)),
    ]


class ChebyshevLattice:
    """A collocation lattice with its unisolvent Chebyshev basis.

    Attributes
    ----------
    family, dim, resolution : identification of the construction.
    points : (npoints, dim) float array of collocation points, ordered
        sublattice by sublattice, C-order within each grid.
    basis : list of `BasisEntry`, sorted by (Euclidean degree, canonical
        index); same length as ``points``.
    reciprocal : `ReciprocalBasis`.
    """

    def __init__(self, family: Family, dim: int, resolution: int):
        family = Family(family)
        if dim not in _FAMILY_DIMS[family]:
            raise LatticeError(f"family {family.value} does not support dim {dim}")
        if resolution < _MIN_RESOLUTION[family]:
            raise LatticeError(
                f"resolution {resolution} below minimum "
                f"{_MIN_RESOLUTION[family]} for {family.value}"
            )
        self.family = family
        self.dim = dim
        self.resolution = resolution
        self.reciprocal = ReciprocalBasis(
            Q=_reciprocal_matrix(family, dim, resolution), scale=resolution
        )
        if family is Family.COMPOSITE_OCT7:
            self._grids = _composite_oct7_grids(resolution)
        else:
            self._grids = _bravais_grids(self.reciprocal.Q)
        self._build_points()
        self._build_basis()

    # ------------------------------------------------------------ points

    def _build_points(self) -> None:
        blocks = []
        for g in self._grids:
            axes = [np.array(g.axis_theta_fractions(ax), dtype=float) for ax in range(self.dim)]
            mesh = np.meshgrid(*axes, indexing="ij")
            blocks.append(np.column_stack([m.ravel() for m in mesh]))
        fracs = np.vstack(blocks)
        self.point_thetas = fracs * np.pi
        self.points = np.cos(self.point_thetas)
        self.npoints = fracs.shape[0]
        self._slot_base = np.cumsum([0] + [g.npoints for g in self._grids])

    @property
    def point_fractions(self) -> list[tuple[Fraction, ...]]:
        """Node angles as exact fractions of pi, computed on each access."""
        return [row for g in self._grids
                for row in itertools.product(*map(g.axis_theta_fractions, range(self.dim)))]

    # ------------------------------------------------------------- basis

    def _identity_shift(self, v: tuple[int, ...]) -> bool:
        """True when translating a frequency by v leaves the sampled values
        of the complex exponential unchanged on every sublattice."""
        for g in self._grids:
            parity = 0
            for vi, N, o in zip(v, g.circle_counts, g.shift):
                if vi % N:
                    return False
                parity += (vi // N) * o
            if parity % 2:
                return False
        return True

    def _same_class(self, a: tuple[int, ...], b: tuple[int, ...]) -> bool:
        for signs in itertools.product((1, -1), repeat=self.dim):
            v = tuple(bi - s * ai for ai, bi, s in zip(a, b, signs))
            if self._identity_shift(v):
                return True
        return False

    def _axis_candidates(self, w: int, N: int, vmax: int) -> list[int]:
        vals = set()
        for base in (w % N, (N - w % N) % N):
            v = base
            while v <= vmax:
                vals.add(v)
                v += N
        return sorted(vals)

    def _component_candidates(
        self, key: tuple[int, ...], periods: int
    ) -> tuple[list[tuple[int, ...]], np.ndarray]:
        coarse = self._coarse_N
        axis_vals = [
            np.asarray(
                self._axis_candidates(key[i], coarse[i], periods * coarse[i] + key[i]),
                dtype=np.int64,
            )
            for i in range(self.dim)
        ]
        mesh = np.meshgrid(*axis_vals, indexing="ij")
        cands = np.column_stack([m.ravel() for m in mesh])
        n2 = (cands * cands).sum(axis=1)
        keys = tuple(cands[:, i] for i in range(self.dim - 1, -1, -1)) + (n2,)
        order = np.lexsort(keys)
        return cands[order], n2[order]

    def _entry_response_row(self, members) -> dict[tuple[int, int], int]:
        """Map (sublattice, flat slot) -> summed sampling sign for an entry."""
        out: dict[tuple[int, int], int] = {}
        for member in members:
            for si, g in enumerate(self._grids):
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
                    slot = (si, flat)
                    out[slot] = out.get(slot, 0) + val
        return {k: v for k, v in out.items() if v != 0}

    def _build_basis(self) -> None:
        d = self.dim
        grids = self._grids
        self._coarse_N = tuple(
            math.gcd(*(g.circle_counts[ax] for g in grids)) for ax in range(d)
        )
        # collect slots per coarse aliasing key
        comp_slots: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        for si, g in enumerate(grids):
            sizes = g.counts
            for flat, idx in enumerate(itertools.product(*[range(s) for s in sizes])):
                key = tuple(_fold(idx[ax], self._coarse_N[ax]) for ax in range(d))
                comp_slots.setdefault(key, []).append((si, flat))

        self.components: list[ComponentSystem] = []
        entries: list[BasisEntry] = []
        self.cut_ties: list[tuple[int, ...]] = []

        for key in sorted(comp_slots):
            slots = comp_slots[key]
            need = len(slots)
            chosen = self._select_component_entries(key, slots, need)
            entry_ids = []
            cols = []
            for members in chosen:
                row = self._entry_response_row(members)
                entry_ids.append(len(entries))
                entries.append(BasisEntry(members=tuple(members)))
                col = np.zeros(len(slots))
                for j, slot in enumerate(slots):
                    col[j] = row.get(slot, 0)
                cols.append(col)
            V = np.column_stack(cols) if cols else np.zeros((len(slots), 0))
            if V.shape[0] != V.shape[1]:
                raise LatticeError(
                    f"aliasing group {key}: {V.shape[0]} slots but {V.shape[1]} entries"
                )
            if V.size and abs(np.linalg.det(V)) < 1e-9:
                raise LatticeError(f"aliasing group {key} is numerically singular")
            self.components.append(
                ComponentSystem(key=key, slots=slots, entry_ids=entry_ids, response=V)
            )

        if len(entries) != self.npoints:
            raise LatticeError(
                f"basis cardinality {len(entries)} != point count {self.npoints}"
            )

        # canonical storage order: (Euclidean degree, lexicographic canonical)
        order = sorted(range(len(entries)), key=lambda i: (entries[i].norm2, entries[i].canonical))
        rank = {old: new for new, old in enumerate(order)}
        self.basis = [entries[i] for i in order]
        for comp in self.components:
            comp.entry_ids = [rank[i] for i in comp.entry_ids]

    def _select_component_entries(self, key, slots, need) -> list[list[tuple[int, ...]]]:
        """Pick the `need` lowest-norm alias classes visible on these slots."""
        for periods in (2, 3, 5):
            cand_rows, norms = self._component_candidates(key, periods)
            classes: list[dict] = []  # {"members": [...], "norm2": int, "visible": bool}
            closed = False
            for row, n2 in zip(cand_rows, norms):
                cand = tuple(map(int, row))
                n2 = int(n2)
                placed = False
                for cl in classes:
                    if self._same_class(cl["members"][0], cand):
                        if n2 == cl["norm2"] and cand not in cl["members"]:
                            cl["members"].append(cand)
                        placed = True
                        break
                if not placed:
                    visible = bool(self._entry_response_row([cand]))
                    classes.append({"members": [cand], "norm2": n2, "visible": visible})
                vis = [cl for cl in classes if cl["visible"]]
                if len(vis) >= need and n2 > vis[need - 1]["norm2"]:
                    closed = True
                    break
            vis = [cl for cl in classes if cl["visible"]]
            if len(vis) >= need and closed:
                if len(vis) > need and vis[need - 1]["norm2"] == vis[need]["norm2"]:
                    self.cut_ties.append(key)
                return [sorted(cl["members"]) for cl in vis[:need]]
        raise LatticeError(f"could not close aliasing group {key}")

    # ----------------------------------------------------------- queries

    def sublattices(self) -> list[CartesianSublattice]:
        return list(self._grids)

    @property
    def cell_point_count(self) -> int:
        """Points per unit cell of the translation lattice (1 for Cartesian,
        2^m for Bravais unions, 7 for the composite octagonal lattice)."""
        if self.family is Family.COMPOSITE_OCT7:
            return 7
        return len(self._grids)

    def basis_array(self) -> np.ndarray:
        """Canonical indices as an (nbasis, dim) int array."""
        return np.array([e.canonical for e in self.basis], dtype=np.int64)

    def basis_member_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """All member indices stacked, plus the owning entry of each row."""
        members = []
        owners = []
        for i, e in enumerate(self.basis):
            for m in e.members:
                members.append(m)
                owners.append(i)
        return np.array(members, dtype=np.int64), np.array(owners, dtype=np.int64)

    def basis_matrix(self, thetas: np.ndarray) -> np.ndarray:
        """Values of every basis function at angle-space points.

        ``thetas`` has shape (npts, dim); tie combinations evaluate as the
        sum of their members.  Returns shape (npts, nbasis).
        """
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        members, owners = self.basis_member_matrix()
        vals = np.ones((thetas.shape[0], len(members)))
        for ax in range(self.dim):
            vals *= np.cos(np.outer(thetas[:, ax], members[:, ax]))
        starts = np.flatnonzero(np.r_[True, owners[1:] != owners[:-1]])
        return np.add.reduceat(vals, starts, axis=1)

    def basis_index_of(self, k) -> int | None:
        """Position of the entry whose class contains folded index k."""
        if not hasattr(self, "_basis_lookup"):
            lookup = {}
            for i, e in enumerate(self.basis):
                for m in e.members:
                    lookup[m] = i
            self._basis_lookup = lookup
        return self._basis_lookup.get(tuple(int(v) for v in k))

    def euclidean_degree(self) -> float:
        """Inscribed-ball radius of the basis index region."""
        if self.family is Family.COMPOSITE_OCT7:
            return math.sqrt(2.0) * 2 * self.resolution
        return 0.5 * _min_vector_norm(self.reciprocal.Q)


def _min_vector_norm(Q: np.ndarray, zmax: int = 3) -> float:
    """Norm of the shortest nonzero integer combination of the rows of Q."""
    d = Q.shape[0]
    best = np.inf
    for z in itertools.product(range(-zmax, zmax + 1), repeat=d):
        if all(v == 0 for v in z):
            continue
        vec = np.asarray(z) @ np.asarray(Q, dtype=float)
        best = min(best, float(np.linalg.norm(vec)))
    return best


def build(family: Family | str, dim: int, resolution: int) -> ChebyshevLattice:
    """Construct a fully populated lattice.

    Raises
    ------
    LatticeError
        If the (family, dim) pair is unsupported, the resolution is below
        the family minimum, or the unisolvency bookkeeping fails.
    """
    return ChebyshevLattice(Family(family), dim, resolution)


def reciprocal_basis(lattice: ChebyshevLattice) -> ReciprocalBasis:
    return lattice.reciprocal


def decompose(lattice: ChebyshevLattice) -> list[CartesianSublattice]:
    """The lattice's disjoint shifted Cartesian grids.

    Bravais families decompose into ``2^m`` grids with ``m <= dim - 1``;
    the composite octagonal lattice yields its four maximal grids (seven
    points per unit cell, see `ChebyshevLattice.cell_point_count`).
    """
    return lattice.sublattices()


def basis_indices(lattice: ChebyshevLattice) -> list[BasisEntry]:
    return list(lattice.basis)


def aliasing_class(lattice: ChebyshevLattice, k) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """Canonical representative and low-order members of the class of ``k``.

    Members are the folded non-negative images of ``k`` under the
    lattice's aliasing translations and sign reflections, listed up to the
    norm of ``k`` itself (so the canonical minimum always appears first).
    """
    k = tuple(int(v) for v in k)
    norm2_k = sum(v * v for v in k)
    vmax = int(math.isqrt(norm2_k)) + 1
    found = []
    for cand in itertools.product(range(vmax + 1), repeat=lattice.dim):
        if sum(v * v for v in cand) > norm2_k:
            continue
        if lattice._same_class(k, cand):
            found.append(cand)
    members = sorted(found, key=lambda t: (sum(v * v for v in t), t))
    if not members:
        members = [k]
    return members[0], members


def brillouin_union(recip: ReciprocalBasis, m: int, radius_hint: float | None = None):
    """Integer frequencies whose norm ranks within the first ``m`` Brillouin
    zones of the reciprocal lattice, restricted to the non-negative orthant.

    Returns ``(indices, tie_flags)``: ``tie_flags[i]`` marks points lying on
    a zone boundary (their rank is ambiguous by exactly the tie count).
    """
    if m < 1:
        raise LatticeError("zone count must be >= 1")
    Q = np.asarray(recip.Q, dtype=np.int64)
    d = Q.shape[0]
    # enough reciprocal elements to rank everything inside the hint radius
    if radius_hint is None:
        radius_hint = (m ** (1.0 / d) + 1.5) * _min_vector_norm(Q)
    ells = _lattice_elements_within(Q, 2.0 * radius_hint + 1.0)
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


def _lattice_elements_within(Q: np.ndarray, radius: float) -> np.ndarray:
    d = Q.shape[0]
    inv_norm = np.linalg.norm(np.linalg.inv(Q.astype(float).T), ord=2)
    zmax = int(math.ceil(radius * inv_norm)) + 1
    zs = np.array(list(itertools.product(range(-zmax, zmax + 1), repeat=d)), dtype=np.int64)
    ells = zs @ Q
    keep = (ells.astype(float) ** 2).sum(axis=1) <= radius * radius
    return ells[keep].astype(float)


def _ball_volume(d: int, r: float) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) * r**d


def efficiency(lattice: ChebyshevLattice) -> float:
    """Euclidean-degree efficiency: inscribed-ball volume of the basis
    region over the reciprocal cell volume (points per ``2^d`` cube).

    Computed from the infinite-lattice density, so the value is free of
    finite-size boundary corrections and matches the closed forms
    ``pi/4``, ``pi/6``, ``2 pi/7``, ``pi/(3 sqrt 2)`` and
    ``pi sqrt(3)/8`` for the Cartesian 2d/3d, hex, BCC and FCC families.
    """
    d = lattice.dim
    Q = lattice.reciprocal.Q
    det = abs(_int_det([[int(v) for v in row] for row in Q]))
    if lattice.family is Family.COMPOSITE_OCT7:
        # seven points per translation cell: full-torus density 7 |det Q|
        r = lattice.euclidean_degree()
        return _ball_volume(d, r) / (7.0 * det)
    r = 0.5 * _min_vector_norm(Q)
    return _ball_volume(d, r) / det


def _projected_reciprocal(Q: np.ndarray, axis: int) -> np.ndarray:
    """Basis of the reciprocal lattice projected along one coordinate."""
    rows = [[int(v) for j, v in enumerate(row) if j != axis] for row in Q]
    return _hnf_basis(rows)


def _hnf_basis(rows: list[list[int]]) -> np.ndarray:
    """Reduce integer generators to a square triangular basis by gcd steps."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        raise LatticeError("projected lattice is rank deficient")
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
        nonzero = [r for r in rows if r[pivot] != 0]
        if not nonzero:
            raise LatticeError("projected lattice is rank deficient")
        piv = nonzero[0]
        basis.append(list(piv))
        rows = [r for r in rows if r is not piv and any(r)]
    return np.array(basis, dtype=np.int64)


def boundary_efficiency(lattice: ChebyshevLattice, axis: int = -1) -> float:
    """Euclidean-degree efficiency of the lattice induced on a boundary face.

    The face point set ``{theta_axis = 0}`` is itself a Chebyshev lattice
    in ``d - 1`` dimensions; its reciprocal is the projection of the full
    reciprocal lattice along the chosen axis, and the same packing formula
    as `efficiency` applies.  One-dimensional faces always give 1.
    """
    if lattice.dim < 2:
        raise LatticeError("boundary efficiency needs dim >= 2")
    axis = axis % lattice.dim
    if lattice.family is Family.COMPOSITE_OCT7:
        Qf = np.array([[2 * lattice.resolution]], dtype=np.int64)
    else:
        Qf = _projected_reciprocal(lattice.reciprocal.Q, axis)
    d = lattice.dim - 1
    det = abs(_int_det([[int(v) for v in row] for row in Qf]))
    r = 0.5 * _min_vector_norm(Qf)
    return _ball_volume(d, r) / det


def boundary_degree(lattice: ChebyshevLattice, axis: int = -1) -> int:
    """Largest ``k`` such that all face frequencies ``0..k`` appear in the
    basis projected along the axis (the boundary-resolvable degree)."""
    axis = axis % lattice.dim
    proj = set()
    for e in lattice.basis:
        for m in e.members:
            proj.add(tuple(v for i, v in enumerate(m) if i != axis))
    k = 0
    while True:
        probe = (k + 1,) + (0,) * (lattice.dim - 2)
        if probe not in proj:
            return k
        k += 1


def degree_config(family: Family | str, dim: int, degree: float) -> int:
    """Smallest resolution whose basis region contains the ball of the
    given Euclidean degree."""
    family = Family(family)
    res = _MIN_RESOLUTION[family]
    while res < 10_000:
        lat_r = _cheap_degree(family, dim, res)
        if lat_r >= degree - 1e-9:
            return res
        res += 1
    raise LatticeError("no resolution found for requested degree")


def _cheap_degree(family: Family, dim: int, res: int) -> float:
    if family is Family.COMPOSITE_OCT7:
        return math.sqrt(2.0) * 2 * res
    return 0.5 * _min_vector_norm(_reciprocal_matrix(family, dim, res))


# ------------------------------------------------------------------ JSON


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _json_value(obj) -> str:
    if isinstance(obj, str):
        import json as _json

        return _json.dumps(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if isinstance(obj, Fraction):
        return _fmt_float(float(obj))
    if isinstance(obj, dict):
        items = ", ".join(f"{_json_value(k)}: {_json_value(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_json_value(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)}")


def lattice_descriptor(lattice: ChebyshevLattice) -> str:
    """JSON descriptor with fixed field order and 17-significant-digit floats.

    Tie-combination entries list their canonical index in ``basis``; the
    full member sets appear under the trailing ``ties`` field.
    """
    subs = []
    for s in lattice.sublattices():
        subs.append(
            {
                "counts": list(s.counts),
                "boundaries": [b.value for b in s.boundaries],
                "offset": [float(o) for o in s.offset],
            }
        )
    doc = {
        "family": lattice.family.value,
        "dim": lattice.dim,
        "resolution": lattice.resolution,
        "npoints": lattice.npoints,
        "basis": [list(e.canonical) for e in lattice.basis],
        "points": [list(map(float, row)) for row in lattice.points],
        "sublattices": subs,
        "ties": [
            {"entry": i, "members": [list(m) for m in e.members]}
            for i, e in enumerate(lattice.basis)
            if e.is_tie
        ],
    }
    return _json_value(doc)
