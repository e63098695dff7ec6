"""Collocation lattices on ``[-1, 1]^d`` built from integer reciprocal lattices.

A lattice here is a point set in angle space ``[0, pi]^d`` (mapped to the
cube through ``x_i = cos(theta_i)``) that is the restriction of a periodic
lattice on the reflected torus.  Every such point set decomposes into a
small number of shifted Cartesian grids whose axes are the four node
families of :mod:`cheblat.dct`; that decomposition, which `decompose`
returns, is what makes the fast transforms possible.  A lattice keeps its
reciprocal generators as the read-only integer matrix ``lattice.reciprocal.Q``.

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

Aliasing classes have exact integer keys.  A frequency shift ``v`` leaves
the samples of grid ``g`` (circle counts ``N_g``, half shifts ``s_g``)
unchanged when every ``v_a`` is a multiple of ``N_{g,a}`` and
``sum_a (v_a / N_{g,a}) s_{g,a}`` is even; the shifts that do so on every
grid form a reflection-invariant lattice ``L`` (the Brillouin-zone view of
Conway & Sloane, *Sphere Packings, Lattices and Groups*).  With ``M_a`` the
lcm of the grids' ``N_{g,a}``, the key of ``v`` is ``v mod M`` per axis
followed by one parity bit ``sum_a floor(v_a / N_{g,a}) s_{g,a} mod 2`` per
grid: two vectors share it exactly when they differ by an element of
``L``, and the minimum key over the sign flips of ``k`` is the class id of
``k``.  Since ``2 M Z^d`` lies in ``L``, replacing a coordinate
``k_a > M_a`` by ``2 M_a - k_a`` stays in the class and lowers the norm, so
every lowest-norm member of every class lies in the box
``[0, M_1] x ... x [0, M_d]``.  The basis is built from that box alone:
one sort of the box's class keys, with the index in their low bits, groups
it by class in index order, and a class's least (norm, index) member names
it.  Boxes are capped at ``2^21`` indices, which bounds a build's memory.
"""

from __future__ import annotations

import enum
import itertools
import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .dct import BoundaryType, _numerators, grid_spec_from_circle


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
    """Integer reciprocal-lattice generators (rows of ``Q``); the point
    lattice's real-space generators are the rows of ``P = 2 pi Q^{-T}``."""

    Q: np.ndarray


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


@dataclass(frozen=True, slots=True)
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
    def npoints(self) -> int:
        return math.prod(self.counts)


@dataclass(frozen=True)
class AliasingBlock:
    """One distinct aliasing response and every group that has it.

    Columns of ``slots`` and ``entries``, and rows of ``keys``, run over
    the groups in key order.  All arrays are read-only.
    """

    # integer, shape (n, n): entry [row, col] sums the +-1 sampling signs of
    # the col-th entry's members on the row-th slot
    V: np.ndarray
    slots: np.ndarray  # (n, ngroups) lattice-wide flat slot indices
    entries: np.ndarray  # (n, ngroups) basis positions
    keys: np.ndarray  # (ngroups, dim) group keys


class _BasisView(Sequence):
    """Read-only sequence of `BasisEntry` over member rows and entry offsets.

    Each access builds fresh entries; nothing is cached.
    """

    __slots__ = ("_members", "_starts")

    def __init__(self, members: np.ndarray, starts: np.ndarray):
        self._members, self._starts = members, starts

    def __len__(self) -> int:
        return len(self._starts) - 1

    def __getitem__(self, i):
        at = range(len(self))[i]  # checks and normalises ``i``
        if isinstance(at, range):
            return [self[j] for j in at]
        rows = self._members[self._starts[at]:self._starts[at + 1]].tolist()
        return BasisEntry(members=tuple(map(tuple, rows)))

    def __iter__(self):
        rows = zip(*(col.tolist() for col in self._members.T))
        for n in np.diff(self._starts).tolist():
            yield BasisEntry(members=tuple(itertools.islice(rows, n)))


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

    Per-axis circle counts ``N`` are the column gcds of Q; a half-shift
    pattern ``s`` is in the dual lattice when ``<q, s / N>`` is even for
    every row ``q``, an integer since ``N`` divides the columns.
    """
    circle = tuple(math.gcd(*col) for col in Q.T.tolist())
    steps = Q // np.array(circle)
    return [CartesianSublattice(circle, s) for s in itertools.product((0, 1), repeat=len(circle))
            if not (steps @ s % 2).any()]


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


# A build holds a few arrays over the frequency box ``[0, M_1] x ... x [0, M_d]``
# at once.  Its tracemalloc peak measured about 55 to 175 bytes per box index
# over the six families (fcc the most), so at this cap it stays below 400 MB,
# inside 1 GiB.  The cap also keeps every sort key of the build below 2^63 (see
# `ChebyshevLattice._class_keys` and `_box_classes`).
_MAX_BOX = 1 << 21


def _box_shape(grids: Sequence[CartesianSublattice]) -> tuple[int, ...]:
    """The frequency box ``[0, M_1] x ... x [0, M_d]`` as an array shape,
    ``M_a`` the lcm of the grids' circle counts on axis ``a``."""
    return tuple(math.lcm(*col) + 1 for col in zip(*(g.circle_counts for g in grids)))


def _box_norm2(shape: tuple[int, ...]) -> np.ndarray:
    """Squared norm of every index of the box ``[0, shape)``, in C order."""
    return sum(np.ix_(*[np.arange(n) ** 2 for n in shape])).ravel()


def _family(family) -> Family:
    """``family`` as a `Family`; anything else raises `LatticeError`."""
    try:
        return Family(family)
    except ValueError:
        raise LatticeError(f"unknown family {family!r}; valid families are "
                           f"{', '.join(f.value for f in Family)}") from None


def _integer(name: str, value) -> int:
    """``value`` as a Python int; bools and non-integers raise `LatticeError`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise LatticeError(f"{name} must be an integer, not {value!r}")
    return int(value)


def _sort_pairs(major: np.ndarray, minor: np.ndarray, radix: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs ``(major, minor)`` in sorted order, as two arrays.

    With ``minor`` in ``[0, radix)`` one sort of ``major * radix + minor``
    does it.  Under the build cap both lie below 2^21, so the key fits.
    """
    return np.divmod(np.sort(major * radix + minor), radix)


def _mix(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer: a fixed, well-spread map of uint64 to uint64."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _blocks(response, slot_order, entry_order, keys, need) -> tuple[AliasingBlock, ...]:
    """The distinct response blocks, numbered by their first group.

    ``response`` holds every group's block flattened one after another;
    ``slot_order`` and ``entry_order`` list each group's slots and entries
    in turn.  Each group gets one 64-bit hash, a wrapping sum of its size
    and entries times fixed weights, and groups are deduplicated on the
    hashes.  Every group is then checked entry by entry against the first
    group of its block, so unequal responses are never merged: a hash
    collision raises `LatticeError`, as does a singular block.
    """
    size = need * need
    group_at = np.cumsum(need) - need
    block_at = np.cumsum(size) - size
    within = np.arange(len(response)) - np.repeat(block_at, size)
    weights = _mix(np.arange(1, size.max() + 2, dtype=np.uint64))  # _mix(0) is 0
    hashes = weights[0] * need.astype(np.uint64) + np.add.reduceat(
        weights[within + 1] * response.astype(np.uint64), block_at)
    _, first, which = np.unique(hashes, return_index=True, return_inverse=True)
    rep = first[which]  # the first group of each group's block
    bad = np.flatnonzero(need[rep] != need)
    if not bad.size:
        bad = np.flatnonzero(~np.logical_and.reduceat(
            response == response[np.repeat(block_at[rep], size) + within], block_at))
    if bad.size:
        raise LatticeError(f"aliasing groups {tuple(keys[rep[bad[0]]].tolist())} and "
                           f"{tuple(keys[bad[0]].tolist())} have unequal responses of equal hash")
    order = np.argsort(first)
    first, sizes = first[order], need[first[order]]
    number = np.empty_like(order)
    number[order] = np.arange(len(order))
    # Responses are integer, so a nonsingular one has |det| >= 1.  A lattice
    # has at most 21 distinct blocks, each at most 7x7 with entries of
    # absolute value at most 3 (composite-oct7), so |det| <= (3 sqrt 7)^7
    # < 2.1e6 (Hadamard) and the LU rounding error stays below 1e-6: the
    # test below is exact.  Padding a block with the identity keeps its det.
    padded = np.tile(np.eye(sizes.max()), (len(first), 1, 1))
    for V, at, k in zip(padded, block_at[first].tolist(), sizes.tolist()):
        V[:k, :k] = response[at:at + k * k].reshape(k, k)
    singular = np.flatnonzero(np.abs(np.linalg.det(padded)) < 0.5)
    if singular.size:
        raise LatticeError(f"aliasing group {tuple(keys[first[singular[0]]].tolist())} is singular")
    _, groups = _sort_pairs(number[which], np.arange(len(need)), len(need))  # block by block
    n = need[groups]
    at = np.repeat(group_at[groups] - np.cumsum(n) + n, n) + np.arange(n.sum())
    slots, entries, keys = slot_order[at], entry_order[at], keys[groups]
    for a in (slots, entries, keys):
        a.flags.writeable = False
    count = np.bincount(number[which])  # groups per block
    cut = np.cumsum(count * sizes)[:-1]
    return tuple(AliasingBlock(V=response[at:at + k * k].reshape(k, k), slots=s.reshape(-1, k).T,
                               entries=e.reshape(-1, k).T, keys=q)
                 for k, at, s, e, q in zip(sizes.tolist(), block_at[first].tolist(),
                                           np.split(slots, cut), np.split(entries, cut),
                                           np.split(keys, np.cumsum(count)[:-1])))


class ChebyshevLattice:
    """A collocation lattice with its unisolvent Chebyshev basis.

    Attributes
    ----------
    family, dim, resolution : identification of the construction.
    points : (npoints, dim) float array of collocation points, ordered
        sublattice by sublattice, C-order within each grid.
    basis : read-only sequence of `BasisEntry`, sorted by (Euclidean
        degree, canonical index); same length as ``points``.
    blocks : tuple of `AliasingBlock`, the distinct aliasing responses in
        the order of their first group.
    cut_ties : keys of the groups whose cut falls between tied classes.
    reciprocal : `ReciprocalBasis`, whose ``Q`` is read-only.
    """

    def __init__(self, family: Family, dim: int, resolution: int):
        family = _family(family)
        dim, resolution = _integer("dim", dim), _integer("resolution", resolution)
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
        self.reciprocal = ReciprocalBasis(Q=_reciprocal_matrix(family, dim, resolution))
        self.reciprocal.Q.flags.writeable = False
        if family is Family.COMPOSITE_OCT7:
            self._grids = _composite_oct7_grids(resolution)
        else:
            self._grids = _bravais_grids(self.reciprocal.Q)
        box = math.prod(_box_shape(self._grids))
        if box > _MAX_BOX:
            raise LatticeError(
                f"{family.value} resolution {resolution} has "
                f"{sum(g.npoints for g in self._grids)} points and a frequency box of "
                f"{box} indices, over the build cap of {_MAX_BOX} box indices"
            )
        self._build_points()
        self._build_basis()

    # ------------------------------------------------------------ points

    def _build_points(self) -> None:
        blocks = []
        for g in self._grids:
            axes = [p / N for p, N in map(_numerators, g.counts, g.boundaries)]  # theta / pi
            mesh = np.meshgrid(*axes, indexing="ij")
            blocks.append(np.column_stack([m.ravel() for m in mesh]))
        fracs = np.vstack(blocks)
        self.point_thetas = fracs * np.pi
        self.points = np.cos(self.point_thetas)
        self.npoints = fracs.shape[0]
        self._slot_base = np.cumsum([0] + [g.npoints for g in self._grids])
        for a in (self.point_thetas, self.points, self._slot_base):
            a.flags.writeable = False

    # ------------------------------------------------------------- basis

    def _class_keys(self) -> tuple[np.ndarray, int]:
        """Alias-class id of every index of the build box ``[0, M_1] x ... x
        [0, M_d]``, above its index.

        Returns ``(keys, shift)``: ``keys`` in C order, each ``id << shift``
        plus the index's C-order position, so ``keys >> shift`` are the ids.
        The coset key of ``v`` is ``v_a mod M_a`` per axis (mixed radix,
        axis 0 most significant) followed by one parity bit per grid,
        ``sum_a floor(v_a / N_a) shift_a mod 2``.  Two vectors share it
        exactly when their difference shifts no sample of any grid.  Those
        shifts form a reflection-invariant lattice, so the key's minimum over
        the sign flips of ``v`` names the class of ``v``: that is the id.

        The minimum is found axis by axis.  Where ``v_a mod M_a`` and
        ``-v_a mod M_a`` differ, the smaller one fixes the sign of axis
        ``a``.  Each axis gives one 1-d array of residue, parity and position
        terms, and the keys are their broadcast sum; a grid's parity field
        holds the sum of ``dim`` bits, and only its low bit is kept.  Where
        the residues agree (``2 v_a = 0 mod M_a``) the sign reaches only the
        parity bits: the bit of each grid shifted on axis ``a`` whose ``N_a``
        does not divide ``v_a``, so only on the planes ``v_a = M_a / 2 mod
        M_a``.  There the keys take the least parity over the free signs, one
        set of free axes at a time.

        Under the build cap the keys stay below 2^58: at most 21 bits of
        index, 21 of residues (``prod(M_a // 2 + 1)`` is at most the box
        size) and two per grid, of which there are at most ``2^dim``.
        """
        circle = np.array([g.circle_counts for g in self._grids]).T[:, :, None]
        shifts = np.array([g.shift for g in self._grids]).T[:, :, None]
        width = self.dim.bit_length()
        shift = (math.prod(self._box) - 1).bit_length()
        bit = 1 << (shift + width * np.arange(len(self._grids), dtype=np.int64)[:, None])
        keys, flips = np.zeros((), dtype=np.int64), {}
        radix, stride = 1 << (shift + width * len(self._grids)), 1
        for a in reversed(range(self.dim)):
            v, M = np.arange(self._box[a]), self._box[a] - 1
            up, down = v % M, -v % M
            par = np.where(down < up, -v, v) // circle[a] * shifts[a] & 1
            keys = ((np.minimum(up, down) * radix + (par * bit).sum(axis=0) + v * stride)
                    .reshape((-1,) + (1,) * keys.ndim) + keys)
            if M % 2 == 0 and (flip := int((shifts[a] * bit * (M // 2 % circle[a] != 0)).sum())):
                flips[a] = flip
            radix, stride = radix * (M // 2 + 1), stride * self._box[a]
        keys &= ~(((1 << width) - 2) * bit).sum()
        fixes = []
        for axes in itertools.chain.from_iterable(
                itertools.combinations(flips, k) for k in range(1, len(flips) + 1)):
            at = tuple(slice((n - 1) // 2, None, n - 1) if a in axes else slice(None)
                       for a, n in enumerate(self._box))
            fixes.append((at, keys[at] ^ np.bitwise_xor.reduce([flips[a] for a in axes])))
        for at, flipped in fixes:  # each from the keys before any fix
            np.minimum(keys[at], flipped, out=keys[at])
        return keys.ravel(), shift

    def _box_classes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The alias classes met in the box, numbered by their first member.

        One sort of the class keys brings each class's members together in
        box-index order; the box index is the C-order position in the box,
        so it orders members lexicographically.  A class's first member is
        its least (norm, box index), and classes are numbered in that order.
        Returns the box index and squared norm of each class's first member,
        and the box index and class number of every member of lowest norm,
        class by class.
        """
        size = math.prod(self._box)
        keys, shift = self._class_keys()
        keys.sort()
        index = keys & ((1 << shift) - 1)
        starts = np.flatnonzero(np.diff(keys >> shift, prepend=-1))
        norm2 = _box_norm2(self._box)[index]
        # The (norm^2, index) key fits in int64: norm^2 <= sum_a M_a^2 < size^2,
        # since size = prod_a (M_a + 1) > sum_a M_a, so the key is below
        # size^3 <= 2^63 for a box under the build cap of 2^21 indices.
        first = np.minimum.reduceat(norm2 * size + index, starts)
        lowest = np.flatnonzero(norm2 == np.repeat(first // size, np.diff(starts, append=size)))
        order = np.argsort(first)
        number = np.empty_like(order)
        number[order] = np.arange(len(order))
        first_norm2, first = np.divmod(first[order], size)
        cls = np.searchsorted(starts, lowest, side="right") - 1
        return first, first_norm2, index[lowest], number[cls]

    def _axis_tables(self, coarse: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per axis, the terms every frequency ``v`` in ``[0, M_a]`` contributes.

        Returns one ``(code, flat, sign)`` per axis.  ``code`` is ``v``'s term
        of the mixed-radix group code, its fold ``min(v mod c, c - v mod c)``
        for ``c`` the axis's ``coarse``.  ``flat`` and ``sign`` have one row
        per grid.  Writing ``v = m N + eps f`` with ``f`` the folded
        frequency, an ``(N, shift)`` axis samples ``(-1)^(m shift) cos(f
        theta)``: ``flat`` is ``f`` times the grid's C-order stride, and
        ``sign`` is ``(-1)^(m shift)``, or 0 where ``f`` reaches no node
        (the half-shift top mode ``2f = N``).
        """
        circle = np.array([g.circle_counts for g in self._grids])
        shifts = np.array([g.shift for g in self._grids])
        counts = np.array([g.counts for g in self._grids])
        strides = (np.cumprod(counts[:, ::-1], axis=1)[:, ::-1] // counts)[:, :, None]
        radix = np.cumprod((coarse // 2 + 1)[::-1])[::-1] // (coarse // 2 + 1)
        tables = []
        for a, c in enumerate(coarse.tolist()):
            v, N = np.arange(self._box[a]), circle[:, a, None]
            r, rc = v % N, v % c
            f = np.minimum(r, N - r)
            seen = f < counts[:, a, None]
            odd = (v // N + (r != f)) * shifts[:, a, None] & 1
            tables.append((np.minimum(rc, c - rc) * radix[a], np.where(seen, f * strides[:, a], 0),
                           np.where(seen, 1 - 2 * odd, 0)))
        return tables

    def _slot_groups(self, coarse, tables) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Code and slot count of each aliasing group, the slots group by group,
        and the group of every code.

        A slot's group key is its per-axis fold modulo ``coarse``; a group's
        slots keep their (grid, flat) order.  Codes lie below ``prod(coarse
        // 2 + 1)``, so the groups are counted, not sorted.
        """
        slot_codes = np.concatenate([
            sum(np.ix_(*[code[:n] for (code, _, _), n in zip(tables, g.counts)])).ravel()
            for g in self._grids])
        count = np.bincount(slot_codes, minlength=math.prod(coarse // 2 + 1))
        codes = np.flatnonzero(count)
        _, slot_order = _sort_pairs(slot_codes, np.arange(len(slot_codes)), len(slot_codes))
        return codes, count[codes], slot_order, np.cumsum(count > 0) - 1

    def _select_entries(self, tables, group_of, keys, need):
        """The ``need`` lowest-norm visible classes of each group, as entries.

        Classes are ranked within their group by (norm, canonical index),
        which is also the basis order.  A class is visible when some grid
        samples its first member.  Returns every entry member's box index
        and entry (members lexicographic within an entry), the entries
        group by group, and the groups whose cut falls between tied classes.
        """
        first, first_norm2, lowest, lowest_cls = self._box_classes()
        reps = np.unravel_index(first, self._box)
        seen = True
        for k, (_, _, sign) in zip(reps, tables):
            seen = seen & (sign.take(k, axis=1) != 0)
        visible = np.flatnonzero(seen.any(axis=0))
        group = group_of[sum(code[k[visible]] for k, (code, _, _) in zip(reps, tables))]
        nclasses = len(first)
        group, visible = _sort_pairs(group, visible, nclasses)
        nvis = np.bincount(group, minlength=len(need))
        short = np.flatnonzero(nvis < need)
        if short.size:
            raise LatticeError(f"could not close aliasing group {tuple(keys[short[0]].tolist())}")
        rank = np.arange(len(visible)) - np.repeat(np.cumsum(nvis) - nvis, nvis)
        # a cut tie: the first class left out has the norm of the last one taken
        cut = np.flatnonzero(rank == need[group])
        cut = cut[first_norm2[visible[cut]] == first_norm2[visible[cut - 1]]]

        taken = rank < need[group]
        entry_of = np.full(nclasses, -1)
        entry_of[np.sort(visible[taken])] = np.arange(self.npoints)
        owners = entry_of[lowest_cls]
        kept = owners >= 0
        owners, members = _sort_pairs(owners[kept], lowest[kept], math.prod(self._box))
        return members, owners, entry_of[visible[taken]], group[cut]

    def _responses(self, members, owners, slot_order, entry_order, need, tables) -> np.ndarray:
        """Every group's response matrix, flattened one after another.

        ``slot_order`` and ``entry_order`` list each group's slots and
        entries in turn; positions within a group are rows and columns.
        ``response[row, col]`` sums the sampling signs of the entry's members,
        gathered per grid from the axis tables (the slot of an unsampled,
        sign 0, pair lies in its grid but means nothing).
        """
        size = need * need
        group = np.repeat(np.arange(len(need)), need)
        within = np.arange(len(group)) - np.repeat(np.cumsum(need) - need, need)
        row_at, col_at = np.empty_like(within), np.empty_like(within)
        row_at[slot_order] = within * need[group]
        col_at[entry_order] = (np.cumsum(size) - size)[group] + within
        slots, signs = self._slot_base[:-1, None], 1
        for k, (_, flat, sign) in zip(members.T, tables):
            slots = slots + flat.take(k, axis=1)
            signs = signs * sign.take(k, axis=1)
        hit = signs != 0
        response = np.bincount((col_at[owners] + row_at[slots])[hit], weights=signs[hit],
                               minlength=size.sum()).astype(np.int64)
        response.flags.writeable = False
        return response

    def _build_basis(self) -> None:
        """Give every aliasing group its lowest-norm visible classes, all at once.

        Slots are grouped by their folded frequency modulo ``coarse``, the
        per-axis gcd of the grids' circle counts; a whole alias class folds
        into one group.  A group of ``need`` slots takes its ``need`` visible
        classes of lowest (norm, canonical index) as basis entries.
        """
        coarse = np.gcd.reduce([g.circle_counts for g in self._grids], axis=0)
        self._box = _box_shape(self._grids)
        tables = self._axis_tables(coarse)

        codes, need, slot_order, group_of = self._slot_groups(coarse, tables)
        keys = np.column_stack(np.unravel_index(codes, coarse // 2 + 1))
        member_codes, owners, entry_order, cut = self._select_entries(tables, group_of, keys, need)
        self.cut_ties = list(map(tuple, keys[cut].tolist()))
        members = np.column_stack(np.unravel_index(member_codes, self._box))
        response = self._responses(members, owners, slot_order, entry_order, need, tables)
        self.blocks = _blocks(response, slot_order, entry_order, keys, need)

        self._members, self._owners = members, owners
        self._entry_starts = np.searchsorted(owners, np.arange(self.npoints + 1))
        self._member_codes, self._code_owners = _sort_pairs(member_codes, owners, self.npoints)
        for a in (self._members, self._owners, self._entry_starts, self._member_codes,
                  self._code_owners):
            a.flags.writeable = False
        self.basis = _BasisView(self._members, self._entry_starts)

    # ----------------------------------------------------------- queries

    @property
    def cell_point_count(self) -> int:
        """Points per unit cell of the translation lattice (1 for Cartesian,
        2^m for Bravais unions, 7 for the composite octagonal lattice)."""
        if self.family is Family.COMPOSITE_OCT7:
            return 7
        return len(self._grids)

    def basis_member_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """All member indices stacked, plus the owning entry of each row.

        Both arrays are the lattice's own and read-only.
        """
        return self._members, self._owners

    def basis_matrix(self, thetas: np.ndarray) -> np.ndarray:
        """Values of every basis function at angle-space points.

        ``thetas`` has shape (npts, dim); tie combinations evaluate as the
        sum of their members.  Returns shape (npts, nbasis).
        """
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        members = self._members
        vals = np.ones((thetas.shape[0], len(members)))
        for ax in range(self.dim):
            vals *= np.cos(np.outer(thetas[:, ax], members[:, ax]))
        return np.add.reduceat(vals, self._entry_starts[:-1], axis=1)

    def basis_index_of(self, k) -> int | None:
        """Position of the entry that has index k as a member, or None."""
        pos = int(self._entry_positions(np.asarray([k]))[0])
        return pos if pos >= 0 else None

    def _entry_positions(self, ks: np.ndarray) -> np.ndarray:
        """`basis_index_of` for each row of an (n, dim) array, -1 for None."""
        ks = np.asarray(ks, dtype=np.int64)
        inside = np.all((ks >= 0) & (ks < self._box), axis=1)
        codes = np.ravel_multi_index(tuple(np.where(inside[:, None], ks, 0).T), self._box)
        at = np.searchsorted(self._member_codes, codes).clip(max=len(self._member_codes) - 1)
        found = inside & (self._member_codes[at] == codes)
        return np.where(found, self._code_owners[at], -1)

    def euclidean_degree(self) -> float:
        """Inscribed-ball radius of the basis index region."""
        return _cheap_degree(self.family, self.dim, self.resolution)


_ZMAX = 3  # coefficient bound of the shortest-vector search


def _min_vector_norm(Q: np.ndarray) -> float:
    """Norm of the shortest nonzero integer combination, with coefficients in
    ``[-_ZMAX, _ZMAX]``, of the rows of the integer matrix Q.  The rows may be
    dependent: combinations that vanish are skipped."""
    d = Q.shape[0]
    Z = np.indices((2 * _ZMAX + 1,) * d, dtype=np.int64).reshape(d, -1).T - _ZMAX
    V = Z @ np.asarray(Q, dtype=np.int64)
    norm2 = (V * V).sum(axis=1)
    return math.sqrt(int(norm2[norm2 > 0].min()))  # exact norm^2, rounded once


def build(family: Family | str, dim: int, resolution: int) -> ChebyshevLattice:
    """Construct a fully populated lattice.

    Raises
    ------
    LatticeError
        If the family is unknown, the (family, dim) pair is unsupported,
        the resolution is below the family minimum, or the unisolvency
        bookkeeping fails.
    """
    return ChebyshevLattice(family, dim, resolution)


def decompose(lattice: ChebyshevLattice) -> list[CartesianSublattice]:
    """The lattice's disjoint shifted Cartesian grids.

    Bravais families decompose into ``2^m`` grids with ``m <= dim - 1``;
    the composite octagonal lattice yields its four maximal grids (seven
    points per unit cell, see `ChebyshevLattice.cell_point_count`).
    """
    return list(lattice._grids)


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
    det = abs(_int_det(lattice.reciprocal.Q.tolist()))
    # composite-oct7 has seven points per translation cell: density 7 |det Q|
    cells = 7 if lattice.family is Family.COMPOSITE_OCT7 else 1
    return _ball_volume(lattice.dim, lattice.euclidean_degree()) / (cells * det)


def boundary_efficiency(lattice: ChebyshevLattice, axis: int = -1) -> float:
    """Euclidean-degree efficiency of the lattice induced on a boundary face.

    The face point set ``{theta_axis = 0}`` is itself a Chebyshev lattice
    in ``d - 1`` dimensions; its reciprocal is the projection of the full
    reciprocal lattice along the chosen axis, and the same packing formula
    as `efficiency` applies.  The ``d`` projected generators span it, so its
    cell volume is the gcd of their ``(d - 1)``-row minors (Cauchy-Binet;
    Cohen, *A Course in Computational Algebraic Number Theory*, 2.4).
    One-dimensional faces always give 1.
    """
    if lattice.dim < 2:
        raise LatticeError("boundary efficiency needs dim >= 2")
    d = lattice.dim - 1
    rows = np.delete(lattice.reciprocal.Q, axis % lattice.dim, axis=1)
    det = math.gcd(*(_int_det(rows[list(at)].tolist())
                     for at in itertools.combinations(range(lattice.dim), d)))
    return _ball_volume(d, 0.5 * _min_vector_norm(rows)) / det


def degree_config(family: Family | str, dim: int, degree: float) -> int:
    """Smallest resolution whose basis region contains the ball of the
    given Euclidean degree."""
    family = _family(family)
    res = _MIN_RESOLUTION[family]
    while res < 10_000:
        lat_r = _cheap_degree(family, dim, res)
        if lat_r >= degree - 1e-9:
            return res
        res += 1
    raise LatticeError("no resolution found for requested degree")


def _cheap_degree(family: Family, dim: int, res: int) -> float:
    """`ChebyshevLattice.euclidean_degree` of a lattice, without building it:
    half the shortest reciprocal vector, or ``2 sqrt(2) n`` for composite-oct7."""
    if family is Family.COMPOSITE_OCT7:
        return math.sqrt(2.0) * 2 * res
    return 0.5 * _min_vector_norm(_reciprocal_matrix(family, dim, res))


# ------------------------------------------------------------------ JSON


_G17 = "%.17g"  # 17 significant digits: every float reads back exactly


def _format_rows(a, row_fmt: str, sep: str = "\n") -> str:
    """Every row of the 2-d array ``a`` through the %-template ``row_fmt``,
    joined by ``sep``, in one ``%`` call (``_G17 % x`` is ``format(x, ".17g")``).

    Float coordinates arrive as strings from `_coordinate_strings` (``%s``),
    so each distinct coordinate is converted once, not once per cell.
    """
    a = np.asarray(a)
    return sep.join([row_fmt] * len(a)) % tuple(a.ravel().tolist())


def _coordinate_strings(points: np.ndarray) -> np.ndarray:
    """``_G17 % x`` of every cell of the float array ``points``, as an object
    array of its shape, with one conversion per distinct value.

    A lattice's coordinates are a few node values per axis (bcc r=24: 3925
    points, 25 distinct values; hex r=16: 3673 points, 161), so few floats
    are converted.  Values are keyed on their bit pattern, which keeps
    ``-0.0`` and ``0.0`` apart.
    """
    points = np.ascontiguousarray(points, dtype=float)
    bits, where = np.unique(points.view(np.int64), return_inverse=True)
    strings = np.array([_G17 % x for x in bits.view(float).tolist()], dtype=object)
    return strings[where.reshape(points.shape)]


def _json_value(obj) -> str:
    if isinstance(obj, str):
        import json as _json

        return _json.dumps(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _G17 % obj
    if isinstance(obj, dict):
        items = ", ".join(f"{_json_value(k)}: {_json_value(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)}")


def _canonical_indices(lattice: ChebyshevLattice) -> np.ndarray:
    """``(len(basis), dim)`` int64 array of the basis entries' canonical indices."""
    return lattice._members[lattice._entry_starts[:-1]]


def lattice_descriptor(lattice: ChebyshevLattice) -> str:
    """JSON descriptor with fixed field order and 17-significant-digit floats.

    Tie-combination entries list their canonical index in ``basis``; the
    full member sets appear under the trailing ``ties`` field.  ``points``
    converts each distinct coordinate once (`_coordinate_strings`), and
    ``basis`` and ``ties`` are each one ``%`` call over a flat tuple of ints.
    """
    d = lattice.dim
    head = {"family": lattice.family.value, "dim": d, "resolution": lattice.resolution,
            "npoints": lattice.npoints}
    subs = [
        {"counts": list(s.counts), "boundaries": [b.value for b in s.boundaries],
         "offset": [a / 2 for a in s.shift]}
        for s in lattice._grids
    ]
    starts, members = lattice._entry_starts, lattice._members
    int_row = "[" + ", ".join(["%d"] * d) + "]"
    tie_fmt, tie_ints = [], []
    for i in np.flatnonzero(np.diff(starts) > 1).tolist():
        tie = members[starts[i]:starts[i + 1]]
        tie_fmt.append('{"entry": %d, "members": [' + ", ".join([int_row] * len(tie)) + "]}")
        tie_ints += [i, *tie.ravel().tolist()]
    return (
        _json_value(head)[:-1]
        + ', "basis": [' + _format_rows(_canonical_indices(lattice), int_row, ", ")
        + '], "points": [' + _format_rows(_coordinate_strings(lattice.points),
                                          "[" + ", ".join(["%s"] * d) + "]", ", ")
        + '], "sublattices": ' + _json_value(subs)
        + ', "ties": [' + ", ".join(tie_fmt) % tuple(tie_ints) + "]}"
    )
