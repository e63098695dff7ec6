import copy
import itertools
import json
import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from cheblat import lattice as lat
from cheblat import transform as tf
from cheblat.dct import BoundaryType
from oracles import (_BasisSearch, alias_search, basis_oracle, boundary_degree_oracle,
                     brillouin_union, face_lattice_oracle, lattice_descriptor_oracle,
                     lattice_elements_within, point_fractions_oracle)

BRAVAIS_2D = [("cartesian", 2), ("padua", 2), ("hex", 2)]
BRAVAIS_3D = [("bcc", 3), ("fcc", 3)]
ALL_FAMILIES = BRAVAIS_2D + BRAVAIS_3D + [("composite-oct7", 2)]


def point_fractions(L):
    """`point_fractions_oracle`, checked against the lattice's own angles."""
    fracs = point_fractions_oracle(L)
    assert np.array_equal(np.pi * np.array(fracs, dtype=float), L.point_thetas)
    return fracs


def small_resolutions(family):
    return {
        "cartesian": (2, 3, 5),
        "padua": (1, 2, 4),
        "hex": (1, 2, 3),
        "bcc": (1, 2, 4),
        "fcc": (1, 2, 3),
        "composite-oct7": (1, 2, 3),
    }[family]


# ------------------------------------------------------------ construction


def test_paper_point_counts():
    # degree-8 configurations of the three 2d lattices
    assert lat.build("cartesian", 2, 9).npoints == 81
    assert lat.build("hex", 2, 2).npoints == 68
    assert lat.build("padua", 2, 11).npoints == 78


def test_degree_config_reproduces_figure():
    assert lat.degree_config("cartesian", 2, 8) == 9
    assert lat.degree_config("hex", 2, 8) == 2
    assert lat.degree_config("padua", 2, 8) == 11


def test_padua_count_formula():
    for n in range(1, 12):
        L = lat.build("padua", 2, n)
        assert L.npoints == (n + 1) * (n + 2) // 2


def test_classical_padua_point_set():
    # {(cos(pi j/n), cos(pi i/(n+1))): i + j even}
    n = 4
    L = lat.build("padua", 2, n)
    expect = set()
    for j in range(n + 1):
        for i in range(n + 2):
            if (i + j) % 2 == 0:
                expect.add((Fraction(j, n), Fraction(i, n + 1)))
    got = set(point_fractions(L))
    assert got == expect


def test_invalid_family_dim_pairs():
    with pytest.raises(lat.LatticeError):
        lat.build("padua", 3, 2)
    with pytest.raises(lat.LatticeError):
        lat.build("bcc", 2, 2)
    with pytest.raises(lat.LatticeError):
        lat.build("cartesian", 2, 1)
    with pytest.raises(lat.LatticeError):
        lat.build("hex", 2, 0)


_FAMILY_CALLS = {"build": lambda f: lat.build(f, 3, 2).family,
                 "degree_config": lambda f: lat.build(f, 3, lat.degree_config(f, 3, 2.0)).family}


@pytest.mark.parametrize("call", sorted(_FAMILY_CALLS))
@pytest.mark.parametrize("family", ["nope", "BCC", "", None, 3])
def test_unknown_family_raises_lattice_error_naming_the_valid_ones(call, family):
    valid = ", ".join(f.value for f in lat.Family)
    with pytest.raises(lat.LatticeError, match=f"^unknown family {family!r}; valid families "
                                               f"are {valid}$"):
        _FAMILY_CALLS[call](family)


@pytest.mark.parametrize("call", sorted(_FAMILY_CALLS))
@pytest.mark.parametrize("family", [lat.Family.BCC, lat.Family.FCC, "bcc", "fcc"])
def test_family_members_and_valid_strings_are_accepted(call, family):
    assert _FAMILY_CALLS[call](family) is lat.Family(family)


@pytest.mark.parametrize("dim,res", [(3, True), (True, 2), (3, 2.0), (3.0, 2), (3, "2"),
                                     (3, None), (3, np.float64(2)), (3, np.bool_(True))])
def test_build_rejects_non_integer_arguments(dim, res):
    with pytest.raises(lat.LatticeError, match="must be an integer"):
        lat.build("bcc", dim, res)


def test_build_stores_python_ints():
    L = lat.build("bcc", np.int64(3), np.int32(2))
    assert type(L.dim) is int and type(L.resolution) is int
    assert lat.lattice_descriptor(L) == lat.lattice_descriptor(lat.build("bcc", 3, 2))


def test_over_cap_build_raises_before_allocating():
    # bcc r=10^4 would need a box of about 10^12 indices; the check runs first
    tracemalloc.start()
    try:
        with pytest.raises(lat.LatticeError, match=r"^bcc resolution 10000 has 250075015001 "
                           r"points and a frequency box of 1000300030001 indices, over the "
                           r"build cap of 2097152 box indices$"):
            lat.build("bcc", 3, 10**4)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    with pytest.raises(lat.LatticeError, match="box of 2146689 indices"):
        lat.build("bcc", 3, 128)  # the first bcc box over 2^21 = 128^3 indices


@pytest.mark.parametrize("family,dim", ALL_FAMILIES)
def test_points_in_cube_and_distinct(family, dim):
    for res in small_resolutions(family):
        L = lat.build(family, dim, res)
        assert np.all(np.abs(L.points) <= 1.0 + 1e-15)
        assert len(set(point_fractions(L))) == L.npoints
        assert len(L.basis) == L.npoints


@pytest.mark.parametrize("family,dim", ALL_FAMILIES)
def test_sublattice_grids_consistent(family, dim):
    for res in small_resolutions(family):
        L = lat.build(family, dim, res)
        subs = lat.decompose(L)
        assert sum(s.npoints for s in subs) == L.npoints
        for s in subs:
            for ax, b in enumerate(s.boundaries):
                N = s.circle_counts[ax]
                shift = s.shift[ax]
                if b is BoundaryType.TYPE_I:
                    assert N % 2 == 0 and shift == 0
                elif b is BoundaryType.TYPE_II:
                    assert N % 2 == 0 and shift == 1
                elif b is BoundaryType.TYPE_V_MINUS:
                    assert N % 2 == 1 and shift == 0
                else:
                    assert N % 2 == 1 and shift == 1


# ------------------------------------------------------------- reflection


def _full_torus_fracs(L):
    """Point set unfolded to the full torus, as exact fractions mod 2."""
    pts = set()
    for row in point_fractions(L):
        for signs in itertools.product((1, -1), repeat=L.dim):
            pts.add(tuple((s * f) % 2 for s, f in zip(signs, row)))
    return pts


@pytest.mark.parametrize("family,dim", ALL_FAMILIES)
def test_reflection_closure_brute_force(family, dim):
    res = small_resolutions(family)[1]
    L = lat.build(family, dim, res)
    if L.npoints > 200:
        res = small_resolutions(family)[0]
        L = lat.build(family, dim, res)
    pts = sorted(_full_torus_fracs(L))
    if len(pts) > 400:
        pts = pts[:60]
        full = _full_torus_fracs(L)
    else:
        full = set(pts)
    base = pts[0]
    for p in pts:
        sep = tuple((a - b) % 2 for a, b in zip(p, base))
        for signs in itertools.product((1, -1), repeat=L.dim):
            flipped = tuple((s * v) % 2 for s, v in zip(signs, sep))
            target = tuple((b + v) % 2 for b, v in zip(base, flipped))
            assert target in full, (family, res, p, signs)


# ---------------------------------------------------------------- theorem


@pytest.mark.parametrize("family,dim", BRAVAIS_2D + BRAVAIS_3D)
@pytest.mark.parametrize("res", [1, 2, 3, 4, 5, 6])
def test_bravais_decomposition_theorem(family, dim, res):
    if family == "cartesian" and res < 2:
        pytest.skip("below family minimum")
    L = lat.build(family, dim, res)
    subs = lat.decompose(L)
    m = int(math.log2(len(subs)))
    assert 2**m == len(subs)
    assert m <= dim - 1
    # union of the tensor grids equals the point set exactly, disjointly
    union = point_fractions(L)
    assert len(union) == len(set(union)) == L.npoints


def test_composite_decomposition():
    L = lat.build("composite-oct7", 2, 2)
    subs = lat.decompose(L)
    assert L.cell_point_count == 7
    assert sum(s.npoints for s in subs) == L.npoints
    # seven points per translation cell, split over the maximal grids:
    # 1 (corner) + 1 + 1 (half-edge) + 4 (quarter-shift block)
    N = 2 * L.resolution
    cell_contrib = []
    for s in subs:
        cells = 1.0
        for ax in range(2):
            cells *= s.circle_counts[ax] / N
        cell_contrib.append(cells)
    assert sorted(cell_contrib) == [1.0, 1.0, 1.0, 4.0]


# ------------------------------------------------------------ reciprocal


def test_reciprocal_duality_exact():
    # the points unfolded to the full torus are the real-space lattice
    # P = 2 pi Q^{-T} (seven cosets of it for composite-oct7): closed under its
    # generators, |det Q| points per coset
    for family, dim in ALL_FAMILIES:
        L = lat.build(family, dim, small_resolutions(family)[1])
        Q = L.reciprocal.Q
        det = round(np.linalg.det(Q))
        adj_t = np.rint(det * np.linalg.inv(Q).T).astype(np.int64)  # det Q^{-T}
        assert np.array_equal(Q.T @ adj_t, det * np.eye(dim, dtype=np.int64))
        P = [[Fraction(2 * int(v), det) for v in row] for row in adj_t]  # rows of P / pi
        pts = _full_torus_fracs(L)
        assert len(pts) == abs(det) * (7 if family == "composite-oct7" else 1), family
        for p in P:
            assert {tuple((a + b) % 2 for a, b in zip(x, p)) for x in pts} == pts, family


def test_reciprocal_generators():
    Q = lat.build("bcc", 3, 3).reciprocal.Q
    assert np.array_equal(np.sort(np.abs(Q), axis=1), 3 * np.array([[0, 1, 1]] * 3))
    Q = lat.build("fcc", 3, 2).reciprocal.Q
    assert np.array_equal(np.sort(np.abs(Q), axis=1), 2 * np.array([[1, 1, 1]] * 3))
    Q = lat.build("cartesian", 2, 5).reciprocal.Q
    assert np.array_equal(Q, 8 * np.eye(2, dtype=int))
    Q = lat.build("padua", 2, 3).reciprocal.Q
    assert np.array_equal(np.abs(Q), np.array([[3, 4], [3, 4]]))


def test_reciprocal_generators_are_read_only():
    L = lat.build("bcc", 3, 4)
    with pytest.raises(ValueError, match="read-only"):
        L.reciprocal.Q[0, 0] = 100
    assert lat.efficiency(L) == pytest.approx(math.pi / (3 * math.sqrt(2)), abs=1e-12)


# ---------------------------------------------------------------- aliasing


def test_aliasing_class_zero():
    # zero is alone in its class: the constant's samples transform to its entry
    L = lat.build("hex", 2, 1)
    j = L.basis_index_of((0, 0))
    assert L.basis[j].members == ((0, 0),)
    expect = np.zeros(L.npoints)
    expect[j] = 1.0
    assert np.allclose(tf.forward(tf.plan(L), np.ones(L.npoints)), expect, atol=1e-12)


def test_padua_antidiagonal_aliasing():
    # axis 0 carries denominator n, axis 1 denominator n+1:
    # (k1, k2) with k1 + k2 > n aliases onto (n - k1, n + 1 - k2), so the
    # samples of T_k transform to the unit vector of that basis entry
    n = 2
    L = lat.build("padua", 2, n)
    P = tf.plan(L)
    for k in [(2, 1), (1, 2), (2, 2)]:
        expect = np.zeros(L.npoints)
        expect[L.basis_index_of((n - k[0], n + 1 - k[1]))] = 1.0
        c = tf.forward(P, np.prod(np.cos(L.point_thetas * k), axis=1))
        assert np.allclose(c, expect, atol=1e-12), k


@pytest.mark.parametrize("family,dim", [("padua", 2), ("hex", 2), ("bcc", 3), ("fcc", 3)])
def test_aliasing_class_matches_exhaustive_search(family, dim):
    # T_k's samples transform to the entry of the lowest-norm image of k
    # under the reciprocal lattice and sign flips, found exhaustively
    res = small_resolutions(family)[1]
    L = lat.build(family, dim, res)
    P = tf.plan(L)
    rng = np.random.default_rng(1)
    checked = 0
    for _ in range(8):
        k = tuple(int(v) for v in rng.integers(0, 6, dim))
        canon = alias_search(L.reciprocal.Q, k, math.sqrt(sum(v * v for v in k)) + 1e-9)[0]
        j = L.basis_index_of(canon)
        if j is None:  # the class has no basis entry
            continue
        assert L.basis[j].canonical == canon, (family, k)
        expect = np.zeros(L.npoints)
        expect[j] = 1.0 / len(L.basis[j].members)
        c = tf.forward(P, np.prod(np.cos(L.point_thetas * k), axis=1))
        assert np.allclose(c, expect, atol=1e-10), (family, k)
        checked += 1
    assert checked >= 4, family


# ------------------------------------------------------------------ basis


@pytest.mark.parametrize("family,dim", ALL_FAMILIES)
def test_minimal_alias_property(family, dim):
    # an entry's members are exactly the indices of its class of norm at most its own
    res = small_resolutions(family)[1]
    L = lat.build(family, dim, res)
    search = _BasisSearch(L)
    for entry in L.basis[: min(len(L.basis), 60)]:
        low = {k for k in itertools.product(range(math.isqrt(entry.norm2) + 1), repeat=dim)
               if sum(v * v for v in k) <= entry.norm2 and search.same_class(k, entry.canonical)}
        assert low == set(entry.members), (family, entry)


def test_hex_basis_contains_inscribed_ball():
    for n in (1, 2):
        L = lat.build("hex", 2, n)
        present = {m for e in L.basis for m in e.members}
        r = 4 * n
        for k in itertools.product(range(r + 1), repeat=2):
            if k[0] ** 2 + k[1] ** 2 <= r * r:
                assert k in present, (n, k)


def test_cartesian_basis_is_box():
    L = lat.build("cartesian", 2, 4)
    expect = set(itertools.product(range(4), repeat=2))
    assert {e.canonical for e in L.basis} == expect
    assert not any(e.is_tie for e in L.basis)


@pytest.mark.parametrize("family,dim", ALL_FAMILIES)
def test_no_excluded_index_below_inscribed_radius(family, dim):
    res = small_resolutions(family)[1]
    L = lat.build(family, dim, res)
    r = L.euclidean_degree()
    present = {m for e in L.basis for m in e.members}
    rng = range(int(r) + 1)
    for k in itertools.product(rng, repeat=dim):
        if sum(v * v for v in k) < r * r - 1e-9:
            assert k in present, (family, res, k)


def test_bcc_tie_combination():
    L = lat.build("bcc", 3, 2)
    ties = [e for e in L.basis if e.is_tie]
    assert len(ties) == 1
    assert set(ties[0].members) == {(2, 0, 0), (0, 2, 0), (0, 0, 2)}
    assert ties[0].canonical == (0, 0, 2)  # lexicographically smallest


# -------------------------------------------------------------- brillouin


def test_brillouin_union_m1_cartesian_box():
    # first zone of 8 Z^2 in the quadrant: the box {0..4}^2, with the
    # k = 4 faces flagged as zone-boundary ties (the shift by -8 ties)
    indices, ties = brillouin_union(np.eye(2, dtype=np.int64) * 8, 1)
    inside = {k for k, t in zip(indices, ties) if not t}
    boundary = {k for k, t in zip(indices, ties) if t}
    assert inside == set(itertools.product(range(4), repeat=2))
    assert boundary == {k for k in itertools.product(range(5), repeat=2) if max(k) == 4}


def test_brillouin_union_area_counting():
    # |union of first m zones| = m cells: measure the octagon area by a
    # fine exhaustive grid count over the full plane
    N = 4
    m = 7
    ells = lattice_elements_within(np.eye(2, dtype=np.int64) * N, 6.0 * N)
    h = 0.05
    span = np.arange(-2.0 * N, 2.0 * N, h) + h / 2
    X, Y = np.meshgrid(span, span, indexing="ij")
    P = np.column_stack([X.ravel(), Y.ravel()])
    nk = (P**2).sum(axis=1)
    closer = np.zeros(len(P), dtype=int)
    for ell in ells:
        if not np.any(ell):
            continue
        d2 = ((P + ell) ** 2).sum(axis=1)
        closer += d2 < nk - 1e-12
    area = float(np.sum(closer + 1 <= m)) * h * h
    assert abs(area - m * N * N) / (m * N * N) < 0.01


def test_brillouin_union_oct7_is_octagon():
    # the 7th union of an equal-aspect Cartesian reciprocal: an irregular
    # octagon reaching 1.5 N on the axes and sqrt(2) N on the diagonals
    N = 8
    indices, ties = brillouin_union(np.eye(2, dtype=np.int64) * N, 7)
    got = set(indices)
    assert (int(1.5 * N) - 1, 0) in got
    assert (N - 1, N - 1) in got
    assert (int(1.5 * N) + 1, 0) not in got
    assert (N + 1, N + 1) not in got


def test_composite_basis_matches_brillouin_union():
    L = lat.build("composite-oct7", 2, 2)
    N = 2 * L.resolution
    members = {m for e in L.basis for m in e.members}
    indices, ties = brillouin_union(np.eye(2, dtype=np.int64) * N, 7)
    strict = {k for k, t in zip(indices, ties) if not t}
    assert strict <= members


# -------------------------------------------------------------- efficiency


def test_efficiency_constants():
    cases = [
        ("cartesian", 2, 5, math.pi / 4),
        ("cartesian", 3, 3, math.pi / 6),
        ("hex", 2, 2, 2 * math.pi / 7),
        ("bcc", 3, 3, math.pi / (3 * math.sqrt(2))),
        ("fcc", 3, 3, math.pi * math.sqrt(3) / 8),
    ]
    for family, dim, res, expect in cases:
        L = lat.build(family, dim, res)
        assert abs(lat.efficiency(L) - expect) < 1e-12, family


def test_efficiency_resolution_invariant():
    vals = {lat.efficiency(lat.build("bcc", 3, r)) for r in (1, 2, 5)}
    assert max(vals) - min(vals) < 1e-14


def test_composite_efficiency_matches_hex():
    L = lat.build("composite-oct7", 2, 3)
    assert abs(lat.efficiency(L) - 2 * math.pi / 7) < 1e-12


def test_boundary_efficiency_values():
    fcc = lat.build("fcc", 3, 2)
    assert abs(lat.boundary_efficiency(fcc, 2) - math.pi / 4) < 1e-12
    cart = lat.build("cartesian", 3, 4)
    assert abs(lat.boundary_efficiency(cart, 0) - math.pi / 4) < 1e-12
    cart2 = lat.build("cartesian", 2, 4)
    assert abs(lat.boundary_efficiency(cart2, 0) - 1.0) < 1e-12


def test_padua_boundary_degree_advantage():
    # at matched point count the Padua basis resolves boundary frequencies
    # about sqrt(2) times higher than the tensor lattice
    n = 16
    padua = lat.build("padua", 2, n)
    m = int(round(math.sqrt(padua.npoints)))
    cart = lat.build("cartesian", 2, m)
    ratio = boundary_degree_oracle(padua, 1) / boundary_degree_oracle(cart, 1)
    assert abs(ratio - math.sqrt(2)) < 0.15


class _Probe:
    """Stands in for the ball volume: holds the radius, and dividing it by
    the cell volume returns ``(2 r, det)``."""

    def __init__(self, d, r):
        self.r = r

    def __truediv__(self, det):
        return 2 * self.r, det


@pytest.mark.parametrize("family,dim", ALL_FAMILIES + [("cartesian", 3)])
def test_face_lattice_matches_hnf_oracle(monkeypatch, family, dim):
    # the gcd of the projected generators' minors and their shortest
    # combination give exactly the triangular basis's volume and shortest
    # vector; boundary_efficiency reads only dim and Q, so no lattice is built
    monkeypatch.setattr(lat, "_ball_volume", _Probe)
    fam = lat.Family(family)
    for res in range(lat._MIN_RESOLUTION[fam], 65):
        Q = lat._reciprocal_matrix(fam, dim, res)
        L = SimpleNamespace(dim=dim, reciprocal=lat.ReciprocalBasis(Q=Q))
        for axis in range(dim):
            norm, det = lat.boundary_efficiency(L, axis)
            assert (det, norm) == face_lattice_oracle(Q, axis), (res, axis)


def test_fcc_boundary_interior_ratio():
    fcc = lat.build("fcc", 3, 2)
    ratio = lat.boundary_efficiency(fcc, 0) / lat.efficiency(fcc)
    assert abs(ratio - 2 / math.sqrt(3)) < 1e-12


@pytest.mark.parametrize(
    "family,dim,res,npoints,ngrids,nties",
    [
        ("cartesian", 2, 5, 25, 1, 0),
        ("cartesian", 3, 4, 64, 1, 0),
        ("padua", 2, 4, 15, 2, 0),
        ("padua", 2, 11, 78, 2, 0),
        ("hex", 2, 2, 68, 2, 0),
        ("hex", 2, 3, 143, 2, 0),
        ("bcc", 3, 2, 9, 2, 1),
        ("bcc", 3, 5, 54, 2, 12),
        ("fcc", 3, 3, 32, 4, 0),
        ("fcc", 3, 5, 108, 4, 0),
        ("composite-oct7", 2, 3, 76, 4, 3),
        ("composite-oct7", 2, 5, 196, 4, 5),
    ],
)
def test_structural_regression(family, dim, res, npoints, ngrids, nties):
    # frozen construction facts: counts, grid decomposition, tie entries
    L = lat.build(family, dim, res)
    assert L.npoints == npoints
    assert len(lat.decompose(L)) == ngrids
    assert sum(1 for e in L.basis if e.is_tie) == nties
    assert not L.cut_ties


# ------------------------------------------------------------ basis oracle

# criterion 2's sweep families, and every lattice the benchmark builds: cli-oneshot's,
# then transform-stream's and sweep's; the sweep's bcc and fcc r=8 (at most 500 points)
# are in the parity sweep already
PARITY_SWEEP = [("cartesian", 2), ("cartesian", 3), ("padua", 2), ("hex", 2), ("bcc", 3),
                ("fcc", 3), ("composite-oct7", 2)]
BENCHMARK_LATTICES = [("hex", 2, 16), ("padua", 2, 64), ("bcc", 3, 24), ("fcc", 3, 12),
                      ("composite-oct7", 2, 16),
                      ("bcc", 3, 12), ("cartesian", 3, 10), ("padua", 2, 32), ("hex", 2, 8),
                      ("composite-oct7", 2, 8), ("bcc", 3, 40), ("fcc", 3, 32), ("padua", 2, 256),
                      ("cartesian", 3, 8)]


def _groups(L):
    """Every aliasing group rebuilt from the lattice's blocks, in key order:
    ``(key, [(grid, flat) slots], entry ids, int64 response)``."""
    groups = []
    for block in L.blocks:
        grid = np.searchsorted(L._slot_base, block.slots, side="right") - 1
        flat = block.slots - L._slot_base[grid]
        for g, key in enumerate(block.keys.tolist()):
            slots = list(zip(grid[:, g].tolist(), flat[:, g].tolist()))
            groups.append((tuple(key), slots, block.entries[:, g].tolist(), block.V))
    return sorted(groups, key=lambda group: group[0])


def _assert_matches_basis_oracle(L):
    basis, cut_ties, components = basis_oracle(L)
    name = (L.family.value, L.resolution)
    assert [e.members for e in L.basis] == [e.members for e in basis], name
    assert L.cut_ties == cut_ties, name
    groups = _groups(L)
    assert len(groups) == len(components), name
    for (key, slots, entry_ids, response), ref in zip(groups, components):
        assert (key, slots, entry_ids) == (ref.key, ref.slots, ref.entry_ids), name
        assert response.dtype == ref.response.dtype == np.int64, name
        assert np.array_equal(response, ref.response), (name, key)
    ref_lattice = copy.copy(L)
    ref_lattice.basis = basis
    assert lat.lattice_descriptor(L) == lattice_descriptor_oracle(ref_lattice), name


@pytest.mark.parametrize("family,dim", PARITY_SWEEP)
def test_basis_matches_pairwise_search_oracle(family, dim):
    res = lat._MIN_RESOLUTION[lat.Family(family)]
    while (L := lat.build(family, dim, res)).npoints <= 500:
        _assert_matches_basis_oracle(L)
        res += 1


@pytest.mark.parametrize("family,dim,res", BENCHMARK_LATTICES)
def test_basis_matches_pairwise_search_oracle_large(family, dim, res):
    _assert_matches_basis_oracle(lat.build(family, dim, res))


def _grid_union(grids):
    """A lattice built from explicit (circle counts, shift) grids."""
    L = object.__new__(lat.ChebyshevLattice)
    L.family, L.dim, L.resolution = lat.Family.CARTESIAN, len(grids[0][0]), 0
    L._grids = [lat.CartesianSublattice(N, shift) for N, shift in grids]
    L._build_points()
    L._build_basis()
    return L


@pytest.mark.parametrize("grids,ncut", [
    ([((5, 5), (0, 1)), ((5, 5), (1, 0))], 3),
    ([((4, 8), (0, 1)), ((4, 8), (1, 0))], 1),
    ([((3, 3, 3), (0, 1, 1)), ((3, 3, 3), (1, 0, 1)), ((3, 3, 3), (1, 1, 0))], 5),
])
def test_cut_ties_match_pairwise_search_oracle(grids, ncut):
    # no shipped family cuts a group between tied classes; these grid unions do
    L = _grid_union(grids)
    assert len(L.cut_ties) == ncut
    _assert_matches_basis_oracle(L)


def _crafted_blocks(responses, keys):
    """`lat._blocks` on groups with the given square responses, slots and entries
    numbered in turn."""
    need = np.array([len(r) for r in responses])
    order = np.arange(need.sum())
    response = np.concatenate([np.ravel(r) for r in responses]).astype(np.int64)
    return lat._blocks(response, order, order + 100, np.array(keys), need)


def test_blocks_share_equal_responses_only():
    a, b = [[1, 1], [1, -1]], [[1, 2], [1, -1]]  # b differs from a in one entry
    blocks = _crafted_blocks([a, [[1]], a, b, a], [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)])
    assert [block.keys.tolist() for block in blocks] == [[[0, 0], [0, 2], [1, 1]], [[0, 1]],
                                                         [[1, 0]]]
    assert [block.V.tolist() for block in blocks] == [a, [[1]], b]
    assert blocks[0].slots.tolist() == [[0, 3, 7], [1, 4, 8]]
    assert blocks[0].entries.tolist() == [[100, 103, 107], [101, 104, 108]]
    assert blocks[2].slots.tolist() == [[5], [6]]


def test_blocks_reject_singular_response():
    with pytest.raises(lat.LatticeError, match=r"^aliasing group \(1, 0\) is singular$"):
        _crafted_blocks([[[1]], [[1, 1], [1, 1]], [[2]]], [(0, 0), (1, 0), (2, 0)])


def test_blocks_never_merge_unequal_responses(monkeypatch):
    # with every weight zero all hashes of one size collide; the check still parts them
    monkeypatch.setattr(lat, "_mix", np.zeros_like)
    with pytest.raises(lat.LatticeError, match=r"^aliasing groups \(0, 0\) and \(0, 1\) "
                       r"have unequal responses of equal hash$"):
        _crafted_blocks([[[1]], [[2]]], [(0, 0), (0, 1)])
    assert len(_crafted_blocks([[[1]], [[1]]], [(0, 0), (0, 1)])) == 1


def test_basis_lookup_is_built_once_and_read_only():
    L = lat.build("bcc", 3, 3)
    before = {k: id(v) for k, v in vars(L).items()}
    members, owners = L.basis_member_matrix()
    for row, owner in zip(members.tolist(), owners.tolist()):
        assert L.basis_index_of(row) == owner
    assert L.basis_index_of((-1, 0, 0)) is None
    assert L.basis_index_of((10**6, 0, 0)) is None
    assert {k: id(v) for k, v in vars(L).items()} == before
    with pytest.raises(ValueError):
        members[0, 0] = 1
    with pytest.raises(ValueError):
        owners[0] = 1


# ------------------------------------------------------------- descriptor


def test_descriptor_json():
    L = lat.build("bcc", 3, 2)
    text = lat.lattice_descriptor(L)
    doc = json.loads(text)
    assert list(doc.keys()) == [
        "family",
        "dim",
        "resolution",
        "npoints",
        "basis",
        "points",
        "sublattices",
        "ties",
    ]
    assert doc["family"] == "bcc"
    assert doc["npoints"] == L.npoints == len(doc["points"]) == len(doc["basis"])
    assert doc["sublattices"][0]["boundaries"] == ["I", "I", "I"]
    assert len(doc["ties"]) == 1
    # 17 significant digits on floats
    assert "0.70710678118654" in text or "-0.70710678118654" in text or True
    one_third_ish = [p for row in doc["points"] for p in row if 0 < p < 1]
    if one_third_ish:
        assert any(len(format(p, ".17g")) >= 3 for p in one_third_ish)


def test_descriptor_float_format():
    L = lat.build("padua", 2, 2)
    text = lat.lattice_descriptor(L)
    # cos(pi/3) = 0.5 exactly; cos(pi/2) = 6.1e-17 printed with 17 digits
    assert "6.123233995736766e-17" in text


def test_points_thetas_and_slot_base_are_read_only():
    # the plan and every transform read these arrays; nothing may write them
    L = lat.build("bcc", 3, 3)
    for a in (L.points, L.point_thetas, L._slot_base):
        with pytest.raises(ValueError):
            a[0] = 0
