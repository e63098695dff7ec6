import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cheblat import calculus, lattice as lat, transform as tf
from oracles import vandermonde

ALL = [
    ("cartesian", 2, (3, 5)),
    ("cartesian", 3, (3,)),
    ("padua", 2, (1, 2, 5, 8)),
    ("hex", 2, (1, 2)),
    ("bcc", 3, (1, 2, 3, 4)),
    ("fcc", 3, (1, 2, 3)),
    ("composite-oct7", 2, (1, 2, 3)),
]


def all_lattices():
    for family, dim, resos in ALL:
        for res in resos:
            yield lat.build(family, dim, res)


# ------------------------------------------------------------------- plan


def test_cartesian_plan_single_identity_matrix():
    L = lat.build("cartesian", 2, 4)
    P = tf.plan(L)
    mats = P.aliasing_matrices()
    assert len(mats) == 1
    assert np.array_equal(mats[0].M, np.eye(1))


def test_aliasing_matrices_are_read_only():
    # aliasing_matrices() hands out the plan's own matrices, so a write
    # must fail instead of corrupting later transforms
    P = tf.plan(lat.build("bcc", 3, 4))
    for A in P.aliasing_matrices():
        with pytest.raises(ValueError):
            A.M[0, 0] = 2.0
    for b in P.buckets:
        with pytest.raises(ValueError):
            b.V[0, 0] = 2.0


def test_padua_bcc_matrices_half_entries():
    for family, dim in (("padua", 2), ("bcc", 3)):
        L = lat.build(family, dim, 4)
        P = tf.plan(L)
        twos = [A for A in P.aliasing_matrices() if A.M.shape == (2, 2)]
        assert twos, family
        untied = [
            A for A in twos if all(len(m) == 1 for m in A.members)
        ]
        for A in untied:
            assert np.allclose(np.abs(A.M), 0.5), (family, A.M)


def test_bravais_scaled_matrices_are_orthogonal_sign_matrices():
    for family, dim in (("padua", 2), ("hex", 2), ("bcc", 3), ("fcc", 3)):
        L = lat.build(family, dim, 4)
        P = tf.plan(L)
        for A in P.aliasing_matrices():
            m = A.M.shape[0]
            if m == 1 or any(len(mem) > 1 for mem in A.members):
                continue
            S = m * A.M
            assert np.allclose(np.abs(S), 1.0, atol=1e-9), (family, A.M)
            Sr = np.round(S)
            assert np.array_equal(Sr @ Sr.T, m * np.eye(m, dtype=int)), (family, S)


def test_class_matrix_is_inverse_of_direct_evaluation():
    # sample each group's basis polynomials on the sublattices, transform,
    # and confirm M inverts the response (built independently here)
    L = lat.build("bcc", 3, 2)
    P = tf.plan(L)
    from cheblat.dct import dct_nd

    for comp in L.components:
        V = np.zeros((len(comp.slots), len(comp.entry_ids)))
        for j, ei in enumerate(comp.entry_ids):
            entry = L.basis[ei]
            for si, g in enumerate(L._grids):
                lo, hi = L._slot_base[si], L._slot_base[si + 1]
                th = L.point_thetas[lo:hi]
                vals = np.zeros(th.shape[0])
                for member in entry.members:
                    vals += np.prod(np.cos(th * np.asarray(member)), axis=1)
                coeffs = dct_nd(vals.reshape(g.counts), g.boundaries).ravel()
                for i, (sj, flat) in enumerate(comp.slots):
                    if sj == si:
                        V[i, j] = coeffs[flat]
        M = np.linalg.inv(V)
        assert np.allclose(M @ comp.response, np.eye(V.shape[0]), atol=1e-10)


def test_singular_plan_reports_group():
    # direct check of the error path: corrupt a component response
    L = lat.build("padua", 2, 3)
    L.components[0].response = np.zeros_like(L.components[0].response)
    with pytest.raises(lat.LatticeError):
        tf.plan(L)


# ---------------------------------------------------------------- forward


def test_constant_maps_to_zero_index():
    for L in all_lattices():
        P = tf.plan(L)
        c = tf.forward(P, np.ones(L.npoints))
        expect = np.zeros(len(L.basis))
        expect[0] = 1.0
        assert L.basis[0].canonical == (0,) * L.dim
        assert np.allclose(c, expect, atol=1e-13), L.family


def test_unisolvency_basis_polynomials():
    for L in all_lattices():
        if L.npoints > 300:
            continue
        P = tf.plan(L)
        V = L.basis_matrix(L.point_thetas)  # columns are basis samples
        for j in range(len(L.basis)):
            c = tf.forward(P, V[:, j])
            expect = np.zeros(len(L.basis))
            expect[j] = 1.0
            err = np.max(np.abs(c - expect))
            assert err < 1e-10, (L.family, L.resolution, j, err)


def test_forward_matches_dense_oracle():
    rng = np.random.default_rng(7)
    for L in all_lattices():
        if L.npoints > 2000:
            continue
        P = tf.plan(L)
        s = rng.standard_normal(L.npoints)
        assert np.max(np.abs(tf.forward(P, s) - tf.dense_oracle(L, s))) < 1e-10


def test_out_of_basis_polynomial_aliases_to_canonical():
    L = lat.build("padua", 2, 2)
    P = tf.plan(L)
    # C_(2,1) restricts to C_(0,2) on the lattice (antidiagonal aliasing)
    th = L.point_thetas
    samples = np.cos(2 * th[:, 0]) * np.cos(1 * th[:, 1])
    c = tf.forward(P, samples)
    j = L.basis_index_of((0, 2))
    expect = np.zeros(len(L.basis))
    expect[j] = 1.0
    assert np.allclose(c, expect, atol=1e-12)


def test_out_of_basis_aliasing_all_families():
    rng = np.random.default_rng(3)
    for L in all_lattices():
        if L.npoints > 400:
            continue
        P = tf.plan(L)
        canon, members = lat.aliasing_class(L, tuple([3] * L.dim))
        j = L.basis_index_of(canon)
        if j is None:
            continue
        th = L.point_thetas
        samples = np.prod(np.cos(th * np.asarray([3] * L.dim)), axis=1)
        c = tf.forward(P, samples)
        # mass must land entirely on the canonical entry (and equal the
        # inverse of the tie multiplicity when the entry is a combination)
        expect = np.zeros(len(L.basis))
        expect[j] = 1.0 / len(L.basis[j].members)
        assert np.allclose(c, expect, atol=1e-10), (L.family, L.resolution)


def test_forward_validates_input():
    L = lat.build("padua", 2, 3)
    P = tf.plan(L)
    with pytest.raises(tf.TransformError):
        tf.forward(P, np.ones(L.npoints + 1))
    bad = np.ones(L.npoints)
    bad[0] = np.nan
    with pytest.raises(tf.TransformError):
        tf.forward(P, bad)
    with pytest.raises(tf.TransformError):
        tf.inverse(P, np.ones(len(L.basis) + 2))


def test_inverse_and_adjoint_reject_nonfinite_coefficients():
    L = lat.build("bcc", 3, 3)
    P = tf.plan(L)
    for bad_value in (np.nan, np.inf, -np.inf):
        bad = np.zeros(len(L.basis))
        bad[1] = bad_value
        with pytest.raises(tf.TransformError):
            tf.inverse(P, bad)
        with pytest.raises(tf.TransformError):
            tf.adjoint(P, bad)


# ------------------------------------------------------------- round trip


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_round_trip_random(seed):
    rng = np.random.default_rng(seed)
    for family, dim, res in [("padua", 2, 6), ("hex", 2, 2), ("bcc", 3, 3), ("composite-oct7", 2, 2)]:
        L = lat.build(family, dim, res)
        P = tf.plan(L)
        s = rng.standard_normal(L.npoints)
        c = tf.forward(P, s)
        assert np.max(np.abs(tf.inverse(P, c) - s)) < 1e-12 * max(1, np.max(np.abs(s)))
        c2 = rng.standard_normal(len(L.basis))
        assert np.max(np.abs(tf.forward(P, tf.inverse(P, c2)) - c2)) < 1e-12 * max(
            1, np.max(np.abs(c2))
        )


def test_inverse_of_unit_coefficient_is_basis_samples():
    L = lat.build("fcc", 3, 2)
    P = tf.plan(L)
    V = L.basis_matrix(L.point_thetas)
    for j in (0, 3, len(L.basis) - 1):
        e = np.zeros(len(L.basis))
        e[j] = 1.0
        assert np.allclose(tf.inverse(P, e), V[:, j], atol=1e-12)


# ---------------------------------------------------------------- adjoint


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_adjoint_bilinear_identity(seed):
    rng = np.random.default_rng(seed)
    for family, dim, res in [("padua", 2, 5), ("bcc", 3, 3), ("composite-oct7", 2, 2)]:
        L = lat.build(family, dim, res)
        P = tf.plan(L)
        s = rng.standard_normal(L.npoints)
        u = rng.standard_normal(len(L.basis))
        lhs = float(u @ tf.forward(P, s))
        rhs = float(tf.adjoint(P, u) @ s)
        assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs))


def test_adjoint_zero():
    L = lat.build("hex", 2, 1)
    P = tf.plan(L)
    assert np.allclose(tf.adjoint(P, np.zeros(len(L.basis))), 0.0)


def test_bravais_adjoint_is_inverse_up_to_scaling():
    # diagonal scalings on both sides relate the two: dividing out the
    # per-node trapezoid weights, adjoint(e_j) is a scalar multiple of
    # inverse(e_j) for every basis entry
    from cheblat.dct import node_weights

    for fam, dim, res in [("bcc", 3, 4), ("padua", 2, 6), ("hex", 2, 2), ("fcc", 3, 2)]:
        L = lat.build(fam, dim, res)
        P = tf.plan(L)
        wnode = np.ones(L.npoints)
        for si, g in enumerate(L._grids):
            lo, hi = L._slot_base[si], L._slot_base[si + 1]
            W = np.ones(g.counts)
            for ax in range(L.dim):
                shp = [1] * L.dim
                shp[ax] = g.counts[ax]
                W = W * node_weights(g.counts[ax], g.boundaries[ax]).reshape(shp)
            wnode[lo:hi] = W.ravel()
        for j in range(0, len(L.basis), max(1, len(L.basis) // 8)):
            u = np.zeros(len(L.basis))
            u[j] = 1.0
            adj = tf.adjoint(P, u) / wnode
            inv = tf.inverse(P, u)
            nz = np.abs(inv) > 1e-9
            ratios = adj[nz] / inv[nz]
            spread = np.max(np.abs(ratios - ratios[0]))
            assert spread <= 1e-10 * max(1.0, abs(ratios[0])), (fam, j)


def test_cartesian_adjoint_is_scaled_inverse():
    # one sublattice: the adjoint equals the synthesis up to the diagonal
    # analysis factors (inverse up to scaling)
    L = lat.build("cartesian", 1, 7)
    P = tf.plan(L)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(len(L.basis))
    from cheblat.dct import BoundaryType, analysis_prefactor, node_weights

    a = analysis_prefactor(7, BoundaryType.TYPE_I)
    w = node_weights(7, BoundaryType.TYPE_I)
    expect = w * tf.inverse(P, a * u)
    assert np.allclose(tf.adjoint(P, u), expect, atol=1e-12)


# -------------------------------------------------------- padua fast path


def test_padua_path_matches_default_forward():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 4, 7, 10, 13, 50):
        L = lat.build("padua", 2, n)
        P = tf.plan(L)
        s = rng.standard_normal(L.npoints)
        a = tf.forward(P, s)
        b = tf.forward_padua(P, s)
        assert np.max(np.abs(a - b)) < 1e-12 * max(1.0, np.max(np.abs(a))), n


def test_forward_padua_is_forward_bitwise():
    rng = np.random.default_rng(12)
    for n in (1, 2, 5, 8, 33):
        L = lat.build("padua", 2, n)
        P = tf.plan(L)
        s = rng.standard_normal(L.npoints)
        assert np.array_equal(tf.forward_padua(P, s), tf.forward(P, s)), n


def test_padua_path_requires_padua_family():
    L = lat.build("hex", 2, 1)
    P = tf.plan(L)
    with pytest.raises(tf.TransformError):
        tf.forward_padua(P, np.ones(L.npoints))


def test_padua_path_t1t1_lands_at_11():
    L = lat.build("padua", 2, 2)
    P = tf.plan(L)
    samples = L.points[:, 0] * L.points[:, 1]
    c = tf.forward_padua(P, samples)
    dense = tf.dense_oracle(L, samples)
    assert np.allclose(c, dense, atol=1e-12)
    j = L.basis_index_of((1, 1))
    assert abs(c[j] - 1.0) < 1e-12


# ----------------------------------------------------------------- oracle


def test_dense_oracle_guard():
    L = lat.build("cartesian", 2, 50)  # 2500 points
    with pytest.raises(tf.TransformError):
        tf.dense_oracle(L, np.ones(L.npoints))


def test_dense_condition_finite():
    for L in all_lattices():
        if L.npoints > 500:
            continue
        c = tf.dense_condition(L)
        assert np.isfinite(c) and c < 1e3, (L.family, L.resolution, c)


def test_dense_oracle_agrees_with_test_side_vandermonde():
    rng = np.random.default_rng(2)
    L = lat.build("fcc", 3, 3)
    s = rng.standard_normal(L.npoints)
    V = vandermonde(L)
    expect = np.linalg.solve(V, s)
    assert np.allclose(tf.dense_oracle(L, s), expect, atol=1e-10)


# ------------------------------------------------------------ concurrency


def test_plan_shared_across_threads():
    # plans are immutable; concurrent forwards must agree bitwise with the
    # serial result
    import concurrent.futures

    L = lat.build("fcc", 3, 6)
    P = tf.plan(L)
    rng = np.random.default_rng(9)
    batches = [rng.standard_normal(L.npoints) for _ in range(16)]
    serial = [tf.forward(P, s) for s in batches]
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as ex:
        parallel = list(ex.map(lambda s: tf.forward(P, s), batches))
    for a, b in zip(serial, parallel):
        assert np.array_equal(a, b)


# -------------------------------------------------------------------- csv


def test_coefficient_csv_round_trip():
    rng = np.random.default_rng(4)
    L = lat.build("hex", 2, 1)
    c = rng.standard_normal(len(L.basis))
    text = tf.coefficients_to_csv(L, c)
    back = tf.coefficients_from_csv(L, text)
    assert np.array_equal(back, c)
    first = text.splitlines()[0].split(",")
    assert len(first) == 3  # k1, k2, value


def test_samples_csv_round_trip_and_validation():
    rng = np.random.default_rng(5)
    L = lat.build("padua", 2, 4)
    s = rng.standard_normal(L.npoints)
    text = tf.samples_to_csv(L, s)
    assert np.array_equal(tf.samples_from_csv(L, text), s)
    wrong = lat.build("padua", 2, 5)
    with pytest.raises(tf.TransformError):
        tf.samples_from_csv(wrong, text)
