import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cheblat import dct
from cheblat.dct import (
    BoundaryType,
    GridDCT,
    adjoint_dct_nd,
    circle_count,
    dct_1d,
    dct_nd,
    dct_typeV,
    grid_spec_from_circle,
    idct_1d,
    idct_nd,
    idct_typeV,
    nodes_1d,
)
from oracles import dct_nd_oracle, dct_oracle, synthesis_nd_oracle, synthesis_oracle

ALL_TYPES = list(BoundaryType)
V_TYPES = [BoundaryType.TYPE_V_MINUS, BoundaryType.TYPE_V_PLUS]
I, II, VM, VP = (BoundaryType.TYPE_I, BoundaryType.TYPE_II, BoundaryType.TYPE_V_MINUS,
                 BoundaryType.TYPE_V_PLUS)

# 3-d grids that mix families, so several axes share one dctn call and
# type V axes sit between them; the last two have a TYPE_I axis of length
# 2 and a type V axis of length 1
MIXED_3D = [
    ((5, 4, 3), (I, I, II)),
    ((3, 5, 4), (II, VM, II)),
    ((4, 6, 3), (VP, I, VM)),
    ((2, 1, 3), (I, VP, II)),
    ((1, 2, 2), (VM, I, I)),
]


def min_n(boundary):
    return 2 if boundary is BoundaryType.TYPE_I else 1


# ---------------------------------------------------------------- nodes


def test_nodes_type_i_three_points():
    grid = nodes_1d(3, BoundaryType.TYPE_I)
    assert np.allclose(grid.xs, [1.0, 0.0, -1.0], atol=1e-15)


def test_nodes_type_ii_two_points():
    grid = nodes_1d(2, BoundaryType.TYPE_II)
    r = np.sqrt(2) / 2
    assert np.allclose(grid.xs, [r, -r], atol=1e-15)


def test_nodes_v_minus_single_point():
    grid = nodes_1d(1, BoundaryType.TYPE_V_MINUS)
    assert grid.xs.tolist() == [1.0]


@pytest.mark.parametrize("boundary", ALL_TYPES)
@pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
def test_node_invariants(boundary, n):
    if n < min_n(boundary):
        pytest.skip("below family minimum")
    grid = nodes_1d(n, boundary)
    assert np.all(np.diff(grid.thetas) > 0)
    assert np.allclose(grid.xs, np.cos(grid.thetas))
    assert grid.thetas[0] >= 0 and grid.thetas[-1] <= np.pi + 1e-15
    has_plus = np.isclose(grid.xs, 1.0).any()
    has_minus = np.isclose(grid.xs, -1.0).any()
    assert has_plus == boundary.contains_plus_one
    assert has_minus == boundary.contains_minus_one


def test_node_count_validation():
    with pytest.raises(ValueError):
        nodes_1d(1, BoundaryType.TYPE_I)
    with pytest.raises(ValueError):
        nodes_1d(0, BoundaryType.TYPE_II)


@pytest.mark.parametrize("boundary", ALL_TYPES)
@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_grid_spec_roundtrip(boundary, n):
    if n < min_n(boundary):
        pytest.skip("below family minimum")
    N = circle_count(n, boundary)
    shift = 0 if boundary in (BoundaryType.TYPE_I, BoundaryType.TYPE_V_MINUS) else 1
    assert grid_spec_from_circle(N, shift) == (n, boundary)


# ---------------------------------------------------------------- 1d dct


def test_constant_maps_to_e0():
    for boundary in ALL_TYPES:
        n = 6 if boundary is not BoundaryType.TYPE_I else 6
        c = dct_1d(np.ones(n), boundary)
        expect = np.zeros(n)
        expect[0] = 1.0
        assert np.allclose(c, expect, atol=1e-14), boundary


def test_cos_2theta_type_i_n5_matches_oracle():
    grid = nodes_1d(5, BoundaryType.TYPE_I)
    samples = np.cos(2 * grid.thetas)
    expected = dct_oracle(samples, BoundaryType.TYPE_I)
    got = dct_1d(samples, BoundaryType.TYPE_I)
    assert np.allclose(got, expected, atol=1e-13)
    assert np.allclose(got, np.eye(5)[2], atol=1e-13)


@pytest.mark.parametrize("boundary", ALL_TYPES)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 9, 16, 33])
def test_exact_cosine_recovery(boundary, n):
    if n < min_n(boundary):
        pytest.skip("below family minimum")
    grid = nodes_1d(n, boundary)
    for k in range(n):
        c = dct_1d(np.cos(k * grid.thetas), boundary)
        assert np.allclose(c, np.eye(n)[k], atol=1e-12), (boundary, n, k)


def test_type_i_top_mode_unit():
    # the self-paired circle mode k = n-1 must still come back with weight 1
    for n in (2, 5, 10):
        grid = nodes_1d(n, BoundaryType.TYPE_I)
        c = dct_1d(np.cos((n - 1) * grid.thetas), BoundaryType.TYPE_I)
        assert abs(c[-1] - 1.0) < 1e-13


@pytest.mark.parametrize("boundary", ALL_TYPES)
def test_matches_summation_oracle(boundary):
    rng = np.random.default_rng(42)
    for n in (min_n(boundary), 4, 11):
        v = rng.standard_normal(n)
        assert np.allclose(dct_1d(v, boundary), dct_oracle(v, boundary), atol=1e-12)


@pytest.mark.parametrize("boundary", ALL_TYPES)
@pytest.mark.parametrize("n", list(range(1, 65)))
def test_round_trip_all_sizes(boundary, n):
    if n < min_n(boundary):
        pytest.skip("below family minimum")
    rng = np.random.default_rng(n)
    v = rng.standard_normal(n)
    back = idct_1d(dct_1d(v, boundary), boundary)
    assert np.max(np.abs(back - v)) < 1e-12 * max(1.0, np.max(np.abs(v)))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=48),
    seed=st.integers(min_value=0, max_value=2**31),
    ab=st.tuples(
        st.floats(-10, 10, allow_nan=False), st.floats(-10, 10, allow_nan=False)
    ),
)
def test_linearity(n, seed, ab):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n)
    v = rng.standard_normal(n)
    alpha, beta = ab
    for boundary in ALL_TYPES:
        lhs = dct_1d(alpha * u + beta * v, boundary)
        rhs = alpha * dct_1d(u, boundary) + beta * dct_1d(v, boundary)
        assert np.allclose(lhs, rhs, atol=1e-9)


def test_rejects_nonfinite():
    bad = np.array([1.0, np.nan, 0.0])
    with pytest.raises(ValueError):
        dct_1d(bad, BoundaryType.TYPE_II)
    with pytest.raises(ValueError):
        dct_nd(np.array([[np.inf, 0.0], [0.0, 0.0]]), (BoundaryType.TYPE_I,) * 2)


def test_rejects_wrong_shape():
    with pytest.raises(ValueError):
        dct_1d(np.ones((3, 3)), BoundaryType.TYPE_I)
    with pytest.raises(ValueError):
        dct_nd(np.ones((3, 3)), (BoundaryType.TYPE_I,))


# --------------------------------------------------------------- type V


def test_type_v_constant():
    assert np.allclose(dct_typeV(np.ones(5), BoundaryType.TYPE_V_MINUS), np.eye(5)[0], atol=1e-14)
    assert np.allclose(dct_typeV(np.ones(5), BoundaryType.TYPE_V_PLUS), np.eye(5)[0], atol=1e-14)


def test_type_v_cos_theta_n4():
    grid = nodes_1d(4, BoundaryType.TYPE_V_MINUS)
    samples = np.cos(grid.thetas)
    expected = dct_oracle(samples, BoundaryType.TYPE_V_MINUS)
    got = dct_typeV(samples, BoundaryType.TYPE_V_MINUS)
    assert np.allclose(got, expected, atol=1e-13)
    assert np.allclose(got, np.eye(4)[1], atol=1e-13)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=1, max_value=40), seed=st.integers(0, 2**31))
def test_type_v_round_trip(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    for variant in V_TYPES:
        back = idct_typeV(dct_typeV(v, variant), variant)
        assert np.max(np.abs(back - v)) < 1e-12 * max(1.0, np.max(np.abs(v)))


def test_type_v_rejects_wrong_variant():
    with pytest.raises(ValueError):
        dct_typeV(np.ones(3), BoundaryType.TYPE_I)


# ------------------------------------------------------------------- nd


def test_nd_constant():
    c = dct_nd(np.ones((4, 5)), (BoundaryType.TYPE_I, BoundaryType.TYPE_II))
    expect = np.zeros((4, 5))
    expect[0, 0] = 1.0
    assert np.allclose(c, expect, atol=1e-14)


def test_nd_product_cosine_5x5():
    grid = nodes_1d(5, BoundaryType.TYPE_I)
    t1, t2 = np.meshgrid(grid.thetas, grid.thetas, indexing="ij")
    samples = np.cos(t1) * np.cos(2 * t2)
    expected = dct_nd_oracle(samples, (BoundaryType.TYPE_I,) * 2)
    got = dct_nd(samples, (BoundaryType.TYPE_I,) * 2)
    assert np.allclose(got, expected, atol=1e-12)
    expect = np.zeros((5, 5))
    expect[1, 2] = 1.0
    assert np.allclose(got, expect, atol=1e-12)


def test_nd_axis_order_independence():
    rng = np.random.default_rng(3)
    v = rng.standard_normal((6, 4, 3))
    kinds = (BoundaryType.TYPE_I, BoundaryType.TYPE_II, BoundaryType.TYPE_V_PLUS)
    a = dct_nd(v, kinds)
    # transform axes in reverse order by permuting, transforming, unpermuting
    b = v.transpose(2, 1, 0)
    b = dct_nd(b, kinds[::-1]).transpose(2, 1, 0)
    assert np.allclose(a, b, atol=1e-12)


def test_nd_round_trip_mixed_types():
    rng = np.random.default_rng(11)
    v = rng.standard_normal((5, 3, 4))
    kinds = (BoundaryType.TYPE_V_MINUS, BoundaryType.TYPE_II, BoundaryType.TYPE_I)
    back = idct_nd(dct_nd(v, kinds), kinds)
    assert np.max(np.abs(back - v)) < 1e-12


@pytest.mark.parametrize("shape,kinds", MIXED_3D)
def test_nd_mixed_families_match_oracles(shape, kinds):
    rng = np.random.default_rng(sum(shape))
    v = rng.standard_normal(shape)
    assert np.max(np.abs(dct_nd(v, kinds) - dct_nd_oracle(v, kinds))) < 1e-12
    c = rng.standard_normal(shape)
    assert np.max(np.abs(idct_nd(c, kinds) - synthesis_nd_oracle(c, kinds))) < 1e-12


def test_grid_dct_validates_and_keeps_scales_read_only():
    with pytest.raises(ValueError):
        GridDCT((1, 3), (I, II))  # TYPE_I needs two nodes
    with pytest.raises(ValueError):
        GridDCT((3, 3), (I,))
    with pytest.raises(ValueError):
        GridDCT((), ())
    op = GridDCT((4, 3), (I, VP))
    v = np.random.default_rng(1).standard_normal((4, 3))
    before = v.copy()
    assert np.array_equal(op.forward(v), dct_nd(v, (I, VP)))
    assert np.array_equal(v, before)  # input untouched by the in-place scaling
    with pytest.raises(ValueError):
        op._analysis_scale[0, 0] = 2.0


# grids with axes on both sides of the dense/FFT cut, and the mixes above
CUT = dct._DENSE_MAX
DENSE_AND_FFT = MIXED_3D + [
    ((CUT + 2, 3, CUT + 1), (I, II, VM)),
    ((2, CUT + 3, 4), (I, VP, II)),
    ((CUT + 4, CUT + 1), (II, VP)),
    ((CUT + 2, CUT + 5), (I, I)),
]


@pytest.mark.parametrize("shape,kinds", DENSE_AND_FFT)
@pytest.mark.parametrize("dense_max", [0, dct._DENSE_MAX, 64])
def test_grid_dct_dense_and_fft_axes_match_oracles(monkeypatch, shape, kinds, dense_max):
    # dense_max 0 forces every axis through the FFT, 64 every axis through
    # the dense product; the default splits the long grids above
    monkeypatch.setattr(dct, "_DENSE_MAX", dense_max)
    op = GridDCT(shape, kinds)
    rng = np.random.default_rng(len(shape) + sum(shape))
    v, c = rng.standard_normal(shape), rng.standard_normal(shape)
    before = v.copy(), c.copy()
    assert np.max(np.abs(op.forward(v) - dct_nd_oracle(v, kinds))) < 1e-12
    assert np.max(np.abs(op.inverse(c) - synthesis_nd_oracle(c, kinds))) < 1e-11
    lhs = np.vdot(c, op.forward(v))
    rhs = np.vdot(op.adjoint(c), v)
    assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs))
    assert np.array_equal(v, before[0]) and np.array_equal(c, before[1])


@pytest.mark.parametrize("kind", ALL_TYPES)
def test_grid_dct_dense_unit_recovery(kind):
    # every representable mode of a dense 2-d grid comes back as its unit tensor
    n = 9
    op = GridDCT((n, n), (kind, kind))
    assert not op._dctn and not op._type_v
    thetas = nodes_1d(n, kind).thetas
    for k in range(n):
        tensor = np.multiply.outer(np.cos(k * thetas), np.cos((n - 1 - k) * thetas))
        expect = np.zeros((n, n))
        expect[k, n - 1 - k] = 1.0
        assert np.allclose(op.forward(tensor), expect, atol=1e-13), (kind, k)
        assert np.allclose(op.inverse(expect), tensor, atol=1e-13), (kind, k)


# -------------------------------------------------------------- adjoint


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_adjoint_identity(seed):
    rng = np.random.default_rng(seed)
    kinds = (BoundaryType.TYPE_I, BoundaryType.TYPE_V_PLUS)
    shape = (4, 3)
    u = rng.standard_normal(shape)
    f = rng.standard_normal(shape)
    lhs = np.vdot(u, dct_nd(f, kinds))
    rhs = np.vdot(adjoint_dct_nd(u, kinds), f)
    assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs))


@pytest.mark.parametrize("shape,kinds", MIXED_3D)
def test_adjoint_identity_mixed_families(shape, kinds):
    rng = np.random.default_rng(len(shape) + sum(shape))
    u = rng.standard_normal(shape)
    f = rng.standard_normal(shape)
    lhs = np.vdot(u, dct_nd(f, kinds))
    rhs = np.vdot(adjoint_dct_nd(u, kinds), f)
    assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs))


# ---------------------------------------------------------- performance


@pytest.mark.slow
def test_fft_scaling_soft():
    import time

    def best_time(n):
        v = np.random.default_rng(0).standard_normal(n)
        dct_1d(v, BoundaryType.TYPE_II)  # warm up
        best = np.inf
        for _ in range(5):
            t0 = time.perf_counter()
            dct_1d(v, BoundaryType.TYPE_II)
            best = min(best, time.perf_counter() - t0)
        return best

    n = 2**14
    t1, t2 = best_time(n), best_time(2 * n)
    assert t2 / t1 <= 2.6
