import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cheblat import calculus as calc, lattice as lat, transform as tf

FAMILIES_SMALL = [
    ("cartesian", 2, 5),
    ("padua", 2, 5),
    ("hex", 2, 1),
    ("bcc", 3, 3),
    ("fcc", 3, 2),
    ("composite-oct7", 2, 2),
]


def make(family, dim, res):
    L = lat.build(family, dim, res)
    return L, tf.plan(L)


# ------------------------------------------------------------------- eval


def test_constant_interpolant_evaluates_to_one():
    for family, dim, res in FAMILIES_SMALL:
        L, P = make(family, dim, res)
        interp = calc.interpolate(P, np.ones(L.npoints))
        X = np.random.default_rng(0).uniform(-1, 1, (20, dim))
        assert np.allclose(calc.evaluate(interp, X), 1.0, atol=1e-12)


def test_basis_polynomial_reproduced_at_nodes():
    for family, dim, res in FAMILIES_SMALL:
        L, P = make(family, dim, res)
        V = L.basis_matrix(L.point_thetas)
        j = min(3, len(L.basis) - 1)
        interp = calc.interpolate(P, V[:, j])
        assert np.max(np.abs(calc.evaluate(interp, L.points) - V[:, j])) < 1e-12


def test_evaluate_matches_inverse_at_nodes():
    rng = np.random.default_rng(1)
    for family, dim, res in FAMILIES_SMALL:
        L, P = make(family, dim, res)
        c = rng.standard_normal(len(L.basis))
        interp = calc.Interpolant(L, c)
        assert np.max(np.abs(calc.evaluate(interp, L.points) - tf.inverse(P, c))) < 1e-11


def test_evaluate_rejects_outside_cube():
    L, P = make("padua", 2, 3)
    interp = calc.interpolate(P, np.ones(L.npoints))
    with pytest.raises(calc.CalculusError):
        calc.evaluate(interp, np.array([1.5, 0.0]))


def test_evaluate_reflection_invariance():
    # theta -> -theta per axis maps to the same x, so evaluation is
    # well defined on the reflected torus by construction; check the
    # interpolant is even in each angle via symmetric x pairs
    L, P = make("bcc", 3, 3)
    rng = np.random.default_rng(2)
    interp = calc.interpolate(P, rng.standard_normal(L.npoints))
    X = rng.uniform(-1, 1, (10, 3))
    v1 = calc.evaluate(interp, X)
    v2 = calc.evaluate(interp, X.copy())
    assert np.array_equal(v1, v2)


EVAL_FAMILIES = [
    ("cartesian", 1, 9),
    ("cartesian", 2, 5),
    ("cartesian", 3, 4),
    ("padua", 2, 5),
    ("hex", 2, 3),
    ("hex", 2, 16),
    ("bcc", 3, 3),
    ("fcc", 3, 2),
    ("composite-oct7", 2, 2),
]


@functools.lru_cache(maxsize=None)
def built(family, dim, res):
    return lat.build(family, dim, res)


@pytest.mark.parametrize("family,dim,res", EVAL_FAMILIES)
def test_evaluate_matches_dense_basis_matrix(family, dim, res):
    L = built(family, dim, res)
    rng = np.random.default_rng(5)
    c = rng.standard_normal(len(L.basis))
    interp = calc.Interpolant(L, c)
    X = rng.uniform(-1, 1, (300, dim))
    X[:20] = rng.choice([-1.0, 1.0], (20, dim))
    X[20:40, -1] = 1.0
    X[40:60, 0] = -1.0
    ref = L.basis_matrix(np.arccos(X)) @ c
    tol = 1e-13 * np.max(np.abs(ref))
    vals = calc.evaluate(interp, X)
    assert vals.shape == (300,)
    assert np.max(np.abs(vals - ref)) <= tol
    one = calc.evaluate(interp, X[25])
    assert isinstance(one, float)
    assert abs(one - ref[25]) <= tol
    empty = calc.evaluate(interp, np.empty((0, dim)))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)
    # inside the 1e-12 slack, points are clipped onto the face
    nudged = X[20:40].copy()
    nudged[:, -1] += 5e-13
    assert np.max(np.abs(calc.evaluate(interp, nudged) - ref[20:40])) <= tol


def test_evaluate_tie_entry_sums_members():
    # the BCC tie T2(x)+T2(y)+T2(z), against numpy's Chebyshev series
    L = built("bcc", 3, 2)
    ties = [i for i, e in enumerate(L.basis) if e.is_tie]
    assert ties
    c = np.zeros(len(L.basis))
    c[ties[0]] = 1.0
    X = np.random.default_rng(6).uniform(-1, 1, (50, 3))
    expect = np.zeros(50)
    for member in L.basis[ties[0]].members:
        term = np.ones(50)
        for axis, k in enumerate(member):
            term *= np.polynomial.chebyshev.chebval(X[:, axis], np.eye(k + 1)[k])
        expect += term
    assert np.max(np.abs(calc.evaluate(calc.Interpolant(L, c), X) - expect)) < 1e-13


@settings(max_examples=30, deadline=None)
@given(
    case=st.sampled_from([c for c in EVAL_FAMILIES if c != ("hex", 2, 16)]),
    # multiples of 0.01 keep a * c out of the subnormal range
    a=st.integers(-400, 400).map(lambda n: n / 100),
    b=st.integers(-400, 400).map(lambda n: n / 100),
    seed=st.integers(0, 2**31),
)
def test_evaluate_linear_in_coefficients(case, a, b, seed):
    L = built(*case)
    rng = np.random.default_rng(seed)
    c1 = rng.standard_normal(len(L.basis))
    c2 = rng.standard_normal(len(L.basis))
    X = rng.uniform(-1, 1, (40, case[1]))
    lhs = calc.evaluate(calc.Interpolant(L, a * c1 + b * c2), X)
    rhs = a * calc.evaluate(calc.Interpolant(L, c1), X) + b * calc.evaluate(
        calc.Interpolant(L, c2), X
    )
    # |T_k| <= 1, so the l1 norm of the member coefficients bounds |p|
    _, owners = L.basis_member_matrix()
    scale = abs(a) * np.abs(c1[owners]).sum() + abs(b) * np.abs(c2[owners]).sum()
    assert np.max(np.abs(lhs - rhs)) <= 1e-14 * scale


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_evaluate_rejects_non_finite(bad):
    L, P = make("padua", 2, 3)
    interp = calc.interpolate(P, np.ones(L.npoints))
    with pytest.raises(calc.CalculusError, match="finite"):
        calc.evaluate(interp, np.array([bad, 0.0]))
    with pytest.raises(calc.CalculusError, match="finite"):
        calc.evaluate(interp, np.array([[0.1, 0.2], [0.0, bad]]))


def test_evaluate_rejects_bad_shape():
    L, P = make("bcc", 3, 3)
    interp = calc.interpolate(P, np.ones(L.npoints))
    for bad in (np.zeros(2), np.zeros((4, 2)), np.zeros((2, 3, 3))):
        with pytest.raises(calc.CalculusError, match="dim"):
            calc.evaluate(interp, bad)


def test_evaluate_memory_bounded():
    # the dense (npts x members) basis matrix would need about 3.3 GB here
    L = built("bcc", 3, 24)
    interp = calc.Interpolant(L, np.random.default_rng(7).standard_normal(len(L.basis)))
    X = np.random.default_rng(8).uniform(-1, 1, (100_000, 3))
    tracemalloc.start()
    try:
        vals = calc.evaluate(interp, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vals.shape == (100_000,) and np.all(np.isfinite(vals))
    assert peak < 64 * 2**20


def test_evaluate_and_differentiate_write_no_attributes():
    L, P = make("bcc", 3, 3)
    interp = calc.interpolate(P, np.random.default_rng(9).standard_normal(L.npoints))
    L.basis_index_of((0, 0, 0))  # builds the lattice's own index lookup
    before = (set(vars(L)), set(vars(P)), set(vars(interp)))
    calc.evaluate(interp, np.zeros((3, 3)))
    calc.differentiate(interp, 1)
    assert (set(vars(L)), set(vars(P)), set(vars(interp))) == before


def test_transforms_leave_plan_unchanged():
    L, P = make("padua", 2, 5)
    rng = np.random.default_rng(10)
    s = rng.standard_normal(L.npoints)
    c = rng.standard_normal(len(L.basis))
    before = {k: id(v) for k, v in vars(P).items()}
    tf.forward(P, s)
    tf.inverse(P, c)
    tf.adjoint(P, c)
    tf.forward_padua(P, s)
    assert {k: id(v) for k, v in vars(P).items()} == before


# ------------------------------------------------------------ derivative


def test_derivative_of_t1_is_constant():
    L, P = make("cartesian", 2, 4)
    interp = calc.interpolate(P, L.points[:, 0])
    d = calc.differentiate(interp, 0)
    expect = np.zeros(len(L.basis))
    expect[0] = 1.0
    assert np.allclose(d.coeffs, expect, atol=1e-13)


def test_derivative_t3_is_6t2_plus_3t0():
    L = lat.build("cartesian", 1, 8)
    P = tf.plan(L)
    th = L.point_thetas[:, 0]
    interp = calc.interpolate(P, np.cos(3 * th))
    d = calc.differentiate(interp, 0)
    expect = np.zeros(len(L.basis))
    expect[0] = 3.0
    expect[2] = 6.0
    assert np.allclose(d.coeffs, expect, atol=1e-12)


def test_derivative_annihilates_constants_and_is_linear():
    rng = np.random.default_rng(3)
    L, P = make("fcc", 3, 2)
    const = calc.interpolate(P, np.ones(L.npoints))
    assert np.allclose(calc.differentiate(const, 1).coeffs, 0.0, atol=1e-13)
    a = calc.Interpolant(L, rng.standard_normal(len(L.basis)))
    b = calc.Interpolant(L, rng.standard_normal(len(L.basis)))
    lin = calc.Interpolant(L, 2.0 * a.coeffs - 0.5 * b.coeffs)
    d = calc.differentiate(lin, 2).coeffs
    da = calc.differentiate(a, 2).coeffs
    db = calc.differentiate(b, 2).coeffs
    assert np.allclose(d, 2.0 * da - 0.5 * db, atol=1e-11)


def test_in_basis_derivative_exact_all_families():
    # d/dx of a few basis polynomials, against analytic 1d recurrences
    for family, dim, res in FAMILIES_SMALL:
        L, P = make(family, dim, res)
        V = L.basis_matrix(L.point_thetas)
        for j in range(min(len(L.basis), 12)):
            entry = L.basis[j]
            if entry.is_tie:
                continue
            e = np.zeros(len(L.basis))
            e[j] = 1.0
            d = calc.differentiate(calc.Interpolant(L, e), 0)
            # analytic: product rule, first factor by 1d Chebyshev calc
            k = entry.canonical
            cheb = np.zeros(k[0] + 1)
            cheb[k[0]] = 1.0
            dc = np.polynomial.chebyshev.chebder(cheb)
            expect = np.zeros(len(L.basis))
            ok = True
            for i, v in enumerate(dc):
                if abs(v) < 1e-14:
                    continue
                idx = (i,) + k[1:]
                bi = L.basis_index_of(idx)
                if bi is None or L.basis[bi].is_tie:
                    ok = False
                    break
                expect[bi] += v
            if ok:
                assert np.allclose(d.coeffs, expect, atol=1e-12), (family, k)


def test_derivative_finite_difference_agreement():
    rng = np.random.default_rng(4)
    for family, dim, res in [("padua", 2, 14), ("bcc", 3, 8), ("composite-oct7", 2, 5)]:
        L, P = make(family, dim, res)
        w = np.array([0.3, -0.4, 0.2])[:dim]
        f = lambda X: np.exp(X @ w)
        interp = calc.interpolate(P, f(L.points))
        X = rng.uniform(-0.9, 0.9, (100, dim))
        h = 1e-5
        for axis in range(dim):
            d = calc.differentiate(interp, axis)
            Xp = X.copy()
            Xp[:, axis] += h
            Xm = X.copy()
            Xm[:, axis] -= h
            fd = (calc.evaluate(interp, Xp) - calc.evaluate(interp, Xm)) / (2 * h)
            assert np.max(np.abs(fd - calc.evaluate(d, X))) < 1e-8, (family, axis)


def test_tie_entry_derivative_projected():
    # the BCC tie (T2(x)+T2(y)+T2(z)) differentiates member-wise to 4 T1(x)
    L, P = make("bcc", 3, 2)
    ties = [i for i, e in enumerate(L.basis) if e.is_tie]
    assert ties
    e = np.zeros(len(L.basis))
    e[ties[0]] = 1.0
    d = calc.differentiate(calc.Interpolant(L, e), 0)
    j = L.basis_index_of((1, 0, 0))
    expect = np.zeros(len(L.basis))
    expect[j] = 4.0
    assert np.allclose(d.coeffs, expect, atol=1e-12)


def test_differentiate_axis_validation():
    L, P = make("padua", 2, 3)
    interp = calc.interpolate(P, np.ones(L.npoints))
    with pytest.raises(calc.CalculusError):
        calc.differentiate(interp, 2)


# ------------------------------------------------------------- integrals


def test_basis_integrals_values():
    L = lat.build("cartesian", 2, 5)
    vals = calc.basis_integrals(L.basis)
    by_index = {e.canonical: v for e, v in zip(L.basis, vals)}
    assert by_index[(0, 0)] == pytest.approx(4.0, abs=1e-15)
    assert by_index[(2, 0)] == pytest.approx(-4.0 / 3.0, abs=1e-15)
    assert by_index[(1, 0)] == 0.0
    assert by_index[(3, 2)] == 0.0
    # numeric quadrature oracle for a 1d factor: integral of T_2
    t2 = np.polynomial.chebyshev.Chebyshev([0, 0, 1])
    numeric = t2.integ()(1.0) - t2.integ()(-1.0)
    assert by_index[(2, 0)] == pytest.approx(numeric * 2.0, abs=1e-13)


def test_quadrature_weight_sum_and_exactness():
    for family, dim, res in FAMILIES_SMALL:
        L, P = make(family, dim, res)
        st_ = calc.quadrature_stencil(P)
        assert abs(st_.weights.sum() - 2.0**dim) < 1e-12, family
        V = L.basis_matrix(L.point_thetas)
        got = st_.weights @ V
        expect = calc.basis_integrals(L.basis)
        assert np.max(np.abs(got - expect)) < 1e-12, family


def test_integrate_constant_and_t2():
    L, P = make("hex", 2, 1)
    st_ = calc.quadrature_stencil(P)
    assert calc.integrate(st_, np.ones(L.npoints)) == pytest.approx(4.0, abs=1e-12)
    s = np.cos(2 * L.point_thetas[:, 0])
    assert calc.integrate(st_, s) == pytest.approx(-4.0 / 3.0, abs=1e-12)
    with pytest.raises(calc.CalculusError):
        calc.integrate(st_, np.ones(3))


def test_cartesian_1d_reduces_to_clenshaw_curtis():
    # weights must match direct integration of the cardinal functions,
    # computed independently via numpy's Chebyshev fitting
    n = 9
    L = lat.build("cartesian", 1, n)
    P = tf.plan(L)
    st_ = calc.quadrature_stencil(P)
    xs = L.points[:, 0]
    expect = np.empty(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        card = np.polynomial.chebyshev.Chebyshev.fit(xs, e, deg=n - 1)
        anti = card.integ()
        expect[i] = anti(1.0) - anti(-1.0)
    assert np.allclose(st_.weights, expect, atol=1e-10)


def test_integrate_matches_gauss_legendre_on_smooth():
    L, P = make("padua", 2, 16)
    st_ = calc.quadrature_stencil(P)
    f = lambda X: np.exp(0.7 * X[:, 0] - 0.3 * X[:, 1])
    ours = calc.integrate(st_, f(L.points))
    nodes, w = calc.gauss_legendre(24, 2)
    ref = float(w @ f(nodes))
    assert abs(ours - ref) < 1e-10 * abs(ref)


# --------------------------------------------------------- gauss-legendre


def test_gl_n1():
    nodes, w = calc.gauss_legendre(1, 1)
    assert np.allclose(nodes, [[0.0]])
    assert np.allclose(w, [2.0])


def test_gl_n2():
    nodes, w = calc.gauss_legendre(2, 1)
    assert np.allclose(np.sort(nodes.ravel()), [-1 / math.sqrt(3), 1 / math.sqrt(3)])
    assert np.allclose(w, [1.0, 1.0])


@pytest.mark.parametrize("n", range(1, 21))
def test_gl_exactness_sweep(n):
    nodes, w = calc.gauss_legendre(n, 1)
    x = nodes.ravel()
    for p in range(2 * n):
        exact = 2.0 / (p + 1) if p % 2 == 0 else 0.0
        assert abs(float(w @ x**p) - exact) < 1e-12, (n, p)


def test_gl_tensor_2d():
    nodes, w = calc.gauss_legendre(3, 2)
    assert nodes.shape == (9, 2)
    assert abs(w.sum() - 4.0) < 1e-13
    # exact for x^2 y^4
    val = float(w @ (nodes[:, 0] ** 2 * nodes[:, 1] ** 4))
    assert abs(val - (2 / 3) * (2 / 5)) < 1e-13


def test_gl_validation():
    with pytest.raises(calc.CalculusError):
        calc.gauss_legendre(0, 2)


# -------------------------------------------------------------------- csv


def test_stencil_csv():
    L, P = make("padua", 2, 2)
    st_ = calc.quadrature_stencil(P)
    text = calc.stencil_to_csv(st_)
    rows = text.strip().splitlines()
    assert len(rows) == L.npoints
    parts = rows[0].split(",")
    assert len(parts) == 3
    total = sum(float(r.split(",")[-1]) for r in rows)
    assert abs(total - 4.0) < 1e-12
