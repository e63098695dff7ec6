import numpy as np
import pytest

from cheblat import bench, calculus as calc, lattice as lat
from oracles import (interp_convergence_oracle, quad_convergence_oracle,
                     radial_function_oracle)


# -------------------------------------------------------------- rotations


def test_rotation_orthogonal():
    rng = np.random.default_rng(0)
    for dim in (2, 3):
        for _ in range(20):
            R = bench.random_rotation(dim, rng)
            assert np.max(np.abs(R.T @ R - np.eye(dim))) < 1e-12
            assert abs(np.linalg.det(R) - 1.0) < 1e-12


def test_rotation_deterministic():
    a = [bench.random_rotation(3, np.random.default_rng(42)) for _ in range(3)]
    b = [bench.random_rotation(3, np.random.default_rng(42)) for _ in range(3)]
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_rotation_2d_angle_uniform():
    rng = np.random.default_rng(123)
    n = 10_000
    angles = np.empty(n)
    for i in range(n):
        R = bench.random_rotation(2, rng)
        angles[i] = np.arctan2(R[1, 0], R[0, 0]) % (2 * np.pi)
    bins = 16
    counts, _ = np.histogram(angles, bins=bins, range=(0, 2 * np.pi))
    expected = n / bins
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # chi^2(15) 99.9th percentile is 37.7; deterministic seed keeps this stable
    assert chi2 < 37.7


def test_rotation_dim_validation():
    with pytest.raises(bench.BenchError):
        bench.random_rotation(4, np.random.default_rng(0))


def test_config_validation():
    with pytest.raises(bench.BenchError):
        bench.ExperimentConfig(sweep={"padua": (2,)}, dim=2, trials=0)
    with pytest.raises(bench.BenchError):
        bench.ExperimentConfig(sweep={"padua": (2,)}, dim=2, metric="bogus")
    # quadrature runs read no metric, so there is no quadrature metric to name
    with pytest.raises(bench.BenchError, match="unknown metric 'integral-relative'"):
        bench.ExperimentConfig(sweep={"padua": (2,)}, dim=2, metric="integral-relative")
    with pytest.raises(bench.BenchError):
        bench.ExperimentConfig(sweep={"padua": (2,)}, dim=4)


# ---------------------------------------------------------- test function


def test_test_function_kinds():
    R = np.eye(2)
    c = np.zeros(2)
    X = np.array([[0.5, 0.0], [0.0, 0.0]])
    g = bench.TestFunction("gaussian", c, R)
    assert g(X)[0] == pytest.approx(np.exp(-0.25))
    r = bench.TestFunction("runge", c, R)
    assert r(X)[0] == pytest.approx(1 / 1.5)
    e = bench.TestFunction("esssing", c, R)
    assert e(X)[1] == 0.0  # extended by zero at the center
    assert e(X)[0] == pytest.approx(np.exp(-4.0))
    with pytest.raises(bench.BenchError):
        bench.TestFunction("nope", c, R)
    with pytest.raises(bench.BenchError):
        bench.TestFunction("gaussian", c, np.array([[1.0, 0.2], [0.0, 1.0]]))


def test_test_function_rotation_acts_about_origin():
    rng = np.random.default_rng(1)
    R = bench.random_rotation(2, rng)
    fi = bench.TestFunction("gaussian", np.zeros(2), R)
    g = bench.TestFunction("gaussian", np.zeros(2), np.eye(2))
    X = rng.uniform(-1, 1, (50, 2))
    assert np.allclose(fi(X), g(X), atol=1e-14)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("kind", ["gaussian", "runge", "esssing"])
def test_test_function_matches_row_reduction_bitwise(kind, dim):
    rng = np.random.default_rng(dim)
    R = bench.random_rotation(dim, rng)
    c = np.array([0.3, 0.15, -0.2][:dim])
    f, ref = bench.TestFunction(kind, c, R), radial_function_oracle(kind, c, R)
    X = rng.uniform(-1, 1, (5000, dim)) * rng.choice([1e-170, 1e-3, 1.0, 30.0], (5000, 1))
    X[0] = c @ R  # the center, where esssing is extended by zero
    X[1], X[2] = np.nan, np.inf
    with np.errstate(invalid="ignore"):
        for Y in (X, X[:1], X[0], np.empty((0, dim))):
            assert f(Y).view(np.int64).tolist() == ref(Y).view(np.int64).tolist()


def test_test_function_checks_shapes():
    with pytest.raises(bench.BenchError, match="center must have 3 entries"):
        bench.TestFunction("gaussian", np.array([0.5]), np.eye(3))
    with pytest.raises(bench.BenchError, match="center must have 2 entries"):
        bench.TestFunction("gaussian", np.zeros(3), np.eye(2))
    with pytest.raises(bench.BenchError, match="square"):
        bench.TestFunction("gaussian", np.zeros(2), np.eye(2, 3))
    with pytest.raises(bench.BenchError, match="square"):
        bench.TestFunction("gaussian", np.zeros(2), np.ones(2))


def test_test_function_keeps_read_only_copies():
    R, c = np.eye(3), np.zeros(3)
    f = bench.TestFunction("gaussian", c, R)
    x = np.array([[0.0, 1.0, 0.0]])
    before = f(x)
    R[0, 1] = 5.0
    c[1] = 1.0
    assert f(x).tolist() == before.tolist() == [np.exp(-1.0)]
    assert not f.rotation.flags.writeable and not f.center.flags.writeable
    with pytest.raises(ValueError):
        f.rotation[0, 1] = 5.0
    assert bench.TestFunction("gaussian", [0, 0], [[1, 0], [0, 1]]).rotation.dtype == float


# ------------------------------------------------------------ experiments


def _config(**kw):
    base = dict(
        sweep={"padua": (2, 4)},
        dim=2,
        kind="gaussian",
        trials=3,
        seed=11,
        metric="l2-mc",
        sample_budget=2000,
    )
    base.update(kw)
    return bench.ExperimentConfig(**base)


def test_interp_records_consistent():
    records = bench.run_interp_convergence(_config())
    assert len(records) == 2
    for r in records:
        L = lat.build(r.family, r.dim, r.resolution)
        assert r.npoints == L.npoints
        assert r.euclidean_degree == pytest.approx(L.euclidean_degree())
        assert r.error_mean >= 0 and r.error_std >= 0
        assert r.trials == 3 and r.seed == 11


def test_interp_deterministic_under_seed():
    a = bench.run_interp_convergence(_config())
    b = bench.run_interp_convergence(_config())
    assert bench.records_to_csv(a) == bench.records_to_csv(b)


def test_interp_error_decreases_after_smoothing():
    records = bench.run_interp_convergence(
        _config(sweep={"padua": (4, 7, 10, 13, 16)}, trials=2)
    )
    errs = [r.error_mean for r in records]
    smoothed = [max(a, b) for a, b in zip(errs, errs[1:])]
    assert all(b < a for a, b in zip(smoothed, smoothed[1:])), errs


def test_centered_radial_function_rotation_invariant():
    # symmetric integrand centered at the origin: every rotation sees the
    # same data, so per-trial errors agree to roundoff (grid metric)
    cfg = _config(
        sweep={"hex": (1,)}, center=(0.0, 0.0), metric="l2-grid", trials=4, sample_budget=900
    )
    records = bench.run_interp_convergence(cfg)
    assert records[0].error_std <= 1e-10 * max(records[0].error_mean, 1e-30)


def test_mc_and_grid_metrics_agree():
    mc = bench.run_interp_convergence(_config(trials=2, sample_budget=60_000))
    grid = bench.run_interp_convergence(_config(trials=2, metric="l2-grid", sample_budget=10_000))
    for a, b in zip(mc, grid):
        assert a.error_mean == pytest.approx(b.error_mean, rel=0.35)


def test_interp_rejects_gauss_legendre_before_building(monkeypatch):
    calls = []
    monkeypatch.setattr(lat, "build", lambda *a, **k: calls.append(a))
    with pytest.raises(bench.BenchError, match="quadrature runs only"):
        bench.run_interp_convergence(_config(sweep={"padua": (40,), "gauss-legendre": (4,)}))
    assert calls == []


@pytest.mark.parametrize("dim, kind, metric", [
    (2, "gaussian", "l2-mc"), (2, "esssing", "l2-grid"),
    (3, "esssing", "l2-mc"), (3, "gaussian", "l2-grid"), (3, "runge", "l2-mc"),
])
def test_interp_records_match_family_outer_oracle(dim, kind, metric):
    sweep = {"padua": (3, 6), "hex": (1, 2)} if dim == 2 else {"bcc": (2, 4), "cartesian": (3,)}
    cfg = _config(sweep=sweep, dim=dim, kind=kind, metric=metric, sample_budget=700)
    assert (bench.records_to_csv(bench.run_interp_convergence(cfg))
            == bench.records_to_csv(interp_convergence_oracle(cfg)))


@pytest.mark.parametrize("dim, kind", [(2, "gaussian"), (2, "esssing"), (3, "gaussian"), (3, "esssing")])
def test_quad_records_match_family_outer_oracle(dim, kind):
    sweep = ({"padua": (3, 6), "gauss-legendre": (3, 5), "hex": (2,)} if dim == 2
             else {"bcc": (3, 4), "gauss-legendre": (2, 4), "cartesian": (3,)})
    cfg = _config(sweep=sweep, dim=dim, kind=kind)
    assert (bench.records_to_csv(bench.run_quad_convergence(cfg))
            == bench.records_to_csv(quad_convergence_oracle(cfg)))


def test_quad_records_and_gl_comparator():
    cfg = _config(
        sweep={"padua": (2, 4), "gauss-legendre": (2, 3)},
        trials=2,
    )
    records = bench.run_quad_convergence(cfg)
    fams = [r.family for r in records]
    assert fams.count("gauss-legendre") == 2
    gl = [r for r in records if r.family == "gauss-legendre"]
    assert gl[0].npoints == 4 and gl[1].npoints == 9
    assert gl[0].euclidean_degree == pytest.approx(3.0)


def test_quad_constant_zero_error():
    # f == 1 integrates exactly at every resolution
    from cheblat import calculus, transform as tf

    for fam, res in (("padua", 3), ("bcc", 2)):
        dim = 3 if fam == "bcc" else 2
        L = lat.build(fam, dim, res)
        st = calculus.quadrature_stencil(tf.plan(L))
        assert calculus.integrate(st, np.ones(L.npoints)) == pytest.approx(2.0**dim, abs=1e-12)


def test_bcc_beats_cartesian_interpolation_at_matched_counts():
    cfg = bench.ExperimentConfig(
        sweep={"bcc": (8, 10, 12), "cartesian": (6, 7, 8)},
        dim=3, kind="gaussian", trials=4, seed=3, metric="l2-mc", sample_budget=6000,
    )
    records = bench.run_interp_convergence(cfg)
    bcc = {r.resolution: r for r in records if r.family == "bcc"}
    cart = {r.resolution: r for r in records if r.family == "cartesian"}
    # matched point counts: 189 vs 216, 341 vs 343, 559 vs 512
    assert bcc[8].error_mean <= cart[6].error_mean
    assert bcc[10].error_mean <= cart[7].error_mean
    assert bcc[12].error_mean <= cart[8].error_mean


def test_entire_function_rate_elbow_3d():
    # on an entire integrand the 3d lattice rules slow from their initial
    # super-exponential rate once errors pass ~1e-6..1e-8; check the rate
    # reduction is present (qualitative, fixed seed)
    cfg = bench.ExperimentConfig(
        sweep={"bcc": (6, 8, 16, 18, 20)},
        dim=3, kind="gaussian", trials=6, seed=5,
    )
    records = sorted(bench.run_quad_convergence(cfg), key=lambda r: r.resolution)
    deg = np.array([r.euclidean_degree for r in records])
    err = np.array([r.error_mean for r in records])
    pre = -(np.log10(err[1]) - np.log10(err[0])) / (deg[1] - deg[0])
    post = -(np.log10(err[4]) - np.log10(err[2])) / (deg[4] - deg[2])
    assert err[1] > 1e-7 and err[2] < 1e-8
    assert pre / post >= 1.2, (pre, post)


def test_csv_header_exact():
    text = bench.records_to_csv(
        bench.run_interp_convergence(_config(sweep={"padua": (2,)}, trials=1))
    )
    assert text.splitlines()[0] == "family,dim,resolution,npoints,euclidean_degree,error_mean,error_std,trials,seed"


def test_reference_integral_convergence_guard():
    # a function the reference rules cannot settle within their node budget
    # raises, naming the last two orders, instead of lying
    f = lambda X: np.sign(X[:, 0] - 0.123)
    with pytest.raises(bench.BenchError, match=r"orders 500, 508: "):
        bench.reference_integral(f, 2, 4)


# --------------------------------------------------------------- lebesgue


def test_lebesgue_two_point_line():
    L = lat.build("cartesian", 1, 2)
    est = bench.lebesgue_estimate(L, probe_per_axis=101)
    assert est == pytest.approx(1.0, abs=1e-12)


def test_lebesgue_lower_bound_one():
    for fam, dim, res in (("padua", 2, 4), ("bcc", 3, 2)):
        L = lat.build(fam, dim, res)
        assert bench.lebesgue_estimate(L, probe_per_axis=15) >= 1.0 - 1e-12


def test_lebesgue_budget_guard():
    L = lat.build("cartesian", 2, 60)
    with pytest.raises(bench.BenchError):
        bench.lebesgue_estimate(L)


# -------------------------------------------------------------------- svg


def test_svg_chart_smoke():
    x = np.array([4.0, 8.0, 16.0])
    chart = bench.svg_line_chart({"a": (x, np.array([1e-1, 1e-3, 1e-6]))}, title="t")
    assert chart.startswith("<svg") and chart.endswith("</svg>")
    assert "polyline" in chart


def test_reference_integral_steps_up_until_two_rules_agree():
    # esssing needs about order 40 in 2d; a single check from order 14 fails
    f = bench.TestFunction("esssing", np.array([0.3, 0.15]), np.eye(2))
    ref = bench.reference_integral(f, 2, 14)
    nodes, w = calc.gauss_legendre(96, 2)
    assert abs(ref - float(w @ f(nodes))) <= 1e-9 * abs(ref)
    # an integrand the rules already settle returns the second rule, as a single check did
    g = bench.TestFunction("gaussian", np.array([0.3, 0.15]), np.eye(2))
    nodes, w = calc.gauss_legendre(30 + 8, 2)
    assert bench.reference_integral(g, 2, 30) == float(w @ g(nodes))


def test_sample_budget_and_probe_count_must_be_positive():
    with pytest.raises(bench.BenchError, match="sample_budget must be >= 1, got 0"):
        _config(sample_budget=0)
    with pytest.raises(bench.BenchError, match="got 0"):
        bench.lebesgue_estimate(lat.build("hex", 2, 1), probe_per_axis=0)
