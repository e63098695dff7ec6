"""Rotation-averaged convergence experiments and Lebesgue-constant estimates.

The error of a single integrand is a poor judge of a collocation method
because orientation effects dominate.  The harness therefore averages
over many random rotations of one asymmetric test function: each trial
draws a Haar-uniform rotation, forms the interpolant (or the integral) on
a lattice, and records the error; results are reported as mean and spread
per (family, resolution).

Everything is deterministic under a fixed seed: trial ``t`` draws from a
generator seeded with ``(seed, t)``, so results do not depend on
execution order.

Both harnesses set up every (family, resolution) first: interpolation
runs build each lattice and plan, quadrature runs each lattice, plan and
stencil, and each Gauss-Legendre comparator rule.  Then each trial's
work is done once and shared by every (family, resolution): the
rotation and test function, and for interpolation the error points and
the function's values on them (for quadrature, the reference integral).
Peak memory is therefore everything set up plus one trial's points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import calculus, lattice as lat, transform as tf


class BenchError(ValueError):
    pass


# Each profile overwrites and returns its argument, an array the caller owns.
def _gaussian(r2):
    return np.exp(np.negative(r2, out=r2), out=r2)


def _runge(r2):
    np.sqrt(r2, out=r2)
    r2 += 1.0
    return np.divide(1.0, r2, out=r2)


def _esssing(r2):
    at_center = ~(r2 > 0)  # and NaN, which the profile also maps to 0
    np.maximum(r2, 1e-300, out=r2)
    np.exp(np.divide(-1.0, r2, out=r2), out=r2)
    r2[at_center] = 0.0
    return r2


_PROFILES = {"gaussian": _gaussian, "runge": _runge, "esssing": _esssing}


def _frozen(values) -> np.ndarray:
    values = np.array(values, dtype=float)
    values.flags.writeable = False
    return values


@dataclass(frozen=True)
class TestFunction:
    """A radial profile composed with a rotation and an offset center.

    ``f(x) = profile(||R x - a||^2)``; defined on all of R^d so rotations
    never leave the domain of definition.  ``esssing`` is
    ``exp(-1/r^2)`` extended by 0 at the center: C-infinity but not
    analytic there.  Immutable: ``center`` and ``rotation`` are read-only
    float copies of the given values.
    """

    kind: str
    center: np.ndarray
    rotation: np.ndarray

    def __post_init__(self):
        if self.kind not in _PROFILES:
            raise BenchError(f"unknown test function kind {self.kind!r}")
        R, c = _frozen(self.rotation), _frozen(self.center)
        if R.ndim != 2 or R.shape[0] != R.shape[1]:
            raise BenchError(f"rotation must be a square matrix, got shape {R.shape}")
        if c.shape != R.shape[:1]:
            raise BenchError(f"center must have {R.shape[0]} entries, got shape {c.shape}")
        if np.max(np.abs(R.T @ R - np.eye(R.shape[0]))) > 1e-12:
            raise BenchError("rotation matrix is not orthogonal")
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "center", c)

    def __call__(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Y = X @ self.rotation.T
        Y -= self.center
        Y *= Y
        # Columns summed left to right: on rows this short, the same bits as
        # ``Y.sum(axis=1)`` without numpy's slow reduction over a short axis.
        r2 = Y[:, 0].copy()
        for column in Y.T[1:]:
            r2 += column
        return _PROFILES[self.kind](r2)


_DEFAULT_CENTERS = {2: (0.3, 0.15), 3: (0.3, 0.15, -0.2)}


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep description for the convergence harnesses.

    ``sweep`` maps family name to the resolutions to run; the pseudo
    family ``"gauss-legendre"`` adds a tensor Gauss-Legendre comparator
    whose resolution is the per-axis rule order (quadrature runs only).
    ``metric`` and ``sample_budget`` set how interpolation runs sample the
    error; quadrature runs read neither.
    """

    sweep: dict[str, tuple[int, ...]]
    dim: int
    kind: str = "gaussian"
    trials: int = 20
    seed: int = 0
    metric: str = "l2-mc"
    sample_budget: int = 20_000
    center: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise BenchError("trials must be >= 1")
        if self.sample_budget < 1:
            raise BenchError(f"sample_budget must be >= 1, got {self.sample_budget}")
        if self.dim not in (2, 3):
            raise BenchError("dim must be 2 or 3")
        if self.kind not in _PROFILES:
            raise BenchError(f"unknown test function kind {self.kind!r}")
        if self.metric not in ("l2-mc", "l2-grid"):
            raise BenchError(f"unknown metric {self.metric!r}")

    def resolved_center(self) -> np.ndarray:
        c = self.center if self.center is not None else _DEFAULT_CENTERS[self.dim]
        return np.asarray(c, dtype=float)


@dataclass(frozen=True)
class ErrorRecord:
    family: str
    dim: int
    resolution: int
    npoints: int
    euclidean_degree: float
    error_mean: float
    error_std: float
    trials: int
    seed: int


CSV_HEADER = "family,dim,resolution,npoints,euclidean_degree,error_mean,error_std,trials,seed"


def records_to_csv(records) -> str:
    rows = np.array([(r.family, r.dim, r.resolution, r.npoints, r.euclidean_degree,
                      r.error_mean, r.error_std, r.trials, r.seed) for r in records],
                    dtype=object).reshape(-1, 9)
    g = lat._G17
    return CSV_HEADER + "\n" + lat._format_rows(rows, f"%s,%d,%d,%d,{g},{g},{g},%d,%d\n", "")


def random_rotation(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform rotation matrix (det +1)."""
    if dim == 2:
        a = rng.uniform(0.0, 2.0 * np.pi)
        c, s = np.cos(a), np.sin(a)
        return np.array([[c, -s], [s, c]])
    if dim == 3:
        A = rng.standard_normal((3, 3))
        Q, R = np.linalg.qr(A)
        Q = Q * np.sign(np.diag(R))
        if np.linalg.det(Q) < 0:
            Q[:, -1] = -Q[:, -1]
        return Q
    raise BenchError("rotations implemented for dim 2 and 3 only")


def _trial_rng(seed: int, trial: int, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, trial, stream])


def _error_points(config: ExperimentConfig, trial: int) -> np.ndarray:
    """The points where trial ``trial`` of an interpolation run samples the error."""
    if config.metric == "l2-grid":
        per_axis = max(4, int(round(config.sample_budget ** (1.0 / config.dim))))
        axes = [np.linspace(-1.0, 1.0, per_axis)] * config.dim
        grids = np.meshgrid(*axes, indexing="ij")
        return np.column_stack([g.ravel() for g in grids])
    # "l2-mc"
    return _trial_rng(config.seed, trial, 1).uniform(-1.0, 1.0, (config.sample_budget, config.dim))


def _interp_error(plan, f, X: np.ndarray, fx: np.ndarray, denom: float) -> float:
    """Relative L2 error at ``X`` of the interpolant of ``f`` on ``plan``'s lattice."""
    coeffs = tf.forward(plan, f(plan.lattice.points))
    px = calculus.evaluate(calculus.Interpolant(plan.lattice, coeffs), X)
    return math.sqrt(float(np.mean((fx - px) ** 2))) / denom


def _record(config: ExperimentConfig, family: str, res: int, npoints: int, degree: float,
            errs: np.ndarray) -> ErrorRecord:
    return ErrorRecord(
        family=family,
        dim=config.dim,
        resolution=res,
        npoints=npoints,
        euclidean_degree=degree,
        error_mean=float(errs.mean()),
        error_std=float(errs.std()),
        trials=config.trials,
        seed=config.seed,
    )


def run_interp_convergence(config: ExperimentConfig) -> list[ErrorRecord]:
    """Mean rotated-interpolation error per (family, resolution).

    Every plan is built first.  Each trial then draws its rotation and
    error points and evaluates the test function on them once, and
    measures every plan against them, so peak memory is all plans plus
    one trial's points and values.
    """
    if "gauss-legendre" in config.sweep:
        raise BenchError("gauss-legendre comparator applies to quadrature runs only")
    plans = [(family, res, tf.plan(lat.build(family, config.dim, res)))
             for family, resolutions in config.sweep.items() for res in resolutions]
    center = config.resolved_center()
    errs = np.empty((len(plans), config.trials))
    for t in range(config.trials):
        R = random_rotation(config.dim, _trial_rng(config.seed, t))
        f = TestFunction(kind=config.kind, center=center, rotation=R)
        X = _error_points(config, t)
        fx = f(X)
        denom = math.sqrt(float(np.mean(fx * fx))) or 1.0
        for i, (_, _, plan) in enumerate(plans):
            errs[i, t] = _interp_error(plan, f, X, fx, denom)
    return [_record(config, family, res, plan.lattice.npoints, plan.lattice.euclidean_degree(), e)
            for (family, res, plan), e in zip(plans, errs)]


# Most nodes a reference rule may have (order 64 in 3d, 512 in 2d); bounds its time and memory.
_REFERENCE_NODES = 1 << 18


def reference_integral(f, dim: int, order: int) -> float:
    """Tensor Gauss-Legendre reference integral over the cube.

    The order steps up by 8 from ``order`` until two successive rules agree
    to 1e-9 relative; `BenchError` when the next rule would pass
    ``_REFERENCE_NODES`` nodes first.
    """
    def rule(n: int) -> float:
        nodes, w = calculus.gauss_legendre(n, dim)
        return float(w @ f(nodes))

    a, b = rule(order), rule(order + 8)
    while abs(a - b) / max(abs(b), 1e-30) > 1e-9:
        if (order + 16) ** dim > _REFERENCE_NODES:
            raise BenchError(
                f"reference integral failed to converge (orders {order}, {order + 8}: "
                f"{a:.16e} vs {b:.16e})"
            )
        order += 8
        a, b = b, rule(order + 8)
    return b


def run_quad_convergence(config: ExperimentConfig) -> list[ErrorRecord]:
    """Relative rotated-integration error per (family, resolution).

    Reference values come from `reference_integral`, starting at the
    largest tested degree plus 12.  Every lattice, plan and stencil and
    every Gauss-Legendre comparator rule is built once, before the
    trials.
    """
    center = config.resolved_center()
    specs = []
    for family, resolutions in config.sweep.items():
        for res in resolutions:
            if family == "gauss-legendre":
                nodes, w = calculus.gauss_legendre(res, config.dim)
                specs.append((family, res, (nodes, w), w.size, float(2 * res - 1)))
            else:
                lattice = lat.build(family, config.dim, res)
                stencil = calculus.quadrature_stencil(tf.plan(lattice))
                specs.append((family, res, stencil, lattice.npoints, lattice.euclidean_degree()))
    max_degree = max([1.0] + [degree for *_, degree in specs])
    ref_order = int(math.ceil(max_degree)) + 12
    errs = np.empty((len(specs), config.trials))
    for t in range(config.trials):
        R = random_rotation(config.dim, _trial_rng(config.seed, t))
        f = TestFunction(kind=config.kind, center=center, rotation=R)
        ref = reference_integral(f, config.dim, ref_order)
        for i, (family, _, rule, _, _) in enumerate(specs):
            if family == "gauss-legendre":
                nodes, w = rule
                val = float(w @ f(nodes))
            else:
                val = calculus.integrate(rule, f(rule.lattice.points))
            errs[i, t] = abs(val - ref) / max(abs(ref), 1e-30)
    return [_record(config, family, res, npoints, degree, e)
            for (family, res, _, npoints, degree), e in zip(specs, errs)]


def lebesgue_estimate(lattice, probe_per_axis: int = 60) -> float:
    """Max over a probe grid of the sum of absolute cardinal functions.

    Cardinal functions are obtained by interpolating unit data; the
    estimate is a lower bound on the true Lebesgue constant that
    converges as the probe grid refines.  Guarded to ~2000 points.
    """
    if probe_per_axis < 1:
        raise BenchError(f"probe points per axis must be >= 1, got {probe_per_axis}")
    if lattice.npoints > 2200:
        raise BenchError("lebesgue estimate limited to ~2000 points")
    plan = tf.plan(lattice)
    n = lattice.npoints
    # coefficient matrix of all cardinal functions: row i = forward(e_i)
    C = np.empty((n, len(lattice.basis)))
    eye = np.eye(n)
    for i in range(n):
        C[i] = tf.forward(plan, eye[i])
    axes = [np.linspace(-1.0, 1.0, probe_per_axis)] * lattice.dim
    grids = np.meshgrid(*axes, indexing="ij")
    X = np.column_stack([g.ravel() for g in grids])
    thetas = np.arccos(np.clip(X, -1.0, 1.0))
    best = 0.0
    step = max(1, 200_000 // max(n, 1))
    for lo in range(0, X.shape[0], step):
        E = lattice.basis_matrix(thetas[lo : lo + step])
        card = E @ C.T
        best = max(best, float(np.abs(card).sum(axis=1).max()))
    return best


def svg_line_chart(series: dict[str, tuple[np.ndarray, np.ndarray]], title: str = "") -> str:
    """Tiny standalone SVG: log10(y) against x, one polyline per series."""
    W, H, pad = 640, 440, 54
    xs_all = np.concatenate([np.asarray(x, dtype=float) for x, _ in series.values()])
    ys_all = np.concatenate([np.asarray(y, dtype=float) for _, y in series.values()])
    ys_all = np.log10(np.maximum(ys_all, 1e-300))
    x0, x1 = float(xs_all.min()), float(xs_all.max())
    y0, y1 = float(ys_all.min()), float(ys_all.max())
    x1 = x1 if x1 > x0 else x0 + 1.0
    y1 = y1 if y1 > y0 else y0 + 1.0

    def px(x):
        return pad + (x - x0) / (x1 - x0) * (W - 2 * pad)

    def py(y):
        return H - pad - (y - y0) / (y1 - y0) * (H - 2 * pad)

    colors = ["#1b6ca8", "#c0392b", "#27ae60", "#8e44ad", "#d35400", "#2c3e50", "#16a085"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{H - pad}" x2="{W - pad}" y2="{H - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{H - pad}" stroke="black"/>',
    ]
    for i, (name, (x, y)) in enumerate(series.items()):
        ylog = np.log10(np.maximum(np.asarray(y, dtype=float), 1e-300))
        pts = " ".join(f"{px(float(a)):.2f},{py(float(b)):.2f}" for a, b in zip(x, ylog))
        color = colors[i % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{W - pad + 4}" y="{pad + 16 * i + 10}" font-size="11" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
