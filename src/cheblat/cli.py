"""Command-line interface.

Subcommands: info, points, transform, eval, diff, integrate, bench-interp,
bench-quad, lebesgue.  CSV is the interchange format for samples,
coefficients and weights (coordinate/index columns then a value, no
header); numeric output uses 17 significant digits.  Output files are
written atomically (temp file then rename) and input files are never
modified.

Exit status: 0 on success, 2 on usage errors, 1 on numerical or domain
failures.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import tempfile

import numpy as np

from . import bench, calculus, lattice as lat, transform as tf
from .lattice import _G17


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cheblat-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _atomic_write(out, text)


def _add_lattice_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, choices=[f.value for f in lat.Family])
    p.add_argument("--dim", required=True, type=int)
    p.add_argument("--resolution", required=True, type=int)


def _build_lattice(args) -> lat.ChebyshevLattice:
    return lat.build(args.family, args.dim, args.resolution)


def _read_file(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise lat.LatticeError(f"cannot read {path}: {exc}") from exc


def _cmd_info(args) -> int:
    lattice = _build_lattice(args)
    lines = [
        f"family: {lattice.family.value}",
        f"dim: {lattice.dim}",
        f"resolution: {lattice.resolution}",
        f"npoints: {lattice.npoints}",
        f"euclidean_degree: {_G17 % lattice.euclidean_degree()}",
        f"efficiency: {_G17 % lat.efficiency(lattice)}",
    ]
    if lattice.dim >= 2:
        for axis in range(lattice.dim):
            lines.append(
                f"boundary_efficiency[{axis}]: {_G17 % lat.boundary_efficiency(lattice, axis)}"
            )
    lines.append(f"sublattices: {len(lat.decompose(lattice))}")
    lines.append(f"cell_points: {lattice.cell_point_count}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_points(args) -> int:
    lattice = _build_lattice(args)
    _emit(lat.lattice_descriptor(lattice) + "\n", args.out)
    return 0


def _cmd_transform(args) -> int:
    lattice = _build_lattice(args)
    samples = tf.samples_from_csv(lattice, _read_file(args.samples))
    plan = tf.plan(lattice)
    if args.method == "padua":
        coeffs = tf.forward_padua(plan, samples)
    else:
        coeffs = tf.forward(plan, samples)
    _emit(tf.coefficients_to_csv(lattice, coeffs), args.out)
    return 0


def _list_of(kind):
    """argparse type: a comma-separated list of ``kind`` values."""
    def parse(text: str) -> list:
        try:
            return [kind(v) for v in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} list: {text!r}") from None
    return parse


def _cmd_eval(args) -> int:
    lattice = _build_lattice(args)
    coeffs = tf.coefficients_from_csv(lattice, _read_file(args.coeffs))
    interp = calculus.Interpolant(lattice, coeffs)
    if any(len(point) != lattice.dim for point in args.at):
        raise calculus.CalculusError(f"--at expects {lattice.dim} comma-separated coordinates")
    pts = np.array(args.at)
    vals = calculus.evaluate(interp, pts)
    _emit(tf._records(lat._coordinate_strings(pts), vals), args.out)
    return 0


def _cmd_diff(args) -> int:
    lattice = _build_lattice(args)
    coeffs = tf.coefficients_from_csv(lattice, _read_file(args.coeffs))
    interp = calculus.Interpolant(lattice, coeffs)
    if not 0 <= args.axis < lattice.dim:
        raise calculus.CalculusError(f"--axis must be in [0, {lattice.dim})")
    deriv = calculus.differentiate(interp, args.axis)
    _emit(tf.coefficients_to_csv(lattice, deriv.coeffs), args.out)
    return 0


def _cmd_integrate(args) -> int:
    lattice = _build_lattice(args)
    samples = tf.samples_from_csv(lattice, _read_file(args.samples))
    stencil = calculus.quadrature_stencil(tf.plan(lattice))
    if args.weights_out:
        _atomic_write(args.weights_out, calculus.stencil_to_csv(stencil))
    _emit(_G17 % calculus.integrate(stencil, samples) + "\n", args.out)
    return 0


def _parse_sweep(args) -> dict[str, tuple[int, ...]]:
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    resolutions = tuple(args.resolutions)
    return {fam: resolutions for fam in families}


def _cmd_bench(args, quad: bool) -> int:
    config = bench.ExperimentConfig(
        sweep=_parse_sweep(args),
        dim=args.dim,
        kind=args.function,
        trials=args.trials,
        seed=args.seed,
        # only the interpolation error is measured at sample points
        **({} if quad else {"metric": args.metric, "sample_budget": args.budget}),
    )
    runner = bench.run_quad_convergence if quad else bench.run_interp_convergence
    records = runner(config)
    _emit(bench.records_to_csv(records), args.out)
    if args.svg:
        series: dict = {}
        for r in records:
            series.setdefault(r.family, ([], []))
            series[r.family][0].append(r.npoints ** (1.0 / r.dim))
            series[r.family][1].append(max(r.error_mean, 1e-300))
        chart = bench.svg_line_chart(
            {k: (np.asarray(x), np.asarray(y)) for k, (x, y) in series.items()},
            title=("integration error" if quad else "interpolation error"),
        )
        _atomic_write(args.svg, chart)
    return 0


def _cmd_lebesgue(args) -> int:
    lattice = _build_lattice(args)
    est = bench.lebesgue_estimate(lattice, probe_per_axis=args.probe_density)
    _emit(_G17 % est + "\n", args.out)
    return 0


@functools.cache  # parse_args leaves the parser unchanged; help is formatted per call
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cheblat",
        description="Chebyshev interpolation and integration on efficient collocation lattices",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("info", help="lattice summary: point count, degree, efficiency")
    _add_lattice_args(sp)
    sp.add_argument("--out", help="write to file instead of stdout")
    sp.set_defaults(func=_cmd_info)

    sp = sub.add_parser("points", help="emit the JSON lattice descriptor")
    _add_lattice_args(sp)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_points)

    sp = sub.add_parser("transform", help="sample CSV to coefficient CSV")
    _add_lattice_args(sp)
    sp.add_argument("--samples", required=True, help="input sample CSV")
    sp.add_argument("--method", choices=("sublattice", "padua"), default="sublattice",
                    help="both give the same coefficients; padua also checks the lattice "
                         "is Padua")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_transform)

    sp = sub.add_parser("eval", help="evaluate a coefficient file at points")
    _add_lattice_args(sp)
    sp.add_argument("--coeffs", required=True)
    sp.add_argument("--at", action="append", required=True, type=_list_of(float),
                    help="point as x1,x2[,x3]; repeatable")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_eval)

    sp = sub.add_parser("diff", help="differentiate a coefficient file along an axis")
    _add_lattice_args(sp)
    sp.add_argument("--coeffs", required=True)
    sp.add_argument("--axis", type=int, required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_diff)

    sp = sub.add_parser("integrate", help="integrate a sample CSV over the cube")
    _add_lattice_args(sp)
    sp.add_argument("--samples", required=True)
    sp.add_argument("--weights-out", help="also write the stencil CSV")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_integrate)

    for name, quad in (("bench-interp", False), ("bench-quad", True)):
        sp = sub.add_parser(name, help=f"rotation-averaged {'integration' if quad else 'interpolation'} sweep")
        sp.add_argument("--families", required=True, help="comma-separated family names")
        sp.add_argument("--dim", type=int, required=True)
        sp.add_argument("--resolutions", required=True, type=_list_of(int),
                        help="comma-separated resolutions")
        # runge's cone at the centre defeats the Gauss-Legendre reference integral
        sp.add_argument("--function", default="gaussian",
                        choices=("gaussian", "esssing") if quad else ("gaussian", "runge", "esssing"))
        sp.add_argument("--trials", type=int, default=20)
        sp.add_argument("--seed", type=int, default=0)
        if not quad:
            sp.add_argument("--metric", default="l2-mc", choices=("l2-mc", "l2-grid"))
            sp.add_argument("--budget", type=int, default=20_000)
        sp.add_argument("--svg", help="also write an SVG line chart")
        sp.add_argument("--out")
        sp.set_defaults(func=functools.partial(_cmd_bench, quad=quad))

    sp = sub.add_parser("lebesgue", help="estimate the Lebesgue constant")
    _add_lattice_args(sp)
    sp.add_argument("--probe-density", type=int, default=60)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_lebesgue)
    return p


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (lat.LatticeError, tf.TransformError, calculus.CalculusError, bench.BenchError) as exc:
        print(f"cheblat {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cheblat {args.command}: file error: {exc}", file=sys.stderr)
        return 1
    except np.linalg.LinAlgError as exc:
        print(f"cheblat {args.command}: numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
