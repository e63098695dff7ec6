#!/usr/bin/env python3
"""Rotation-averaged integration error with a Gauss-Legendre comparator.

Reproduces the convergence comparison between the lattice quadrature
stencils and tensor Gauss-Legendre on entire and analytic integrands.

Usage: python3 scripts/run_quad_bench.py [--outdir results] [--trials 30]
"""

import argparse
import pathlib

import numpy as np

from cheblat import bench

SWEEPS = {
    2: {
        "cartesian": (4, 6, 9, 13, 18),
        "padua": (5, 8, 12, 17, 24),
        "hex": (1, 2, 3, 4, 6),
        "composite-oct7": (2, 3, 4, 6, 8),
        "gauss-legendre": (3, 5, 8, 12, 17),
    },
    3: {
        "cartesian": (3, 4, 6, 8, 10),
        "bcc": (4, 6, 9, 12, 16),
        "fcc": (4, 6, 9, 12, 16),
        "gauss-legendre": (2, 3, 5, 7, 9),
    },
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="results")
    ap.add_argument("--trials", type=int, default=30)
    ap.add_argument("--seed", type=int, default=0)
    # runge's cone at the centre defeats the Gauss-Legendre reference integral
    ap.add_argument("--function", default="gaussian", choices=("gaussian", "esssing"))
    args = ap.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for dim, sweep in SWEEPS.items():
        config = bench.ExperimentConfig(
            sweep=sweep, dim=dim, kind=args.function, trials=args.trials, seed=args.seed,
        )
        records = bench.run_quad_convergence(config)
        csv_path = outdir / f"quad_{args.function}_{dim}d.csv"
        csv_path.write_text(bench.records_to_csv(records))
        series = {}
        for r in records:
            xs, ys = series.setdefault(r.family, ([], []))
            xs.append(r.npoints ** (1.0 / dim))
            ys.append(max(r.error_mean, 1e-18))
        chart = bench.svg_line_chart(
            {k: (np.asarray(x), np.asarray(y)) for k, (x, y) in series.items()},
            title=f"{dim}d integration, {args.function}, {args.trials} rotations",
        )
        (outdir / f"quad_{args.function}_{dim}d.svg").write_text(chart)
        print(f"wrote {csv_path}")
        for r in records:
            print(
                f"  {r.family:15s} res {r.resolution:3d} npts {r.npoints:6d} "
                f"err {r.error_mean:.3e}"
            )


if __name__ == "__main__":
    main()
