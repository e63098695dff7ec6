#!/usr/bin/env python3
"""Dense-product against FFT time of `GridDCT`, per node family and axis length.

For each family and axis length ``n``, times `GridDCT.forward`, `inverse`
and `adjoint` on grids that hold one axis of ``n`` nodes of that family:
a 2-d ``(n, n)`` grid with a type I first axis (the Padua grid for type
V-), the axis first, in the middle and last of an ``(n, m, m)`` grid
(``m`` type II nodes, or type I for type II), and the all-``n`` cube
while it has at most ``--cube-max`` points.  Each grid is timed twice,
once with the family's axes sent through the dense cosine-matrix product
and once through the FFT; every other axis takes its default route.  Times are the minimum
over ``--repeat`` calls, the two routes timed in alternation, and the
last column is dense / FFT (below 1: the dense product is faster).

The per-family cut `cheblat.dct._DENSE_MAX` is the largest ``n`` at which
the dense route is not slower, capped by the memory of one matrix
(``8 n^2`` bytes); run this on another host to re-measure it.

Usage: python3 scripts/dct_crossover.py [--families V-,V+] [--sizes 33,65,129]
       [--m 16] [--repeat 15] [--cube-max 300000]
"""

import argparse
import time

import numpy as np

from cheblat import dct
from cheblat.dct import BoundaryType, GridDCT

FAMILIES = {b.value: b for b in BoundaryType}


def _grids(n: int, family: BoundaryType, m: int, cube_max: int):
    """(label, sizes, boundaries) of the grids timed for one family and ``n``."""
    other = BoundaryType.TYPE_I if family is BoundaryType.TYPE_II else BoundaryType.TYPE_II
    grids = [(f"({n},{n}) I,{family.value}", (n, n), (BoundaryType.TYPE_I, family))]
    for pos, name in ((0, "first"), (1, "middle"), (2, "last")):
        sizes, kinds = [m, m, m], [other] * 3
        sizes[pos], kinds[pos] = n, family
        grids.append((f"({','.join(map(str, sizes))}) {name}", tuple(sizes), tuple(kinds)))
    if n ** 3 <= cube_max:
        grids.append((f"({n},{n},{n}) all", (n, n, n), (family,) * 3))
    return grids


def _operator(sizes, kinds, family: BoundaryType, dense: bool) -> GridDCT:
    """The `GridDCT` with ``family``'s axes all dense or all through the FFT."""
    saved = dct._DENSE_MAX
    dct._DENSE_MAX = {**saved, family: max(sizes) if dense else 0}
    try:
        return GridDCT(sizes, kinds)
    finally:
        dct._DENSE_MAX = saved


def _best_times(ops, x, repeat: int) -> list[float]:
    """Minimum seconds per call of each of ``ops`` on ``x``, timed in alternation."""
    for op in ops:
        op(x)  # warm up
    best = [float("inf")] * len(ops)
    for _ in range(repeat):
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            op(x)
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--families", default="I,II,V-,V+")
    ap.add_argument("--sizes", default="16,21,33,65,129,193,256,257,385,513")
    ap.add_argument("--m", type=int, default=16, help="length of the other axes of the 3-d grids")
    ap.add_argument("--repeat", type=int, default=15)
    ap.add_argument("--cube-max", type=int, default=300_000,
                    help="largest point count of the all-n cube")
    args = ap.parse_args()
    rng = np.random.default_rng(0)
    print(f"{'family':6s} {'n':>4s} {'grid':24s} {'op':8s} "
          f"{'dense_us':>9s} {'fft_us':>9s} {'dense/fft':>9s}")
    for name in args.families.split(","):
        family = FAMILIES[name]
        for n in (int(s) for s in args.sizes.split(",")):
            for label, sizes, kinds in _grids(n, family, args.m, args.cube_max):
                routes = [_operator(sizes, kinds, family, dense) for dense in (True, False)]
                x = rng.standard_normal(sizes)
                for op_name in ("forward", "inverse", "adjoint"):
                    ops = [getattr(op, op_name) for op in routes]
                    dense_s, fft_s = _best_times(ops, x, args.repeat)
                    print(f"{name:6s} {n:4d} {label:24s} {op_name:8s} "
                          f"{dense_s * 1e6:9.1f} {fft_s * 1e6:9.1f} {dense_s / fft_s:9.2f}",
                          flush=True)


if __name__ == "__main__":
    main()
