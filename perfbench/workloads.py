"""The benchmark's workloads.

Each workload is a single-client closed loop: the next op starts only when
the last one has returned.  Every input is generated from the workload
seed; the library receives only the generated inputs.  A workload has five
steps:

* ``setup(seed, tmpdir)`` builds the state the ops share (timed as set-up);
* ``prepare(state, i)`` generates op ``i``'s inputs (untimed);
* ``run(state, inputs, tag)`` is the op (timed);
* ``collect(state, inputs, out)`` reads what the op wrote (untimed);
* ``verify(state, inputs, result)`` returns a list of failures (untimed).

``corrupt(result, k)`` damages one result on purpose so that the
self-check can show a bad output is counted as a failed op.

All calls into cheblat go through module attributes (``tf.forward``, not a
name imported from ``transform``), so the tracer's wrappers see them.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from pathlib import Path

import numpy as np

from cheblat import cli, lattice as lat, transform as tf

from tracer import lattice_label


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _cheb(k: int, x: np.ndarray) -> np.ndarray:
    """T_k(x) for |x| <= 1, by its closed form (independent of cheblat)."""
    return np.cos(k * np.arccos(np.clip(x, -1.0, 1.0)))


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product without BLAS.

    A BLAS dot product of a long vector wakes BLAS's worker threads, which
    then spin on the other core and slow the next timed op; the checks
    therefore stay off BLAS.
    """
    return float(np.sum(np.multiply(a, b)))


def _norm(a: np.ndarray) -> float:
    return math.sqrt(_dot(a, a))


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    return _norm(np.asarray(a) - np.asarray(b)) / max(_norm(np.asarray(b)), 1e-300)


def _perturb_digit(text: str) -> str:
    """Change the first non-zero digit of a text (a corrupted output)."""
    m = re.search(r"[1-9]", text)
    if m is None:
        return text + "1"
    d = m.group()
    return text[: m.start()] + str(int(d) % 9 + 1) + text[m.end():]


class Workload:
    name = ""
    why = ""
    warmup_ops = 0

    def setup_check(self, state) -> list[str]:
        return []

    def collect(self, state, inputs, out):
        return out


# ---------------------------------------------------------------- sweep


class Sweep(Workload):
    name = "sweep"
    why = (
        "The researcher's end-to-end path: calculus.evaluate does most of the work, "
        "so ROADMAP item 3 (bounded-memory evaluation) should show here and nowhere else."
    )
    FAMILIES = ("bcc", "fcc", "cartesian")
    DIM = 3
    RESOLUTION = 8
    NPOINTS = {"bcc": 189, "fcc": 365, "cartesian": 512, "gauss-legendre": 512}
    # Relative-error ceilings per (kind, family) at r=8.  Over 40 seeds the
    # largest errors seen were about a third of these.
    CEILINGS = {
        ("interp", "bcc"): 5e-3,
        ("interp", "fcc"): 5e-4,
        ("interp", "cartesian"): 2e-3,
        ("quad", "bcc"): 1e-5,
        ("quad", "fcc"): 2e-6,
        ("quad", "cartesian"): 2e-5,
        ("quad", "gauss-legendre"): 3e-9,
    }

    def setup(self, seed: int, tmpdir: Path):
        return {"seed": seed, "tmp": tmpdir}

    def prepare(self, state, i: int):
        op_seed = int(np.random.SeedSequence([state["seed"], i]).generate_state(1)[0])
        common = ["--dim", str(self.DIM), "--resolutions", str(self.RESOLUTION),
                  "--trials", "1", "--seed", str(op_seed)]
        paths = {kind: state["tmp"] / f"sweep-{kind}.csv" for kind in ("interp", "quad")}
        argv = {
            "interp": ["bench-interp", "--families", ",".join(self.FAMILIES), *common,
                       "--out", str(paths["interp"])],
            "quad": ["bench-quad", "--families", ",".join(self.FAMILIES + ("gauss-legendre",)),
                     *common, "--out", str(paths["quad"])],
        }
        return {"seed": op_seed, "argv": argv, "paths": paths}

    def run(self, state, inputs, tag):
        return {kind: cli.main(inputs["argv"][kind]) for kind in ("interp", "quad")}

    def collect(self, state, inputs, out):
        return {kind: (out[kind], inputs["paths"][kind].read_text()) for kind in out}

    def verify(self, state, inputs, result) -> list[str]:
        fails = []
        for kind, (rc, text) in result.items():
            if rc != 0:
                fails.append(f"bench-{kind} exited {rc}")
                continue
            lines = text.strip().splitlines()
            families = self.FAMILIES + (("gauss-legendre",) if kind == "quad" else ())
            if lines[0] != "family,dim,resolution,npoints,euclidean_degree,error_mean,error_std,trials,seed":
                fails.append(f"bench-{kind}: unexpected header {lines[0]!r}")
            if len(lines) != 1 + len(families):
                fails.append(f"bench-{kind}: {len(lines) - 1} records, expected {len(families)}")
                continue
            for fam, line in zip(families, lines[1:]):
                f = line.split(",")
                err = float(f[5])
                expect = [fam, str(self.DIM), str(self.RESOLUTION), str(self.NPOINTS[fam])]
                if f[:4] != expect or f[7] != "1" or f[8] != str(inputs["seed"]):
                    fails.append(f"bench-{kind}: record {f[:4] + f[7:]} does not match the call")
                elif not math.isfinite(err) or err > self.CEILINGS[(kind, fam)]:
                    fails.append(f"bench-{kind} {fam}: error {err} above ceiling "
                                 f"{self.CEILINGS[(kind, fam)]}")
        return fails

    def corrupt(self, result, k: int):
        rc, text = result["interp"]
        lines = text.splitlines()
        f = lines[1].split(",")
        f[5] = "nan"
        lines[1] = ",".join(f)
        return {**result, "interp": (rc, "\n".join(lines) + "\n")}


# ----------------------------------------------------------- transform-stream


class TransformStream(Workload):
    name = "transform-stream"
    why = (
        "A spectral solver's repeated-transform path: transform and dct do all timed work; "
        "small lattices are Python-overhead bound, large ones FFT bound."
    )
    warmup_ops = 1
    SMALL = (("bcc", 3, 12), ("fcc", 3, 12), ("cartesian", 3, 10), ("padua", 2, 32),
             ("hex", 2, 8), ("composite-oct7", 2, 8))
    LARGE = (("bcc", 3, 40), ("fcc", 3, 32), ("padua", 2, 256))
    # The small set runs this many times per round, so that each set takes
    # about half of a round (measured on a 2-core Xeon, 4th gen); a fixed
    # constant, so that the op stays the same from commit to commit.
    SMALL_REPEATS = 6
    ROUND_TRIP_TOL = 1e-11
    ADJOINT_TOL = 1e-11
    PADUA_TOL = 1e-11
    ORACLE_TOL = 1e-9

    def setup(self, seed: int, tmpdir: Path):
        sets = {}
        for tag, specs in (("small", self.SMALL), ("large", self.LARGE)):
            plans = []
            for spec in specs:
                plan = tf.plan(lat.build(*spec))
                if plan.lattice.family is lat.Family.PADUA:
                    # completes the plan's lazily built Padua path
                    tf.forward_padua(plan, np.zeros(plan.lattice.npoints))
                plans.append(plan)
            sets[tag] = plans
        return {"seed": seed, "sets": sets}

    def setup_check(self, state) -> list[str]:
        """dense_oracle spot check on every lattice of at most 2000 points."""
        fails = []
        rng = _rng(state["seed"], 1 << 20)
        for plan in state["sets"]["small"] + state["sets"]["large"]:
            L = plan.lattice
            if L.npoints > 2000:
                continue
            s = rng.standard_normal(L.npoints)
            err = _rel(tf.forward(plan, s), tf.dense_oracle(L, s))
            if not err <= self.ORACLE_TOL:
                fails.append(f"{_label(L)}: forward differs from dense_oracle by {err:.3g}")
        return fails

    def prepare(self, state, i: int):
        rng = _rng(state["seed"], i)
        items = []
        for tag, reps in (("small", self.SMALL_REPEATS), ("large", 1)):
            for _ in range(reps):
                for plan in state["sets"][tag]:
                    L = plan.lattice
                    items.append((tag, plan, rng.standard_normal(L.npoints),
                                  rng.standard_normal(len(L.basis))))
        return items

    def run(self, state, inputs, tag):
        out = []
        current = None
        for set_tag, plan, samples, functional in inputs:
            if set_tag != current:
                tag(set_tag)
                current = set_tag
            coeffs = tf.forward(plan, samples)
            back = tf.inverse(plan, coeffs)
            pulled = tf.adjoint(plan, functional)
            padua = (tf.forward_padua(plan, samples)
                     if plan.lattice.family is lat.Family.PADUA else None)
            out.append((coeffs, back, pulled, padua))
        tag("")
        return out

    def verify(self, state, inputs, result) -> list[str]:
        fails = []
        for (_, plan, s, g), (c, back, pulled, padua) in zip(inputs, result):
            name = _label(plan.lattice)
            rt = _rel(back, s)
            if not rt <= self.ROUND_TRIP_TOL:
                fails.append(f"{name}: round trip error {rt:.3g}")
            # <g, forward(s)> = <adjoint(g), s>, relative to the Cauchy-Schwarz bound
            gap = abs(_dot(g, c) - _dot(pulled, s))
            scale = _norm(g) * _norm(c) or 1.0
            if not gap / scale <= self.ADJOINT_TOL:
                fails.append(f"{name}: adjoint identity off by {gap / scale:.3g}")
            if padua is not None:
                d = _rel(padua, c)
                if not d <= self.PADUA_TOL:
                    fails.append(f"{name}: forward_padua differs from forward by {d:.3g}")
        return fails

    def corrupt(self, result, k: int):
        coeffs, back, pulled, padua = result[0]
        coeffs = coeffs.copy()
        coeffs[0] += 1e-3 * _norm(coeffs)
        return [(coeffs, back, pulled, padua)] + result[1:]


def _label(L) -> str:
    return lattice_label(L.family, L.dim, L.resolution)


# ---------------------------------------------------------------- cli-oneshot


class CliOneshot(Workload):
    name = "cli-oneshot"
    why = (
        "The one-shot user's path: every call rebuilds its lattice, so lattice.build "
        "dominates; ROADMAP item 2 (vectorised construction) should show here."
    )
    warmup_ops = 1
    LATTICES = (("hex", 2, 16), ("padua", 2, 64), ("bcc", 3, 24), ("fcc", 3, 12),
                ("composite-oct7", 2, 16))
    COMMANDS = ("transform", "transform-padua", "diff", "eval", "integrate", "info", "points")
    # The polynomial uses every product index of Euclidean norm <= 3; all of
    # them are plain (non-tie) entries of every lattice above.
    POLY_NORM2 = 9
    EVAL_POINTS = 8
    COEFF_TOL = 1e-10
    VALUE_TOL = 1e-10

    def setup(self, seed: int, tmpdir: Path):
        rng = _rng(seed, 1 << 20)
        polys = {}
        for dim in sorted({d for _, d, _ in self.LATTICES}):
            idx = [k for k in itertools.product(range(4), repeat=dim)
                   if sum(v * v for v in k) <= self.POLY_NORM2]
            at = rng.uniform(-0.95, 0.95, (self.EVAL_POINTS, dim))
            polys[dim] = {"idx": idx, "a": rng.standard_normal(len(idx)), "at": at}
        lattices = []
        for family, dim, res in self.LATTICES:
            L = lat.build(family, dim, res)
            lattices.append(self._inputs(L, polys[dim], tmpdir))
        # command-major: lattice.build dominates every call, so any stretch of
        # the schedule, and so a run cut anywhere, mixes the lattices alike
        schedule = [(cmd, i) for cmd in self.COMMANDS
                    for i, (family, _, _) in enumerate(self.LATTICES)
                    if cmd != "transform-padua" or family == "padua"]
        return {"seed": seed, "tmp": tmpdir, "lattices": lattices, "schedule": schedule}

    def _inputs(self, L, poly, tmpdir: Path) -> dict:
        """Input CSVs and exact expected outputs for one lattice."""
        label = _label(L).replace(" ", "-").replace("=", "")
        canon = [e.canonical for e in L.basis]
        pos = {k: i for i, k in enumerate(canon)}
        coeffs = np.zeros(len(canon))
        for k, a in zip(poly["idx"], poly["a"]):
            i = pos.get(k)
            if i is None or L.basis[i].is_tie:
                raise RuntimeError(f"{_label(L)}: index {k} is not a plain basis entry")
            coeffs[i] = a
        values = self._poly(poly, L.points)
        samples = tmpdir / f"{label}-samples.csv"
        samples.write_text("".join(
            ",".join(_fmt(v) for v in (*pt, y)) + "\n" for pt, y in zip(L.points, values)))
        coeff_csv = tmpdir / f"{label}-coeffs.csv"
        coeff_csv.write_text("".join(
            ",".join([*(str(v) for v in k), _fmt(c)]) + "\n" for k, c in zip(canon, coeffs)))
        at = poly["at"]
        axis = L.dim - 1
        integral = sum(a * math.prod(_cheb_integral(v) for v in k)
                       for k, a in zip(poly["idx"], poly["a"]))
        return {
            "family": L.family.value, "dim": L.dim, "resolution": L.resolution,
            "npoints": L.npoints, "points": L.points.copy(), "label": label,
            "canon": canon, "ties": {e.canonical: e.members for e in L.basis if e.is_tie},
            "coeffs": coeffs, "samples_csv": samples, "coeffs_csv": coeff_csv,
            "at": at, "at_args": [",".join(_fmt(c) for c in pt) for pt in at],
            "values_at": self._poly(poly, at), "axis": axis,
            "deriv_at": self._poly(poly, at, deriv_axis=axis), "integral": integral,
            "scale": float(np.abs(poly["a"]).sum()),
        }

    @staticmethod
    def _poly(poly, x: np.ndarray, deriv_axis: int | None = None) -> np.ndarray:
        """sum_k a_k prod_i T_{k_i}(x_i), or its derivative along one axis."""
        cheb = np.polynomial.chebyshev
        out = np.zeros(x.shape[0])
        for k, a in zip(poly["idx"], poly["a"]):
            term = np.full(x.shape[0], a)
            for ax, kk in enumerate(k):
                unit = np.zeros(kk + 1)
                unit[kk] = 1.0
                c = cheb.chebder(unit) if ax == deriv_axis else unit
                term = term * cheb.chebval(x[:, ax], c)
            out += term
        return out

    def prepare(self, state, i: int):
        cmd, li = state["schedule"][i % len(state["schedule"])]
        d = state["lattices"][li]
        out = state["tmp"] / f"out-{cmd}.txt"
        base = ["--family", d["family"], "--dim", str(d["dim"]),
                "--resolution", str(d["resolution"]), "--out", str(out)]
        if cmd == "transform":
            argv = ["transform", *base, "--samples", str(d["samples_csv"])]
        elif cmd == "transform-padua":
            argv = ["transform", *base, "--samples", str(d["samples_csv"]), "--method", "padua"]
        elif cmd == "diff":
            argv = ["diff", *base, "--coeffs", str(d["coeffs_csv"]), "--axis", str(d["axis"])]
        elif cmd == "eval":
            argv = ["eval", *base, "--coeffs", str(d["coeffs_csv"])]
            argv += [f"--at={a}" for a in d["at_args"]]  # "=" keeps "-0.5,..." a value
        elif cmd == "integrate":
            argv = ["integrate", *base, "--samples", str(d["samples_csv"]),
                    "--weights-out", str(state["tmp"] / "out-weights.csv")]
        else:
            argv = [cmd, *base]
        for path in state["tmp"].glob("out-*"):
            path.unlink()
        return {"cmd": cmd, "lattice": d, "argv": argv, "out": out,
                "weights": state["tmp"] / "out-weights.csv"}

    def run(self, state, inputs, tag):
        return cli.main(inputs["argv"])

    def collect(self, state, inputs, out):
        def read(path):
            return path.read_text() if path.exists() else None
        return {"rc": out, "text": read(inputs["out"]),
                "weights": read(inputs["weights"]) if inputs["cmd"] == "integrate" else None}

    def verify(self, state, inputs, result) -> list[str]:
        cmd, d = inputs["cmd"], inputs["lattice"]
        where = f"{cmd} on {d['label']}"
        if result["rc"] != 0:
            return [f"{where}: exit code {result['rc']}"]
        if result["text"] is None:
            return [f"{where}: no output written"]
        try:
            return [f"{where}: {msg}" for msg in self._verify(cmd, d, result)]
        except (ValueError, KeyError, IndexError) as exc:
            return [f"{where}: unreadable output ({exc})"]

    def _verify(self, cmd: str, d: dict, result: dict) -> list[str]:
        text = result["text"]
        if cmd in ("transform", "transform-padua", "diff"):
            rows = [line.split(",") for line in text.strip().splitlines()]
            idx = [tuple(int(v) for v in r[:-1]) for r in rows]
            vals = np.array([float(r[-1]) for r in rows])
            if idx != d["canon"]:
                return ["coefficient rows do not follow the basis order"]
            if cmd != "diff":
                err = float(np.abs(vals - d["coeffs"]).max()) / d["scale"]
                return [] if err <= self.COEFF_TOL else [f"coefficients off by {err:.3g}"]
            got = np.zeros(len(d["at"]))
            for k, c in zip(idx, vals):
                if c != 0.0:
                    for m in d["ties"].get(k, (k,)):
                        got += c * math.prod(_cheb(mi, d["at"][:, a]) for a, mi in enumerate(m))
            err = float(np.abs(got - d["deriv_at"]).max()) / d["scale"]
            return [] if err <= self.VALUE_TOL else [f"derivative off by {err:.3g}"]
        if cmd == "eval":
            rows = np.array([[float(v) for v in line.split(",")]
                             for line in text.strip().splitlines()])
            if rows.shape != (len(d["at"]), d["dim"] + 1) or not np.array_equal(rows[:, :-1], d["at"]):
                return ["evaluation points do not match the request"]
            err = float(np.abs(rows[:, -1] - d["values_at"]).max()) / d["scale"]
            return [] if err <= self.VALUE_TOL else [f"values off by {err:.3g}"]
        if cmd == "integrate":
            fails = []
            err = abs(float(text) - d["integral"]) / d["scale"]
            if not err <= self.VALUE_TOL:
                fails.append(f"integral off by {err:.3g}")
            w = np.array([float(line.rsplit(",", 1)[1])
                          for line in (result["weights"] or "").strip().splitlines()])
            if w.size != d["npoints"] or not abs(w.sum() - 2.0 ** d["dim"]) <= 1e-10 * 2 ** d["dim"]:
                fails.append("weights file does not integrate the constant")
            return fails
        if cmd == "info":
            info = dict(line.split(": ", 1) for line in text.strip().splitlines())
            expect = {"family": d["family"], "dim": str(d["dim"]),
                      "resolution": str(d["resolution"]), "npoints": str(d["npoints"])}
            return [] if all(info.get(k) == v for k, v in expect.items()) else [
                "summary does not match the lattice"]
        doc = json.loads(text)
        ok = (doc["family"] == d["family"] and doc["dim"] == d["dim"]
              and doc["resolution"] == d["resolution"] and doc["npoints"] == d["npoints"]
              and len(doc["basis"]) == d["npoints"]
              and np.array_equal(np.array(doc["points"]), d["points"]))
        return [] if ok else ["descriptor does not match the lattice"]

    def corrupt(self, result, k: int):
        if k % 2 == 0:
            return {**result, "rc": 1}
        return {**result, "text": _perturb_digit(result["text"] or "")}


def _cheb_integral(k: int) -> float:
    """Integral of T_k over [-1, 1]."""
    return 0.0 if k % 2 else 2.0 / (1.0 - k * k)


WORKLOADS = {w.name: w for w in (Sweep(), TransformStream(), CliOneshot())}
