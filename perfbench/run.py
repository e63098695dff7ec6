"""cheblat benchmark: one workload, one seed, one process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload transform-stream --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run: every op runs untraced and then
again with span wrappers set on cheblat's module attributes; it reports
per-layer metrics, the per-lattice layer table and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result,
with run metadata, is also written under ``.perfbench-out/``.

The benchmark imports cheblat from ``src/`` of the checkout it sits in and
exits with status 2 if that is missing.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 3


def fresh_import() -> None:
    """Start a new interpreter that imports numpy, scipy and cheblat, and wait for it."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import numpy, scipy.fft, cheblat.cli"
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("sweep", "transform-stream", "cli-oneshot"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt-every", type=int, default=0,
                   help="self-check: damage the result of every N-th op before it is checked")
    return p.parse_args(argv)


def load_library():
    """Import numpy, scipy and cheblat (from this checkout's src/ only)."""
    if not (SRC / "cheblat" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'cheblat'} not found; run from a full checkout",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import scipy.fft  # noqa: F401

    import cheblat
    from cheblat import bench, calculus, cli, dct, lattice, transform

    if Path(cheblat.__file__).resolve().parent != (SRC / "cheblat").resolve():
        print(f"perfbench: imported cheblat from {cheblat.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return {"lattice": lattice, "dct": dct, "transform": transform, "calculus": calculus,
            "bench": bench, "cli": cli, "scipy.fft": scipy.fft}


# ------------------------------------------------------------------ loop


class Phase:
    """Outcome of one timed phase."""

    def __init__(self):
        self.latencies: list[float] = []
        self.op_ids: list[int] = []  # op index of each latency
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []


def run_op(wl, state, i: int, phase: Phase, corrupt_every: int, tracer=None) -> float:
    """Prepare op ``i``, time it, then collect and verify its result untimed.

    Records the op in ``phase`` and returns its latency.  With a tracer, an
    op holding a ``tracemalloc`` probe is left out of the latencies.
    """
    inputs = wl.prepare(state, i)
    if tracer:
        tracer.op_id = i
    error = None
    t0 = time.perf_counter()
    try:
        out = wl.run(state, inputs, tracer.set_tag if tracer else (lambda _t: None))
    except (Exception, SystemExit) as exc:  # an op that raises is a failed op
        error = exc
    latency = time.perf_counter() - t0
    if tracer:
        tracer.op_id = -2
        tracer.set_tag("")
    phase.attempted += 1
    if not (tracer and i in tracer.probe_ops):
        phase.latencies.append(latency)
        phase.op_ids.append(i)
    if error is None:
        result = wl.collect(state, inputs, out)
        if corrupt_every and i % corrupt_every == 0:
            result = wl.corrupt(result, i // corrupt_every)
        fails = wl.verify(state, inputs, result)
    else:
        fails = ["raised " + "".join(
            traceback.format_exception_only(type(error), error)).strip()]
    if fails:
        phase.failed += 1
        phase.failures.extend(f"op {i}: {f}" for f in fails[:3])
    return latency


def run_loop(wl, state, seconds: float, corrupt_every: int, tracer=None, mods=None):
    """Closed loop of ops for ``seconds``; returns (untraced, traced) phases.

    With a tracer, every op runs twice in a row, untraced and then traced
    on the same inputs, so that the tracing overhead compares op for op
    under the same machine conditions.  Probed ops do not use up the time.
    """
    untraced, traced = Phase(), (Phase() if tracer else None)
    excluded = 0.0
    i = 0
    begin = time.perf_counter()
    while time.perf_counter() - begin - excluded < seconds:
        run_op(wl, state, i, untraced, corrupt_every)
        if tracer:
            tracer.install(mods)
            try:
                latency = run_op(wl, state, i, traced, corrupt_every, tracer)
            finally:
                tracer.uninstall()
            if i in tracer.probe_ops:
                excluded += latency
        i += 1
    return untraced, traced


def percentile_p90(latencies: list[float]) -> tuple[float, float]:
    """90th percentile, or the highest percentile with ten samples beyond it.

    Returns (value, percentile actually used).
    """
    x = sorted(latencies)
    n = len(x)
    if n >= 100:
        return statistics.quantiles(x, n=10, method="inclusive")[-1], 0.9
    i = max(n - 11, 0)
    return x[i], (i / (n - 1) if n > 1 else 0.0)


# -------------------------------------------------------------- metadata


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_info(mods) -> dict:
    import numpy as np
    import scipy

    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": None,
        "cache": {},
        "scipy_fft_workers": mods["scipy.fft"].get_workers(),
        "os_threads": len(os.listdir("/proc/self/task")),
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for idx in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            if kind in ("Unified", "Data"):
                info["cache"][f"L{level}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        info["blas"] = None
    return info


# ------------------------------------------------------------------ main


def end_to_end(phase: Phase, setup_s: float) -> dict:
    latencies = phase.latencies
    p90, q = percentile_p90(latencies)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s",
                      "ops": len(latencies)},
        "op_ms_p50": {"value": statistics.median(latencies) * 1e3, "unit": "ms",
                      "ops": len(latencies)},
        "op_ms_p90": {"value": p90 * 1e3, "unit": "ms", "percentile": q,
                      "ops": len(latencies)},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    mods = load_library()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracer import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        tracer = Tracer() if args.trace else None
        setup_times = []
        state = None
        if tracer:
            tracer.install(mods)
        # one set-up is a fresh interpreter's imports plus the workload's own
        # set-up; the end-to-end run repeats it and reports the median
        for _ in range(1 if tracer else SETUP_REPEATS):
            state = None
            gc.collect()
            t0 = time.perf_counter()
            if not tracer:
                fresh_import()
            state = wl.setup(args.seed, tmp)
            setup_times.append(time.perf_counter() - t0)
        setup_failures = wl.setup_check(state)
        if tracer:
            tracer.uninstall()
        for _ in range(wl.warmup_ops):
            wl.run(state, wl.prepare(state, 0), lambda _t: None)
        gc.collect()
        gc.freeze()

        untraced, traced = run_loop(wl, state, args.seconds, args.corrupt_every, tracer, mods)
        phases = [p for p in (untraced, traced) if p is not None]
        attempted = sum(p.attempted for p in phases)
        failed = sum(p.failed for p in phases)
        failures = setup_failures + [f for p in phases for f in p.failures]
        error_rate = failed / attempted

        if tracer:
            layers = tracer.layer_metrics(sum(traced.latencies))
            layers["error_rate"] = (error_rate, "ratio")
            common = set(untraced.op_ids) & set(traced.op_ids)
            busy = [sum(t for i, t in zip(p.op_ids, p.latencies) if i in common)
                    for p in (untraced, traced)]
            layers["trace.ops_compared"] = (len(common), "count")
            layers["trace.ops_per_s_untraced"] = (len(common) / busy[0] if common else 0.0, "1/s")
            layers["trace.ops_per_s_traced"] = (len(common) / busy[1] if common else 0.0, "1/s")
            layers["trace.overhead"] = (busy[1] / busy[0] - 1.0 if common else 0.0, "ratio")
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
            table = tracer.lattice_table()
        else:
            metrics = end_to_end(untraced, statistics.median(setup_times))
            table = None

        record = {
            "workload": wl.name,
            "why": wl.why,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "corrupt_every": args.corrupt_every,
            "git_sha": git_sha(),
            "machine": machine_info(mods),
            "setup_runs_s": setup_times,
            "attempted": attempted,
            "failed": failed,
            "error_rate": error_rate,
            "failures": failures[:20],
            "metrics": metrics,
            "lattice_table": table,
        }
        OUT.mkdir(exist_ok=True)
        stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
        (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
        if tracer:
            tracer.save(OUT / f"{stem}-spans.npz")
        report(record)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    correct = failed == 0 and not setup_failures
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def report(record: dict) -> None:
    """Human-readable summary, printed before the JSON line."""
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']} "
          f"({record['why']})")
    print(f"error_rate: {record['error_rate']:.6g} ratio "
          f"({record['failed']} failed of {record['attempted']} attempted)")
    for f in record["failures"]:
        print(f"  failure: {f}")
    for name, m in record["metrics"].items():
        extra = ""
        if "percentile" in m:
            extra = f" (percentile {m['percentile']:.3f} of {m['ops']} ops)"
        elif "ops" in m:
            extra = f" ({m['ops']} ops)"
        print(f"{name}: {m['value']:.6g} {m['unit']}{extra}")
    if record["lattice_table"]:
        print("| workload | lattice | npoints | build s | plan s | forward ms | evaluate s / 1k pts |")
        print("|---|---|---|---|---|---|---|")

        def cell(v, fmt):
            return "—" if v is None else format(v, fmt)

        for row in record["lattice_table"]:
            print(f"| {record['workload']} | {row['lattice']} | {cell(row['npoints'], 'd')} | "
                  f"{cell(row['build_s'], '.4g')} | {cell(row['plan_s'], '.4g')} | "
                  f"{cell(row['forward_ms'], '.4g')} | {cell(row['evaluate_s_per_1k'], '.4g')} |")


if __name__ == "__main__":
    sys.exit(main())
