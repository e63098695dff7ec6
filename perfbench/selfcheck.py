"""Self-check of the benchmark itself.

Run from the repository root::

    python3 perfbench/selfcheck.py

For every workload it checks that

* a run with every other op's result corrupted (a perturbed coefficient, a
  NaN error record, a non-zero exit code or a changed output digit)
  counts exactly those ops as failed and reports ``correct: false``;
* a clean traced run reports ``correct: true`` with exactly the per-layer
  metrics, and the corrupted untraced run exactly the end-to-end metrics,
  that ``BENCHMARK.json`` names, with the same units;

and that the benchmark, copied without the library, exits non-zero
without printing a result.  Exit status 0 means every check passed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["python3", "perfbench/run.py"]
CORRUPT_EVERY = 2


def run(args: list[str], cwd: Path = ROOT) -> tuple[int, str]:
    p = subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True, timeout=600)
    return p.returncode, p.stdout


def check_units(result: dict, declared: list[dict], what: str) -> list[str]:
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    return [] if got == want else [f"{what}: metrics {sorted(got.items())} != {sorted(want.items())}"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for wl in spec["workloads"]:
        name = wl["name"]
        common = ["--workload", name, "--seed", "7", "--seconds", "4"]
        rc, out = run(common + ["--trace", "0", "--corrupt-every", str(CORRUPT_EVERY)])
        res = json.loads(out.strip().splitlines()[-1])
        expected = -(-res["attempted"] // CORRUPT_EVERY)
        if res["failed"] != expected or res["correct"] or rc == 0:
            problems.append(f"{name}: corrupted run counted {res['failed']} failed of "
                            f"{res['attempted']} (expected {expected}), rc {rc}")
        problems += check_units(res, spec["end_to_end"], f"{name} trace 0")
        rc, out = run(common + ["--trace", "1"])
        res = json.loads(out.strip().splitlines()[-1])
        if res["failed"] or not res["correct"] or rc != 0:
            problems.append(f"{name}: clean traced run failed {res['failed']} ops, rc {rc}")
        problems += check_units(res, spec["per_layer"], f"{name} trace 1")
        print(f"{name}: checked", flush=True)

    bare = ROOT / ".perfbench-out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        rc, out = run(["--workload", spec["workloads"][0]["name"], "--seed", "1",
                       "--seconds", "1", "--trace", "0"], cwd=bare)
        if rc == 0 or out.strip():
            problems.append(f"without the library: rc {rc}, output {out.strip()[:80]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL:", p)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
