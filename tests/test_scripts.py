"""Smoke tests: the sweep scripts run end to end and write one CSV per dimension."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cheblat import bench

ROOT = Path(__file__).resolve().parents[1]


def _load(script: Path):
    spec = importlib.util.spec_from_file_location(script.stem, script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, prefix", [("run_interp_bench.py", "interp"),
                                          ("run_quad_bench.py", "quad")])
def test_sweep_script_writes_a_csv_per_dimension(tmp_path, name, prefix):
    script = ROOT / "scripts" / name
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, str(script), "--trials", "1", "--outdir", str(tmp_path)],
                   env=env, check=True, capture_output=True, timeout=300)
    for dim, sweep in _load(script).SWEEPS.items():
        lines = (tmp_path / f"{prefix}_gaussian_{dim}d.csv").read_text().splitlines()
        assert lines[0] == bench.CSV_HEADER
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == sum(len(res) for res in sweep.values())
        assert [r[0] for r in rows] == [f for f, res in sweep.items() for _ in res]
        assert all(r[1] == str(dim) and r[7] == "1" for r in rows)
        assert (tmp_path / f"{prefix}_gaussian_{dim}d.svg").read_text().startswith("<svg")
