"""The benchmark's span tracer and workloads use the library by name; check they still can.

``perfbench/tracer.py`` replaces ``(module, attribute)`` pairs listed in its
``TARGETS`` with timing wrappers.  A renamed or deleted function makes
``perfbench/run.py --trace 1`` fail with ``AttributeError``, so every pair
must resolve on the library as it is imported here.  The workloads in
``perfbench/workloads.py`` call the library directly, so each runs one op
here, through the benchmark's own set-up and verification.
"""

import importlib.util
import sys
from pathlib import Path

import scipy.fft

from cheblat import bench, calculus, cli, dct, lattice, transform

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no __pycache__ beside the benchmark
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_tracer_target_resolves():
    modules = {"lattice": lattice, "dct": dct, "transform": transform, "calculus": calculus,
               "bench": bench, "cli": cli, "scipy.fft": scipy.fft}
    targets = _load("perfbench_tracer", PERFBENCH / "tracer.py").TARGETS
    assert targets
    missing = [(mod, attr) for mod, attr, _ in targets
               if not callable(getattr(modules.get(mod), attr, None))]
    assert not missing, missing


def test_every_workload_runs_one_verified_op(tmp_path, monkeypatch):
    # the workloads import the tracer as a top-level module, as run.py puts it on the path
    monkeypatch.setitem(sys.modules, "tracer", _load("tracer", PERFBENCH / "tracer.py"))
    workloads = _load("perfbench_workloads", PERFBENCH / "workloads.py").WORKLOADS
    assert workloads
    for name, wl in workloads.items():
        (tmp_path / name).mkdir()
        state = wl.setup(7, tmp_path / name)
        assert wl.setup_check(state) == [], name
        inputs = wl.prepare(state, 0)
        result = wl.collect(state, inputs, wl.run(state, inputs, lambda _tag: None))
        assert wl.verify(state, inputs, result) == [], name
