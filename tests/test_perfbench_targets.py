"""The benchmark's span tracer wraps module attributes by name; check they exist.

``perfbench/tracer.py`` replaces ``(module, attribute)`` pairs listed in its
``TARGETS`` with timing wrappers.  A renamed or deleted function makes
``perfbench/run.py --trace 1`` fail with ``AttributeError``, so every pair
must resolve on the library as it is imported here.
"""

import importlib.util
import sys
from pathlib import Path

import scipy.fft

from cheblat import bench, calculus, cli, dct, lattice, transform

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
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
    targets = _load_tracer().TARGETS
    assert targets
    missing = [(mod, attr) for mod, attr, _ in targets
               if not callable(getattr(modules.get(mod), attr, None))]
    assert not missing, missing
