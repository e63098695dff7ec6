import os
import subprocess
import sys

import numpy as np
import pytest

from cheblat import lattice as lat, transform as tf
from cheblat.cli import main


def run_cli(*args):
    r = subprocess.run(
        [sys.executable, "-m", "cheblat.cli", *args], capture_output=True, text=True
    )
    return r.returncode, r.stdout, r.stderr


def test_info_bcc_efficiency():
    rc, out, err = run_cli("info", "--family", "bcc", "--dim", "3", "--resolution", "2")
    assert rc == 0
    assert "efficiency: 0.74048048969306" in out
    assert "npoints: 9" in out


def test_info_invalid_dim_exits_1():
    rc, out, err = run_cli("info", "--family", "padua", "--dim", "3", "--resolution", "2")
    assert rc == 1
    assert "padua" in err


def test_usage_error_exits_2():
    rc, out, err = run_cli("info", "--family", "padua", "--dim", "2")
    assert rc == 2
    rc, out, err = run_cli("no-such-command")
    assert rc == 2


def test_help_lists_flags():
    rc, out, err = run_cli("--help")
    assert rc == 0
    for sub in ("info", "points", "transform", "eval", "diff", "integrate",
                "bench-interp", "bench-quad", "lebesgue"):
        assert sub in out
    expected_flags = {
        "info": ("--family", "--dim", "--resolution", "--out"),
        "points": ("--family", "--dim", "--resolution", "--out"),
        "transform": ("--family", "--dim", "--resolution", "--samples", "--method", "--out"),
        "eval": ("--family", "--dim", "--resolution", "--coeffs", "--at", "--out"),
        "diff": ("--family", "--dim", "--resolution", "--coeffs", "--axis", "--out"),
        "integrate": ("--family", "--dim", "--resolution", "--samples", "--weights-out", "--out"),
        "bench-interp": ("--families", "--dim", "--resolutions", "--function", "--trials",
                         "--seed", "--metric", "--budget", "--svg", "--out"),
        "bench-quad": ("--families", "--dim", "--resolutions", "--function", "--trials",
                       "--seed", "--metric", "--budget", "--svg", "--out"),
        "lebesgue": ("--family", "--dim", "--resolution", "--probe-density", "--out"),
    }
    for sub, flags in expected_flags.items():
        rc, out, err = run_cli(sub, "--help")
        assert rc == 0, sub
        for flag in flags:
            assert flag in out, (sub, flag)


def test_integrate_constant(tmp_path):
    L = lat.build("hex", 2, 1)
    sfile = tmp_path / "s.csv"
    sfile.write_text(tf.samples_to_csv(L, np.ones(L.npoints)))
    rc, out, err = run_cli(
        "integrate", "--family", "hex", "--dim", "2", "--resolution", "1",
        "--samples", str(sfile),
    )
    assert rc == 0
    assert abs(float(out.strip()) - 4.0) < 1e-12
    # input file untouched
    assert sfile.read_text() == tf.samples_to_csv(L, np.ones(L.npoints))


def test_transform_eval_diff_round_trip(tmp_path):
    L = lat.build("padua", 2, 8)
    f = lambda X: np.exp(0.4 * X[:, 0]) * np.cos(X[:, 1])
    sfile = tmp_path / "s.csv"
    sfile.write_text(tf.samples_to_csv(L, f(L.points)))
    cfile = tmp_path / "c.csv"
    rc, *_ = run_cli(
        "transform", "--family", "padua", "--dim", "2", "--resolution", "8",
        "--samples", str(sfile), "--out", str(cfile),
    )
    assert rc == 0 and cfile.exists()
    rc, out, err = run_cli(
        "eval", "--family", "padua", "--dim", "2", "--resolution", "8",
        "--coeffs", str(cfile), "--at", "0.3,-0.2",
    )
    assert rc == 0
    val = float(out.strip().split(",")[-1])
    assert abs(val - np.exp(0.12) * np.cos(-0.2)) < 1e-6
    dfile = tmp_path / "d.csv"
    rc, *_ = run_cli(
        "diff", "--family", "padua", "--dim", "2", "--resolution", "8",
        "--coeffs", str(cfile), "--axis", "0", "--out", str(dfile),
    )
    assert rc == 0
    rc, out, err = run_cli(
        "eval", "--family", "padua", "--dim", "2", "--resolution", "8",
        "--coeffs", str(dfile), "--at", "0.3,-0.2",
    )
    assert abs(float(out.strip().split(",")[-1]) - 0.4 * np.exp(0.12) * np.cos(-0.2)) < 1e-5


def test_eval_non_finite_point_exits_1(tmp_path, capsys):
    L = lat.build("padua", 2, 3)
    cfile = tmp_path / "c.csv"
    cfile.write_text(tf.coefficients_to_csv(L, np.ones(len(L.basis))))
    rc = main(["eval", "--family", "padua", "--dim", "2", "--resolution", "3",
               "--coeffs", str(cfile), "--at=nan,0"])
    assert rc == 1
    assert "finite" in capsys.readouterr().err


def test_padua_method_matches_default(tmp_path):
    L = lat.build("padua", 2, 6)
    rng = np.random.default_rng(0)
    sfile = tmp_path / "s.csv"
    sfile.write_text(tf.samples_to_csv(L, rng.standard_normal(L.npoints)))
    outs = []
    for method in ("sublattice", "padua"):
        cfile = tmp_path / f"{method}.csv"
        rc, *_ = run_cli(
            "transform", "--family", "padua", "--dim", "2", "--resolution", "6",
            "--samples", str(sfile), "--method", method, "--out", str(cfile),
        )
        assert rc == 0
        outs.append(tf.coefficients_from_csv(L, cfile.read_text()))
    assert np.max(np.abs(outs[0] - outs[1])) < 1e-12


def test_points_descriptor(tmp_path):
    import json

    out = tmp_path / "lat.json"
    rc, *_ = run_cli(
        "points", "--family", "fcc", "--dim", "3", "--resolution", "2", "--out", str(out)
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["family"] == "fcc" and doc["npoints"] == 14


def test_bench_quad_deterministic(tmp_path):
    args = (
        "bench-quad", "--families", "padua", "--dim", "2", "--resolutions", "2,4",
        "--trials", "2", "--seed", "7",
    )
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    rc1, *_ = run_cli(*args, "--out", str(a))
    rc2, *_ = run_cli(*args, "--out", str(b))
    assert rc1 == rc2 == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == "family,dim,resolution,npoints,euclidean_degree,error_mean,error_std,trials,seed"


def test_bench_interp_svg(tmp_path):
    out = tmp_path / "r.csv"
    svg = tmp_path / "chart.svg"
    rc, *_ = run_cli(
        "bench-interp", "--families", "padua,cartesian", "--dim", "2",
        "--resolutions", "3,5", "--trials", "1", "--seed", "1",
        "--budget", "1000", "--out", str(out), "--svg", str(svg),
    )
    assert rc == 0
    assert svg.read_text().startswith("<svg")


def test_lebesgue_cli():
    rc, out, err = run_cli(
        "lebesgue", "--family", "cartesian", "--dim", "1", "--resolution", "2",
        "--probe-density", "101",
    )
    assert rc == 0
    assert abs(float(out.strip()) - 1.0) < 1e-12


def test_missing_file_exits_1(tmp_path):
    rc, out, err = run_cli(
        "integrate", "--family", "hex", "--dim", "2", "--resolution", "1",
        "--samples", str(tmp_path / "absent.csv"),
    )
    assert rc == 1
    assert "absent.csv" in err


def test_atomic_output_no_partial_file(tmp_path):
    # malformed samples: the command fails and the output path is not created
    sfile = tmp_path / "bad.csv"
    sfile.write_text("0.1,0.2,1.0\n")
    out = tmp_path / "c.csv"
    rc, _, err = run_cli(
        "transform", "--family", "padua", "--dim", "2", "--resolution", "4",
        "--samples", str(sfile), "--out", str(out),
    )
    assert rc == 1
    assert not out.exists()
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".cheblat-")]
    assert not leftovers


def test_main_callable_directly(tmp_path):
    assert main(["info", "--family", "hex", "--dim", "2", "--resolution", "1",
                 "--out", str(tmp_path / "info.txt")]) == 0
    assert (tmp_path / "info.txt").exists()
