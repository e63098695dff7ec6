"""CSV and descriptor text I/O: byte identity with the per-cell references,
reader validation through the CLI, and the shortest-vector search."""

import numpy as np
import pytest

from cheblat import bench, calculus, lattice as lat, transform as tf
from cheblat.cli import main
from oracles import (
    coefficients_from_csv_oracle,
    coefficients_to_csv_oracle,
    eval_lines_oracle,
    lattice_descriptor_oracle,
    min_vector_norm_oracle,
    records_to_csv_oracle,
    samples_from_csv_oracle,
    samples_to_csv_oracle,
    stencil_to_csv_oracle,
)

SMALL = [("cartesian", 1, r) for r in (2, 3, 7)] + [
    (family, dim, r)
    for family, dim, rs in [
        ("cartesian", 2, (2, 3, 5)), ("cartesian", 3, (2, 3)), ("padua", 2, (1, 2, 4)),
        ("hex", 2, (1, 2, 3)), ("bcc", 3, (1, 2, 4, 5)), ("fcc", 3, (1, 2, 3)),
        ("composite-oct7", 2, (1, 2, 3, 5)),
    ]
    for r in rs
]
CLI_ONESHOT = [("hex", 2, 16), ("padua", 2, 64), ("bcc", 3, 24), ("fcc", 3, 12),
               ("composite-oct7", 2, 16)]
LARGE = [("bcc", 3, 40), ("fcc", 3, 32), ("padua", 2, 256)]  # many points and ties
# signed zero, the smallest subnormal, huge and integral values
SPECIAL = np.array([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e300, 3.0, -7.0,
                    2.0**53, 0.1, 1 / 3, -6.123233995736766e-17])


def _values(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
    v[: min(n, SPECIAL.size)] = SPECIAL[:n]
    return v


def _bits(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("family,dim,res", SMALL + CLI_ONESHOT + LARGE)
def test_writers_and_readers_match_per_cell_references(family, dim, res):
    L = lat.build(family, dim, res)
    samples = _values(L.npoints, res)
    coeffs = _values(len(L.basis), res + 1)
    stext = tf.samples_to_csv(L, samples)
    ctext = tf.coefficients_to_csv(L, coeffs)
    assert stext == samples_to_csv_oracle(L, samples)
    assert ctext == coefficients_to_csv_oracle(L, coeffs)
    stencil = calculus.quadrature_stencil(tf.plan(L))
    assert calculus.stencil_to_csv(stencil) == stencil_to_csv_oracle(stencil)
    assert lat.lattice_descriptor(L) == lattice_descriptor_oracle(L)
    got = tf.samples_from_csv(L, stext)
    assert np.array_equal(_bits(got), _bits(samples_from_csv_oracle(L, stext)))
    assert np.array_equal(_bits(got), _bits(samples))
    got = tf.coefficients_from_csv(L, ctext)
    assert np.array_equal(_bits(got), _bits(coefficients_from_csv_oracle(L, ctext)))
    assert np.array_equal(_bits(got), _bits(coeffs))


@pytest.mark.parametrize("column", [
    [0.0, -0.0, 0.0, -0.0, 1.0],
    [5e-324, -5e-324, 2.2250738585072009e-308, 5e-324, 0.0, -0.0, 1e-310],
    np.random.default_rng(3).standard_normal(200) * 10.0 ** np.arange(-100, 100),  # all distinct
])
def test_coordinate_strings_match_per_cell_format(column):
    column = np.asarray(column, dtype=float)
    points = np.column_stack([column, column[::-1], np.roll(column, 1)])
    got = lat._coordinate_strings(points)
    assert got.shape == points.shape
    assert got.tolist() == [[lat._G17 % x for x in row] for row in points.tolist()]


def test_coordinate_strings_keep_signed_zeros_apart():
    got = lat._coordinate_strings(np.array([[0.0, -0.0], [-0.0, 0.0]]))
    assert got.tolist() == [["0", "-0"], ["-0", "0"]]


def test_descriptor_and_points_csv_keep_padua_tiny_coordinate():
    L = lat.build("padua", 2, 2)
    assert "6.123233995736766e-17" in tf.samples_to_csv(L, np.zeros(L.npoints))
    assert lat.lattice_descriptor(L) == lattice_descriptor_oracle(L)


def test_readers_accept_what_float_accepts():
    # blank lines, CRLF, padding, "2.0"-style indices and float() spellings
    L = lat.build("bcc", 3, 2)
    coeffs = _values(len(L.basis), 3)
    ctext = tf.coefficients_to_csv(L, coeffs)
    lines = ctext.splitlines()
    lines[0] = " " + lines[0].replace(",", " , ") + " "
    lines[1] = ",".join(f"{v}.0" for v in L.basis[1].canonical) + ",1_0.5e0"
    lines[2] = lines[2].rsplit(",", 1)[0] + ",-0.00"
    odd = "\n\n" + "\r\n".join(lines[:4]) + "\n  \n" + "\n".join(lines[4:]) + "\n\n"
    got = tf.coefficients_from_csv(L, odd)
    assert np.array_equal(_bits(got), _bits(coefficients_from_csv_oracle(L, odd)))
    assert got[1] == 10.5 and _bits(got[2:3])[0] == _bits(np.array([-0.0]))[0]
    stext = "\n".join(" " + line + "\t" for line in tf.samples_to_csv(L, coeffs[:9]).splitlines())
    got = tf.samples_from_csv(L, stext)
    assert np.array_equal(_bits(got), _bits(samples_from_csv_oracle(L, stext)))


def test_readers_convert_each_spelling_of_a_coordinate_exactly():
    # one coordinate spelled differently on different rows reads as the per-cell reference
    L = lat.build("cartesian", 2, 3)
    lines = tf.samples_to_csv(L, _values(L.npoints, 4)).splitlines()
    assert [line.split(",")[0] for line in lines[:3]] == ["1", "1", "1"]
    for i, spelling in enumerate(["1.0", " +1e0 ", "1_0e-1"]):
        lines[i] = spelling + "," + lines[i].split(",", 1)[1]
    text = "\n".join(lines) + "\n"
    assert np.array_equal(_bits(tf.samples_from_csv(L, text)),
                          _bits(samples_from_csv_oracle(L, text)))


@pytest.mark.parametrize("field", ["0.9", "-0.9"])
def test_coefficient_reader_rejects_a_non_integer_index(field):
    # row 1 of padua r=3 is index (0, 1); truncation would read 0.9 as 0
    L = lat.build("padua", 2, 3)
    lines = tf.coefficients_to_csv(L, np.ones(len(L.basis))).splitlines()
    assert lines[1].startswith("0,1,")
    lines[1] = field + lines[1][1:]
    with pytest.raises(tf.TransformError,
                       match=rf"^coefficient row 1 index \({field}0+2, 1\) does not match "
                             r"basis \(0, 1\)$"):
        tf.coefficients_from_csv(L, "\n".join(lines) + "\n")


@pytest.mark.parametrize("field", ["2.0", "2e0", "+2.00"])
def test_coefficient_reader_accepts_integer_valued_index_spellings(field):
    L = lat.build("padua", 2, 3)
    coeffs = _values(len(L.basis), 6)
    lines = tf.coefficients_to_csv(L, coeffs).splitlines()
    assert lines[4].startswith("0,2,")
    lines[4] = "0," + field + lines[4][3:]
    text = "\n".join(lines) + "\n"
    assert np.array_equal(_bits(tf.coefficients_from_csv(L, text)), _bits(coeffs))
    assert np.array_equal(_bits(coefficients_from_csv_oracle(L, text)), _bits(coeffs))


def test_eval_lines_match_per_cell_reference(tmp_path):
    L = lat.build("bcc", 3, 3)
    coeffs = _values(len(L.basis), 5) % 1.0
    cfile = tmp_path / "c.csv"
    cfile.write_text(tf.coefficients_to_csv(L, coeffs))
    at = ["0.25,-0.5,0", "-0,1e-320,0.999", "1,-1,0.1"]
    out = tmp_path / "e.csv"
    assert main(["eval", "--family", "bcc", "--dim", "3", "--resolution", "3",
                 "--coeffs", str(cfile), "--out", str(out), *(f"--at={a}" for a in at)]) == 0
    pts = np.array([[float(v) for v in a.split(",")] for a in at])
    vals = calculus.evaluate(calculus.Interpolant(L, coeffs), pts)
    assert out.read_text() == eval_lines_oracle(pts, vals)


def test_records_csv_matches_per_cell_reference():
    records = [bench.ErrorRecord("bcc", 3, r, 9 * r, 1.5 * r, v, -v, 2, 7)
               for r, v in ((1, 5e-324), (2, -0.0), (4, 1e300))]
    assert bench.records_to_csv(records) == records_to_csv_oracle(records)
    assert bench.records_to_csv([]) == records_to_csv_oracle([])


# ------------------------------------------------------ reader validation


def _bad_coefficients(L, case):
    lines = tf.coefficients_to_csv(L, np.ones(len(L.basis))).splitlines()
    row = 5
    if case == "index-only":
        lines[row] = lines[row].rsplit(",", 1)[0]
    elif case == "extra-column":
        lines[row] += ",1"
    elif case == "non-numeric":
        lines[row] = lines[row].rsplit(",", 1)[0] + ",one"
    elif case == "nan-index":
        lines[row] = "nan," + lines[row].split(",", 1)[1]
    else:  # a non-finite value
        lines[row] = lines[row].rsplit(",", 1)[0] + "," + case
    return "\n".join(lines) + "\n", row


def _bad_samples(L, case):
    lines = tf.samples_to_csv(L, np.ones(L.npoints)).splitlines()
    row = 4
    if case == "nan-coordinate":
        lines[row] = "nan," + lines[row].split(",", 1)[1]
    elif case == "extra-column":
        lines[row] += ",1"
    elif case == "non-numeric":
        lines[row] = lines[row].replace(",", ",x", 1)
    else:  # a non-finite value
        lines[row] = lines[row].rsplit(",", 1)[0] + "," + case
    return "\n".join(lines) + "\n", row


@pytest.mark.parametrize("case", ["index-only", "extra-column", "non-numeric", "nan-index",
                                  "nan", "inf", "-Infinity"])
def test_eval_rejects_malformed_coefficients(tmp_path, capsys, case):
    L = lat.build("padua", 2, 4)
    text, row = _bad_coefficients(L, case)
    cfile = tmp_path / "c.csv"
    cfile.write_text(text)
    rc = main(["eval", "--family", "padua", "--dim", "2", "--resolution", "4",
               "--coeffs", str(cfile), "--at=0.1,0.2"])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"coefficient row {row} " in err or f"coefficient row {row}:" in err


@pytest.mark.parametrize("case", ["nan-coordinate", "extra-column", "non-numeric",
                                  "nan", "inf", "-inf"])
def test_integrate_rejects_malformed_samples(tmp_path, capsys, case):
    L = lat.build("hex", 2, 2)
    text, row = _bad_samples(L, case)
    sfile = tmp_path / "s.csv"
    sfile.write_text(text)
    rc = main(["integrate", "--family", "hex", "--dim", "2", "--resolution", "2",
               "--samples", str(sfile)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert f"sample row {row} " in captured.err or f"sample row {row}:" in captured.err


@pytest.mark.parametrize("what", ["sample", "coefficient"])
def test_reader_names_the_first_bad_row_not_the_first_bad_column(what):
    # row 2 has a bad value; row 5 a bad label in an earlier column
    L = lat.build("bcc", 3, 2)
    if what == "sample":
        write, read, n = tf.samples_to_csv, tf.samples_from_csv, L.npoints
    else:
        write, read, n = tf.coefficients_to_csv, tf.coefficients_from_csv, len(L.basis)
    lines = write(L, np.ones(n)).splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0] + ",bad"
    lines[5] = "x" + lines[5]
    with pytest.raises(tf.TransformError,
                       match=rf"^{what} row 2: could not convert string to float: 'bad'$"):
        read(L, "\n".join(lines) + "\n")


@pytest.mark.parametrize("what", ["samples", "coefficients"])
@pytest.mark.parametrize("case", ["short", "long", "2-d", "nan", "inf", "-inf"])
def test_writers_reject_what_the_readers_would(what, case):
    L = lat.build("hex", 2, 2)
    write = tf.samples_to_csv if what == "samples" else tf.coefficients_to_csv
    n = L.npoints if what == "samples" else len(L.basis)
    values = {"short": np.ones(n - 1), "long": np.ones(n + 1), "2-d": [[1.0] * n]}.get(case)
    if values is None:
        values = np.ones(n)
        values[3] = float(case)
        message = f"^{what} contain NaN or Inf$"
    else:
        message = rf"^expected {n} {what}, got shape \({np.shape(values)[0]},"
    with pytest.raises(tf.TransformError, match=message):
        write(L, values)


def test_row_count_is_still_checked(tmp_path, capsys):
    L = lat.build("hex", 2, 2)
    sfile = tmp_path / "s.csv"
    sfile.write_text("\n".join(tf.samples_to_csv(L, np.ones(L.npoints)).splitlines()[1:]))
    assert main(["transform", "--family", "hex", "--dim", "2", "--resolution", "2",
                 "--samples", str(sfile)]) == 1
    assert f"expected {L.npoints} sample rows, got {L.npoints - 1}" in capsys.readouterr().err


# ------------------------------------------------------ shortest vector


@pytest.mark.parametrize("family,dim,res", SMALL + CLI_ONESHOT)
def test_min_vector_norm_matches_plain_loop(monkeypatch, family, dim, res):
    L = lat.build(family, dim, res)

    def metrics():
        out = [L.euclidean_degree(), lat.efficiency(L), lat._cheap_degree(L.family, dim, res)]
        return out + [lat.boundary_efficiency(L, a) for a in range(dim) if dim >= 2]

    Q = L.reciprocal.Q
    assert lat._min_vector_norm(Q) == min_vector_norm_oracle(Q)
    fast = metrics()
    monkeypatch.setattr(lat, "_min_vector_norm", min_vector_norm_oracle)
    assert fast == metrics()
