"""The vectorized CSV writer against Python's %-formatting, byte for byte."""

import errno
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contract_solve import cli_dispatch, report_cli, write_csv
from contract_solve.report_cli import _CSV_BLOCK, _csv_rows

from .helpers import count_forks, percent_write_csv, set_cpus


def _formatted(x):
    """The CSV route's text of each float of x."""
    return _csv_rows([np.asarray(x, dtype=np.float64)], bytearray()).split(b"\n")[1:]


def _assert_percent_g(x, chunk=1 << 16):
    x = np.asarray(x, dtype=np.float64)
    for start in range(0, x.size, chunk):
        part = x[start:start + chunk]
        got = _formatted(part)
        want = [b"%.17g" % v for v in part.tolist()]
        bad = [(v, bytes(g), w) for v, g, w in zip(part.tolist(), got, want) if g != w]
        assert len(got) == len(want) and not bad, bad[:5]


def _sweep(rng):
    """About 10**6 floats over every branch of the formatter."""
    bits = rng.integers(0, 2 ** 64 - 1, 200_000, dtype=np.uint64, endpoint=True)
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
                np.nextafter(2.2250738585072014e-308, 0.0), 1.7976931348623157e308,
                1e-10, 1e15, 9.9999999999999995e-05, 0.99999999999999989, 0.1, 0.5, 1.0, 100.0]
    log_uniform = np.exp(rng.uniform(np.log(1e-12), np.log(1e17), 400_000))
    powers = 10.0 ** np.arange(-11, 17)
    ulps = np.arange(-50, 51)
    neighbours = np.concatenate([powers] + [p + ulps * np.spacing(p) for p in powers])
    odd = rng.integers(4 * 10 ** 14, 4 * 10 ** 15, 400_000) * 2 + 1  # odd n in [8e14, 8e15)
    return np.concatenate([bits.view(np.float64), specials, log_uniform, -log_uniform,
                           neighbours, -neighbours, odd / 8.0])


def test_sweep_matches_percent_g():
    x = _sweep(np.random.default_rng(20261018))
    assert x.size >= 10 ** 6
    assert np.isnan(x).any() and (x == 0.0).any() and (np.abs(x) < 2.2250738585072014e-308).any()
    _assert_percent_g(x)


def test_exact_ties_round_half_to_even():
    # n / 8 in [1e14, 1e15) has 15 integer digits, so its 17 digits stop at
    # the hundredths and the last 5 of .125, .375, .625, .875 is an exact tie
    n = np.array([8 * 10 ** 14 + 1, 8 * 10 ** 14 + 3, 8 * 10 ** 14 + 5, 8 * 10 ** 14 + 7])
    assert [bytes(t) for t in _formatted(n / 8.0)] == [
        b"100000000000000.12", b"100000000000000.38", b"100000000000000.62",
        b"100000000000000.88"]


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=64))
@settings(max_examples=300, deadline=None)
def test_floats_match_percent_g(values):
    _assert_percent_g(values)


@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
@settings(max_examples=300, deadline=None)
def test_bit_patterns_match_percent_g(bits):
    _assert_percent_g(np.array(bits, dtype=np.uint64).view(np.float64))


def test_no_double_in_fast_range_rounds_up_to_a_power_of_ten():
    # the formatter has no carry from 99...9.5 up to 10**17: the double next
    # below each power of ten in [1e-10, 1e15] stays more than half a unit
    # of the 17th digit below it
    for k in range(-10, 16):
        p = Fraction(10) ** k
        below = float(p)
        if Fraction(below) >= p:
            below = np.nextafter(below, 0.0)
        scaled = Fraction(below) * Fraction(10) ** (16 - (k - 1))
        assert Fraction(10) ** 17 - scaled > Fraction(1, 2), k


def _table(rng, n):
    small = rng.integers(-1000, 1000, n)
    wide = rng.integers(-2 ** 63, 2 ** 63 - 1, n, endpoint=True)
    floats = rng.normal(size=n) * 10.0 ** rng.integers(-13, 18, n)
    floats[::7] = 0.0
    floats[::5] = np.resize([0.0, -0.0, 1e-12, 1e300, np.inf, np.nan], floats[::5].size)
    with np.errstate(over="ignore"):  # 1e300 is inf in float32
        single = floats.astype(np.float32)
    return (
        floats,
        np.where(rng.random(n) < 0.5, small, wide),
        rng.integers(0, 2 ** 64 - 1, n, dtype=np.uint64, endpoint=True),
        rng.integers(-128, 127, n, dtype=np.int8, endpoint=True),
        rng.random(n) < 0.5,
        np.array([f"p{k}é" if k % 3 else k for k in range(n)], dtype=object),
        np.array([str(k) for k in range(n)]),
        np.array([b"b%d" % k for k in range(n)], dtype=np.bytes_),
        single,
        [float(v) for v in floats],
    )


HEADER = ("f", "i", "u", "i8", "b", "o", "s", "bytes", "f32", "list")
ROWS = [0, 1, _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1, 3 * _CSV_BLOCK + 3,
        5 * _CSV_BLOCK + 3]


@pytest.mark.parametrize("rows", ROWS, ids=[f"sizes{k}" for k in range(len(ROWS))])
def test_writer_matches_percent_oracle(tmp_path, monkeypatch, rows):
    # one process writes every table, however many CPUs there are
    table = _table(np.random.default_rng(rows), rows)
    set_cpus(monkeypatch, 5)
    forks = count_forks(monkeypatch)
    write_csv(tmp_path / "fast.csv", HEADER, table)
    assert not forks
    percent_write_csv(tmp_path / "oracle.csv", HEADER, table)
    fast = (tmp_path / "fast.csv").read_bytes()
    assert fast == (tmp_path / "oracle.csv").read_bytes()
    assert fast.count(b"\n") == rows + 1
    assert sorted(os.listdir(tmp_path)) == ["fast.csv", "oracle.csv"]


def test_no_blocks_writes_the_header_only(tmp_path):
    # a zero-row table, and a table of no columns
    for columns in ((np.zeros(0), np.zeros(0, dtype=int), []), ()):
        write_csv(tmp_path / "empty.csv", ("sigma", "x", "w"), columns)
        assert (tmp_path / "empty.csv").read_bytes() == b"sigma,x,w\n"


def test_ragged_block_names_the_lengths(tmp_path):
    with pytest.raises(ValueError, match=r"differ in length: \[3, 2\]"):
        write_csv(tmp_path / "bad.csv", ("a", "b"), ([1, 2, 3], [1.0, 2.0]))


def test_header_and_column_counts_must_agree(tmp_path):
    for header in (("a", "b", "c"), ("a",)):
        with pytest.raises(ValueError, match=f"{len(header)} header names for 2 columns"):
            write_csv(tmp_path / "bad.csv", header, ([0, 1], [0.5, 1.5]))
    assert not (tmp_path / "bad.csv").exists()


def test_columns_must_be_one_dimensional(tmp_path):
    with pytest.raises(ValueError, match=r"1-D, not of shapes \[\(2,\), \(2, 2\)\]"):
        write_csv(tmp_path / "bad.csv", ("a", "b"), ([0, 1], np.ones((2, 2))))
    with pytest.raises(ValueError, match="1-D"):
        write_csv(tmp_path / "bad.csv", ("a",), (np.float64(1.0),))
    assert not (tmp_path / "bad.csv").exists()


def test_unquotable_text_is_rejected(tmp_path):
    # the writer does not quote: NUL was dropped, and "," or a line break
    # split the value across fields or rows
    path = tmp_path / "bad.csv"
    for value in ("x\0y", "x,y\nz", "a\rb", b"x,y"):
        with pytest.raises(ValueError, match="text value .* holds NUL, ',', CR or LF"):
            write_csv(path, ("a", "b"), ([0], np.array([value], dtype=object)))
    for name in ("a,b", "a\n", "\0"):
        with pytest.raises(ValueError, match="header name .* holds NUL, ',', CR or LF"):
            write_csv(path, (name,), ([0],))
    assert not path.exists()
    write_csv(path, ("a", "b"), ([0], ["x y;é'\"\t"]))
    assert path.read_bytes() == "a,b\n0,x y;é'\"\t\n".encode()


def _fail_in(monkeypatch, exc):
    """Make _csv_rows raise exc."""
    def failing(columns, buf):
        raise exc

    monkeypatch.setattr(report_cli, "_csv_rows", failing)


def test_a_failed_write_is_raised_and_leaves_nothing(tmp_path, monkeypatch):
    _fail_in(monkeypatch, KeyError("failed"))
    with pytest.raises(KeyError, match="failed"):
        write_csv(tmp_path / "x.csv", ("x",), (np.arange(3 * _CSV_BLOCK),))
    assert os.listdir(tmp_path) == []  # no temporary file, and no partial x.csv


def test_a_write_replaces_its_target_with_a_new_files_mode(tmp_path):
    # the file is built beside the target and renamed onto it: the target
    # takes the mode open() gives a new file, and no other file is left
    (tmp_path / "ref.csv").write_bytes(b"")
    target = tmp_path / "x.csv"
    target.write_bytes(b"old")
    write_csv(target, ("x",), (np.arange(3),))
    assert target.read_bytes() == b"x\n0\n1\n2\n"
    assert target.stat().st_mode == (tmp_path / "ref.csv").stat().st_mode
    assert sorted(os.listdir(tmp_path)) == ["ref.csv", "x.csv"]


def test_a_run_whose_writer_fails_publishes_nothing(tmp_path, monkeypatch, capsys):
    _fail_in(monkeypatch, OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)))
    args = ["report", "--set", "grid.n=201", "--set", "sim.n_paths=30",
            "--set", "sweep.sigmas=1.85", "--out", str(tmp_path / "bad")]
    assert cli_dispatch(args) == 1
    assert "[Errno 28] No space left on device" in capsys.readouterr().err
    assert os.listdir(tmp_path / "bad") == []
