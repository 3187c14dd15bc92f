import csv
import io

import numpy as np
import pytest

from nearcurve.csvtext import csv_text

N = 100_000


def _repr_lines(col):
    return "".join(f"{v!r}\n" for v in col.tolist())


def _csv_writer_text(columns):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(zip(*(col.tolist() for col in columns)))
    return buf.getvalue()


def _bits(exponent, mantissa, sign=0):
    return ((exponent.astype(np.uint64) << np.uint64(52)) | mantissa.astype(np.uint64)
            | (np.uint64(sign) << np.uint64(63))).view(np.float64)


def _families():
    rng = np.random.default_rng(17)
    q = rng.integers(32769, 65537, N)
    near = [np.float64(float(f"1e{k}")) for k in range(-7, 19)]
    ties = [base + rng.integers(0, 10**6, N // 4) + rng.choice([0.125, 0.25, 0.375, 0.5, 0.75], N // 4)
            for base in (2.0**49, 562949953421312.0, 1200000000000000.0, 2.0**51)]
    return {
        "log-uniform": 10.0 ** rng.uniform(-6, 17, N),
        # every mantissa, exponents across the kernel's range and a little past it
        "mantissas": _bits(rng.integers(1000, 1080, N), rng.integers(0, 1 << 52, N, dtype=np.uint64)),
        "ulps-around-powers-of-ten": np.concatenate(
            [c + np.arange(-50, 51) * np.spacing(c) for c in near]),
        "a/q": (rng.integers(0, q) + rng.choice([0.0, 0.1, 0.25], N)) / q,
        "powers-of-two": np.ldexp(1.0, np.arange(-1074, 1024)),
        # the nearest candidate halfway between two: 17 digits (F = 1/2) and 16
        "ties": np.concatenate(ties),
        "dyadic": rng.integers(1, 1 << 20, N) / 2.0 ** rng.integers(1, 40, N),
        "negative": -(10.0 ** rng.uniform(-6, 17, N // 10)),
    }


FAMILIES = _families()


@pytest.mark.parametrize("family", list(FAMILIES))
def test_floats_match_repr(family):
    col = FAMILIES[family]
    assert csv_text([col]) == _repr_lines(col)


def test_every_fallback_and_exponent_edge_matches_csv_writer():
    floats = np.array([
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
        1.7976931348623157e308, np.inf, -np.inf, np.nan, 0.5, 1.0, 2.0**60, 1e-7, 9.99e-7,
        1e-6, 1.5e-6, 1e-4, 9.999999999999999e-05, 1.0000000000000001e-04, 1e-5, 9.5e-6,
        1e16, 9999999999999998.0, 1e16 + 2, 1.2345678901234567e16, 1e17, 1e22, 1e23,
        123456789012345678.0, 0.1, 0.3, 2.5, 100.0, 1234567.0, 0.001, 0.0012,
    ])
    ints = np.zeros(len(floats), dtype=np.int64)
    ints[:6] = [np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1, -10, -9999, -10000]
    ints[6:] = np.arange(6, len(floats)) ** 5 * np.where(np.arange(6, len(floats)) % 2, -1, 1)
    columns = [ints, floats, -floats, ints[::-1]]
    assert csv_text(columns) == _csv_writer_text(columns)


@pytest.mark.parametrize("odd", [1.7976931348623157e308, -2.2250738585072014e-308, -np.inf, np.nan,
                                 -5e-324, 2.0**-20, 2.0**70])
def test_a_long_repr_fits_a_narrow_column(odd):
    # the other values of the column need only a few characters each
    for col in (np.array([1.5, odd, 0.0]), np.array([odd]), np.array([-3e-5, odd])):
        assert csv_text([col, col]) == _csv_writer_text([col, col])


def test_ints_match_str():
    rng = np.random.default_rng(3)
    for col in (rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, N, dtype=np.int64,
                             endpoint=True),
                rng.integers(-10**5, 10**5, N), np.arange(-10, 10**4 + 10), np.zeros(3, dtype=np.int64),
                np.array([3, np.iinfo(np.int64).min, -7])):  # the minimum among short ints
        assert csv_text([col]) == "".join(f"{v}\n" for v in col.tolist())


def test_mixed_columns_and_empty_input():
    rng = np.random.default_rng(5)
    q = rng.integers(1, 70000, 999)
    columns = [q, -q, rng.random(999) * 10.0 ** rng.integers(-5, 18, 999), q // 7, rng.random(999)]
    assert csv_text(columns) == _csv_writer_text(columns)
    assert csv_text([q[:1], columns[2][:1]]) == _csv_writer_text([q[:1], columns[2][:1]])
    assert csv_text([q[:0], columns[2][:0]]) == ""
