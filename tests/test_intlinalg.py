import math

import numpy as np
import pytest

from nearcurve.intlinalg import (
    det_int,
    det_stack,
    gcd_list,
    is_unimodular,
    kernel_basis_int,
    maximal_minors,
    rank_int,
)


def _fraction_det(mat):
    from fractions import Fraction

    a = [[Fraction(v) for v in row] for row in mat]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return int(det)


def test_det_against_fraction_elimination(rng):
    for _ in range(200):
        n = int(rng.integers(1, 7))
        mat = rng.integers(-9, 10, size=(n, n)).tolist()
        assert det_int(mat) == _fraction_det(mat)


def test_det_edge_cases():
    assert det_int([]) == 1
    assert det_int([[5]]) == 5
    assert det_int([[1, 2], [2, 4]]) == 0
    with pytest.raises(ValueError):
        det_int([[1, 2, 3], [4, 5, 6]])


def test_rank_matches_numpy(rng):
    for _ in range(100):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 6))
        mat = rng.integers(-4, 5, size=(rows, cols))
        assert rank_int(mat.tolist()) == np.linalg.matrix_rank(mat.astype(float))


def test_kernel_orthogonal_and_complete(rng):
    for _ in range(150):
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(rows, 7))
        mat = rng.integers(-5, 6, size=(rows, cols))
        kernel = kernel_basis_int(mat.tolist())
        r = rank_int(mat.tolist())
        assert len(kernel) == cols - r
        for vec in kernel:
            assert all(sum(m * v for m, v in zip(row, vec)) == 0 for row in mat.tolist())
        if kernel:
            # primitive: the Grassmann coordinates of the kernel basis are coprime
            coords = maximal_minors([list(col) for col in zip(*kernel)])
            assert gcd_list(coords) == 1


def test_maximal_minors_lex_order():
    mat = [[1, 0], [0, 1], [2, 3]]
    # row pairs (0,1), (0,2), (1,2)
    assert maximal_minors(mat) == [1, 3, -2]


def test_unimodular():
    assert is_unimodular([[1, 5], [0, 1]])
    assert is_unimodular([[0, 1], [-1, 0]])
    assert not is_unimodular([[2, 0], [0, 1]])


def _stack_with_dets(rng, n, dets, size):
    """``size`` random int64 matrices of dimension n, each with its determinant drawn from ``dets``.

    diag(d, 1, ..., 1), mixed by n random row or column additions of +-1
    times another, keeps its determinant d; a row swap negates it.
    """
    mats, expected = [], []
    for _ in range(size):
        d = int(rng.choice(dets))
        A = np.eye(n, dtype=np.int64)
        A[0, 0] = d
        for _ in range(n):
            i, j = rng.choice(n, size=2, replace=False)
            f = int(rng.choice((-1, 1)))
            if rng.random() < 0.5:
                A[i] += f * A[j]
            else:
                A[:, i] += f * A[:, j]
        if rng.random() < 0.3:
            i, j = rng.choice(n, size=2, replace=False)
            A[[i, j]] = A[[j, i]]
            d = -d
        mats.append(A)
        expected.append(d)
    return np.array(mats), expected


@pytest.mark.parametrize("n", range(2, 9))
def test_det_stack_in_int64_equals_det_int(rng, n):
    stack, expected = _stack_with_dets(rng, n, (1, -1, 0, 2, -2), 60)
    dets = det_stack(stack)
    assert dets.dtype == np.int64  # every Hadamard bound here keeps to int64
    assert dets.tolist() == expected == [det_int(m) for m in stack.tolist()] == \
        [_fraction_det(m) for m in stack.tolist()]
    assert [is_unimodular(m) for m in stack] == [abs(d) == 1 for d in expected]


def test_det_stack_takes_python_ints_past_the_bound():
    # int64 entries whose Hadamard bound H has H^2 past 2^62: det 1 and -1
    K, L = 2**20, 2**31
    big = np.array([[[1, K, 0], [0, 1, 0], [K, K * K + 1, 1]],
                    [[L + 1, L, 0], [L, L - 1, 0], [0, 0, 1]]], dtype=np.int64)
    dets = det_stack(big)
    assert dets.dtype == object and dets.tolist() == [det_int(m) for m in big.tolist()] == [1, -1]
    # the LLL transform of the overflow fallback comes as dtype object, entries past 2^63 too
    huge = [[[2**70, 2**70 - 1], [2**70 + 1, 2**70]], [[0, 1], [1, 0]], [[3, 5], [6, 10]]]
    dets = det_stack(np.array(huge, dtype=object))
    assert dets.dtype == object and dets.tolist() == [det_int(m) for m in huge] == [1, -1, 0]
    assert is_unimodular(np.array(huge[0], dtype=object))


def test_det_stack_swaps_in_a_row_at_a_zero_pivot():
    mats = [[[0, 1, 0], [1, 0, 0], [0, 0, 1]],  # zero at the first pivot
            [[1, 1, 0], [1, 1, 1], [0, 1, 0]],  # zero at the second, after one elimination step
            [[0, 0, 1], [0, 2, 0], [3, 0, 0]],
            [[0, 1, 2], [0, 3, 4], [0, 5, 6]]]  # no nonzero pivot in the first column
    dets = det_stack(np.array(mats))
    assert dets.dtype == np.int64
    assert dets.tolist() == [det_int(m) for m in mats] == [_fraction_det(m) for m in mats] == [-1, -1, -6, 0]


def test_gcd_list():
    assert gcd_list([6, -9, 15]) == 3
    assert gcd_list([0, 0, 7]) == 7
    assert gcd_list([]) == 0
