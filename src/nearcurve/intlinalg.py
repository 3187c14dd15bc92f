"""Exact integer linear algebra on small matrices.

Everything here is exact regardless of entry size: it runs on Python ints, or
on int64 where a bound keeps every intermediate in range.  Matrices are given
as sequences of rows.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np


def _as_rows(mat) -> list[list[int]]:
    return [[int(v) for v in row] for row in mat]


def det_int(mat) -> int:
    """Exact determinant: ``det_stack`` of a stack of one, in Python ints."""
    a = _as_rows(mat)
    return int(det_stack(np.array(a, dtype=object).reshape(1, len(a), len(a)))[0])


def det_stack(stack) -> np.ndarray:
    """Exact determinants of a stack (N, n, n) of integer matrices, by Bareiss (1968) elimination.

    Every intermediate is a product of two minors, each at most the Hadamard
    bound H = prod_i max(1, |row_i|_2).  An int64 stack with H^2 < 2^62 for
    every matrix is eliminated in int64; any other stack, in Python ints
    (dtype object).  A zero pivot swaps in the first nonzero row below it.
    """
    A = np.array(stack)
    if A.dtype != np.int64 or A.size and np.prod(
            np.maximum(1.0, np.square(A, dtype=float).sum(axis=2)), axis=1).max() >= 2.0**62:
        A = A.astype(object)
    N, n, _ = A.shape
    sign, prev, singular = np.ones(N, np.int64), np.ones(N, A.dtype), np.zeros(N, bool)
    for k in range(n - 1):
        pivot = k + (A[:, k:, k] != 0).argmax(axis=1)
        s = np.flatnonzero(pivot != k)
        A[s, k], A[s, pivot[s]], sign[s] = A[s, pivot[s]], A[s, k], -sign[s]
        dead = A[:, k, k] == 0  # no nonzero pivot: det 0, and an identity runs on in its place
        A[dead], prev[dead], singular[dead] = np.eye(n, dtype=np.int64), 1, True
        A[:, k + 1:, k + 1:] = (A[:, k + 1:, k + 1:] * A[:, k, k, None, None]
                                - A[:, k + 1:, k, None] * A[:, None, k, k + 1:]) // prev[:, None, None]
        prev = A[:, k, k].copy()
    return np.where(singular, 0, sign * A[:, -1, -1]) if n else np.ones(N, np.int64)


def rank_int(mat) -> int:
    """Exact rank over Q (fraction-free row elimination)."""
    a = _as_rows(mat)
    if not a:
        return 0
    rows, cols = len(a), len(a[0])
    rank = 0
    pivot_col = 0
    while rank < rows and pivot_col < cols:
        pivot = next((i for i in range(rank, rows) if a[i][pivot_col] != 0), None)
        if pivot is None:
            pivot_col += 1
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        pr = a[rank]
        for i in range(rank + 1, rows):
            if a[i][pivot_col] != 0:
                f1, f2 = pr[pivot_col], a[i][pivot_col]
                a[i] = [f1 * a[i][j] - f2 * pr[j] for j in range(cols)]
        rank += 1
        pivot_col += 1
    return rank


def kernel_basis_int(mat) -> list[list[int]]:
    """Basis of the integer kernel {x in Z^cols : mat @ x = 0}.

    Column reduction with unimodular operations; the returned vectors form a
    primitive basis of the kernel lattice (every integer kernel vector is an
    integer combination of them).
    """
    a = _as_rows(mat)
    if not a:
        return []
    rows, cols = len(a), len(a[0])
    # column-major copies of the matrix and the accumulated transform
    A = [[a[i][j] for i in range(rows)] for j in range(cols)]
    U = [[1 if i == j else 0 for i in range(cols)] for j in range(cols)]
    pivot_col = 0
    for row in range(rows):
        while True:
            live = [j for j in range(pivot_col, cols) if A[j][row] != 0]
            if not live:
                break
            if len(live) == 1:
                j0 = live[0]
                A[pivot_col], A[j0] = A[j0], A[pivot_col]
                U[pivot_col], U[j0] = U[j0], U[pivot_col]
                pivot_col += 1
                break
            jmin = min(live, key=lambda j: abs(A[j][row]))
            for j in live:
                if j == jmin:
                    continue
                q = A[j][row] // A[jmin][row]
                if q:
                    A[j] = [x - q * y for x, y in zip(A[j], A[jmin])]
                    U[j] = [x - q * y for x, y in zip(U[j], U[jmin])]
    return [U[j] for j in range(pivot_col, cols)]


def maximal_minors(mat) -> list[int]:
    """All r x r minors of an N x r matrix, row combinations in lex order, from one ``det_stack``.

    These are the Grassmann coordinates of the wedge of the columns.
    """
    a = _as_rows(mat)
    if not a:
        return []
    n, r = len(a), len(a[0])
    if r > n:
        raise ValueError("more columns than rows")
    try:
        A = np.array(a, dtype=np.int64)
    except OverflowError:  # entries past int64 stay Python ints
        A = np.array(a, dtype=object)
    choices = np.array(list(combinations(range(n), r)), dtype=np.intp)
    return [int(d) for d in det_stack(A[choices])]


def gcd_list(values: Iterable[int]) -> int:
    g = 0
    for v in values:
        g = math.gcd(g, int(v))
        if g == 1:
            return 1
    return g


def is_unimodular(mat) -> bool:
    """Whether |det mat| = 1, exactly: ``det_stack`` of a stack of one."""
    return bool(abs(det_stack(np.asarray(mat)[None])[0]) == 1)
