"""The exact length of a union of intervals that come sorted, in chunks.

Sorted by their lower ends, the intervals fall into components where the
running maximum of the upper ends falls below the next lower end.  The length
is the sum of the component ends minus their starts, and ``math.fsum`` gives
that sum exact up to one rounding, whatever the order of the intervals and
however they are cut into chunks: the running maximum is carried from chunk to
chunk, and every term goes into one sum at the end.  Past ``_TERMS`` held
terms, they are folded into the few doubles of their exact sum, so a long
stream of chunks holds a bounded number of them.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

import numpy as np

_TERMS = 1 << 16  # terms a union holds before it folds them into their exact sum


def _fold(terms: list) -> list[float]:
    """A few doubles whose exact sum is that of ``terms``: its rounding, then that of the rest, ..."""
    rest = []
    while r := math.fsum(terms + rest):
        rest.append(-r)
    return [-v for v in rest]


def _union_length(chunks: Iterable[tuple[np.ndarray, np.ndarray]]) -> float:
    """Length of the union of the intervals ``(lo, hi)`` of ``chunks``, sorted by lo within and across them.

    In place, on the caller's arrays.  Empty intervals are dropped, and an unbounded one gives inf.
    """
    terms, held, run = [], 0, None  # run: the running maximum of hi so far
    for lo, hi in chunks:
        keep = hi > lo
        if not keep.all():
            lo = lo[keep]  # one statement per array: each old copy goes before the next new one
            hi = hi[keep]
        if lo.size == 0:
            continue
        np.maximum.accumulate(hi, out=hi)
        if run is None:
            terms.append(-lo[:1])
        elif lo[0] > run:  # a component ends at run, and the next starts here
            terms.append(np.array([run, -lo[0]]))
        else:
            np.maximum(hi, run, out=hi)
        if hi[-1] == np.inf or lo[0] == -np.inf:
            return float("inf")
        ends = np.flatnonzero(lo[1:] > hi[:-1])
        terms += [hi[ends], -lo[ends + 1]]
        held, run = held + 2 * len(ends) + 2, hi[-1]
        if held > _TERMS:
            terms = [np.array(_fold(np.concatenate(terms).tolist()))]
            held = len(terms[0])
    return 0.0 if run is None else math.fsum(np.concatenate(terms + [[run]]).tolist())


def interval_union_measure(intervals: Iterable[tuple[float, float]],
                           clip: Optional[tuple[float, float]] = None) -> float:
    """Length of the union of intervals, optionally clipped; exact up to one rounding (``_union_length``)."""
    if isinstance(intervals, np.ndarray):
        if intervals.size and (intervals.ndim != 2 or intervals.shape[1] != 2):
            raise ValueError("an interval array must have shape (k, 2)")
        arr = np.asarray(intervals, dtype=float).reshape(-1, 2)
    else:
        arr = np.asarray([(lo, hi) for lo, hi in intervals], dtype=float)
    if arr.size == 0:
        return 0.0
    lo, hi = arr[:, 0], arr[:, 1]
    if clip is not None:
        lo = np.maximum(lo, clip[0])
        hi = np.minimum(hi, clip[1])
    order = np.argsort(lo)
    return _union_length([(lo[order], hi[order])])
