"""Many index sets at once, one mask per lane of a Python int.

:func:`~maxreg.search.exhaustive` (L) checks the sets of a chunk together: mask k
sits in bits wk .. wk + w - 1 (:func:`pack`, :func:`row`), w = :func:`width`, and each int
operation acts on every lane.  Lane values stay in [0, 2^(w-1)), so bit w - 1 is a
free guard: with H that bit of every lane, ``((a | H) - b) & H`` marks the lanes
where a >= b and borrows from none.  :func:`columns` gives D_L * M chi_A on the
frame [-1, L], :func:`verdicts` the pass :func:`~maxreg.regularity._check_set`
reads; no code is shared with the hull kernels or :mod:`maxreg.maximal`'s oracle.
Exact: a lane sums at most 2 (L + 2) values of at most 2 D_L, below 2^31 for
L <= 16 (w = 32, D_16 = 12,252,240) and below 2^48 for L <= 24 (w = 64, D_24 < 2^35).
"""

from __future__ import annotations

from itertools import accumulate
from struct import pack as _pack, unpack as _unpack
from typing import Sequence

def width(tables: tuple) -> int:
    """The lane width of a chunk over :func:`~maxreg.search._sweep_tables` ``tables``:
    32 bits while 4 (L + 2) D_L < 2^31 (L <= 16 for D_L = lcm(1, ..., L + 2)), else 64."""
    return 32 if 4 * (len(tables[1]) - 1) * tables[0] < 1 << 31 else 64


def pack(values: Sequence[int], w: int) -> int:
    """``values``, each below 2^w, in one int: ``values[k]`` in lane k of ``w`` = 32 or 64 bits."""
    return int.from_bytes(_pack(f"<{len(values)}{'IQ'[w // 64]}", *values), "little")


def unpack(lanes: int, n: int, w: int) -> tuple[int, ...]:
    """The ``n`` lanes of ``w`` bits of ``lanes``, the inverse of :func:`pack`."""
    return _unpack(f"<{n}{'IQ'[w // 64]}", lanes.to_bytes(w // 8 * n, "little"))


def row(columns: Sequence[int], k: int, n: int, tables: tuple) -> list[int]:
    """Lane ``k`` of the first ``n`` of ``columns`` over ``tables``: one mask's row."""
    w = width(tables)
    return [column >> w * k & (1 << w) - 1 for column in columns[:n]]


def _mask_lanes(masks: Sequence[int], tables: tuple) -> tuple[int, int, int, int]:
    """(w - 1, 1 in each lane, bit w - 1 of each lane, ``masks`` packed), w = :func:`width`
    (``tables``); bit k of every mask, in its lane, is ``packed >> k & ones``."""
    w = width(tables)
    ones = pack([1] * len(masks), w)
    return w - 1, ones, ones << w - 1, pack(masks, w)


def _lane_max(a: int, b: int, high: int, top: int) -> int:
    """The lane-wise max of ``a`` and ``b``; ``high`` is bit ``top`` of every lane."""
    t = (a | high) - b                  # bit top set where a >= b, the rest a - b there
    ge = t & high
    return b + (t & ge - (ge >> top))


def columns(masks: Sequence[int], tables: tuple) -> list[int]:
    """D_L * M chi_A(x) at each x of the frame [-1, L], one int per x holding
    ``masks[k]``'s value in lane k, for :func:`~maxreg.search._sweep_tables` ``tables``.
    A window [i, j] holds a difference of prefix counts, times D_L // (j - i + 1);
    each start keeps a running max as its end falls from L, and each point the max
    of those over the starts at or left of it.  By dilution no window leaving the
    frame does better at a point in it (:mod:`maxreg.maximal`)."""
    quotients, n = tables[1], len(tables[1]) - 1        # the frame has n = L + 2 points
    top, ones, high, packed = _mask_lanes(masks, tables)
    counts = [0, 0, *accumulate(packed >> k & ones for k in range(n - 2))]
    counts.append(counts[-1])                       # the points of the frame left of each
    best = [0] * n
    for i in range(n):
        run, start = 0, counts[i]
        for j in range(n - 1, i - 1, -1):
            run = _lane_max((counts[j + 1] - start) * quotients[j - i + 1], run, high, top)
            best[j] = _lane_max(run, best[j], high, top)
    return best


def verdicts(masks: Sequence[int], v: list[int], tables: tuple) -> tuple[tuple[int, ...], ...]:
    """(D * ||(M chi_A)''||_1, D * Var(M chi_A), flags) of each of ``masks`` from its
    :func:`columns` ``v``, on its window [-1, b + 1], b its top bit.  The norm is -2
    sum c2 over the concave points of [0, b]; the variation v(0) + sum |v'| + v(b) is
    2 v(0) plus twice the rises on [0, b].  Flags bit w - 1 marks a negative tail term,
    bit w - 2 a concave point with v != D.  Bits k >= x ORed mark the lanes with x <= b."""
    d, n = tables[0], len(masks)
    top, ones, high, packed = _mask_lanes(masks, tables)
    dl = d * ones
    norm = rise = flags = lemma = inside = 0
    for x in range(len(v) - 3, -1, -1):                     # v spans the frame [-1, L]
        after, inside = inside, inside | (packed >> x & ones) << top   # x + 1 <= b, x <= b
        left, mid, right = v[x:x + 3]                       # v(x - 1), v(x), v(x + 1)
        twice, sides = mid << 1, left + right
        concave = ((sides | high) - twice & high ^ high) & inside
        keep = concave - (concave >> top)
        norm += (twice & keep) - (sides & keep)
        lemma |= concave & (mid ^ dl | high) - ones         # and v(x) != D
        step = (right | high) - mid                         # bit top: v(x + 1) >= v(x)
        up = step & after
        rise += step & up - (up >> top)
        at_b = inside ^ after
        flags |= (mid | high) - right & at_b ^ at_b         # v(b + 1) > v(b)
    flags |= (v[1] | high) - v[0] & high ^ high             # v(0) < v(-1)
    return tuple(unpack(x, n, top + 1) for x in (norm << 1, v[1] + rise << 1, flags | lemma >> 1))
