"""Many index sets at once, one mask per 64-bit lane of a Python int.

:func:`~maxreg.search.exhaustive` checks the sets of a chunk together: mask k
sits in bits 64k .. 64k + 63 (:func:`pack`), and each int operation acts on
every lane.  Lane values stay in [0, 2^63), so bit 63 is a free guard: with H
bit 63 of every lane, ``((a | H) - b) & H`` marks the lanes where a >= b and
borrows from none.  :func:`columns` gives D_L * M chi_A on the frame [-1, L],
:func:`verdicts` the pass :func:`~maxreg.regularity._check_set` reads; no code
is shared with the hull kernels or the oracle of :mod:`maxreg.maximal`.  Exact:
for L <= 24, D_L < 2^35 and no lane sums more than 2 * 26 values of at most
2 D_L, so every lane stays below 2^48.
"""

from __future__ import annotations

from itertools import accumulate
from operator import or_
from struct import pack as _pack, unpack as _unpack
from typing import Sequence


def pack(values: Sequence[int]) -> int:
    """``values``, each below 2^64, as one int holding ``values[k]`` in lane k."""
    return int.from_bytes(_pack(f"<{len(values)}Q", *values), "little")


def unpack(lanes: int, n: int) -> tuple[int, ...]:
    """The ``n`` lanes of ``lanes``, the inverse of :func:`pack`."""
    return _unpack(f"<{n}Q", lanes.to_bytes(8 * n, "little"))


def _mask_lanes(masks: Sequence[int]) -> tuple[int, int, int]:
    """(1 in each lane, bit 63 of each lane, ``masks`` packed); bit k of every mask,
    in its lane, is ``packed >> k & ones``."""
    ones = pack([1] * len(masks))
    return ones, ones << 63, pack(masks)


def _lane_max(a: int, b: int, high: int) -> int:
    """The lane-wise max of ``a`` and ``b``; ``high`` is bit 63 of every lane."""
    t = (a | high) - b                  # bit 63 set where a >= b, the rest a - b there
    ge = t & high
    return b + (t & ge - (ge >> 63))


def columns(masks: Sequence[int], tables: tuple) -> list[int]:
    """D_L * M chi_A(x) at each x of the frame [-1, L], one int per x holding
    ``masks[k]``'s value in lane k, for :func:`~maxreg.search._sweep_tables` ``tables``.
    A window [i, j] holds a difference of prefix counts, times D_L // (j - i + 1);
    each start keeps a running max as its end falls from L, and each point the max
    of those over the starts at or left of it.  By dilution no window leaving the
    frame does better at a point in it (:mod:`maxreg.maximal`)."""
    quotients, n = tables[1], len(tables[1]) - 1        # the frame has n = L + 2 points
    ones, high, packed = _mask_lanes(masks)
    counts = [0, 0, *accumulate(packed >> k & ones for k in range(n - 2))]
    counts.append(counts[-1])                       # the points of the frame left of each
    best = [0] * n
    for i in range(n):
        run, start = 0, counts[i]
        for j in range(n - 1, i - 1, -1):
            run = _lane_max((counts[j + 1] - start) * quotients[j - i + 1], run, high)
            best[j] = _lane_max(run, best[j], high)
    return best


def verdicts(masks: Sequence[int], v: list[int], tables: tuple) -> tuple[tuple[int, ...], ...]:
    """(D * ||(M chi_A)''||_1, D * Var(M chi_A), flags) of each of ``masks`` from its
    :func:`columns` ``v``, on its window [-1, b + 1], b its top bit.  The norm is -2
    sum c2 over the concave points of [0, b]; the variation v(0) + sum |v'| + v(b) is
    2 v(0) plus twice the rises on [0, b].  Flags bit 63 marks a negative tail term,
    bit 62 a concave point with v != D.  Bits k >= x ORed mark the lanes with x <= b."""
    d, length = tables[0], len(tables[1]) - 3
    ones, high, packed = _mask_lanes(masks)
    dl = d * ones
    norm = rise = flags = lemma = inside = 0
    for x in range(length - 1, -1, -1):
        after, inside = inside, inside | (packed >> x & ones) << 63    # x + 1 <= b, x <= b
        left, mid, right = v[x:x + 3]                       # v(x - 1), v(x), v(x + 1)
        twice, sides = mid << 1, left + right
        concave = ((sides | high) - twice & high ^ high) & inside
        keep = concave - (concave >> 63)
        norm += (twice & keep) - (sides & keep)
        lemma |= concave & (mid ^ dl | high) - ones         # and v(x) != D
        step = (right | high) - mid                         # bit 63: v(x + 1) >= v(x)
        up = step & after
        rise += step & up - (up >> 63)
        at_b = inside ^ after
        flags |= (mid | high) - right & at_b ^ at_b         # v(b + 1) > v(b)
    flags |= (v[1] | high) - v[0] & high ^ high             # v(0) < v(-1)
    n = len(masks)
    return unpack(norm << 1, n), unpack(v[1] + rise << 1, n), unpack(flags | lemma >> 1, n)
