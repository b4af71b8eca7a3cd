"""Many index sets at once, one mask per lane of a Python int.

:func:`~maxreg.search.exhaustive` (L) checks the sets of a chunk together, mask k in
lane k, and each int operation acts on every lane.  Lane values stay below 2^(w-1) in
lanes of w bits, so bit w - 1 is a free guard: with H that bit of every lane,
``((a | H) - b) & H`` marks the lanes where a >= b and borrows from none.  :func:`columns`
compares window averages by rank: the values c * D_L / n are D_L times the Farey
fractions of order L + 2, so the rank is an order isomorphism and each max is exact.
Ranks sit in lanes of 1 byte while they number at most 128 (L <= 17), else in the low byte
of 2 (at most 256, L <= 26).  Each point's max is decoded to D_L * M chi_A in lanes of w
bits (:func:`pack`, :func:`row`): a lane sums at most 2 (L + 2) values of at most 2 D_L,
below 2^31 for L <= 16 (w = 32) and below 2^48 for L <= 24 (w = 64).  The sweep's layout,
D_L, the widths, the rank tables and the bit reversal of :func:`mirrors`, is one
:class:`Tables`, built once per sweep by :func:`tables`.  :func:`verdicts` gives the pass
:func:`~maxreg.regularity._check_set` reads; no code is shared with the hull kernels or
:mod:`maxreg.maximal`'s oracle.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from math import lcm
from operator import rshift, sub
from struct import pack as _pack, unpack as _unpack
from typing import NamedTuple, Sequence


class Tables(NamedTuple):
    """What every chunk of :func:`~maxreg.search.exhaustive` (L) shares (:func:`tables`)."""

    d: int                  # D_L = lcm(1, ..., L + 2), a common denominator of every profile
    frame: int              # L + 2, the points of the frame [-1, L]
    width: int              # bits of a value lane: 32 while 4 (L + 2) D_L < 2^31, else 64
    rank_bytes: int         # bytes of a rank lane: 1 for at most 128 ranks, else 2
    to_rank: list[bytes]    # to_rank[n][c]: the rank of the window value c * (D_L // n)
    decode: list[bytes]     # decode[b][k]: byte b of the window value of rank k
    reverse: bytes          # reverse[b]: the byte b with its 8 bits reversed


def tables(length: int) -> Tables:
    """The :class:`Tables` of exhaustive (``length``).  D_L, below 2^35 for L <= 24, is a
    common denominator of every profile of the sweep, as a window in the frame [-1, L]
    has at most L + 2 points; the window values c * (D_L // n), c <= n, are ranked in
    increasing order, so count 0 has rank 0."""
    d = lcm(*range(1, length + 3))
    quotients = [0, *[d // n for n in range(1, length + 3)]]
    values = sorted({c * q for n, q in enumerate(quotients) for c in range(n + 1)})
    rank = {x: k for k, x in enumerate(values)}
    to_rank = [bytes([rank[c * q] for c in range(n + 1)]).ljust(256, b"\0")
               for n, q in enumerate(quotients)]
    decode = [bytes([x >> 8 * b & 255 for x in values]).ljust(256, b"\0") for b in range(8)]
    reverse = [0]
    for i in range(8):                  # the bytes with bit i set, after those without
        reverse += [r | 128 >> i for r in reverse]
    return Tables(d, length + 2, 32 if 4 * (length + 2) * d < 1 << 31 else 64,
                  1 if len(values) <= 128 else 2, to_rank, decode, bytes(reverse))


def mirrors(masks: Sequence[int], tables: Tables) -> list[int]:
    """The mask of the reflected set of each of ``masks``, odd and below 2^32: bit i goes
    to bit span - i.  All 32 bits are reversed in one pass, each byte's by ``reverse`` and
    the bytes by reading back big-endian; the shift drops the zeros above the span."""
    n = len(masks)
    flipped = _unpack(f">{n}I", _pack(f"<{n}I", *masks).translate(tables.reverse))
    return list(map(rshift, flipped, map(sub, repeat(32), map(int.bit_length, masks))))


def pack(values: Sequence[int], w: int) -> int:
    """``values``, each below 2^w, in one int: ``values[k]`` in lane k of ``w`` = 32 or 64 bits."""
    return int.from_bytes(_pack(f"<{len(values)}{'IQ'[w // 64]}", *values), "little")


def unpack(lanes: int, n: int, w: int) -> tuple[int, ...]:
    """The ``n`` lanes of ``w`` bits of ``lanes``, the inverse of :func:`pack`."""
    return _unpack(f"<{n}{'IQ'[w // 64]}", lanes.to_bytes(w // 8 * n, "little"))


def row(columns: Sequence[int], k: int, n: int, tables: Tables) -> list[int]:
    """Lane ``k`` of the first ``n`` of ``columns`` over ``tables``: one mask's row."""
    w = tables.width
    return [column >> w * k & (1 << w) - 1 for column in columns[:n]]


def _lane_max(a: int, b: int, high: int, top: int) -> int:
    """The lane-wise max of ``a`` and ``b``; ``high`` is bit ``top`` of every lane."""
    t = (a | high) - b                  # bit top set where a >= b, the rest a - b there
    ge = t & high
    return b + (t & ge - (ge >> top))


def columns(masks: Sequence[int], tables: Tables) -> list[int]:
    """D_L * M chi_A(x) at each x of the frame [-1, L], one int per x holding
    ``masks[k]``'s value in lane k, over ``tables``.  A window [i, j] holds a difference
    of prefix counts, whose rank lanes are one translate of its count lanes by its length;
    each start keeps a running max as its end falls from L, and each point the max of
    those over the starts at or left of it, decoded once.  By dilution no window leaving
    the frame does better at a point in it (:mod:`maxreg.maximal`)."""
    n, r, m, to_rank = tables.frame, tables.rank_bytes, len(masks), tables.to_rank
    size, w = r * m, tables.width // 8
    raw = _pack(f"<{m}{'IQ'[r - 1]}", *masks)      # masks below 2^32, in 4 r bytes each
    bits = [int.from_bytes(raw[p::4], "little") for p in range(4)]  # byte p, in r-byte lanes
    ones, top = int.from_bytes(b"\1\0"[:r] * m, "little"), 8 * r - 1
    high = ones << top
    counts = [0, 0, *accumulate(bits[k >> 3] >> (k & 7) & ones for k in range(n - 2))]
    counts.append(counts[-1])                       # the points of the frame left of each
    best = [0] * n
    for i in range(n):
        run, start = 0, counts[i]
        for j in range(n - 1, i - 1, -1):
            rank = (counts[j + 1] - start).to_bytes(size, "little").translate(to_rank[j - i + 1])
            run = _lane_max(int.from_bytes(rank, "little"), run, high, top)
            best[j] = _lane_max(run, best[j], high, top)
    values = bytearray(w * m)
    for j, x in enumerate(best):
        rank = x.to_bytes(size, "little")[::r]
        for b in range(w):
            values[b::w] = rank.translate(tables.decode[b])
        best[j] = int.from_bytes(values, "little")
    return best


def verdicts(masks: Sequence[int], v: list[int], tables: Tables) -> tuple[tuple[int, ...], ...]:
    """(D * ||(M chi_A)''||_1, D * Var(M chi_A), flags, blocks) of each of ``masks`` from its
    :func:`columns` ``v``, on its window [-1, b + 1], b its top bit.  The norm is -2
    sum c2 over the concave points of [0, b]; the variation v(0) + sum |v'| + v(b) is
    2 v(0) plus twice the rises on [0, b]; blocks, the runs of A, are a popcount of the
    run starts.  Flags bit w - 1 marks a negative tail term, bit w - 2 a concave point
    with v != D, bit w - 3 a norm above 12 blocks D (Theorem 1) and bit w - 4 a
    variation above 2 blocks D.  Bits k >= x ORed mark the lanes with x <= b."""
    d, n, top = tables.d, len(masks), tables.width - 1
    ones, packed = pack([1] * n, top + 1), pack(masks, top + 1)     # bit k: packed >> k & ones
    high, dl = ones << top, d * ones
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
    half = v[1] + rise                                      # norm and half hold half of each
    runs = packed & ~(packed << 1)                          # the run starts, masks below 2^24
    runs -= runs >> 1 & ones * 0x555555
    runs = (runs & ones * 0x333333) + (runs >> 2 & ones * 0x333333)
    runs = runs + (runs >> 4) & ones * 0x0F0F0F
    runs = runs + (runs >> 8) + (runs >> 16) & ones * 255
    flags |= (lemma >> 1 | ((runs * 6 * d | high) - norm & high ^ high) >> 2
              | ((runs * d | high) - half & high ^ high) >> 3)
    return tuple(unpack(x, n, top + 1) for x in (norm << 1, half << 1, flags, runs))
