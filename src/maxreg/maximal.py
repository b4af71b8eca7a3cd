"""Exact evaluation of the discrete noncentered maximal operator.

For f: Z -> Q with finite support, M f(n) is the supremum of the averages of
|f| over all windows [n-r, n+s] containing n.  Every value the library needs
comes from a finite enumeration justified by a dilution argument:

* extending a window past the support hull [a, b] keeps the numerator fixed
  and grows the denominator, so it never increases a positive average;
* hence for a <= n <= b the sup is attained by a window inside [a, b], and
  for n > b by a window [i, n] with i in [a, b] (mirror image on the left).

The one-sided form gives the right-tail identity, used for all infinite-sum
bookkeeping downstream: for n >= b,

    M f(n) = max_{i in [a, b]}  S_i / (n - i + 1),   S_i = sum_{j >= i} |f(j)|.

Each candidate is a positive multiple of 1/(n - i + 1), convex and strictly
decreasing in n with differences tending to zero; a finite maximum of such
hyperbolas inherits convexity, monotonicity, and the vanishing tail.  The
mirror statement holds on (-inf, a].  This is the ``tail_guarantee`` carried
by :class:`MaximalProfile`.

Internally all comparisons clear denominators and run on integers; results
are returned as `Fraction` in lowest terms, so the profile paths are
bit-identical.  Two production kernels return (numerator, window length)
pairs, which :mod:`maxreg.regularity` reads directly.  Both build hulls with
one monotone chain, :func:`_hull_links`, and find bridges between them with
one walk, :func:`_bridges`:

* :func:`set_maxima` profiles the indicator of an index set from its runs.
  M chi_A is 1 on A and, on each gap, the larger of one bridge per gap and
  two tangents that walk the run hulls once.  Set analyses use it, and the
  order-k scans read both tails off its run hulls as chains of hyperbola
  pieces (``_set_tails``); the hulls never leave this module.
* :func:`window_maxima` profiles a general nonnegative integer block, for
  the function sweep and for :func:`maximal_profile_fast`, which wraps it as
  a :class:`MaximalProfile` of `Fraction` values, at every block length by
  one bridge per point between the lower hull of the prefix sums left of it
  and the upper hull of those right of it.

:func:`maximal_profile`, O(m^2) for m points with no hull, is only the oracle
that the tests and the sweeps' audits compare the kernels against;
:func:`maximal_at` is the pointwise definition.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import Iterable, Iterator, Sequence

from .lattice import LatticeFunction

__all__ = [
    "maximal_at",
    "MaximalProfile",
    "maximal_profile",
    "maximal_profile_fast",
    "set_maxima",
    "window_maxima",
]


def _cleared(f: LatticeFunction) -> tuple[int, list[int]]:
    """(common denominator c, integer values of c*|f| on the support block)."""
    c = 1
    for v in f.values:
        c = lcm(c, v.denominator)
    return c, [abs(v.numerator) * (c // v.denominator) for v in f.values]


def maximal_at(f: LatticeFunction, n: int) -> Fraction:
    """Sup of window averages of |f| at n; 0 for the zero function.

    Enumerates exactly the windows that can attain the sup (see the module
    docstring for the dilution argument).
    """
    if f.is_zero():
        return Fraction(0)
    a = f.support_min()
    b = f.support_max()
    c, u = _cleared(f)
    w = len(u)
    prefix = [0] * (w + 1)
    for i, v in enumerate(u):
        prefix[i + 1] = prefix[i] + v

    best_num, best_den = 0, 1
    if n < a:
        for j in range(a, b + 1):          # windows [n, j]
            num = prefix[j - a + 1]
            den = j - n + 1
            if num * best_den > best_num * den:
                best_num, best_den = num, den
    elif n > b:
        for i in range(a, b + 1):          # windows [i, n]
            num = prefix[w] - prefix[i - a]
            den = n - i + 1
            if num * best_den > best_num * den:
                best_num, best_den = num, den
    else:
        for i in range(a, n + 1):          # windows [i, j] inside the hull
            pi = prefix[i - a]
            for j in range(n, b + 1):
                num = prefix[j - a + 1] - pi
                den = j - i + 1
                if num * best_den > best_num * den:
                    best_num, best_den = num, den
    return Fraction(best_num, best_den * c)


@dataclass(frozen=True)
class MaximalProfile:
    """Exact values of M f on the window [a-1, b+1] around the support hull.

    ``tail_guarantee`` asserts that outside the hull M f is a finite maximum
    of one-sided hyperbolas: convex and monotone on (-inf, a] and on [b, inf)
    with consecutive differences tending to 0 (derivation in the module
    docstring).  Together with the stored window this pins every quantity an
    infinite second-difference or variation sum needs.
    """

    source: LatticeFunction
    hull: tuple[int, int]
    window: tuple[int, int]
    values: tuple[Fraction, ...]
    tail_guarantee: bool

    def value_at(self, n: int) -> Fraction:
        lo, hi = self.window
        if not lo <= n <= hi:
            raise ValueError(f"n={n} outside profile window [{lo}, {hi}]")
        return self.values[n - lo]

    def points(self) -> Iterator[tuple[int, Fraction]]:
        lo = self.window[0]
        for i, v in enumerate(self.values):
            yield lo + i, v


def _longest_windows(u: list[int]) -> tuple[list[int], list[int]]:
    """(sum, length) of the longest best window through each position of a
    nonnegative integer block ``u`` with a nonzero entry, in O(len(u)^2) steps:
    for each start i, the best [i, j'] over j' >= j as the end j falls, folded
    into position j's.  On ties the strict comparisons keep the earliest start
    and its latest end: the union of all best windows, itself one, as two that
    overlap do not average above their union."""
    m, prefix = len(u), list(accumulate(u, initial=0))
    sums, lengths = [0] * m, [1] * m
    for i in range(m):
        pi, rn, rd = prefix[i], 0, 1
        for j in range(m - 1, i - 1, -1):
            num, den = prefix[j + 1] - pi, j - i + 1
            if num * rd > rn * den:
                rn, rd = num, den
            if rn * lengths[j] > sums[j] * rd:
                sums[j], lengths[j] = rn, rd
    return sums, lengths


def maximal_profile(f: LatticeFunction) -> MaximalProfile:
    """The oracle profile, by :func:`_longest_windows` on the cleared |f| padded
    with one zero each side, the window [a-1, b+1] (dilution argument)."""
    if f.is_zero():
        raise ValueError("maximal profile of the zero function is undefined")
    a, b = f.support_min(), f.support_max()
    c, u = _cleared(f)
    sums, lengths = _longest_windows([0, *u, 0])
    values = tuple(map(Fraction, sums, [c * n for n in lengths]))
    return MaximalProfile(f, (a, b), (a - 1, b + 1), values, True)


def _hull_links(points: Sequence[tuple[int, int]], order: Iterable[int]) -> list[int]:
    """Links of the monotone chain over ``points`` visited in ``order``.

    Each point is pushed after popping every stacked point where the chain
    does not turn counterclockwise, collinear ones included, and links to
    the stack top below it (-1 for the first).  In rising x the links are
    ``pred``, left neighbours on the lower hull of the points so far; in
    falling x ``succ``, right neighbours on the upper hull.  Following them
    from any point walks the hull of the points visited up to it.
    """
    links = [-1] * len(points)
    hull = [-1]                             # below the first point: its link
    for i in order:
        x, y = points[i]
        while len(hull) > 2:
            x0, y0 = points[hull[-2]]
            if (x1 - x0) * (y - y1) > (y1 - y0) * (x - x1):
                break                       # a counterclockwise turn: a vertex
            hull.pop()
            x1, y1 = x0, y0
        links[i] = hull[-1]
        hull.append(i)
        x1, y1 = x, y                       # the stack top
    return links


def _bridges(left: Sequence[tuple[int, int]], right: Sequence[tuple[int, int]],
             pred: list[int], succ: list[int],
             pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """(rise, run) of the steepest segment from a point of ``left`` up to p to
    a point of ``right`` from q on, for each start pair (p, q) in turn.

    It is the bridge between the lower hull of those left points, walked
    along ``pred``, and the upper hull of those right points, walked along
    ``succ``: the line through it has every left point on or above it and
    every right point on or below it.  The walk moves p along its hull (left,
    or back right over the vertices it passed) and q along its hull while
    the slope strictly increases; slope along a convex chain seen from a
    point beyond it is unimodal, so when neither end can move both are
    tangent.  All comparisons are integer cross-multiplications.
    """
    bridges: list[tuple[int, int]] = []
    for p, q in pairs:
        xp, yp = left[p]
        xq, yq = right[q]
        num, den = yq - yp, xq - xp
        passed_p: list[int] = []            # hull vertices right of p
        passed_q: list[int] = []            # hull vertices left of q
        first = True
        while True:
            moved = False
            a = pred[p]
            while a >= 0:
                xa, ya = left[a]
                if (yq - ya) * den <= num * (xq - xa):
                    break
                passed_p.append(p)
                p, num, den = a, yq - ya, xq - xa
                a = pred[a]
                moved = True
            if not moved:
                while passed_p:
                    a = passed_p[-1]
                    xa, ya = left[a]
                    if (yq - ya) * den <= num * (xq - xa):
                        break
                    passed_p.pop()
                    p, num, den = a, yq - ya, xq - xa
                    moved = True
            if not (moved or first):
                break                       # q was tangent already, now p is too
            first = False
            xp, yp = left[p]
            moved = False
            b = succ[q]
            while b >= 0:
                xb, yb = right[b]
                if (yb - yp) * den <= num * (xb - xp):
                    break
                passed_q.append(q)
                q, num, den = b, yb - yp, xb - xp
                b = succ[b]
                moved = True
            if not moved:
                while passed_q:
                    b = passed_q[-1]
                    xb, yb = right[b]
                    if (yb - yp) * den <= num * (xb - xp):
                        break
                    passed_q.pop()
                    q, num, den = b, yb - yp, xb - xp
                    moved = True
            if not moved:
                break                       # p was tangent already, now q is too
            xq, yq = right[q]
        bridges.append((num, den))
    return bridges


def window_maxima(u: list[int]) -> tuple[list[int], list[int]]:
    """Best window average at every position of a nonnegative integer block.

    Returns (numerators, window lengths): position t of ``u`` gets the
    largest sum(u[i..j]) / (j - i + 1) over windows i <= t <= j inside the
    block.  With P the prefix sums, that is the steepest segment from a
    point (i, P_i), i <= t, to a point (j, P_j), j >= t + 1: the bridge of
    :func:`_bridges` from the start pair (t, t + 1).  On ties the walk may
    end on any maximizing window, so only the ratio, not the (numerator,
    length) pair, is determined.  A negative entry raises ValueError.
    """
    if min(u, default=0) < 0:
        raise ValueError("window_maxima needs a block of nonnegative integers")
    m = len(u)
    points = list(enumerate(accumulate(u, initial=0)))
    pred = _hull_links(points, range(m + 1))
    succ = _hull_links(points, range(m, -1, -1))
    bridges = _bridges(points, points, pred, succ, zip(range(m), range(1, m + 1)))
    return [num for num, _ in bridges], [den for _, den in bridges]


def set_maxima(elements: Sequence[int]) -> tuple[list[int], list[int]]:
    """M chi_A on [min A - 1, max A + 1] from the runs of A, exactly.

    ``elements`` are the sorted elements of a nonempty set A; anything else
    raises ValueError.  The result has the contract of
    :func:`window_maxima` on the 0/1 block of A padded with one zero each
    side: (numerators, window lengths), equal ratios, possibly other
    windows on ties.

    A window holding a point t outside A averages below 1, so dropping a
    zero end or extending an end through a run of ones never lowers it.
    Hence M chi_A = 1/1 on A, and at a gap point t the best window starts
    at t or at the first point s_p of a run left of t and ends at t or at
    the last point e_q of a run right of t.  With C_p the number of
    elements before run p, take the left points (s_p, C_p) and the right
    points (e_q + 1, C_{q+1}); a window's average is the slope between its
    two points.  :func:`_hull_links` builds the lower hull of the left
    points (``pred``) and the upper hull of the right points (``succ``).
    For t in the gap before run g,

        M(t) = max(G_g, L_g(t), R_g(t)),

    * G_g, the best window over both ends of the gap, is the bridge between
      the lower hull of the left points p < g and the upper hull of the
      right points q >= g, found once per gap by :func:`_bridges`;
    * L_g(t) = max_{p < g} (C_g - C_p) / (t + 1 - s_p), the tangent from
      (t + 1, C_g) to the lower hull, whose vertex only moves left along
      ``pred`` as t rises;
    * R_g(t) = max_{q >= g} (C_{q+1} - C_g) / (e_q + 1 - t), the tangent
      from (t, C_g) to the upper hull, whose vertex only moves right along
      ``succ`` as t falls.

    L_g falls and R_g rises across the gap, so the gap is filled from both
    ends, each end taking the larger tangent, until G_g is at least both
    and fills the rest.  A gap of one point t takes G_g's own pair: the
    window of L_g(t) averages below 1 and can take in the element t + 1,
    which raises its average, so L_g(t) < G_g, and R_g(t) < G_g likewise.
    The edges min A - 1 and max A + 1 are gaps with one side each: a
    virtual left point (max A + 2, |A|) and a virtual right point
    (min A - 1, 0) make their values tangents too.  The L_g walk
    passes only vertices that the left point of run g removes from the
    lower hull, and the R_g walk only vertices that the right point of run
    g - 1 removes from the upper hull, so the tangents cost O(1) amortized
    per point.  The bridge walks are bounded like those of
    :func:`window_maxima`, once per gap instead of once per point.
    """
    return _set_kernel(elements)[:2]


def _set_kernel(elements: Sequence[int]) -> tuple:
    """:func:`set_maxima`, and the run hulls it walks: (numerators, window
    lengths, left points, ``pred``, right points, ``succ``)."""
    n = len(elements)
    if not n:
        raise ValueError("set_maxima needs a nonempty set's elements in increasing order")
    lo, hi = elements[0] - 1, elements[-1] + 1
    # Run p starts at left[p][0] and ends before right[p + 1][0], and holds
    # left[p + 1][1] - left[p][1] elements, for p in 0 .. r - 1; left[r] and
    # right[0] are the virtual points.  The gap before run g is
    # [right[g][0], left[g][0]).  One loop finds the breaks between runs and
    # checks the order; the point hi + 1 past the end adds left[r] and right[r].
    left, right = list([(lo + 1, 0)]), list([(lo, 0)])
    j, prev = 0, lo + 1
    for x in [*elements[1:], hi + 1]:
        j += 1
        if x != prev + 1:
            if x <= prev:
                raise ValueError("set_maxima needs a nonempty set's elements in increasing order")
            left.append((x, j))
            right.append((prev + 1, j))
        prev = x
    r = len(left) - 1
    pred = _hull_links(left, range(r + 1))
    succ = _hull_links(right, range(r, -1, -1))

    m = hi - lo + 1
    best_num = [1] * m
    best_den = [1] * m
    xq, yq = right[succ[0]]
    best_num[0], best_den[0] = yq, xq - lo
    xp, yp = left[pred[r]]
    best_num[-1], best_den[-1] = n - yp, hi + 1 - xp
    bridges = _bridges(left, right, pred, succ, zip(range(r - 1), range(2, r + 1)))
    for g, (gn, gd) in enumerate(bridges, 1):
        end, c = left[g]
        first = right[g][0]
        if end - first == 1:                # one point: G (see set_maxima)
            best_num[first - lo], best_den[first - lo] = gn, gd
            continue

        # L falls and R rises across the gap, so with i rising from the left
        # and j falling from the right, the larger of L(i) and R(j) is the
        # value at its own point, and once G is at least both, G is the
        # value everywhere between.
        i, j, stepped = first, end - 1, 0  # which end stepped last: 1 i, 2 j
        a, (xp, yp) = pred[g - 1], left[g - 1]
        b, (xq, yq) = succ[g + 1], right[g + 1]
        while i <= j:
            if stepped != 2:                # L(i): walk to the tangent
                ln, ld = c - yp, i + 1 - xp
                while a >= 0:
                    xa, ya = left[a]
                    if (c - ya) * ld <= ln * (i + 1 - xa):
                        break
                    xp, yp, ln, ld = xa, ya, c - ya, i + 1 - xa
                    a = pred[a]
            if stepped != 1:                # R(j): walk to the tangent
                rn, rd = yq - c, xq - j
                while b >= 0:
                    xb, yb = right[b]
                    if (yb - c) * rd <= rn * (xb - j):
                        break
                    xq, yq, rn, rd = xb, yb, yb - c, xb - j
                    b = succ[b]
            if ln * rd >= rn * ld:
                if gn * ld >= ln * gd:
                    break
                best_num[i - lo], best_den[i - lo] = ln, ld
                i, stepped = i + 1, 1
            else:
                if gn * rd >= rn * gd:
                    break
                best_num[j - lo], best_den[j - lo] = rn, rd
                j, stepped = j - 1, 2
        if i <= j:
            best_num[i - lo:j - lo + 1] = [gn] * (j - i + 1)
            best_den[i - lo:j - lo + 1] = [gd] * (j - i + 1)
    return best_num, best_den, left, pred, right, succ


def _tail_chain(first: int, hull: list[tuple[int, int]]) -> tuple[list[int], list[tuple[int, int]]]:
    """A tail as hyperbola pieces (starts, [(i, c)]): piece t is c / (n + 1 - i)
    on [starts[t], starts[t + 1]), the last one without end.  ``hull`` lists
    the vertices (i, c) the maximiser visits as n rises from ``first``; one
    after (i1, c1) wins strictly once n + 1 > (c i1 - c1 i) / (c - c1)."""
    starts, pieces = [first], hull[:1]
    for i, c in hull[1:]:
        i1, c1 = pieces[-1]
        start = max(first, (c * i1 - c1 * i) // (c - c1))
        if start == starts[-1]:             # the previous piece holds no integer point
            pieces[-1] = (i, c)
        else:
            starts.append(start)
            pieces.append((i, c))
    return starts, pieces


def _walk(points: Sequence[tuple[int, int]], links: list[int], h: int):
    while h >= 0:
        yield points[h]
        h = links[h]


def _set_tails(elements: Sequence[int]) -> tuple:
    """(numerators, lengths, right tail, reflected left tail) of M chi_A: the
    :func:`set_maxima` profile, and both :func:`_tail_chain` walks of the run
    hulls it builds.  Past b = max A the best window is [s_p, n] for a run
    start s_p: the tangent from (n + 1, |A|) to the lower hull of the left
    points (s_p, C_p), walked along ``pred`` from the virtual point
    (b + 2, |A|), so i = s_p and c = |A| - C_p.  Before A it is [n, e_q] for
    a run end e_q, off the upper hull of the right points (e_q + 1, C_{q+1})
    along ``succ`` from (min A - 1, 0); reflected, as M chi_A(n) =
    M chi_{-A}(-n), i = -e_q and c = C_{q+1}.  A vertex that only ties,
    collinear with the virtual point, is off the hull."""
    nums, dens, left, pred, right, succ = _set_kernel(elements)
    count = len(elements)
    return (nums, dens,
            _tail_chain(elements[-1] + 1, [(x, count - y) for x, y in _walk(left, pred, pred[-1])]),
            _tail_chain(1 - elements[0], [(1 - x, y) for x, y in _walk(right, succ, succ[0])]))


def _tail_points(tail, first: int, last: int) -> tuple[list[int], list[int]]:
    """(numerators, denominators) of a :func:`_set_tails` tail at first .. last."""
    starts, pieces = tail
    nums, dens = [], []
    for n in range(first, last + 1):
        i, c = pieces[bisect_right(starts, n) - 1]
        nums.append(c)
        dens.append(n + 1 - i)
    return nums, dens


def maximal_profile_fast(f: LatticeFunction) -> MaximalProfile:
    """Bit-identical to :func:`maximal_profile`, by :func:`window_maxima`.

    The denominator-cleared |f| is padded with one zero on each side, so the
    block covers the window [a-1, b+1]; by the dilution argument every
    maximizing window at those points lies inside it.  Near-linear in the
    window width, against the oracle's quadratic cost.
    """
    if f.is_zero():
        raise ValueError("maximal profile of the zero function is undefined")
    a = f.support_min()
    b = f.support_max()
    c, u = _cleared(f)
    best_num, best_den = window_maxima([0] + u + [0])
    values = tuple(Fraction(bn, bd * c) for bn, bd in zip(best_num, best_den))
    return MaximalProfile(f, (a, b), (a - 1, b + 1), values, True)
