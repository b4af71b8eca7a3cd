"""Convexity decomposition and second-difference norms, with exact tails.

Everything here works on a window [lo, hi] of integers v = D * g, exact
values of a function g scaled by a common denominator D, with the
guarantee that every point at or beyond the window edges is convex and
that consecutive differences vanish at +-infinity.  A point n is convex
(class ``plus``) when

    g(n+1) + g(n-1) >= 2 g(n),

concave (``minus``) otherwise; ties are convex.  Writing c2 for the centered
second difference and D(n) = g(n+1) - g(n), the guarantee makes both
infinite tails of sum |c2| telescoping sums of one-signed terms:

    sum_{n <= lo} |c2(n)| = D(lo) - lim_{n -> -inf} D(n) = g(lo+1) - g(lo),
    sum_{n >= hi} |c2(n)| = lim_{n -> +inf} D(n) - D(hi-1) = g(hi-1) - g(hi),

so the full series sum_{n in Z} |c2(n)| is the finite interior sum plus two
exact closed-form tail terms; no truncation error anywhere.  The same
telescoping evaluates the total variation of a maximal profile: the tails
are monotone, so each contributes the window-edge value itself.

On any integer window the interior c2 telescope to D(hi-1) - D(lo), which
is minus the two tail terms, so the interior sum of |c2| plus both tails is
-2 sum_{concave} c2: the norm is read off the concave points.  The identity
needs no guarantee (which only makes it the norm over Z), so a window with
a negative tail term, which sends a set to the oracle audit, gets the same
number as the direct sum.

Two kinds of window carry the guarantee: a finitely supported function on
[min - 2, max + 2] of its support (zero tails are convex, with ties
counting as convex), and a maximal profile on [min - 1, max + 1]
(hyperbola-envelope tails, see :mod:`maxreg.maximal`).  One integer pass,
:func:`_convexity`, reads the norm, differences and classes off either;
:func:`second_norm`, :func:`funeq_rhs` and :func:`decompose` run it on a
given profile, as :class:`AnalyzedFunction`; the last two add the boundary
sum, which is the norm again (:func:`_boundary_sum`).

The two headline facts checked over index sets A, stated here once and
referred to by number throughout the API and reports:

* Theorem 1: the second-difference l1 norm of the maximal function of an
  indicator is at most three times that of the indicator itself.
* Lemma 1: the maximal function of an indicator is concave only at points
  of the set.

Both are checked on index sets by one battery of integer tests, :func:`_gate`,
on the pass of a set's profile.  A set sweep runs only the pass and the gate
(:func:`_check_set`), the exhaustive one only on sets its lanes send on
(:mod:`maxreg.lanes`); :func:`analyze` adds what reports and violations read,
as one :class:`Analysis`, built in a sweep only for a set that fails a test.
The function sweep's check, :func:`_check_function`, runs the same pass on
each draw and on its profile and tests Var(M f) <= Var(f).  No check compares
two sums equal by construction.  Every :class:`Violation` is built here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import lcm
from operator import mul, sub
from typing import Iterator, NamedTuple, Sequence

from .lattice import IndexSet, LatticeFunction
from .maximal import MaximalProfile, maximal_profile, set_maxima, window_maxima

PLUS = "plus"
MINUS = "minus"

__all__ = [
    "PLUS",
    "MINUS",
    "RatioRecord",
    "Violation",
    "Analysis",
    "analyze",
    "audit_profile",
    "lemma1_violations",
    "theorem1_report",
    "first_derivative_norms",
]


# ---------------------------------------------------------------------------
# The integer pass
# ---------------------------------------------------------------------------

def _scaled(nums: list[int], dens: list[int]) -> tuple[int, list[int]]:
    """(D, D * nums[i] / dens[i] at each i), D the lcm of ``dens``: a profile kernel's
    (numerators, window lengths) over one denominator, one D // L per distinct length L."""
    lengths = set(dens)
    d = lcm(*lengths)
    quotient = {length: d // length for length in lengths}
    return d, list(map(mul, nums, map(quotient.__getitem__, dens)))


def _convexity(v: Sequence[int]) -> tuple:
    """(second norm, first differences, c2, concave) of a guaranteed window ``v``
    (module docstring), in the units of ``v`` and positions 0 .. len(v) - 1.

    c2 (at 1 .. len(v) - 2) comes from the first differences, and the tails are
    ``first[0]`` and ``-first[-1]``.  The norm, sum |c2| plus both tails, is -2 sum_{concave}
    c2 (module docstring), whatever the tails' sign.  Both edges are convex.
    """
    first = list(map(sub, v[1:], v))
    second = list(map(sub, first[1:], first))
    concave = [False, *map((0).__gt__, second), False]     # the class at each position
    return -2 * sum(compress(second, concave[1:])), first, second, concave


def _positions(concave: list[bool]) -> tuple[list[int], list[int], list[int]]:
    """(concave points, left boundary, right boundary) from the flags of a pass: a concave
    point is in the left (right) boundary when its left (right) neighbour is convex."""
    minus = list(compress(range(len(concave)), concave))
    return minus, [i for i in minus if not concave[i - 1]], [i for i in minus if not concave[i + 1]]


def _variation(v: Sequence[int], first: list[int]) -> int:
    """Var over Z of a window ``v`` whose tails fall monotonely to 0: v(1), v(-2), |v'| between."""
    return v[1] + sum(map(abs, first[1:-1])) + v[-2]


def _shifted(lo: int, positions: list[int]) -> tuple[int, ...]:
    """The points lo + i of a window's positions i."""
    return tuple([lo + i for i in positions])


class AnalyzedFunction(NamedTuple):
    """A maximal profile on its window in integers: ``scaled[i]`` is D * M f(lo + i),
    D = ``denominator``.  The benchmark's per-layer probes time the three
    functions below on one profile per set."""

    lo: int
    denominator: int
    scaled: tuple[int, ...]

    @classmethod
    def from_profile(cls, p: MaximalProfile) -> "AnalyzedFunction":
        if not p.tail_guarantee:
            raise ValueError("profile lacks the tail guarantee")
        d, v = _scaled(*zip(*[x.as_integer_ratio() for x in p.values]))
        return cls(p.window[0], d, tuple(v))


def second_norm(g: AnalyzedFunction) -> Fraction:
    """sum over all of Z of |g(n+1) + g(n-1) - 2 g(n)|, both tails included."""
    return Fraction(_convexity(g.scaled)[0], g.denominator)


def _boundary_sum(p: tuple) -> int:
    """2 sum_{left} (v(i) - v(i-1)) + 2 sum_{right} (v(i) - v(i+1)) of a :func:`_convexity`
    pass ``p`` of ``v``: its norm, as a concave run [l, r] has c2 summing to first[r] -
    first[l-1]; no contract compares the two."""
    _, first, _, concave = p
    _, left, right = _positions(concave)
    return 2 * (sum([first[i - 1] for i in left]) - sum([first[i] for i in right]))


def funeq_rhs(g: AnalyzedFunction) -> Fraction:
    """The boundary bound; it equals :func:`second_norm`."""
    return Fraction(_boundary_sum(_convexity(g.scaled)), g.denominator)


def decompose(g: AnalyzedFunction) -> tuple[IndexSet, IndexSet, IndexSet, Fraction, Fraction]:
    """(concave points, left boundary, right boundary, second norm, boundary bound)."""
    p = _convexity(g.scaled)
    return (*[IndexSet(_shifted(g.lo, s)) for s in _positions(p[3])],
            *[Fraction(x, g.denominator) for x in (p[0], _boundary_sum(p))])


# ---------------------------------------------------------------------------
# Headline checks on index sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatioRecord:
    """Second-difference norms of one indicator and its maximal function."""

    set: IndexSet
    chi_second_norm: Fraction
    max_second_norm: Fraction
    ratio: Fraction


@dataclass(frozen=True)
class Violation:
    """A failed contract, with the instance serialized in full."""

    kind: str
    subject: dict
    details: dict


def audit_profile(d: int, v: Sequence[int], f: LatticeFunction,
                  subject: dict) -> list[Violation]:
    """Check a kernel profile ``v`` = D * M f on [a-1, b+1], D = ``d``, against the
    oracle profile of ``f`` in integers, p/q as ``v[i] * q == p * d``: a
    ``[fast_path_divergence]`` carrying both profiles if they differ in length or at
    a point, else ``[tail_guarantee]`` if an edge value exceeds its inner neighbour,
    which the hyperbola tails of :mod:`maxreg.maximal` rule out, else ``[]``.
    Callers put the result first in their violations."""
    oracle = maximal_profile(f).values
    if len(v) != len(oracle) or any(x * p.denominator != p.numerator * d
                                    for x, p in zip(v, oracle)):
        return [Violation("fast_path_divergence", subject,
                          {"fast_profile": [str(Fraction(x, d)) for x in v],
                           "oracle_profile": [str(p) for p in oracle]})]
    if v[1] < v[0] or v[-2] < v[-1]:
        return [Violation("tail_guarantee", subject,
                          {"profile_values": [str(Fraction(x, d)) for x in v]})]
    return []


class Analysis(NamedTuple):
    """Everything the checks read about M chi_A, computed once, in integers.

    The window is [lo, hi] = [min A - 1, max A + 1].  ``denominator`` D is
    a common denominator of M chi_A there.  In :func:`analyze` it is the lcm
    of the window lengths the profile kernel returned for this set, so it
    depends on how the kernel breaks ties and only the rationals it scales
    are fixed.  For every set of :func:`~maxreg.search.exhaustive` (L) it is
    D_L = lcm(1, ..., L + 2) < 2^35 (:func:`~maxreg.search._sweep_tables`).
    ``scaled[i]`` is D * M chi_A(lo + i).  Fields marked "over D" are
    integers standing for themselves divided by D, so every sum and every
    contract comparison runs on `int`.  The indicator norms are exact counts
    of the maximal runs ("blocks") of A: ||chi''||_1 = 4 * blocks and
    ||chi'||_1 = 2 * blocks.  `Fraction`s are built only by the methods, for
    records, reports and violation details.

    ``second_norm`` to ``concave`` are the pass :func:`_gate` reads.  The concave points and
    both boundaries are positions i (the point lo + i), with read-only point views
    ``s_minus``, ``left_boundary``, ``right_boundary`` and ``lemma1_violations``.
    """

    set: IndexSet
    lo: int
    hi: int
    denominator: int
    scaled: tuple[int, ...]
    second_norm: int                    # over D: ||(M chi)''||_1, tails included
    first: list[int]                    # over D: v(i+1) - v(i) at lo .. hi-1
    second: tuple[int, ...]             # over D: c2 at lo+1 .. hi-1
    concave: list[bool]                 # the class at each position
    minus: list[int]                    # positions of the concave points
    left: list[int]                     # positions of the left boundary
    right: list[int]                    # positions of the right boundary
    chi_second_norm: int
    chi_first_norm: int
    variation: int                      # over D: ||(M chi)'||_1

    # The point views of the positions, built on each read.
    s_minus = property(lambda self: _shifted(self.lo, self.minus))
    left_boundary = property(lambda self: _shifted(self.lo, self.left))
    right_boundary = property(lambda self: _shifted(self.lo, self.right))
    lemma1_violations = property(lambda self: _shifted(self.lo, [      # concave points outside A
        i for i in self.minus if self.scaled[i] != self.denominator]))

    def fraction(self, over_d: int) -> Fraction:
        """The rational number an over-D integer stands for."""
        return Fraction(over_d, self.denominator)

    def profile_values(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(v, self.denominator) for v in self.scaled])

    def chain_bounds(self) -> Iterator[tuple[str, int, int]]:
        """(kind, start, end) of the maximal same-class runs covering [lo, hi]:
        both edges are convex, and a concave run goes from a left boundary to a right one."""
        lo = start = self.lo
        for left, right in zip(self.left, self.right):
            yield PLUS, start, lo + left - 1
            yield MINUS, lo + left, lo + right
            start = lo + right + 1
        yield PLUS, start, self.hi

    def ratio_record(self) -> RatioRecord:
        d = self.denominator
        return RatioRecord(self.set, Fraction(self.chi_second_norm),
                           Fraction(self.second_norm, d),
                           Fraction(self.second_norm, d * self.chi_second_norm))

    def violations(self, spot_check: bool = False) -> list[Violation]:
        """The set-level contract battery, in a fixed order; empty if all hold.

        First the audit of ``scaled`` against the oracle profile
        :func:`~maxreg.maximal.maximal_profile`, in integers (:func:`audit_profile`), run when
        ``spot_check`` is set and whenever a tail term is negative, which a
        correct kernel cannot give.  Then Theorem 1 ratio <= 3, Lemma 1, and
        the variation of M chi_A not exceeding ||chi'||_1.  Each test runs once,
        in :func:`_gate`; details are built only for the contracts that fail.
        No identity is tested: the boundary sum is the second norm
        (:func:`_boundary_sum`), and ||chi''||_1 = 4 * blocks >= 4.
        """
        audit, theorem1, lemma1, first = _gate(spot_check, self.denominator, self.scaled,
                                               self.chi_first_norm // 2, self[5:9], self.variation)
        subject = {"set": list(self.set.elements)}
        out: list[Violation] = []
        if audit:
            out = audit_profile(*self[3:5], LatticeFunction.from_set(self.set), subject)
        if theorem1:
            record = self.ratio_record()
            out.append(Violation("theorem1_ratio", subject, {
                "chi_second_norm": str(record.chi_second_norm),
                "max_second_norm": str(record.max_second_norm),
                "ratio": str(record.ratio),
            }))
        if lemma1:
            out.append(Violation("lemma1_concavity", subject, {
                "concave_points_outside_set": list(self.lemma1_violations),
                "profile_values": [str(x) for x in self.profile_values()],
            }))
        if first:
            out.append(Violation("first_derivative_bound", subject, {
                "chi_first_norm": str(self.chi_first_norm),
                "max_first_variation": str(self.fraction(self.variation)),
            }))
        return out


def analyze(a: IndexSet) -> Analysis:
    """Analyze the maximal function of the indicator of ``a`` in one pass.

    The profile comes from the runs of ``a`` by
    :func:`~maxreg.maximal.set_maxima`; the O(m^2) oracle
    :func:`~maxreg.maximal.maximal_profile` audits it, in integers over D, in the
    sweeps' spot checks, in the tests, and wherever a tail term comes out
    negative (:meth:`Analysis.violations`).  Every field after the set comes from one
    pass (:func:`_analysis`).  A has one block (run) per element not right
    after another.
    """
    if not a:
        raise ValueError("analysis needs a nonempty set")
    elements = a.elements
    d, v = _scaled(*set_maxima(elements))
    blocks = len(elements) - list(map(sub, elements[1:], elements)).count(1)
    return _analysis(a, blocks, d, v, _convexity(v))


def _analysis(a: IndexSet, blocks: int, d: int, v: list[int], p: tuple) -> Analysis:
    """The :class:`Analysis` of ``a``, a set of ``blocks`` runs, from ``v`` = D * M chi_A
    on its window, D = ``d``, and the :func:`_convexity` pass ``p`` of ``v``."""
    norm, first, second, concave = p
    return Analysis(a, a.min() - 1, a.max() + 1, d, tuple(v), norm, first, tuple(second), concave,
                    *_positions(concave), 4 * blocks, 2 * blocks, _variation(v, first))


def _gate(spot_check: bool, d: int, v: Sequence[int], blocks: int, p: tuple,
          variation: int) -> tuple[bool, ...]:
    """Which set tests fail, (audit due, Theorem 1, Lemma 1, variation), on the pass ``p``
    of ``v`` = D * M chi_A, D = ``d``, for ``blocks`` runs and D * Var(M chi_A) ``variation``."""
    norm, first, _, concave = p
    return (spot_check or first[0] < 0 or first[-1] > 0,          # a negative tail term
            norm > 12 * blocks * d,                             # ratio over ||chi''||_1 > 3
            list(compress(v, concave)).count(d) != concave.count(True),     # concave, M < 1
            variation > 2 * blocks * d)


def _check_set(elements: Sequence[int], blocks: int, d: int, v: list[int],
               spot_check: bool) -> tuple[int, list[Violation]]:
    """(second norm over D, violations) of a swept set; its Analysis is built if _gate fires."""
    p = _convexity(v)
    variation = v[1] + sum(map(abs, p[1][1:-1])) + v[-2]     # _variation, inlined: once per set
    if True in _gate(spot_check, d, v, blocks, p, variation):
        return p[0], _analysis(IndexSet(elements), blocks, d, v, p).violations(spot_check)
    return p[0], []


def _audit_mirror(elements: Sequence[int], mirror: Sequence[int], d: int,
                  quotients: Sequence[int]) -> list[Violation]:
    """Oracle audit of the set of ``elements``, 0 its least, skipped by a sweep for its
    reflection ``mirror``: the mirror's kernel profile over D = ``d`` (``quotients[n]``
    = D // n), read backwards, must be the set's oracle profile.  This also audits the
    reflection shortcut."""
    nums, dens = set_maxima(mirror)
    chi = [Fraction(0)] * (elements[-1] + 1)
    for x in elements:
        chi[x] = Fraction(1)
    return audit_profile(d, list(map(mul, nums, map(quotients.__getitem__, dens)))[::-1],
                         LatticeFunction(0, tuple(chi)), {"set": list(elements)})


def _integer_passes(ints: list[int]) -> tuple[tuple, int, list[int], tuple]:
    """The integer pass :func:`_convexity` on a trimmed nonzero integer
    function on [a, b] over [a - 2, b + 2], and on D * M f over [a - 1, b + 1]:
    (source pass, D, D * M f, maximal pass).  M f is the best window average
    of |f| (:func:`~maxreg.maximal.window_maxima`), padded with one zero each
    side, and D the lcm of the window lengths."""
    d, v = _scaled(*window_maxima([0, *map(abs, ints), 0]))
    return _convexity([0, 0, *ints, 0, 0]), d, v, _convexity(v)


def _check_function(values: Sequence[int], spot_check: bool,
                    ) -> tuple[tuple | None, list[Violation]]:
    """The variation bound and the norm ratio for one integer-valued draw.

    The nonzero draw is trimmed to its nonzero span [a, b].  The contract is
    Var(M f) <= Var(f) (Bober, Carneiro, Hughes & Pierce 2012), the set battery's
    ``first_derivative_bound``, Var(f) summed over the padded draw and Var(M f) by
    :func:`_variation`.  The ratio is only recorded.  With
    ``spot_check``, or when a tail term of the profile is negative, the profile
    is also audited against the oracle (:func:`audit_profile`) and the result
    comes first; a negative tail leaves the profile without its tail
    guarantee, so the bound is not checked and no winner is returned.  A winner
    is (norm over D, D * source norm, offset, values, D), as the function sweep
    compares and records it.
    """
    nonzero = [i for i, x in enumerate(values) if x]
    offset = nonzero[0]
    ints = list(values[offset:nonzero[-1] + 1])
    source, d, v, maximal = _integer_passes(ints)
    max_norm, max_first = maximal[:2]

    def subject() -> dict:
        return {"offset": offset, "values": [str(x) for x in ints]}

    violations: list[Violation] = []
    negative_tail = max_first[0] < 0 or max_first[-1] > 0
    if spot_check or negative_tail:
        violations = audit_profile(d, v, LatticeFunction.make(offset, ints), subject())
    if negative_tail:
        return None, violations
    source_variation = sum(map(abs, source[1]))
    variation = _variation(v, max_first)
    if variation > d * source_variation:
        violations.append(Violation("first_derivative_bound", subject(), {
            "source_first_variation": str(source_variation),
            "max_first_variation": str(Fraction(variation, d)),
        }))
    return (max_norm, d * source[0], offset, tuple(ints), d), violations


def theorem1_report(a: IndexSet) -> RatioRecord:
    """Norms and ratio for Theorem 1 on one finite nonempty set.

    Contract: ratio <= 3, exactly.
    """
    return analyze(a).ratio_record()


def lemma1_violations(a: IndexSet) -> IndexSet:
    """Concave points of the maximal function lying outside the set.

    Contract (Lemma 1): always empty.  The scan window is finite because
    the hyperbola tails force convexity outside the support hull.
    """
    return IndexSet(analyze(a).lemma1_violations)


def first_derivative_norms(a: IndexSet) -> tuple[Fraction, Fraction]:
    """(first-difference l1 norm of the indicator, total variation of its
    maximal function); contract: the second never exceeds the first.

    The variation tails are monotone with limits 0, so they telescope to the
    hull-edge values: total = M(a) + sum_{[a, b)} |D| + M(b).
    """
    an = analyze(a)
    return Fraction(an.chi_first_norm), an.fraction(an.variation)
