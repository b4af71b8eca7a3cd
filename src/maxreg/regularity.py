"""Convexity decomposition and second-difference norms, with exact tails.

Everything here works on an :class:`AnalyzedFunction`: exact values on a
finite window [lo, hi] plus the guarantee (``outside_class``) that every
point at or beyond the window edges is convex and that consecutive
differences vanish at +-infinity.  A point n is convex (class ``plus``) when

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

Two guaranteed constructions are provided: any finitely supported lattice
function (zero tails are convex, with ties counting as convex), and any
maximal profile (hyperbola-envelope tails, see :mod:`maxreg.maximal`).

The two headline facts checked over index sets A, stated here once and
referred to by number throughout the API and reports:

* Theorem 1: the second-difference l1 norm of the maximal function of an
  indicator is at most three times that of the indicator itself.
* Lemma 1: the maximal function of an indicator is concave only at points
  of the set.

Both are checked on index sets through :func:`analyze`, which computes the
profile, classes, boundaries, norms and contract quantities of one set in a
single pass over integers scaled to a common denominator.  The sweeps, the
per-set report and the headline functions below all read that one
:class:`Analysis`; the `Fraction` functions on :class:`AnalyzedFunction`
serve general functions and cross-check it in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterator, NamedTuple

from .lattice import IndexSet, LatticeFunction, central_second_difference
from .maximal import MaximalProfile, maximal_profile, window_maxima

PLUS = "plus"
MINUS = "minus"

__all__ = [
    "PLUS",
    "MINUS",
    "AnalyzedFunction",
    "Chain",
    "DecompositionReport",
    "RatioRecord",
    "Violation",
    "Analysis",
    "analyze",
    "audit_profile",
    "classify",
    "boundaries",
    "chains",
    "chain_sum_check",
    "second_norm",
    "funeq_rhs",
    "decompose",
    "lemma1_violations",
    "theorem1_report",
    "first_derivative_norms",
]


# ---------------------------------------------------------------------------
# Analyzed window
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalyzedFunction:
    """Exact values on [lo, hi] with certified convex, flat-difference tails.

    ``outside_class`` certifies: every n <= lo and every n >= hi is convex,
    and g(n+1) - g(n) -> 0 as n -> +-inf.  All concave points therefore lie
    in the interior [lo+1, hi-1], where the second difference is computable
    from stored values alone.
    """

    lo: int
    hi: int
    values: tuple[Fraction, ...]
    outside_class: bool

    def value_at(self, n: int) -> Fraction:
        if not self.lo <= n <= self.hi:
            raise ValueError(f"n={n} outside analyzed window [{self.lo}, {self.hi}]")
        return self.values[n - self.lo]

    def second_difference(self, n: int) -> Fraction:
        """g(n+1) + g(n-1) - 2 g(n); defined on the interior only."""
        if not self.lo + 1 <= n <= self.hi - 1:
            raise ValueError(f"second difference at n={n} needs values outside the window")
        i = n - self.lo
        return self.values[i + 1] + self.values[i - 1] - 2 * self.values[i]

    @classmethod
    def from_lattice(cls, f: LatticeFunction,
                     lo: int | None = None, hi: int | None = None) -> "AnalyzedFunction":
        """Analyze a finitely supported function on [lo, hi].

        Defaults to [min-2, max+2], which is valid for every f: beyond it the
        second difference vanishes identically.  A custom window is accepted
        only if every point at or outside its edges is convex, which is
        checked exactly here (finitely many candidates can fail).
        """
        if f.is_zero():
            window_lo = -1 if lo is None else lo
            window_hi = 1 if hi is None else hi
            if window_lo >= window_hi:
                raise ValueError("window must contain at least two points")
            n_points = window_hi - window_lo + 1
            return cls(window_lo, window_hi, (Fraction(0),) * n_points, True)
        a, b = f.support_min(), f.support_max()
        if lo is None:
            lo = a - 2
        if hi is None:
            hi = b + 2
        if lo > a - 1 or hi < b + 1:
            raise ValueError("window must cover the support hull with one-point margin")
        for n in list(range(a - 1, lo + 1)) + list(range(hi, b + 2)):
            if central_second_difference(f, n) < 0:
                raise ValueError(f"concave point n={n} at or outside window edge")
        values = tuple(f.value_at(n) for n in range(lo, hi + 1))
        return cls(lo, hi, values, True)

    @classmethod
    def from_profile(cls, p: MaximalProfile) -> "AnalyzedFunction":
        """Analyze a maximal profile on its window [a-1, b+1].

        The profile's tail guarantee is exactly the outside-class certificate:
        beyond the hull the profile is a convex monotone hyperbola envelope
        with vanishing differences.
        """
        if not p.tail_guarantee:
            raise ValueError("profile lacks the tail guarantee")
        return cls(p.window[0], p.window[1], p.values, True)


def classify(g: AnalyzedFunction, n: int) -> str:
    """``plus`` iff g(n+1) + g(n-1) >= 2 g(n); ties are convex."""
    if g.lo + 1 <= n <= g.hi - 1:
        return PLUS if g.second_difference(n) >= 0 else MINUS
    if g.outside_class:
        return PLUS
    raise ValueError(f"n={n} not classifiable without the outside-class guarantee")


# ---------------------------------------------------------------------------
# Boundaries and chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Chain:
    kind: str
    start: int
    end: int

    def __len__(self) -> int:
        return self.end - self.start + 1


def boundaries(g: AnalyzedFunction) -> tuple[IndexSet, IndexSet]:
    """(left, right) concave boundaries: concave points with a convex neighbor."""
    left = []
    right = []
    for n in range(g.lo + 1, g.hi):
        if classify(g, n) == MINUS:
            if classify(g, n - 1) == PLUS:
                left.append(n)
            if classify(g, n + 1) == PLUS:
                right.append(n)
    return IndexSet(tuple(left)), IndexSet(tuple(right))


def chains(g: AnalyzedFunction) -> list[Chain]:
    """Maximal runs of same-class points, covering [lo, hi] in order."""
    out: list[Chain] = []
    start = g.lo
    kind = classify(g, g.lo)
    for n in range(g.lo + 1, g.hi + 1):
        k = classify(g, n)
        if k != kind:
            out.append(Chain(kind, start, n - 1))
            start, kind = n, k
    out.append(Chain(kind, start, g.hi))
    return out


def chain_sum_check(g: AnalyzedFunction, chain: Chain) -> tuple[Fraction, Fraction]:
    """(lhs, rhs) of the telescoping identity for a same-class run.

    lhs is the sum of |c2| over the run; rhs collapses it to the four values
    flanking the run, with the sign fixed by the class.  The identity needs
    one stored point beyond each end of the run, so runs touching the window
    edges are rejected.
    """
    if chain.start > chain.end:
        raise ValueError("empty chain")
    if chain.start - 1 < g.lo or chain.end + 1 > g.hi:
        raise ValueError("chain does not have a one-point margin inside the window")
    for n in range(chain.start, chain.end + 1):
        if classify(g, n) != chain.kind:
            raise ValueError(f"point n={n} is not of class {chain.kind!r}")
    lhs = sum((abs(g.second_difference(n))
               for n in range(chain.start, chain.end + 1)), Fraction(0))
    rhs = (g.value_at(chain.start - 1) - g.value_at(chain.start)
           - g.value_at(chain.end) + g.value_at(chain.end + 1))
    if chain.kind == MINUS:
        rhs = -rhs
    return lhs, rhs


# ---------------------------------------------------------------------------
# Exact infinite sums
# ---------------------------------------------------------------------------

def second_norm(g: AnalyzedFunction) -> Fraction:
    """sum over all of Z of |g(n+1) + g(n-1) - 2 g(n)|, exactly.

    Interior terms are summed directly; each infinite tail is one-signed by
    the outside-class guarantee and telescopes to a single difference of
    window values (module docstring).
    """
    interior = sum((abs(g.second_difference(n))
                    for n in range(g.lo + 1, g.hi)), Fraction(0))
    left_tail = g.value_at(g.lo + 1) - g.value_at(g.lo)
    right_tail = g.value_at(g.hi - 1) - g.value_at(g.hi)
    if left_tail < 0 or right_tail < 0:
        raise RuntimeError("outside-class guarantee violated: negative tail sum")
    return interior + left_tail + right_tail


def funeq_rhs(g: AnalyzedFunction) -> Fraction:
    """Concave-boundary upper bound for :func:`second_norm`.

    2 sum_{n in left boundary} (g(n) - g(n-1))
    + 2 sum_{n in right boundary} (g(n) - g(n+1)).  The two limit terms of
    the general bound vanish exactly under the flat-difference guarantee and
    are omitted.  Contract: the result dominates ``second_norm(g)``.
    """
    left, right = boundaries(g)
    total = Fraction(0)
    for n in left:
        total += 2 * (g.value_at(n) - g.value_at(n - 1))
    for n in right:
        total += 2 * (g.value_at(n) - g.value_at(n + 1))
    return total


@dataclass(frozen=True)
class DecompositionReport:
    """Full convexity decomposition of one analyzed window."""

    s_minus: IndexSet
    left_boundary: IndexSet
    right_boundary: IndexSet
    chains: tuple[Chain, ...]
    funeq_rhs_value: Fraction
    second_norm: Fraction


def decompose(g: AnalyzedFunction) -> DecompositionReport:
    minus = tuple(n for n in range(g.lo + 1, g.hi) if classify(g, n) == MINUS)
    left, right = boundaries(g)
    return DecompositionReport(
        s_minus=IndexSet(minus),
        left_boundary=left,
        right_boundary=right,
        chains=tuple(chains(g)),
        funeq_rhs_value=funeq_rhs(g),
        second_norm=second_norm(g),
    )


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


def audit_profile(values: tuple[Fraction, ...], oracle: tuple[Fraction, ...],
                  subject: dict) -> list[Violation]:
    """Check a kernel profile on [a-1, b+1] against the oracle's profile.

    ``[fast_path_divergence]`` carrying both profiles if they differ;
    otherwise ``[tail_guarantee]`` if an edge value exceeds its inner
    neighbour, which the hyperbola tails of :mod:`maxreg.maximal` rule out;
    otherwise ``[]``.  Callers put the result first in their violations.
    """
    if values != oracle:
        return [Violation("fast_path_divergence", subject,
                          {"fast_profile": [str(v) for v in values],
                           "oracle_profile": [str(v) for v in oracle]})]
    if values[1] < values[0] or values[-2] < values[-1]:
        return [Violation("tail_guarantee", subject,
                          {"profile_values": [str(v) for v in values]})]
    return []


class Analysis(NamedTuple):
    """Everything the checks read about M chi_A, computed once, in integers.

    The window is [lo, hi] = [min A - 1, max A + 1].  ``denominator`` D is
    a common denominator of M chi_A there, the lcm of the window lengths
    the profile kernel returned; it depends on how the kernel breaks ties,
    so only the rationals it scales are fixed.  ``scaled[i]`` is
    D * M chi_A(lo + i).  Fields marked "over D" are integers standing for
    themselves divided by D, so every sum and every contract comparison
    runs on `int`.  The indicator norms are exact counts of the maximal
    runs ("blocks") of A: ||chi''||_1 = 4 * blocks and ||chi'||_1 =
    2 * blocks.  `Fraction`s are built only by the methods, for records,
    reports and violation details.

    A named tuple rather than a frozen dataclass: sweeps build one per set,
    and a tuple is several times cheaper to construct.
    """

    set: IndexSet
    lo: int
    hi: int
    denominator: int
    scaled: tuple[int, ...]
    second: tuple[int, ...]             # over D: c2 at lo+1 .. hi-1
    s_minus: tuple[int, ...]
    left_boundary: tuple[int, ...]
    right_boundary: tuple[int, ...]
    lemma1_violations: tuple[int, ...]  # concave points outside A
    chi_second_norm: int
    chi_first_norm: int
    left_tail: int                      # over D: sum of |c2| over n <= lo
    right_tail: int                     # over D: sum of |c2| over n >= hi
    second_norm: int                    # over D: ||(M chi)''||_1, tails included
    boundary_bound: int                 # over D: funeq_rhs of the profile
    variation: int                      # over D: ||(M chi)'||_1

    def fraction(self, over_d: int) -> Fraction:
        """The rational number an over-D integer stands for."""
        return Fraction(over_d, self.denominator)

    def profile_values(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(v, self.denominator) for v in self.scaled])

    def chain_bounds(self) -> Iterator[tuple[str, int, int]]:
        """(kind, start, end) of the maximal same-class runs covering [lo, hi]:
        both edges are convex, and a concave run goes from a left boundary to a right one."""
        start = self.lo
        for left, right in zip(self.left_boundary, self.right_boundary):
            yield PLUS, start, left - 1
            yield MINUS, left, right
            start = right + 1
        yield PLUS, start, self.hi

    def chains(self) -> tuple[Chain, ...]:
        """The runs of :meth:`chain_bounds`, as :class:`Chain` objects."""
        return tuple([Chain(*bounds) for bounds in self.chain_bounds()])

    def ratio_record(self) -> RatioRecord:
        d = self.denominator
        return RatioRecord(self.set, Fraction(self.chi_second_norm),
                           Fraction(self.second_norm, d),
                           Fraction(self.second_norm, d * self.chi_second_norm))

    def violations(self, oracle: tuple[Fraction, ...] | None = None,
                   ) -> list[Violation]:
        """The set-level contract battery, in a fixed order; empty if all hold.

        First the profile audit (:func:`audit_profile`) against ``oracle``,
        the naive profile, if given.  A negative tail term cannot come from
        a correct kernel, so it runs the audit with the oracle computed
        here.  Then Theorem 1 ratio <= 3, ||chi''||_1 >= 2, Lemma 1, the
        boundary bound dominating the second norm, and the variation of
        M chi_A not exceeding ||chi'||_1.
        """
        d = self.denominator
        subject = {"set": list(self.set.elements)}
        if oracle is None and (self.left_tail < 0 or self.right_tail < 0):
            oracle = maximal_profile(LatticeFunction.from_set(self.set)).values
        out: list[Violation] = []
        if oracle is not None:
            out = audit_profile(self.profile_values(), oracle, subject)
        if self.second_norm > 3 * self.chi_second_norm * d:
            record = self.ratio_record()
            out.append(Violation("theorem1_ratio", subject, {
                "chi_second_norm": str(record.chi_second_norm),
                "max_second_norm": str(record.max_second_norm),
                "ratio": str(record.ratio),
            }))
        if self.chi_second_norm < 2:
            out.append(Violation("chi_second_norm_lower_bound", subject, {
                "chi_second_norm": str(self.chi_second_norm),
            }))
        if self.lemma1_violations:
            out.append(Violation("lemma1_concavity", subject, {
                "concave_points_outside_set": list(self.lemma1_violations),
                "profile_values": [str(v) for v in self.profile_values()],
            }))
        if self.boundary_bound < self.second_norm:
            out.append(Violation("boundary_bound", subject, {
                "funeq_rhs": str(self.fraction(self.boundary_bound)),
                "second_norm": str(self.fraction(self.second_norm)),
            }))
        if self.variation > self.chi_first_norm * d:
            out.append(Violation("first_derivative_bound", subject, {
                "chi_first_norm": str(self.chi_first_norm),
                "max_first_variation": str(self.fraction(self.variation)),
            }))
        return out


def analyze(a: IndexSet) -> Analysis:
    """Analyze the maximal function of the indicator of ``a`` in one pass.

    The profile comes from :func:`~maxreg.maximal.window_maxima`; the naive
    oracle :func:`~maxreg.maximal.maximal_profile` audits it in the sweeps'
    spot checks, in the tests, and wherever a tail term comes out negative
    (:meth:`Analysis.violations`).  The norms follow the closed forms of
    :func:`second_norm`, :func:`funeq_rhs` and :func:`first_derivative_norms`.
    """
    if not a:
        raise ValueError("analysis needs a nonempty set")
    lo, hi = a.min() - 1, a.max() + 1
    m = hi - lo + 1
    chi = [0] * m
    for x in a.elements:
        chi[x - lo] = 1
    nums, dens = window_maxima(chi)
    d = lcm(*dens)
    v = [num * (d // den) for num, den in zip(nums, dens)]

    second = [v[i - 1] + v[i + 1] - 2 * v[i] for i in range(1, m - 1)]
    concave = [False] + [c < 0 for c in second] + [False]
    minus = [i for i in range(1, m - 1) if concave[i]]
    left = [i for i in minus if not concave[i - 1]]
    right = [i for i in minus if not concave[i + 1]]

    left_tail = v[1] - v[0]
    right_tail = v[m - 2] - v[m - 1]
    blocks = sum([chi[i] > chi[i - 1] for i in range(1, m - 1)])    # block starts
    return Analysis(
        set=a,
        lo=lo,
        hi=hi,
        denominator=d,
        scaled=tuple(v),
        second=tuple(second),
        s_minus=tuple(lo + i for i in minus),
        left_boundary=tuple(lo + i for i in left),
        right_boundary=tuple(lo + i for i in right),
        lemma1_violations=tuple(lo + i for i in minus if not chi[i]),
        chi_second_norm=4 * blocks,
        chi_first_norm=2 * blocks,
        left_tail=left_tail,
        right_tail=right_tail,
        second_norm=sum(map(abs, second)) + left_tail + right_tail,
        boundary_bound=2 * (sum(v[i] - v[i - 1] for i in left)
                            + sum(v[i] - v[i + 1] for i in right)),
        variation=v[1] + sum([abs(v[i + 1] - v[i]) for i in range(1, m - 2)]) + v[m - 2],
    )


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
