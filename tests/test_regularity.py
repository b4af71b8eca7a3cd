"""The `Fraction` convexity decomposition of ``conftest``, on examples and
against the lattice norms; the integer pass against its per-point
formula; the headline functions on index sets; and the sharp constant 1/2
with the Lemma 1 endpoint bound behind it."""

import random
from bisect import bisect_left
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxreg import (
    MINUS,
    PLUS,
    IndexSet,
    LatticeFunction,
    analyze,
    first_derivative_norms,
    forward_difference,
    lemma1_violations,
    lp_norm,
    maximal_at,
    maximal_profile,
    regularity,
    theorem1_report,
)

from conftest import (
    Chain,
    Window,
    as_dict,
    function_window,
    oracle_average,
    oracle_boundaries,
    oracle_chain_sum,
    oracle_chains,
    oracle_classify,
    oracle_concave,
    oracle_funeq_rhs,
    oracle_second_norm,
    oracle_second_norm_truncated,
    profile_window,
    random_function,
    random_index_set,
    reference_convexity,
)


def chi(*elements: int) -> LatticeFunction:
    return LatticeFunction.from_set(IndexSet.from_iterable(elements))


def maximal_window(*elements: int) -> Window:
    return profile_window(maximal_profile(chi(*elements)))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_examples():
    g = function_window(chi(0, 2))
    assert oracle_classify(g, 0) == MINUS
    assert oracle_classify(g, 1) == PLUS
    zero = function_window(LatticeFunction(0, ()))
    assert all(oracle_classify(zero, n) == PLUS for n in range(-3, 4))


def test_classify_tie_is_convex():
    # A straight line segment has vanishing second difference: convex.
    g = function_window(LatticeFunction.make(0, [1, 2, 3, 2, 1]))
    assert oracle_classify(g, 1) == PLUS


# ---------------------------------------------------------------------------
# boundaries
# ---------------------------------------------------------------------------

def test_boundaries_examples():
    assert oracle_boundaries(maximal_window(0)) == ((0,), (0,))
    assert oracle_boundaries(function_window(chi(0, 2))) == ((0, 2), (0, 2))
    assert oracle_boundaries(function_window(chi(0, 1))) == ((0,), (1,))


def test_boundaries_subset_of_minus():
    rng = random.Random(211)
    for _ in range(50):
        f = random_function(rng, 10, 6)
        if f.is_zero():
            continue
        g = function_window(f)
        minus = {n for n in range(g.lo + 1, g.hi) if oracle_classify(g, n) == MINUS}
        left, right = oracle_boundaries(g)
        assert set(left) <= minus
        assert set(right) <= minus


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------

def test_chains_example_gap_pair():
    assert oracle_chains(function_window(chi(0, 2))) == [
        Chain(PLUS, -2, -1),
        Chain(MINUS, 0, 0),
        Chain(PLUS, 1, 1),
        Chain(MINUS, 2, 2),
        Chain(PLUS, 3, 4),
    ]


def test_chains_example_adjacent_pair():
    assert oracle_chains(function_window(chi(0, 1))) == [
        Chain(PLUS, -2, -1),
        Chain(MINUS, 0, 1),
        Chain(PLUS, 2, 3),
    ]


def test_chain_length_counts_its_points():
    an = analyze(IndexSet.from_iterable([0, 2, 3, 7]))
    assert sum(end - start + 1 for _, start, end in an.chain_bounds()) == an.hi - an.lo + 1


def test_chains_of_zero_function():
    assert oracle_chains(function_window(LatticeFunction(0, ()))) == [Chain(PLUS, -1, 1)]


def test_chains_partition_and_alternate():
    rng = random.Random(223)
    for _ in range(60):
        f = random_function(rng, 12, 6)
        if f.is_zero():
            continue
        g = function_window(f)
        cs = oracle_chains(g)
        assert cs[0].start == g.lo and cs[-1].end == g.hi
        for c, d in zip(cs, cs[1:]):
            assert d.start == c.end + 1
            assert d.kind != c.kind
        for c in cs:
            assert all(oracle_classify(g, n) == c.kind for n in range(c.start, c.end + 1))


# ---------------------------------------------------------------------------
# chain telescoping identity
# ---------------------------------------------------------------------------

def test_chain_sum_check_examples():
    g = function_window(chi(0, 2))
    assert oracle_chain_sum(g, Chain(MINUS, 0, 0)) == (2, 2)
    assert oracle_chain_sum(g, Chain(PLUS, 1, 1)) == (2, 2)
    h = function_window(chi(0, 1))
    assert oracle_chain_sum(h, Chain(MINUS, 0, 1)) == (2, 2)


def test_chain_sum_check_rejects_margin_violation():
    g = function_window(chi(0, 2))         # the window [-2, 4]
    with pytest.raises(ValueError):
        oracle_chain_sum(g, Chain(PLUS, -2, -2))
    with pytest.raises(ValueError):
        oracle_chain_sum(g, Chain(PLUS, 4, 4))


def test_chain_sum_check_rejects_wrong_kind():
    g = function_window(chi(0, 2))
    with pytest.raises(ValueError):
        oracle_chain_sum(g, Chain(PLUS, 0, 0))


def test_chain_identity_randomized():
    rng = random.Random(227)
    for _ in range(200):
        f = random_function(rng, 14, 7)
        if f.is_zero():
            continue
        for g in (function_window(f), profile_window(maximal_profile(f))):
            for c in oracle_chains(g):
                start = max(c.start, g.lo + 1)
                end = min(c.end, g.hi - 1)
                if start > end:
                    continue
                lhs, rhs = oracle_chain_sum(g, (c.kind, start, end))
                assert lhs == rhs


# ---------------------------------------------------------------------------
# second norms: exact infinite sums
# ---------------------------------------------------------------------------

def test_second_norm_indicator():
    assert oracle_second_norm(function_window(chi(0))) == 4


def test_second_norm_maximal_singleton():
    # M chi_{0}(n) = 1/(|n|+1): window part 1, each tail telescopes to 1/2.
    assert oracle_second_norm(maximal_window(0)) == 2


def test_second_norm_maximal_intervals():
    # For an interval of k+1 points the norm is 4/(k+2).
    for k in range(6):
        assert oracle_second_norm(maximal_window(*range(k + 1))) == Fraction(4, k + 2)
        an = analyze(IndexSet.from_iterable(range(k + 1)))
        assert an.fraction(an.second_norm) == Fraction(4, k + 2)


def test_second_norm_equals_lattice_norm():
    rng = random.Random(229)
    for _ in range(100):
        f = random_function(rng, 12, 7, offset_range=4)
        if f.is_zero():
            continue
        assert oracle_second_norm(function_window(f)) == lp_norm(forward_difference(f, 2), 1)


def test_second_norm_truncation_identity():
    # Closed form == partial sum over |n| <= T plus the two telescoped
    # remainders, exactly, once [-T, T] clears the hull.
    rng = random.Random(233)
    for _ in range(20):
        a = random_index_set(rng, 8)
        f = LatticeFunction.from_set(a)
        closed = oracle_second_norm(profile_window(maximal_profile(f)))
        an = analyze(a)
        assert an.fraction(an.second_norm) == closed
        reach = max(abs(a.min()), abs(a.max()))
        for t in (reach + 1, reach + 7, 60):
            partial = oracle_second_norm_truncated(lambda n: maximal_at(f, n), t)
            remainder = (maximal_at(f, t) - maximal_at(f, t + 1)) \
                + (maximal_at(f, -t) - maximal_at(f, -t - 1))
            assert partial + remainder == closed


# ---------------------------------------------------------------------------
# the integer pass against the per-point formula
# ---------------------------------------------------------------------------

_BIG = 10 ** 40


@st.composite
def integer_windows(draw) -> list[int]:
    """Integer windows of length 3-80 with entries in [-10^40, 10^40]: free
    draws (about half with a negative tail term), small values times one big
    factor (ties and long same-class runs), constant windows, and constant
    windows with one raised point, a single concave spike or, at an edge,
    a negative tail."""
    m = draw(st.integers(3, 80))
    kind = draw(st.sampled_from(["free", "scaled", "constant", "spike"]))
    if kind == "free":
        return draw(st.lists(st.integers(-_BIG, _BIG), min_size=m, max_size=m))
    if kind == "scaled":
        scale = draw(st.integers(1, _BIG // 10))
        return [scale * x for x in draw(st.lists(st.integers(-10, 10), min_size=m, max_size=m))]
    c = draw(st.integers(-_BIG, _BIG - 1))
    v = [c] * m
    if kind == "spike":
        v[draw(st.integers(0, m - 1))] += draw(st.integers(1, _BIG - c))
    return v


@settings(max_examples=400, deadline=None)
@given(integer_windows())
@example([0, 0, 0])
@example([7] * 80)
@example([0, 0, 1, 0, 0])           # one concave spike
@example([3, 0, 0, 0, 3])           # both tails negative
@example([_BIG, -_BIG, _BIG])       # a convex dip between negative tails
@example([0, 1, 1, 0, 1, 1, 0])     # two concave runs of two points
def test_integer_pass_matches_the_per_point_formula(v):
    # every field, on a list (the function sweep's source pass) and on a
    # tuple (a scaled profile)
    assert regularity._convexity(v) == reference_convexity(v)
    assert regularity._convexity(tuple(v)) == reference_convexity(v)
    # the positions read off the flags, and the boundary sum of the public
    # funeq_rhs and decompose, tails of either sign
    concave = reference_convexity(v)[3]
    minus = [i for i in range(len(v)) if concave[i]]
    left = [i for i in minus if not concave[i - 1]]
    right = [i for i in minus if not concave[i + 1]]
    assert regularity._positions(regularity._convexity(v)[3]) == (minus, left, right)
    assert regularity._boundary_sum(regularity._convexity(v)) == \
        2 * (sum([v[i] - v[i - 1] for i in left]) + sum([v[i] - v[i + 1] for i in right]))


@settings(max_examples=400, deadline=None)
@given(integer_windows())
@example([3, 0, 0, 0, 3])
@example([0, 5, 0])
def test_norm_is_the_concave_mass(v):
    # interior sum |c2| + both tail terms == -2 * (sum of the negative c2),
    # with no sign condition on the tails
    c2 = [v[n - 1] + v[n + 1] - 2 * v[n] for n in range(1, len(v) - 1)]
    left_tail, right_tail = v[1] - v[0], v[-2] - v[-1]
    norm = regularity._convexity(v)[0]
    assert norm == sum(abs(c) for c in c2) + left_tail + right_tail
    assert norm == -2 * sum(c for c in c2 if c < 0)


# ---------------------------------------------------------------------------
# boundary bound
# ---------------------------------------------------------------------------

def test_funeq_examples():
    assert oracle_funeq_rhs(maximal_window(0)) == 2
    assert oracle_funeq_rhs(function_window(chi(0))) == 4
    assert oracle_funeq_rhs(function_window(LatticeFunction(0, ()))) == 0


def test_funeq_dominates_second_norm():
    rng = random.Random(239)
    for _ in range(150):
        f = random_function(rng, 12, 7)
        if f.is_zero():
            continue
        g = function_window(f)
        assert oracle_funeq_rhs(g) >= oracle_second_norm(g)
        gm = profile_window(maximal_profile(f))
        assert oracle_funeq_rhs(gm) >= oracle_second_norm(gm)


def test_boundary_bound_equals_the_second_norm():
    # The c2 of a concave run [l, r] sum to first[r] - first[l-1], so minus
    # twice the concave mass is the boundary sum, on any integer window: the
    # oracle's boundary sum of each window equals the integer pass's norm,
    # which is why no contract compares the two.  Both are taken over D.
    for mask in range(1, 1 << 14, 2):
        an = analyze(IndexSet.from_mask(mask))
        assert oracle_funeq_rhs(Window(an.lo, an.scaled)) == an.second_norm, mask
    rng = random.Random(4099)
    for _ in range(3000):
        ints = [rng.randint(-5, 5) for _ in range(rng.randint(1, 20))]
        if len(ints) > 1:               # the draw itself as a window
            assert oracle_funeq_rhs(Window(0, tuple(ints))) == regularity._convexity(ints)[0], ints
        nonzero = [i for i, x in enumerate(ints) if x]
        if nonzero:
            trimmed = ints[nonzero[0]:nonzero[-1] + 1]
            source, _, v, maximal = regularity._integer_passes(trimmed)
            assert oracle_funeq_rhs(Window(0, (0, 0, *trimmed, 0, 0))) == source[0], ints
            assert oracle_funeq_rhs(Window(0, tuple(v))) == maximal[0], ints


def test_decompose_is_consistent():
    # the decomposition that analyze reads off M chi_A
    an = analyze(IndexSet.from_iterable([0, 2, 3, 7]))
    g = maximal_window(0, 2, 3, 7)
    assert an.fraction(an.second_norm) == oracle_second_norm(g) == oracle_funeq_rhs(g)
    assert set(an.left_boundary) <= set(an.s_minus)
    assert set(an.right_boundary) <= set(an.s_minus)
    minus_from_chains = {n for kind, start, end in an.chain_bounds() if kind == MINUS
                         for n in range(start, end + 1)}
    assert minus_from_chains == set(an.s_minus) == set(oracle_concave(g))


def test_profile_entry_points_match_the_oracle():
    # AnalyzedFunction.from_profile, second_norm, funeq_rhs and decompose
    rng = random.Random(467)
    for _ in range(120):
        f = random_function(rng, 14, 9)
        if f.is_zero():
            continue
        p = maximal_profile(f)
        g, w = regularity.AnalyzedFunction.from_profile(p), profile_window(p)
        assert tuple(Fraction(v, g.denominator) for v in g.scaled) == p.values
        norm, bound = oracle_second_norm(w), oracle_funeq_rhs(w)
        assert regularity.second_norm(g) == norm and regularity.funeq_rhs(g) == bound
        left, right = oracle_boundaries(w)
        assert regularity.decompose(g) == (IndexSet(oracle_concave(w)), IndexSet(left),
                                           IndexSet(right), norm, bound)
    with pytest.raises(ValueError):
        regularity.AnalyzedFunction.from_profile(replace(p, tail_guarantee=False))


# ---------------------------------------------------------------------------
# Lemma 1 and Theorem 1
# ---------------------------------------------------------------------------

def test_lemma1_examples():
    assert lemma1_violations(IndexSet.from_iterable([0, 2])).elements == ()
    assert lemma1_violations(IndexSet.from_iterable([0])).elements == ()
    with pytest.raises(ValueError):
        lemma1_violations(IndexSet(()))


def test_lemma1_sweep_small():
    for mask in range(1, 1 << 10):
        assert not lemma1_violations(IndexSet.from_mask(mask))


def test_attained_by_one_sided_window_when_strictly_rising():
    # At a concave point where the maximal function strictly exceeds a
    # neighbor, the sup is attained by a finite window anchored at the point
    # on that side.
    rng = random.Random(241)
    sets = [IndexSet.from_mask(m) for m in range(1, 1 << 8)]
    sets += [random_index_set(rng, 14) for _ in range(30)]
    for a in sets:
        f = LatticeFunction.from_set(a)
        g = profile_window(maximal_profile(f))
        values = as_dict(f)
        b = a.max()
        lo = a.min()
        for n in oracle_concave(g):
            m_n = g.at(n)
            if m_n > maximal_at(f, n - 1):
                assert any(oracle_average(values, n, 0, s) == m_n for s in range(0, b - n + 1))
            if m_n > maximal_at(f, n + 1):
                assert any(oracle_average(values, n, r, 0) == m_n for r in range(0, n - lo + 1))


def test_theorem1_examples():
    r = theorem1_report(IndexSet.from_iterable([0]))
    assert (r.chi_second_norm, r.max_second_norm, r.ratio) == (4, 2, Fraction(1, 2))
    r = theorem1_report(IndexSet.from_iterable([0, 1]))
    assert (r.chi_second_norm, r.max_second_norm, r.ratio) == (4, Fraction(4, 3), Fraction(1, 3))
    with pytest.raises(ValueError):
        theorem1_report(IndexSet(()))


def test_theorem1_fast_flag_is_equivalent():
    # the kernel-based report against the Fraction path on the oracle profile
    rng = random.Random(251)
    for _ in range(40):
        a = random_index_set(rng, 10)
        f = LatticeFunction.from_set(a)
        chi_norm = lp_norm(forward_difference(f, 2), 1)
        max_norm = oracle_second_norm(profile_window(maximal_profile(f)))
        r = theorem1_report(a)
        assert (r.chi_second_norm, r.max_second_norm, r.ratio) == \
            (chi_norm, max_norm, max_norm / chi_norm)


def test_theorem1_sweep_small():
    for mask in range(1, 1 << 10):
        r = theorem1_report(IndexSet.from_mask(mask))
        assert r.ratio <= 3
        assert r.chi_second_norm >= 2


# ---------------------------------------------------------------------------
# the sharp constant 1/2
# ---------------------------------------------------------------------------

def test_second_norm_is_twice_the_deficit_at_the_set():
    # ||(M chi_A)''||_1 = -2 sum_{n in A} c2(n) = 2 sum_{n in A} (2 - M(n-1) - M(n+1)),
    # as M = 1 on A and, by Lemma 1, c2 >= 0 off A.  For the bound, the outer neighbour
    # x of each run end has M(x) >= 1/2, from the window of x and the end.  M is the
    # oracle profile, on every odd mask below 2^14 and on seeded sets of width up to 60.
    rng = random.Random(2)
    sets = [IndexSet.from_mask(mask) for mask in range(1, 1 << 14, 2)]
    sets += [random_index_set(rng, 60) for _ in range(60)]
    for a in sets:
        g = profile_window(maximal_profile(LatticeFunction.from_set(a)))
        an = analyze(a)
        assert an.fraction(an.second_norm) == 2 * sum(2 - g.at(n - 1) - g.at(n + 1) for n in a)
        ends = {x for n in a for x in (n - 1, n + 1) if x not in a}
        assert min(map(g.at, ends), default=1) >= Fraction(1, 2), a


def test_ratio_is_at_most_one_half_with_equality_at_gaps_of_three():
    # On every odd mask below 2^15 the ratio ||(M chi_A)''||_1 / ||chi_A''||_1 is at most
    # 1/2, and it is 1/2 exactly when consecutive elements differ by at least 3.  The
    # equality sets of span L (the mask's bit length) number a(L) = a(L - 1) + a(L - 3).
    half, counts = Fraction(1, 2), [0] * 16
    for mask in range(1, 1 << 15, 2):
        a = IndexSet.from_mask(mask)
        ratio = theorem1_report(a).ratio
        assert ratio <= half, mask
        assert (ratio == half) == all(y - x >= 3 for x, y in zip(a.elements, a.elements[1:]))
        counts[mask.bit_length()] += ratio == half
    assert counts[1:] == [1, 0, 0, 1, 1, 1, 2, 3, 4, 6, 9, 13, 19, 28, 41]
    assert all(counts[n] == counts[n - 1] + counts[n - 3] for n in range(4, 16))


def _least_best_windows(a: IndexSet, points) -> dict[int, tuple[int, int, int]]:
    """x -> (count, start, length) of the leftmost best window for M chi_A(x) of least
    length, by brute force over the windows containing x inside the hull of A and x."""
    elements, out = a.elements, {}
    for x in points:
        first, last = min(a.min(), x), max(a.max(), x)
        best = (0, x, 1)
        for length in range(1, last - first + 2):
            for i in range(max(first, x - length + 1), min(x, last - length + 1) + 1):
                count = bisect_left(elements, i + length) - bisect_left(elements, i)
                if count * best[2] > best[0] * length:
                    best = (count, i, length)
        out[x] = best
    return out


def test_lemma1_endpoint_bound():
    # Lemma 1's proof.  At n outside A take a best window W for M(n) of least length L.
    # If n is inside W, then M(n +- 1) >= M(n), so c2(n) >= 0.  If n is an end, say
    # W = [n, b], then L >= 2, M(n + 1) >= |A cap W| / (L - 1) and M(n - 1) >=
    # |A cap W| / (L + 1), so c2(n) >= 2 M(n) / (L^2 - 1).  Checked at every point of
    # [min A - 2, max A + 2] outside A, for every nonempty subset A of [0, 11), with W by
    # brute force; its averages are analyze's profile on [min A - 1, max A + 1].
    seen = {"inside": 0, "end": 0}
    for mask in range(1, 1 << 11):
        a = IndexSet.from_mask(mask)
        windows = _least_best_windows(a, range(a.min() - 3, a.max() + 4))
        m = {x: Fraction(count, length) for x, (count, _, length) in windows.items()}
        assert [m[x] for x in range(a.min() - 1, a.max() + 2)] == \
            list(analyze(a).profile_values()), mask
        for n in range(a.min() - 2, a.max() + 3):
            if n in a:
                continue
            _, start, length = windows[n]
            c2 = m[n + 1] - 2 * m[n] + m[n - 1]
            if start < n < start + length - 1:
                seen["inside"] += 1
                assert c2 >= 0, (mask, n)
            else:
                seen["end"] += 1
                assert length >= 2 and c2 >= 2 * m[n] / (length * length - 1), (mask, n)
    assert sum(seen.values()) == 15_369 and min(seen.values()) > 1000, seen


# ---------------------------------------------------------------------------
# first derivative
# ---------------------------------------------------------------------------

def test_first_derivative_examples():
    assert first_derivative_norms(IndexSet.from_iterable([0])) == (2, 2)
    assert first_derivative_norms(IndexSet.from_iterable([0, 2])) == (4, Fraction(8, 3))
    assert first_derivative_norms(IndexSet.from_iterable([0, 1])) == (2, 2)
    with pytest.raises(ValueError):
        first_derivative_norms(IndexSet(()))


def test_first_derivative_bound_sweep():
    for mask in range(1, 1 << 10):
        chi_norm, max_norm = first_derivative_norms(IndexSet.from_mask(mask))
        assert max_norm <= chi_norm


def test_first_derivative_truncation_identity():
    rng = random.Random(257)
    for _ in range(15):
        a = random_index_set(rng, 8)
        f = LatticeFunction.from_set(a)
        _, closed = first_derivative_norms(a)
        for t in (40, 80):
            partial = sum((abs(maximal_at(f, n + 1) - maximal_at(f, n))
                           for n in range(-t, t)), Fraction(0))
            remainder = maximal_at(f, -t) + maximal_at(f, t)
            assert partial + remainder == closed
