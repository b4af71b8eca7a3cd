import random
from fractions import Fraction

import pytest

from maxreg import (
    MINUS,
    PLUS,
    AnalyzedFunction,
    Chain,
    IndexSet,
    LatticeFunction,
    average,
    boundaries,
    chain_sum_check,
    chains,
    classify,
    decompose,
    first_derivative_norms,
    forward_difference,
    funeq_rhs,
    lemma1_violations,
    lp_norm,
    maximal_at,
    maximal_profile,
    second_norm,
    theorem1_report,
)

from conftest import (
    oracle_second_norm_truncated,
    random_function,
    random_index_set,
)


def chi(*elements: int) -> LatticeFunction:
    return LatticeFunction.from_set(IndexSet.from_iterable(elements))


def analyzed_maximal(*elements: int) -> AnalyzedFunction:
    return AnalyzedFunction.from_profile(maximal_profile(chi(*elements)))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_examples():
    g = AnalyzedFunction.from_lattice(chi(0, 2))
    assert classify(g, 0) == MINUS
    assert classify(g, 1) == PLUS
    zero = AnalyzedFunction.from_lattice(LatticeFunction(0, ()), lo=-3, hi=3)
    assert all(classify(zero, n) == PLUS for n in range(-3, 4))


def test_classify_tie_is_convex():
    # A straight line segment has vanishing second difference: convex.
    g = AnalyzedFunction.from_lattice(LatticeFunction.make(0, [1, 2, 3, 2, 1]))
    assert classify(g, 1) == PLUS


def test_classify_needs_guarantee_at_edges():
    g = AnalyzedFunction(0, 4, (Fraction(0),) * 5, outside_class=False)
    assert classify(g, 2) == PLUS
    with pytest.raises(ValueError):
        classify(g, 0)
    with pytest.raises(ValueError):
        classify(g, 5)


def test_from_lattice_rejects_bad_windows():
    f = chi(0, 5)
    with pytest.raises(ValueError):
        AnalyzedFunction.from_lattice(f, lo=0, hi=6)     # no left margin
    g = LatticeFunction.make(0, [-1])                    # negative mass
    with pytest.raises(ValueError):
        AnalyzedFunction.from_lattice(g, lo=-1, hi=1)    # concave at the edge
    AnalyzedFunction.from_lattice(g)                     # default window is fine


# ---------------------------------------------------------------------------
# boundaries
# ---------------------------------------------------------------------------

def test_boundaries_examples():
    left, right = boundaries(analyzed_maximal(0))
    assert left.elements == (0,) and right.elements == (0,)
    left, right = boundaries(AnalyzedFunction.from_lattice(chi(0, 2)))
    assert left.elements == (0, 2) and right.elements == (0, 2)
    left, right = boundaries(AnalyzedFunction.from_lattice(chi(0, 1)))
    assert left.elements == (0,) and right.elements == (1,)


def test_boundaries_subset_of_minus():
    rng = random.Random(211)
    for _ in range(50):
        f = random_function(rng, 10, 6)
        if f.is_zero():
            continue
        g = AnalyzedFunction.from_lattice(f)
        minus = {n for n in range(g.lo + 1, g.hi) if classify(g, n) == MINUS}
        left, right = boundaries(g)
        assert set(left.elements) <= minus
        assert set(right.elements) <= minus


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------

def test_chains_example_gap_pair():
    g = AnalyzedFunction.from_lattice(chi(0, 2), lo=-1, hi=3)
    assert chains(g) == [
        Chain(PLUS, -1, -1),
        Chain(MINUS, 0, 0),
        Chain(PLUS, 1, 1),
        Chain(MINUS, 2, 2),
        Chain(PLUS, 3, 3),
    ]


def test_chains_example_adjacent_pair():
    g = AnalyzedFunction.from_lattice(chi(0, 1), lo=-1, hi=2)
    assert chains(g) == [
        Chain(PLUS, -1, -1),
        Chain(MINUS, 0, 1),
        Chain(PLUS, 2, 2),
    ]


def test_chains_of_zero_function():
    g = AnalyzedFunction.from_lattice(LatticeFunction(0, ()), lo=-2, hi=2)
    assert chains(g) == [Chain(PLUS, -2, 2)]


def test_chains_partition_and_alternate():
    rng = random.Random(223)
    for _ in range(60):
        f = random_function(rng, 12, 6)
        if f.is_zero():
            continue
        g = AnalyzedFunction.from_lattice(f)
        cs = chains(g)
        assert cs[0].start == g.lo and cs[-1].end == g.hi
        for c, d in zip(cs, cs[1:]):
            assert d.start == c.end + 1
            assert d.kind != c.kind
        for c in cs:
            assert all(classify(g, n) == c.kind for n in range(c.start, c.end + 1))


# ---------------------------------------------------------------------------
# chain telescoping identity
# ---------------------------------------------------------------------------

def test_chain_sum_check_examples():
    g = AnalyzedFunction.from_lattice(chi(0, 2), lo=-1, hi=3)
    assert chain_sum_check(g, Chain(MINUS, 0, 0)) == (2, 2)
    assert chain_sum_check(g, Chain(PLUS, 1, 1)) == (2, 2)
    h = AnalyzedFunction.from_lattice(chi(0, 1), lo=-1, hi=2)
    assert chain_sum_check(h, Chain(MINUS, 0, 1)) == (2, 2)


def test_chain_sum_check_rejects_margin_violation():
    g = AnalyzedFunction.from_lattice(chi(0, 2), lo=-1, hi=3)
    with pytest.raises(ValueError):
        chain_sum_check(g, Chain(PLUS, -1, -1))
    with pytest.raises(ValueError):
        chain_sum_check(g, Chain(PLUS, 3, 3))


def test_chain_sum_check_rejects_wrong_kind():
    g = AnalyzedFunction.from_lattice(chi(0, 2), lo=-1, hi=3)
    with pytest.raises(ValueError):
        chain_sum_check(g, Chain(PLUS, 0, 0))


def test_chain_identity_randomized():
    rng = random.Random(227)
    for _ in range(200):
        f = random_function(rng, 14, 7)
        if f.is_zero():
            continue
        for g in (AnalyzedFunction.from_lattice(f),
                  AnalyzedFunction.from_profile(maximal_profile(f))):
            for c in chains(g):
                start = max(c.start, g.lo + 1)
                end = min(c.end, g.hi - 1)
                if start > end:
                    continue
                lhs, rhs = chain_sum_check(g, Chain(c.kind, start, end))
                assert lhs == rhs


# ---------------------------------------------------------------------------
# second_norm: exact infinite sums
# ---------------------------------------------------------------------------

def test_second_norm_indicator():
    assert second_norm(AnalyzedFunction.from_lattice(chi(0))) == 4


def test_second_norm_maximal_singleton():
    # M chi_{0}(n) = 1/(|n|+1): window part 1, each tail telescopes to 1/2.
    assert second_norm(analyzed_maximal(0)) == 2


def test_second_norm_maximal_intervals():
    # For an interval of k+1 points the norm is 4/(k+2).
    for k in range(6):
        g = analyzed_maximal(*range(k + 1))
        assert second_norm(g) == Fraction(4, k + 2)


def test_second_norm_equals_lattice_norm():
    rng = random.Random(229)
    for _ in range(100):
        f = random_function(rng, 12, 7, offset_range=4)
        if f.is_zero():
            continue
        g = AnalyzedFunction.from_lattice(f)
        assert second_norm(g) == lp_norm(forward_difference(f, 2), 1)


def test_second_norm_truncation_identity():
    # Closed form == partial sum over |n| <= T plus the two telescoped
    # remainders, exactly, once [-T, T] clears the hull.
    rng = random.Random(233)
    for _ in range(20):
        a = random_index_set(rng, 8)
        f = LatticeFunction.from_set(a)
        closed = second_norm(AnalyzedFunction.from_profile(maximal_profile(f)))
        reach = max(abs(a.min()), abs(a.max()))
        for t in (reach + 1, reach + 7, 60):
            partial = oracle_second_norm_truncated(lambda n: maximal_at(f, n), t)
            remainder = (maximal_at(f, t) - maximal_at(f, t + 1)) \
                + (maximal_at(f, -t) - maximal_at(f, -t - 1))
            assert partial + remainder == closed


# ---------------------------------------------------------------------------
# boundary bound (funeq_rhs)
# ---------------------------------------------------------------------------

def test_funeq_examples():
    assert funeq_rhs(analyzed_maximal(0)) == 2
    assert funeq_rhs(AnalyzedFunction.from_lattice(chi(0))) == 4
    zero = AnalyzedFunction.from_lattice(LatticeFunction(0, ()), lo=-2, hi=2)
    assert funeq_rhs(zero) == 0


def test_funeq_dominates_second_norm():
    rng = random.Random(239)
    for _ in range(150):
        f = random_function(rng, 12, 7)
        if f.is_zero():
            continue
        g = AnalyzedFunction.from_lattice(f)
        assert funeq_rhs(g) >= second_norm(g)
        gm = AnalyzedFunction.from_profile(maximal_profile(f))
        assert funeq_rhs(gm) >= second_norm(gm)


def test_decompose_is_consistent():
    g = analyzed_maximal(0, 2, 3, 7)
    dec = decompose(g)
    assert dec.second_norm == second_norm(g)
    assert dec.funeq_rhs_value == funeq_rhs(g)
    assert set(dec.left_boundary.elements) <= set(dec.s_minus.elements)
    assert set(dec.right_boundary.elements) <= set(dec.s_minus.elements)
    minus_from_chains = {n for c in dec.chains if c.kind == MINUS
                         for n in range(c.start, c.end + 1)}
    assert minus_from_chains == set(dec.s_minus.elements)


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
        g = AnalyzedFunction.from_profile(maximal_profile(f))
        b = a.max()
        lo = a.min()
        for n in range(g.lo + 1, g.hi):
            if classify(g, n) != MINUS:
                continue
            m_n = g.value_at(n)
            if m_n > maximal_at(f, n - 1):
                assert any(average(f, n, 0, s) == m_n for s in range(0, b - n + 1))
            if m_n > maximal_at(f, n + 1):
                assert any(average(f, n, r, 0) == m_n for r in range(0, n - lo + 1))


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
        max_norm = second_norm(AnalyzedFunction.from_profile(maximal_profile(f)))
        r = theorem1_report(a)
        assert (r.chi_second_norm, r.max_second_norm, r.ratio) == \
            (chi_norm, max_norm, max_norm / chi_norm)


def test_theorem1_sweep_small():
    for mask in range(1, 1 << 10):
        r = theorem1_report(IndexSet.from_mask(mask))
        assert r.ratio <= 3
        assert r.chi_second_norm >= 2


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
