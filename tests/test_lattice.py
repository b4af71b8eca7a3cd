import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

import maxreg.lattice as lattice
from maxreg import (
    IndexSet,
    LatticeFunction,
    analyze,
    forward_difference,
    lp_norm,
)

from conftest import block_count, central_second_difference, random_function


def chi(*elements: int) -> LatticeFunction:
    return LatticeFunction.from_set(IndexSet.from_iterable(elements))


# ---------------------------------------------------------------------------
# IndexSet
# ---------------------------------------------------------------------------

def test_index_set_validation():
    with pytest.raises(ValueError):
        IndexSet((3, 1))
    with pytest.raises(ValueError):
        IndexSet((1, 1))


def test_index_set_rejects_what_is_not_an_integer():
    # no truncation, rounding or parsing: an element is an int or an error
    for items in ([1.5, 2.7, 0], [Fraction(7, 2)], ["3", "1"], [2.0], [Fraction(4, 1)]):
        with pytest.raises(TypeError):
            IndexSet.from_iterable(items)
    for elements in ((0.5, 1.5), (0, 1.5), (1.5,), (Fraction(1, 2), 2), (0, "1"), (True,)):
        with pytest.raises(ValueError, match="integers"):
            IndexSet(elements)
    # what operator.index accepts is converted to plain ints
    a = IndexSet.from_iterable([True, 3, 0, 3])
    assert a.elements == (0, 1, 3)
    assert all(type(x) is int for x in a.elements)


def test_index_set_stores_its_elements_as_a_tuple():
    a, b = IndexSet([0, 2]), IndexSet((0, 2))
    assert type(a.elements) is tuple
    assert a == b and hash(a) == hash(b)
    assert analyze(a).ratio_record() == analyze(b).ratio_record()
    elements = (1, 4)
    assert IndexSet(elements).elements is elements
    with pytest.raises(ValueError):
        IndexSet([2, 1])


def test_index_set_membership():
    a = IndexSet.from_iterable([-4, 0, 2, 9])
    assert [n for n in range(-6, 12) if n in a] == [-4, 0, 2, 9]
    assert 2.0 in a and Fraction(9) in a
    assert 2.5 not in a and "2" not in a and None not in a
    assert 0 not in IndexSet(())


def test_index_set_mask_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        mask = rng.randint(0, (1 << 20) - 1)
        base = rng.randint(-30, 30)
        a = IndexSet.from_mask(mask, base)
        assert a.elements == tuple(base + i for i in range(21) if mask >> i & 1)
        assert lattice._bit_positions(mask, base) == a.elements
        assert IndexSet.from_mask(a.bits, a.base) == a


def test_index_set_error_paths():
    with pytest.raises(ValueError, match="nonnegative"):
        IndexSet.from_mask(-1)
    empty = IndexSet(())
    with pytest.raises(ValueError, match="minimum"):
        empty.min()
    with pytest.raises(ValueError, match="maximum"):
        empty.max()


def test_index_set_mask_is_canonical():
    a = IndexSet.from_iterable([3, 5, 6])
    assert a.base == 3
    assert a.bits == 0b1101
    assert IndexSet.from_mask(0b1101, 3) == a


def test_translate_reflect():
    a = IndexSet.from_iterable([0, 2, 3])
    assert a.translate(5).elements == (5, 7, 8)
    assert a.reflect().elements == (-3, -2, 0)


# ---------------------------------------------------------------------------
# from_set
# ---------------------------------------------------------------------------

def test_from_set_empty_is_zero():
    f = LatticeFunction.from_set(IndexSet(()))
    assert f.is_zero()
    assert f == LatticeFunction(0, ())


def test_zero_function_error_paths():
    zero = LatticeFunction(0, ())
    with pytest.raises(ValueError, match="no support"):
        zero.support_min()
    with pytest.raises(ValueError, match="no support"):
        zero.support_max()
    # scaling by 0 gives the canonical zero function, not zeros on the old block
    f = LatticeFunction.make(-3, [2, Fraction(1, 3)])
    assert f.scale(0) == f.scale(Fraction(0)) == zero
    assert f.scale(0).is_zero()


def test_from_set_singleton():
    f = chi(0)
    assert f.value_at(0) == 1
    assert f.value_at(1) == 0 and f.value_at(-1) == 0


def test_from_set_with_gap():
    f = chi(0, 2)
    assert (f.value_at(0), f.value_at(1), f.value_at(2)) == (1, 0, 1)


def test_function_values_are_ints_or_fractions():
    # no float expansion, no parsing: a value or a factor is exact or an error
    for bad in (0.1, 2.0, "1/3", " 2 ", Decimal("0.5"), True):
        with pytest.raises(TypeError):
            LatticeFunction.make(0, [1, bad])
        with pytest.raises(TypeError):
            LatticeFunction.make(0, [1]).scale(bad)
    f = LatticeFunction.make(0, (x for x in [0, Fraction(1, 3), 2]))
    assert f.offset == 1 and f.values == (Fraction(1, 3), Fraction(2))
    assert f.scale(3) == LatticeFunction.make(1, [1, 6])
    assert f.scale(Fraction(3, 2)).values == (Fraction(1, 2), Fraction(3))


def test_trimming_is_canonical():
    f = LatticeFunction.make(-2, [0, 0, 3, 0, 1, 0])
    assert f.offset == 0
    assert f.values == (Fraction(3), Fraction(0), Fraction(1))
    assert f == LatticeFunction.make(0, [3, 0, 1])


# ---------------------------------------------------------------------------
# forward_difference
# ---------------------------------------------------------------------------

def test_first_difference_of_singleton():
    g = forward_difference(chi(0), 1)
    assert g.value_at(-1) == 1 and g.value_at(0) == -1
    assert g.value_at(1) == 0 and g.value_at(-2) == 0


def test_second_difference_of_singleton():
    g = forward_difference(chi(0), 2)
    assert (g.value_at(-2), g.value_at(-1), g.value_at(0)) == (1, -2, 1)


def test_difference_of_zero():
    assert forward_difference(LatticeFunction(0, ()), 3).is_zero()


def test_difference_rejects_k_zero():
    with pytest.raises(ValueError):
        forward_difference(chi(0), 0)


def test_difference_iteration_consistency():
    rng = random.Random(11)
    for _ in range(200):
        f = random_function(rng, 12, 6)
        assert forward_difference(forward_difference(f, 1), 1) == forward_difference(f, 2)
        assert forward_difference(forward_difference(f, 2), 1) == forward_difference(f, 3)


# ---------------------------------------------------------------------------
# central second difference and Eq-style identity
# ---------------------------------------------------------------------------

def test_central_second_difference_examples():
    assert central_second_difference(chi(0), 0) == -2
    assert central_second_difference(chi(0), 1) == 1
    assert central_second_difference(chi(0, 2), 1) == 2


def test_centered_sum_equals_forward_norm():
    # sum over n of |f(n+1) + f(n-1) - 2 f(n)|  ==  l1 norm of the second
    # forward difference, for every finitely supported f.
    rng = random.Random(13)
    for _ in range(200):
        f = random_function(rng, 12, 6, offset_range=4)
        if f.is_zero():
            continue
        lo, hi = f.support_min() - 2, f.support_max() + 2
        direct = sum((abs(central_second_difference(f, n))
                      for n in range(lo, hi + 1)), Fraction(0))
        assert direct == lp_norm(forward_difference(f, 2), 1)


# ---------------------------------------------------------------------------
# lp_norm
# ---------------------------------------------------------------------------

def test_l1_and_linf():
    assert lp_norm(chi(0), 1) == 1
    assert lp_norm(chi(0, 2), math.inf) == 1
    assert lp_norm(forward_difference(chi(0), 2), 1) == 4
    assert isinstance(lp_norm(chi(0), 1), Fraction)


def test_lp_norm_rejects_nonpositive():
    for p in (0, -1, Fraction(-1, 2)):
        with pytest.raises(ValueError):
            lp_norm(chi(0), p)


def test_lp_norm_general_p_raises():
    # only p = 1 and p = infinity have exact values in general
    for p in (2, Fraction(3, 2), 3.0):
        with pytest.raises(ValueError):
            lp_norm(chi(0, 1), p)


# ---------------------------------------------------------------------------
# block_count and the 4-blocks identity
# ---------------------------------------------------------------------------

def test_block_count_examples():
    assert block_count(IndexSet.from_iterable([0, 2, 4])) == 3
    assert block_count(IndexSet.from_iterable([0, 1, 2])) == 1
    assert block_count(IndexSet(())) == 0


def test_second_norm_is_four_blocks_exhaustive():
    # For every nonempty A in [0, 15): l1 norm of the second difference of
    # the indicator equals 4 * (number of blocks), and both equal the direct
    # centered summation.
    for mask in range(1, 1 << 15):
        a = IndexSet.from_mask(mask)
        f = LatticeFunction.from_set(a)
        norm = lp_norm(forward_difference(f, 2), 1)
        blocks = block_count(a)
        assert norm == 4 * blocks
        direct = sum((abs(central_second_difference(f, n))
                      for n in range(a.min() - 1, a.max() + 2)), Fraction(0))
        assert direct == norm
