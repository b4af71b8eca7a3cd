import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxreg.maximal as maximal
from maxreg import (
    IndexSet,
    LatticeFunction,
    maximal_at,
    maximal_profile,
    maximal_profile_fast,
    set_maxima,
    window_maxima,
)
from maxreg.maximal import _hull_links

from conftest import (
    as_dict,
    oracle_average,
    oracle_maximal_at,
    random_function,
    random_index_set,
    reference_window_maxima,
)


def chi(*elements: int) -> LatticeFunction:
    return LatticeFunction.from_set(IndexSet.from_iterable(elements))


# ---------------------------------------------------------------------------
# maximal_at against the enumeration oracle
# ---------------------------------------------------------------------------

def test_maximal_at_zero_function():
    assert maximal_at(LatticeFunction(0, ()), 5) == 0


def test_maximal_at_frozen_examples():
    # Frozen values, each recomputed here by the independent oracle.
    cases = [
        (chi(0), 0, Fraction(1)),
        (chi(0), 2, Fraction(1, 3)),
        (chi(0, 2), 1, Fraction(2, 3)),
    ]
    for f, n, expected in cases:
        assert oracle_maximal_at(as_dict(f), n) == expected
        assert maximal_at(f, n) == expected


def test_maximal_at_matches_oracle_randomized():
    rng = random.Random(101)
    for _ in range(120):
        f = random_function(rng, 8, 5, offset_range=3)
        if f.is_zero():
            continue
        n = rng.randint(f.support_min() - 4, f.support_max() + 4)
        assert maximal_at(f, n) == oracle_maximal_at(as_dict(f), n)


def test_oracle_padding_is_irrelevant():
    # Windows sticking out of the support hull only dilute the average: the
    # enumeration saturates, which justifies the finite window restriction.
    rng = random.Random(103)
    for _ in range(40):
        f = random_function(rng, 6, 4)
        if f.is_zero():
            continue
        n = rng.randint(f.support_min() - 3, f.support_max() + 3)
        d = as_dict(f)
        assert oracle_maximal_at(d, n, pad=0) == oracle_maximal_at(d, n, pad=3)


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def test_profile_singleton():
    p = maximal_profile(chi(0))
    assert p.window == (-1, 1)
    assert p.hull == (0, 0)
    assert p.values == (Fraction(1, 2), Fraction(1), Fraction(1, 2))
    assert p.tail_guarantee


def test_profile_gap_pair():
    p = maximal_profile(chi(0, 2))
    assert p.window == (-1, 3)
    assert p.values == (Fraction(1, 2), Fraction(1), Fraction(2, 3),
                        Fraction(1), Fraction(1, 2))


def test_profile_adjacent_pair():
    # The window [-1, 1] holds both mass points, so the edge value is 2/3
    # (confirmed by the enumeration oracle), not the naive one-point 1/2.
    p = maximal_profile(chi(0, 1))
    assert p.window == (-1, 2)
    assert oracle_maximal_at(as_dict(chi(0, 1)), -1) == Fraction(2, 3)
    assert p.values == (Fraction(2, 3), Fraction(1), Fraction(1), Fraction(2, 3))


def test_profile_values_match_pointwise_oracle():
    rng = random.Random(107)
    for _ in range(30):
        a = random_index_set(rng, 8)
        f = LatticeFunction.from_set(a)
        p = maximal_profile(f)
        d = as_dict(f)
        for n, v in p.points():
            assert v == oracle_maximal_at(d, n)


def test_profile_rejects_zero_function():
    with pytest.raises(ValueError):
        maximal_profile(LatticeFunction(0, ()))
    with pytest.raises(ValueError):
        maximal_profile_fast(LatticeFunction(0, ()))


def test_profile_window_bounds_checked():
    p = maximal_profile(chi(0))
    with pytest.raises(ValueError):
        p.value_at(2)


# ---------------------------------------------------------------------------
# the whole-profile oracle against the pointwise definition
# ---------------------------------------------------------------------------

def assert_profile_is_pointwise(f: LatticeFunction) -> None:
    p = maximal_profile(f)
    lo, hi = p.window
    assert (lo, hi) == (f.support_min() - 1, f.support_max() + 1)
    assert list(p.values) == [maximal_at(f, n) for n in range(lo, hi + 1)], f


def test_oracle_profile_is_maximal_at_on_every_subset():
    for mask in range(1, 1 << 13):
        assert_profile_is_pointwise(LatticeFunction.from_set(IndexSet.from_mask(mask)))


def test_oracle_profile_is_maximal_at_on_general_functions():
    rng = random.Random(127)
    for _ in range(2000):
        vals = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(1, 40))]
        f = LatticeFunction.make(rng.randint(-16, 16), vals)
        if not f.is_zero():
            assert_profile_is_pointwise(f)


def longest_best_windows(u: list[int]) -> list[tuple[int, int]]:
    """(sum, length) of the longest window of largest average through each
    position of ``u``, by comparing every window as a `Fraction`."""
    out = []
    for t in range(len(u)):
        windows = [(Fraction(sum(u[i:j + 1]), j - i + 1), j - i + 1, sum(u[i:j + 1]))
                   for i in range(t + 1) for j in range(t, len(u))]
        _, length, total = max(windows)
        out.append((total, length))
    return out


def test_oracle_windows_are_the_longest_best_ones():
    # On ties the oracle keeps one determined window, the union of every
    # maximizing one; a non-strict comparison would keep a shorter one.
    blocks = [indicator_block(IndexSet.from_mask(mask)) for mask in range(1, 1 << 10)]
    rng = random.Random(131)
    blocks += [[rng.randint(0, 4) for _ in range(rng.randint(1, 14))] for _ in range(300)]
    for u in blocks:
        if any(u):
            assert list(zip(*maximal._longest_windows(u))) == longest_best_windows(u), u


def test_oracle_shares_no_code_with_the_kernels(monkeypatch):
    f = LatticeFunction.make(-3, [Fraction(1, 2), 0, -2, 1, 1, Fraction(-7, 3)])
    want = [maximal_at(f, n) for n in range(-4, 4)]

    def forbidden(*args):
        raise AssertionError("the oracle called a kernel")

    for name in ("_hull_links", "_bridges", "window_maxima", "set_maxima"):
        monkeypatch.setattr(maximal, name, forbidden)
    assert list(maximal_profile(f).values) == want
    assert list(maximal_profile(chi(0, 2, 3, 7)).values) == \
        [maximal_at(chi(0, 2, 3, 7), n) for n in range(-1, 9)]


# ---------------------------------------------------------------------------
# fast path equivalence
# ---------------------------------------------------------------------------

def test_fast_equals_naive_on_examples():
    for f in (chi(0), chi(0, 2), chi(0, 1), chi(-3, 0, 4)):
        assert maximal_profile_fast(f) == maximal_profile(f)


def test_fast_equals_naive_randomized():
    rng = random.Random(109)
    for _ in range(150):
        f = random_function(rng, 48, 8, offset_range=5)
        if f.is_zero():
            continue
        assert maximal_profile_fast(f) == maximal_profile(f)


def test_fast_equals_naive_on_rational_values():
    rng = random.Random(113)
    for _ in range(80):
        length = rng.randint(1, 48)
        vals = [Fraction(rng.randint(-8, 8), rng.randint(1, 5))
                for _ in range(length)]
        f = LatticeFunction.make(rng.randint(-4, 4), vals)
        if f.is_zero():
            continue
        assert maximal_profile_fast(f) == maximal_profile(f)


@settings(max_examples=150, deadline=None)
@given(st.integers(-30, 30),
       st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=12),
                min_size=1, max_size=48))
def test_fast_equals_naive_property(offset, values):
    f = LatticeFunction.make(offset, values)
    if not f.is_zero():
        assert maximal_profile_fast(f) == maximal_profile(f)


# ---------------------------------------------------------------------------
# the block kernel against the window-end loop
# ---------------------------------------------------------------------------

def same_ratios(got, want) -> bool:
    """Equal window averages at every position; the windows may differ on ties."""
    (nums, dens), (want_nums, want_dens) = got, want
    return len(nums) == len(dens) == len(want_nums) and all(
        n * wd == wn * d for n, d, wn, wd in zip(nums, dens, want_nums, want_dens))


def chain_by_chords(points, seen) -> list[int]:
    """The chain over the points visited in ``seen``, by chords: a point stays
    on it iff every segment from a point visited before it to one visited
    after it passes strictly on its left."""

    def right_of(v, a, b) -> bool:
        (xv, yv), (xa, ya), (xb, yb) = points[v], points[a], points[b]
        return (xb - xa) * (yv - ya) < (yb - ya) * (xv - xa)

    return [v for k, v in enumerate(seen)
            if all(right_of(v, a, b) for a in seen[:k] for b in seen[k + 1:])]


def test_hull_links_walk_every_prefix_hull():
    # Random integer points with collinear runs and repeated x, visited in
    # rising and in falling (x, y); the links from every visited point must
    # walk the lower (rising) or upper (falling) hull of the points so far,
    # collinear points left out.
    rng = random.Random(151)
    for _ in range(300):
        points = {(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(1, 10))}
        x0, y0, dx, dy = (rng.randint(-4, 4) for _ in range(4))
        points.update((x0 + t * dx, y0 + t * dy) for t in range(rng.randint(0, 5)))
        points = list(points)
        rng.shuffle(points)
        rising = sorted(range(len(points)), key=points.__getitem__)
        for order in (rising, rising[::-1]):
            links = _hull_links(points, order)
            for k in range(len(order)):
                walk = [order[k]]
                while links[walk[-1]] >= 0:
                    walk.append(links[walk[-1]])
                assert walk[::-1] == chain_by_chords(points, order[:k + 1]), (points, order, k)


def test_kernels_reject_malformed_input():
    # every branch of the kernel's order check: empty, a repeat or a step
    # back right after the first element, after a run, after a gap, at the end
    for elements in ((), (3, 1), (0, 2, 2, 5), (1, 0), (0, 1, 1), (0, 2, 1), (4, 5, 6, 3)):
        with pytest.raises(ValueError):
            set_maxima(elements)
    for u in ([-1, 2], [0] * 30 + [-1]):
        with pytest.raises(ValueError):
            window_maxima(u)


def test_window_maxima_on_blocks_of_length_0_and_1():
    assert window_maxima([]) == ([], [])
    assert window_maxima([0]) == ([0], [1])
    assert window_maxima([5]) == ([5], [1])


def test_kernels_agree_on_every_binary_block():
    for length in range(1, 15):
        for mask in range(1 << length):
            u = [(mask >> i) & 1 for i in range(length)]
            assert same_ratios(window_maxima(u), reference_window_maxima(u)), u


@st.composite
def plateau_blocks(draw, max_width: int = 300):
    """Nonnegative integer blocks built from runs: plateaus, spikes and ties."""
    level = st.one_of(st.sampled_from([0, 1, 2, 3]), st.integers(0, 1000))
    runs = draw(st.lists(st.tuples(level, st.integers(1, 40)), min_size=1, max_size=40))
    return [v for v, n in runs for _ in range(n)][:max_width]


@settings(max_examples=150, deadline=None)
@given(plateau_blocks())
def test_kernels_match_the_loop_and_the_oracle(u):
    reference = reference_window_maxima(u)
    assert same_ratios(window_maxima(u), reference)
    f = LatticeFunction.make(0, u)
    if len(u) <= 64 and not f.is_zero():
        # Zeros beyond the block only dilute, so the block's window maxima
        # are M f itself wherever the oracle's window meets the block.
        nums, dens = reference
        for n, v in maximal_profile(f).points():
            if 0 <= n < len(u):
                assert Fraction(nums[n], dens[n]) == v


def adversarial_blocks(m: int = 1024) -> dict[str, list[int]]:
    half = m // 2
    shapes = {
        "ramp_up": list(range(m)),
        "ramp_down": list(range(m, 0, -1)),
        "hill": [min(i, m - i) for i in range(m)],
        "valley": [abs(i - half) for i in range(m)],
        "all_ones": [1] * m,
        "alternating": [i % 2 for i in range(m)],
        "squares": [i * i for i in range(m)],
        "squares_down": [(m - i) ** 2 for i in range(m)],
        "spikes": [1000 if i % 97 == 0 else i % 3 for i in range(m)],
    }
    return {name: [0] + u + [0] for name, u in shapes.items()}


@pytest.mark.parametrize("name", sorted(adversarial_blocks()))
def test_hull_kernel_on_adversarial_shapes(name):
    u = adversarial_blocks()[name]
    assert len(u) == 1026
    assert same_ratios(window_maxima(u), reference_window_maxima(u))


class CountingList(list):
    """A list that counts its item reads."""

    reads = 0

    def __getitem__(self, i):
        CountingList.reads += 1
        return super().__getitem__(i)


@pytest.mark.parametrize("m", [8, 16, 64, 1024, 4096])
def test_hull_walk_reads_a_bounded_number_of_prefix_sums_per_point(monkeypatch, m):
    # The kernel's prefix sums become a CountingList.  Both hull passes and
    # the bridge walks read 11 to 15.4 sums per point on every shape, from
    # 10 to 4,098 points (12.5-13.5 at most up to 66); a walk that went
    # quadratic would read hundreds per point at the longer lengths.
    monkeypatch.setattr(maximal, "list", CountingList, raising=False)
    for name, u in adversarial_blocks(m).items():
        assert len(u) == m + 2
        CountingList.reads = 0
        window_maxima(u)
        assert 0 < CountingList.reads <= 40 * len(u), name


# ---------------------------------------------------------------------------
# the set kernel, from runs
# ---------------------------------------------------------------------------

def indicator_block(a: IndexSet) -> list[int]:
    """The 0/1 block of ``a`` on [min a - 1, max a + 1]."""
    lo = a.min() - 1
    u = [0] * (a.max() - lo + 2)
    for x in a.elements:
        u[x - lo] = 1
    return u


def test_set_kernel_matches_the_loop_on_every_odd_mask():
    for mask in range(1, 1 << 15, 2):
        a = IndexSet.from_mask(mask)
        assert same_ratios(set_maxima(a.elements), reference_window_maxima(indicator_block(a))), a


@st.composite
def wide_sets(draw, max_width: int = 600):
    """Sets of hull width 1 .. max_width at density 1/8, 1/2 or 7/8, mostly left of 0."""
    width = draw(st.integers(1, max_width))
    density = draw(st.sampled_from([Fraction(1, 8), Fraction(1, 2), Fraction(7, 8)]))
    offset = draw(st.integers(-10_000, 100))
    rng = draw(st.randoms(use_true_random=False))
    inner = [offset + i for i in range(1, width - 1) if rng.random() < density]
    return IndexSet.from_iterable([offset, *inner, offset + width - 1])


@settings(max_examples=200, deadline=None)
@given(wide_sets())
def test_set_kernel_matches_the_block_kernels_and_the_oracle(a):
    got = set_maxima(a.elements)
    assert same_ratios(got, window_maxima(indicator_block(a)))
    nums, dens = got
    oracle = maximal_profile(LatticeFunction.from_set(a)).values
    assert [Fraction(n, d) for n, d in zip(nums, dens)] == list(oracle)


def test_set_kernel_closed_forms():
    # A singleton: 1/2, 1, 1/2.
    for x in (-7, 0, 12):
        nums, dens = set_maxima((x,))
        assert [Fraction(n, d) for n, d in zip(nums, dens)] == [Fraction(1, 2), 1, Fraction(1, 2)]
    # One run of n points: n/(n+1) at both edges, 1 on the run.
    for n in (1, 2, 5, 64):
        nums, dens = set_maxima(tuple(range(-3, n - 3)))
        values = [Fraction(p, q) for p, q in zip(nums, dens)]
        assert values == [Fraction(n, n + 1)] + [1] * n + [Fraction(n, n + 1)]
    # A gap-3 progression: every window over a gap point averages at most
    # 1/2, which [x, x + 1] attains, so the profile is 1 on A and 1/2 off it.
    for count in (1, 2, 3, 10, 200):
        elements = tuple(range(-30, -30 + 3 * count, 3))
        nums, dens = set_maxima(elements)
        lo = elements[0] - 1
        assert [Fraction(p, q) for p, q in zip(nums, dens)] == \
            [1 if lo + i in elements else Fraction(1, 2) for i in range(len(nums))]


def adversarial_sets(width: int = 1024) -> dict[str, IndexSet]:
    """Sets whose run hulls are long chains, with long gaps to walk tangents over."""

    def from_runs(lengths_and_gaps) -> IndexSet:
        elements, x = [], 0
        for length, gap in lengths_and_gaps:
            elements.extend(range(x, x + length))
            x += length + gap
        return IndexSet.from_iterable(elements)

    def up_to_width(shape) -> IndexSet:
        runs = []
        for length, gap in shape:
            runs.append((length, gap))
            if sum(map(sum, runs)) >= width:
                break
        return from_runs(runs)

    root = int(width ** 0.5)
    shapes = {
        "densifying": up_to_width((1, g) for g in range(root, 0, -1)),
        "thinning": up_to_width((1, g) for g in range(1, root + 1)),
        "growing_runs": up_to_width((n, 1) for n in range(1, root + 1)),
        "shrinking_runs": up_to_width((n, 1) for n in range(root, 0, -1)),
        "gap3": up_to_width((1, 2) for _ in range(width)),
    }
    # The same chains with a gap as wide as the rest behind or before them,
    # so that one tangent walks the whole hull.
    for name in ("densifying", "thinning", "growing_runs", "shrinking_runs"):
        a = shapes[name]
        span = a.max() - a.min() + 1
        shapes[name + "_then_gap"] = IndexSet.from_iterable([*a.elements, a.max() + span])
        shapes["gap_then_" + name] = IndexSet.from_iterable([a.min() - span, *a.elements])
    return shapes


@pytest.mark.parametrize("name", sorted(adversarial_sets()))
def test_set_kernel_on_adversarial_sets(name):
    a = adversarial_sets()[name]
    assert same_ratios(set_maxima(a.elements), window_maxima(indicator_block(a)))


@pytest.mark.parametrize("width", [1024, 4096])
def test_set_kernel_reads_a_bounded_number_of_run_entries_per_point(monkeypatch, width):
    # The kernel's run arrays become CountingLists.  Every shape reads at
    # most 11 entries per point of the window at both widths (the gap-3
    # progression; 0.5-4 on the others).  A tangent walk restarted at
    # every gap point reads 60 per point at width 1,024 and 120 at 4,096
    # on the shapes with one long gap.
    monkeypatch.setattr(maximal, "list", CountingList, raising=False)
    for name, a in adversarial_sets(width).items():
        points = a.max() - a.min() + 3
        CountingList.reads = 0
        set_maxima(a.elements)
        assert 0 < CountingList.reads <= 24 * points, name


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_dominates_pointwise_and_averages():
    rng = random.Random(127)
    for _ in range(60):
        f = random_function(rng, 10, 6)
        if f.is_zero():
            continue
        n = rng.randint(f.support_min() - 2, f.support_max() + 2)
        m = maximal_at(f, n)
        assert m >= abs(f.value_at(n))
        for _ in range(8):
            r, s = rng.randint(0, 6), rng.randint(0, 6)
            assert m >= oracle_average(as_dict(f), n, r, s)


def test_depends_only_on_absolute_value():
    rng = random.Random(131)
    for _ in range(40):
        f = random_function(rng, 10, 6)
        if f.is_zero():
            continue
        g = abs(f)
        for n in range(f.support_min() - 2, f.support_max() + 3):
            assert maximal_at(f, n) == maximal_at(g, n)


def test_scaling_homogeneity():
    rng = random.Random(137)
    for _ in range(40):
        f = random_function(rng, 8, 5)
        if f.is_zero():
            continue
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        if c == 0:
            continue
        n = rng.randint(f.support_min() - 2, f.support_max() + 2)
        assert maximal_at(f.scale(c), n) == abs(c) * maximal_at(f, n)


def test_tail_convexity_beyond_hull():
    rng = random.Random(139)
    for _ in range(15):
        a = random_index_set(rng, 6)
        f = LatticeFunction.from_set(a)
        b = a.max()
        lo = a.min()
        for n in range(b + 1, b + 51):
            c2 = maximal_at(f, n + 1) + maximal_at(f, n - 1) - 2 * maximal_at(f, n)
            assert c2 >= 0
        for n in range(lo - 50, lo):
            c2 = maximal_at(f, n + 1) + maximal_at(f, n - 1) - 2 * maximal_at(f, n)
            assert c2 >= 0


def test_profile_value_invariants():
    rng = random.Random(149)
    for _ in range(30):
        a = random_index_set(rng, 8)
        f = LatticeFunction.from_set(a)
        p = maximal_profile_fast(f)
        peak = max(abs(v) for v in f.values)
        for n, v in p.points():
            assert 0 < v <= peak
            assert v >= abs(f.value_at(n))
