"""Extremizer search and contract sweeps over sets and functions.

* :func:`exhaustive` - every nonempty subset of [0, L), one per class under
  translation (sets containing 0) and reflection (one set per mirror pair);
* :func:`random_sets` / :func:`random_functions` - seeded sweeps by Python's
  Mersenne Twister (``random.Random``), stable across platforms for an
  integer seed and echoed in every summary;
* :func:`higher_derivative_scan` - the l1 norm over Z of the order-k
  differences (k >= 3) of M chi_A, exactly, and its truncation to [-T, T],
  summed in closed form along the hyperbola tails of
  :func:`~maxreg.maximal._set_tails` (:func:`_order_norms`).

This module only sweeps.  Every check, oracle audit and
:class:`~maxreg.regularity.Violation` comes from :mod:`maxreg.regularity`: a set
passes the gate of :func:`~maxreg.regularity._check_set`, a drawn function the
bound Var(M f) <= Var(f) of :func:`~maxreg.regularity._check_function`.  Every
512th instance of every sweep, and every instance with a negative tail term, is
also compared with the O(m^2) oracle :func:`~maxreg.maximal.maximal_profile`, in
integers; a mismatch is a ``fast_path_divergence``, ahead of all others.  In
:func:`exhaustive` an instance is a class, checked or not: one skipped for its
mirror is audited through the mirror's profile read backwards.  Any failure
halts the sweep and is serialized in full.

One driver, :func:`_sweep`, maps fixed-size chunks through an evaluator
(:func:`_check_mask_chunk` for sets, :func:`_check_draw_chunk` for draws),
folds their :class:`_Fold` in submission order, reports progress per chunk and
stops at the first violation.  The fold holds integers only, winners (norm
over D, D * source norm) compared by cross-multiplying, the earlier kept on
ties, so summaries do not depend on the worker count.  :func:`exhaustive` (L)
checks each chunk's sets at once, one per 64-bit lane of an int
(:mod:`maxreg.lanes`), over D_L = lcm(1, ..., L + 2) and tables built once per
sweep (:func:`_sweep_tables`); :func:`random_sets` profiles each set by
:func:`~maxreg.maximal.set_maxima` over its own lcm.  A process pool, and its
modules, load only when the worker count, capped by the chunk and CPU counts,
exceeds 1; :func:`random_functions` runs on one worker.
"""

from __future__ import annotations

import os
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, islice, repeat, tee
from math import lcm
from operator import floordiv, mul, sub
from typing import Callable, Iterable, Iterator, Sequence

from . import lanes, regularity
from .lattice import IndexSet, _bit_positions, _mask_elements, _mask_mirror, _mask_tables
from .maximal import _set_tails, _tail_points
from .regularity import RatioRecord, Violation, _audit_mirror, _scaled, analyze

GENERATOR_ID = "python-random-mt19937"
_CHUNK = 2048
_SPOT_EVERY = 512           # every sweep re-profiles each 512th instance by the oracle
_LANE = (1 << 64) - 1

__all__ = [
    "Violation",
    "GeneralRatioRecord",
    "SearchSummary",
    "TruncatedScan",
    "exhaustive",
    "random_sets",
    "random_functions",
    "higher_derivative_scan",
    "GENERATOR_ID",
]


# ---------------------------------------------------------------------------
# Result containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneralRatioRecord:
    """Ratio record for a general (not indicator) function."""

    offset: int
    function_values: tuple[int, ...]
    source_second_norm: Fraction
    max_second_norm: Fraction
    ratio: Fraction


@dataclass(frozen=True)
class SearchSummary:
    instances_checked: int
    max_record: object | None           # RatioRecord or GeneralRatioRecord
    violations: tuple[Violation, ...]
    parameters: dict
    stats: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TruncatedScan:
    """Order-k difference norm of M chi_A over Z and its truncation.

    ``value`` is the sum over all n in Z of |order-k forward difference of
    M chi_A at n|, exactly; ``truncated_value`` is the same sum over
    |n| <= ``truncation``.
    """

    value: Fraction
    truncated_value: Fraction
    truncation: int
    order: int
    set: IndexSet


# ---------------------------------------------------------------------------
# Set sweeps: chunks folded in integers
# ---------------------------------------------------------------------------

def _sweep_tables(length: int) -> tuple:
    """What every chunk of :func:`exhaustive` (``length``) shares: (D_L, quotients,
    positions, reverse).  D_L = lcm(1, ..., L + 2), below 2^35 for L <= 24, is a
    common denominator of every profile of the sweep, as a window in the frame [-1, L]
    has at most L + 2 points; ``quotients[n]`` is D_L // n.  The mask tables
    (:func:`~maxreg.lattice._mask_tables`) give mirrors and the sets of read-out rows."""
    d = lcm(*range(1, length + 3))
    return (d, [0, *[d // n for n in range(1, length + 3)]], *_mask_tables())


def _beats(new: tuple, old: tuple | None) -> bool:
    """Whether winner ``new`` replaces ``old``.  A winner starts (norm over D,
    D * ||chi''||_1); its ratio is the first over the second, compared by
    cross-multiplying, and a tie keeps ``old``."""
    return old is None or new[0] * old[1] > old[0] * new[1]


@dataclass
class _Fold:
    """Sweep results folded in order, in integers: each instance into its chunk
    (:func:`_check_mask_chunk`, :func:`_check_draw_chunk`), then each chunk into
    the sweep (:meth:`add`, in :func:`_sweep`).  A winner starts (norm over D,
    D * source norm) and is compared by :func:`_beats` only, so on ties the
    earlier instance stays; the records are rebuilt from the final winners."""

    count: int = 0                      # translation classes covered, or draws drawn
    evaluated: int = 0                  # sets analysed, or nonzero draws checked
    winners: dict = field(default_factory=dict)     # span -> winner; None -> overall
    min_chi_norm: int | None = None
    violations: tuple[Violation, ...] = ()
    ratios: list = field(default_factory=list)      # every function draw's ratio

    def add(self, chunk: "_Fold") -> None:
        self.count += chunk.count
        self.evaluated += chunk.evaluated
        for key, entry in chunk.winners.items():
            if _beats(entry, self.winners.get(key)):
                self.winners[key] = entry
        if chunk.min_chi_norm is not None and (self.min_chi_norm is None
                                               or chunk.min_chi_norm < self.min_chi_norm):
            self.min_chi_norm = chunk.min_chi_norm
        self.violations = chunk.violations
        self.ratios += chunk.ratios


def _sweep(chunks: Iterable[tuple], evaluate: Callable[[tuple], _Fold], total: int,
           workers: int, progress: Callable[[int, int], None] | None) -> _Fold:
    """The chunk args ``chunks`` mapped through ``evaluate`` and folded in submission
    order up to the first violation, with ``progress`` (instances so far, ``total``)
    after each chunk.  The pool holds at most one process per chunk of ``total``
    and per CPU, and is imported only when it holds two or more: on one, the
    chunks map lazily in this process and no pool module loads.  A pool is sent
    at most two chunks per process that are not yet folded."""
    merged = _Fold()
    workers = min(workers, -(-total // _CHUNK), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        results = map(evaluate, chunks) if pool is None else _ahead(pool, evaluate, chunks, workers)
        for chunk in results:
            merged.add(chunk)
            if progress is not None:
                progress(merged.count, total)
            if chunk.violations:
                break
    return merged


def _ahead(pool, evaluate: Callable, chunks: Iterable[tuple], workers: int) -> Iterator[_Fold]:
    """``evaluate`` of each of ``chunks`` on a ``pool`` of ``workers`` processes, in order,
    with at most two chunks per process in flight (``pool.map`` submits all at once)."""
    pending: list = []
    for args in chunks:
        pending.append(pool.submit(evaluate, args))
        if len(pending) == 2 * workers:
            yield pending.pop(0).result()
    yield from (future.result() for future in pending)


def _mask_chunks(masks: Sequence[int], tables: tuple | None) -> Iterator[tuple]:
    """The :func:`_check_mask_chunk` args of a set sweep over ``masks``."""
    return ((masks[i:i + _CHUNK], i, tables) for i in range(0, len(masks), _CHUNK))


def _check_mask_chunk(args: tuple) -> _Fold:
    """Check a chunk of masks in order, by :func:`_lane_checks` given the tables of an
    exhaustive sweep, else :func:`_set_checks`, each yielding (mask, classes, blocks, D,
    norm over D, violations) per mask, classes 0 for an audit alone, and fold each set
    into the winners: a set can only beat the overall winner by beating its span's."""
    masks, base_index, tables = args
    count = evaluated = 0
    winners: dict = {}                  # span -> winner; None -> overall
    min_chi, violations = None, ()
    checks = _set_checks(masks, base_index) if tables is None else _lane_checks(*args)
    for mask, classes, blocks, d, norm, found in checks:
        if classes:
            chi, scaled = 4 * blocks, 4 * blocks * d
            span = mask.bit_length() - (mask & -mask).bit_length()
            old = winners.get(span)
            if old is None or norm * old[1] > old[0] * scaled:     # _beats, inlined: once per set
                winners[span] = entry = (norm, scaled, mask)
                if _beats(entry, winners.get(None)):
                    winners[None] = entry
            count += classes
            evaluated += 1
            if min_chi is None or chi < min_chi:
                min_chi = chi
        if found:
            violations = tuple(found)
            break
    return _Fold(count, evaluated, winners, min_chi, violations)


def _set_checks(masks: Sequence[int], base_index: int) -> Iterator[tuple]:
    """Each set profiled by :func:`~maxreg.regularity.set_maxima` over its own lcm and
    checked by :func:`~maxreg.regularity._check_set`, both looked up on the module."""
    for i, mask in enumerate(masks, base_index):
        elements = _bit_positions(mask)
        d, v = _scaled(*regularity.set_maxima(elements))
        blocks = (mask & ~(mask << 1)).bit_count()      # the run starts
        yield mask, 1, blocks, d, *regularity._check_set(elements, blocks, d, v, i % _SPOT_EVERY == 0)


def _lane_checks(masks: Sequence[int], base_index: int, tables: tuple) -> Iterator[tuple]:
    """The masks of an exhaustive chunk whose mirror is not smaller, checked at once in
    lanes (:func:`~maxreg.lanes.columns`, :func:`~maxreg.lanes.verdicts`); one failing a
    test there or due for the audit has its row read out to the per-set check.  A
    skipped class due for the audit is audited through its mirror."""
    d, quotients, positions, reverse = tables
    mirrors = [_mask_mirror(reverse, mask) for mask in masks]
    checked = [mask for mask, mirror in zip(masks, mirrors) if mirror >= mask]
    columns = lanes.columns(checked, tables)
    norms, variations, flags = lanes.verdicts(checked, columns, tables)
    k = 0
    for i, (mask, mirror) in enumerate(zip(masks, mirrors), base_index):
        spot = i % _SPOT_EVERY == 0
        if mirror < mask:
            if spot:
                yield mask, 0, 0, d, 0, _audit_mirror(_mask_elements(positions, mask),
                                                      _mask_elements(positions, mirror), d, quotients)
            continue
        blocks, norm, found = (mask & ~(mask << 1)).bit_count(), norms[k], ()
        if spot or flags[k] or norm > 12 * blocks * d or variations[k] > 2 * blocks * d:
            v = [column >> 64 * k & _LANE for column in columns[:mask.bit_length() + 2]]
            norm, found = regularity._check_set(_mask_elements(positions, mask), blocks, d, v, spot)
        yield mask, 1 if mirror == mask else 2, blocks, d, norm, found
        k += 1


def _set_records(merged: _Fold) -> tuple[RatioRecord | None, dict]:
    """(max record, summary stats) of a set sweep, re-analysing its final winners."""
    records = {key: analyze(IndexSet.from_mask(entry[2])).ratio_record()
               for key, entry in merged.winners.items()}
    norm = merged.min_chi_norm
    return records.pop(None, None), {
        "max_by_span": dict(sorted(records.items())),
        "min_chi_second_norm": None if norm is None else Fraction(norm)}


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def exhaustive(length: int, workers: int = 1,
               progress: Callable[[int, int], None] | None = None) -> SearchSummary:
    """Check every translation class of nonempty subsets of [0, length).

    Only sets containing 0 (odd masks) are enumerated, and only the smaller
    mask of each mirror pair is checked (``stats["sets_evaluated"]``, 8,383 at
    L = 15), counting for two classes, or one for a palindrome.  Masks go in
    ascending order and the larger of a pair never beats the smaller, so the
    records, tie-breaks and first violation are those of a sweep over every
    class.  A chunk's sets are checked in lanes (:mod:`maxreg.lanes`); only one
    that fails a test there, or is audited, is checked alone.  The oracle
    audits the classes ``mask >> 1`` = 0 mod 512, a skipped one through its
    mirror's kernel profile, reversed.
    """
    if not 1 <= length <= 24:
        raise ValueError("length must be in [1, 24]")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    masks = range(1, 1 << length, 2)
    merged = _sweep(_mask_chunks(masks, _sweep_tables(length)), _check_mask_chunk,
                    len(masks), workers, progress)
    best, stats = _set_records(merged)
    return SearchSummary(
        instances_checked=merged.count,
        max_record=best,
        violations=merged.violations,
        parameters={
            "mode": "exhaustive",
            "length": length,
            "workers": workers,
            "oracle_spot_check_every": _SPOT_EVERY,
            "canonicalization": "translation and reflection (sets containing 0, "
                                "the smaller mask of each mirror pair)",
            "raw_set_count": (1 << length) - 1,
        },
        stats={**stats, "sets_evaluated": merged.evaluated},
    )


def random_sets(trials: int, length: int, density, seed: int,
                workers: int = 1,
                progress: Callable[[int, int], None] | None = None) -> SearchSummary:
    """Check ``trials`` random subsets of [0, length), empty draws skipped.

    Each point enters independently with probability ``density``, an int, a
    `Fraction` or a string such as ``"1/2"`` (a float raises TypeError); the
    draw sequence is fully determined by ``seed``.
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    if length < 1:
        raise ValueError("length must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if type(density) not in (int, Fraction, str):
        raise TypeError("density must be an int, a Fraction or a string")
    try:
        density = Fraction(density)
    except ZeroDivisionError:
        raise ValueError(f"density {density!r} has a zero denominator") from None
    if not 0 < density < 1:
        raise ValueError("density must lie strictly between 0 and 1")
    rng = random.Random(seed)
    threshold = float(density)
    raw = (sum([1 << i for i in range(length) if rng.random() < threshold]) for _ in range(trials))
    masks = [mask for mask in raw if mask]
    merged = _sweep(_mask_chunks(masks, None), _check_mask_chunk, len(masks), workers, progress)
    best, stats = _set_records(merged)
    return SearchSummary(
        instances_checked=merged.count,
        max_record=best,
        violations=merged.violations,
        parameters={
            "mode": "random_sets",
            "trials": trials,
            "length": length,
            "density": str(density),
            "seed": seed,
            "generator": GENERATOR_ID,
            "workers": workers,
            "oracle_spot_check_every": _SPOT_EVERY,
        },
        stats={"empty_draws_skipped": trials - len(masks), **stats},
    )


def _check_draw_chunk(args: tuple) -> _Fold:
    """Check a chunk of draws in order (:func:`~maxreg.regularity._check_function`,
    looked up on :mod:`~maxreg.regularity`), skipping the all-zero ones and auditing each
    nonzero draw numbered 0 mod 512, the chunk's first being number ``base_index``, and
    fold in every ratio and the winner, (norm over D, D * source norm, offset, values, D)."""
    draws, base_index = args
    fold = _Fold()
    for values in draws:
        fold.count += 1
        if not any(values):
            continue
        winner, found = regularity._check_function(
            values, (base_index + fold.evaluated) % _SPOT_EVERY == 0)
        fold.evaluated += 1
        if winner is not None:
            fold.ratios.append(Fraction(winner[0], winner[1]))
            if _beats(winner, fold.winners.get(None)):
                fold.winners[None] = winner
        if found:
            fold.violations = tuple(found)
            break
    return fold


def _function_record(winner: tuple) -> GeneralRatioRecord:
    max_norm, scaled_norm, offset, values, d = winner
    return GeneralRatioRecord(offset, values, Fraction(scaled_norm // d),
                              Fraction(max_norm, d), Fraction(max_norm, scaled_norm))


def random_functions(trials: int, length: int, value_bound: int, seed: int,
                     progress: Callable[[int, int], None] | None = None) -> SearchSummary:
    """Ratio exploration over random integer-valued functions on [0, length).

    Values are uniform on [-value_bound, value_bound]; all-zero draws are
    skipped.  Each draw must hold Var(M f) <= Var(f); the ratio distribution
    is reported, not bounded.  The draws run through :func:`_sweep` on one
    worker, drawn one chunk at a time, and ``progress`` gets (draws drawn, zero
    draws included, ``trials``) after each chunk.
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    if length < 1:
        raise ValueError("length must be at least 1")
    if value_bound < 1:
        raise ValueError("value_bound must be a positive integer")
    rng = random.Random(seed)
    # lists, as held tuples would stay in the tuple free lists; each chunk goes with
    # its count of nonzero draws before it, which numbers its audits
    draws = ([rng.randint(-value_bound, value_bound) for _ in range(length)] for _ in range(trials))
    chunks, counted = tee(iter(lambda: list(islice(draws, _CHUNK)), []))
    bases = accumulate((sum(map(any, chunk)) for chunk in counted), initial=0)
    merged = _sweep(zip(chunks, bases), _check_draw_chunk, trials, 1, progress)
    ratios = sorted(merged.ratios)
    n = len(ratios)
    at = {"min": 0, "q25": n // 4, "median": n // 2, "q75": 3 * n // 4, "max": n - 1}
    quantiles = {key: str(ratios[i]) for key, i in at.items()} if ratios else {}
    return SearchSummary(
        instances_checked=merged.evaluated,
        max_record=_function_record(merged.winners[None]) if merged.winners else None,
        violations=merged.violations,
        parameters={
            "mode": "random_functions",
            "trials": trials,
            "length": length,
            "value_bound": value_bound,
            "seed": seed,
            "generator": GENERATOR_ID,
            "oracle_spot_check_every": _SPOT_EVERY,
        },
        stats={"ratio_quantiles": quantiles},
    )


# ---------------------------------------------------------------------------
# Exact order-k scans
# ---------------------------------------------------------------------------

def _run_differences(nums: Sequence[int], dens: Sequence[int], k: int) -> tuple[list[int], int]:
    """Order-k forward differences of a run of points, as integers over their lcm."""
    d = lcm(*dens)
    v = list(map(mul, nums, map(floordiv, repeat(d), dens)))
    for _ in range(k):
        v = list(map(sub, v[1:], v))
    return v, d


def _boundary_excess(tail, k: int):
    """Yield (first start, |d| - s d at each start, denominator), s = (-1)^k,
    for the order-k differences d at the starts n whose n .. n+k cross a piece
    boundary of a tail: the k before each boundary, fewer after a short piece.
    On one piece d has the sign s, so every other start adds nothing."""
    starts, sign = tail[0], (-1) ** k
    for p, end in zip(starts, starts[1:]):
        first = max(p, end - k)
        diffs, d = _run_differences(*_tail_points(tail, first, end - 1 + k), k)
        yield first, [abs(x) - sign * x for x in diffs], d


def _order_norms(a: IndexSet, k: int, truncation: int) -> tuple[Fraction, Fraction]:
    """Sums of |order-k forward difference of M chi_A| over Z and over [-T, T].

    Pre: k >= 1, and [-T, T] covers the hull [a, b] with a k margin.  One
    set kernel pass gives the window [a-1, b+1] and both tails
    (:func:`~maxreg.maximal._set_tails`); the points a-k .. b+k are differenced to order
    k-1, then once more for the starts in [a-k, b].  Starts n > b lie on the
    right tail, n < a-k on the reflected left one (the difference at n is
    +-the one at -n-k).  From a start N on, a tail's |differences| sum to
    -s (order k-1 difference at N) plus the :func:`_boundary_excess`, as
    they telescope and have the sign s = (-1)^k on one piece.  The order k-1
    run ends in both whole-tail leads, at a-k (sign +1, reflected) and b+1;
    the part past T (T - k reflected) takes its lead from k more tail points.
    """
    lo, hi = a.min(), a.max()
    sign = (-1) ** k
    nums, dens, right, left = _set_tails(a.elements)
    left_nums, left_dens = _tail_points(left, -lo + 2, -lo + k)
    right_nums, right_dens = _tail_points(right, hi + 2, hi + k)
    lead, d = _run_differences(left_nums[::-1] + nums + right_nums,
                               left_dens[::-1] + dens + right_dens, k - 1)
    whole = [(sum(map(abs, map(sub, lead[1:], lead))) + lead[0] - sign * lead[-1], d)]
    beyond = []
    for tail, first in ((right, truncation + 1), (left, truncation - k + 1)):
        lead, d = _run_differences(*_tail_points(tail, first, first + k - 1), k - 1)
        beyond.append((-sign * lead[0], d))
        for start, excess, d in _boundary_excess(tail, k):
            whole.append((sum(excess), d))
            beyond.append((sum(excess[max(0, first - start):]), d))
    common = lcm(*[den for _, den in whole + beyond])
    value = sum([num * (common // den) for num, den in whole])
    past = sum([num * (common // den) for num, den in beyond])
    return Fraction(value, common), Fraction(value - past, common)


def higher_derivative_scan(a: IndexSet, k: int, truncation: int) -> TruncatedScan:
    """sum over n in Z of |order-k forward difference of M chi_A|, exactly,
    together with the same sum over |n| <= T.

    Pre: k >= 3 (order 2 is :func:`~maxreg.regularity.analyze`'s
    ``second_norm``) and T large enough that [-T, T] covers the support
    hull with a k-point margin.  Beyond the hull M chi_A is read off two
    chains of hyperbola pieces, and each tail's sum telescopes to one
    difference plus a correction at the piece boundaries (:func:`_order_norms`).
    """
    if not a:
        raise ValueError("scan needs a nonempty set")
    if k < 3:
        raise ValueError("scan order k must be at least 3 (order 2 is the report's "
                         "second-difference norm)")
    if truncation < max(abs(a.min()), abs(a.max())) + k:
        raise ValueError("truncation too small: [-T, T] must cover the hull with a k margin")
    return TruncatedScan(*_order_norms(a, k, truncation), truncation, k, a)
