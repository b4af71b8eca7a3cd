"""Extremizer search and contract sweeps over sets and functions.

Three probes of how far the second-difference bound might extend:

* :func:`exhaustive` - every nonempty subset of [0, L), canonicalized by
  translation to sets containing 0 (the maximal operator commutes with
  translation, so one representative per class suffices);
* :func:`random_sets` / :func:`random_functions` - seeded pseudorandom
  sweeps; the generator is Python's Mersenne Twister (``random.Random``),
  which is stable across platforms for a fixed integer seed, and its
  identity is echoed in every summary;
* :func:`higher_derivative_scan` - truncated l1 sums of order-k differences
  (k >= 3) of a maximal function, with an explicit remainder bound instead
  of an exact tail: beyond the hull the second difference of the profile is
  one-signed and telescopes, and each order above two at worst doubles the
  bound, giving  remainder <= 2^(k-2) * (edge difference)  on each side.
  No exactness is claimed for k >= 3.

Every checked set runs the full contract battery of its
:class:`~maxreg.regularity.Analysis` (Theorem 1 ratio, Lemma 1 emptiness,
boundary-bound domination, first-derivative domination, indicator norm
lower bound).  On the fast path every 512th set is also re-profiled by the
naive oracle, and a mismatch is a ``fast_path_divergence`` violation.  Any
failure halts the sweep and is serialized in full: a violation is either an
artifact bug or a finding, never noise to skip.  Sweeps are chunked with a fixed chunk size, and chunk results are
reduced in submission order with a smallest-bitmask tie-break, so summaries
are identical for any worker count.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .lattice import IndexSet, LatticeFunction, forward_difference, lp_norm
from .maximal import maximal_at, maximal_profile, maximal_profile_fast
from .regularity import (
    AnalyzedFunction,
    RatioRecord,
    Violation,
    analyze,
    funeq_rhs,
    second_norm,
)

GENERATOR_ID = "python-random-mt19937"
_CHUNK = 2048
_SPOT_EVERY = 512           # fast-path instances re-checked against the naive oracle

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

    @property
    def clean(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class TruncatedScan:
    """Truncated order-k difference sum with a rigorous remainder bound.

    The untruncated value lies in [value, value + remainder_bound].
    """

    value: Fraction
    remainder_bound: Fraction
    truncation: int
    order: int
    set: IndexSet


# ---------------------------------------------------------------------------
# Per-instance contract battery
# ---------------------------------------------------------------------------

def _check_set_instance(a: IndexSet, fast: bool, spot_check: bool,
                        ) -> tuple[RatioRecord, list[Violation]]:
    """Run every set-level contract on one set, from a single analysis.

    With ``spot_check`` the profile is recomputed by the naive oracle, and a
    mismatch is reported as a ``fast_path_divergence`` violation.
    """
    analysis = analyze(a, fast)
    violations = analysis.violations()
    if spot_check:
        values = analysis.profile_values()
        oracle = maximal_profile(LatticeFunction.from_set(a)).values
        if values != oracle:
            violations.insert(0, Violation(
                "fast_path_divergence", {"set": list(a.elements)},
                {"fast_profile": [str(v) for v in values],
                 "oracle_profile": [str(v) for v in oracle]}))
    return analysis.ratio_record(), violations


def _better(old: RatioRecord | None, new: RatioRecord) -> RatioRecord:
    """Keep the larger ratio; on ties keep the earlier (smaller-mask) record."""
    if old is None or new.ratio > old.ratio:
        return new
    return old


@dataclass
class _ChunkResult:
    count: int = 0
    best: RatioRecord | None = None
    max_by_span: dict = field(default_factory=dict)
    min_chi_norm: Fraction | None = None
    violations: tuple[Violation, ...] = ()


def _check_mask_chunk(args: tuple) -> _ChunkResult:
    masks, fast, base_index = args
    out = _ChunkResult()
    for i, mask in enumerate(masks):
        a = IndexSet.from_mask(mask)
        spot = fast and (base_index + i) % _SPOT_EVERY == 0
        record, violations = _check_set_instance(a, fast, spot)
        out.count += 1
        out.best = _better(out.best, record)
        span = a.max() - a.min()
        prev = out.max_by_span.get(span)
        out.max_by_span[span] = _better(prev, record)
        if out.min_chi_norm is None or record.chi_second_norm < out.min_chi_norm:
            out.min_chi_norm = record.chi_second_norm
        if violations:
            out.violations = tuple(violations)
            break
    return out


def _run_chunked(chunk_args: Sequence[tuple], workers: int,
                 progress: Callable[[int, int], None] | None,
                 total: int) -> _ChunkResult:
    """Map chunks, reduce in submission order, halt at the first violation."""
    merged = _ChunkResult()

    def fold(res: _ChunkResult) -> bool:
        merged.count += res.count
        if res.best is not None:
            merged.best = _better(merged.best, res.best)
        for span, rec in res.max_by_span.items():
            merged.max_by_span[span] = _better(merged.max_by_span.get(span), rec)
        if res.min_chi_norm is not None and (
                merged.min_chi_norm is None or res.min_chi_norm < merged.min_chi_norm):
            merged.min_chi_norm = res.min_chi_norm
        merged.violations = res.violations
        if progress is not None:
            progress(merged.count, total)
        return bool(res.violations)

    if workers == 1:
        for args in chunk_args:
            if fold(_check_mask_chunk(args)):
                break
        return merged
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for res in pool.map(_check_mask_chunk, chunk_args):
            if fold(res):
                break
    return merged


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def exhaustive(length: int, workers: int = 1, fast: bool = False,
               progress: Callable[[int, int], None] | None = None) -> SearchSummary:
    """Check every translation class of nonempty subsets of [0, length).

    Only sets containing 0 are enumerated (odd bitmasks): every nonempty
    subset of [0, L) is the translate of exactly one of them, and all checked
    quantities are translation invariant.
    """
    if not 1 <= length <= 24:
        raise ValueError("length must be in [1, 24]")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    masks = range(1, 1 << length, 2)
    total = len(masks)
    chunk_args = [(masks[i:i + _CHUNK], fast, i) for i in range(0, total, _CHUNK)]
    merged = _run_chunked(chunk_args, workers, progress, total)
    return SearchSummary(
        instances_checked=merged.count,
        max_record=merged.best,
        violations=merged.violations,
        parameters={
            "mode": "exhaustive",
            "length": length,
            "workers": workers,
            "fast": fast,
            "canonicalization": "translation (sets containing 0)",
            "raw_set_count": (1 << length) - 1,
        },
        stats={"max_by_span": dict(sorted(merged.max_by_span.items())),
               "min_chi_second_norm": merged.min_chi_norm},
    )


def random_sets(trials: int, length: int, density, seed: int,
                workers: int = 1, fast: bool = False,
                progress: Callable[[int, int], None] | None = None) -> SearchSummary:
    """Check ``trials`` random subsets of [0, length), empty draws skipped.

    Each point enters independently with probability ``density``; the draw
    sequence is fully determined by ``seed``.
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    density = Fraction(density)
    if not 0 < density < 1:
        raise ValueError("density must lie strictly between 0 and 1")
    rng = random.Random(seed)
    threshold = float(density)
    masks = []
    for _ in range(trials):
        mask = 0
        for i in range(length):
            if rng.random() < threshold:
                mask |= 1 << i
        if mask:
            masks.append(mask)
    chunk_args = [(tuple(masks[i:i + _CHUNK]), fast, i)
                  for i in range(0, len(masks), _CHUNK)]
    merged = _run_chunked(chunk_args, workers, progress, len(masks))
    return SearchSummary(
        instances_checked=merged.count,
        max_record=merged.best,
        violations=merged.violations,
        parameters={
            "mode": "random_sets",
            "trials": trials,
            "length": length,
            "density": str(density),
            "seed": seed,
            "generator": GENERATOR_ID,
            "workers": workers,
            "fast": fast,
        },
        stats={"empty_draws_skipped": trials - len(masks),
               "max_by_span": dict(sorted(merged.max_by_span.items())),
               "min_chi_second_norm": merged.min_chi_norm},
    )


def _check_function_instance(values: tuple[int, ...], fast: bool,
                             ) -> tuple[GeneralRatioRecord | None, list[Violation]]:
    """Boundary-bound checks and the norm ratio for one integer-valued draw.

    The ratio is recorded for exploration only: no analogue of the indicator
    bound is asserted for general functions.
    """
    f = LatticeFunction.make(0, values)
    if f.is_zero():
        return None, []
    source_norm = lp_norm(forward_difference(f, 2), 1)
    if source_norm == 0:
        return None, []

    subject = {"offset": f.offset, "values": [str(v) for v in f.values]}
    violations: list[Violation] = []

    gf = AnalyzedFunction.from_lattice(f)
    if funeq_rhs(gf) < second_norm(gf):
        violations.append(Violation("boundary_bound_source", subject, {
            "funeq_rhs": str(funeq_rhs(gf)),
            "second_norm": str(second_norm(gf)),
        }))

    profile = maximal_profile_fast(f) if fast else maximal_profile(f)
    gm = AnalyzedFunction.from_profile(profile)
    max_norm = second_norm(gm)
    if funeq_rhs(gm) < max_norm:
        violations.append(Violation("boundary_bound_maximal", subject, {
            "funeq_rhs": str(funeq_rhs(gm)),
            "second_norm": str(max_norm),
        }))

    record = GeneralRatioRecord(f.offset, tuple(int(v) for v in f.values),
                                source_norm, max_norm, max_norm / source_norm)
    return record, violations


def random_functions(trials: int, length: int, value_bound: int, seed: int,
                     fast: bool = False,
                     progress: Callable[[int, int], None] | None = None) -> SearchSummary:
    """Ratio exploration over random integer-valued functions on [0, length).

    Values are uniform on [-value_bound, value_bound]; draws with vanishing
    second-difference norm are skipped.  Only the boundary-bound consistency
    is asserted; the observed ratio distribution is reported, not bounded.
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    if value_bound < 1:
        raise ValueError("value_bound must be a positive integer")
    rng = random.Random(seed)
    best: GeneralRatioRecord | None = None
    ratios: list[Fraction] = []
    violations: tuple[Violation, ...] = ()
    checked = 0
    for t in range(trials):
        values = tuple(rng.randint(-value_bound, value_bound) for _ in range(length))
        record, found = _check_function_instance(values, fast)
        if record is None:
            continue
        checked += 1
        ratios.append(record.ratio)
        if best is None or record.ratio > best.ratio:
            best = record
        if found:
            violations = tuple(found)
            break
        if progress is not None and checked % 100 == 0:
            progress(checked, trials)

    ratios.sort()
    quantiles = {}
    if ratios:
        quantiles = {
            "min": str(ratios[0]),
            "q25": str(ratios[len(ratios) // 4]),
            "median": str(ratios[len(ratios) // 2]),
            "q75": str(ratios[(3 * len(ratios)) // 4]),
            "max": str(ratios[-1]),
        }
    return SearchSummary(
        instances_checked=checked,
        max_record=best,
        violations=violations,
        parameters={
            "mode": "random_functions",
            "trials": trials,
            "length": length,
            "value_bound": value_bound,
            "seed": seed,
            "generator": GENERATOR_ID,
            "fast": fast,
        },
        stats={"ratio_quantiles": quantiles},
    )


# ---------------------------------------------------------------------------
# Higher-order truncated scans
# ---------------------------------------------------------------------------

def _forward_diff_values(values: list[Fraction], k: int) -> list[Fraction]:
    out = values
    for _ in range(k):
        out = [out[i + 1] - out[i] for i in range(len(out) - 1)]
    return out


def higher_derivative_scan(a: IndexSet, k: int, truncation: int) -> TruncatedScan:
    """Truncated sum over |n| <= T of |order-k forward difference of M chi_A|.

    Pre: k >= 3 and T large enough that [-T, T] covers the support hull with
    a k-point margin, so both tails start where the profile is a convex
    hyperbola envelope.  The remainder bound doubles per order above two
    (module docstring); it is strictly positive, never an exactness claim.
    """
    if not a:
        raise ValueError("scan needs a nonempty set")
    if k < 3:
        raise ValueError("scan order k must be at least 3 (lower orders are exact)")
    lo_hull, hi_hull = a.min(), a.max()
    t = truncation
    if t < hi_hull - lo_hull + k or t < max(abs(lo_hull), abs(hi_hull)) + k:
        raise ValueError("truncation too small: [-T, T] must cover the hull with a k margin")

    chi = LatticeFunction.from_set(a)
    values = [maximal_at(chi, n) for n in range(-t, t + k + 1)]
    diffs = _forward_diff_values(values, k)          # order-k difference at -T .. T
    value = sum((abs(d) for d in diffs), Fraction(0))

    def m(n: int) -> Fraction:
        return maximal_at(chi, n)

    def bound_right(order: int, start: int) -> Fraction:
        if order == 2:
            return m(start) - m(start + 1)
        return bound_right(order - 1, start + 1) + bound_right(order - 1, start)

    def bound_left(order: int, start: int) -> Fraction:
        if order == 2:
            return m(start + 2) - m(start + 1)
        return bound_left(order - 1, start + 1) + bound_left(order - 1, start)

    remainder = bound_right(k, t + 1) + bound_left(k, -t - 1)
    return TruncatedScan(value, remainder, t, k, a)
