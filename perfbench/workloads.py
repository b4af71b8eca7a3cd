"""The three workloads: seeded inputs, the call each item makes, exact checks.

All three are closed loops with one client in one process: the next item
starts only when the last one has finished.  Inputs come from the seed
alone, and maxreg sees only the generated inputs.  Checks run outside the
timed region, each output's right after its call and the sample checks
after the loop.  They never share code with the package, except the
production calls they check.
"""

from __future__ import annotations

import bisect
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from adapter import read_scan

HALF = Fraction(1, 2)

# Per-span maximum ratio of ||(M chi_A)''||_1 / ||chi_A''||_1 over sets
# containing 0 with max(A) = span, pinned once from exhaustive(15,
# fast=False), the naive-oracle path.  A span's maximum does not depend on
# the sweep length, so the pins serve every length up to 15.
PINNED_MAX_RATIO_BY_SPAN = tuple(Fraction(r) for r in (
    "1/2", "1/3", "5/12", "1/2", "1/2", "1/2", "1/2", "1/2",
    "1/2", "1/2", "1/2", "1/2", "1/2", "1/2", "1/2"))


@dataclass(frozen=True)
class Item:
    """One input: a finite set of integers, plus the scan order if any."""

    index: int
    elements: tuple[int, ...]
    order: int = 0

    @property
    def literal(self) -> str:
        return set_literal(self.elements)


def set_literal(elements) -> str:
    """Run-merged literal, e.g. (0, 2, 3, 4) -> '0,2-4'."""
    runs: list[list[int]] = []
    for x in elements:
        if runs and x == runs[-1][1] + 1:
            runs[-1][1] = x
        else:
            runs.append([x, x])
    return ",".join(str(lo) if lo == hi else f"{lo}-{hi}" for lo, hi in runs)


def block_count(elements) -> int:
    return sum(1 for i, x in enumerate(elements) if i == 0 or x != elements[i - 1] + 1)


def random_hull_set(rng: random.Random, width: int, density: float) -> tuple[int, ...]:
    """A subset of [0, width) that contains both ends, so its hull width is ``width``."""
    inner = [x for x in range(1, width - 1) if rng.random() < density]
    return (0, *inner, width - 1) if width > 1 else (0,)


def mask_elements(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


# ---------------------------------------------------------------------------
# Independent references for the checks
# ---------------------------------------------------------------------------

def second_norm_from_profile(p: list[Fraction]) -> Fraction:
    """sum over Z of |Mf(n+1) + Mf(n-1) - 2 Mf(n)| from the profile on [a-1, b+1].

    Outside the window the profile is a convex hyperbola envelope with
    vanishing differences, so each tail telescopes to one edge difference.
    """
    interior = sum((abs(p[i + 1] + p[i - 1] - 2 * p[i]) for i in range(1, len(p) - 1)),
                   Fraction(0))
    left, right = p[1] - p[0], p[-2] - p[-1]
    if left < 0 or right < 0:
        raise ValueError("profile tails are not monotone towards the window edges")
    return interior + left + right


def reference_profile(elements) -> list[Fraction]:
    """M chi_A on [a-1, b+1], by suffix maxima over window starts: O(m^2).

    An algorithm of its own, apart from both of maxreg's: for each start i it
    keeps the best average over ends j >= t while t runs down to i.  Windows
    leaving [a-1, b+1] only add zeros, so they never win.
    """
    lo = elements[0] - 1
    m = elements[-1] - lo + 2
    u = [0] * m
    for x in elements:
        u[x - lo] = 1
    prefix = [0]
    for v in u:
        prefix.append(prefix[-1] + v)
    best = [(0, 1)] * m
    for i in range(m):
        bn, bd = 0, 1
        pi = prefix[i]
        for j in range(m - 1, i - 1, -1):
            num, den = prefix[j + 1] - pi, j - i + 1
            if num * bd > bn * den:
                bn, bd = num, den
            cn, cd = best[j]
            if bn * cd > cn * bd:
                best[j] = (bn, bd)
    return [Fraction(n, d) for n, d in best]


def right_tail(elements) -> tuple[list[int], list[tuple[int, int]]]:
    """M chi_A on (b, oo), b = max(A), as hyperbola pieces: (starts, [(c, i)]).

    There M chi_A(n) = max over i in A of c_i / (n + 1 - i), c_i = |A n [i, b]|.
    Piece t holds c / (n + 1 - i) on [starts[t], starts[t + 1]).  As n grows
    the maximiser moves to smaller i and never back: for i < j the ratio of
    the i-th to the j-th hyperbola increases with n.  The last piece, i =
    min(A), reaches infinity.
    """
    count = len(elements)

    def best(n: int, upto: int) -> int:     # argmax over indices <= upto, ties to the lowest
        bi = 0
        for j in range(1, upto + 1):
            if (count - j) * (n + 1 - elements[bi]) > (count - bi) * (n + 1 - elements[j]):
                bi = j
        return bi

    n = elements[-1] + 1
    cur = best(n, count - 1)
    starts, pieces = [], []
    while True:
        c, i = count - cur, elements[cur]
        starts.append(n)
        pieces.append((c, i))
        if cur == 0:
            return starts, pieces
        # first n' at which an earlier start j beats i: c_j (n'+1-i) > c (n'+1-j)
        n = min((c * (1 - elements[j]) - (count - j) * (1 - i)) // (count - j - c) + 1
                for j in range(cur))
        cur = best(n, cur - 1)


def _tail_value(tail, n: int) -> Fraction:
    starts, pieces = tail
    c, i = pieces[bisect.bisect_right(starts, n) - 1]
    return Fraction(c, n + 1 - i)


def _kth_difference(value, n: int, k: int) -> Fraction:
    return sum((-1) ** (k - j) * math.comb(k, j) * value(n + j) for j in range(k + 1))


def _tail_sum(tail, k: int, lo: int | None, hi: int | None) -> Fraction:
    """Sum of |order-k forward difference| of a tail over starts m in [lo, hi].

    None stands for an infinite end.  Where m .. m+k lie on one piece
    c / x, x = m + 1 - i, the difference is c k! / (x (x+1) ... (x+k)) in
    absolute value and its sum telescopes: the sum over x in [p, q] is
    c (k-1)! (1/R(p) - 1/R(q+1)) with R(x) = x (x+1) ... (x+k-1).  The k
    starts before each piece boundary are summed one by one.
    """
    starts, pieces = tail
    lo = starts[0] if lo is None else max(lo, starts[0])
    total = Fraction(0)
    for t, (c, i) in enumerate(pieces):
        end = starts[t + 1] - 1 if t + 1 < len(starts) else None
        p = max(lo, starts[t])
        q = _lower(hi, None if end is None else end - k)
        if q is None or p <= q:
            total += math.factorial(k - 1) * c * (
                Fraction(1, math.prod(range(p + 1 - i, p + 1 - i + k)))
                - (0 if q is None else Fraction(1, math.prod(range(q + 2 - i, q + 2 - i + k)))))
        if end is not None:
            for m in range(max(p, end - k + 1), _lower(hi, end) + 1):
                total += abs(_kth_difference(lambda x: _tail_value(tail, x), m, k))
    return total


def _lower(x: int | None, y: int | None) -> int | None:
    """min(x, y), with None as +oo."""
    return y if x is None else x if y is None else min(x, y)


class ScanReference:
    """Sums of |order-k forward difference of M chi_A| over Z or [-T, T], exactly.

    Independent of maxreg: the window comes from ``reference_profile``, and
    both tails from ``right_tail`` (the left one on the reflected set, since
    M chi_A(n) = M chi_{-A}(-n)).
    """

    def __init__(self, elements, k: int) -> None:
        self.a, self.b, self.k = elements[0], elements[-1], k
        self.window = reference_profile(elements)               # on [a-1, b+1]
        self.right = right_tail(elements)                       # n > b
        self.left = right_tail(tuple(-x for x in reversed(elements)))    # -n for n < a

    def value(self, n: int) -> Fraction:
        if n > self.b:
            return _tail_value(self.right, n)
        if n < self.a:
            return _tail_value(self.left, -n)
        return self.window[n - self.a + 1]

    def total(self, lo: int | None = None, hi: int | None = None) -> Fraction:
        """Sum over n in [lo, hi]; None stands for an infinite end."""
        k = self.k
        # starts n > b lie on the right tail; starts n < a - k have n .. n+k on
        # the left tail, where Delta^k M(n) = +-Delta^k h(-n-k) for h(m) = M(-m)
        total = _tail_sum(self.right, k, lo, hi)
        total += _tail_sum(self.left, k, None if hi is None else -hi - k,
                           None if lo is None else -lo - k)
        first = self.a - k if lo is None else max(lo, self.a - k)
        last = self.b if hi is None else min(hi, self.b)
        for n in range(first, last + 1):
            total += abs(_kth_difference(self.value, n, k))
        return total


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class SweepNarrow:
    """``exhaustive(L)`` on 1 worker: the acceptance-gate sweep of [0, L)."""

    name = "sweep-narrow"
    verb = "report"                 # CLI verb of the traced per-layer probes
    e2e_span = "search.exhaustive"

    samples = 0

    def __init__(self, length: int = 15) -> None:
        self.length = length
        self.raw_sets = (1 << length) - 1
        # A sweep may check every raw set, one set per translation class (the
        # odd masks), or one per translation-and-reflection class: an odd mask
        # and its bit reversal hold mirrored sets.
        odd = range(1, 1 << length, 2)
        mirrored = sum(1 for m in odd if m <= int(f"{m:b}"[::-1], 2))
        self.class_counts = {self.raw_sets, len(odd), mirrored}

    def item(self, seed: int, i: int) -> Item:
        return Item(i, ())          # the sweep draws nothing

    def run(self, adapter, item: Item):
        return adapter.production("search.exhaustive")(self.length, workers=1)

    def warm_up(self, adapter) -> None:
        adapter.production("search.exhaustive")(min(self.length, 8), workers=1)

    def probe_item(self, seed: int, i: int) -> Item:
        rng = random.Random(f"{self.name}:probe:{seed}:{i}")
        return Item(i, mask_elements(rng.randrange(1, 1 << self.length, 2)))

    def check(self, item: Item, summary) -> str | None:
        if summary.violations:
            return f"violations: {[v.kind for v in summary.violations]}"
        if summary.instances_checked not in self.class_counts:
            return (f"{summary.instances_checked} sets checked, not one of "
                    f"{sorted(self.class_counts)}: raw sets, translation classes, "
                    f"translation-and-reflection classes")
        best = summary.max_record
        if best.ratio != HALF or len(best.set) != 1:
            return f"max ratio {best.ratio} at {best.set}, expected 1/2 at a singleton"
        got = {span: rec.ratio for span, rec in summary.stats["max_by_span"].items()}
        want = dict(enumerate(PINNED_MAX_RATIO_BY_SPAN[:self.length]))
        if got != want:
            return f"per-span maximum ratios {got} differ from the oracle pins"
        return None

    def sample_checks(self, adapter, kept) -> dict[int, str]:
        return {}


class ReportWide:
    """``maxreg report <set> --format json`` on sets of hull width ``width``."""

    name = "report-wide"
    verb = "report"
    e2e_span = "cli.main"
    densities = (Fraction(1, 8), Fraction(1, 2), Fraction(7, 8))

    raw_sets = 1

    def __init__(self, width: int = 512, samples: int = 2) -> None:
        self.width = width
        self.samples = samples      # profiles checked against the reference oracle

    def item(self, seed: int, i: int) -> Item:
        rng = random.Random(f"{self.name}:{seed}:{i}")
        density = float(self.densities[i % len(self.densities)])
        return Item(i, random_hull_set(rng, self.width, density))

    probe_item = item

    def run(self, adapter, item: Item):
        return adapter.cli(["report", item.literal, "--format", "json"])

    def warm_up(self, adapter) -> None:
        adapter.cli(["report", "0,2,5-9", "--format", "json"])

    def check(self, item: Item, output) -> str | None:
        rc, text = output
        if rc != 0:
            return f"exit code {rc}"
        d = json.loads(text)
        a = item.elements
        if d["set"] != list(a):
            return "report is for another set"
        blocks = block_count(a)
        if Fraction(d["chi_second_norm"]) != 4 * blocks:
            return f"chi_second_norm {d['chi_second_norm']} != 4*{blocks}"
        if Fraction(d["chi_first_norm"]) != 2 * blocks:
            return f"chi_first_norm {d['chi_first_norm']} != 2*{blocks}"
        if d["window"] != [a[0] - 1, a[-1] + 1]:
            return f"window {d['window']}"
        p = [Fraction(v) for v in d["profile_values"]]
        if len(p) != a[-1] - a[0] + 3:
            return "profile does not cover the window"
        norm = second_norm_from_profile(p)
        if Fraction(d["max_second_norm"]) != norm:
            return f"max_second_norm {d['max_second_norm']} != telescoped {norm}"
        ratio = Fraction(d["ratio"])
        if ratio != norm / (4 * blocks) or ratio > 3:
            return f"ratio {ratio}"
        lo = a[0] - 1
        concave = [lo + i for i in range(1, len(p) - 1) if p[i + 1] + p[i - 1] < 2 * p[i]]
        members = set(a)
        if d["lemma1"] != "ok" or any(n not in members for n in concave):
            return "Lemma 1 fails on the profile"
        if d["s_minus"] != concave:
            return "s_minus differs from the profile's concave points"
        # M chi(a) + sum over [a, b) of |D M chi| + M chi(b); p[1] is at a = min(A)
        variation = p[1] + p[-2] + sum((abs(p[i + 1] - p[i]) for i in range(1, len(p) - 2)),
                                       Fraction(0))
        if Fraction(d["max_first_variation"]) != variation or variation > 2 * blocks:
            return f"max_first_variation {d['max_first_variation']}"
        return None

    def keep(self, item: Item, output) -> list[str]:
        return json.loads(output[1])["profile_values"]

    def sample_checks(self, adapter, kept) -> dict[int, str]:
        """Profiles of the sampled items against the benchmark's own oracle."""
        return {item.index: "profile differs from the reference oracle"
                for item, values in kept
                if [Fraction(v) for v in values] != reference_profile(item.elements)}


class ScanDeep:
    """``maxreg scan <set> k T --format json`` on sets of hull width ``width``."""

    name = "scan-deep"
    verb = "scan"
    e2e_span = "cli.main"
    orders = (3, 4, 5)

    raw_sets = 1

    def __init__(self, width: int = 64, truncation: int = 2000,
                 nest_extra: int = 100, samples: int = 6) -> None:
        self.width = width
        self.truncation = truncation
        self.nest_extra = nest_extra
        self.samples = samples      # items scanned again at T' for the nesting check

    def item(self, seed: int, i: int) -> Item:
        rng = random.Random(f"{self.name}:{seed}:{i}")
        return Item(i, random_hull_set(rng, self.width, 0.5),
                    self.orders[i % len(self.orders)])

    probe_item = item

    def argv(self, item: Item, truncation: int) -> list[str]:
        return ["scan", item.literal, str(item.order), str(truncation), "--format", "json"]

    def run(self, adapter, item: Item):
        return adapter.cli(self.argv(item, self.truncation))

    def warm_up(self, adapter) -> None:
        adapter.cli(["scan", "0,2", "3", "40", "--format", "json"])

    def _read(self, item: Item, output, truncation: int):
        rc, text = output
        if rc != 0:
            return None, f"exit code {rc}"
        s = read_scan(text)
        if (s["set"], s["order"], s["truncation"]) != (list(item.elements), item.order,
                                                         truncation):
            return None, "scan is for another input"
        if s["value"] < 0 or s["remainder_bound"] < 0:
            return None, "negative value or remainder bound"
        return s, None

    def check(self, item: Item, output) -> str | None:
        """The value against ``ScanReference``: the sum over [-T, T], or over Z
        for an exact scan; either way [v, v + r] must hold the sum over Z."""
        s, err = self._read(item, output, self.truncation)
        if err:
            return err
        ref = ScanReference(item.elements, item.order)
        v, whole = s["value"], ref.total()
        t = self.truncation
        if v != whole and v != ref.total(-t, t):
            return f"value {v} is neither the sum over [-{t}, {t}] nor the sum over Z"
        if not v <= whole <= v + s["remainder_bound"]:
            return f"bracket [{v}, {v} + {s['remainder_bound']}] misses the sum over Z"
        return None

    def keep(self, item: Item, output) -> dict:
        return read_scan(output[1])

    def sample_checks(self, adapter, kept) -> dict[int, str]:
        """For the sampled items, brackets at T and T' > T nest.

        That is, [v', v'+r'] lies inside [v, v+r].  An exact scan (r = 0)
        passes only if both truncations agree exactly.
        """
        bad = {}
        wider = self.truncation + self.nest_extra
        for item, s in kept:
            t, err = self._read(item, adapter.cli(self.argv(item, wider)), wider)
            if err:
                bad[item.index] = f"at T'={wider}: {err}"
            elif not (s["value"] <= t["value"]
                      <= t["value"] + t["remainder_bound"]
                      <= s["value"] + s["remainder_bound"]):
                bad[item.index] = f"brackets at T and T'={wider} do not nest"
        return bad


WORKLOADS = {w.name: w for w in (SweepNarrow, ReportWide, ScanDeep)}


def check_one(workload, item: Item, output) -> str | None:
    """The workload's check; output it cannot read counts as a failure."""
    try:
        return workload.check(item, output)
    except Exception as exc:                # malformed output of any shape
        return f"unreadable output: {exc!r}"


class Checker:
    """Checks each output as it arrives, and keeps only what the sample checks need.

    The sampled item indices are drawn from the seed in advance, out of the
    first ``pool`` items, so the memory held does not grow with the number
    of items a run gets through.
    """

    def __init__(self, workload, seed: int, pool: int) -> None:
        self.workload = workload
        rng = random.Random(f"check:{seed}")
        self.sampled = set(rng.sample(range(pool), min(workload.samples, pool)))
        self.kept: list[tuple[Item, object]] = []
        self.bad: dict[int, str] = {}

    def __call__(self, item: Item, output) -> None:
        err = check_one(self.workload, item, output)
        if err:
            self.bad[item.index] = err
        elif item.index in self.sampled:
            self.kept.append((item, self.workload.keep(item, output)))

    def finish(self, adapter) -> dict[int, str]:
        """Failed items by index, after the sample checks."""
        self.bad.update(self.workload.sample_checks(adapter, self.kept))
        return self.bad
