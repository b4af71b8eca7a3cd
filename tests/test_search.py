import concurrent.futures
import gc
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxreg.lanes as lanes
import maxreg.maximal as maximal
import maxreg.regularity as regularity
import maxreg.reporting as reporting
import maxreg.search as search
from maxreg import (
    GENERATOR_ID,
    IndexSet,
    LatticeFunction,
    MaximalProfile,
    Violation,
    analyze,
    exhaustive,
    higher_derivative_scan,
    maximal_at,
    maximal_profile,
    random_functions,
    random_sets,
    theorem1_report,
)

from conftest import (
    as_dict,
    assert_function_check_matches_oracle,
    Window,
    block_count,
    break_pass,
    corrupt_singleton_kernel,
    function_window,
    index_sets,
    lane_rows,
    lift_edge,
    lift_first_value,
    mirror_mask,
    oracle_battery,
    reference_convexity,
    oracle_scan_bracket,
    oracle_scan_value,
    profile_window,
    random_index_set,
    record_lanes,
    vary_to,
)


def result_fields(summary):
    """Everything that must not depend on worker count."""
    return (summary.instances_checked, summary.max_record,
            summary.violations, summary.stats)


# ---------------------------------------------------------------------------
# exhaustive
# ---------------------------------------------------------------------------

def test_exhaustive_length_one():
    s = exhaustive(1)
    assert s.instances_checked == 1
    assert s.max_record.ratio == Fraction(1, 2)
    assert s.max_record.set.elements == (0,)


def test_exhaustive_length_two():
    # {0} and {1} share the canonical representative {0} (ratio 1/2);
    # {0,1} gives 1/3.
    s = exhaustive(2)
    assert s.instances_checked == 2
    assert s.max_record.ratio == Fraction(1, 2)
    assert s.parameters["raw_set_count"] == 3


def test_exhaustive_rejects_bad_length():
    for length in (0, -1, 25):
        with pytest.raises(ValueError):
            exhaustive(length)


def test_sweeps_reject_nonpositive_workers():
    for workers in (0, -1):
        with pytest.raises(ValueError, match="workers"):
            exhaustive(3, workers=workers)
        with pytest.raises(ValueError, match="workers"):
            random_sets(5, 8, Fraction(1, 2), 1, workers=workers)


def test_exhaustive_worker_count_is_irrelevant():
    s1 = exhaustive(9, workers=1)
    s2 = exhaustive(9, workers=2)
    assert result_fields(s1) == result_fields(s2)
    # four chunks: the ordered reduction across chunks, and mirror pairs
    # whose two masks fall in different chunks
    s1 = exhaustive(14, workers=1)
    s2 = exhaustive(14, workers=2)
    assert s1.instances_checked > 2 * search._CHUNK
    assert result_fields(s1) == result_fields(s2)


class SerialPool:
    """A stand-in for ``ProcessPoolExecutor`` that records its size and runs
    each submitted call at once, in this process.  ``_sweep`` imports the pool from
    :mod:`concurrent.futures` when it builds one, so it is patched there."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        SerialPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


def test_worker_pool_is_capped_by_chunks_and_cpus(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(SerialPool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    serial = exhaustive(13)
    s = exhaustive(13, workers=5000)            # 2 chunks of 2,048 masks
    assert SerialPool.sizes == [2]
    assert s.parameters["workers"] == 5000
    assert result_fields(s) == result_fields(serial)
    assert s.parameters == {**serial.parameters, "workers": 5000}
    # one chunk, or an unknown CPU count: no pool at all
    assert exhaustive(1, workers=5000).parameters["workers"] == 5000
    random_sets(200, 12, Fraction(1, 2), 7, workers=5000)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    exhaustive(13, workers=5000)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    exhaustive(14, workers=5000)                # 4 chunks, 3 CPUs
    assert SerialPool.sizes == [2, 3]


_POOL_FOOTPRINT = """
import contextlib, io, json, os, sys
os.cpu_count = lambda: 2                    # the same pool sizes on any machine
from maxreg import cli, search

def pool_modules():
    return sorted(m for m in sys.modules if m.startswith(("concurrent.futures", "multiprocessing")))

def fields(s):
    return (s.instances_checked, s.max_record, s.violations, s.stats,
            {**s.parameters, "workers": None})

with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv.split()) for argv in (
        "report 0,2 --format json", "scan 0,1 3 1000", "exhaust 10", "random 200 12 1/2 7")]
search.random_functions(300, 12, 4, 1)
one_worker = pool_modules()
same = fields(search.exhaustive(13, workers=2)) == fields(search.exhaustive(13))
print(json.dumps({"codes": codes, "one_worker": one_worker, "same": same,
                  "two_workers": pool_modules()}))
"""


def test_one_worker_verbs_load_no_process_pool():
    # in a fresh interpreter: the verbs and a function sweep on one worker
    # never import the pool, and a sweep on two workers (2 chunks, 2 CPUs)
    # does, with the same summary
    src = os.path.dirname(os.path.dirname(search.__file__))
    done = subprocess.run([sys.executable, "-c", _POOL_FOOTPRINT], capture_output=True,
                          text=True, timeout=300, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0, 0]
    assert result["one_worker"] == []
    assert result["same"]
    assert "concurrent.futures.process" in result["two_workers"]


def test_exhaustive_oracle_audits_the_same_classes(monkeypatch):
    real, audited = regularity.maximal_profile, []

    def counted(f):
        audited.append(IndexSet.from_iterable(as_dict(f)))
        return real(f)

    monkeypatch.setattr(regularity, "maximal_profile", counted)    # analysed and skipped sets
    s = exhaustive(15)
    assert not s.violations
    assert s.stats["sets_evaluated"] == 8383
    # the classes mask >> 1 = 0 mod 512, half of them skipped for their mirror
    assert audited == [IndexSet.from_mask(2 * i + 1) for i in range(0, 1 << 14, 512)]
    assert sum(mirror_mask(a.bits) < a.bits for a in audited) > 0


def test_mirror_audit_reads_the_checked_profile_backwards(monkeypatch):
    # Lower M(2) of {0, 1, 3} from 3/4 to 2/3: the battery of {0, 1, 3}
    # still passes, and only the audit of its skipped mirror {0, 2, 3}
    # (mask 13, class 6) sees the corrupted kernel output.
    real = regularity.set_maxima

    def corrupted(elements):
        nums, dens = real(elements)
        if elements == (0, 1, 3):
            nums, dens = nums[:3] + [2] + nums[4:], dens[:3] + [3] + dens[4:]
        return nums, dens

    monkeypatch.setattr(regularity, "set_maxima", corrupted)
    monkeypatch.setattr(search, "_SPOT_EVERY", 6)    # classes 0 and 6
    assert not exhaustive(3).violations
    s = exhaustive(4)
    assert [v.kind for v in s.violations] == ["fast_path_divergence"]
    assert s.violations[0].subject == {"set": [0, 2, 3]}
    assert s.violations[0].details["fast_profile"][2] == "2/3"
    assert s.violations[0].details["oracle_profile"][2] == "3/4"


def test_exhaustive_fast_equals_naive(monkeypatch):
    s1 = exhaustive(8)
    real, oracle_sets = regularity.maximal_profile, []

    def counted(f):
        oracle_sets.append(f)
        return real(f)

    monkeypatch.setattr(regularity, "maximal_profile", counted)
    monkeypatch.setattr(search, "_SPOT_EVERY", 1)   # every set against the oracle
    s2 = exhaustive(8)
    assert len(oracle_sets) == s2.instances_checked == 128
    assert {f.support_min() for f in oracle_sets} == {0}
    assert len({f.values for f in oracle_sets}) == 128     # each class once
    assert s2.parameters["oracle_spot_check_every"] == 1
    assert not s2.violations
    assert result_fields(s1) == result_fields(s2)


def test_sweeps_echo_the_spot_check_period():
    for s in (exhaustive(3), random_sets(5, 8, Fraction(1, 2), 1),
              random_functions(5, 8, 2, 1)):
        assert s.parameters["oracle_spot_check_every"] == 512
        assert "fast" not in s.parameters


def test_exhaustive_clean_and_monotone_in_length():
    best = Fraction(0)
    for length in range(1, 7):
        s = exhaustive(length)
        assert not s.violations
        assert s.max_record.ratio >= best
        best = s.max_record.ratio


def translation_class_sweep(length):
    """Every odd mask through ``analyze``, folded with Fractions."""
    best, by_span, min_chi = None, {}, None
    for mask in range(1, 1 << length, 2):
        record = analyze(IndexSet.from_mask(mask)).ratio_record()
        if best is None or record.ratio > best.ratio:
            best = record
        span = mask.bit_length() - 1
        if span not in by_span or record.ratio > by_span[span].ratio:
            by_span[span] = record
        if min_chi is None or record.chi_second_norm < min_chi:
            min_chi = record.chi_second_norm
    return 1 << (length - 1), best, dict(sorted(by_span.items())), min_chi


def test_exhaustive_mirror_pairs_equal_a_translation_class_sweep():
    for length in range(1, 12):
        s = exhaustive(length)
        assert (s.instances_checked, s.max_record, s.stats["max_by_span"],
                s.stats["min_chi_second_norm"]) == translation_class_sweep(length)
        palindromes = sum(f"{m:b}" == f"{m:b}"[::-1] for m in range(1, 1 << length, 2))
        assert s.stats["sets_evaluated"] == (s.instances_checked + palindromes) // 2
    assert exhaustive(4).parameters["canonicalization"].startswith(
        "translation and reflection")


# SHA-256 of ``json.dumps(reporting.summary_to_dict(...), indent=2)`` for set
# sweeps.  They hold every record of the fold: the tie-breaks within and
# across chunks, ``max_by_span`` and ``min_chi_second_norm``; the last one
# folds chunks that come back from worker processes.  When a summary changes
# on purpose (schema, tool version, the draw), regenerate them by printing
# that hash for each sweep, and say in CHANGES.md why every summary changed.
_SET_SWEEP_SHA256 = [
    ((exhaustive, (1,), {}), "fca2a8f86362578924f600d8971ede91dc640c1a937bedb1e0f6d8982b8e0a7d"),
    ((exhaustive, (5,), {}), "4e86d3b5d0d70f894136a1b7675329238ca4924e877ca748e0e821d1a94d7f8c"),
    ((exhaustive, (9,), {}), "6b0c08d7523f48e55685ce1ad9f3a10ea8ea8735508f14ce37c9fb9da86308f7"),
    ((exhaustive, (12,), {}), "85b047be6a8ee132c0e9a4de577348f2833011edbecacb78b823a2b00decdbcc"),
    ((exhaustive, (15,), {}), "de09c8b0c55899390eb15ba0feaabea541b2b6a64a332310721b538afa86c801"),
    ((exhaustive, (16,), {}), "6468d210d6c6d1c7edf8a4c62e51eaeb718f0079503087868138e10f958cdd8e"),
    ((exhaustive, (17,), {}), "1393c9119ca2cf97925e7ee2eb1d9e08e99c731eea42ea1ae79da9906921ea0f"),
    ((exhaustive, (18,), {}), "7580aa79e890b40c5a593b965100f5933d8fbfc648f58c0b8b681ad4575f71d5"),
    ((random_sets, (200, 300, Fraction(1, 2), 13), {}),
     "115f78507931af9642ce472c7aa80fcc4063bd33a7dd1a2d0c8f3a3711b89447"),
    ((random_sets, (4500, 10, Fraction(1, 2), 9), {"workers": 2}),
     "6a392a391efe3dcd04c2fdd68793b88b579b8a210d439948100f0aa47f5e9c20"),
]


@pytest.mark.parametrize("sweep, expected", _SET_SWEEP_SHA256,
                         ids=["exhaustive(1)", "exhaustive(5)", "exhaustive(9)", "exhaustive(12)",
                              "exhaustive(15)", "exhaustive(16)", "exhaustive(17)",
                              "exhaustive(18)",
                              "random_sets(200, 300)",
                              "random_sets(4500, 10, workers=2)"])
def test_set_sweep_summaries_are_byte_identical_to_the_pinned_hashes(sweep, expected):
    run, args, kwargs = sweep
    summary = json.dumps(reporting.summary_to_dict(run(*args, **kwargs)), indent=2)
    assert hashlib.sha256(summary.encode()).hexdigest() == expected


def test_exhaustive_leaves_no_memory_behind():
    # The fold holds integers and masks only, and every tuple a set's check
    # builds is built at its final size; a tuple built from an iterator of
    # unknown length would fill CPython's per-size tuple free lists.
    exhaustive(3)
    gc.disable()
    tracemalloc.start()
    try:
        exhaustive(13)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert held < 50_000


def test_sweep_winners_are_masks_and_records_are_rebuilt_once(monkeypatch):
    # The fold state is integers only: (norm over D_L, D_L ||chi''||_1, mask)
    # per span and overall.  The records come from re-analysing the final
    # winners, one analysis per key, after the sweep.
    tables = lanes.tables(9)
    d = tables.d
    assert d == 27720                   # lcm(1, ..., 11)
    chunk = search._check_mask_chunk((range(1, 1 << 9, 2), 0, tables))
    assert set(chunk.winners) == set(range(9)) | {None}
    for key, (norm, scaled, mask) in chunk.winners.items():
        an = analyze(IndexSet.from_mask(mask))
        assert (norm, scaled) == (an.second_norm * (d // an.denominator), d * an.chi_second_norm)
        assert Fraction(norm, scaled) == an.ratio_record().ratio
        assert key is None or key == mask.bit_length() - 1
    real, rebuilt = search.analyze, []

    def counted(a):
        rebuilt.append(a)
        return real(a)

    monkeypatch.setattr(search, "analyze", counted)
    s = exhaustive(9)
    assert len(rebuilt) == 10
    assert sorted(a.elements for a in rebuilt) == \
        sorted(r.set.elements for r in (*s.stats["max_by_span"].values(), s.max_record))


def test_shared_denominator_analysis_equals_analyze(monkeypatch):
    # The exhaustive sweep checks each set over D_13, analyze over the set's
    # own lcm: the same rationals, positions, block count and battery.  Each set
    # a chunk checks is read out of the lane columns the chunk computed, as the
    # row a lane that fails a test passes to the per-set check.
    tables = lanes.tables(13)
    records = record_lanes(monkeypatch)
    search._check_mask_chunk((range(1, 1 << 13, 2), 0, tables))
    [(masks, columns, _)] = records
    assert masks == [m for m in range(1, 1 << 13, 2) if mirror_mask(m) >= m]
    for mask, v in zip(masks, lane_rows(masks, columns, tables)):
        elements = IndexSet.from_mask(mask).elements
        blocks = block_count(IndexSet(elements))
        shared = regularity._analysis(IndexSet(elements), blocks, tables.d, v,
                                      regularity._convexity(v))
        an = analyze(IndexSet(elements))
        assert shared.set == an.set
        assert shared.denominator == tables.d == 360360       # lcm(1, ..., 15)
        assert shared.profile_values() == an.profile_values()
        for name in ("second_norm", "variation"):
            assert shared.fraction(getattr(shared, name)) == an.fraction(getattr(an, name))
        assert list(map(shared.fraction, shared.first)) == list(map(an.fraction, an.first))
        assert (shared.minus, shared.left, shared.right) == (an.minus, an.left, an.right)
        assert shared.concave == an.concave
        assert shared.chi_second_norm == an.chi_second_norm == 4 * block_count(an.set)
        assert shared.violations(True) == an.violations(True) == []
        assert regularity._check_set(elements, blocks, tables.d, v, True) == \
            (shared.second_norm, [])


def _record_checked_sets(monkeypatch) -> list:
    """Record (elements, blocks, D, v, spot check, norm, violations, variation, verdict)
    for each set a sweep checks, from the first ``_gate`` call of its check."""
    real_gate, real_check, records, gates = regularity._gate, regularity._check_set, [], []

    def gate(*args):
        gates.append((args[-1], real_gate(*args)))
        return gates[-1][1]

    def check(elements, blocks, d, v, spot):
        gates.clear()
        norm, found = real_check(elements, blocks, d, v, spot)
        records.append((elements, blocks, d, v, spot, norm, found, *gates[0]))
        return norm, found

    monkeypatch.setattr(regularity, "_gate", gate)
    monkeypatch.setattr(regularity, "_check_set", check)
    return records


def _lane_verdict(d: int, mask: int, norm: int, variation: int, flags: int, runs: int,
                  w: int) -> tuple:
    """The four tests of the gate as the flags of a lane of ``w`` bits give them: (a
    negative tail term, Theorem 1, Lemma 1, the variation), for the set of ``mask`` over
    D = ``d``.  The lane's block count ``runs`` is the set's, and its Theorem 1 and
    variation flags are the lane norm and variation against 12 and 2 blocks D."""
    blocks = block_count(IndexSet.from_mask(mask))
    assert runs == blocks, mask
    verdict = tuple(flags >> w - bit & 1 == 1 for bit in (1, 3, 2, 4))
    assert verdict[1::2] == (norm > 12 * blocks * d, variation > 2 * blocks * d), mask
    return verdict


def test_lean_gate_matches_the_fraction_battery(monkeypatch):
    # The gate's verdict on each set a chunk checks is the Fraction battery's
    # (conftest.oracle_battery), with the audit also due on a spot check, and
    # the norm and the variation it tests are analyze's.  On the tabled path:
    # the lane verdicts of every odd mask below 2^14, against the oracle profile,
    # and the sets the chunk sends on to the per-set check are the spot-checked
    # ones.  On the untabled path: 2,000 seeded sets of hull width 40 to 300,
    # against the profile the gate read.
    lane_records, records = record_lanes(monkeypatch), _record_checked_sets(monkeypatch)
    tables = lanes.tables(14)
    d = tables.d
    assert not search._check_mask_chunk((range(1, 1 << 14, 2), 0, tables)).violations
    [(masks, _, verdicts)] = lane_records
    assert masks == [m for m in range(1, 1 << 14, 2) if mirror_mask(m) >= m]
    fired = []
    for mask, norm, variation, flags, runs in zip(masks, *verdicts):
        a = IndexSet.from_mask(mask)
        an = analyze(a)
        assert Fraction(norm, d) == an.fraction(an.second_norm)
        assert Fraction(variation, d) == an.fraction(an.variation)
        spot = (mask >> 1) % 512 == 0
        expected = oracle_battery(profile_window(maximal_profile(LatticeFunction.from_set(a))),
                                  a, block_count(a))
        verdict = _lane_verdict(d, mask, norm, variation, flags, runs, tables.width)
        assert (spot or verdict[0], *verdict[1:]) == (spot or expected[0], *expected[1:]), mask
        if spot or any(expected):
            fired.append(a.elements)
    assert [r[0] for r in records] == fired
    assert all(r[4] and r[6] == [] for r in records)
    del records[:]
    rng = random.Random(2028)
    widths = [rng.randint(40, 300) for _ in range(2000)]
    search._check_mask_chunk(([1 | rng.getrandbits(w - 2) << 1 | 1 << (w - 1) for w in widths],
                              0, None))
    assert [r[0][-1] + 1 for r in records] == widths
    for elements, blocks, d, v, spot, norm, found, variation, verdict in records:
        a = IndexSet(elements)
        an = analyze(a)
        assert Fraction(norm, d) == an.fraction(an.second_norm)
        assert Fraction(variation, d) == an.fraction(an.variation)
        g = Window(elements[0] - 1, tuple([Fraction(x, d) for x in v]))
        expected = oracle_battery(g, a, block_count(a))
        assert verdict == (spot or expected[0], *expected[1:]), elements
        assert found == []


def test_gate_matches_the_fraction_battery_at_each_boundary():
    # Small integer windows over small denominators put each test of the gate
    # on both sides of its boundary and on it: a zero edge step, a norm of
    # exactly 3 ||chi''||_1, a variation of exactly ||chi'||_1, and concave
    # points at the value 1 and off it.  The set is where the window is 1, as
    # for a maximal profile, with a drawn block count.  The verdict is the
    # Fraction battery's every time, and every boundary is met.
    rng = random.Random(28)
    met = {"edge step 0": 0, "ratio 3": 0, "variation ||chi'||_1": 0,
           "concave at 1": 0, "concave off 1": 0}
    for _ in range(20_000):
        d, blocks = rng.randint(1, 3), rng.randint(1, 2)
        v = [rng.randint(-d, 2 * d) for _ in range(rng.randint(3, 9))]
        a = IndexSet.from_iterable([i for i, x in enumerate(v) if x == d])
        g = Window(0, tuple([Fraction(x, d) for x in v]))
        p = regularity._convexity(v)
        verdict = regularity._gate(False, d, v, blocks, p, regularity._variation(v, p[1]))
        assert verdict == oracle_battery(g, a, blocks), (v, d, blocks)
        norm, first, _, concave = reference_convexity(v)
        met["edge step 0"] += first[0] == 0 or first[-1] == 0
        met["ratio 3"] += norm == 12 * blocks * d
        met["variation ||chi'||_1"] += \
            v[1] + sum(abs(x) for x in first[1:-1]) + v[-2] == 2 * blocks * d
        met["concave at 1"] += any(c and x == d for c, x in zip(concave, v))
        met["concave off 1"] += any(c and x != d for c, x in zip(concave, v))
    assert min(met.values()) >= 100, met


def _odd_mask_chunks(masks) -> list:
    return [masks[i:i + 2048] for i in range(0, len(masks), 2048)]


def test_lane_columns_are_the_set_kernel_scaled_by_the_quotients():
    # Every odd mask below 2^16, and seeded chunks at L = 17 and 18, the last length
    # with 1-byte rank lanes and the first with 2-byte ones, and at L = 20 and 24: the
    # row of a lane on the mask's window is set_maxima times D_L // length, point by point.
    rng = random.Random(30)
    for length, masks in ((16, list(range(1, 1 << 16, 2))),
                          (17, [rng.getrandbits(17) | 1 for _ in range(2048)]),
                          (18, [rng.getrandbits(18) | 1 for _ in range(2048)]),
                          (20, [rng.getrandbits(20) | 1 for _ in range(2048)]),
                          (24, [rng.getrandbits(24) | 1 for _ in range(4096)])):
        tables = lanes.tables(length)
        for chunk in _odd_mask_chunks(masks):
            for mask, row in zip(chunk, lane_rows(chunk, lanes.columns(chunk, tables), tables)):
                nums, dens = regularity.set_maxima(IndexSet.from_mask(mask).elements)
                assert row == [n * (tables.d // m) for n, m in zip(nums, dens)], mask


def test_lane_columns_are_the_oracle_profile_on_the_whole_frame():
    # Every odd mask below 2^12 against the oracle profile on its window, and every
    # odd mask below 2^8 at every point of the frame [-1, 9] against maximal_at.
    tables = lanes.tables(12)
    d = tables.d
    masks = list(range(1, 1 << 12, 2))
    for chunk in _odd_mask_chunks(masks):
        for mask, row in zip(chunk, lane_rows(chunk, lanes.columns(chunk, tables), tables)):
            oracle = maximal_profile(LatticeFunction.from_set(IndexSet.from_mask(mask))).values
            assert [Fraction(x, d) for x in row] == list(oracle), mask
    tables = lanes.tables(9)
    masks = list(range(1, 1 << 8, 2))
    columns = lanes.columns(masks, tables)
    for k, mask in enumerate(masks):
        chi = LatticeFunction.from_set(IndexSet.from_mask(mask))
        row = lanes.row(columns, k, 11, tables)
        assert [Fraction(x, tables.d) for x in row] == \
            [maximal_at(chi, x) for x in range(-1, 10)], mask


def test_lane_verdicts_are_the_per_set_pass_and_gate():
    # Every odd mask below 2^14 in 32-bit lanes, and seeded chunks at L = 20 and
    # L = 24 in 64-bit lanes: the lane norm is the one _check_set returns, the lane
    # variation the one it tests, and the lane verdict _gate's on the same row.
    rng = random.Random(14)
    for length, masks in ((14, list(range(1, 1 << 14, 2))),
                          (20, [rng.getrandbits(20) | 1 for _ in range(2048)]),
                          (24, [rng.getrandbits(24) | 1 for _ in range(2048)])):
        tables = lanes.tables(length)
        d, w = tables.d, tables.width
        assert w == (32 if length <= 16 else 64)
        for chunk in _odd_mask_chunks(masks):
            columns = lanes.columns(chunk, tables)
            for mask, v, norm, variation, flags, runs in zip(
                    chunk, lane_rows(chunk, columns, tables), *lanes.verdicts(chunk, columns, tables)):
                elements = IndexSet.from_mask(mask).elements
                blocks = block_count(IndexSet(elements))
                p = regularity._convexity(v)
                assert regularity._check_set(elements, blocks, d, v, False) == (norm, [])
                assert variation == regularity._variation(v, p[1])
                assert _lane_verdict(d, mask, norm, variation, flags, runs, w) == \
                    regularity._gate(False, d, v, blocks, p, variation)
                assert flags & ~(3 << w - 2) == 0


def test_lane_verdicts_are_the_per_set_pass_over_a_whole_sweep(monkeypatch):
    # exhaustive (17) is the first sweep with 64-bit value lanes and the last with 1-byte
    # rank lanes.  Every mask a chunk checks in lanes has the lane norm _check_set returns
    # on the lane's row, the variation it tests, the flags of _gate and its block count;
    # the pinned summaries alone do not see a wrong norm that no test flags.
    records = record_lanes(monkeypatch)
    s = exhaustive(17)
    tables = lanes.tables(17)
    d, w = tables.d, tables.width
    assert (w, tables.rank_bytes) == (64, 1)
    seen = 0
    for masks, columns, verdicts in records:
        rows = zip(*[lanes.unpack(column, len(masks), w) for column in columns])
        for mask, row, norm, variation, flags, runs in zip(masks, rows, *verdicts):
            v = list(row[:mask.bit_length() + 2])
            elements = IndexSet.from_mask(mask).elements
            blocks = (mask & ~(mask << 1)).bit_count()
            p = regularity._convexity(v)
            assert regularity._check_set(elements, blocks, d, v, False) == (norm, []), mask
            assert variation == regularity._variation(v, p[1]), mask
            assert _lane_verdict(d, mask, norm, variation, flags, runs, w) == \
                regularity._gate(False, d, v, blocks, p, variation)
            seen += 1
    assert seen == s.stats["sets_evaluated"] > 32_000


def test_rank_tables_order_the_window_values():
    # The window values c * (D_L // n), 0 <= c <= n <= L + 2, are D_L times the Farey
    # fractions of order L + 2: the decoded ranks are those values in increasing order,
    # every count of every length maps to the rank of its own value and 0 to 0, and a
    # rank lane is 1 byte exactly while there are at most 128 ranks, through L = 17
    # (|F_19| = 121), and 2 from L = 18 (|F_20| = 129).
    sizes = []
    for length in range(1, 25):
        tables = lanes.tables(length)
        d, r, to_rank, decode = tables.d, tables.rank_bytes, tables.to_rank, tables.decode
        farey = sorted({Fraction(c, n) for n in range(1, length + 3) for c in range(n + 1)})
        values = [sum(decode[b][k] << 8 * b for b in range(8)) for k in range(len(farey))]
        assert values == [x * d for x in farey]
        assert all(x < y for x, y in zip(values, values[1:]))
        assert len(to_rank) == length + 3 and all(len(t) == 256 and t[0] == 0 for t in to_rank)
        for n in range(1, length + 3):
            assert [values[to_rank[n][c]] for c in range(n + 1)] == \
                [c * (d // n) for c in range(n + 1)]
        assert r == (1 if len(farey) <= 128 else 2)
        sizes.append(len(farey))
    assert (sizes[14], sizes[16], sizes[17], sizes[23]) == (97, 121, 129, 213)
    assert [length for length, size in enumerate(sizes, 1) if size <= 128] == list(range(1, 18))


def _reference_set_checks(masks, base_index):
    """The untabled per-set checks as one generator of (mask, classes, blocks, D, norm over
    D, violations) per set."""
    for i, mask in enumerate(masks, base_index):
        elements = IndexSet.from_mask(mask).elements
        d, v = regularity._scaled(*regularity.set_maxima(elements))
        blocks = (mask & ~(mask << 1)).bit_count()
        yield mask, 1, blocks, d, *regularity._check_set(elements, blocks, d, v, i % 512 == 0)


def _reference_lane_checks(masks, base_index, tables):
    """The lane checks as one generator over the masks in order: a mask's class count, 0
    for an audit alone, and the bounds read off each lane's norm and variation."""
    d = tables.d
    mirrors = [mirror_mask(mask) for mask in masks]
    checked = [mask for mask, mirror in zip(masks, mirrors) if mirror >= mask]
    columns = lanes.columns(checked, tables)
    norms, variations, flags, _ = lanes.verdicts(checked, columns, tables)
    k = 0
    for i, (mask, mirror) in enumerate(zip(masks, mirrors), base_index):
        spot = i % 512 == 0
        elements = IndexSet.from_mask(mask).elements
        if mirror < mask:
            if spot:
                yield mask, 0, 0, d, 0, regularity._audit_mirror(
                    elements, IndexSet.from_mask(mirror).elements)
            continue
        blocks, norm, found = (mask & ~(mask << 1)).bit_count(), norms[k], ()
        if spot or flags[k] or norm > 12 * blocks * d or variations[k] > 2 * blocks * d:
            v = lanes.row(columns, k, mask.bit_length() + 2, tables)
            norm, found = regularity._check_set(elements, blocks, d, v, spot)
        yield mask, 1 if mirror == mask else 2, blocks, d, norm, found
        k += 1


def _reference_mask_chunk(args) -> search._Fold:
    """_check_mask_chunk as a loop that folds each set in order up to the first violation:
    a set can only beat the overall winner by beating its span's."""
    masks, base_index, tables = args
    count = evaluated = 0
    winners, min_chi, violations = {}, None, ()
    checks = _reference_set_checks(masks, base_index) if tables is None else \
        _reference_lane_checks(*args)
    for mask, classes, blocks, d, norm, found in checks:
        if classes:
            chi, scaled = 4 * blocks, 4 * blocks * d
            span = mask.bit_length() - (mask & -mask).bit_length()
            if search._beats((norm, scaled), winners.get(span)):
                winners[span] = entry = (norm, scaled, mask)
                if search._beats(entry, winners.get(None)):
                    winners[None] = entry
            count += classes
            evaluated += 1
            if min_chi is None or chi < min_chi:
                min_chi = chi
        if found:
            violations = tuple(found)
            break
    return search._Fold(count, evaluated, winners, min_chi, violations)


def test_chunk_fold_is_the_per_set_loop(monkeypatch):
    # _check_mask_chunk folds a chunk from its lane verdicts at once; the reference folds
    # each set in order.  They agree on every chunk of exhaustive (14), on seeded chunks
    # at L = 20 with audits of checked and skipped masks, on chunks of random sets in
    # draw order, and on a chunk broken mid-way, where both stop after the violating set.
    for args in search._mask_chunks(range(1, 1 << 14, 2), lanes.tables(14)):
        assert search._check_mask_chunk(args) == _reference_mask_chunk(args)
    rng = random.Random(32)
    tables = lanes.tables(20)
    for base in (0, 2048, 4096):
        args = (sorted(rng.getrandbits(20) | 1 for _ in range(2048)), base, tables)
        assert search._check_mask_chunk(args) == _reference_mask_chunk(args)
    for width in (12, 40):
        args = ([rng.randrange(1, 1 << width) for _ in range(600)], 0, None)
        assert search._check_mask_chunk(args) == _reference_mask_chunk(args)
    break_pass(monkeypatch, (0, 1, 5, 7, 10), lambda p, v, d: (50 * d, *p[1:]))
    args = (range(1, 1 << 12, 2), 0, lanes.tables(12))
    fold = search._check_mask_chunk(args)
    assert fold == _reference_mask_chunk(args)
    assert [v.kind for v in fold.violations] == ["theorem1_ratio"]
    assert fold.evaluated == sum(mirror_mask(m) >= m for m in range(1, 1188, 2)) < 1024


def test_lane_gate_meets_each_boundary_on_both_sides(monkeypatch):
    # Synthetic windows over small denominators, packed one per lane of an
    # exhaustive (7) chunk of palindromic masks, put each of the gate's four tests
    # on both sides of its boundary and on it.  The lane norm and variation are the
    # direct sums, the lane verdict is the Fraction battery's every time, and the
    # chunk sends on to the per-set check exactly the windows with a failed test.
    # The window of a mask with top bit b is the frame's [-1, b + 1]; the frame
    # points past it hold random values that no test may read.
    rng = random.Random(30)
    length = 7
    met = {name: 0 for name in ("tail fails", "tail holds", "edge step 0", "ratio above 3",
                                "ratio at most 3", "ratio 3", "lemma fails", "lemma holds",
                                "variation above", "variation at most", "variation at")}
    checked = []

    def check(elements, blocks, d, v, spot):
        checked.append(v)
        return 0, []

    monkeypatch.setattr(regularity, "_check_set", check)
    for _ in range(40):
        d = rng.randint(1, 3)
        masks, frames = [], []
        for _ in range(500):
            b = rng.randint(0, length - 1)
            half = [True] + [rng.random() < 0.5 for _ in range(b // 2)]
            masks.append(sum(1 << i for i in range(b + 1) if half[min(i, b - i)]))
            frames.append([rng.randint(0, 2 * d) for _ in range(length + 2)])
        tables = lanes.tables(length)._replace(d=d)
        columns = [lanes.pack(column, tables.width) for column in zip(*frames)]
        monkeypatch.setattr(lanes, "columns", lambda masks, tables: columns)
        records = record_lanes(monkeypatch)
        checked.clear()
        search._check_mask_chunk((masks, 1, tables))         # no spot check
        [(_, _, verdicts)] = records
        fired = []
        for mask, frame, norm, variation, flags, runs in zip(masks, frames, *verdicts):
            assert mirror_mask(mask) == mask
            v = frame[:mask.bit_length() + 2]
            blocks = block_count(IndexSet.from_mask(mask))
            direct, first, _, concave = reference_convexity(v)
            assert norm == direct
            assert variation == v[1] + sum(map(abs, first[1:-1])) + v[-2]
            g = Window(0, tuple([Fraction(x, d) for x in v]))
            a = IndexSet.from_iterable([i for i, x in enumerate(v) if x == d])
            expected = oracle_battery(g, a, blocks)
            assert _lane_verdict(d, mask, norm, variation, flags, runs, 32) == expected, (v, d, mask)
            if any(expected):
                fired.append(v)
            met["tail fails" if expected[0] else "tail holds"] += 1
            met["edge step 0"] += first[0] == 0 or first[-1] == 0
            met["ratio above 3" if expected[1] else "ratio at most 3"] += 1
            met["ratio 3"] += direct == 12 * blocks * d
            met["lemma fails" if expected[2] else "lemma holds"] += 1
            met["variation above" if expected[3] else "variation at most"] += 1
            met["variation at"] += variation == 2 * blocks * d
        assert checked == fired
    assert min(met.values()) >= 100, met


def test_lane_fold_sends_on_exactly_the_lanes_past_a_bound(monkeypatch):
    # The lane verdicts flag a norm above 12 blocks D and a variation above 2 blocks D
    # (test_lane_gate_meets_each_boundary_on_both_sides), and the chunk reads only the
    # flags: lanes with one of the four flag bits set, and no others, go on to the
    # per-set check with the lane's block count, even at or past a bound without a
    # flag.  No class of exhaustive (9) is spot-checked from index 1.
    tables = lanes.tables(9)
    d, w = tables.d, tables.width
    cases = [(12, 2, 0), (13, 3, 0), (0, 0, 1 << w - 1), (0, 0, 1 << w - 2),
             (12, 0, 1 << w - 3), (0, 2, 1 << w - 4), (0, 0, 0)]
    sent, expected = [], []

    def verdicts(masks, columns, tables):
        out = [], [], [], []
        for k, mask in enumerate(masks):
            blocks = block_count(IndexSet.from_mask(mask))
            norm, variation, flags = cases[k % len(cases)]
            for column, value in zip(out, (norm * blocks * d, variation * blocks * d, flags, blocks)):
                column.append(value)
            if flags:
                expected.append((mask, blocks))
        return out

    def check(elements, blocks, d, v, spot):
        sent.append((sum(1 << x for x in elements), blocks))
        return 0, []

    monkeypatch.setattr(lanes, "verdicts", verdicts)
    monkeypatch.setattr(regularity, "_check_set", check)
    search._check_mask_chunk((range(1, 1 << 9, 2), 1, tables))
    assert sent == expected and len(sent) > 70


def _lane_extremes(length: int, masks: list[int]) -> tuple[int, int, int, int, list[int]]:
    """(D_L, the largest column value, the largest norm, the largest variation, the
    flags) of ``masks`` checked in one chunk of lanes of exhaustive (``length``)."""
    tables = lanes.tables(length)
    columns = lanes.columns(masks, tables)
    norms, variations, flags, _ = lanes.verdicts(masks, columns, tables)
    values = [x for k in range(len(masks)) for x in lanes.row(columns, k, length + 2, tables)]
    return tables.d, max(values), max(norms), max(variations), list(flags)


def test_lanes_stay_below_2_to_the_48_at_length_24():
    # D_24 < 2^35, and a lane sums at most 2 * 26 values of at most 2 D_24: below
    # 2^48, so bit 63 of every 64-bit lane is free.  Every column and verdict of
    # seeded chunks at L = 24, with the full, the alternating and the sparsest masks,
    # stays below it, some norm is not 0, and the flags use bits 62 and 63 only.
    assert lanes.tables(24).width == 64
    rng = random.Random(48)
    masks = [(1 << 24) - 1, 0x555555, 0xAAAAAB, 1, 1 | 1 << 23, 0x924925]
    masks += [rng.getrandbits(24) | 1 for _ in range(2042)]
    d, value, norm, variation, flags = _lane_extremes(24, masks)
    assert d < 1 << 35 and 2 * 26 * 2 * d < 1 << 48
    assert max(value, norm, variation) < 1 << 48
    assert value == d and norm > 0
    assert all(f & ~(3 << 62) == 0 for f in flags)


def test_lanes_stay_below_2_to_the_31_up_to_length_16():
    # The lanes are 32 bits wide exactly while 4 (L + 2) D_L < 2^31, which holds up
    # to L = 16, D_16 = lcm(1, ..., 18).  At L = 16 every column and verdict of
    # seeded chunks, with the full, the alternating and the sparsest masks, stays
    # below 2^31, so bit 31 of every lane is free, some norm of each chunk is not 0,
    # and the flags use bits 30 and 31 only.
    assert [lanes.tables(length).width for length in range(1, 25)] == \
        [32] * 16 + [64] * 8
    assert 4 * 18 * 12_252_240 < 1 << 31 <= 4 * 19 * 232_792_560
    rng = random.Random(31)
    masks = [(1 << 16) - 1, 0x5555, 0xAAAB, 1, 1 | 1 << 15, 0x9249, 0x4925]
    masks += [rng.getrandbits(16) | 1 for _ in range(4089)]
    for chunk in _odd_mask_chunks(masks):
        d, value, norm, variation, flags = _lane_extremes(16, chunk)
        assert d == 12_252_240
        assert max(value, norm, variation) < 1 << 31
        assert value == d and norm > 0
        assert all(f & ~(3 << 30) == 0 for f in flags)


def test_pool_keeps_two_chunks_per_worker_in_flight(monkeypatch):
    # ProcessPoolExecutor.map draws and submits every chunk before the first
    # result comes back.  On 2 workers _sweep draws a chunk only while fewer
    # than 4 are in flight, so at each fold at most (chunks folded before) + 4
    # are drawn, and the result is the 1-worker fold.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(search, "_CHUNK", 128)
    masks, tables = range(1, 1 << 13, 2), lanes.tables(13)     # 32 chunks
    drawn, at_fold = 0, []

    def counted():
        nonlocal drawn
        for args in search._mask_chunks(masks, tables):
            drawn += 1
            yield args

    fold = search._sweep(counted(), search._check_mask_chunk, len(masks), 2,
                         lambda done, total: at_fold.append(drawn))
    assert len(at_fold) == 32 and at_fold[-1] == 32
    assert all(n <= folded + 4 for folded, n in enumerate(at_fold)), at_fold
    assert fold == search._sweep(search._mask_chunks(masks, tables), search._check_mask_chunk,
                                 len(masks), 1, None)


def test_sweep_tables_give_the_denominator_and_the_mirror():
    # The mirrors of a chunk come in one pass, whatever the spans of its masks, and
    # the reversal reads 32 bits: seeded masks up to 2^32 mirror too.
    tables = lanes.tables(24)
    d = tables.d
    assert d == 26_771_144_400 < 1 << 35                    # lcm(1, ..., 26)
    assert [d % n for n in range(1, 27)] == [0] * 26 and tables.frame == 26
    rng = random.Random(22)
    masks = [*range(1, 1 << 16, 2), *[rng.randrange(1 << 16, 1 << 24) | 1 for _ in range(2000)]]
    masks += [rng.randrange(1 << 24, 1 << 32) | 1 for _ in range(2000)]
    for chunk in _odd_mask_chunks(masks):
        assert lanes.mirrors(chunk, tables) == [mirror_mask(mask) for mask in chunk]


def test_cross_chunk_ties_match_a_translation_class_sweep(monkeypatch):
    # 32 chunks of 16 odd masks.  The ratio 1/2 ties at every span, so the
    # winners of many chunks tie, and the fold across chunks must keep the
    # smallest mask as a single sweep in order does.
    monkeypatch.setattr(search, "_CHUNK", 16)
    expected = translation_class_sweep(11)
    for workers in (1, 2):
        s = exhaustive(11, workers=workers)
        assert (s.instances_checked, s.max_record, s.stats["max_by_span"],
                s.stats["min_chi_second_norm"]) == expected


def test_exhaustive_max_by_span_consistent():
    s = exhaustive(7)
    by_span = s.stats["max_by_span"]
    assert set(by_span) == set(range(7))
    assert max(r.ratio for r in by_span.values()) == s.max_record.ratio
    # span-0 class is the singleton
    assert by_span[0].ratio == Fraction(1, 2)


# ---------------------------------------------------------------------------
# translation and reflection invariance
# ---------------------------------------------------------------------------

def test_ratio_translation_invariant():
    rng = random.Random(307)
    for _ in range(25):
        a = random_index_set(rng, 10)
        t = rng.randint(-20, 20)
        ra, rb = theorem1_report(a), theorem1_report(a.translate(t))
        assert (ra.chi_second_norm, ra.max_second_norm) == \
            (rb.chi_second_norm, rb.max_second_norm)


def test_ratio_reflection_invariant():
    rng = random.Random(311)
    for _ in range(25):
        a = random_index_set(rng, 10)
        ra, rb = theorem1_report(a), theorem1_report(a.reflect())
        assert ra.ratio == rb.ratio


# ---------------------------------------------------------------------------
# random sweeps
# ---------------------------------------------------------------------------

def test_random_sets_zero_trials():
    s = random_sets(0, 16, Fraction(1, 2), 5)
    assert s.instances_checked == 0
    assert s.max_record is None
    assert not s.violations


def test_random_sets_deterministic():
    s1 = random_sets(60, 12, Fraction(1, 3), 42)
    s2 = random_sets(60, 12, Fraction(1, 3), 42)
    assert s1 == s2
    assert s1.parameters["generator"] == GENERATOR_ID


def test_random_sets_worker_count_is_irrelevant():
    s1 = random_sets(80, 10, Fraction(1, 2), 9, workers=1)
    s2 = random_sets(80, 10, Fraction(1, 2), 9, workers=2)
    assert result_fields(s1) == result_fields(s2)
    s1 = random_sets(4500, 10, Fraction(1, 2), 9, workers=1)
    s2 = random_sets(4500, 10, Fraction(1, 2), 9, workers=2)
    assert s1.instances_checked > 2 * search._CHUNK        # three chunks
    assert result_fields(s1) == result_fields(s2)


def test_random_sets_validation():
    with pytest.raises(ValueError):
        random_sets(10, 8, Fraction(0), 1)
    with pytest.raises(ValueError):
        random_sets(10, 8, Fraction(1), 1)
    with pytest.raises(ValueError):
        random_sets(-1, 8, Fraction(1, 2), 1)
    with pytest.raises(ValueError, match="zero denominator"):
        random_sets(10, 8, "1/0", 1)
    for length in (0, -3):
        with pytest.raises(ValueError, match="length"):
            random_sets(5, length, Fraction(1, 2), 1)


def test_random_sets_density_is_exact():
    # a float would enter as its binary expansion, 3602879701896397/2^55 for 0.1
    for density in (0.1, True, Decimal("0.5")):
        with pytest.raises(TypeError, match="density"):
            random_sets(10, 8, density, 1)
    for density in ("0.1", Fraction(1, 10)):
        assert random_sets(10, 8, density, 1).parameters["density"] == "1/10"


def test_random_sets_clean_sweep():
    s = random_sets(300, 20, Fraction(1, 2), 2024)
    assert not s.violations
    assert s.max_record.ratio <= 3


def test_random_sets_large_clean_sweep():
    s = random_sets(10_000, 64, Fraction(1, 2), 42, workers=2)
    assert s.instances_checked == 10_000     # empty draws are essentially impossible
    assert not s.violations
    assert s.max_record.ratio <= 3


def test_random_functions_consistent_with_set_path():
    winner, violations = regularity._check_function((1,), spot_check=True)
    assert not violations
    expected = theorem1_report(IndexSet.from_iterable([0]))
    assert search._function_record(winner).ratio == expected.ratio == Fraction(1, 2)
    # ratio is invariant under scaling
    winner2, _ = regularity._check_function((2,), spot_check=True)
    assert search._function_record(winner2).ratio == Fraction(1, 2)
    assert not search._beats(winner2, winner) and not search._beats(winner, winner2)


def test_random_functions_sweep():
    s = random_functions(150, 12, 4, 7)
    assert not s.violations
    assert s.instances_checked > 0
    assert s.stats["ratio_quantiles"]["max"] == str(s.max_record.ratio)
    assert random_functions(150, 12, 4, 7) == s


def test_random_functions_leave_no_memory_behind():
    # Each draw is built at its final size: a tuple built from a generator is
    # allocated at one size and freed at another, which filled CPython's
    # per-size tuple free lists with about 330 KiB over these draws.
    gc.disable()
    tracemalloc.start()
    try:
        random_functions(4000, 16, 5, 3)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert held < 50_000


def test_random_functions_thousand_trials_clean():
    s = random_functions(1000, 16, 4, 7)
    assert not s.violations
    assert s.instances_checked == 1000


@pytest.mark.parametrize("args, max_record, quantiles", [
    ((1000, 16, 4, 7),
     (0, (1, -2, -3, 0, 0, 4, 2, 0, 3, 0, 4, 1, 0, -4, -1, 1), 66, 25, Fraction(25, 66)),
     {"min": "66623/2162160", "q25": "606617/5012280", "median": "107/672",
      "q75": "771/3760", "max": "25/66"}),
    ((2000, 16, 5, 7),
     (0, (-2, -4, -1, 2, 5, 1, 0, -3, -4, -1, 2, 5, 3, -1, -3, -5), 46,
      Fraction(155, 6), Fraction(155, 276)),
     {"min": "3829/163020", "q25": "2831/23790", "median": "433/2760",
      "q75": "71/350", "max": "155/276"}),
    # length 40: blocks of 42 points
    ((300, 40, 6, 3),
     (0, (5, -3, 0, -1, 0, 5, 0, 3, 2, 4, 5, 3, -2, -6, -2, -2, -1, -3, -4, 1,
          1, -1, 5, 5, 1, -1, -3, 0, 6, -1, -1, 0, -6, 0, 3, -6, 0, -3, 0, 5),
      232, Fraction(4700, 63), Fraction(1175, 3654)),
     {"min": "8613495019/131597165700", "q25": "25900033/207859050",
      "median": "86202077999/571170239640", "q75": "5295823069/29260576800",
      "max": "1175/3654"}),
], ids=["len16-bound4", "len16-bound5", "len40-bound6"])
def test_random_functions_pinned_summaries(args, max_record, quantiles):
    s = random_functions(*args)
    assert s.instances_checked == args[0]
    assert not s.violations
    assert s.max_record == search.GeneralRatioRecord(*max_record)
    assert s.stats == {"ratio_quantiles": quantiles}


# SHA-256 of ``json.dumps(reporting.summary_to_dict(random_functions(*args)),
# indent=2)``.  The first three sweeps profile blocks of at most 18 points,
# the last two blocks of up to 26 and 62.  Any change to the profile kernel
# or the integer pass that alters a single byte of a summary fails here.
# When a summary changes on purpose (schema, tool version, the draw),
# regenerate them by printing that hash for each args tuple, and say in
# CHANGES.md why every summary changed.
_FUNCTION_SWEEP_SHA256 = [
    ((400, 8, 5, 3), "f5d29135d49151aa8700e66d0edb7fe0017339dce1627c78b4192b86b498508e"),
    ((400, 16, 4, 11), "08a5cfde8747aef52fc6244357b5c3bae0e6f5289047eef05e4a2737c023f4e5"),
    ((200, 8, 100, 1), "98dc2f282cd57bb711f8059acbf90eebec9a12160f5a985eb057a8ac75385997"),
    ((300, 24, 5, 3), "089f904d606e9cd4e851e02760fa7000a629263c6bfb6f1d394639429b769c72"),
    ((100, 60, 9, 5), "41cb493d74609a33bbaa80c20d1bff607078588500c1613152df745aa60de449"),
]


@pytest.mark.parametrize("args, expected", _FUNCTION_SWEEP_SHA256,
                         ids=[str(args) for args, _ in _FUNCTION_SWEEP_SHA256])
def test_function_sweep_summaries_are_byte_identical_to_the_pinned_hashes(args, expected):
    summary = json.dumps(reporting.summary_to_dict(random_functions(*args)), indent=2)
    assert hashlib.sha256(summary.encode()).hexdigest() == expected


def test_function_check_matches_the_oracle():
    # signed integer functions, supports of 1 to 64 points
    rng = random.Random(20261018)
    for length in list(range(1, 65)) * 3:
        bound = rng.randint(1, 9)
        values = [rng.randint(-bound, bound) for _ in range(length)]
        values[0] = values[-1] = rng.choice([-bound, bound])
        assert_function_check_matches_oracle(LatticeFunction.make(rng.randint(-20, 20), values))


def _first_nonzero_draw(trials, length, value_bound, seed):
    """(offset, trimmed values) of the first draw of ``random_functions`` with a nonzero value."""
    rng = random.Random(seed)
    for _ in range(trials):
        values = [rng.randint(-value_bound, value_bound) for _ in range(length)]
        nonzero = [i for i, x in enumerate(values) if x]
        if nonzero:
            return nonzero[0], values[nonzero[0]:nonzero[-1] + 1]


@pytest.mark.parametrize("kind", ["boundary_bound_source", "boundary_bound_maximal"])
def test_broken_function_bound_halts_the_function_sweep(monkeypatch, kind):
    # Each side of Var(M f) <= Var(f) is broken in turn.  On the source side
    # the first differences of the draw are zeroed, so that Var(f) reads 0
    # against a positive Var(M f); on the maximal side the maximal pass gets
    # one more inner first difference, so that D * Var(M f) is D * Var(f) + 1.
    # Either way the sweep must stop at the first nonzero draw with exactly
    # one first_derivative_bound violation.  The case ids name the side that
    # is broken, as they did when the function sweep checked boundary bounds.
    real = regularity._integer_passes

    def broken(ints):
        source, d, v, maximal = real(ints)
        if kind == "boundary_bound_source":
            return (source[0], [0] * len(source[1]), *source[2:]), d, v, maximal
        norm, first, *rest = maximal
        excess = d * sum(map(abs, source[1])) + 1 - (v[1] + sum(map(abs, first[1:-1])) + v[-2])
        return source, d, v, (norm, [*first[:-1], excess, first[-1]], *rest)

    monkeypatch.setattr(regularity, "_integer_passes", broken)
    offset, ints = _first_nonzero_draw(50, 8, 3, 5)
    f = LatticeFunction.make(offset, ints)
    g = function_window(f)
    variation = sum(abs(g.at(n + 1) - g.at(n)) for n in range(g.lo, g.hi))
    if kind == "boundary_bound_source":
        # Var(M f) over Z: the profile on [a - 1, b + 1], its tails falling to 0
        p = profile_window(maximal_profile(f))
        reported = 0, p.at(p.lo + 1) + p.at(p.hi - 1) + sum(
            abs(p.at(n + 1) - p.at(n)) for n in range(p.lo + 1, p.hi - 1))
    else:
        reported = variation, variation + Fraction(1, real(ints)[1])
    s = random_functions(50, 8, 3, 5)
    assert s.instances_checked == 1
    assert s.violations == (Violation(
        "first_derivative_bound", {"offset": offset, "values": [str(x) for x in ints]},
        {"source_first_variation": str(reported[0]),
         "max_first_variation": str(reported[1])}),)


def test_function_variation_bound_holds_on_every_small_function():
    # Every nonzero function on [0, L), L = 1..6, with values in [-2, 2]:
    # 19,524 draws, none with a violation, and the largest Var(M f) / Var(f)
    # exactly 1 (M f of a constant block has its variation).
    checked, largest = 0, Fraction(0)
    for length in range(1, 7):
        for values in itertools.product(range(-2, 3), repeat=length):
            if not any(values):
                continue
            winner, violations = regularity._check_function(values, spot_check=False)
            assert violations == [] and winner is not None, values
            # each variation over Z as a sum over its whole window: f vanishes
            # beyond it, and the profile's tails rise from 0 to its edge values
            nonzero = [i for i, x in enumerate(values) if x]
            _, d, v, _ = regularity._integer_passes(list(values[nonzero[0]:nonzero[-1] + 1]))
            source = (0, *values, 0)
            variation = v[0] + sum(abs(y - x) for x, y in zip(v, v[1:])) + v[-1]
            largest = max(largest, Fraction(variation, d * sum(
                abs(y - x) for x, y in zip(source, source[1:]))))
            checked += 1
    assert checked == 19_524
    assert largest == 1


def test_random_functions_skip_all_zero_draws():
    # on one point with values in [-1, 1], about a third of the draws are 0:
    # each is skipped and not counted as checked, but progress, one call per
    # chunk of draws, counts it as drawn: (draws drawn so far, trials), so that
    # a clean sweep ends at (trials, trials)
    rng = random.Random(4)
    zeros = [rng.randint(-1, 1) for _ in range(350)].count(0)
    seen = []
    s = random_functions(350, 1, 1, 4, progress=lambda done, total: seen.append((done, total)))
    assert 0 < zeros and s.instances_checked == 350 - zeros
    assert s.stats["ratio_quantiles"]["min"] == s.stats["ratio_quantiles"]["max"] == "1/2"
    assert s.instances_checked >= 200
    assert seen == [(350, 350)]
    # 7,000 draws: four chunks of draws, the last one partial
    rng = random.Random(4)
    zeros = [rng.randint(-1, 1) for _ in range(7000)].count(0)
    seen = []
    s = random_functions(7000, 1, 1, 4, progress=lambda done, total: seen.append((done, total)))
    assert s.instances_checked == 7000 - zeros > 2 * search._CHUNK
    assert seen == [(search._CHUNK, 7000), (2 * search._CHUNK, 7000),
                    (3 * search._CHUNK, 7000), (7000, 7000)]


def test_function_sweep_summary_text():
    # the max ratio line of a function sweep names its draw: offset and values
    s = random_functions(10, 8, 5, 3)
    lines = reporting.summary_text(s).split("\n")
    assert lines[:2] == ["instances checked  10", "max ratio          1543/4788 at offset 0, "
                         "values [-1, 1, 3, 1, 4, 0, 3, 4]"]
    assert s.max_record.function_values == (-1, 1, 3, 1, 4, 0, 3, 4)
    assert s.max_record.ratio == Fraction(1543, 4788)
    # a function sweep with no instances
    empty = random_functions(0, 8, 5, 3)
    assert (empty.instances_checked, empty.max_record, empty.violations) == (0, None, ())
    assert reporting.summary_text(empty).split("\n")[:4] == [
        "instances checked  0", "max record         none (no instances)",
        "ratio_quantiles    {}", "violations         none"]
    data = reporting.summary_to_dict(empty)
    assert data["max_record"] is None and data["stats"] == {"ratio_quantiles": {}}


_MARKED_DRAW = [9] * 12                 # outside the value bound 4: never drawn


def _check_draws_breaking_the_marked_one(args):
    """``search._check_draw_chunk`` with a violation added to the marked draw's
    check, patched in whichever process runs the chunk."""
    real = regularity._check_function

    def check(values, spot_check):
        winner, found = real(values, spot_check)
        if values == _MARKED_DRAW:
            found = [*found, Violation("injected", {"values": values}, {})]
        return winner, found

    regularity._check_function = check
    try:
        return search._check_draw_chunk(args)
    finally:
        regularity._check_function = real


def test_function_sweep_ignores_the_worker_count(monkeypatch):
    # _sweep over the three chunks of random_functions(5000, 12, 4, 17), in this
    # process and on a pool of two: the same fold, which is the function
    # sweep's, and with a violation in the second chunk the same halt at the
    # same draw
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    rng = random.Random(17)
    draws = [[rng.randint(-4, 4) for _ in range(12)] for _ in range(5000)]
    assert all(map(any, draws))                 # no draw is skipped
    chunks = [(draws[i:i + search._CHUNK], i) for i in range(0, 5000, search._CHUNK)]
    assert len(chunks) == 3
    folds = [search._sweep(chunks, search._check_draw_chunk, 5000, workers, None)
             for workers in (1, 2)]
    assert folds[0] == folds[1]
    s = random_functions(5000, 12, 4, 17)
    assert folds[0].count == s.instances_checked == 5000
    assert folds[0].violations == s.violations == ()
    assert search._function_record(folds[0].winners[None]) == s.max_record
    assert str(max(folds[0].ratios)) == s.stats["ratio_quantiles"]["max"]
    chunks[1][0][100] = _MARKED_DRAW
    folds = [search._sweep(chunks, _check_draws_breaking_the_marked_one, 5000, workers, None)
             for workers in (1, 2)]
    assert folds[0] == folds[1]
    assert folds[0].count == search._CHUNK + 101
    assert folds[0].violations == (Violation("injected", {"values": _MARKED_DRAW}, {}),)


def test_function_sweep_chunks_change_nothing(monkeypatch):
    # Chunks of 300 nonzero draws, not a multiple of the audit period: the
    # winner and the ratios fold across chunks into the one-chunk summary,
    # and the oracle still audits the nonzero draws numbered 0 mod 512.
    rng = random.Random(5)
    draws = [[rng.randint(-1, 1) for _ in range(2)] for _ in range(1100)]
    nonzero = [values for values in draws if any(values)]
    assert len(nonzero) < 1100
    whole = random_functions(1100, 2, 1, 5)
    real, audited = regularity.maximal_profile, []

    def counted(f):
        audited.append(f)
        return real(f)

    monkeypatch.setattr(regularity, "maximal_profile", counted)
    monkeypatch.setattr(search, "_CHUNK", 300)
    assert random_functions(1100, 2, 1, 5) == whole
    assert audited == [LatticeFunction.make(0, nonzero[i]) for i in range(0, len(nonzero), 512)]


def test_random_functions_validation():
    with pytest.raises(ValueError):
        random_functions(10, 8, 0, 1)
    with pytest.raises(ValueError):
        random_functions(-2, 8, 2, 1)
    for length in (0, -3):
        with pytest.raises(ValueError, match="length"):
            random_functions(5, length, 2, 1)


# ---------------------------------------------------------------------------
# violation policy
# ---------------------------------------------------------------------------

def test_violation_halts_sweep(monkeypatch):
    # the integer pass of {0, 2}, in whatever denominator the sweep uses: norm 4 * 8
    break_pass(monkeypatch, (0, 2), lambda p, v, d: (32 * d, *p[1:]))
    s = exhaustive(6)
    assert s.violations
    assert s.violations[0].kind == "theorem1_ratio"
    assert s.violations[0].subject == {"set": [0, 2]}
    assert s.violations[0].details["ratio"] == "4"
    # the sweep stopped at the offending instance
    assert s.instances_checked < 32


# One contract broken at a time, for one set, in its integer pass or in its
# kernel profile: (set, fault, the one violation kind expected).  A fault is
# installed on the monkeypatch fixture and holds in the sweeps and in analyze
# alike.  {0} is the first set of both sweeps below, so the oracle audits it;
# {0, 2} is not audited.  Position 2 of {0, 2}'s window [-1, 3] is the point 1.
_BROKEN_ALONE = [
    ((0, 2), lambda mp: break_pass(mp, (0, 2), lambda p, v, d: (25 * d, *p[1:])),
     "theorem1_ratio"),
    ((0, 2), lambda mp: break_pass(mp, (0, 2), lambda p, v, d: (
        *p[:3], [False, True, True, True, False])), "lemma1_concavity"),
    ((0, 2), lambda mp: break_pass(mp, (0, 2), vary_to(5)), "first_derivative_bound"),
    ((0, 2), lambda mp: lift_edge(mp, (0, 2), 0), "fast_path_divergence"),
    ((0, 2), lambda mp: lift_edge(mp, (0, 2), -1), "fast_path_divergence"),
    ((0,), corrupt_singleton_kernel, "fast_path_divergence"),
]


@pytest.mark.parametrize("elements, fault, kind", _BROKEN_ALONE,
                         ids=["theorem1", "lemma1", "variation", "left_tail", "right_tail",
                              "spot_check"])
def test_each_contract_broken_alone_halts_both_set_sweeps(monkeypatch, elements, fault, kind):
    # Each sweep must stop at the broken set with exactly the violations the
    # broken set's Analysis writes, so a sweep gate that skipped one test fails here.
    fault(monkeypatch)
    expected = tuple(analyze(IndexSet(elements)).violations(spot_check=True))
    assert [v.kind for v in expected] == [kind]
    assert expected[0].subject == {"set": list(elements)}
    # exhaustive(5) visits {0} first and {0, 2} third; random_sets draws {0}
    # first and {0, 2} fourth from seed 1
    for s, visits in ((exhaustive(5), {(0,): 1, (0, 2): 3}),
                      (random_sets(200, 3, "1/2", 1), {(0,): 1, (0, 2): 4})):
        assert s.violations == expected
        assert s.instances_checked == visits[elements]


def test_fast_path_divergence_is_a_violation(monkeypatch):
    corrupt_singleton_kernel(monkeypatch)
    s = exhaustive(3)                  # mask 1 = {0} is spot-checked first
    assert s.instances_checked == 1
    assert [v.kind for v in s.violations] == ["fast_path_divergence"]
    assert s.violations[0].subject == {"set": [0]}
    assert s.violations[0].details == {"fast_profile": ["1/2", "1/2", "1/2"],
                                       "oracle_profile": ["1/2", "1", "1/2"]}


_WIDTH_10 = IndexSet.from_iterable([0, 1, 4, 6, 7, 9])


def test_integer_audit_finds_one_unit_over_d_at_each_point():
    # The kernel profile of a width-10 set, over its D, raised by one unit at
    # each position in turn: one divergence each, both profiles as exact strings.
    an = analyze(_WIDTH_10)
    d, f, subject = an.denominator, LatticeFunction.from_set(_WIDTH_10), {"set": [0, 1, 4, 6, 7, 9]}
    oracle = [str(maximal_at(f, n)) for n in range(an.lo, an.hi + 1)]
    assert oracle == ["2/3", "1", "1", "2/3", "5/8", "1", "3/4", "1", "1", "3/4", "1", "3/5"] \
        == [str(x) for x in an.profile_values()]
    assert regularity.audit_profile(d, an.scaled, f, subject) == []
    for i in range(len(an.scaled)):
        v = list(an.scaled)
        v[i] += 1
        fast = [str(Fraction(x, d)) for x in v]
        assert fast[:i] + fast[i + 1:] == oracle[:i] + oracle[i + 1:]
        assert Fraction(fast[i]) == Fraction(oracle[i]) + Fraction(1, d)
        assert regularity.audit_profile(d, v, f, subject) == [Violation(
            "fast_path_divergence", subject, {"fast_profile": fast, "oracle_profile": oracle})]


def test_integer_audit_counts_a_length_mismatch_as_a_divergence():
    an = analyze(_WIDTH_10)
    f, subject = LatticeFunction.from_set(_WIDTH_10), {"set": [0, 1, 4, 6, 7, 9]}
    for v in (an.scaled[:-1], an.scaled[1:], (), (*an.scaled, an.scaled[-1])):
        found = regularity.audit_profile(an.denominator, v, f, subject)
        assert [x.kind for x in found] == ["fast_path_divergence"]
        assert found[0].details["fast_profile"] == [str(an.fraction(x)) for x in v]
        assert found[0].details["oracle_profile"] == [str(x) for x in an.profile_values()]


def test_function_sweep_divergence_is_a_violation(monkeypatch):
    real = regularity.window_maxima

    def doubled(u):
        nums, dens = real(u)
        return [2 * n for n in nums], dens

    monkeypatch.setattr(regularity, "window_maxima", doubled)
    s = random_functions(50, 8, 3, 5)          # the first instance is spot-checked
    assert s.instances_checked == 1
    v = s.violations[0]
    assert v.kind == "fast_path_divergence"
    assert v.subject == {"offset": s.max_record.offset,
                         "values": [str(x) for x in s.max_record.function_values]}
    assert set(v.details) == {"fast_profile", "oracle_profile"}
    assert [Fraction(x) for x in v.details["fast_profile"]] == \
        [2 * Fraction(x) for x in v.details["oracle_profile"]]


def test_function_sweep_negative_tail_is_a_divergence(monkeypatch):
    # The first draw is spot-checked and clean; the second is not, and its
    # lifted edge gives a negative tail term, which calls in the oracle.
    lift_first_value(monkeypatch, skip=1)
    s = random_functions(3, 6, 3, 1)
    assert s.instances_checked == 2
    assert [v.kind for v in s.violations] == ["fast_path_divergence"]
    fast, oracle = (s.violations[0].details[k] for k in ("fast_profile", "oracle_profile"))
    assert Fraction(fast[0]) == Fraction(oracle[0]) + 1
    assert fast[1:] == oracle[1:]


def test_function_draw_with_a_negative_tail_is_only_a_divergence(monkeypatch):
    # The kernel lifts the left edge of every draw's profile by 100 and its first
    # inner value by 50.  The first draw, (-2, 1, 3, 3, 3, -3), then has a negative
    # tail term and a profile variation of 529/5 against Var(f) = 16.  A profile
    # without its tail guarantee is audited and nothing else: the variation bound
    # is not checked on it and it wins nothing.
    real = regularity.window_maxima

    def lifted(u):
        nums, dens = real(u)
        return [nums[0] + 100 * dens[0], nums[1] + 50 * dens[1], *nums[2:]], dens

    monkeypatch.setattr(regularity, "window_maxima", lifted)
    s = random_functions(3, 6, 3, 1)
    assert s.instances_checked == 1
    assert [v.kind for v in s.violations] == ["fast_path_divergence"]
    assert s.max_record is None
    assert s.stats["ratio_quantiles"] == {}


def test_negative_tail_without_divergence_is_a_violation(monkeypatch):
    # If the oracle agreed with a negative tail, the hyperbola-tail
    # guarantee itself would be false: that too is a violation, not a pass.
    lift_first_value(monkeypatch)
    an = analyze(IndexSet.from_iterable([0, 2]))
    assert an.first[0] < 0                  # a negative left tail term
    lifted = an.profile_values()
    monkeypatch.setattr(regularity, "maximal_profile",
                        lambda f: MaximalProfile(f, (0, 2), (-1, 3), lifted, True))
    kinds = [v.kind for v in an.violations()]
    assert kinds[0] == "tail_guarantee"


# ---------------------------------------------------------------------------
# higher-order scans
# ---------------------------------------------------------------------------

def test_scan_validation():
    a = IndexSet.from_iterable([0, 1])
    with pytest.raises(ValueError):
        higher_derivative_scan(IndexSet(()), 3, 100)
    with pytest.raises(ValueError):
        higher_derivative_scan(a, 2, 100)
    with pytest.raises(ValueError):
        higher_derivative_scan(a, 3, 3)           # margin too small
    with pytest.raises(ValueError):
        higher_derivative_scan(IndexSet.from_iterable([50, 51]), 3, 10)


def test_scan_accepts_the_smallest_covering_truncation():
    # [-13, 13] covers the hull [-10, 10] with a 3-point margin on each side,
    # though it is narrower than the hull width plus 3.
    a = IndexSet.from_iterable([-10, 10])
    scan = higher_derivative_scan(a, 3, 13)
    low, high = oracle_scan_bracket(a, 3, 13)
    assert low == scan.truncated_value < scan.value <= high
    assert scan.value == higher_derivative_scan(a, 3, 1000).value
    with pytest.raises(ValueError, match="truncation too small"):
        higher_derivative_scan(a, 3, 12)


def test_scan_bracket_is_self_consistent():
    # The exact value lies inside the oracle's bracket at T=100 and T=1000.
    for elements in ((0,), (0, 1)):
        a = IndexSet.from_iterable(elements)
        for t in (100, 1000):
            low, high = oracle_scan_bracket(a, 3, t)
            scan = higher_derivative_scan(a, 3, t)
            assert low == scan.truncated_value < scan.value <= high


def test_scan_bracket_against_deep_truncation():
    # The value is the sum over Z, so it does not depend on the truncation.
    a = IndexSet.from_iterable([0])
    scans = [higher_derivative_scan(a, 3, t) for t in (100, 1000, 10_000)]
    assert len({scan.value for scan in scans}) == 1
    low, high = oracle_scan_bracket(a, 3, 10_000)
    assert low == scans[-1].truncated_value < scans[0].value <= high
    for elements, k in (((0, 1), 4), ((-7, -5, -4, 2), 5)):
        a = IndexSet.from_iterable(elements)
        assert len({higher_derivative_scan(a, k, t).value for t in (40, 41, 400)}) == 1


def test_scan_remainder_never_zero():
    # Every tail carries mass: the sum over Z exceeds the truncated sum.
    rng = random.Random(313)
    for _ in range(10):
        a = random_index_set(rng, 6)
        for k in (3, 4, 5):
            scan = higher_derivative_scan(a, k, 64)
            assert scan.value > scan.truncated_value > 0
            assert scan.order == k and scan.truncation == 64


def test_scan_value_monotone_in_truncation():
    a = IndexSet.from_iterable([0, 3])
    scans = [higher_derivative_scan(a, 4, t) for t in (20, 40, 80, 160)]
    truncated = [scan.truncated_value for scan in scans]
    assert truncated == sorted(set(truncated))
    assert truncated == [oracle_scan_bracket(a, 4, t)[0] for t in (20, 40, 80, 160)]
    assert truncated[-1] < scans[-1].value


def test_truncation_split_where_t_cuts_a_tail():
    # {0} u [100, 110] has right-tail pieces from 111 and from 1200, so T
    # cuts a tail for every T from the smallest accepted one to past 1200;
    # the reflection cuts the left tail, and the translate moves the cut.
    # Every T in that range falls inside a closed-form run or inside a
    # boundary run (the k starts before a piece boundary).  The oracle's low
    # end, the sum over [-T, T], is prefix-summed from one pass of maximal_at.
    base = IndexSet.from_iterable([0, *range(100, 111)])
    top = 1212
    for a in (base, base.reflect(), base.translate(-50)):
        _, _, (right, _), (left, _) = maximal._set_tails(a.elements)
        assert (right, left) == {110: ([111, 1200], [1, 10]), 0: ([1, 10], [111, 1200]),
                                 60: ([61, 1150], [51, 60])}[a.max()]
        chi = LatticeFunction.from_set(a)
        values = [maximal_at(chi, n) for n in range(-top, top + 6)]
        for k in (3, 4, 5):
            diffs = values[:2 * top + 1 + k]
            for _ in range(k):
                diffs = [y - x for x, y in zip(diffs, diffs[1:])]
            prefix = [Fraction(0)]              # prefix[j]: sum of |diffs| at n < j - top
            for d in diffs:
                prefix.append(prefix[-1] + abs(d))
            smallest = max(abs(a.min()), abs(a.max())) + k
            assert smallest < max(right[-1], left[-1] + k) < top     # T from the left tail is T - k
            values_over_z = set()
            for t in range(smallest, top + 1):
                scan = higher_derivative_scan(a, k, t)
                assert scan.truncated_value == prefix[top + t + 1] - prefix[top - t], (a, k, t)
                values_over_z.add(scan.value)
            assert len(values_over_z) == 1 and scan.truncated_value < scan.value


def test_scan_value_is_the_oracle_value():
    # {0} u [100, 110] and its mirror and translate have tails of two pieces,
    # the last from 1200 (or from 1150 translated), past which the oracle
    # sums by the whole-set hyperbola; the smallest truncation cuts inside.
    base = IndexSet.from_iterable([0, *range(100, 111)])
    rng = random.Random(1729)
    sets = [base, base.reflect(), base.translate(-50),
            IndexSet.from_iterable([0, 5]), IndexSet.from_iterable([-3, -2, 4, 9])]
    sets += [random_index_set(rng, 14).translate(rng.randint(-30, 30)) for _ in range(8)]
    for a in sets:
        for k in (3, 4, 5):
            t = max(abs(a.min()), abs(a.max())) + k
            assert higher_derivative_scan(a, k, t).value == oracle_scan_value(a, k), (a, k)


def boundary_excess(a, k):
    """The boundary excess of each tail of ``a`` at order k: right, then left."""
    _, _, right, left = maximal._set_tails(a.elements)
    return [sum(sum(excess) for _, excess, _ in search._boundary_excess(tail, k))
            for tail in (right, left)]


def test_boundary_excess_is_the_sign_correction():
    # Both tails fall and are convex, so at k = 1 and 2 every start has the
    # one-piece sign and the excess vanishes.  From k = 3 a start across a
    # piece boundary can take the other sign; the oracle value test above
    # sees that excess on {0} u [100, 110].
    base = IndexSet.from_iterable([0, *range(100, 111)])
    rng = random.Random(2718)
    sets = [random_index_set(rng, rng.randint(1, 64)) for _ in range(300)]
    for a in [base, *sets]:
        assert boundary_excess(a, 1) == boundary_excess(a, 2) == [0, 0], a
    assert boundary_excess(base, 3)[0] > 0 and boundary_excess(base.reflect(), 3)[1] > 0
    assert sum(any(boundary_excess(a, 3)) for a in sets) == 260


def test_order_one_norm_is_the_analysis_variation_exhaustive():
    # every nonempty subset of [0, 10), as is and shifted by -57
    for mask in range(1, 1 << 10):
        for base in (0, -57):
            a = IndexSet.from_mask(mask, base)
            an = analyze(a)
            assert search._order_norms(a, 1, 100)[0] == an.fraction(an.variation)


def test_order_two_norm_is_the_analysis_second_norm_exhaustive():
    # every nonempty subset of [0, 10), as is and shifted by -57
    for mask in range(1, 1 << 10):
        for base in (0, -57):
            a = IndexSet.from_mask(mask, base)
            an = analyze(a)
            value, _ = search._order_norms(a, 2, 100)
            assert value == an.fraction(an.second_norm)


def assert_tails_match_maximal_at(a, points):
    """Both tails of ``a`` (the left one reflected) against maximal_at, at
    ``points`` starts past the hull and past the last piece start."""
    chi = LatticeFunction.from_set(a)
    lo, hi = a.min(), a.max()
    _, _, right, mirror = maximal._set_tails(a.elements)
    last = max(hi + points, right[0][-1] + 8)
    nums, dens = maximal._tail_points(right, hi + 1, last)
    assert list(map(Fraction, nums, dens)) == \
        [maximal_at(chi, n) for n in range(hi + 1, last + 1)], a
    last = max(-lo + points, mirror[0][-1] + 8)
    nums, dens = maximal._tail_points(mirror, -lo + 1, last)
    assert list(map(Fraction, nums, dens)) == \
        [maximal_at(chi, -n) for n in range(-lo + 1, last + 1)], a


def test_tail_pieces_match_maximal_at():
    rng = random.Random(2027)
    sets = [IndexSet.from_iterable(e) for e in ((0,), (0, 1), (0, 5), (-3, -2, 4, 9))]
    sets += [random_index_set(rng, 40).translate(rng.randint(-60, 60)) for _ in range(12)]
    for a in sets:
        assert_tails_match_maximal_at(a, 300)


def test_tails_where_hull_vertices_tie_or_are_collinear():
    # {66, 68} puts (66, 0), (68, 1) and the virtual point (70, 2) on one
    # line: both elements tie at n = 69, so the right tail is one piece from
    # 69.  {0..9, 20} does the same with the virtual point (22, 11), and in
    # {0..8, 10} the two run ends tie at n = -9.
    assert maximal._set_tails((66, 68))[2:] == (([69], [(66, 2)]), ([-65], [(-68, 2)]))
    assert maximal._set_tails((*range(10), 20))[2] == ([21], [(0, 11)])
    sets = [IndexSet.from_iterable(e) for e in ((66, 68), (*range(9), 10), (*range(10), 20))]
    sets += [IndexSet.from_mask(mask, base) for mask in range(1, 1 << 10, 2) for base in (0, -41)]
    for a in sets:
        assert_tails_match_maximal_at(a, 12)


@settings(max_examples=60, deadline=None)
@given(index_sets(), st.integers(3, 5), st.integers(-100, 100))
def test_scan_invariance_and_oracle_bracket_property(a, k, shift):
    def cover(s):                   # the smallest accepted truncation
        return max(abs(s.min()), abs(s.max())) + k

    scan = higher_derivative_scan(a, k, cover(a))
    moved = a.translate(shift)
    assert higher_derivative_scan(moved, k, cover(moved)).value == scan.value
    assert higher_derivative_scan(a.reflect(), k, cover(a)).value == scan.value
    low, high = oracle_scan_bracket(a, k, cover(a))
    assert low == scan.truncated_value < scan.value <= high


# ---------------------------------------------------------------------------
# progress reporting
# ---------------------------------------------------------------------------

def test_progress_callback_sees_all_instances():
    seen = []
    exhaustive(6, progress=lambda done, total: seen.append((done, total)))
    assert seen[-1] == (32, 32)
