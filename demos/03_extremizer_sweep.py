"""Extremizer search: how large can the second-difference ratio get?

Exhaustive sweep over all translation classes of nonempty subsets of
[0, L): every instance is checked against the full contract battery, and
the maximal ratio ||(M chi_A)''||_1 / ||chi_A''||_1 is tracked per span.

Observed throughout: the maximum is 1/2, attained by the singleton, far
from the proven ceiling of 3.  No sharpness claim follows; this is an
empirical probe of the constant.
"""

import sys
import time

from maxreg import exhaustive, random_sets

LENGTH = 13


def main() -> None:
    print("=" * 60)
    print(f"Exhaustive ratio sweep over subsets of [0, {LENGTH})")
    print("=" * 60)
    t0 = time.perf_counter()
    summary = exhaustive(LENGTH, workers=2,
                         progress=lambda done, total: print(
                             f"  ...{done}/{total}", file=sys.stderr, flush=True))
    print(f"  swept in {time.perf_counter() - t0:.1f}s", file=sys.stderr)
    print(f"{summary.instances_checked} translation classes "
          f"({summary.parameters['raw_set_count']} raw sets)")
    print(f"violations: {len(summary.violations)}")

    print("\nmax ratio by span of the set (span = max - min):")
    for span, record in summary.stats["max_by_span"].items():
        print(f"  span {span:>2}: ratio {str(record.ratio):>6} "
              f"at {set(record.set.elements)}")

    best = summary.max_record
    print(f"\noverall max ratio {best.ratio} at {set(best.set.elements)}; "
          f"proven bound is 3")
    print(f"minimum indicator second norm observed: "
          f"{summary.stats['min_chi_second_norm']} (lower bound 2)")

    print("\nRandomized spot check at width 64 (same contracts):")
    rnd = random_sets(500, 64, "1/2", seed=42, workers=2)
    print(f"  {rnd.instances_checked} random sets, "
          f"max ratio {rnd.max_record.ratio}, violations {len(rnd.violations)}")


if __name__ == "__main__":
    main()
