"""Probing higher-order differences of maximal functions.

Beyond the support hull the maximal function of an indicator is a chain of
hyperbolas c / (n + 1 - i).  The order-k differences of one hyperbola have a
fixed sign and telescope, so the l1 norm of the order-k difference over all
of Z has an exact closed form for every k.  Each scan returns that exact
norm together with the same sum truncated to [-T, T]:

    truncated value(T)  <  truncated value(T')  <  value     for T < T'.

The demo raises the truncation to show the truncated sums approaching the
exact norm, and compares ||(M chi_A)^(k)||_1 with the exact ||chi_A^(k)||_1
to show what a higher-order ratio looks like.  For general functions, the
second-order ratio distribution from a seeded random sweep closes the
picture.
"""

from maxreg import (
    IndexSet,
    LatticeFunction,
    forward_difference,
    higher_derivative_scan,
    lp_norm,
    random_functions,
)


def probe(a: IndexSet, k: int, truncations) -> None:
    chi = LatticeFunction.from_set(a)
    indicator = lp_norm(forward_difference(chi, k), 1)
    print(f"\nA = {set(a.elements)}, order k = {k}:  ||chi^({k})||_1 = {indicator}")
    value = None
    for t in truncations:
        scan = higher_derivative_scan(a, k, t)
        value = scan.value
        print(f"  T = {t:>5}: sum over [-T, T] = {float(scan.truncated_value):.12f}  "
              f"(tail mass {float(scan.value - scan.truncated_value):.3e})")
    print(f"  exact ||(M chi)^({k})||_1 = {value} = {float(value):.12f}")
    print(f"  ratio against the indicator: {value / indicator} "
          f"= {float(value / indicator):.9f}")


def main() -> None:
    print("=" * 60)
    print("Exact higher-order scans and their truncations")
    print("=" * 60)
    probe(IndexSet.from_iterable([0]), 3, (100, 1000, 10_000))
    probe(IndexSet.from_iterable([0, 1]), 3, (100, 1000))
    probe(IndexSet.from_iterable([0, 3]), 4, (100, 1000))

    print("\nGeneral integer-valued functions, second-order ratios")
    print("(exploration only; no bound is asserted for general f):")
    summary = random_functions(1000, 16, 4, seed=7)
    q = summary.stats["ratio_quantiles"]
    print(f"  {summary.instances_checked} functions, violations "
          f"{len(summary.violations)}")
    print(f"  ratio quantiles: min {q['min']}  median {q['median']}  "
          f"max {q['max']}")
    best = summary.max_record
    print(f"  extremal draw: values {list(best.function_values)} "
          f"(offset {best.offset}) with ratio {best.ratio}")


if __name__ == "__main__":
    main()
