"""Convex/concave decomposition and exact second-difference norms.

A point is convex when the centered second difference is >= 0 (ties convex),
concave otherwise.  Maximal runs of one class form chains; on each chain the
sum of |second difference| telescopes to the four values flanking the run.
Summing chains shows the whole second-difference norm is controlled by the
concave boundary alone: that boundary bound is computed here next to the
exact norm of the maximal function of an indicator.  Both are read from one
``analyze`` of the set, the bound through ``regularity.decompose`` on the
same profile.  Of the indicator itself only the second differences and their
norm are shown.

The punchline pair of facts (Theorem 1 / Lemma 1 in the API):

* second norm of M chi_A  <=  3 * second norm of chi_A, and
* M chi_A is concave only at points of A.
"""

from maxreg import MINUS, IndexSet, analyze, regularity


def walk(elements) -> None:
    a = IndexSet.from_iterable(elements)
    an = analyze(a)
    chains = list(an.chain_bounds())
    print(f"\nA = {set(a.elements)}")
    # chi_A's second differences vanish outside [min A - 1, max A + 1]
    chi = [int(n in a.elements) for n in range(an.lo - 1, an.hi + 2)]
    c2 = {an.lo + i: chi[i] + chi[i + 2] - 2 * chi[i + 1] for i in range(len(chi) - 2)}
    assert sum(abs(c) for c in c2.values()) == an.chi_second_norm
    print(f"  chi_A: nonzero second differences {({n: c for n, c in c2.items() if c})}")
    print(f"    second norm     {an.chi_second_norm}")
    print(f"  M chi_A: window [{an.lo}, {an.hi}]")
    print("    chains          " + " ".join(f"{k}[{s},{e}]" for k, s, e in chains))
    print(f"    concave set     {set(an.s_minus) or '{}'}")
    print(f"    boundaries      left {set(an.left_boundary) or '{}'} "
          f"right {set(an.right_boundary) or '{}'}")
    profile = regularity.AnalyzedFunction(an.lo, an.denominator, an.scaled)
    norm, bound = an.fraction(an.second_norm), regularity.decompose(profile)[4]
    print(f"    second norm     {norm}")
    print(f"    boundary bound  {bound}  (dominates: {bound >= norm})")
    v, lo = an.scaled, an.lo
    for kind, start, end in chains:
        start, end = max(start, lo + 1), min(end, an.hi - 1)
        if start > end:
            continue
        lhs = sum(abs(c) for c in an.second[start - lo - 1:end - lo])
        rhs = v[start - 1 - lo] - v[start - lo] - v[end - lo] + v[end + 1 - lo]
        assert lhs == (-rhs if kind == MINUS else rhs)
    print("    chain telescoping identity holds on every chain")

    record = an.ratio_record()
    print(f"  ratio ||(M chi)''|| / ||chi''|| = {record.max_second_norm} / "
          f"{record.chi_second_norm} = {record.ratio}   (<= 3; ||chi''|| is "
          f"4 per block of A)")
    print(f"  concavity outside A: {set(an.lemma1_violations) or 'none'}")


def main() -> None:
    print("=" * 60)
    print("Chains, boundaries, and exact second-difference norms")
    print("=" * 60)
    for elements in ([0], [0, 1], [0, 2], [0, 2, 3, 7], [0, 4, 5, 6, 9]):
        walk(elements)


if __name__ == "__main__":
    main()
