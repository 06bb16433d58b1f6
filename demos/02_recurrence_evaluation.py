#!/usr/bin/env python3
"""Evaluating the conflict-tree budget recurrence.

Shows exact values for small budgets, the agreement between the exact and
log2-space backends, the induction closed form 3 * r**s dominating everything,
a 343-digit exact value, and the paper's
warehouse-d budget, far past what exact arithmetic should be asked to do.
"""

import math

from cbsbounds import eval_exact, eval_log, induction_bound, log2_of_int


def main() -> None:
    print("small exact values T(r, s):")
    header = "r\\s " + "".join(f"{s:>8}" for s in range(5))
    print(header)
    for r in range(9):
        print(f"{r:>3} " + "".join(f"{eval_exact(r, s):>8}" for s in range(5)))

    print("\nlog backend vs exact:")
    for r, s in ((40, 20), (200, 30), (300, 40)):
        exact = log2_of_int(eval_exact(r, s))
        approx = eval_log(r, s).log2
        print(f"  T({r},{s}): exact log2 = {exact:.9f}, log backend = {approx:.9f}")

    print("\ninduction bound 3*r^s vs exact:")
    for r, s in ((10, 3), (50, 10), (300, 40)):
        exact = log2_of_int(eval_exact(r, s))
        bound = induction_bound(r, s).log2
        print(f"  T({r},{s}): log2 T = {exact:10.3f} <= log2 3*r^s = {bound:10.3f}")

    r, s = 100_000, 100
    exact = eval_exact(r, s)
    approx = eval_log(r, s).log2
    print(f"\nT({r},{s}) has {len(str(exact))} decimal digits (log2 = {approx:.3f})")

    # warehouse-d: n = 38756 cells, k = 256 agents, C = 250; r = knC, s = kC
    n, k, c = 38_756, 256, 250
    r, s = k * n * c, k * c
    value = eval_log(r, s)
    print(
        f"T({r},{s}) has ~{math.floor(value.log2 * math.log10(2)) + 1} decimal "
        f"digits (log2 = {value.log2:.1f}) by the log backend"
    )


if __name__ == "__main__":
    main()
