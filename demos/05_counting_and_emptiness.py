"""Exact rectangle counting, torus witnesses, and emptiness decisions.

Counts are exact integers from a transfer structure on valid columns.  A
doubly periodic witness proves nonemptiness.  In general emptiness is only
semi-decidable: for each height up to a bound, a strip of legal columns
with no cycle proves emptiness, and a cycle of the strip of periodic
columns is a torus.  In the decidable regimes (all component types shared,
or only periodic points) a torus must exist at one width, so one cylinder
strip of the cyclic rows of that width decides emptiness outright: its
shortest cycle is the lowest torus, and no cycle proves emptiness.
"""

from sftkit.core import Pattern2D, Sft1D, full_shift, sft_from_edges
from sftkit.solve import (
    count_rectangles,
    decide_with_certificate,
    find_torus,
    semi_decide_emptiness,
)

golden = Sft1D.from_words("01", "11")

print("hard-square counts N(n, n):")
for n in range(1, 7):
    print(f"  n={n}: {count_rectangles(golden, golden, n, n)}")

wit = find_torus(golden, golden, 3, 3)
print("\nsmallest golden x golden torus:", wit.width, "x", wit.height, wit.pattern.cells)

print("\nan incompatible pair (rows alternate 0/1, columns repeat 0,1,1):")
H = Sft1D.from_words("01", "00", "11")
V = Sft1D.from_words("01", "00", "010", "111")
print(" ", semi_decide_emptiness(H, V, 6).to_json())

print("\ncertificate-complete decisions:")
cyc = sft_from_edges("xyz", [("x", "y"), ("y", "z"), ("z", "x")])
print("  3-cycle with no extra rules:", decide_with_certificate(cyc, ()).to_json())

ss = sft_from_edges("ab", [("a", "b"), ("b", "a")])
print("  state-split with one banned vertical pair:",
      decide_with_certificate(ss, Sft1D.from_words("ab", "bb")).status)
print("  state-split with every vertical pair banned:",
      decide_with_certificate(ss, Sft1D.from_words("ab", "aa", "ab", "ba", "bb")).status)

print("  periodic-only with a 2D forbidden pattern:",
      decide_with_certificate(cyc, (Pattern2D(1, 2, ("x", "x")),)).status)
