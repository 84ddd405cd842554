"""Entropy: 1D spectral values, 2D bounds, and the realization system.

The realization pins a marker word with a fixed horizontal period on every
row; code blocks after each marker carry a Wang tile payload and the
remaining free windows contribute a tunable entropy term, so the total lands
at log2(free choices)/period + payload entropy/period.
"""

from math import log2

from sftkit.core import Sft1D, free_tile_set, full_shift, sft_from_edges
from sftkit.entropy import (
    RealizationPlan,
    bezout_rank,
    build_realization,
    entropy_1d,
    entropy_bounds_2d,
    entropy_words,
    ntilde_count,
    realization_sandwich,
    statesplit_entropy,
)

golden = Sft1D.from_words("01", "11")
print("1D entropies:")
print("  full 2-shift:", entropy_1d(full_shift("01")).log2_value)
print("  golden mean :", entropy_1d(golden).log2_value, "= log2 of the golden ratio")

print("\n2D bounds for the hard-square system:")
b = entropy_bounds_2d(golden, golden, 6)
print("  square samples:", [(n, round(v, 4)) for n, v in b.samples])
print("  strip bounds:  ", [(h, round(v, 4)) for h, v in b.strip_upper])

print("\npositive-combination ranks:")
for cs in ([3, 5], [2, 4], [3, 10, 10, 11]):
    m, rank, bound = bezout_rank(cs)
    print(f"  {cs}: gcd {m}, every n >= {rank} reachable (certificate bound {bound})")

print("\nmarker/code words on the golden mean:")
u, w1, w2, alpha = entropy_words(golden, k=1)
print("  u =", "".join(u))
print("  w1 =", "".join(w1))
print("  w2 =", "".join(w2))
plan = RealizationPlan(golden, u, w1, w2, q=1, r=2, R=1, payload=free_tile_set(2))
system = build_realization(plan)
nt = ntilde_count(golden, u, w1, plan.q * alpha)
target = log2(nt) / plan.period + 1.0 / plan.period
print(f"  period {plan.period}, free-window count {nt}, target entropy {target:.4f}")
for k in (2, 3):
    rep = realization_sandwich(system, k)
    print(f"  k={k}: count has {rep['count'].bit_length()} bits, sample entropy {rep['sample_entropy']:.4f}, bounds hold: {rep['ok']}")

print("\nstate-split exact identity:")
ss = sft_from_edges("ab", [("a", "b"), ("b", "a")])
rep = statesplit_entropy(ss, Sft1D.from_words("ab", "bb"), 3)
print("  p =", rep["p"], " lower-bound term:", rep["term"])
print("  N(2m, 3) vs the class-product formula:",
      [(rep["lhs"](m), rep["rhs"](m)) for m in (1, 2, 3)])
