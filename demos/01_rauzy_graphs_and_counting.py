"""Word graphs of 1D subshifts of finite type, and exact word counting.

A 1D SFT is an alphabet plus a finite list of forbidden words.  Its order-M
word graph has the admissible M-words as vertices and the admissible
(M+1)-words as edges; vertices that cannot be extended forever are pruned, so
every path spells a word that really occurs in a configuration.
"""

from sftkit.core import Sft1D, build_rauzy, higher_block_recode, language_count

golden = Sft1D.from_words("01", "11")  # no two adjacent 1s
g = build_rauzy(golden)

print("golden mean word graph")
print("  vertices:", ["".join(v) for v in g.vertices])
print("  edges:   ", sorted(("".join(u), "".join(v)) for u, v in g.edges))

print("\nword counts are Fibonacci numbers:")
for n in range(1, 10):
    print(f"  n={n}: {language_count(golden, n)}")

print("\nthe two-component example (corrected forbidden set):")
two = Sft1D.from_words("0123", "10", "20", "21", "11", "30", "31", "32", "33")
g2 = build_rauzy(two)
print("  vertices kept:", ["".join(v) for v in g2.vertices], "(symbol 3 pruned)")
print("  components:", [["".join(v) for v in c] for c in g2.sccs()])
print("  transient:", ["".join(v) for v in g2.transient_vertices()])

print("\nhigher-block recoding to a nearest-neighbor presentation:")
h = Sft1D.from_words("01", "111")
r = higher_block_recode(h)
print("  new alphabet:", r.alphabet.symbols)
print("  counts shift by order-1:", [language_count(r, n) for n in range(1, 6)],
      "vs", [language_count(h, n + 1) for n in range(1, 6)])

print("\nDOT export:")
print(g.to_dot())
