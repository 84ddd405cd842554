"""Selecting a coding pair of cycles.

The slice compiler needs two cycles C1, C2 with: |C1| >= 3, a good pair (a
run of disagreements followed by agreement around the joint period), no
uniform shortcut, no cross-bridge, and not both an attractive and a repulsive
vertex.  ``find_cycle_pair`` tries candidate pairs in one order and keeps the
first that passes or that a documented exception excuses: an exceptional
3-vertex graph's own pair, then the pair of the case analysis over the graph
shape (for case 3.1 in both orders), then (after a refused case 1.3 pair)
exceptional 3-vertex subgraphs and the five-position 1.3 special cycles, and
last a capped brute-force stream of pairs.
Every answer is checked by an independent admissibility oracle.
"""

from sftkit.core import Digraph, build_rauzy, sft_from_edges
from sftkit.cycles import (
    check_condition_c,
    find_cycle_pair,
    good_pairs,
    verify_pair_admissible,
)

coding = sft_from_edges("abc", [("a", "b"), ("b", "c"), ("c", "a"), ("c", "b"), ("c", "c")])
g = build_rauzy(coding)
pair, report = find_cycle_pair(g)
print("coding example:")
print("  C1:", ["".join(v) for v in pair.c1.vertices])
print("  C2:", ["".join(v) for v in pair.c2.vertices])
print("  dispatch:", report.case_tag, "| passes:", report.passes)
print("  good pairs:", report.good_pairs)
print("  oracle agrees:", verify_pair_admissible(g, pair.c1, pair.c2))

print("\na graph with no loop and no two-way edge (5-cycle + detour):")
h = Digraph(
    tuple("abcdefg"),
    frozenset({("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a"),
               ("c", "f"), ("f", "g"), ("g", "d")}),
)
pair2, report2 = find_cycle_pair(h)
print("  C1:", pair2.c1.vertices)
print("  C2:", pair2.c2.vertices)
print("  dispatch:", report2.case_tag)
rep = check_condition_c(pair2.c1, pair2.c2, h)
print("  witnesses:", rep.good_pairs)

print("\nrandom graphs always yield an admissible pair:")
import random

rng = random.Random(1)
from sftkit.classify import check_condition_d

found = 0
while found < 5:
    verts = tuple(f"v{i}" for i in range(rng.randint(3, 6)))
    edges = {(u, v) for u in verts for v in verts if rng.random() < 0.4}
    gr = Digraph(verts, frozenset(edges))
    if not gr.is_strongly_connected() or check_condition_d(gr).holds:
        continue
    found += 1
    p, r = find_cycle_pair(gr)
    print(f"  |V|={len(verts)} tag={r.case_tag:6} C1={p.c1.vertices} C2={p.c2.vertices}")
