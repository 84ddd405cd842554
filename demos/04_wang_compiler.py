"""Compiling a Wang tile set into vertical constraints.

Columns of the combined system are stacks of macro-slices; their code
meso-slices carry tile indices in the position of the single C2 symbol per
micro-slice.  A window of M x (K*M*N) cells encodes one tile, and decoding
reads the main code of the marker-phase column.
"""

from sftkit.core import build_rauzy, free_tile_set, sft_from_edges
from sftkit.cycles import find_cycle_pair
from sftkit.compiler import (
    build_grammar,
    compile_wang,
    decode_pattern,
    encode_pattern,
)

H = sft_from_edges("abc", [("a", "b"), ("b", "c"), ("c", "a"), ("c", "b"), ("c", "c")])
pair, _ = find_cycle_pair(build_rauzy(H))
tiles = free_tile_set(3)
grammar = build_grammar(H, pair, tiles.N)

print("layout: M =", grammar.M, " K =", grammar.K, " N =", grammar.N)
print("heights: micro", grammar.micro_height, "meso", grammar.meso_height, "macro", grammar.macro_height)
print("orbit:", grammar.good_pair_orbit)

pres, cert = compile_wang(H, tiles, pair)
print("\nroot certificate: every tile cell becomes an", cert.m, "x", cert.n, "block")
print("presentation:", len(pres.states), "states, right-resolving")

print("\nencode the tile row 3, 1, 2, 2 and show the code meso-slices:")
window = encode_pattern([[3], [1], [2], [2]], grammar, tiles)
code_zone = (grammar.K - 1) * grammar.meso_height
for c in range(6):
    cells = window.column(c + 1)[code_zone:]
    micros = [cells[i * 3 : (i + 1) * 3] for i in range(3)]
    shown = ["".join(reversed(m)) for m in reversed(micros)]  # top-down
    print(f"  column {c + 1}: top-down micro-slices {shown}")

print("\ndecoded:", decode_pattern(window, grammar, tiles))
print("every column is a legal vertical word:",
      all(pres.is_factor(window.column(i)) for i in range(window.width)))
