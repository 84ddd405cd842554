"""Compilers that realize two-dimensional shifts inside combined subshifts.

Two constructions live here:

* ``compile_wang`` turns a Wang tile set into a vertical nearest-ish SFT
  (delivered as a right-resolving labeled-graph presentation) such that the
  combined subshift of the horizontal SFT and that vertical SFT is an
  (M, K*M*N)-th root of the Wang shift.  Columns are stacks of macro-slices;
  a macro-slice of height K*M*N is, bottom to top, a border meso-slice, two
  C1-slices, a C2-slice, another border meso-slice and a code meso-slice.
  The code meso-slice carries tile indices in the position of the single C2
  symbol inside each micro-slice of height N; micro-slices whose C1 and C2
  symbols coincide are buffers and encode nothing.

* ``compile_horizontal`` realizes any Wang shift as a root of a system with
  fixed horizontal SFT rows, using n code words U_1..U_n built from two
  return paths of the Rauzy graph, with a doubled separator word marking the
  block boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import islice
from math import lcm
from operator import or_

from .core import (
    ConditionDHolds,
    InvalidWPattern,
    MalformedSlices,
    NoGoodPair,
    NotInClopen,
    OnlyPeriodicPoints,
    Pattern2D,
    Sft1D,
    WangTileSet,
    _bits,
    build_rauzy,
    essential_states,
    label_words,
)
from .classify import check_condition_d
from .cycles import CyclePair, _return_paths, good_pairs


def _sym(v):
    """Vertices of a nearest-neighbor Rauzy graph are 1-tuples of symbols."""
    if isinstance(v, tuple):
        if len(v) != 1:
            raise ValueError("grammar needs order-1 (nearest-neighbor) vertices")
        return v[0]
    return str(v)


# ---------------------------------------------------------------------------
# slice grammar


@dataclass(frozen=True)
class SliceGrammar:
    """Layout constants of the macro/meso/micro-slice construction.

    M = lcm(|C1|, |C2|) is the number of column phases (and the horizontal
    root period); K = 2|C1| + |C2| + 3 counts the meso-slices of a
    macro-slice; heights are micro = N, meso = M*N, macro = K*M*N.
    """

    H: Sft1D
    c1: tuple  # symbols of C1, in cycle order
    c2: tuple  # symbols of C2, in cycle order
    N: int
    anchor: tuple | None  # (i0, j0, run_length) of the chosen orbit, None if N == 1

    @cached_property
    def M(self):
        return lcm(len(self.c1), len(self.c2))

    @cached_property
    def K(self):
        return 2 * len(self.c1) + len(self.c2) + 3

    @property
    def micro_height(self):
        return self.N

    @property
    def meso_height(self):
        return self.M * self.N

    @property
    def macro_height(self):
        return self.K * self.M * self.N

    @property
    def good_pair_orbit(self):
        if self.anchor is None:
            return ()
        i0, j0, _ = self.anchor
        return tuple(
            ((i0 + p) % len(self.c1), (j0 + p) % len(self.c2)) for p in range(self.M)
        )

    # phase p runs over 0..M-1; phase 0 is the orbit anchor (the clopen marker)
    def c1_sym(self, p):
        i0 = self.anchor[0] if self.anchor else 0
        return self.c1[(i0 + p) % len(self.c1)]

    def c2_sym(self, p):
        j0 = self.anchor[1] if self.anchor else 0
        return self.c2[(j0 + p) % len(self.c2)]

    def is_buffer(self, p):
        return self.c1_sym(p) == self.c2_sym(p)

    def k_relevant(self, p):
        return not self.is_buffer(p % self.M)

    def l_relevant(self, p):
        p %= self.M
        return p != 0  # the marker column has no side code

    def micro_value_source(self, p, q):
        """Which register (``"k"`` or ``"l"``) codes the micro-slice at
        orbit phase q inside the code meso-slice of a phase-p column; None
        for buffers.  Reading top-down the phases are p, p+1, .., p+M-1; the
        run starting at p (when p is coding) carries k, everything after the
        buffer run carries l."""
        q %= self.M
        p %= self.M
        if self.is_buffer(q):
            return None
        run_end = self.anchor[2]
        if p <= run_end and p <= q <= run_end:
            return "k"
        return "l"

    @cached_property
    def layout(self):
        """The cells of a phase-p macro-slice, bottom to top, for each p.

        A cell is (symbol, c2, register, value): it holds ``symbol``, or in a
        coding micro-slice the C2 symbol ``c2``, which there codes ``value``
        for ``register`` ("k" or "l").  A fixed cell is (symbol, None, None, 0).
        """
        M, N = self.M, self.N
        out = []
        for p in range(M):
            # border meso-slice, two C1-slices, the C2-slice, border again
            border = [self.c1_sym(p + t) for t in range(M * N)]
            c1_slice = [self.c1_sym(p + s) for s in range(len(self.c1)) for _ in range(M * N)]
            c2_slice = [self.c2_sym(p + s) for s in range(len(self.c2)) for _ in range(M * N)]
            cells = [(a, None, None, 0) for a in border + 2 * c1_slice + c2_slice + border]
            # code meso-slice: M micro-slices, the top one at phase p
            for depth_from_bottom in range(M):
                q = p + (M - 1 - depth_from_bottom)
                a, src = self.c1_sym(q), self.micro_value_source(p, q)
                if src is None:
                    cells += [(a, None, None, 0)] * N
                else:  # value v sits at position v counted from the top
                    cells += [(a, self.c2_sym(q), src, N - i) for i in range(N)]
            out.append(tuple(cells))
        return tuple(out)

    def macro_word(self, p, k, l):
        """Cells of a phase-p (k, l)-coding macro-slice, bottom to top.

        Irrelevant registers are canonicalized to 1, so the word is a
        function of the relevant data only.
        """
        p %= self.M
        code = {
            "k": k if self.k_relevant(p) else 1,
            "l": l if self.l_relevant(p) else 1,
        }
        return tuple(
            c2 if reg is not None and code[reg] == v else a
            for a, c2, reg, v in self.layout[p]
        )


def build_grammar(H, pair, N):
    """Slice grammar for a cycle pair and a tile count.

    For N = 1 the grammar degenerates to the plain-cycle presentation.
    Raises NoGoodPair when N >= 2 and the pair has no good pair.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if isinstance(pair, CyclePair):
        c1, c2 = pair.c1, pair.c2
    else:
        c1, c2 = pair
    c1_syms = tuple(_sym(v) for v in c1)
    c2_syms = tuple(_sym(v) for v in c2)
    anchor = None
    if N >= 2:
        gps = good_pairs(c1, c2)
        if not gps:
            raise NoGoodPair("the pair has no good pair; cannot code more than one tile")
        anchor = gps[0]
    return SliceGrammar(H, c1_syms, c2_syms, N, anchor)


# ---------------------------------------------------------------------------
# vertical presentation


@dataclass(frozen=True)
class RootCertificate:
    m: int
    n: int
    clopen_marker: str

    def to_json(self):
        return {"m": self.m, "n": self.n, "clopen_marker": self.clopen_marker}


class VerticalPresentation:
    """Right-resolving labeled-graph presentation of the vertical SFT.

    Bi-infinite label paths are exactly the legal columns: vertical stacks of
    macro-slices of one phase, with code registers constrained by the Wang
    tile rules.  The constructor takes a block NFA: ``blocks`` lists the
    macro-slices (p, k, l, word), each a chain of cells that reads its word
    bottom to top, and ``follow[b]`` the blocks that may sit on top of block
    b.  It keeps only the essential part of the subset construction
    (``_determinize``); every query runs on that DFA, where
    ``transitions[s][a]`` is the unique a-successor of state s, each state's
    labels in sorted order.  A legal column word is a factor of a
    bi-infinite column.
    """

    def __init__(self, alphabet, blocks, follow, allowed_succession, grammar=None, tiles=None):
        self.alphabet = tuple(alphabet)
        self.allowed_succession = allowed_succession
        self.grammar = grammar
        self.tiles = tiles
        self.states, self.transitions, self.decode_annotations = _determinize(blocks, follow)

    def scan(self, word, states=None):
        """States reached by reading ``word`` from ``states`` (default: all);
        empty when ``word`` is not a factor."""
        trans = self.transitions
        current = set(self.states if states is None else states)
        for a in word:
            current = {trans[s][a] for s in current if a in trans[s]}
            if not current:
                break
        return frozenset(current)

    def is_factor(self, word):
        return bool(self.scan(word))

    def words(self, h):
        """All legal column words of length h, in canonical alphabet order:
        a depth-first walk over the sets of DFA states a prefix reaches."""
        trans = self.transitions
        rank = {a: i for i, a in enumerate(self.alphabet)}
        memo = {}  # the walk meets the same state set at many depths

        def branches(current):
            if current not in memo:
                by_label = {}
                for s in current:
                    for a, t in trans[s].items():
                        by_label.setdefault(a, set()).add(t)
                memo[current] = [(a, frozenset(by_label[a])) for a in sorted(by_label, key=rank.get)]
            return memo[current]

        return label_words(frozenset(self.states), branches, h)

    def is_cyclic(self, word):
        """Is the periodic column ``word`` repeated forever legal?

        It is when the partial map f(s) = (state after reading ``word`` from
        s) has a cycle, and then f has a fixed point: the subsets reached by
        reading word, word^2, ... from the full NFA set shrink to a nonempty
        subset that ``word`` maps to itself, a state the trim keeps because
        it lies on a loop.
        """
        trans = self.transitions
        image = {s: s for s in self.states}
        for a in word:
            image = {s: trans[q][a] for s, q in image.items() if a in trans[q]}
        return any(s == q for s, q in image.items())

    def to_json(self):
        return {
            "alphabet": list(self.alphabet),
            "states": list(self.states),
            "transitions": [
                {"from": s, "label": a, "to": t}
                for s in self.states
                for a, t in self.transitions[s].items()
            ],
            # json writes the annotation tuples as arrays
            "decode_annotations": dict(zip(map(str, self.states), self.decode_annotations)),
            "allowed_succession": [list(x) for x in sorted(self.allowed_succession)],
        }


def _determinize(blocks, follow):
    """Essential part of the subset construction of a block NFA.

    Block b is (p, k, l, word): its cell t reads ``word[t]`` and steps to
    cell t + 1, and its last cell steps to cell 0 of every block in
    ``follow[b]``.  A subset is a flat tuple (t0, m0, t1, m1, ...) of rows,
    t ascending, with bit b of mask m set when cell t of block b is a
    member, so a mask is at most one bit per block wide.  Reading label i
    keeps the members ``carry[t]`` selects; the rows of blocks that do not
    end at t move to t + 1, and the blocks that end there (``ends[t]``) OR
    their successor masks into row 0.  Most subsets are one row, and those
    step without a per-label accumulator.  Subsets are numbered
    breadth-first from the full set, labels in sorted order.  Returns
    (states, transitions, annotations); a state's annotations list its
    subset's members as sorted (p, t, k, l) when it has at most 8.
    """
    height = max((len(word) for *_, word in blocks), default=0)
    reads = [{} for _ in range(height)]  # t -> {label: mask of the blocks whose cell t reads it}
    ends = [0] * height
    for b, (*_, word) in enumerate(blocks):
        for t, a in enumerate(word):
            reads[t][a] = reads[t].get(a, 0) | 1 << b
        ends[len(word) - 1] |= 1 << b
    labels = sorted(set().union(*reads))
    code = {a: i for i, a in enumerate(labels)}
    carry = [sorted((code[a], m) for a, m in row.items()) for row in reads]  # t -> [(label i, mask)]
    succ = [sum(1 << c for c in nxt) for nxt in follow]
    jump = {}  # mask of ending blocks -> the OR of their successor masks
    start = tuple(x for t in range(height) for x in (t, sum(m for _, m in carry[t])))

    ids = {start: 0}
    order = [start]
    trans = []
    for subset in order:
        row = {}
        if len(subset) == 2:
            t, mask = subset
            end_t, nxt = ends[t], t + 1
            for i, selects in carry[t]:
                here = mask & selects
                if not here:
                    continue
                end = here & end_t
                if end:
                    here ^= end
                    to = jump.get(end)
                    if to is None:
                        to = jump[end] = reduce(or_, [succ[b] for b in _bits(end)])
                    if to:
                        T = (0, to, nxt, here) if here else (0, to)
                    else:
                        T = (nxt, here) if here else ()
                else:
                    T = (nxt, here)
                j = ids.get(T)
                if j is None:
                    j = ids[T] = len(order)
                    order.append(T)
                row[labels[i]] = j
        else:
            step = [None] * len(labels)  # label i -> [row 0 mask, t, mask, ...] of its successor
            rows = iter(subset)
            for t, mask in zip(rows, rows):
                end_t, nxt = ends[t], t + 1
                for i, selects in carry[t]:
                    here = mask & selects
                    if not here:
                        continue
                    entry = step[i]
                    if entry is None:
                        entry = step[i] = [0]
                    end = here & end_t
                    if end:
                        here ^= end
                        to = jump.get(end)
                        if to is None:
                            to = jump[end] = reduce(or_, [succ[b] for b in _bits(end)])
                        entry[0] |= to
                    if here:
                        entry.append(nxt)
                        entry.append(here)
            for i, entry in enumerate(step):
                if entry is None:
                    continue
                T = (0, *entry) if entry[0] else tuple(entry[1:])
                j = ids.get(T)
                if j is None:
                    j = ids[T] = len(order)
                    order.append(T)
                row[labels[i]] = j
        trans.append(row)

    keep = essential_states([row.values() for row in trans])
    remap = [None] * len(trans)
    for i, s in enumerate(keep):
        remap[s] = i
    transitions = [
        {a: remap[t] for a, t in trans[s].items() if remap[t] is not None} for s in keep
    ]
    tags = {}  # mask -> sorted (p, k, l) of its blocks; few masks recur in many subsets

    def tag(mask):
        if mask not in tags:
            tags[mask] = sorted(blocks[b][:3] for b in _bits(mask))
        return tags[mask]

    annotations = []
    for s in keep:
        subset = order[s]
        if len(subset) == 2:  # the members of one row come sorted, as its tags do
            t, mask = subset
            ann = None if mask.bit_count() > 8 else tuple([(p, t, k, l) for p, k, l in tag(mask)])
        elif sum(mask.bit_count() for mask in subset[1::2]) > 8:
            ann = None
        else:
            rows = iter(subset)
            ann = tuple(sorted([(p, t, k, l) for t, mask in zip(rows, rows) for p, k, l in tag(mask)]))
        annotations.append(ann)
    return tuple(range(len(keep))), transitions, annotations


def _grammar_nfa(grammar, tiles):
    """Block NFA of the macro-slices: (blocks, follow, succession).

    Block b is (p, k, l, word), the phase-p macro-slice coding (k, l), and
    ``follow[b]`` lists the blocks that may sit on top of it: those of the
    same phase whose main tile may sit above k.
    """
    M, N = grammar.M, grammar.N

    def pairs_for_phase(p):
        kr, lr = grammar.k_relevant(p), grammar.l_relevant(p)
        out = []
        for k in range(1, N + 1) if kr else (1,):
            for l in range(1, N + 1) if lr else (1,):
                if kr and lr and not tiles.horizontal_ok(k, l):
                    continue
                out.append((k, l))
        return out

    blocks = []  # (p, k, l, word)
    for p in range(M):
        for (k, l) in pairs_for_phase(p):
            blocks.append((p, k, l, grammar.macro_word(p, k, l)))

    follow = []
    succession = set()
    for p, k, l, _ in blocks:
        above = []
        for bj, (p2, k2, l2, _) in enumerate(blocks):
            if p2 != p:
                continue
            if grammar.k_relevant(p) and not tiles.vertical_ok(k, k2):
                continue
            above.append(bj)
            succession.add((p, k, l, k2, l2))
        follow.append(tuple(above))
    return blocks, follow, frozenset(succession)


def _plain_cycle_nfa(grammar):
    """Degenerate single-tile case: the vertical SFT is the C1 cycle shift,
    one block that reads C1 rotated by one and follows itself."""
    c1 = grammar.c1
    return [(0, 1, 1, c1[1:] + c1[:1])], [(0,)], frozenset({(0, 1, 1, 1, 1)})


def compile_wang(H, tiles, pair):
    """Vertical presentation realizing the Wang shift of ``tiles`` as a root.

    Requires a nearest-neighbor H whose Rauzy graph fails the decidability
    condition, and an admissible cycle pair of that graph.  Wang adjacency is
    enforced by (a) banning code meso-slices whose main and side tiles are
    horizontally incompatible and (b) restricting vertical macro-slice
    succession to vertically compatible main tiles.
    """
    if not isinstance(tiles, WangTileSet):
        tiles = WangTileSet(tuple(tiles))
    if not H.nearest_neighbor:
        raise ValueError("horizontal SFT must be nearest-neighbor")
    g = build_rauzy(H)
    if check_condition_d(g).holds:
        raise ConditionDHolds("the horizontal graph satisfies the decidability condition")
    grammar = build_grammar(H, pair, tiles.N)
    nfa = _plain_cycle_nfa(grammar) if tiles.N == 1 else _grammar_nfa(grammar, tiles)
    pres = VerticalPresentation(H.alphabet.symbols, *nfa, grammar=grammar, tiles=tiles)
    cert = RootCertificate(
        grammar.M,
        grammar.macro_height,
        "bottom of a marker-phase macro-slice: the orbit position whose "
        "predecessor is a buffer and which itself is coding",
    )
    return pres, cert


# ---------------------------------------------------------------------------
# encode / decode


def _right_fill(tiles, k):
    for l in range(1, tiles.N + 1):
        if tiles.horizontal_ok(k, l):
            return l
    raise InvalidWPattern(f"tile {k} has no legal right neighbor; cannot encode a rightmost column")


def encode_pattern(grid, grammar, tiles, phase=0):
    """Encode a Wang pattern (grid[x][y] of tile indices, y upward) into a
    concrete window of size (a*M) x (b*K*M*N).

    With phase 0 the cell (0, 0) is the bottom of a marker-phase macro-slice.
    """
    a = len(grid)
    b = len(grid[0]) if a else 0
    if a == 0 or b == 0:
        return Pattern2D(0, 0, ())
    for col in grid:
        if len(col) != b:
            raise InvalidWPattern("ragged tile grid")
        for t in col:
            if not (1 <= t <= tiles.N):
                raise InvalidWPattern(f"tile index {t} out of range")
    if not tiles.pattern_valid(grid):
        raise InvalidWPattern("tile grid violates Wang adjacency")

    M = grammar.M
    if phase % M != 0:
        padded = [list(c) for c in grid]
        padded.append([_right_fill(tiles, grid[-1][y]) for y in range(b)])
        wide = encode_pattern(padded, grammar, tiles, phase=0)
        p = phase % M
        cols = [wide.column(c) for c in range(p, p + a * M)]
        return Pattern2D.from_columns(cols)

    if grammar.N == 1:
        L1 = len(grammar.c1)
        height = b * grammar.macro_height
        cols = []
        for c in range(a * M):
            cols.append(tuple(grammar.c1[(c + j) % L1] for j in range(height)))
        return Pattern2D.from_columns(cols)

    macro_words = {}  # (p, k, l) -> cells; a grid repeats few of them
    cols = []
    for c in range(a * M):
        p = c % M
        x = c // M
        col = []
        for y in range(b):
            k = grid[x][y]
            l = grid[x + 1][y] if x + 1 < a else _right_fill(tiles, grid[x][y])
            word = macro_words.get((p, k, l))
            if word is None:
                word = macro_words[p, k, l] = grammar.macro_word(p, k, l)
            col.extend(word)
        cols.append(tuple(col))
    return Pattern2D.from_columns(cols)


def parse_column(grammar, cells, p, offset=0):
    """Codes of the macro-slices a column window touches, reading cells[0]
    at position ``offset`` of a phase-p macro-slice; None when the cells do
    not fit there.

    A code is (k, l), None for a register that no C2 symbol codes.  A coding
    micro-slice that lies wholly inside the window holds exactly one C2
    symbol; every C2 symbol of a register in one macro-slice codes one value.
    """
    layout, N = grammar.layout[p], grammar.N
    codes, code = [], {}
    hit = -1  # position of the last C2 symbol read
    t = offset
    for pos, x in enumerate(cells):
        a, c2, reg, v = layout[t]
        if x == c2:
            if code.setdefault(reg, v) != v:
                return None
            hit = pos
        elif x != a:
            return None
        if v == 1 and hit < pos - N + 1:  # the top of a C2-free micro-slice
            return None
        t += 1
        if t == len(layout):
            codes.append((code.get("k"), code.get("l")))
            code, t = {}, 0
    if t:
        codes.append((code.get("k"), code.get("l")))
    return codes


def decode_pattern(window, grammar, tiles):
    """Inverse of ``encode_pattern`` on marker-aligned valid windows.

    Raises NotInClopen when a column parses only at a shifted phase or
    offset, or the first column is not at the marker phase, and
    MalformedSlices for any other window that ``encode_pattern`` cannot give.
    """
    M = grammar.M
    height = grammar.macro_height
    if window.width == 0 and window.height == 0:
        return []
    if window.width % M or window.height % height or not (window.width and window.height):
        raise MalformedSlices("window is not a whole number of macro blocks")
    a = window.width // M
    b = window.height // height
    if grammar.N == 1:
        grid = [[1] * b for _ in range(a)]
        if not tiles.pattern_valid(grid) or window != encode_pattern(grid, grammar, tiles):
            raise MalformedSlices("window is not the encoding of a one-tile grid")
        return grid
    phases = []
    codes = []
    for c in range(window.width):
        col = window.column(c)
        for p in range(M):
            column_codes = parse_column(grammar, col, p)
            if column_codes is not None:
                break
        else:
            if any(
                parse_column(grammar, col, p, off) is not None
                for p in range(M)
                for off in range(1, height)
            ):
                raise NotInClopen(
                    "window parses at a shifted position; it does not start at the clopen marker"
                )
            raise MalformedSlices(f"column {c} is not a stack of macro-slices")
        phases.append(p)
        codes.append(column_codes)
    if phases[0] != 0:
        raise NotInClopen(f"first column has phase {phases[0]}, not the marker phase")
    for c in range(window.width):
        if phases[c] != c % M:
            raise MalformedSlices("column phases are not synchronized")
    grid = []
    for x in range(a):
        col = []
        for y in range(b):
            k, _ = codes[x * M][y]
            if k is None:
                raise MalformedSlices("marker column carries no main code")
            col.append(k)
        grid.append(col)
    if not tiles.pattern_valid(grid):
        raise MalformedSlices("decoded tile grid violates Wang adjacency")
    return grid


# ---------------------------------------------------------------------------
# horizontal compiler


@dataclass(frozen=True)
class HorizontalCompilation:
    """Forbidden-pattern system realizing a Wang shift over H-rows."""

    patterns: tuple  # forbidden Pattern2D list (wildcard-free)
    code_words: tuple  # U_1..U_n
    separator: tuple  # the doubled return-word label marking block boundaries
    gamma1: tuple
    gamma2: tuple

    def to_json(self):
        return {
            "patterns": [p.to_json() for p in self.patterns],
            "code_words": [list(w) for w in self.code_words],
            "separator": list(self.separator),
        }


def _first_return_paths(g, s, want=2):
    """The ``want`` shortest first-return paths from s (not visiting s in
    between), in canonical order within a length."""
    walk = _return_paths(g.index.succ, g.index.rank[s], 2 * len(g.vertices) + 2)
    return [tuple(g.vertices[i] for i in p) + (s,) for p in islice(walk, want)]


def _labels(path):
    return tuple(v[-1] for v in path[1:])


def _flower_scan(words):
    """``scan`` over the bi-infinite concatenations of ``words``: the set of
    positions (word index, offset) reached by reading a word."""
    start = frozenset((w, i) for w in range(len(words)) for i in range(len(words[w])))

    def scan(word, states=None):
        current = start if states is None else states
        for a in word:
            nxt = set()
            for (w, i) in current:
                if words[w][i] != a:
                    continue
                if i + 1 < len(words[w]):
                    nxt.add((w, i + 1))
                else:
                    nxt.update((w2, 0) for w2 in range(len(words)))
            current = nxt
            if not current:
                break
        return frozenset(current)

    return scan


def compile_horizontal(H, tiles):
    """Forbidden patterns F with X_{H,F} an (|U|, 1)-th root of the Wang shift.

    Rows are segmented into code words U_1..U_n (one per tile), vertically
    aligned by the doubled separator word; Wang adjacency is enforced on
    horizontally and vertically adjacent blocks.  Requires H to have a
    nonperiodic point.
    """
    if not isinstance(tiles, WangTileSet):
        tiles = WangTileSet(tuple(tiles))
    g = build_rauzy(H)
    # a vertex with two distinct return paths exists iff H is not periodic-only
    if all(g.out_degree(v) == 1 and g.in_degree(v) == 1 for v in g.vertices):
        raise OnlyPeriodicPoints("H has only periodic points; no segmentation vertex")
    s = None
    for v in g.vertices:
        if g.out_degree(v) >= 2 or g.in_degree(v) >= 2:
            paths = _first_return_paths(g, v, want=2)
            if len(paths) >= 2:
                s = v
                g1, g2 = paths[0], paths[1]
                break
    if s is None:
        raise OnlyPeriodicPoints("no vertex with two distinct return paths")

    n = tiles.N
    l1, l2 = _labels(g1), _labels(g2)
    code_words = []
    for k in range(1, n + 1):
        phi = []
        for j in range(1, n + 1):
            phi.extend(l2 if j == k else l1)
        code_words.append(l2 + l1 + tuple(phi) + l1 + l2)
    code_words = tuple(code_words)
    U = len(code_words[0])
    separator = l2 + l2

    max_len = U + len(separator) + 1
    scan = _flower_scan(code_words)
    patterns = []
    for w in _minimal_forbidden(scan, H.alphabet.symbols, max_len):
        patterns.append(Pattern2D(len(w), 1, tuple(w)))
    # separator alignment: a separator above any other factor of the
    # flower; a row that is no factor holds a minimal forbidden word of at
    # most |separator| < max_len symbols, which a one-row pattern forbids
    def branches(states):
        return [(a, t) for a in H.alphabet.symbols if (t := scan((a,), states))]

    for w in label_words(scan(()), branches, len(separator)):
        if w != separator:
            patterns.append(Pattern2D(len(separator), 2, tuple(w) + tuple(separator)))
    # Wang couplings on adjacent code blocks
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            if not tiles.horizontal_ok(k, l):
                patterns.append(
                    Pattern2D(2 * U, 1, code_words[k - 1] + code_words[l - 1])
                )
            if not tiles.vertical_ok(k, l):
                patterns.append(
                    Pattern2D(U, 2, code_words[k - 1] + code_words[l - 1])
                )
    comp = HorizontalCompilation(tuple(patterns), code_words, separator, l1, l2)
    cert = RootCertificate(U, 1, "a code word starts at the origin")
    return comp, cert


def _minimal_forbidden(scan, alphabet, max_len):
    """Words w with |w| <= max_len that are not factors while w[:-1] and
    w[1:] are, in length-then-alphabet order.

    ``scan(word, states=None)`` reads ``word`` from ``states`` (default: the
    start set of every factor) and returns the reached set, empty when the
    word is not a factor.  The frontier carries the set of each word and of
    the word less its first symbol, so each check is one scan step.
    """
    out = []
    start = scan(())
    frontier = [((), start, None)]
    for _ in range(max_len):
        nxt = []
        for word, s, tail in frontier:
            for a in alphabet:
                t = scan((a,), s)
                u = start if tail is None else scan((a,), tail)  # the set of (word + a)[1:]
                if t:
                    nxt.append((word + (a,), t, u))
                elif u:
                    out.append(word + (a,))
        frontier = nxt
    return out
