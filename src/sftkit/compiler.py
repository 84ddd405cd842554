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
from math import lcm

from .core import (
    ConditionDHolds,
    InvalidWPattern,
    MalformedSlices,
    NoGoodPair,
    NotInClopen,
    OnlyPeriodicPoints,
    Pattern2D,
    RauzyGraph,
    Sft1D,
    WangTileSet,
    build_rauzy,
)
from .classify import check_condition_d
from .cycles import Cycle, CyclePair, good_pairs


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

    @property
    def M(self):
        return lcm(len(self.c1), len(self.c2))

    @property
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

    @property
    def code_run(self):
        """Phases whose micro-slices code a tile (the good-pair run)."""
        if self.anchor is None:
            return ()
        run = self.anchor[2]
        return tuple(range(run + 1))

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

    def macro_word(self, p, k, l):
        """Cells of a phase-p (k, l)-coding macro-slice, bottom to top.

        Irrelevant registers are canonicalized to 1, so the word is a
        function of the relevant data only.
        """
        p %= self.M
        if not self.k_relevant(p):
            k = 1
        if not self.l_relevant(p):
            l = 1
        M, N = self.M, self.N
        L1, L2 = len(self.c1), len(self.c2)
        cells = []
        # border meso-slice: the C1 cycle repeated cell by cell
        cells += [self.c1_sym(p + t) for t in range(M * N)]
        # two C1-slices: one meso-slice per cycle element
        for _ in range(2):
            for s in range(L1):
                cells += [self.c1_sym(p + s)] * (M * N)
        # C2-slice
        for s in range(L2):
            cells += [self.c2_sym(p + s)] * (M * N)
        # border again
        cells += [self.c1_sym(p + t) for t in range(M * N)]
        # code meso-slice: M micro-slices, the top one at phase p
        for depth_from_bottom in range(M):
            q = p + (M - 1 - depth_from_bottom)
            a = self.c1_sym(q)
            src = self.micro_value_source(p, q)
            if src is None:
                cells += [a] * N
            else:
                v = k if src == "k" else l
                micro = [a] * N
                micro[N - v] = self.c2_sym(q)  # position v counted from the top
                cells += micro
        return tuple(cells)


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
    tile rules.  ``transitions[s][a]`` is the unique a-successor of state s.
    """

    def __init__(self, alphabet, nfa_states, nfa_next, annotations, allowed_succession, grammar=None, tiles=None):
        self.alphabet = tuple(alphabet)
        self._nfa_states = tuple(nfa_states)
        self._nfa_next = nfa_next  # state -> (label, tuple of targets)
        self._annotations_nfa = annotations  # nfa state -> (p, t, k, l)
        self.allowed_succession = allowed_succession
        self.grammar = grammar
        self.tiles = tiles
        self.states, self.transitions, self.decode_annotations = self._determinize()

    # -- construction -------------------------------------------------------

    def _determinize(self):
        start = frozenset(self._nfa_states)
        ids = {start: 0}
        order = [start]
        trans = []
        i = 0
        while i < len(order):
            S = order[i]
            i += 1
            by_label = {}
            for q in S:
                a, targets = self._nfa_next[q]
                by_label.setdefault(a, set()).update(targets)
            row = {}
            for a in sorted(by_label):
                T = frozenset(by_label[a])
                if T not in ids:
                    ids[T] = len(order)
                    order.append(T)
                row[a] = ids[T]
            trans.append(row)

        # trim to the essential part (every state on a bi-infinite path)
        alive = set(range(len(order)))
        while True:
            incoming = {s: 0 for s in alive}
            outgoing = {s: 0 for s in alive}
            for s in alive:
                for a, t in trans[s].items():
                    if t in alive:
                        outgoing[s] += 1
                        incoming[t] += 1
            dead = {s for s in alive if incoming[s] == 0 or outgoing[s] == 0}
            if not dead:
                break
            alive -= dead
        keep = sorted(alive)
        remap = {s: i for i, s in enumerate(keep)}
        states = tuple(range(len(keep)))
        transitions = [
            {a: remap[t] for a, t in trans[s].items() if t in alive} for s in keep
        ]
        annotations = []
        for s in keep:
            subset = order[s]
            if len(subset) <= 8:
                annotations.append(tuple(sorted(self._annotations_nfa[q] for q in subset)))
            else:
                annotations.append(None)
        return states, transitions, annotations

    # -- queries -------------------------------------------------------------

    def scan(self, word, states=None):
        """NFA subset after reading ``word`` (empty set when not a factor)."""
        current = set(self._nfa_states) if states is None else set(states)
        for a in word:
            nxt = set()
            for q in current:
                lab, targets = self._nfa_next[q]
                if lab == a:
                    nxt.update(targets)
            if not nxt:
                return frozenset()
            current = nxt
        return frozenset(current)

    def is_factor(self, word):
        return bool(self.scan(word))

    def words(self, h):
        """All legal column words of length h (lexicographic order)."""
        out = []
        sym_order = {a: i for i, a in enumerate(self.alphabet)}

        def rec(current, word):
            if len(word) == h:
                out.append(tuple(word))
                return
            by_label = {}
            for q in current:
                lab, targets = self._nfa_next[q]
                by_label.setdefault(lab, set()).update(targets)
            for a in sorted(by_label, key=sym_order.get):
                word.append(a)
                rec(by_label[a], word)
                word.pop()

        rec(set(self._nfa_states), [])
        return out

    def is_cyclic(self, word):
        """Is ``word`` readable as a cycle (a legal period-|word| column)?"""
        pairs = {(s, s) for s in self._nfa_states}
        for a in word:
            nxt = set()
            for (s, q) in pairs:
                lab, targets = self._nfa_next[q]
                if lab == a:
                    nxt.update((s, t) for t in targets)
            if not nxt:
                return False
            pairs = nxt
        return any(s == q for (s, q) in pairs)

    def to_json(self):
        return {
            "alphabet": list(self.alphabet),
            "states": list(self.states),
            "transitions": [
                {"from": s, "label": a, "to": t}
                for s in self.states
                for a, t in sorted(self.transitions[s].items())
            ],
            "decode_annotations": {
                str(s): [list(x) for x in ann] if ann is not None else None
                for s, ann in zip(self.states, self.decode_annotations)
            },
            "allowed_succession": [list(x) for x in sorted(self.allowed_succession)],
        }


def _presentation_from_grammar(grammar, tiles):
    """NFA over macro-slice blocks, then determinized by the presentation."""
    M, N = grammar.M, grammar.N
    height = grammar.macro_height

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

    ids = {}
    states = []
    annotations = {}
    for bi, (p, k, l, word) in enumerate(blocks):
        for t in range(height):
            sid = bi * height + t
            ids[(bi, t)] = sid
            states.append(sid)
            annotations[sid] = (p, t, k, l)

    succession = set()
    nfa_next = {}
    for bi, (p, k, l, word) in enumerate(blocks):
        for t in range(height - 1):
            nfa_next[ids[(bi, t)]] = (word[t], (ids[(bi, t + 1)],))
        targets = []
        for bj, (p2, k2, l2, _) in enumerate(blocks):
            if p2 != p:
                continue
            if grammar.k_relevant(p) and not tiles.vertical_ok(k, k2):
                continue
            targets.append(ids[(bj, 0)])
            succession.add((p, k, l, k2, l2))
        nfa_next[ids[(bi, height - 1)]] = (word[height - 1], tuple(targets))

    return VerticalPresentation(
        grammar.H.alphabet.symbols,
        states,
        nfa_next,
        annotations,
        frozenset(succession),
        grammar=grammar,
        tiles=tiles,
    )


def _plain_cycle_presentation(grammar, tiles):
    """Degenerate single-tile case: the vertical SFT is the C1 cycle shift."""
    c1 = grammar.c1
    n = len(c1)
    states = list(range(n))
    nfa_next = {i: (c1[(i + 1) % n], ((i + 1) % n,)) for i in range(n)}
    annotations = {i: (0, i, 1, 1) for i in range(n)}
    return VerticalPresentation(
        grammar.H.alphabet.symbols,
        states,
        nfa_next,
        annotations,
        frozenset({(0, 1, 1, 1, 1)}),
        grammar=grammar,
        tiles=tiles,
    )


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
    if tiles.N == 1:
        pres = _plain_cycle_presentation(grammar, tiles)
    else:
        pres = _presentation_from_grammar(grammar, tiles)
    cert = RootCertificate(
        grammar.M,
        grammar.macro_height,
        "bottom of a marker-phase macro-slice: the orbit position whose "
        "predecessor is a buffer and which itself is coding",
    )
    return pres, cert


def member_vertical(word, presentation):
    """Finite-word membership in the presented vertical shift's language."""
    return presentation.is_factor(tuple(word))


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

    cols = []
    for c in range(a * M):
        p = c % M
        x = c // M
        col = []
        for y in range(b):
            k = grid[x][y]
            l = grid[x + 1][y] if x + 1 < a else _right_fill(tiles, grid[x][y])
            col.extend(grammar.macro_word(p, k, l))
        cols.append(tuple(col))
    return Pattern2D.from_columns(cols)


def _parse_macro_column(grammar, cells, p):
    """Extract (k, l) from one macro-slice column word (bottom to top).

    Returns (k or None, l or None); raises MalformedSlices on any structural
    mismatch.
    """
    M, N = grammar.M, grammar.N
    template = grammar.macro_word(p, 1, 1)
    code_start = (grammar.K - 1) * M * N
    for t in range(code_start):
        if cells[t] != template[t]:
            raise MalformedSlices(f"structural cell {t} mismatches phase {p}")
    k = None
    l = None
    for depth_from_bottom in range(M):
        q = p + (M - 1 - depth_from_bottom)
        a = grammar.c1_sym(q)
        c2 = grammar.c2_sym(q)
        micro = cells[code_start + depth_from_bottom * N : code_start + (depth_from_bottom + 1) * N]
        src = grammar.micro_value_source(p, q)
        if src is None:
            if any(x != a for x in micro):
                raise MalformedSlices(f"buffer micro-slice at phase {q} is not constant")
            continue
        hits = [i for i, x in enumerate(micro) if x == c2]
        if len(hits) != 1 or any(micro[i] != a for i in range(N) if i != hits[0]):
            raise MalformedSlices(f"coding micro-slice at phase {q} malformed")
        v = N - hits[0]
        if src == "k":
            if k is not None and k != v:
                raise MalformedSlices("main code changes inside a macro-slice")
            k = v
        else:
            if l is not None and l != v:
                raise MalformedSlices("side code changes inside a macro-slice")
            l = v
    return k, l


def parse_column(grammar, cells):
    """Parse a full column of a*M x b*KMN window: phase + per-block codes.

    The column must be an exact stack of macro-slices (offset 0).
    """
    height = grammar.macro_height
    if len(cells) % height:
        raise MalformedSlices("column height is not a multiple of the macro height")
    b = len(cells) // height
    last_err = None
    for p in range(grammar.M):
        try:
            codes = [
                _parse_macro_column(grammar, cells[y * height : (y + 1) * height], p)
                for y in range(b)
            ]
            return p, codes
        except MalformedSlices as e:
            last_err = e
    raise last_err


def parse_column_window(grammar, cells):
    """Parse an arbitrary-height column window against the macro structure.

    Returns (phase, offset, codes) where offset is the position of cells[0]
    inside a macro-slice and codes lists the (k or None, l or None) values of
    every macro-slice the window touches (edge slices may leave registers
    undetermined).  Returns None when no (phase, offset) matches.
    """
    height = grammar.macro_height
    M, N = grammar.M, grammar.N
    code_start = (grammar.K - 1) * M * N
    for p in range(M):
        template = grammar.macro_word(p, 1, 1)
        for off in range(height):
            codes = []
            ok = True
            # walk the window macro-slice by macro-slice
            pos = 0
            cursor = off
            cur_k, cur_l = None, None
            while pos < len(cells) and ok:
                t = cursor
                cell = cells[pos]
                if t < code_start:
                    if cell != template[t]:
                        ok = False
                        break
                else:
                    u = t - code_start
                    depth_from_bottom = u // N
                    q = p + (M - 1 - depth_from_bottom)
                    i = u % N
                    a = grammar.c1_sym(q)
                    c2s = grammar.c2_sym(q)
                    src = grammar.micro_value_source(p, q)
                    if src is None:
                        if cell != a:
                            ok = False
                            break
                    elif cell == c2s:
                        v = N - i
                        if src == "k":
                            if cur_k is not None and cur_k != v:
                                ok = False
                                break
                            cur_k = v
                        else:
                            if cur_l is not None and cur_l != v:
                                ok = False
                                break
                            cur_l = v
                    elif cell != a:
                        ok = False
                        break
                pos += 1
                cursor += 1
                if cursor == height:
                    codes.append((cur_k, cur_l))
                    cur_k, cur_l = None, None
                    cursor = 0
            if ok:
                if cursor != 0:
                    codes.append((cur_k, cur_l))
                return p, off, codes
    return None


def decode_pattern(window, grammar, tiles):
    """Inverse of ``encode_pattern`` on marker-aligned valid windows."""
    M = grammar.M
    height = grammar.macro_height
    if window.width == 0 and window.height == 0:
        return []
    if window.width % M or window.height % height:
        raise MalformedSlices("window is not a whole number of macro blocks")
    a = window.width // M
    b = window.height // height
    if grammar.N == 1:
        return [[1] * b for _ in range(a)]
    phases = []
    codes = []
    for c in range(window.width):
        col = window.column(c)
        try:
            p, column_codes = parse_column(grammar, col)
        except MalformedSlices:
            got = parse_column_window(grammar, col)
            if got is not None:
                raise NotInClopen(
                    "window parses at a shifted position; it does not start at the clopen marker"
                )
            raise
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


def _first_return_paths(g, s, want=2, cap=None):
    """Shortest first-return paths from s (not visiting s in between)."""
    cap = cap or (2 * len(g.vertices) + 2)
    out = []
    succ = g.graph.succ_map() if isinstance(g, RauzyGraph) else g.succ_map()
    order = {v: i for i, v in enumerate(g.vertices)}

    for length in range(1, cap + 1):
        found = []

        def bounded(path):
            u = path[-1]
            if len(path) - 1 == length:
                return
            for v in succ[u]:
                if v == s and len(path) == length:
                    found.append(tuple(path) + (s,))
                elif v != s and v not in path[1:]:
                    if len(path) < length:
                        bounded(path + [v])

        bounded([s])
        for p in sorted(found, key=lambda p: [order[v] for v in p]):
            if p not in out:
                out.append(p)
                if len(out) >= want:
                    return out
    return out


def _labels(path):
    return tuple(v[-1] for v in path[1:])


class _Flower:
    """Factor oracle of bi-infinite concatenations of the code words."""

    def __init__(self, words):
        self.words = words
        # positions: (word index, offset)
        self.positions = [(w, i) for w in range(len(words)) for i in range(len(words[w]))]

    def step(self, states, a):
        nxt = set()
        for (w, i) in states:
            if self.words[w][i] != a:
                continue
            if i + 1 < len(self.words[w]):
                nxt.add((w, i + 1))
            else:
                for w2 in range(len(self.words)):
                    nxt.add((w2, 0))
        return frozenset(nxt)

    def start(self):
        return frozenset(self.positions)

    def is_factor(self, word):
        s = self.start()
        for a in word:
            s = self.step(s, a)
            if not s:
                return False
        return True

    def minimal_forbidden(self, alphabet, max_len):
        """Words w with |w| <= max_len, w not a factor but both w[1:] and
        w[:-1] factors."""
        out = []
        frontier = [((), self.start())]
        for _ in range(max_len):
            nxt = []
            for word, s in frontier:
                for a in alphabet:
                    t = self.step(s, a)
                    w2 = word + (a,)
                    if t:
                        nxt.append((w2, t))
                    elif self.is_factor(w2[1:]):
                        out.append(w2)
            frontier = nxt
        return out


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
    dg = g.graph
    if all(dg.out_degree(v) == 1 and dg.in_degree(v) == 1 for v in dg.vertices):
        raise OnlyPeriodicPoints("H has only periodic points; no segmentation vertex")
    s = None
    for v in g.vertices:
        if dg.out_degree(v) >= 2 or dg.in_degree(v) >= 2:
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

    flower = _Flower(list(code_words))
    max_len = U + len(separator) + 1
    patterns = []
    for w in flower.minimal_forbidden(H.alphabet.symbols, max_len):
        patterns.append(Pattern2D(len(w), 1, tuple(w)))
    # separator alignment: a separator above anything that is not a separator
    for w in _all_words(H.alphabet.symbols, len(separator)):
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


def _all_words(alphabet, n):
    out = [()]
    for _ in range(n):
        out = [w + (a,) for w in out for a in alphabet]
    return out


def export_forbidden_words(presentation, max_len):
    """Minimal forbidden words of the presented vertical shift, up to max_len.

    Only feasible for small heights; used to validate a presentation against
    an independent SFT membership oracle.
    """
    alphabet = presentation.alphabet
    out = []
    frontier = [((), frozenset(presentation.scan(())))]
    for _ in range(max_len):
        nxt = []
        for word, s in frontier:
            for a in alphabet:
                t = presentation.scan((a,), s)
                w2 = word + (a,)
                if t:
                    nxt.append((w2, t))
                elif presentation.is_factor(w2[1:]):
                    out.append(w2)
        frontier = nxt
    return out
