"""Core data model: 1D SFTs, Rauzy graphs, 2D patterns, Wang tile sets.

Words are tuples of symbols (symbols are opaque strings).  All counting is
done with Python integers, so counts are exact at any size.  Canonical
orderings (alphabet order for symbols, lexicographic for vertices and edges)
make every derived object byte-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

WILDCARD = "·"  # "·" in 2D forbidden patterns: matches any symbol


class SftError(Exception):
    """Base class for all domain errors raised by this package."""


class EmptyLanguage(SftError):
    """The SFT has no configuration at all."""


class NotStronglyConnected(SftError):
    pass


class ConditionDHolds(SftError):
    pass


class SearchExhausted(SftError):
    pass


class NoGoodPair(SftError):
    pass


class EmptyWangSet(SftError):
    pass


class InvalidWPattern(SftError):
    pass


class NotInClopen(SftError):
    pass


class MalformedSlices(SftError):
    pass


class OnlyPeriodicPoints(SftError):
    pass


class NotTransitive(SftError):
    pass


class ZeroEntropy(SftError):
    pass


class NotStateSplit(SftError):
    pass


class PlanInvalid(SftError):
    pass


class PreconditionUnmet(SftError):
    pass


class BudgetExceeded(SftError):
    pass


# ---------------------------------------------------------------------------
# alphabet and 1D SFTs


@dataclass(frozen=True)
class Alphabet:
    """Ordered list of distinct symbols; the order is the canonical order."""

    symbols: tuple

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(str(s) for s in self.symbols))
        if not self.symbols:
            raise ValueError("alphabet must be nonempty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("duplicate symbols in alphabet")

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self):
        return len(self.symbols)

    def __contains__(self, s):
        return s in self.symbols

    def index(self, s):
        return self.symbols.index(s)


def _as_word(w):
    return tuple(str(s) for s in w)


@dataclass(frozen=True)
class Sft1D:
    """1D SFT given by an alphabet and a finite set of forbidden words.

    ``order`` is (max forbidden word length) - 1, at least 1; a
    nearest-neighbor SFT has all forbidden words of length <= 2.
    """

    alphabet: Alphabet
    forbidden: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if not isinstance(self.alphabet, Alphabet):
            object.__setattr__(self, "alphabet", Alphabet(tuple(self.alphabet)))
        words = frozenset(_as_word(w) for w in self.forbidden)
        for w in words:
            if not w:
                raise ValueError("empty forbidden word")
            for s in w:
                if s not in self.alphabet:
                    raise ValueError(f"forbidden word {w} uses unknown symbol {s!r}")
        object.__setattr__(self, "forbidden", words)

    @property
    def order(self):
        if not self.forbidden:
            return 1
        return max(1, max(len(w) for w in self.forbidden) - 1)

    @property
    def nearest_neighbor(self):
        return all(len(w) <= 2 for w in self.forbidden)

    def word_locally_admissible(self, word):
        """True iff ``word`` contains no forbidden factor."""
        word = tuple(word)
        for w in self.forbidden:
            k = len(w)
            if k > len(word):
                continue
            for i in range(len(word) - k + 1):
                if word[i : i + k] == w:
                    return False
        return True

    # -- serialization ------------------------------------------------------

    def to_json(self):
        return {
            "alphabet": list(self.alphabet.symbols),
            "forbidden": sorted([list(w) for w in self.forbidden]),
        }

    @classmethod
    def from_json(cls, obj):
        alphabet, forbidden = obj["alphabet"], obj.get("forbidden", [])
        if not (isinstance(alphabet, list) and all(isinstance(s, str) for s in alphabet)):
            raise ValueError("alphabet must be a list of strings")
        if not (isinstance(forbidden, list) and all(isinstance(w, list) for w in forbidden)):
            raise ValueError("forbidden must be a list of lists of symbols")
        return cls(Alphabet(tuple(alphabet)), frozenset(tuple(w) for w in forbidden))

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(json.load(fh))

    @classmethod
    def from_words(cls, alphabet, *words):
        """Convenience: forbidden words given as strings of 1-char symbols."""
        return cls(Alphabet(tuple(alphabet)), frozenset(tuple(w) for w in words))


def full_shift(alphabet):
    return Sft1D(Alphabet(tuple(alphabet)), frozenset())


def sft_from_edges(alphabet, edges):
    """Nearest-neighbor SFT whose allowed 2-words are exactly ``edges``."""
    alphabet = Alphabet(tuple(alphabet))
    edges = {(str(a), str(b)) for a, b in edges}
    forbidden = frozenset(
        (a, b) for a in alphabet for b in alphabet if (a, b) not in edges
    )
    return Sft1D(alphabet, forbidden)


# ---------------------------------------------------------------------------
# directed graphs


@dataclass(frozen=True)
class Digraph:
    """Immutable digraph with a canonical vertex order."""

    vertices: tuple
    edges: frozenset

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ValueError("duplicate vertices")
        for u, v in self.edges:
            if u not in vset or v not in vset:
                raise ValueError(f"edge ({u!r}, {v!r}) uses unknown vertex")
        object.__setattr__(self, "edges", frozenset(self.edges))

    def has_edge(self, u, v):
        return (u, v) in self.edges

    def successors(self, u):
        order = {v: i for i, v in enumerate(self.vertices)}
        return tuple(sorted((v for (a, v) in self.edges if a == u), key=order.get))

    def predecessors(self, v):
        order = {u: i for i, u in enumerate(self.vertices)}
        return tuple(sorted((u for (u, b) in self.edges if b == v), key=order.get))

    def succ_map(self):
        order = {v: i for i, v in enumerate(self.vertices)}
        m = {v: [] for v in self.vertices}
        for u, v in self.edges:
            m[u].append(v)
        return {u: tuple(sorted(vs, key=order.get)) for u, vs in m.items()}

    def pred_map(self):
        order = {v: i for i, v in enumerate(self.vertices)}
        m = {v: [] for v in self.vertices}
        for u, v in self.edges:
            m[v].append(u)
        return {v: tuple(sorted(us, key=order.get)) for v, us in m.items()}

    def out_degree(self, u):
        return sum(1 for (a, _) in self.edges if a == u)

    def in_degree(self, v):
        return sum(1 for (_, b) in self.edges if b == v)

    def subgraph(self, keep):
        keep = set(keep)
        return Digraph(
            tuple(v for v in self.vertices if v in keep),
            frozenset((u, v) for (u, v) in self.edges if u in keep and v in keep),
        )

    def sccs(self):
        """Strongly connected components, Tarjan (iterative), deterministic order.

        Components are returned sorted by their smallest vertex in canonical
        order; vertices inside a component keep the canonical order.
        """
        order = {v: i for i, v in enumerate(self.vertices)}
        succ = self.succ_map()
        index = {}
        low = {}
        onstack = set()
        stack = []
        comps = []
        counter = [0]

        for root in self.vertices:
            if root in index:
                continue
            work = [(root, iter(succ[root]))]
            index[root] = low[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            onstack.add(root)
            while work:
                v, it = work[-1]
                advanced = False
                for w in it:
                    if w not in index:
                        index[w] = low[w] = counter[0]
                        counter[0] += 1
                        stack.append(w)
                        onstack.add(w)
                        work.append((w, iter(succ[w])))
                        advanced = True
                        break
                    elif w in onstack:
                        low[v] = min(low[v], index[w])
                if advanced:
                    continue
                work.pop()
                if work:
                    pv = work[-1][0]
                    low[pv] = min(low[pv], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        onstack.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(tuple(sorted(comp, key=order.get)))
        comps.sort(key=lambda c: order[c[0]])
        return tuple(comps)

    def transient_vertices(self):
        """Vertices with no path from themselves to themselves."""
        out = []
        for comp in self.sccs():
            if len(comp) == 1 and not self.has_edge(comp[0], comp[0]):
                out.append(comp[0])
        return tuple(out)

    def is_strongly_connected(self):
        return len(self.sccs()) == 1

    def shortest_path(self, src, dst, avoid=(), forbidden_edges=()):
        """Shortest path from src to dst as an inclusive vertex tuple.

        BFS with canonical tie-breaking.  When src == dst the result is a
        shortest nonempty cycle, with src at both ends.  ``avoid`` vertices
        are banned except as the endpoints themselves.  None if no path.
        """
        banned = set(forbidden_edges)
        avoid = set(avoid)
        succ = self.succ_map()
        parent = {src: None}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v in succ[u]:
                    if (u, v) in banned or (v in avoid and v != dst):
                        continue
                    if v == dst:
                        path = [v]
                        node = u
                        while node is not None:
                            path.append(node)
                            node = parent[node]
                        return tuple(reversed(path))
                    if v not in parent:
                        parent[v] = u
                        nxt.append(v)
            frontier = nxt
        return None


# ---------------------------------------------------------------------------
# Rauzy graphs


@dataclass(frozen=True)
class RauzyGraph:
    """Graph of admissible M-words; edges are admissible (M+1)-words.

    Stranded vertices (in- or out-degree 0) have been removed to fixpoint, so
    every remaining vertex lies on a bi-infinite path and its label is a
    globally admissible word.  The edge (u1..uM, u2..u(M+1)) carries the label
    u(M+1), which is always the last symbol of the target vertex.
    """

    sft: Sft1D
    order: int
    graph: Digraph

    @property
    def vertices(self):
        return self.graph.vertices

    @property
    def edges(self):
        return self.graph.edges

    def has_edge(self, u, v):
        return self.graph.has_edge(u, v)

    def successors(self, u):
        return self.graph.successors(u)

    def predecessors(self, v):
        return self.graph.predecessors(v)

    def edge_label(self, u, v):
        if not self.graph.has_edge(u, v):
            raise KeyError((u, v))
        return v[-1]

    @property
    def scc(self):
        return self.graph.sccs()

    @property
    def transient(self):
        return self.graph.transient_vertices()

    def word_of_path(self, path):
        """Full word spelled by a vertex path (first label plus edge labels)."""
        path = list(path)
        word = list(path[0])
        for v in path[1:]:
            word.append(v[-1])
        return tuple(word)

    def path_exists(self, start, word):
        """Follow ``word`` edge labels from ``start``; final vertex or None."""
        v = start
        for s in word:
            nxt = v[1:] + (s,)
            if not self.graph.has_edge(v, nxt):
                return None
            v = nxt
        return v

    def to_dot(self, name="rauzy"):
        lines = [f"digraph {name} {{"]
        for v in self.vertices:
            lines.append(f'  "{"".join(v)}";')
        for u, v in sorted(self.edges, key=lambda e: (self.vertices.index(e[0]), self.vertices.index(e[1]))):
            lines.append(f'  "{"".join(u)}" -> "{"".join(v)}" [label="{v[-1]}"];')
        lines.append("}")
        return "\n".join(lines)


def _locally_admissible_words(sft, n):
    """All n-words over the alphabet containing no forbidden factor."""
    out = []
    alphabet = sft.alphabet.symbols
    suffix_check = max((len(w) for w in sft.forbidden), default=1)

    def extend(word):
        if len(word) == n:
            out.append(tuple(word))
            return
        for s in alphabet:
            word.append(s)
            tail = tuple(word[-suffix_check:])
            ok = True
            for w in sft.forbidden:
                k = len(w)
                if k <= len(tail) and tail[-k:] == w:
                    ok = False
                    break
            if ok:
                extend(word)
            word.pop()

    extend([])
    return out


def build_rauzy(sft, order=None):
    """Rauzy graph of ``sft`` at the given order (default: the SFT's order).

    Raises EmptyLanguage when pruning removes every vertex.
    """
    m = sft.order if order is None else order
    if m < sft.order:
        raise ValueError(f"order {m} below the SFT order {sft.order}")
    sym_index = {s: i for i, s in enumerate(sft.alphabet.symbols)}
    vertices = sorted(_locally_admissible_words(sft, m), key=lambda w: [sym_index[s] for s in w])
    vset = set(vertices)
    edges = set()
    for u in vertices:
        for s in sft.alphabet.symbols:
            v = u[1:] + (s,)
            if v in vset and sft.word_locally_admissible(u + (s,)):
                edges.add((u, v))

    # prune vertices of in- or out-degree 0 to fixpoint
    while True:
        outdeg = {v: 0 for v in vset}
        indeg = {v: 0 for v in vset}
        for u, v in edges:
            outdeg[u] += 1
            indeg[v] += 1
        dead = {v for v in vset if outdeg[v] == 0 or indeg[v] == 0}
        if not dead:
            break
        vset -= dead
        edges = {(u, v) for (u, v) in edges if u not in dead and v not in dead}
    if not vset:
        raise EmptyLanguage("every vertex was pruned; the SFT is empty")
    vertices = [v for v in vertices if v in vset]
    return RauzyGraph(sft, m, Digraph(tuple(vertices), frozenset(edges)))


def scc_decompose(graph):
    """(components, transient vertex set) of a RauzyGraph or Digraph."""
    g = graph.graph if isinstance(graph, RauzyGraph) else graph
    return g.sccs(), g.transient_vertices()


def language_count(sft, n):
    """Exact number of n-words occurring in configurations of ``sft``.

    Computed on the pruned Rauzy graph, where every path word is globally
    admissible.  Returns 0 for an empty SFT.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    try:
        g = build_rauzy(sft)
    except EmptyLanguage:
        return 0
    m = g.order
    if n <= m:
        seen = set()
        for v in g.vertices:
            for i in range(m - n + 1):
                seen.add(v[i : i + n])
        return len(seen)
    # each n-word is spelled by exactly one path of n-m edges
    counts = {v: 1 for v in g.vertices}
    pred = g.graph.pred_map()
    for _ in range(n - m):
        counts = {v: sum(counts[u] for u in pred[v]) for v in g.vertices}
    return sum(counts.values())


def word_in_language(sft, word):
    """True iff ``word`` occurs in some configuration (global admissibility)."""
    word = tuple(word)
    if not word:
        return True
    try:
        g = build_rauzy(sft)
    except EmptyLanguage:
        return False
    m = g.order
    if len(word) <= m:
        return any(
            v[i : i + len(word)] == word for v in g.vertices for i in range(m - len(word) + 1)
        )
    start = word[:m]
    if start not in set(g.vertices):
        return False
    return g.path_exists(start, word[m:]) is not None


def higher_block_recode(sft):
    """Nearest-neighbor SFT conjugate to ``sft`` over Rauzy-vertex symbols.

    An n-word of the result corresponds to an (n + order - 1)-word of the
    input: symbol i of the recoded word is the block starting at position i.
    """
    g = build_rauzy(sft)  # propagates EmptyLanguage
    single = all(len(s) == 1 for s in sft.alphabet.symbols)
    names = {v: ("".join(v) if single else "|".join(v)) for v in g.vertices}
    alphabet = Alphabet(tuple(names[v] for v in g.vertices))
    allowed = {(names[u], names[v]) for (u, v) in g.edges}
    forbidden = frozenset(
        (a, b) for a in alphabet for b in alphabet if (a, b) not in allowed
    )
    return Sft1D(alphabet, forbidden)


# ---------------------------------------------------------------------------
# 2D patterns and Wang tiles


@dataclass(frozen=True)
class Pattern2D:
    """Rectangular 2D pattern; cell (i, j) has column i, row j, j upward.

    Cells are stored row-major: ``cells[j * width + i]``.  The wildcard
    symbol "·" is allowed in forbidden patterns and matches anything.
    """

    width: int
    height: int
    cells: tuple

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(str(s) for s in self.cells))
        if self.width < 0 or self.height < 0:
            raise ValueError("negative dimensions")
        if len(self.cells) != self.width * self.height:
            raise ValueError("cells length does not match width*height")

    def __getitem__(self, ij):
        i, j = ij
        if not (0 <= i < self.width and 0 <= j < self.height):
            raise IndexError(ij)
        return self.cells[j * self.width + i]

    def row(self, j):
        return self.cells[j * self.width : (j + 1) * self.width]

    def column(self, i):
        return tuple(self.cells[j * self.width + i] for j in range(self.height))

    @classmethod
    def from_rows(cls, rows_bottom_to_top):
        rows = [tuple(r) for r in rows_bottom_to_top]
        if not rows:
            return cls(0, 0, ())
        w = len(rows[0])
        if any(len(r) != w for r in rows):
            raise ValueError("ragged rows")
        return cls(w, len(rows), tuple(s for r in rows for s in r))

    @classmethod
    def from_columns(cls, cols_bottom_to_top):
        cols = [tuple(c) for c in cols_bottom_to_top]
        if not cols:
            return cls(0, 0, ())
        h = len(cols[0])
        if any(len(c) != h for c in cols):
            raise ValueError("ragged columns")
        return cls(len(cols), h, tuple(cols[i][j] for j in range(h) for i in range(len(cols))))

    def matches_at(self, other, i0, j0, wrap=False):
        """True iff self occurs in ``other`` anchored at (i0, j0)."""
        for j in range(self.height):
            for i in range(self.width):
                s = self[i, j]
                if s == WILDCARD:
                    continue
                bi, bj = i0 + i, j0 + j
                if wrap:
                    bi %= other.width
                    bj %= other.height
                elif not (0 <= bi < other.width and 0 <= bj < other.height):
                    return False
                if other[bi, bj] != s:
                    return False
        return True

    def occurs_in(self, other, wrap=False):
        ir = range(other.width) if wrap else range(other.width - self.width + 1)
        jr = range(other.height) if wrap else range(other.height - self.height + 1)
        return any(self.matches_at(other, i, j, wrap=wrap) for i in ir for j in jr)

    def to_json(self):
        return {"width": self.width, "height": self.height, "cells": list(self.cells)}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["width"], obj["height"], tuple(obj["cells"]))


@dataclass(frozen=True)
class WangTile:
    """Square tile with colored edges (east, west, north, south)."""

    e: str
    w: str
    n: str
    s: str
    name: str = ""

    def key(self):
        return (self.e, self.w, self.n, self.s, self.name)


@dataclass(frozen=True)
class WangTileSet:
    """Finite Wang tile set; tile index k in 1..N is the canonical name.

    Tiles must be pairwise distinct as (colors, name) records; the optional
    name lets color-identical tiles coexist (useful for free tile sets).
    """

    tiles: tuple

    def __post_init__(self):
        tiles = tuple(self.tiles)
        if not tiles:
            raise EmptyWangSet("need at least one tile")
        if len({t.key() for t in tiles}) != len(tiles):
            raise ValueError("duplicate tiles")
        object.__setattr__(self, "tiles", tiles)

    @property
    def N(self):
        return len(self.tiles)

    def tile(self, k):
        return self.tiles[k - 1]

    def horizontal_ok(self, k, l):
        """Tile k can sit immediately left of tile l."""
        return self.tiles[k - 1].e == self.tiles[l - 1].w

    def vertical_ok(self, lower, upper):
        """Tile ``lower`` can sit immediately below tile ``upper``."""
        return self.tiles[lower - 1].n == self.tiles[upper - 1].s

    def pattern_valid(self, grid):
        """Local validity of a grid of tile indices, grid[x][y], y upward."""
        a = len(grid)
        b = len(grid[0]) if a else 0
        for x in range(a):
            for y in range(b):
                if not (1 <= grid[x][y] <= self.N):
                    return False
                if x + 1 < a and not self.horizontal_ok(grid[x][y], grid[x + 1][y]):
                    return False
                if y + 1 < b and not self.vertical_ok(grid[x][y], grid[x][y + 1]):
                    return False
        return True

    def to_json(self):
        out = []
        for t in self.tiles:
            d = {"e": t.e, "w": t.w, "n": t.n, "s": t.s}
            if t.name:
                d["name"] = t.name
            out.append(d)
        return {"tiles": out}

    @classmethod
    def from_json(cls, obj):
        return cls(tuple(WangTile(t["e"], t["w"], t["n"], t["s"], t.get("name", "")) for t in obj["tiles"]))

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def free_tile_set(n):
    """n tiles with full adjacency in both directions."""
    return WangTileSet(tuple(WangTile("h", "h", "v", "v", name=f"t{k}") for k in range(1, n + 1)))


def monotile_set():
    return WangTileSet((WangTile("h", "h", "v", "v", name="t1"),))
