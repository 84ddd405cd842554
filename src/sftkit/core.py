"""Core data model: 1D SFTs, Rauzy graphs, 2D patterns, Wang tile sets.

Words are tuples of symbols (symbols are opaque strings).  All counting is
done with Python integers, so counts are exact at any size.  Canonical
orderings (alphabet order for symbols, lexicographic for vertices and edges)
make every derived object byte-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress

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
# JSON input

_KIND_NAMES = {
    dict: "an object", list: "a list", int: "an integer", (str, int): "a string or an integer"
}


def json_fields(obj, what, fields, defaults=None):
    """Values of the fields of the JSON object ``obj``, in the order of ``fields``.

    ``fields`` maps each field name to its type; a bool is not an integer.  A
    field named in ``defaults`` may be absent and then takes its default.
    Raises ValueError, naming ``what``, when ``obj`` is not an object, a
    field is missing or a value has the wrong type.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    defaults = defaults or {}
    values = []
    for name, kind in fields.items():
        if name not in obj:
            if name not in defaults:
                raise ValueError(f"{what} has no field {name!r}")
            values.append(defaults[name])
            continue
        value = obj[name]
        if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
            raise ValueError(f"{what} field {name!r} must be {_KIND_NAMES[kind]}")
        values.append(value)
    return values


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
        """True iff ``word`` contains no forbidden factor.

        One pass of the forbidden-factor automaton: O(len(word)) steps,
        whatever the number of forbidden words.  A symbol outside the
        alphabet sends the automaton back to its root, so such a symbol
        never completes a forbidden word and is itself accepted.
        """
        delta = self._factor_automaton
        q = 0
        for s in word:
            q = delta[q].get(s, 0)
            if q < 0:
                return False
        return True

    @cached_property
    def _rauzy_graphs(self):
        """``build_rauzy``'s results by order; None marks an empty language."""
        return {}

    @cached_property
    def _factor_automaton(self):
        """Aho-Corasick automaton over the forbidden words, built on first use.

        A state is a trie prefix of some forbidden word; ``delta[q][s]`` is
        the state of the longest trie prefix that ends the text read so far
        followed by ``s``, or -1 when that text ends with a forbidden word
        (the state is dead).  State 0 is the root; dead states get no row.
        """
        symbols = self.alphabet.symbols
        children = [{}]
        final = [False]
        for w in sorted(self.forbidden):
            q = 0
            for s in w:
                if s not in children[q]:
                    children[q][s] = len(children)
                    children.append({})
                    final.append(False)
                q = children[q][s]
            final[q] = True
        # breadth first, so a state's failure link (a shorter suffix) is
        # finished before the state; the children of a dead state are dead
        # and are never reached
        live = {0: 0}
        rows = [{s: children[0].get(s, 0) for s in symbols}]
        queue = list(children[0].values())
        fail = dict.fromkeys(queue, 0)
        for q in queue:
            if final[q] or fail[q] not in live:
                continue
            live[q] = len(rows)
            back = rows[live[fail[q]]]
            row = dict(back)
            for s, c in children[q].items():
                fail[c] = back[s]
                row[s] = c
                queue.append(c)
            rows.append(row)
        return tuple({s: live.get(t, -1) for s, t in row.items()} for row in rows)

    # -- serialization ------------------------------------------------------

    def to_json(self):
        return {
            "alphabet": list(self.alphabet.symbols),
            "forbidden": sorted([list(w) for w in self.forbidden]),
        }

    @classmethod
    def from_json(cls, obj):
        alphabet, forbidden = json_fields(
            obj, "SFT", {"alphabet": list, "forbidden": list}, {"forbidden": []}
        )
        if not all(isinstance(s, str) for s in alphabet):
            raise ValueError("alphabet must be a list of strings")
        if not all(isinstance(w, list) for w in forbidden):
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


def require_same_alphabet(h, v, names=("H", "V")):
    """Raise ValueError unless the SFTs ``h`` and ``v`` have the same symbols."""
    if set(h.alphabet) != set(v.alphabet):
        raise ValueError(
            f"{names[0]} and {names[1]} have different alphabets: {', '.join(h.alphabet)} "
            f"and {', '.join(v.alphabet)}"
        )


# ---------------------------------------------------------------------------
# directed graphs


@dataclass(frozen=True)
class Digraph:
    """Immutable digraph with a canonical vertex order.

    Every query reads ``index``, the integer form of the graph, which is built
    on first use and is not part of the value: equality, hashing and repr
    see only ``vertices`` and ``edges``.
    """

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

    @cached_property
    def index(self):
        return GraphIndex(self.vertices, self.edges)

    def has_edge(self, u, v):
        return (u, v) in self.edges

    def _vertices_at(self, ranks):
        return tuple(self.vertices[i] for i in ranks)

    def successors(self, u):
        return self._vertices_at(self.index.succ[self.index.rank[u]])

    def predecessors(self, v):
        return self._vertices_at(self.index.pred[self.index.rank[v]])

    def out_degree(self, u):
        return len(self.index.succ[self.index.rank[u]])

    def in_degree(self, v):
        return len(self.index.pred[self.index.rank[v]])

    def in_order(self, vs):
        """The vertices ``vs`` sorted into canonical order."""
        return sorted(vs, key=self.index.rank.__getitem__)

    def ordered_edges(self):
        """Every edge, by canonical order of the source and then the target."""
        vs = self.vertices
        return [(vs[i], vs[j]) for i, row in enumerate(self.index.succ) for j in row]

    def subgraph(self, keep):
        keep = set(keep)
        return Digraph(
            tuple(v for v in self.vertices if v in keep),
            frozenset((u, v) for (u, v) in self.edges if u in keep and v in keep),
        )

    def sccs(self):
        """Strongly connected components, sorted by their first vertex in
        canonical order; each lists its vertices in canonical order.  The
        same tuple is returned on every call."""
        return self.index.sccs

    def transient_vertices(self):
        """Vertices with no path from themselves to themselves."""
        return tuple(c[0] for c in self.sccs() if len(c) == 1 and not self.has_edge(c[0], c[0]))

    def is_strongly_connected(self):
        return len(self.sccs()) == 1

    def shortest_path(self, src, dst, avoid=(), forbidden_edges=()):
        """Shortest path from src to dst as an inclusive vertex tuple.

        BFS with canonical tie-breaking.  When src == dst the result is a
        shortest nonempty cycle, with src at both ends.  ``avoid`` vertices
        are banned except as the endpoints themselves.  None if no path.
        """
        rank, succ = self.index.rank, self.index.succ
        s, t = rank[src], rank[dst]
        banned = {(rank[u], rank[v]) for u, v in forbidden_edges if u in rank and v in rank}
        blocked = {rank[v] for v in avoid if v in rank} - {t}
        parent = {s: None}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for v in succ[u]:
                    if (u, v) in banned or v in blocked:
                        continue
                    if v == t:
                        path = [v]
                        node = u
                        while node is not None:
                            path.append(node)
                            node = parent[node]
                        return self._vertices_at(reversed(path))
                    if v not in parent:
                        parent[v] = u
                        nxt.append(v)
            frontier = nxt
        return None


class GraphIndex:
    """Integer form of a digraph in its canonical vertex order.

    ``rank[v]`` is the position of v in ``vertices``; ``succ[i]`` and
    ``pred[i]`` list the positions of the successors and predecessors of
    vertex i in ascending order.  ``sccs`` (in vertex form) is computed on
    first use.
    """

    def __init__(self, vertices, edges):
        self.vertices = vertices
        self.rank = rank = {v: i for i, v in enumerate(vertices)}
        self.succ = succ = [[] for _ in vertices]
        self.pred = pred = [[] for _ in vertices]
        for u, v in edges:
            succ[rank[u]].append(rank[v])
            pred[rank[v]].append(rank[u])
        for row in succ + pred:
            row.sort()

    @cached_property
    def sccs(self):
        vs = self.vertices
        return tuple(tuple(vs[i] for i in comp) for comp in strong_components(self.succ))


# ---------------------------------------------------------------------------
# Rauzy graphs


@dataclass(frozen=True)
class RauzyGraph(Digraph):
    """Graph of admissible M-words; edges are admissible (M+1)-words.

    Stranded vertices (in- or out-degree 0) have been removed to fixpoint, so
    every remaining vertex lies on a bi-infinite path and its label is a
    globally admissible word.  The edge (u1..uM, u2..u(M+1)) carries the label
    u(M+1), which is always the last symbol of the target vertex.
    """

    sft: Sft1D
    order: int

    @property
    def graph(self):
        """The graph itself: kept only because the benchmark scripts read
        ``build_rauzy(h).graph``."""
        return self

    def path_exists(self, start, word):
        """Follow ``word`` edge labels from ``start``; final vertex or None."""
        v = start
        for s in word:
            nxt = v[1:] + (s,)
            if not self.has_edge(v, nxt):
                return None
            v = nxt
        return v

    def to_dot(self, name="rauzy"):
        lines = [f"digraph {name} {{"]
        for v in self.vertices:
            lines.append(f'  "{"".join(v)}";')
        for u, v in self.ordered_edges():
            lines.append(f'  "{"".join(u)}" -> "{"".join(v)}" [label="{v[-1]}"];')
        lines.append("}")
        return "\n".join(lines)


def label_words(start, branches, n):
    """Every word of n labels read along walks from ``start``, depth first.

    ``branches(node)`` lists the (label, next node) pairs that leave
    ``node``, in the order the words should come out.  The walk keeps its
    own stack, so n is not limited by Python's recursion depth.
    """
    if n < 0:
        raise ValueError("word length must be >= 0")
    if n == 0:
        return [()]
    out, word, stack = [], [], [iter(branches(start))]
    while stack:
        for a, node in stack[-1]:
            word.append(a)
            if len(word) < n:
                stack.append(iter(branches(node)))
                break
            out.append(tuple(word))
            word.pop()
        else:
            stack.pop()
            if word:
                word.pop()
    return out


def _locally_admissible_words(sft, n):
    """All n-words over the alphabet containing no forbidden factor, in
    canonical order: a depth-first walk of the forbidden-factor automaton."""
    # each row lists its symbols in alphabet order
    live = [[(s, q) for s, q in row.items() if q >= 0] for row in sft._factor_automaton]
    return label_words(0, live.__getitem__, n)


# maps the binary digits of ``bin`` to the bytes 0 and 1
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _bits(mask):
    """The positions of the set bits of ``mask`` (an int >= 0), ascending.

    A sparse mask, at most one set bit per 32 positions, takes one step per
    set bit, each clearing the lowest.  A denser one is scanned in C, a byte
    per bit: its binary digits, lowest first, become the bytes 0 and 1, and
    ``compress`` keeps the positions of the 1s.  Either way no Python step
    is spent on a clear bit.
    """
    if 32 * mask.bit_count() <= mask.bit_length():
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out
    flags = bin(mask)[:1:-1].encode().translate(_DIGIT_FLAGS)
    return list(compress(range(len(flags)), flags))


def essential_states(succ):
    """Indices of the states that lie on a bi-infinite path, ascending.

    ``succ[i]`` lists the successor indices of state i; a repeated index is a
    parallel edge.  Deleting every state of in- or out-degree 0 until none is
    left keeps exactly these states.  A worklist does it in O(states + edges):
    each deleted state lowers its neighbours' degrees once, and a neighbour
    whose degree reaches 0 joins the list.
    """
    n = len(succ)
    indeg = [0] * n
    outdeg = [len(vs) for vs in succ]
    pred = [[] for _ in range(n)]
    for u, vs in enumerate(succ):
        for v in vs:
            indeg[v] += 1
            pred[v].append(u)
    dead = [indeg[i] == 0 or outdeg[i] == 0 for i in range(n)]
    stack = [i for i in range(n) if dead[i]]
    while stack:
        u = stack.pop()
        for v in succ[u]:
            if not dead[v]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    dead[v] = True
                    stack.append(v)
        for v in pred[u]:
            if not dead[v]:
                outdeg[v] -= 1
                if outdeg[v] == 0:
                    dead[v] = True
                    stack.append(v)
    return [i for i in range(n) if not dead[i]]


def shortest_cycle(succ):
    """The lexicographically least shortest cycle of the successor lists
    (each ascending) as its states, or [] when there is none.

    No state below the first state of that cycle lies on a shortest cycle:
    that cycle, rotated to start at its smallest state, would be smaller.
    So the answer uses only the states from its first on.  Each essential
    state ``first`` in turn runs a breadth-first search back to itself over
    the essential states above it (Itai & Rodeh, SIAM J. Comput. 7, 1978),
    which stops when its frontier is empty or at the length of the best
    cycle so far.  A level lists its states in the order of their least
    paths from ``first``, so its first state with an edge back closes the
    least cycle of that length.
    """
    keep = essential_states(succ)
    inside = [False] * len(succ)
    for i in keep:
        inside[i] = True
    best = []
    for first in keep:
        inside[first] = False  # only the states above it from now on
        parent = {first: None}
        level = [first]  # the states at the distance of the loop count
        for _ in range(len(best) - 1 if best else len(keep)):
            last = next((u for u in level if first in succ[u]), None)
            if last is not None:
                best = [last]
                while parent[best[-1]] is not None:
                    best.append(parent[best[-1]])
                best.reverse()
                break
            nxt = []
            for u in level:
                for v in succ[u]:
                    if inside[v] and v not in parent:
                        parent[v] = u
                        nxt.append(v)
            if not nxt:
                break
            level = nxt
    return best


def strong_components(succ):
    """Strongly connected components of the graph with successor lists ``succ``.

    Tarjan's algorithm, iterative, in O(states + edges).  Each component
    lists its indices in ascending order, and the components are sorted by
    their smallest index.
    """
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    onstack = [False] * n
    stack = []
    comps = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        onstack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    onstack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if onstack[w]:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        onstack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(tuple(sorted(comp)))
    comps.sort()
    return comps


def build_rauzy(sft, order=None):
    """Rauzy graph of ``sft`` at the given order (default: the SFT's order).

    Raises EmptyLanguage when pruning removes every vertex.  Each graph is
    built once per SFT object and order: the result, or None for an empty
    language, is kept in ``sft._rauzy_graphs``.
    """
    m = sft.order if order is None else order
    if m < sft.order:
        raise ValueError(f"order {m} below the SFT order {sft.order}")
    built = sft._rauzy_graphs
    if m not in built:
        built[m] = _build_rauzy(sft, m)
    if built[m] is None:
        raise EmptyLanguage("every vertex was pruned; the SFT is empty")
    return built[m]


def _build_rauzy(sft, m):
    """The Rauzy graph of ``sft`` at order m, or None when it is empty."""
    vertices = _locally_admissible_words(sft, m)
    index = {v: i for i, v in enumerate(vertices)}
    # u + s has no forbidden factor iff the factor automaton, in its state
    # after the admissible u, does not die on s; then u[1:] + s is a vertex
    delta = sft._factor_automaton
    succ = []
    for u in vertices:
        q = 0
        for s in u:
            q = delta[q][s]
        succ.append([index[u[1:] + (s,)] for s, t in delta[q].items() if t >= 0])

    keep = essential_states(succ)
    if not keep:
        return None
    alive = set(keep)
    edges = frozenset(
        (vertices[i], vertices[j]) for i in keep for j in succ[i] if j in alive
    )
    return RauzyGraph(tuple(vertices[i] for i in keep), edges, sft, m)


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
    pred = g.index.pred
    counts = [1] * len(pred)
    for _ in range(n - m):
        counts = [sum(counts[u] for u in row) for row in pred]
    return sum(counts)


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
    if start not in g.index.rank:
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
        cells = tuple(self.cells)
        try:
            "".join(cells)  # one pass in C: every cell is already a str
        except TypeError:  # such as int cells from JSON
            cells = tuple(str(s) for s in cells)
        object.__setattr__(self, "cells", cells)
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
        if not 0 <= i < self.width:  # the slice would fail on width 0 and give () past the edge
            raise IndexError(i)
        return self.cells[i :: self.width]

    @classmethod
    def from_rows(cls, rows_bottom_to_top):
        rows = [tuple(r) for r in rows_bottom_to_top]
        if not rows:
            return cls(0, 0, ())
        w = len(rows[0])
        if any(len(r) != w for r in rows):
            raise ValueError("ragged rows")
        return cls(w, len(rows), tuple(chain.from_iterable(rows)))

    @classmethod
    def from_columns(cls, cols_bottom_to_top):
        cols = [tuple(c) for c in cols_bottom_to_top]
        if not cols:
            return cls(0, 0, ())
        h = len(cols[0])
        if any(len(c) != h for c in cols):
            raise ValueError("ragged columns")
        return cls(len(cols), h, tuple(chain.from_iterable(zip(*cols))))

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
        width, height, cells = json_fields(obj, "pattern", {"width": int, "height": int, "cells": list})
        return cls(width, height, tuple(cells))


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
        (tiles,) = json_fields(obj, "tile set", {"tiles": list})
        kinds = dict.fromkeys(("e", "w", "n", "s", "name"), (str, int))
        fields = [json_fields(t, "tile", kinds, {"name": ""}) for t in tiles]
        return cls(tuple(WangTile(*f) for f in fields))

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def free_tile_set(n):
    """n tiles with full adjacency in both directions."""
    return WangTileSet(tuple(WangTile("h", "h", "v", "v", name=f"t{k}") for k in range(1, n + 1)))
