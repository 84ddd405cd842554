"""Exact rectangle counting, periodic-torus search, and emptiness decisions.

A rectangle of width w and height h is counted as valid when every row is a
(1D-globally admissible) word of the horizontal SFT and every column is legal
under the column constraint: nothing, a 1D SFT, or a vertical presentation
from the compiler.  2D global admissibility is undecidable and is *not*
enforced; only the 1D structure per row/column is.  All counts are exact
Python integers.

One strip transfer engine, ``StripAutomaton``, counts for a horizontal SFT
of any order: its states are windows of legal columns as wide as the order,
which one join lists, a column at a time, with the successors of each: one
dense array test of every (window, column) pair on small strips, a walk of
the columns' trie on the others.  A width step either follows that
transition list or, when they hold fewer edges, runs through h row layers
that move one row of the window at a time: for hard squares of height 15,
38,760 layer edges instead of 665,857 transitions.  Joins and layers are
numpy index arrays, built by sorting rather than by one dict operation per
edge; an exact step sums an object array of Python ints, one
``np.add.reduceat`` per layer.  With an SFT column constraint,
``count_rectangles`` builds the strip of the transposed rectangles (column
words as rows) when its bound on the windows is smaller: 4 x 30 no-111 rows
over golden-mean columns then need 13 rows of width 4 as columns, not the
2.2 million golden columns of height 30.  One check, ``_repeats``, decides
which rows or columns repeat periodically, an array of them at a time, for
cylinder strips (``cyclic=True``: only such columns, so the closed walks are
the tori), replay and decisions alike.  ``find_torus`` takes the shortest
cycle of the cylinder strip of each height, the narrowest torus of that
height.  ``semi_decide_emptiness`` reads one free and one cylinder strip per
height: a free strip with no cycle proves emptiness, a cylinder strip with
one a torus.  In the decidable regimes ``decide_with_certificate`` reads one
cylinder strip, whose columns are the cyclic rows of the one width a torus
must have; all three take the shortest cycle through ``_shortest_torus``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import chain, islice, product
from math import inf, lcm

import numpy as np

from .core import (
    BudgetExceeded,
    EmptyLanguage,
    Pattern2D,
    PreconditionUnmet,
    Sft1D,
    WordAutomaton,
    _word_tuples,
    _words,
    build_rauzy,
    language_count,
    require_same_alphabet,
    shortest_cycle,
)
from .classify import check_condition_d, has_only_periodic_points
from .compiler import VerticalPresentation


# ---------------------------------------------------------------------------
# column candidates


def _columns_for(constraint, h, alphabet, budget=None):
    """Legal columns of height h, as ``core._words`` of the rule's word
    automaton (no rule: one node that reads every symbol), within ``budget``."""
    automaton = WordAutomaton([dict.fromkeys(alphabet, 0)], 0)
    if isinstance(constraint, VerticalPresentation):
        automaton = constraint.word_automaton
    elif isinstance(constraint, Sft1D):
        try:
            automaton = build_rauzy(constraint).word_automaton
        except EmptyLanguage:
            automaton = WordAutomaton([{}], 0)
    elif constraint is not None:
        raise TypeError(f"unsupported column constraint {constraint!r}")
    return _words(automaton, h, alphabet, budget)[0]


# ---------------------------------------------------------------------------
# strip automaton and exact counting


@dataclass
class StripAutomaton:
    """Transfer structure on windows of legal columns of one height.

    ``columns`` holds the kept legal columns, one row of H's symbol ranks
    (``core._words``) each, in canonical order.  For a horizontal SFT of
    order m, a state is a window of m of them whose every row is a Rauzy
    vertex: row i of the (n, m) ``intp`` array ``states`` holds window i's
    column indices into ``columns``, the windows in lexicographic order of
    these rows.  A strip keeps no symbol tuple: only ``_shortest_torus``
    spells out the columns of the cycle it replays.  A transition appends a
    column that moves every row along a Rauzy edge and drops the window's
    first column.  ``narrow[k - 1]`` is the number of k-column windows for
    k < m: windows whose every row is a prefix of a vertex.  The build
    follows each row through H's ``word_automaton``, whose nodes are these
    row words.

    With ``cyclic=True`` only the columns that ``_repeats`` accepts are
    kept (a cylinder strip).  Then a closed walk of w edges is exactly a
    w-periodic column sequence, the first column of each state on it, whose
    rows all repeat into legal H-words: a periodic row is legal iff its
    m + 1 windows are Rauzy edges, and pruning keeps every cycle.

    ``successors`` lists the successor states of each state in ascending
    order, so by ascending appended column: the pairs of ``_join``, which
    also lists the windows a column at a time.  A join of fewer than
    ``_DENSE_CELLS`` windows x columns x rows cells, such as those of the
    small cylinder strips of ``decide_with_certificate``, is one dense array
    test; a larger one walks the columns' trie, built on first use.  ``_shortest_torus`` reads
    it, on cylinder strips only; counting, ``has_cycle`` and the spectral
    radius only through their layers, or a spectral radius fallback.
    ``budget`` caps what the build keeps: the columns, counted a height at a
    time as they are listed, every window listed and the stored edges (the
    layer edges, or the transitions when the width step follows them); each
    join and the layers stop once past what is left.

    ``count_width``, ``has_cycle`` and ``spectral_radius`` sweep a vector
    through ``layers``, each a triple (src, dst, size): edge e adds the
    entry of state src[e] of its layer to state dst[e] of the next one,
    which has ``size`` states.  src and dst are numpy ``intp`` arrays with
    the edges sorted by dst.  The first layer starts at the windows and the
    last ends at them, both numbered in window order.  When they hold fewer
    edges than there are transitions, these are the h row layers of
    ``_row_layers``; otherwise they are the one layer of ``successors``.
    Counts stay exact Python ints: ``count_width`` sweeps an object array,
    one ``np.add.reduceat`` per layer.  ``transitions`` is T, the number
    of transitions, or of paths through the layers.
    """

    height: int
    columns: np.ndarray
    states: np.ndarray
    narrow: tuple
    layers: tuple
    transitions: int
    _pairs: object = field(repr=False, compare=False)  # cap -> the sorted (state, successor) pairs

    @classmethod
    def build(cls, H, constraint, h, budget=None, cyclic=False):
        if h < 1:
            raise ValueError("h must be >= 1")
        g = build_rauzy(H)
        # H's word automaton, whose nodes are the vertices by rank and then
        # their prefixes: node x reads the symbol ranks read[start[x]:][:degree[x]],
        # and s into table[x, s], or into ``dead``, a node that reads nothing;
        # the last rank, len(symbols), stands for a symbol that is not H's
        words, symbols = g.word_automaton, H.alphabet.symbols
        degree, start, read, _ = words.arcs(symbols)
        table, root = words.table(symbols), words[1]
        dead = len(table) - 1
        automaton = table, start, degree, read
        # the columns whose symbols all start H-words and, if cyclic, repeat
        letters = _columns_for(constraint, h, symbols, budget)
        letters = letters[(table[root, letters] < dead).all(1)]
        if cyclic:
            letters = letters[_repeats(constraint, letters, symbols)]
        ncols = len(letters)

        @cache
        def trie():
            grow, node = _trie(letters, table.shape[1])
            return grow, node.argsort(), np.bincount(letters[:, 0], minlength=table.shape[1])

        columns = letters, trie
        # window i has the columns picks[i] and the row words rows[i]; its
        # key, parent window * ncols + last column, ascends, and tail[i] is
        # the window of its columns after the first.  The budget counts the
        # columns, the windows (each column is one) and the edges kept: a
        # join refuses them once past what is ``left``, at once if < 0
        left = (inf if budget is None else budget) - 2 * ncols
        rows, key, tail = table[root, letters], np.arange(ncols), np.zeros(ncols, np.intp)
        picks, narrow = key[:, None], []
        for _ in range(1, g.order):
            src, col = _join(rows, automaton, columns, left + 1) or _refuse(budget)
            left -= len(src)
            narrow.append(len(rows))
            tail, key = np.searchsorted(key, tail[src] * ncols + col), src * ncols + col
            rows, picks = table[rows[src], letters[col]], np.column_stack((picks[src], col))

        def pairs(cap):
            """The (state, successor) pairs, sorted; None from ``cap`` on."""
            found = _join(rows, automaton, columns, cap)
            return found and (found[0], np.searchsorted(key, tail[found[0]] * ncols + found[1]))

        # the first row layer has an edge from each window per successor of
        # its row-0 vertex that starts a window: no shorter list needs layers
        starts = np.zeros(dead + 1, bool)
        starts[rows[:, 0]] = True
        first = int(starts[table[rows[:, 0]]].sum())
        found = pairs(min(first, left) + 1)
        if found is None and first <= left:  # else the layers overflow too
            built = _row_layers(rows, g.index.succ, left + 1)
            if built is not None:
                layers, edges = built
                paths = np.ones(len(picks))  # exact in floats below 2^53
                for src, dst, size in layers:
                    paths = np.bincount(dst, paths[src], size)
                if edges < paths.sum():
                    return cls(h, letters, picks, tuple(narrow), layers, int(paths.sum()), pairs)
            found = pairs(left + 1)
        src, dst = found or _refuse(budget)
        order = dst.argsort(kind="stable")
        layers = ((src[order], dst[order], len(picks)),)
        return cls(h, letters, picks, tuple(narrow), layers, len(src), lambda cap: found)

    @cached_property
    def successors(self):
        """Successor state indices of each state, ascending; listed on first
        use."""
        src, dst = self._pairs(inf)
        dst = iter(dst.tolist())
        return tuple(tuple(islice(dst, k)) for k in np.bincount(src, minlength=len(self.states)).tolist())

    def count_width(self, w):
        """Number of valid w-column strips (exact)."""
        if w < 1:
            raise ValueError("w must be >= 1")
        if w <= len(self.narrow):
            return self.narrow[w - 1]
        vec = np.ones(len(self.states), dtype=object)
        for _ in range(w - len(self.narrow) - 1):
            vec = self._image(vec)
        return sum(vec.tolist())

    @cached_property
    def _runs(self):
        """Per layer, the targets that have edges and the first edge of
        each: the runs of equal ``dst`` that ``_image`` sums."""
        runs = []
        for _, dst, _ in self.layers:
            starts = _run_starts(dst).nonzero()[0]
            runs.append((dst[starts], starts))
        return runs

    def _image(self, vec):
        """One width step of a vector of Python ints over the states, through
        the layers, as an object array: entry j of the result sums the
        entries of the states with successor j, so it is the row vector times
        the transfer matrix.  Each layer is one ``np.add.reduceat`` over its
        runs of equal targets, adding Python ints, so the sums are exact."""
        vec = np.asarray(vec, dtype=object)
        for (src, _, size), (heads, starts) in zip(self.layers, self._runs):
            sums = np.add.reduceat(vec[src], starts)
            if len(heads) < size:  # some targets have no edge
                vec = np.zeros(size, dtype=object)
                vec[heads] = sums
            else:
                vec = sums
        return vec

    def _sweep(self, x):
        """One float width step of x through the layers, one ``np.bincount``
        per layer: the float ``_image``, or Ax for A the transpose of the
        transfer matrix."""
        for src, dst, size in self.layers:
            x = np.bincount(dst, x[src], size)
        return x

    def has_cycle(self):
        """Does the strip have a cycle, i.e. a bi-infinite walk?

        The support of the width step, iterated from every window, shrinks
        to the windows that a cycle reaches, so its fixed point is nonempty
        exactly when a cycle exists.  ``_sweep`` maps the support; the
        transitions are not listed.
        """
        live = np.ones(len(self.states), dtype=bool)
        while True:
            nxt = self._sweep(live) > 0
            if np.array_equal(nxt, live):
                return bool(live.any())
            live = nxt

    def spectral_radius(self, tol=1e-12, max_iter=10**6):
        """Largest transfer eigenvalue as (value, (lo, hi), iterations), with
        a certified bracket, ``lo <= value <= hi`` and ``hi - lo <= tol * hi``.

        Write A for the transpose of the transfer matrix, which has the same
        spectral radius: ``_sweep`` maps x to Ax.  ``entropy._power_bracket``
        iterates it from x = 1 over the whole strip and certifies with one
        exact sweep (``_image``) of the integer-scaled iterate.  That bracket
        holds for any nonnegative A while x > 0, but on a reducible A it need
        not narrow: a window with no predecessor keeps the ratio 0.  So when
        n steps, n the number of states, do not certify it, or an entry of x
        underflows to 0, the per-component iteration of
        ``entropy._spectral_radius`` over ``successors`` decides.  Its
        ``max_iter`` bounds the steps on each component, and ``iterations``
        counts every step, the steps before it too.
        """
        from .entropy import _power_bracket, _spectral_radius

        n = len(self.states)
        lo, hi, steps, certified = _power_bracket(self._sweep, self._image, n, tol, min(n, max_iter))
        if certified:
            return (lo + hi) / 2, (lo, hi), steps
        value, bracket, more = _spectral_radius(self.successors, tol, max_iter)
        return value, bracket, steps + more


def _refuse(budget):
    raise BudgetExceeded(f"more than {budget} strip columns, windows and edges")


def _trie(words, base):
    """The trie of the rows of ``words``, an (n, h) array of letters below
    ``base``, as (grow, node): grow[r] holds the sorted keys p * base + x of
    the nodes of depth r + 1, p a node of depth r (the root is 0) and x its
    last letter, and a node's id is its rank; node[i] is row i's leaf."""
    grow, node = [], np.zeros(len(words), np.intp)
    for r in range(words.shape[1]):
        keys, node, _ = _dedupe(node * base + words[:, r])
        grow.append(keys)
    return grow, node


# The dense join tests every (window, column) pair at once: its temporaries
# hold windows x columns x rows cells, 128 KB of node indices at this cut.
# Below it one array test beats the trie walk's 20 or so numpy calls per row.
# Golden-mean and no-111 strips build as fast either way at about 2^15 cells,
# and above that the trie walk, which reads only the columns a window's rows
# can reach, is the faster
_DENSE_CELLS = 1 << 14


def _join(rows, automaton, columns, cap):
    """The pairs (i, c) such that each row word rows[i, r] reads cell r of
    column c, sorted by i and then c, as two arrays; None from ``cap`` pairs
    on, unless there are no rows.  ``automaton`` is that of ``build``, and
    ``columns`` the pair (letters, trie): the columns as an array of symbol
    ranks, and a function that gives their trie.

    Under ``_DENSE_CELLS`` rows times columns cells the join tests every pair
    in one array step, whose row-major order sorts the pairs.  Otherwise it
    reads the trie one depth at a time, as ``_row_layers`` reads its prefix
    trie.  The rows go in chunks, so that walk stops soon after ``cap``: the
    first one cannot pass it, as row i has at most one pair per column that
    starts with a symbol rows[i, 0] reads, and each later one doubles, or
    covers the rows that reach ``cap`` at the rate so far."""
    (table, start, degree, symbol), (letters, trie) = automaton, columns
    n, base = len(rows), table.shape[1]
    if rows.size * len(letters) < _DENSE_CELLS:
        i, c = np.nonzero((table[rows[:, None], letters] < len(table) - 1).all(2))
        return None if n and len(i) >= cap else (i, c)
    grow, leaf, spread = trie()
    out, found, done = [(np.zeros(0, np.intp),) * 2], 0, 0
    size = max(1, int((spread * (table != len(table) - 1)).sum(1)[rows[:, 0]].cumsum().searchsorted(cap)))
    while done < n:
        end = min(n, done + size)
        i, p = np.arange(done, end), np.zeros(end - done, np.intp)
        for r, keys in enumerate(grow):
            x = rows[i, r]
            src, p = _extend(keys, p, start[x], degree[x], symbol, base)
            i = i[src]
        found += len(i)
        if found >= cap:
            return None
        out.append((i, leaf[p]))
        done, size = end, max(2 * size, (cap - found) * end // max(found, 1))
    i, c = map(np.concatenate, zip(*out))
    order = (i * len(leaf) + c).argsort(kind="stable")
    return i[order], c[order]


def _extend(keys, prefix, start, degree, letters, base):
    """State k once per letter x of letters[start[k]:][:degree[k]], kept
    when the sorted ``keys`` hold prefix[k] * base + x: the states and the
    ranks of their keys, as two arrays."""
    src = np.arange(len(degree)).repeat(degree)
    key = prefix[src] * base + letters[np.arange(len(src)) + (start - degree.cumsum() + degree).repeat(degree)]
    q = keys.searchsorted(key)
    hit = keys[np.minimum(q, len(keys) - 1)] == key
    return src[hit], q[hit]


def _row_layers(rows, succ, cap):
    """The h row layers of a width step and the number of edges found, or
    None once that number reaches ``cap``.

    ``rows`` holds each window's h row words (Rauzy vertex ranks) as one row
    of an array, and ``succ`` is the Rauzy successor list.  A width step
    moves each row word along an edge, one row at a time: a layer-r state
    pairs the new window's rows 0..r-1 (a node of the trie of the windows
    read from row 0) with the old window's rows r..h-1 (a node of the trie
    read from row h - 1).  A transition of the list is a path through the
    layers, and only the states on such a path are kept.  Each layer is a
    triple (src, dst, size) of index arrays with the edges sorted by dst;
    the first layer's sources and the last one's targets are the windows.
    """
    n, h = rows.shape
    nv = len(succ)
    # ``succ`` in CSR form: vertex v's successors are targets[start[v]:][:degree[v]]
    degree = np.fromiter(map(len, succ), np.intp, nv)
    start = degree.cumsum() - degree
    targets = np.fromiter(chain.from_iterable(succ), np.intp, int(degree.sum()))
    # prefix trie, read from row 0; window[j] is the window of leaf j
    grow, node = _trie(rows, nv)
    window = node.argsort()
    # suffix trie, read from row h - 1: for each node of rows r..h-1, the
    # node t of rows r + 1.. below it and its row-r vertex v; at r = 0 the
    # nodes are the windows
    rest, node = _trie(rows[:, :0:-1], nv)
    below = [(node, rows[:, 0])] + [np.divmod(keys, nv) for keys in reversed(rest)]
    layers = []
    edges = 0
    prefix, suffix = np.zeros(n, np.intp), np.arange(n)  # the layer-0 states
    for r in range(h):
        t, v = (a[suffix] for a in below[r])
        # each state once per successor of its row-r vertex, then the
        # prefix that successor extends, if the windows have it
        src, q = _extend(grow[r], prefix, start[v], degree[v], targets, nv)
        edges += len(src)
        if edges >= cap:
            return None
        if r + 1 < h:
            after = len(below[r + 1][0])
            found, dst, order = _dedupe(q * after + t[src])
            prefix, suffix = found // after, found % after
            size = len(found)
        else:  # the prefix is a whole window
            dst = window[q]
            order = dst.argsort(kind="stable")
            size = n
        layers.append((src[order], dst[order], size))
    # drop the states that reach no window, renumbering the rest
    for r in range(h - 1, 0, -1):
        src, dst, size = layers[r]
        psrc, pdst, psize = layers[r - 1]
        live = np.bincount(src, minlength=psize) > 0
        if not live.all():
            new = live.cumsum() - 1
            keep = live[pdst]
            layers[r] = (new[src], dst, size)
            layers[r - 1] = (psrc[keep], new[pdst[keep]], int(np.count_nonzero(live)))
    return tuple(layers), edges


def _dedupe(keys):
    """(distinct keys ascending, the rank of each key among them, the order
    that sorts ``keys``), by one stable sort."""
    order = keys.argsort(kind="stable")
    ranked = keys[order]
    new = _run_starts(ranked)
    rank = np.empty(len(keys), np.intp)
    rank[order] = new.cumsum() - 1
    return ranked[new], rank, order


def _run_starts(ranked):
    """Flags the first entry of each run of equal entries of a sorted
    array."""
    new = np.empty(len(ranked), dtype=bool)
    new[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    return new


def count_rectangles(H, column_constraint, w, h, budget=None):
    """Exact count of w x h rectangles with H-rows and constrained columns.

    The count is that of the transposed rectangles, whose rows are column
    words and whose columns are H-words.  So for an SFT column constraint V
    the strip runs along the cheaper axis (as Calkin & Wilf transfer along
    the narrower side): its windows number at most |L_h(V)|^(order of H),
    and those of the transposed strip at most |L_w(H)|^(order of V).  The
    strip is transposed only when the second bound is strictly smaller, and
    ``budget`` caps the strip that is built.
    """
    if w < 1 or h < 1:
        raise ValueError("dimensions must be >= 1")
    if isinstance(column_constraint, Sft1D):
        rows, cols = language_count(H, w), language_count(column_constraint, h)
        if not rows or not cols:
            return 0
        if rows ** column_constraint.order < cols ** H.order:
            H, column_constraint, w, h = column_constraint, H, h, w
    try:
        strip = StripAutomaton.build(H, column_constraint, h, budget)
    except EmptyLanguage:
        return 0
    return strip.count_width(w)


# ---------------------------------------------------------------------------
# torus witnesses


@dataclass(frozen=True)
class TorusWitness:
    width: int
    height: int
    pattern: Pattern2D

    def to_json(self):
        return {"width": self.width, "height": self.height, "pattern": self.pattern.to_json()}


def _repeats(constraint, words, alphabet):
    """Which rows of ``words``, an array of ranks in ``alphabet``, repeat
    periodically into a legal bi-infinite word, as a bool array.

    A presentation reads each word with ``is_cyclic``.  An SFT of order m
    reads them all at once, one array step per cell through its word
    automaton, repeated 2 + (m + 1) // len(word) times: a word that long
    holds every factor of the periodic word of length m + 1 or less, so the
    periodic word is legal iff the repeated one is a word of the SFT."""
    if constraint is None:
        return np.ones(len(words), bool)
    if isinstance(constraint, VerticalPresentation):
        return np.array([constraint.is_cyclic(w) for w in _word_tuples(words, alphabet)], bool)
    if not isinstance(constraint, Sft1D):
        raise TypeError(f"unsupported column constraint {constraint!r}")
    try:
        automaton = build_rauzy(constraint).word_automaton
    except EmptyLanguage:  # only the empty word repeats, trivially
        return np.full(len(words), words.shape[1] == 0)
    table, node = automaton.table(alphabet), np.full(len(words), automaton[1])
    for _ in range(2 + (constraint.order + 1) // max(1, words.shape[1])):
        for cell in words.T:
            node = table[node, cell]
    return node < len(table) - 1


def validate_torus(H, column_constraint, pattern, forbidden2d=()):
    """Independent window checker: does the pattern tile the plane legally?

    Every cell must be a symbol of H, and of the column SFT if there is one.
    """
    symbols = set(H.alphabet.symbols)
    if isinstance(column_constraint, Sft1D):
        symbols &= set(column_constraint.alphabet.symbols)
    if not symbols.issuperset(pattern.cells):
        return False
    alphabet = H.alphabet.symbols
    rank = dict(zip(alphabet, range(len(alphabet))))
    grid = np.fromiter(map(rank.__getitem__, pattern.cells), np.intp, len(pattern.cells))
    grid = grid.reshape(pattern.height, pattern.width)
    if not (_repeats(H, grid, alphabet).all() and _repeats(column_constraint, grid.T, alphabet).all()):
        return False
    for p in forbidden2d:
        if p.occurs_in(pattern, wrap=True):
            return False
    return True


def find_torus(H, column_constraint, max_w, max_h):
    """Smallest-area doubly periodic witness within the bounds, or None.

    Sizes go by area, then width, then height.  A w x h torus is a closed
    walk of w edges in the cylinder strip of height h, so the narrowest one
    of height h is a shortest cycle of that strip (``_shortest_torus``): the
    lexicographically least in column order, replayed.  Heights above the
    best area so far cannot give a smaller torus and get no strip.
    """
    best = None
    for h in range(1, max_h + 1):
        if best is not None and h > best.width * best.height:
            break
        wit = _shortest_torus(H, column_constraint, h, None, Pattern2D.from_columns, H, column_constraint)
        if wit is None or wit.width > max_w:
            continue
        if best is None or (wit.width * h, wit.width) < (best.width * best.height, best.width):
            best = wit
    return best


# ---------------------------------------------------------------------------
# decisions


@dataclass(frozen=True)
class DecisionOutcome:
    status: str  # "nonempty" | "empty" | "unknown"
    witness: TorusWitness | None = None
    rationale: str = ""

    @property
    def nonempty(self):
        return self.status == "nonempty"

    @property
    def empty(self):
        return self.status == "empty"

    def to_json(self):
        out = {"status": self.status, "rationale": self.rationale}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        return out


def semi_decide_emptiness(H, column_constraint, bound, budget=None):
    """Two strips per height h <= bound, each built within ``budget``.

    A free strip without a cycle proves emptiness: a configuration would
    give a bi-infinite walk.  With W windows of an order-m row SFT it has
    no rectangle of height h and width W + m.  A cylinder strip with a cycle
    proves nonemptiness; its shortest cycle (``_shortest_torus``) is the
    narrowest torus of height h, replayed before it is returned.  Otherwise
    Unknown at the bound; empty rows are empty, a blown budget Unknown.
    """
    for h in range(1, bound + 1):
        try:
            free = StripAutomaton.build(H, column_constraint, h, budget)
            if not free.has_cycle():
                w = len(free.states) + len(free.narrow) + 1
                return DecisionOutcome("empty", rationale=f"no {w}x{h} window: the strip of height {h} has no cycle")
            wit = _shortest_torus(H, column_constraint, h, budget, Pattern2D.from_columns, H, column_constraint)
        except EmptyLanguage:
            return DecisionOutcome("empty", rationale="the rows have no words")
        except BudgetExceeded:
            return DecisionOutcome("unknown", rationale=f"budget exceeded at height {h}")
        if wit is not None:
            return DecisionOutcome("nonempty", wit, f"torus witness {wit.width}x{h}")
    return DecisionOutcome("unknown", rationale=f"no decision up to height {bound}")


def _shortest_torus(rows, columns, h, budget, read, H, constraint, forbidden2d=()):
    """The torus of a shortest cycle of the cylinder strip of height h whose
    rows follow the SFT ``rows`` and whose columns are the cyclic words of
    ``columns``, or None when it has no cycle or ``rows`` no words.  The
    cycle's columns, the first of each state on it, are the only ones spelled
    out as symbol tuples; ``read`` makes the pattern from them, and it must
    pass ``validate_torus(H, constraint, pattern, forbidden2d)``."""
    try:
        strip = StripAutomaton.build(rows, columns, h, budget, cyclic=True)
    except EmptyLanguage:
        return None
    walk = shortest_cycle(strip.successors)
    if not walk:
        return None
    pat = read(_word_tuples(strip.columns[strip.states[walk, 0]], rows.alphabet.symbols))
    if not validate_torus(H, constraint, pat, forbidden2d):
        raise RuntimeError("a cylinder strip cycle gave a torus that fails replay")
    return TorusWitness(pat.width, pat.height, pat)


def decide_with_certificate(H, constraint, budget=200000):
    """Certificate-complete emptiness decision in the decidable regimes.

    With an SFT column constraint V, H must satisfy the decidability
    condition (all components share a type); with 2D forbidden patterns, H
    must have only periodic points.  Either way the system is nonempty iff
    it has a torus of the one width W the regime fixes, so the decision is
    a shortest cycle of one cylinder strip (``_shortest_torus``) whose
    columns are the cyclic H-rows of width W, read as the torus's rows: the
    transposed strip ``StripAutomaton.build(V, H, W, cyclic=True)`` with V,
    the height-1 strip of ``_stack_sft`` with patterns.  A cycle is the
    lowest torus of width W, replayed; no cycle, or rows with no words, is
    emptiness.  ``budget`` caps what the strip keeps (and first the pattern
    stacks to check); overflow, or a budget below 1, gives ``unknown``.  An
    SFT constraint over other symbols than H is a ValueError.
    """
    vertical = isinstance(constraint, Sft1D)
    if vertical:
        require_same_alphabet(H, constraint)
    try:
        g = build_rauzy(H)
    except EmptyLanguage:
        return DecisionOutcome("empty", rationale="the rows have no words")
    if vertical:
        verdict = check_condition_d(g)
        if not verdict.holds:
            raise PreconditionUnmet("the horizontal graph fails the decidability condition")
        if verdict.common_type == "reflexive":
            width = 1
        elif verdict.common_type == "symmetric":
            width = 2
        else:
            width = lcm(*(len(t.state_split_partition) for t in verdict.per_scc))
    else:
        per = has_only_periodic_points(H)
        if not per.holds:
            raise PreconditionUnmet("H does not have only periodic points")
        forbidden2d = tuple(constraint)
        p = per.period
        width = p * max(1, -(-max([q.width for q in forbidden2d], default=1) // p))
    if budget < 1:
        return DecisionOutcome("unknown", rationale=f"budget exceeded: a budget of {budget} keeps nothing")
    try:
        if vertical:
            wit = _shortest_torus(constraint, H, width, budget, Pattern2D.from_rows, H, constraint)
        else:
            symbols = H.alphabet.symbols
            rows = _words(g.word_automaton, width, symbols)[0]
            rows = _word_tuples(rows[_repeats(H, rows, symbols)], symbols)
            wit = _shortest_torus(
                _stack_sft(rows, forbidden2d, budget), None, 1, budget,
                lambda cols: Pattern2D.from_rows([rows[int(k)] for (k,) in cols]), H, None, forbidden2d,
            )
    except BudgetExceeded as exc:
        return DecisionOutcome("unknown", rationale=f"budget exceeded: {exc}")
    if wit is None:
        return DecisionOutcome("empty", rationale=f"no torus of width {width}: the cylinder strip has no cycle")
    return DecisionOutcome("nonempty", wit, f"torus witness {width}x{wit.height}, the lowest of width {width}")


def _stack_sft(rows, patterns, budget):
    """The 1D SFT over the indices of ``rows`` (as str) that forbids each
    stack of q.height rows in which pattern q occurs at its bottom, at some
    column, wrapping horizontally (a pattern of no rows occurs on each row,
    as in ``validate_torus``).  The sum over q of |rows|^q.height stacks is
    charged against ``budget`` before any is listed."""
    heights = [max(1, q.height) for q in patterns]
    stacks = sum(len(rows) ** qh for qh in heights)
    if stacks > budget:
        raise BudgetExceeded(f"{stacks} row stacks to check")
    forbidden = set()
    for q, qh in zip(patterns, heights):
        for stack in product(range(len(rows)), repeat=qh):
            block = Pattern2D.from_rows([rows[k] for k in stack])
            if any(q.matches_at(block, i, 0, wrap=True) for i in range(block.width)):
                forbidden.add(tuple(map(str, stack)))
    return Sft1D(tuple(map(str, range(len(rows)))), frozenset(forbidden))
