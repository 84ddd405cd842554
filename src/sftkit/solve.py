"""Exact rectangle counting, periodic-torus search, and emptiness decisions.

A rectangle of width w and height h is counted as valid when every row is a
(1D-globally admissible) word of the horizontal SFT and every column is legal
under the column constraint: nothing, a 1D SFT, or a vertical presentation
from the compiler.  2D global admissibility is undecidable and is *not*
enforced; only the 1D structure per row/column is.  All counts are exact
Python integers.

One strip transfer engine, ``StripAutomaton``, counts for a horizontal SFT of
any order: its states are windows of legal columns as wide as the order, and
each window's successor columns are one int bitmask, the AND over its rows
of the columns whose symbol in that row may follow the row's word.  A width
step either follows that transition list or, when they hold fewer edges,
runs through h row layers that move one row of the window at a time: for
hard squares of height 15, 38,760 layer edges instead of 665,857
transitions.  Layers are numpy index arrays, built by sorting rather than
by one dict operation per edge; an exact step sums an object array of
Python ints, one ``np.add.reduceat`` per layer.  With an SFT column
constraint, ``count_rectangles`` builds the strip of the transposed
rectangles (column words as rows) when its bound on the windows is smaller:
4 x 30 no-111 rows over golden-mean columns then need 13 rows of width 4 as
columns, not the 2.2 million golden columns of height 30.  One check,
``_cyclic_ok``, decides whether a row or column repeats periodically, for
cylinder strips (``cyclic=True``: only such columns, so the closed walks
are the tori), replay and decisions alike.  ``find_torus`` takes the
shortest cycle of the cylinder strip of each height, the narrowest torus of
that height.  ``semi_decide_emptiness`` reads one free and one cylinder
strip per height: a free strip with no cycle proves emptiness, a cylinder
strip with one a torus.  In the decidable regimes ``decide_with_certificate``
reads one cylinder strip, whose columns are the cyclic rows of the one width
a torus must have; all three take the shortest cycle through
``_shortest_torus``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, product
from math import lcm

import numpy as np

from .core import (
    BudgetExceeded,
    EmptyLanguage,
    Pattern2D,
    PreconditionUnmet,
    Sft1D,
    _bits,
    build_rauzy,
    label_words,
    language_count,
    require_same_alphabet,
    shortest_cycle,
)
from .classify import check_condition_d, has_only_periodic_points
from .compiler import VerticalPresentation


# ---------------------------------------------------------------------------
# column candidates


def _columns_for(constraint, h, alphabet, budget=None):
    """Legal column words of height h under the constraint."""
    if constraint is None:
        if budget is not None and len(alphabet) ** h > budget:
            raise BudgetExceeded(f"|A|^{h} columns exceed the budget")
        return [tuple(c) for c in product(alphabet, repeat=h)]
    if isinstance(constraint, Sft1D):
        return _global_words(constraint, h)
    if isinstance(constraint, VerticalPresentation):
        return constraint.words(h)
    raise TypeError(f"unsupported column constraint {constraint!r}")


def _global_words(sft, n):
    """All globally admissible n-words in canonical alphabet order, via
    pruned Rauzy paths."""
    try:
        g = build_rauzy(sft)
    except EmptyLanguage:
        return []
    m = g.order
    if n <= m:
        # every pruned vertex has a successor, so a factor of a vertex is a
        # prefix of a later one; the vertices are already in canonical order
        return list(dict.fromkeys(v[:n] for v in g.vertices))
    vs = g.vertices
    out_edges = [[(vs[j][-1], j) for j in row] for row in g.index.succ]
    return [v + w for i, v in enumerate(vs) for w in label_words(i, out_edges.__getitem__, n - m)]


# ---------------------------------------------------------------------------
# strip automaton and exact counting


@dataclass
class StripAutomaton:
    """Transfer structure on windows of legal columns of one height.

    For a horizontal SFT of order m, a state is a window of m legal columns
    whose every row is a Rauzy vertex, its cells listed column by column
    (for m = 1, the column itself).  A transition appends a column that moves
    every row along a Rauzy edge and drops the window's first column.
    ``narrow[k - 1]`` is the number of k-column windows for k < m: windows
    whose every row is a prefix of a vertex.

    With ``cyclic=True`` only the columns ``_cyclic_ok`` accepts are kept
    (a cylinder strip).  Then a closed walk of w edges is exactly a
    w-periodic column sequence, the first column of each state on it, whose
    rows all repeat into legal H-words: a periodic row is legal iff its
    m + 1 windows are Rauzy edges, and pruning keeps every cycle.

    ``successors`` lists the successor states of each state in ascending
    order, so by ascending appended column.  The build keeps it as one int
    bitmask per state over the columns (popcounts give the transition count)
    and decodes it on first use, or at once when the width step follows it.
    ``_shortest_torus`` searches it for a shortest cycle (for
    ``find_torus``, ``semi_decide_emptiness`` and
    ``decide_with_certificate``), on cylinder strips only; counting,
    ``has_cycle`` and the spectral radius do not read it unless their layers
    are that list, or the spectral radius falls back to it.  ``budget`` caps
    what the build keeps: the columns, every window listed and the stored
    edges (the layer edges, or the transitions when the width step follows
    them).

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
    of transitions (the popcounts of the masks), decoded or not.
    """

    height: int
    states: tuple
    narrow: tuple
    layers: tuple
    transitions: int
    _code: tuple = field(repr=False)  # ``successors`` before decoding, see ``_decode``

    @classmethod
    def build(cls, H, constraint, h, budget=None, cyclic=False):
        if h < 1:
            raise ValueError("h must be >= 1")
        g = build_rauzy(H)
        m = g.order
        vs = g.vertices
        succ = g.index.succ
        # row words: the prefixes of Rauzy vertices, numbered after the
        # vertex ranks; step[x][s] is the row word after symbol s (a longer
        # prefix, or for a vertex the target of its s-edge)
        ids = {v: i for i, v in enumerate(vs)}
        for v in vs:
            for k in range(m):
                ids.setdefault(v[:k], len(ids))
        step = [{vs[j][-1]: j for j in row} for row in succ] + [{} for _ in range(len(ids) - len(vs))]
        for v in vs:
            for k in range(m):
                step[ids[v[:k]]][v[k]] = ids[v[: k + 1]]
        root = ids[()]
        cols = _columns_for(constraint, h, H.alphabet.symbols, budget)
        if budget is not None and len(cols) > budget:
            raise BudgetExceeded(f"{len(cols)} columns exceed the budget")
        symbols = step[root].keys()  # each symbol of a vertex starts one
        cols = [c for c in cols if symbols >= set(c) and (not cyclic or _cyclic_ok(constraint, c))]
        # follow[r][x]: the columns whose row-r symbol may follow row word x
        at = [{} for _ in range(h)]
        for c, col in enumerate(cols):
            for r, s in enumerate(col):
                at[r][s] = at[r].get(s, 0) | 1 << c
        follow = [[0] * len(step) for _ in range(h)]
        for fr, col_at in zip(follow, at):
            for x, nxt in enumerate(step):
                for s in nxt:
                    fr[x] |= col_at.get(s, 0)

        def successor_mask(rows):
            """The columns that extend the window with these row words."""
            mask = -1
            for fr, x in zip(follow, rows):
                mask &= fr[x]
            return mask

        # windows as (column indices, row word ids), one column at a time;
        # the budget counts the columns, every window listed (counted from
        # the masks before the list is made) and the edges the strip keeps
        stored = len(cols)
        windows = [((), (root,) * h)]
        narrow = []
        for k in range(m):
            masks = [successor_mask(rows) for _, rows in windows]
            stored += sum(mask.bit_count() for mask in masks)
            _charge(budget, stored)
            if k:
                narrow.append(len(windows))
            prev = windows
            windows = [
                (w + (c,), tuple(step[x][s] for x, s in zip(rows, cols[c])))
                for (w, rows), mask in zip(windows, masks)
                for c in _bits(mask)
            ]
        masks = [successor_mask(rows) for _, rows in windows]
        slot = shifts = None
        if m > 1:
            before = {w: j * len(cols) for j, (w, _) in enumerate(prev)}
            shifts = [before[w[1:]] for w, _ in windows]
            slot = {before[w[:-1]] + w[-1]: i for i, (w, _) in enumerate(windows)}
        states = tuple(sum((cols[j] for j in w), ()) for w, _ in windows)
        code = (masks, shifts, slot)
        transitions = sum(mask.bit_count() for mask in masks)
        # for h >= 2 the first row layer has an edge from each window with a
        # successor and the last one an edge into each window with a
        # predecessor (for h = 1 the one layer is the list), so row layers
        # cannot beat a list no longer than that; the windows with shift
        # base b have the successors b + c for c in the OR of their masks
        ends = {}
        for base, mask in zip(shifts or [0] * len(masks), masks):
            ends[base] = ends.get(base, 0) | mask
        least = sum(map(bool, masks)) + sum(mask.bit_count() for mask in ends.values())
        cap = transitions if budget is None else min(transitions, budget - stored + 1)
        if transitions > least:
            layers = _row_layers(np.array([rows for _, rows in windows], dtype=np.intp), succ, cap)
            if layers is not None:
                return cls(h, states, tuple(narrow), layers, transitions, code)
        _charge(budget, stored + transitions)
        lists = tuple(map(tuple, _decode(*code)))
        src = np.arange(len(lists)).repeat(np.fromiter(map(len, lists), np.intp, len(lists)))
        dst = np.fromiter(chain.from_iterable(lists), np.intp, transitions)
        order = dst.argsort(kind="stable")
        strip = cls(h, states, tuple(narrow), ((src[order], dst[order], len(states)),), transitions, code)
        strip.successors = lists  # fills the cached property: decoded once
        return strip

    @cached_property
    def successors(self):
        """Successor state indices of each state, ascending; decoded on first
        use."""
        return tuple(map(tuple, _decode(*self._code)))

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

    def has_cycle(self):
        """Does the strip have a cycle, i.e. a bi-infinite walk?

        The support of the width step, iterated from every window, shrinks
        to the windows that a cycle reaches, so its fixed point is nonempty
        exactly when a cycle exists.  Each layer maps the support with one
        ``np.bincount``; nothing is decoded.
        """
        live = np.ones(len(self.states), dtype=bool)
        while True:
            nxt = live
            for src, dst, size in self.layers:
                nxt = np.bincount(dst[nxt[src]], minlength=size) > 0
            if np.array_equal(nxt, live):
                return bool(live.any())
            live = nxt

    def spectral_radius(self, tol=1e-12, max_iter=10**6):
        """Largest transfer eigenvalue as (value, (lo, hi), iterations), with
        a certified bracket, ``lo <= value <= hi`` and ``hi - lo <= tol * hi``.

        Write A for the transpose of the transfer matrix, which has the same
        spectral radius: one sweep through the layers maps x to Ax.  Power
        iteration on B = A + I runs through the layers, one ``np.bincount``
        per layer, from x = 1 over the whole strip, and
        ``entropy._exact_bracket`` certifies the Collatz–Wielandt bracket
        with one exact sweep (``_image``) of the integer-scaled iterate.
        That bracket holds for any nonnegative A while x > 0, but on a
        reducible A it need not narrow: a window with no predecessor keeps
        the ratio 0.  So when n steps, n the number of states, do not
        certify it, or an entry of x underflows to 0, the per-component
        iteration of ``entropy._spectral_radius`` over ``successors``
        decides.  Its ``max_iter`` bounds the steps on each component, and
        ``iterations`` counts every step, the steps before it too.
        """
        from .entropy import _exact_bracket, _spectral_radius

        x = np.ones(len(self.states))
        steps = next_check = 0
        while steps < min(len(x), max_iter):
            steps += 1
            ax = x
            for src, dst, size in self.layers:
                ax = np.bincount(dst, ax[src], size)
            ratios = ax / x
            lo, hi = float(ratios.min()), float(ratios.max())
            if hi - lo <= tol * hi and steps >= next_check:
                lo, hi = _exact_bracket(x, self._image)
                if hi - lo <= tol * hi:
                    return (lo + hi) / 2, (lo, hi), steps
                next_check = 2 * steps  # the float ratios are too coarse yet
            y = ax + x
            x = y / y.max()
            if not x.min() > 0:
                break
        value, bracket, more = _spectral_radius(self.successors, tol, max_iter)
        return value, bracket, steps + more


def _charge(budget, stored):
    """Refuse a strip that keeps more than ``budget`` columns, windows and
    edges."""
    if budget is not None and stored > budget:
        raise BudgetExceeded(f"more than {budget} strip columns, windows and edges")


def _decode(masks, shifts, slot):
    """Successor lists from one bitmask per state over the columns; for
    windows of m > 1 columns, the state of window i less its first column,
    plus column c, is ``slot[shifts[i] + c]``, and for m = 1 it is c."""
    if slot is None:
        return [_bits(mask) for mask in masks]
    return [[slot[base + c] for c in _bits(mask)] for base, mask in zip(shifts, masks)]


def _row_layers(rows, succ, cap):
    """The h row layers of a width step, or None once they reach ``cap``
    edges.

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
    # layer 0 has an edge from each window for each successor of its row-0
    # vertex that starts a window: when that alone reaches cap, return
    # before the tries are built
    starts = np.zeros(nv, bool)
    starts[rows[:, 0]] = True
    if np.bincount(np.arange(nv).repeat(degree), starts[targets], nv)[rows[:, 0]].sum() >= cap:
        return None
    # prefix trie: the sorted keys p * nv + v of the nodes at depth r + 1,
    # p a node at depth r; a node's id is its rank
    grow = []
    node = np.zeros(n, np.intp)
    for r in range(h):
        keys, node, order = _dedupe(node * nv + rows[:, r])
        grow.append(keys)
    window = order  # the window of each rank of the full prefixes
    # suffix trie: for each node of rows r..h-1, the node t of rows r + 1..
    # below it and its row-r vertex v; at r = 0 the nodes are the windows
    below = [None] * h
    node = np.zeros(n, np.intp)
    for r in range(h - 1, 0, -1):
        keys, node, _ = _dedupe(node * nv + rows[:, r])
        below[r] = (keys // nv, keys % nv)
    below[0] = (node, rows[:, 0])
    layers = []
    edges = 0
    prefix, suffix = np.zeros(n, np.intp), np.arange(n)  # the layer-0 states
    for r in range(h):
        t, v = (a[suffix] for a in below[r])
        # each state once per successor of its row-r vertex, then the
        # prefix that successor extends, if the windows have it
        count = degree[v]
        src = np.arange(len(suffix)).repeat(count)
        pos = np.arange(len(src)) + (start[v] - (count.cumsum() - count)).repeat(count)
        key = prefix[src] * nv + targets[pos]
        keys = grow[r]
        q = np.searchsorted(keys, key)
        hit = keys[np.minimum(q, len(keys) - 1)] == key
        src, q = src[hit], q[hit]
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
    return tuple(layers)


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


def _cyclic_ok(constraint, word):
    """Does ``word`` repeat periodically into a legal bi-infinite word?"""
    if constraint is None:
        return True
    if isinstance(constraint, Sft1D):
        reps = 2 + (constraint.order + 1) // max(1, len(word))
        return constraint.word_locally_admissible(tuple(word) * reps)
    if isinstance(constraint, VerticalPresentation):
        return constraint.is_cyclic(tuple(word))
    raise TypeError(f"unsupported column constraint {constraint!r}")


def validate_torus(H, column_constraint, pattern, forbidden2d=()):
    """Independent window checker: does the pattern tile the plane legally?

    Every cell must be a symbol of H, and of the column SFT if there is one.
    """
    symbols = set(H.alphabet.symbols)
    if isinstance(column_constraint, Sft1D):
        symbols &= set(column_constraint.alphabet.symbols)
    if not symbols.issuperset(pattern.cells):
        return False
    for j in range(pattern.height):
        if not _cyclic_ok(H, pattern.row(j)):
            return False
    for i in range(pattern.width):
        if not _cyclic_ok(column_constraint, pattern.column(i)):
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
    ``columns``, or None when it has no cycle or ``rows`` no words.  ``read``
    makes the pattern from the cycle's columns, and it must pass
    ``validate_torus(H, constraint, pattern, forbidden2d)``."""
    try:
        strip = StripAutomaton.build(rows, columns, h, budget, cyclic=True)
    except EmptyLanguage:
        return None
    walk = shortest_cycle(strip.successors)
    if not walk:
        return None
    pat = read([strip.states[i][:h] for i in walk])
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
            rows = [r for r in _global_words(H, width) if _cyclic_ok(H, r)]
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
