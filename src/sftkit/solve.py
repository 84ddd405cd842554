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
transitions.  With an SFT column constraint, ``count_rectangles`` builds the
strip of the transposed rectangles (column words as rows) when its bound on
the windows is smaller: 4 x 30 no-111 rows over golden-mean columns then
need 13 rows of width 4 as columns, not the 2.2 million golden columns of
height 30.  One check, ``_cyclic_ok``, decides whether a row or column
repeats periodically, for cylinder strips (``cyclic=True``: only such
columns, so the closed walks are the tori of ``find_torus``), replay and
decisions alike.  ``semi_decide_emptiness`` reads one free and one cylinder
strip per height: a free strip with no cycle proves emptiness, a cylinder
strip with one a torus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from math import lcm

from .core import (
    WILDCARD,
    BudgetExceeded,
    EmptyLanguage,
    Pattern2D,
    PreconditionUnmet,
    Sft1D,
    _bits,
    build_rauzy,
    essential_states,
    label_words,
    language_count,
    require_same_alphabet,
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
    out_edges = [[(vs[j][-1], j) for j in row] for row in g.graph.index.succ]
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
    ``find_torus`` walks it, and ``semi_decide_emptiness`` searches it for a
    shortest cycle, both on cylinder strips only; counting, ``has_cycle``
    and the spectral radius do not read it unless their layers are that
    list, or the spectral radius falls back to it.  ``budget`` caps what
    the build keeps: the columns, every window listed and the stored edges
    (the layer edges, or the transitions when the width step follows them).

    ``count_width`` and ``spectral_radius`` sweep a vector through
    ``layers``, each a triple (src, dst, size): edge e adds the entry of
    state src[e] of its layer to state dst[e] of the next one, which has
    ``size`` states.  The first layer starts at the windows and the last
    ends at them.  When they hold fewer edges than there are transitions,
    these are the h row layers of ``_row_layers``; otherwise they are the
    one layer of ``successors``.
    """

    height: int
    states: tuple
    narrow: tuple
    layers: tuple
    _code: tuple = field(repr=False)  # ``successors`` before decoding, see ``_decode``

    @classmethod
    def build(cls, H, constraint, h, budget=None, cyclic=False):
        if h < 1:
            raise ValueError("h must be >= 1")
        g = build_rauzy(H)
        m = g.order
        vs = g.vertices
        succ = g.graph.index.succ
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
        layers = None if transitions <= least else _row_layers([rows for _, rows in windows], succ, h, cap)
        if layers is not None:
            return cls(h, states, tuple(narrow), layers, code)
        _charge(budget, stored + transitions)
        lists = tuple(map(tuple, _decode(*code)))
        src = [i for i, out in enumerate(lists) for _ in out]
        strip = cls(h, states, tuple(narrow), ((src, [j for out in lists for j in out], len(states)),), code)
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
        vec = [1] * len(self.states)
        for _ in range(w - len(self.narrow) - 1):
            vec = self._image(vec)
        return sum(vec)

    def _image(self, vec):
        """One width step of a vector of ints over the states, through the
        layers: entry j of the result sums the entries of the states with
        successor j, so it is the row vector times the transfer matrix."""
        for src, dst, size in self.layers:
            nxt = [0] * size
            for i, j in zip(src, dst):
                nxt[j] += vec[i]
            vec = nxt
        return vec

    def has_cycle(self):
        """Does the strip have a cycle, i.e. a bi-infinite walk?

        The support of the width step, iterated from every window, shrinks
        to the windows that a cycle reaches, so its fixed point is nonempty
        exactly when a cycle exists.  Nothing is decoded.
        """
        vec = [1] * len(self.states)
        while True:
            nxt = [min(x, 1) for x in self._image(vec)]
            if nxt == vec:
                return any(vec)
            vec = nxt

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
        import numpy as np

        from .entropy import _exact_bracket, _spectral_radius

        layers = [(np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp), size) for src, dst, size in self.layers]
        x = np.ones(len(self.states))
        steps = next_check = 0
        while steps < min(len(x), max_iter):
            steps += 1
            ax = x
            for src, dst, size in layers:
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


def _row_layers(windows, succ, h, cap):
    """The h row layers of a width step, or None once they reach ``cap``
    edges.

    ``windows`` lists each window as its h row words (Rauzy vertex ranks) and
    ``succ`` is the Rauzy successor list.  A width step moves each row word
    along an edge, one row at a time: a layer-r state pairs the new window's
    rows 0..r-1 (a node of the trie of the windows read from row 0) with the
    old window's rows r..h-1 (a node of the trie read from row h - 1).  A
    transition of the list is a path through the layers, and only the states
    on such a path are kept.
    """
    nv = len(succ)
    n = len(windows)
    grow = [{} for _ in range(h)]  # grow[r][p * nv + v]: prefix p of rows ..r - 1, then v
    below = [{} for _ in range(h)]  # below[r][t * nv + v]: v above suffix t of rows r + 1..
    for rows in windows:
        p = 0
        for d, v in zip(grow, rows):
            p = d.setdefault(p * nv + v, len(d))
        s = 0
        for d, v in zip(reversed(below), reversed(rows)):
            s = d.setdefault(s * nv + v, len(d))
    # a window's prefix and suffix ids are its index
    layers = []
    edges = 0
    states = {i: i for i in range(n)}  # p * width + s -> id of the state (p, s)
    width = n
    for r in range(h):
        d, suffix = grow[r], list(below[r])  # suffix id -> t * nv + v
        after = len(below[r + 1]) if r + 1 < h else 0
        moves = {}  # p * nv + v -> the prefixes p + v' for the successors v' of v
        found = {}
        src, dst = [], []
        for key, i in states.items():
            p, s = divmod(key, width)
            t, v = divmod(suffix[s], nv)
            qs = moves.get(p * nv + v)
            if qs is None:
                qs = moves[p * nv + v] = [q for q in map(d.get, [p * nv + x for x in succ[v]]) if q is not None]
            if after:
                for q in qs:
                    src.append(i)
                    dst.append(found.setdefault(q * after + t, len(found)))
            else:  # the prefix is a whole window
                src += [i] * len(qs)
                dst += qs
        edges += len(dst)
        if edges >= cap:
            return None
        layers.append((src, dst, len(found) if after else n))
        states, width = found, after
    # drop the states that reach no window, renumbering the rest
    for r in range(h - 1, 0, -1):
        src, dst, size = layers[r]
        live = list(dict.fromkeys(src))  # src ascends
        psrc, pdst, psize = layers[r - 1]
        if len(live) < psize:
            new = [-1] * psize
            for k, i in enumerate(live):
                new[i] = k
            layers[r] = ([new[i] for i in src], dst, size)
            keep = [e for e, j in enumerate(pdst) if new[j] >= 0]
            layers[r - 1] = ([psrc[e] for e in keep], [new[pdst[e]] for e in keep], len(live))
    return tuple(layers)


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


def find_torus(H, column_constraint, max_w, max_h, forbidden2d=()):
    """Smallest-area doubly periodic witness within the bounds, or None.

    Sizes go by area, then width, then height.  A w x h torus is a closed
    walk of w edges in the cylinder strip of height h, built once per
    height.  Walks go by first state, then by ascending successor, i.e. in
    lexicographic column order, and the first pattern that passes replay
    (``validate_torus``, which also rules out ``forbidden2d``) is returned.
    """
    sizes = sorted(product(range(1, max_w + 1), range(1, max_h + 1)), key=lambda s: (s[0] * s[1], s))
    strips = {}
    for w, h in sizes:
        if h not in strips:
            try:
                strips[h] = StripAutomaton.build(H, column_constraint, h, cyclic=True)
            except EmptyLanguage:
                return None
        strip = strips[h]
        for walk in _closed_walks(strip.successors, w):
            pat = Pattern2D.from_columns([strip.states[i][:h] for i in walk])
            if validate_torus(H, column_constraint, pat, forbidden2d):
                return TorusWitness(w, h, pat)
    return None


def _closed_walks(succ, w):
    """The closed walks of w edges in the successor lists, each as its w
    states from the first: by first state, then by ascending successor."""
    for first in range(len(succ)):
        path, todo = [first], [iter(succ[first])]
        while todo:
            if len(path) < w:
                nxt = next(todo[-1], None)
                if nxt is not None:
                    path.append(nxt)
                    todo.append(iter(succ[nxt]))
                    continue
            elif first in succ[path[-1]]:
                yield list(path)
            path.pop()
            todo.pop()


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
    proves nonemptiness; its shortest cycle (``_shortest_cycle``) is the
    narrowest torus of height h, replayed before it is returned.  Otherwise
    Unknown at the bound; empty rows are empty, a blown budget Unknown.
    """
    for h in range(1, bound + 1):
        try:
            free = StripAutomaton.build(H, column_constraint, h, budget)
            if not free.has_cycle():
                w = len(free.states) + len(free.narrow) + 1
                return DecisionOutcome("empty", rationale=f"no {w}x{h} window: the strip of height {h} has no cycle")
            cylinder = StripAutomaton.build(H, column_constraint, h, budget, cyclic=True)
        except EmptyLanguage:
            return DecisionOutcome("empty", rationale="the rows have no words")
        except BudgetExceeded:
            return DecisionOutcome("unknown", rationale=f"budget exceeded at height {h}")
        walk = _shortest_cycle(cylinder.successors)
        if walk:
            pat = Pattern2D.from_columns([cylinder.states[i][:h] for i in walk])
            if not validate_torus(H, column_constraint, pat):
                raise RuntimeError("a cylinder strip cycle gave a torus that fails replay")
            return DecisionOutcome("nonempty", TorusWitness(len(walk), h, pat), f"torus witness {len(walk)}x{h}")
    return DecisionOutcome("unknown", rationale=f"no decision up to height {bound}")


def _shortest_cycle(succ):
    """A shortest cycle of the successor lists as its states, from the
    smallest first state among the shortest, or [] when there is none: a
    breadth-first search over the essential states from each back to itself,
    which stops at the length of the best cycle so far."""
    keep = essential_states(succ)
    inside = set(keep)
    best = []
    for first in keep:
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
                    if v in inside and v not in parent:
                        parent[v] = u
                        nxt.append(v)
            level = nxt
    return best


def decide_with_certificate(H, constraint, budget=200000):
    """Certificate-complete emptiness decision in the decidable regimes.

    With an SFT column constraint, H must satisfy the decidability condition
    (all components share a type); with a set of 2D forbidden patterns, H
    must have only periodic points.  Either way a torus is a stack of
    cyclically valid H-rows of one width, and a new row is checked only
    against the top mv - 1 rows below it, mv being the height of the
    tallest column word or pattern.  So the search is one depth-first walk
    from the empty stack over stacks of at most mv - 1 rows (at most
    |rows|^(mv-1) of them): an edge appends a row whose new column words
    and patterns are legal and keeps the top mv - 1 rows.  A stack's
    successors are built as the walk reaches them, and the first back edge
    closes a cycle whose rows are a torus witness, replayed before it is
    returned.  Emptiness is reported only when the walk is exhausted.
    ``budget`` caps the stacks expanded; overflow gives ``unknown``.  An SFT
    constraint over other symbols than H is a ValueError.
    """
    is_vertical = isinstance(constraint, Sft1D)
    if is_vertical:
        require_same_alphabet(H, constraint)
    g = build_rauzy(H)

    if is_vertical:
        verdict = check_condition_d(g)
        if not verdict.holds:
            raise PreconditionUnmet("the horizontal graph fails the decidability condition")
        if verdict.common_type == "reflexive":
            width = 1
        elif verdict.common_type == "symmetric":
            width = 2
        else:
            width = lcm(*(len(t.state_split_partition) for t in verdict.per_scc))
        mv = max([len(wd) for wd in constraint.forbidden], default=1)
        col_ok = constraint.word_locally_admissible
        forbidden2d = ()
    else:
        per = has_only_periodic_points(H)
        if not per.holds:
            raise PreconditionUnmet("H does not have only periodic points")
        forbidden2d = tuple(constraint)
        p = per.period
        maxw = max([q.width for q in forbidden2d], default=1)
        mv = max([q.height for q in forbidden2d], default=1)
        width = p * max(1, -(-maxw // p))
        col_ok = None
    keep = max(mv, 1) - 1

    rows = [r for r in _global_words(H, width) if _cyclic_ok(H, r)]
    bound_desc = f"stacks of at most {keep} of the {len(rows)} cyclically valid rows of width {width}"
    # each pattern as its height and its fixed cells (di, dj, symbol)
    pattern_cells = [
        (q.height, [(i % q.width, i // q.width, s) for i, s in enumerate(q.cells) if s != WILDCARD])
        for q in forbidden2d
    ]
    col_memo = {}

    def column_ok(word):
        ok = col_memo.get(word)
        if ok is None:
            ok = col_memo[word] = col_ok(word)
        return ok

    def patterns_ok(block):
        # patterns whose top row is the block's top row, wrapping horizontally
        h = len(block)
        for qh, fixed in pattern_cells:
            if qh > h:
                continue
            base = h - qh
            for i in range(width):
                if all(block[base + dj][(i + di) % width] == s for di, dj, s in fixed):
                    return False
        return True

    def successors(stack):
        """(next stack, row index) for each row that may go on ``stack``."""
        below = [rows[k] for k in stack]
        cols = list(zip(*below)) if below else [()] * width
        for k, r in enumerate(rows):
            if col_ok is not None and not all(column_ok(c + (x,)) for c, x in zip(cols, r)):
                continue
            if pattern_cells and not patterns_ok(below + [r]):
                continue
            yield (stack + (k,))[-keep:] if keep else (), k

    # iterative DFS: the path holds (stack, the row that led to it, its
    # successors), and depth[s] is the position of stack s on the path
    overflow = DecisionOutcome("unknown", rationale=f"more than {budget} row stacks to expand")
    if budget < 1:
        return overflow
    depth = {(): 0}
    done = set()
    walk = [((), None, successors(()))]
    while walk:
        node, _, it = walk[-1]
        for nxt, k in it:
            d = depth.get(nxt)
            if d is not None:
                # the torus is the cycle part alone
                torus = Pattern2D.from_rows([rows[j] for _, j, _ in walk[d + 1 :]] + [rows[k]])
                wit = TorusWitness(width, torus.height, torus)
                if not validate_torus(H, constraint if is_vertical else None, torus, forbidden2d):
                    raise RuntimeError("a row-stack cycle gave a torus that fails replay")
                why = f"torus of height {torus.height} from a cycle over {bound_desc}"
                return DecisionOutcome("nonempty", wit, why)
            if nxt not in done:
                if len(done) + len(walk) >= budget:
                    return overflow
                depth[nxt] = len(walk)
                walk.append((nxt, k, successors(nxt)))
                break
        else:
            walk.pop()
            del depth[node]
            done.add(node)
    return DecisionOutcome("empty", rationale=f"no cycle over {bound_desc}: the walk is exhausted")
