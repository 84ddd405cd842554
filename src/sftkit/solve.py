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
transitions.  One check, ``_cyclic_ok``, decides whether a row or column
repeats periodically, for torus search, replay and decisions alike.
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
    build_rauzy,
    label_words,
    require_same_alphabet,
)
from .classify import check_condition_d, has_only_periodic_points, scc_types
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


def _bits(mask):
    """The positions of the set bits of ``mask`` (an int >= 0), ascending."""
    return [i for i, b in enumerate(reversed(bin(mask))) if b == "1"]


@dataclass
class StripAutomaton:
    """Transfer structure on windows of legal columns of one height.

    For a horizontal SFT of order m, a state is a window of m legal columns
    whose every row is a Rauzy vertex, its cells listed column by column
    (for m = 1, the column itself).  A transition appends a column that moves
    every row along a Rauzy edge and drops the window's first column.
    ``narrow[k - 1]`` is the number of k-column windows for k < m: windows
    whose every row is a prefix of a vertex.

    ``successors`` lists the successor states of each state in ascending
    order.  The build keeps it as one int bitmask per state over the columns
    (popcounts give the transition count for the budget) and decodes it on
    first use.

    ``count_width`` sweeps a count vector through ``layers``, each a triple
    (src, dst, size): edge e adds the count of state src[e] of its layer to
    state dst[e] of the next one, which has ``size`` states.  The first layer
    starts at the windows and the last ends at them.  When they hold fewer
    edges than there are transitions, these are the h row layers of
    ``_row_layers``; otherwise they are the one layer of ``successors``.
    """

    height: int
    states: tuple
    narrow: tuple
    layers: tuple
    _code: tuple = field(repr=False)  # ``successors`` before decoding, see ``_decode``

    @classmethod
    def build(cls, H, constraint, h, budget=None):
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
        cols = [c for c in cols if symbols >= set(c)]
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
        built = 0

        def successor_mask(rows):
            """The columns that extend the window with these row words."""
            nonlocal built
            mask = -1
            for fr, x in zip(follow, rows):
                mask &= fr[x]
            built += mask.bit_count()
            if budget is not None and built > budget:
                raise BudgetExceeded(f"more than {budget} strip transitions")
            return mask

        # windows as (column indices, row word ids), one column at a time
        windows = [((), (root,) * h)]
        narrow = []
        for k in range(m):
            if k:
                narrow.append(len(windows))
            prev = windows
            windows = [
                (w + (c,), tuple(step[x][s] for x, s in zip(rows, cols[c])))
                for w, rows in windows
                for c in _bits(successor_mask(rows))
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
        layers = _row_layers([rows for _, rows in windows], succ, h, transitions)
        if layers is None:
            lists = _decode(*code)
            src = [i for i, out in enumerate(lists) for _ in out]
            layers = ((src, [j for out in lists for j in out], len(states)),)
        return cls(h, states, tuple(narrow), layers, code)

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
            for src, dst, size in self.layers:
                nxt = [0] * size
                for i, j in zip(src, dst):
                    nxt[j] += vec[i]
                vec = nxt
        return sum(vec)

    def spectral_radius(self, tol=1e-12, max_iter=10**6):
        """Largest transfer eigenvalue as (value, (lo, hi), iterations), with
        a certified bracket (``entropy._spectral_radius``)."""
        from .entropy import _spectral_radius

        return _spectral_radius(self.successors, tol, max_iter)


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
    """Exact count of w x h rectangles with H-rows and constrained columns."""
    if w < 1 or h < 1:
        raise ValueError("dimensions must be >= 1")
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

    The witness is replay-validated with wraparound before being returned.
    """
    try:
        g = build_rauzy(H)
    except EmptyLanguage:
        return None
    sizes = sorted(
        ((w, h) for w in range(1, max_w + 1) for h in range(1, max_h + 1)),
        key=lambda s: (s[0] * s[1], s[0], s[1]),
    )
    cyclic = {}  # height -> cyclic columns, shared by every width
    for (w, h) in sizes:
        if h not in cyclic:
            cyclic[h] = [
                c
                for c in _columns_for(column_constraint, h, H.alphabet.symbols)
                if _cyclic_ok(column_constraint, c)
            ]
        cols = cyclic[h]
        if not cols:
            continue
        pat = _search_torus(H, cols, w, h, forbidden2d)
        if pat is not None:
            wit = TorusWitness(w, h, pat)
            if validate_torus(H, column_constraint, pat, forbidden2d):
                return wit
    return None


def _search_torus(H, cols, w, h, forbidden2d):
    chosen = []

    def rows_ok(c):
        # each row's newest order + 1 cells are a factor of the cyclic row
        k = min(len(chosen), H.order)
        tail = chosen[len(chosen) - k :]
        return all(
            H.word_locally_admissible(tuple(col[j] for col in tail) + (c[j],)) for j in range(h)
        )

    def pairs_ok(c1, c2):
        return all(H.word_locally_admissible((x, y)) for x, y in zip(c1, c2))

    def full_check():
        pat = Pattern2D.from_columns(chosen)
        for j in range(h):
            if not _cyclic_ok(H, pat.row(j)):
                return None
        for p in forbidden2d:
            if p.occurs_in(pat, wrap=True):
                return None
        return pat

    def rec():
        if len(chosen) == w:
            return full_check()
        for c in cols:
            if not rows_ok(c):
                continue
            if len(chosen) == w - 1 and not pairs_ok(c, chosen[0] if chosen else c):
                continue
            chosen.append(c)
            got = rec()
            if got is not None:
                return got
            chosen.pop()
        return None

    return rec()


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
    """Interleaved search: an empty n x n count proves emptiness, a torus
    proves nonemptiness; otherwise Unknown at the bound."""
    for n in range(1, bound + 1):
        try:
            c = count_rectangles(H, column_constraint, n, n, budget)
        except BudgetExceeded:
            return DecisionOutcome("unknown", rationale=f"budget exceeded at n={n}")
        if c == 0:
            return DecisionOutcome("empty", rationale=f"no valid {n}x{n} window")
        wit = find_torus(H, column_constraint, n, n)
        if wit is not None:
            return DecisionOutcome("nonempty", wit, f"torus witness {wit.width}x{wit.height}")
    return DecisionOutcome("unknown", rationale=f"no decision up to bound {bound}")


def decide_with_certificate(H, constraint, budget=200000):
    """Certificate-complete emptiness decision in the decidable regimes.

    With an SFT column constraint, H must satisfy the decidability condition
    (all components share a type); with a set of 2D forbidden patterns, H
    must have only periodic points.  The search runs over blocks of the
    theoretical pigeonhole size; a repeated block closes a cycle from which a
    replayable torus witness is extracted, and emptiness is reported only
    when the block graph is exhausted (or no block exists at all).  An SFT
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
        transient = set(g.transient)
        comps = [c for c in g.scc if not (len(c) == 1 and c[0] in transient)]
        if verdict.common_type == "reflexive":
            width = 1
        elif verdict.common_type == "symmetric":
            width = 2
        else:
            width = 1
            for comp in comps:
                t = scc_types(g.graph.subgraph(comp))
                width = lcm(width, len(t.state_split_partition))
        mv = max([len(wd) for wd in constraint.forbidden], default=1)
        mv = max(mv, 1)
        col_ok = constraint.word_locally_admissible
        bound_desc = f"{width} x {mv}*(|A|^{width * mv}+1)"
        forbidden2d = ()
    else:
        per = has_only_periodic_points(H)
        if not per.holds:
            raise PreconditionUnmet("H does not have only periodic points")
        patterns = tuple(constraint)
        p = per.period
        maxw = max([q.width for q in patterns], default=1)
        mv = max([q.height for q in patterns], default=1)
        width = p * max(1, -(-maxw // p))
        col_ok = None
        bound_desc = f"{width} x {mv}*(|A|^{width * mv}+1)"
        forbidden2d = patterns

    rows = [r for r in _global_words(H, width) if _cyclic_ok(H, r)]
    if not rows:
        return DecisionOutcome("empty", rationale=f"no cyclically valid row of width {width}")

    def columns_ok(block):
        # block: list of rows bottom-to-top; check every column's new suffix
        if col_ok is None:
            return True
        h = len(block)
        lo = max(0, h - mv)
        for i in range(width):
            word = tuple(block[j][i] for j in range(lo, h))
            if not col_ok(word):
                return False
        return True

    def _wrap_match(q, pat, i, j):
        # horizontal wraparound only (the strip is horizontally periodic)
        for dj in range(q.height):
            for di in range(q.width):
                s = q[di, dj]
                if s == WILDCARD:
                    continue
                if pat[(i + di) % pat.width, j + dj] != s:
                    return False
        return True

    def patterns_ok(block):
        if not forbidden2d:
            return True
        h = len(block)
        pat = Pattern2D.from_rows(block)
        for q in forbidden2d:
            if q.height > h:
                continue
            j = h - q.height
            for i in range(width):
                if _wrap_match(q, pat, i, j):
                    return False
        return True

    # enumerate valid height-mv blocks
    blocks = []
    state_index = {}

    def grow(block):
        if len(state_index) > budget:
            raise BudgetExceeded("block budget exceeded")
        if len(block) == mv:
            key = tuple(block)
            if key not in state_index:
                state_index[key] = len(blocks)
                blocks.append(key)
            return
        for r in rows:
            block.append(r)
            if columns_ok(block) and patterns_ok(block):
                grow(block)
            block.pop()

    try:
        grow([])
    except BudgetExceeded:
        return DecisionOutcome("unknown", rationale="state budget exceeded while enumerating blocks")
    if not blocks:
        return DecisionOutcome(
            "empty",
            rationale=f"no valid block of size {width} x {mv}; bound {bound_desc} exhausted",
        )

    # block graph: append one row, keep the top mv rows
    succ = {}
    for bi, block in enumerate(blocks):
        outs = []
        for r in rows:
            stacked = list(block) + [r]
            if columns_ok(stacked) and patterns_ok(stacked):
                key = tuple(stacked[1:])
                if key in state_index:
                    outs.append((state_index[key], r))
        succ[bi] = outs

    # cycle detection with path recovery (iterative DFS, colors)
    color = {}
    parent = {}
    for start in range(len(blocks)):
        if color.get(start):
            continue
        stack = [(start, iter(succ[start]))]
        color[start] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for (nxt, r) in it:
                if color.get(nxt) == 1:
                    # found a cycle nxt -> ... -> node -> nxt
                    cyc_rows = [r]
                    cur = node
                    while cur != nxt:
                        pr, prow = parent[cur]
                        cyc_rows.append(prow)
                        cur = pr
                    cyc_rows.reverse()
                    # the torus is the cycle part alone
                    torus = Pattern2D.from_rows(cyc_rows)
                    wit = TorusWitness(width, len(cyc_rows), torus)
                    hcons = constraint if is_vertical else None
                    if not validate_torus(H, hcons, torus, forbidden2d):
                        raise RuntimeError("a block-graph cycle gave a torus that fails replay")
                    return DecisionOutcome(
                        "nonempty", wit, f"pigeonhole block repeat at height <= {bound_desc}"
                    )
                if color.get(nxt) is None:
                    color[nxt] = 1
                    parent[nxt] = (node, r)
                    stack.append((nxt, iter(succ[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                stack.pop()
    return DecisionOutcome(
        "empty", rationale=f"block graph acyclic; theoretical bound {bound_desc} exhausted"
    )
