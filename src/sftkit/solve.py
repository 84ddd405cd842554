"""Exact rectangle counting, periodic-torus search, and emptiness decisions.

A rectangle of width w and height h is counted as valid when every row is a
(1D-globally admissible) word of the horizontal SFT and every column is legal
under the column constraint: nothing, a 1D SFT, or a vertical presentation
from the compiler.  2D global admissibility is undecidable and is *not*
enforced; only the 1D structure per row/column is.  All counts are exact
Python integers.

One strip transfer engine, ``StripAutomaton``, counts for a horizontal SFT of
any order: its states are windows of legal columns as wide as the order, and
its transitions are found by walking a trie of the columns one row at a time
along the Rauzy graph.  One check, ``_cyclic_ok``, decides whether a row or
column repeats periodically, for torus search, replay and decisions alike.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass
class StripAutomaton:
    """Transfer structure on windows of legal columns of one height.

    For a horizontal SFT of order m, a state is a window of m legal columns
    whose every row is a Rauzy vertex, its cells listed column by column
    (for m = 1, the column itself).  A transition appends a column that moves
    every row along a Rauzy edge and drops the window's first column.
    ``narrow[k - 1]`` is the number of k-column windows for k < m: windows
    whose every row is a prefix of a vertex.
    """

    height: int
    states: tuple
    successors: tuple  # tuple of tuples of state indices
    narrow: tuple = ()

    @classmethod
    def build(cls, H, constraint, h, budget=None):
        if h < 1:
            raise ValueError("h must be >= 1")
        g = build_rauzy(H)
        m = g.order
        cols = _columns_for(constraint, h, H.alphabet.symbols, budget)
        if budget is not None and len(cols) > budget:
            raise BudgetExceeded(f"{len(cols)} columns exceed the budget")
        # symbols allowed after a row word: a proper prefix of a vertex, or a
        # vertex itself (the labels of its out-edges)
        after = {}
        for v in g.vertices:
            for k in range(m):
                after.setdefault(v[:k], set()).add(v[k])
        for u, v in g.edges:
            after.setdefault(u, set()).add(v[-1])
        trie = {}  # column prefix trie; a leaf is the column's index
        for i, c in enumerate(cols):
            node = trie
            for s in c[:-1]:
                node = node.setdefault(s, {})
            node[c[-1]] = i
        built = 0

        def extensions(window):
            """Ascending indices of the columns that extend every row."""
            nonlocal built
            nodes = [trie]
            for r in range(h):
                ok = after[tuple(cols[j][r] for j in window)]
                nodes = [child for node in nodes for s, child in node.items() if s in ok]
            built += len(nodes)
            if budget is not None and built > budget:
                raise BudgetExceeded(f"more than {budget} strip transitions")
            return nodes

        windows = [()]
        narrow = []
        for k in range(m):
            if k:
                narrow.append(len(windows))
            windows = [w + (c,) for w in windows for c in extensions(w)]
        index = {w: i for i, w in enumerate(windows)}
        succs = tuple(tuple(index[w[1:] + (c,)] for c in extensions(w)) for w in windows)
        states = tuple(sum((cols[j] for j in w), ()) for w in windows)
        return cls(h, states, succs, tuple(narrow))

    def count_width(self, w):
        """Number of valid w-column strips (exact)."""
        if w < 1:
            raise ValueError("w must be >= 1")
        if w <= len(self.narrow):
            return self.narrow[w - 1]
        vec = [1] * len(self.states)
        for _ in range(w - len(self.narrow) - 1):
            nxt = [0] * len(self.states)
            for i, ss in enumerate(self.successors):
                vi = vec[i]
                if vi:
                    for j in ss:
                        nxt[j] += vi
            vec = nxt
        return sum(vec)

    def spectral_radius(self, tol=1e-12, max_iter=10**6):
        """Largest transfer eigenvalue as (value, (lo, hi), iterations), with
        a certified bracket (``entropy._spectral_radius``)."""
        from .entropy import _spectral_radius

        return _spectral_radius(self.successors, tol, max_iter)


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
