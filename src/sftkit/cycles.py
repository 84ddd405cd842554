"""Cycle-pair predicates and the constructive selection of a coding pair.

The compiler in :mod:`sftkit.compiler` needs two cycles C1, C2 of the Rauzy
graph satisfying a five-part condition (length, good pair, no uniform
shortcut, no cross-bridge, not both attractive and repulsive vertices).
``find_cycle_pair`` constructs such a pair for any strongly connected graph
that fails the decidability condition.  It tries one stream of candidates in
order and keeps the first that passes or that a documented exception
excuses: the documented pair of an exceptional 3-vertex graph; the pair of a
case analysis over the graph shape, and for case 3.1 the same pair swapped;
after a refused case 1.3 pair only, the documented pairs of exceptional
3-vertex subgraphs and the five-position cycles of the 1.3 special shape;
last a capped brute-force stream of pairs over simple and glued cycles.
That one rule is the only code that accepts a candidate.
``verify_pair_admissible`` is the independent oracle used to cross-check it.

Cycle indices are always taken modulo the cycle length, and cycles may repeat
vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain, combinations, islice, permutations
from math import lcm

from .core import (
    ConditionDHolds,
    Digraph,
    EmptyLanguage,
    NotStronglyConnected,
    SearchExhausted,
    shortest_cycle,
)
from .classify import check_condition_d


@dataclass(frozen=True)
class Cycle:
    """Cycle of a digraph: a vertex sequence whose consecutive pairs (with
    wraparound) are all edges.  Vertices may repeat.  Equality, hashing and
    repr see only the vertices, not the graph."""

    graph: Digraph = field(compare=False, repr=False)
    vertices: tuple

    def __post_init__(self):
        vs = tuple(self.vertices)
        if not vs:
            raise ValueError("empty cycle")
        for i in range(len(vs)):
            if not self.graph.has_edge(vs[i], vs[(i + 1) % len(vs)]):
                raise ValueError(f"({vs[i]!r}, {vs[(i + 1) % len(vs)]!r}) is not an edge")
        object.__setattr__(self, "vertices", vs)

    def __len__(self):
        return len(self.vertices)

    def __getitem__(self, i):
        return self.vertices[i % len(self.vertices)]

    def __iter__(self):
        return iter(self.vertices)

    def rotated(self, k):
        n = len(self.vertices)
        k %= n
        return Cycle(self.graph, self.vertices[k:] + self.vertices[:k])


@dataclass(frozen=True)
class CyclePair:
    c1: Cycle
    c2: Cycle


@dataclass(frozen=True)
class ConditionCReport:
    good_pairs: tuple
    shortcuts_c1: tuple
    shortcuts_c2: tuple
    cross_bridges: tuple
    attractors: tuple
    repulsors: tuple
    passes: bool
    case_tag: str | None = None
    admissible: bool = False
    exemption: str | None = None

    def failed(self):
        """Which of the five conditions fail (as labels i..v)."""
        out = []
        if self._c1_len < 3:
            out.append("i")
        if not self.good_pairs:
            out.append("ii")
        if self.shortcuts_c1 or self.shortcuts_c2:
            out.append("iii")
        if self.cross_bridges:
            out.append("iv")
        if self.attractors and self.repulsors:
            out.append("v")
        return tuple(out)

    _c1_len: int = 0

    def to_json(self):
        return {
            "good_pairs": [list(g) for g in self.good_pairs],
            "shortcuts_c1": list(self.shortcuts_c1),
            "shortcuts_c2": list(self.shortcuts_c2),
            "cross_bridges": [list(b) for b in self.cross_bridges],
            "attractors": list(self.attractors),
            "repulsors": list(self.repulsors),
            "passes": self.passes,
            "case_tag": self.case_tag,
            "admissible": self.admissible,
            "exemption": self.exemption,
        }


# ---------------------------------------------------------------------------
# predicates


def good_pairs(c1, c2):
    """All (i, j, l) such that c1[i+t] != c2[j+t] for t <= l and equal after.

    The disagreement run must have length >= 2 (l >= 1) and the agreement run
    length >= 1 (l <= M-2), M = lcm of the lengths; the whole diagonal orbit
    (i+p, j+p) is derivable from a witness.  Indices are cyclic, and c1, c2
    may be Cycles or plain vertex sequences.
    """
    c1, c2 = tuple(c1), tuple(c2)
    n1, n2 = len(c1), len(c2)
    m = lcm(n1, n2)
    out = []
    for i in range(n1):
        for j in range(n2):
            # a run must start at (i, j): disagree there, agree just before
            if c1[i] == c2[j] or c1[i - 1] != c2[j - 1]:
                continue
            diffs = [c1[(i + t) % n1] != c2[(j + t) % n2] for t in range(m)]
            f = diffs.index(False)
            l = f - 1
            if l < 1:
                continue
            if any(diffs[t] for t in range(f, m)):
                continue
            out.append((i, j, l))
    return out


def uniform_shortcuts(c, graph=None):
    """All k in {0, 2, .., |C|-1} with (c[i], c[i+k]) an edge for every i.

    A single-vertex cycle has no shortcut: its only chord candidate is the
    cycle edge itself.
    """
    g = graph or c.graph
    n = len(c)
    if n == 1:
        return []
    return [
        k
        for k in [0] + list(range(2, n))
        if all(g.has_edge(c[i], c[i + k]) for i in range(n))
    ]


def cross_bridges(c1, c2, graph=None):
    """All (i, j) with crossed chords between the two cycles."""
    g = graph or c1.graph
    out = []
    for i in range(len(c1)):
        for j in range(len(c2)):
            if (
                c1[i] != c2[j]
                and c1[i + 1] != c2[j + 1]
                and g.has_edge(c1[i], c2[j + 1])
                and g.has_edge(c2[j], c1[i + 1])
            ):
                out.append((i, j))
    return out


def attract_repulse(c1, scope, graph=None):
    """(attractors, repulsors) for C1 among ``scope`` vertices.

    An attractor receives an edge from every vertex of C1; a repulsor sends
    an edge to every vertex of C1.
    """
    g = graph or c1.graph
    body = set(c1)
    scope = g.in_order(set(scope))
    attractors = tuple(v for v in scope if all(g.has_edge(c, v) for c in body))
    repulsors = tuple(v for v in scope if all(g.has_edge(v, c) for c in body))
    return attractors, repulsors


def check_condition_c(c1, c2, graph=None):
    """Aggregate the five predicates for a candidate pair."""
    g = graph or c1.graph
    gp = tuple(good_pairs(c1, c2))
    s1 = tuple(uniform_shortcuts(c1, g))
    s2 = tuple(uniform_shortcuts(c2, g))
    cb = tuple(cross_bridges(c1, c2, g))
    scope = set(c1) | set(c2)
    att, rep = attract_repulse(c1, scope, g)
    passes = len(c1) >= 3 and bool(gp) and not s1 and not s2 and not cb and not (att and rep)
    return ConditionCReport(gp, s1, s2, cb, att, rep, passes, _c1_len=len(c1))


# ---------------------------------------------------------------------------
# exceptional shapes


def _loops(g):
    return {v for v in g.vertices if g.has_edge(v, v)}


def _uni_edges(g):
    return [(u, v) for (u, v) in g.ordered_edges() if u != v and not g.has_edge(v, u)]


# the exceptional 3-vertex graphs, with their documented pair choices; each
# entry is (tag, edges over labels a/b/c incl. loops, C1 labels, C2 labels)
_LEN3 = (
    ("len3-a", {"ab", "bc", "ca", "cb", "bb", "cc"}, "bca", "b"),
    ("len3-b", {"ab", "bc", "ca", "cb", "ac", "cc"}, "abc", "ac"),
    ("len3-c", {"ab", "bc", "ca", "cb", "ac", "bb", "cc"}, "abc", "ac"),
    ("len3-d", {"ab", "bc", "ca", "ba", "ac", "bb", "cc"}, "abc", "ab"),
)


def _match_len3_triple(g, triple):
    """Match the induced subgraph on three vertices against the exceptional
    patterns; the five conditions only see edges inside C1 u C2, so the
    documented treatment applies in any ambient graph.  Returns
    (C1, C2, tag) or None."""
    induced = frozenset((u, v) for (u, v) in g.edges if u in triple and v in triple)
    for tag, edges, c1s, c2s in _LEN3:
        for perm in permutations(triple):
            m = dict(zip("abc", perm))
            mapped = frozenset((m[e[0]], m[e[1]]) for e in edges)
            if mapped == induced:
                c1 = Cycle(g, tuple(m[x] for x in c1s))
                c2 = Cycle(g, tuple(m[x] for x in c2s))
                return c1, c2, tag
    return None


def _matches_case13_special(g, c1, c2):
    """The five-position shape (a, p, u, v, t): a loopless, p repulsive,
    t attractive, (u, v) the unidirectional edge with loops on both ends.
    Positions may share vertices (p=t, v=t or u=p)."""
    if len(c2) != 1 or len(c1) != 5:
        return False
    loops = _loops(g)
    if any(u not in loops or v not in loops for (u, v) in _uni_edges(g)):
        return False
    att, rep = attract_repulse(c1, set(c1) | set(c2), g)
    if not att or not rep:
        return False
    for s in range(5):
        a, p, u, v, t = (c1[s + d] for d in range(5))
        if (
            a not in loops
            and u in loops
            and v in loops
            and g.has_edge(u, v)
            and not g.has_edge(v, u)
            and t in att
            and p in rep
            and c2[0] in (u, v)
        ):
            return True
    return False


def _has_alignment_vertex(g, c1, c2):
    """A loopless vertex of C1, visited once, whose in- or out-neighborhood
    inside C1 u C2 is a single vertex.  Columns of the slice construction
    only contain C1 u C2 symbols, so such a vertex pins the alignment of
    adjacent columns even when condition (v) fails."""
    loops = _loops(g)
    scope = set(c1) | set(c2)
    for x in set(c1):
        if x in loops or list(c1.vertices).count(x) != 1:
            continue
        preds = {y for y in scope if g.has_edge(y, x)}
        succs = {y for y in scope if g.has_edge(x, y)}
        if len(preds) == 1 or len(succs) == 1:
            return True
    return False


def _exemption(g, c1, c2, report):
    """Which documented exceptional pattern (if any) excuses the failures."""
    failed = set(report.failed())
    if not failed:
        return None
    loops = _loops(g)

    # a degree-one loopless vertex forces alignment, excusing condition (v)
    if failed <= {"v"}:
        if _has_alignment_vertex(g, c1, c2):
            return "degree-one-alignment"
        if _matches_case13_special(g, c1, c2):
            return "case1.3-special"

    # two cross-bridge positions next to the unidirectional edge are the only
    # harmful ones when C2 is a single looped vertex
    if failed <= {"iv", "v"} and len(c2) == 1:
        z = c2[0]
        if z in loops:
            n = len(c1)
            # occurrences of z adjacent to a unidirectional edge of the cycle
            banned_sets = []
            for pz in range(n):
                if c1[pz] != z:
                    continue
                before_uni = c1[pz - 1] != z and g.has_edge(c1[pz - 1], z) and not g.has_edge(z, c1[pz - 1])
                after_uni = c1[pz + 1] != z and g.has_edge(z, c1[pz + 1]) and not g.has_edge(c1[pz + 1], z)
                if before_uni or after_uni:
                    banned_sets.append({(pz - 2) % n, (pz + 1) % n})
            for banned in banned_sets:
                if all(i not in banned for (i, _) in report.cross_bridges):
                    if "v" not in failed:
                        return "two-bridge"
                    if _matches_case13_special(g, c1, c2):
                        return "case1.3-special"
                    if _has_alignment_vertex(g, c1, c2):
                        return "two-bridge+degree-one"
    return None


def verify_pair_admissible(graph, c1, c2):
    """Independent oracle: condition C holds strictly, or the pair matches a
    documented exceptional pattern (exceptional 3-vertex subgraphs, the
    degree-one alignment, the two-bridge case, the five-position shape)."""
    report = check_condition_c(c1, c2, graph)
    if report.passes:
        return True
    scope = set(c1) | set(c2)
    if len(scope) == 3:
        m = _match_len3_triple(graph, tuple(graph.in_order(scope)))
        if m is not None:
            d1, d2, _ = m
            if _same_cycle(c1, d1) and _same_cycle(c2, d2):
                return True
    return _exemption(graph, c1, c2, report) is not None


def _same_cycle(c, d):
    if len(c) != len(d):
        return False
    return any(c.rotated(k).vertices == d.vertices for k in range(len(c)))


# ---------------------------------------------------------------------------
# case dispatch


def _cycle_key(g, vs):
    rank = g.index.rank
    return (len(vs), tuple(rank[v] for v in vs))


def _return_paths(succ, s, max_len):
    """Paths from s back to s of at most ``max_len`` edges that meet no
    vertex twice and s only at their ends, as rank tuples without the final
    s: shortest first, then in lexicographic order.

    One depth-first walk with on-path flags per length; a branch is cut when
    its last vertex is too far from s to get back in time.
    """
    pred = [[] for _ in succ]
    for u, row in enumerate(succ):
        for v in row:
            pred[v].append(u)
    dist = [max_len + 1] * len(succ)  # edges from each vertex back to s
    dist[s] = 0
    frontier = [s]
    while frontier:
        nxt = []
        for v in frontier:
            for u in pred[v]:
                if dist[u] > dist[v] + 1:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    on_path = [False] * len(succ)
    for length in range(1, min(max_len, len(succ)) + 1):  # a path meets each vertex once
        path, stack = [s], [iter(succ[s])]
        while stack:
            for v in stack[-1]:
                if v == s:
                    if len(path) == length:
                        yield tuple(path)
                elif not on_path[v] and len(path) + dist[v] <= length:
                    on_path[v] = True
                    path.append(v)
                    stack.append(iter(succ[v]))
                    break
            else:
                stack.pop()
                on_path[path.pop()] = False


def _simple_cycles_upto(g, max_len):
    """All simple cycles of length <= max_len, each starting at its first
    vertex in canonical order; shortest first, then in canonical order.
    The cycles first at s are the return paths of s among the vertices from
    s on."""
    succ = g.index.succ
    walks = (_return_paths([[v for v in row if v >= s] for row in succ], s, max_len) for s in range(len(succ)))
    found = sorted(chain.from_iterable(walks), key=lambda c: (len(c), c))
    return [tuple(g.vertices[i] for i in c) for c in found]


def _min_simple_cycles(g):
    """The shortest simple cycles, as ``_simple_cycles_upto`` lists them."""
    return _simple_cycles_upto(g, len(shortest_cycle(g.index.succ)))


def _rotate_to(vs, x):
    i = vs.index(x)
    return vs[i:] + vs[:i]


def find_cycle_pair(graph):
    """Construct a coding pair (C1, C2) for a non-decidable-type graph.

    The graph must be strongly connected (take a product of components
    first) and must fail the decidability condition.  The candidates of
    ``_candidates`` are tried in order, and the first that passes condition
    C, or that a documented exception excuses, is returned: a ``len3-*``
    pair is excused by its own pattern, any other by ``_exemption``.  No
    other code accepts or refuses a candidate.  The report carries the
    candidate's tag in ``case_tag`` (``case1.3-special`` when that exemption
    excuses it); for an excused pair ``passes`` is false while
    ``admissible`` is true with the exemption recorded.  Raises
    EmptyLanguage for a graph with no edge (it has no cycle), and
    SearchExhausted if no candidate is admissible (the capped fallback
    stream runs out).
    """
    if not graph.edges:
        raise EmptyLanguage("the graph has no edge, so no cycle")
    if not graph.is_strongly_connected():
        raise NotStronglyConnected("find_cycle_pair needs a strongly connected graph")
    if check_condition_d(graph).holds:
        raise ConditionDHolds("the graph satisfies the decidability condition")

    for c1, c2, tag in _candidates(graph):
        report = check_condition_c(c1, c2, graph)
        if report.passes:
            exemption = None
        elif tag.startswith("len3-"):
            exemption = tag
        else:
            exemption = _exemption(graph, c1, c2, report)
            if exemption is None:
                continue
            if exemption == "case1.3-special":
                tag = exemption
        return CyclePair(c1, c2), replace(report, case_tag=tag, admissible=True, exemption=exemption)
    raise SearchExhausted("no admissible cycle pair found (implementation gap)")


def _candidates(g):
    """Candidate pairs (C1, C2, tag) in the order ``find_cycle_pair`` tries
    them: the documented pair of an exceptional 3-vertex graph; the pair of
    the case dispatch, then for case 3.1 the pair with C1 and C2 swapped;
    after a refused case 1.3 pair only, the documented pair of each
    exceptional induced 3-vertex subgraph and then each five-position cycle
    of the 1.3 special shape; last the first ``_BRUTE_FORCE_CHECKS`` pairs of
    ``_brute_force_pairs``, tagged ``fallback``.  Nothing here judges a
    candidate."""
    if len(g.vertices) == 3:
        m = _match_len3_triple(g, g.vertices)
        if m is not None:
            yield m
    loops = _loops(g)
    if loops:
        pair_tag = _case_1(g, loops)
    elif any(g.has_edge(v, u) for (u, v) in g.edges if u != v):
        pair_tag = _case_2(g)
    else:
        pair_tag = _case_3(g)
    if pair_tag is not None:
        yield pair_tag
        c1, c2, tag = pair_tag
        if tag == "3.1":
            yield c2, c1, tag
        elif tag == "1.3":
            for triple in combinations(g.vertices, 3):  # each in canonical order
                m = _match_len3_triple(g, triple)
                if m is not None:
                    yield m
            for c1, c2 in _case_13_special_search(g):
                yield c1, c2, "case1.3-special"
    for c1, c2 in islice(_brute_force_pairs(g), _BRUTE_FORCE_CHECKS):
        yield c1, c2, "fallback"


def _case_1(g, loops):
    uni = _uni_edges(g)

    # 1.1: a unidirectional edge joining a loopless and a looped vertex
    best = None
    for rank, (x, y) in enumerate(uni):
        lx, ly = x in loops, y in loops
        if lx == ly:
            continue
        w = y if ly else x
        path = g.shortest_path(y, x)
        if path is None:
            continue
        cyc = (x,) + path[:-1]
        key = (len(cyc), 0 if ly else 1, rank)
        if best is None or key < best[0]:
            best = (key, _rotate_to(cyc, w), w)
    if best is not None:
        _, cyc, w = best
        return Cycle(g, cyc), Cycle(g, (w,)), "1.1"

    both_loopless = [(u, v) for (u, v) in uni if u not in loops and v not in loops]
    if both_loopless:
        got = _uni_then_bi_cycle(g)
        if got is not None:
            c1, c2, _ = got
            return c1, c2, "1.2"
        return None

    # 1.3: every unidirectional edge has loops on both endpoints
    best = None
    loopless = [a for a in g.vertices if a not in loops]
    for (u, v) in uni:
        for a in loopless:
            p_va = g.shortest_path(v, a)
            p_au = g.shortest_path(a, u)
            if p_va is None or p_au is None:
                continue
            cyc = p_au + (v,) + p_va[1:-1]  # a..u, v, ..back to a
            key = (len(cyc), _cycle_key(g, cyc))
            if best is None or key < best[0]:
                best = (key, cyc, u, v, a, len(p_au) - 1)
    if best is None:
        return None
    _, cyc, u, v, a, i0 = best
    c2v = v
    n = len(cyc)
    if cyc[(i0 + 2) % n] == a:
        c2v = u
    c1 = Cycle(g, cyc)
    try:
        c2 = Cycle(g, (c2v,))
    except ValueError:
        return None
    return c1, c2, "1.3"


def _case_13_special_search(g):
    """The five-position cycles (a, p, u, v, t) with an attractor t and a
    repulsor p around the unidirectional edge (u, v); positions may share
    vertices.  Each is paired with the single looped vertex v, then u."""
    loops = _loops(g)
    loopless = [x for x in g.vertices if x not in loops]
    for (u, v) in _uni_edges(g):
        if u not in loops or v not in loops:
            continue
        for a in loopless:
            for p in g.successors(a):
                if not g.has_edge(p, u):
                    continue
                for t in g.predecessors(a):
                    if not g.has_edge(v, t):
                        continue
                    c1 = Cycle(g, (a, p, u, v, t))
                    if uniform_shortcuts(c1, g):
                        continue
                    for z in (v, u):
                        c2 = Cycle(g, (z,))
                        if _matches_case13_special(g, c1, c2) and good_pairs(c1, c2):
                            yield c1, c2


def _uni_then_bi_cycle(g):
    """Minimal cycle with a unidirectional edge (u,v) followed by the
    bidirectional edge (v,w); C2 = (v, w), C1 starts at v."""
    cand_a = None
    cand_b = None
    for (u, v) in _uni_edges(g):
        for w in g.successors(v):
            if w == v or w == u or not g.has_edge(w, v):
                continue
            p = g.shortest_path(w, u, avoid={v})
            if p is not None:
                cyc = (v, w) + p[1:]
                key = (len(cyc), _cycle_key(g, cyc))
                if cand_a is None or key < cand_a[0]:
                    cand_a = (key, cyc, v, w)
            else:
                q = g.shortest_path(v, u, avoid={w})
                if q is not None and len(q) >= 3:
                    key = (len(q), _cycle_key(g, q))
                    if cand_b is None or key < cand_b[0]:
                        cand_b = (key, q, v, w)
    chosen = cand_a if cand_a is not None else cand_b
    if chosen is None:
        return None
    _, cyc, v, w = chosen
    return Cycle(g, cyc), Cycle(g, (v, w)), None


def _case_2(g):
    bi_edges = [(u, v) for (u, v) in g.ordered_edges() if u != v and g.has_edge(v, u)]
    has_long_bi_cycle = False
    for (x, y) in bi_edges:
        p = g.shortest_path(y, x, forbidden_edges={(y, x)})
        if p is not None and len(p) >= 3:
            has_long_bi_cycle = True
            break
    if has_long_bi_cycle:
        got = _uni_then_bi_cycle(g)
        if got is not None:
            c1, c2, _ = got
            return c1, c2, "2.1"
    # 2.2: minimal cycle of length >= 3 sharing exactly one vertex with a
    # bidirectional edge
    best = None
    for (v, w) in bi_edges:
        for s in g.successors(v):
            if s == w:
                continue
            p = g.shortest_path(s, v, avoid={w}, forbidden_edges={(s, v)})
            if p is None:
                continue
            cyc = (v,) + p[:-1]
            if len(cyc) < 3:
                continue
            key = (len(cyc), _cycle_key(g, cyc))
            if best is None or key < best[0]:
                best = (key, cyc, v, w)
    if best is None:
        return None
    _, cyc, v, w = best
    return Cycle(g, cyc), Cycle(g, (v, w)), "2.2" if not has_long_bi_cycle else "2.1"


def _exterior_paths(g, cyc):
    """Paths between distinct cycle vertices avoiding the cycle elsewhere."""
    cset = set(cyc)
    n = len(cyc)
    cedges = {(cyc[i], cyc[(i + 1) % n]) for i in range(n)}
    out = []
    for ix, x in enumerate(cyc):
        for iy, y in enumerate(cyc):
            if x == y:
                continue
            p = g.shortest_path(x, y, avoid=cset - {x, y}, forbidden_edges=cedges)
            if p is None:
                continue
            k = (iy - ix) % n
            out.append((ix, iy, p, k, len(p) - 1))
    return out


def _case_3(g):
    min_cycles = _min_simple_cycles(g)
    if not min_cycles:
        return None

    # 3.1: some exterior path has a length different from the inside distance
    best = None
    for cyc in min_cycles:
        for (ix, iy, p, k, plen) in _exterior_paths(g, cyc):
            if plen != k:
                key = (plen, _cycle_key(g, cyc), ix, iy)
                if best is None or key < best[0]:
                    best = (key, cyc, ix, iy, p)
    if best is not None:
        _, cyc, ix, iy, p = best
        c1 = Cycle(g, _rotate_to(cyc, cyc[ix]))
        c2_vs = p[:-1] + tuple(_rotate_to(cyc, cyc[iy]))[: (ix - iy) % len(cyc)]
        return c1, Cycle(g, c2_vs), "3.1"

    for cyc in min_cycles:
        if _exterior_paths(g, cyc):
            got = _case_32(g, cyc)
            if got is not None:
                return got + ("3.2",)
            return None

    # 3.3: no exterior path between distinct vertices; use a return path
    cyc = min_cycles[0]
    cset = set(cyc)
    n = len(cyc)
    cedges = {(cyc[i], cyc[(i + 1) % n]) for i in range(n)}
    best = None
    for ix, x in enumerate(cyc):
        p = g.shortest_path(x, x, avoid=cset - {x}, forbidden_edges=cedges)
        if p is None:
            continue
        key = (len(p), _cycle_key(g, p))
        if best is None or key < best[0]:
            best = (key, x, p)
    if best is None:
        return None
    _, x, p = best
    c1 = Cycle(g, _rotate_to(cyc, x))
    c2 = Cycle(g, p[:-1])
    return c1, c2, "3.3"


def _case_32(g, cyc):
    """Class-propagation sweep; pick the first incomplete class edge and
    build two overlapping cycles through the adjacent classes."""
    n = len(cyc)
    classes = [set() for _ in range(n)]
    classes[0].add(cyc[0])
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for v in list(classes[i]):
                for w in g.successors(v):
                    if w not in classes[(i + 1) % n]:
                        classes[(i + 1) % n].add(w)
                        changed = True
    cover = set().union(*classes)
    if cover != set(g.vertices) or sum(len(c) for c in classes) != len(g.vertices):
        return None  # sweep failed; leave it to the fallback
    quad = None
    for i in range(n):
        for v in g.in_order(classes[i]):
            succ_v = set(g.successors(v))
            missing = g.in_order(classes[(i + 1) % n] - succ_v)
            if not missing:
                continue
            wprime = missing[0]
            vprime = g.in_order(succ_v & classes[(i + 1) % n])[0]
            w = g.in_order(u for u in classes[i] if g.has_edge(u, wprime))[0]
            quad = (v, vprime, w, wprime)
            break
        if quad:
            break
    if quad is None:
        return None
    v, vprime, w, wprime = quad
    g1 = g.shortest_path(vprime, v)
    if g1 is None:
        return None
    c1 = Cycle(g, g1)  # (v', .., v); wraps through the edge (v, v')
    g2 = _path_with_overlap(g, wprime, w, len(g1) - 1, set(g1))
    if g2 is None:
        g2 = g.shortest_path(wprime, w)
        if g2 is None:
            return None
    c2 = Cycle(g, g2)
    return c1, c2


def _path_with_overlap(g, src, dst, length, prefer):
    """A src->dst path of exactly ``length`` edges maximizing shared vertices
    with ``prefer``; None if no path of that length exists."""
    rank = g.index.rank

    def key(cand):  # more overlap first, then canonical order
        return (-cand[0], [rank[x] for x in cand[1]])

    best = {}  # (vertex, steps) -> (overlap, path)
    start_score = 1 if src in prefer else 0
    best[(src, 0)] = (start_score, (src,))
    for step in range(length):
        nxt = {}
        for (u, s), (score, path) in best.items():
            if s != step:
                continue
            for v in g.successors(u):
                sc = score + (1 if v in prefer else 0)
                cur = nxt.get((v, step + 1))
                cand = (sc, path + (v,))
                if cur is None or key(cand) < key(cur):
                    nxt[(v, step + 1)] = cand
        best.update(nxt)
    got = best.get((dst, length))
    return got[1] if got else None


_BRUTE_FORCE_CANDIDATES = 400  # glued cycles, and cycles in the pool
_BRUTE_FORCE_CHECKS = 3000  # fallback (C1, C2) pairs judged before SearchExhausted


def _brute_force_pairs(g):
    """The fallback's candidate pairs over simple cycles and bounded repeat
    cycles: every (C1, C2) of the pool with |C1| >= 3, C1 in pool order.

    The pool is deterministic and capped: it exists to surface dispatch
    gaps, not to be complete.  Cycles with uniform shortcuts are dropped up
    front (no exemption tolerates condition iii).
    """
    simples = _simple_cycles_upto(g, len(g.vertices))
    glued = []
    for a in simples:
        for b in simples:
            if a[0] == b[0] and a != b and len(a) + len(b) <= 2 * len(g.vertices):
                glued.append(a + b)
                if len(glued) >= _BRUTE_FORCE_CANDIDATES:
                    break
        if len(glued) >= _BRUTE_FORCE_CANDIDATES:
            break
    pool = []
    for vs in simples + glued:
        c = Cycle(g, vs)  # a simple cycle, or two glued at a shared start
        if not uniform_shortcuts(c, g):
            pool.append(c)
        if len(pool) >= _BRUTE_FORCE_CANDIDATES:
            break
    return ((c1, c2) for c1 in pool if len(c1) >= 3 for c2 in pool)
