import json
import random
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from sftkit.core import (
    Alphabet,
    Digraph,
    EmptyLanguage,
    Pattern2D,
    Sft1D,
    WangTile,
    WangTileSet,
    _bits,
    _locally_admissible_words,
    build_rauzy,
    essential_states,
    free_tile_set,
    full_shift,
    higher_block_recode,
    language_count,
    sft_from_edges,
    word_in_language,
)

from conftest import block_cells


def brute_words(sft, n):
    """Independent oracle: n-words extendable far enough on both sides."""
    pad = 3 * (sft.order + 1) + n

    def extends(word, budget):
        if budget == 0:
            return True
        return any(
            extends(word + (a,), budget - 1)
            for a in sft.alphabet
            if sft.word_locally_admissible(word[-(sft.order + 1) :] + (a,))
        )

    def extends_left(word, budget):
        if budget == 0:
            return True
        return any(
            extends_left((a,) + word, budget - 1)
            for a in sft.alphabet
            if sft.word_locally_admissible((a,) + word[: sft.order + 1])
        )

    out = set()
    from itertools import product

    for w in product(sft.alphabet.symbols, repeat=n):
        if sft.word_locally_admissible(w) and extends(w, pad) and extends_left(w, pad):
            out.add(w)
    return out


class TestRauzy:
    def test_paper_example_corrected(self):
        # the two-component example: {0} and {2} strongly connected, 1
        # transient, 3 pruned away; the forbidden set needs 20 alongside
        # 10, 21, 11 for the stated picture to come out
        sft = Sft1D.from_words("0123", "10", "20", "21", "11", "30", "31", "32", "33")
        g = build_rauzy(sft)
        assert [v[0] for v in g.vertices] == ["0", "1", "2"]
        assert g.sccs() == ((("0",),), (("1",),), (("2",),))
        assert g.transient_vertices() == (("1",),)

    def test_paper_example_literal_forbidden_set(self):
        # with the forbidden set as printed (no 20), 1 -> 2 -> 0 -> 1 closes a
        # cycle, so there is a single component and no transient vertex
        sft = Sft1D.from_words("0123", "10", "21", "11", "30", "31", "32", "33")
        g = build_rauzy(sft)
        assert len(g.sccs()) == 1 and g.transient_vertices() == ()

    def test_full_shift_order1(self, full2):
        g = build_rauzy(full2, order=1)
        assert len(g.vertices) == 2
        assert len(g.edges) == 4
        assert len(g.sccs()) == 1

    def test_is_a_digraph(self, golden):
        # a Rauzy graph answers the Digraph queries itself
        alt011 = Sft1D.from_words("01", "00", "010", "111")
        corrected = Sft1D.from_words("0123", "10", "20", "21", "11", "30", "31", "32", "33")
        want = {
            golden: (((("0",), ("1",)),), ()),
            alt011: (((("0", "1"), ("1", "0"), ("1", "1")),), ()),
            corrected: (((("0",),), (("1",),), (("2",),)), (("1",),)),
        }
        for sft, (sccs, transient) in want.items():
            g = build_rauzy(sft)
            assert isinstance(g, Digraph) and g.graph is g
            assert g.sccs() == sccs and g.transient_vertices() == transient

    def test_golden_mean(self, golden):
        g = build_rauzy(golden)
        assert [v[0] for v in g.vertices] == ["0", "1"]
        assert set(g.edges) == {(("0",), ("0",)), (("0",), ("1",)), (("1",), ("0",))}

    def test_empty_language(self):
        with pytest.raises(EmptyLanguage):
            build_rauzy(Sft1D.from_words("0", "0"))

    def test_built_once_per_object_and_order(self, monkeypatch):
        import sftkit.core

        builds = []
        real = sftkit.core._build_rauzy
        monkeypatch.setattr(sftkit.core, "_build_rauzy", lambda sft, m: builds.append(m) or real(sft, m))
        sft = Sft1D.from_words("01", "111")
        g = build_rauzy(sft)
        assert build_rauzy(sft) is g and build_rauzy(sft, order=2) is g
        assert build_rauzy(sft, order=3).order == 3
        assert word_in_language(sft, tuple("0110110")) and language_count(sft, 9) == 274
        assert builds == [2, 3]
        # an equal SFT is another object and builds its own, equal graph
        assert build_rauzy(Sft1D.from_words("01", "111")) == g and builds == [2, 3, 2]
        empty = Sft1D.from_words("0", "0")
        for _ in range(2):
            with pytest.raises(EmptyLanguage):
                build_rauzy(empty)
        assert language_count(empty, 3) == 0 and builds == [2, 3, 2, 1]

    def test_edge_labels_are_target_suffix(self, golden):
        # an edge u -> v is the word u + v[-1], so u and v overlap
        g = build_rauzy(golden, order=3)
        assert all(u[1:] == v[:-1] for (u, v) in g.edges)
        no_11 = {w for w in product("01", repeat=4) if ("1", "1") not in zip(w, w[1:])}
        assert {u + v[-1:] for (u, v) in g.edges} == no_11

    def test_higher_order_same_language(self, golden, coding_sft):
        # counting paths on the order-(M+1) graph gives the same numbers
        def count_on(graph, n):
            m = graph.order
            if n <= m:
                return len({v[i : i + n] for v in graph.vertices for i in range(m - n + 1)})
            pred = graph.index.pred
            counts = [1] * len(pred)
            for _ in range(n - m):
                counts = [sum(counts[u] for u in row) for row in pred]
            return sum(counts)

        for sft in (golden, coding_sft, Sft1D.from_words("01", "111")):
            m = sft.order
            g_hi = build_rauzy(sft, order=m + 1)
            for n in range(1, m + 5):
                assert count_on(g_hi, n) == language_count(sft, n)


class TestCounting:
    def test_full_shift(self, full2):
        assert language_count(full2, 4) == 16

    def test_golden_small(self, golden):
        assert language_count(golden, 2) == 3  # 00, 01, 10
        assert language_count(golden, 5) == 13  # Fibonacci

    def test_alphabet_growth_bound(self, golden, coding_sft):
        for sft in (golden, coding_sft):
            for n in range(1, 7):
                assert language_count(sft, n + 1) <= len(sft.alphabet) * language_count(sft, n)

    def test_against_brute_force(self, golden, coding_sft):
        for sft in (golden, coding_sft, Sft1D.from_words("01", "111")):
            for n in range(1, 6):
                assert language_count(sft, n) == len(brute_words(sft, n))

    def test_empty_sft_counts_zero(self):
        assert language_count(Sft1D.from_words("0", "0"), 3) == 0

    def test_word_in_language(self, golden):
        assert word_in_language(golden, tuple("0101"))
        assert not word_in_language(golden, tuple("0110"))


def bits_by_digits(mask):
    """The positions of the set bits of ``mask``, one step per binary digit."""
    return [i for i, b in enumerate(reversed(bin(mask))) if b == "1"]


class TestBits:
    @pytest.mark.parametrize("width", [1, 12, 32, 64, 500, 6765])
    def test_matches_the_digit_scan(self, width):
        rng = random.Random(width)
        masks = [0, 1, 1 << (width - 1), (1 << width) - 1]
        for spacing in (1, 2, 8, 31, 32, 33, 100, 4 * width):
            # each bit set with probability 1 / spacing
            masks += [sum(1 << i for i in range(width) if not rng.randrange(spacing)) for _ in range(4)]
        for mask in masks:
            assert _bits(mask) == bits_by_digits(mask), hex(mask)

    def test_sparse_and_dense_sides_of_the_split(self):
        # 32 positions per set bit is still sparse; one more bit is dense
        for mask in (1 << 31, 1 << 31 | 1, 1 << 63 | 1, 1 << 63 | 3, 1 << 4000 | 1 << 17, (1 << 4000) - 1):
            assert _bits(mask) == bits_by_digits(mask), hex(mask)


class TestRecode:
    def test_nearest_neighbor_fixed_point(self, golden):
        r = higher_block_recode(golden)
        assert r.nearest_neighbor
        assert len(r.alphabet) == 2

    def test_triple_one_example(self):
        sft = Sft1D.from_words("01", "111")
        r = higher_block_recode(sft)
        assert sorted(r.alphabet.symbols) == ["00", "01", "10", "11"]
        assert ("11", "11") in r.forbidden
        # language counts agree with the index shift: an n-word of the
        # recoding is an (n + order - 1)-word of the original
        for n in range(1, 8):
            assert language_count(r, n) == language_count(sft, n + sft.order - 1)

    def test_double_recode_counts(self, golden):
        r1 = higher_block_recode(golden)
        r2 = higher_block_recode(r1)
        for n in range(1, 8):
            assert language_count(r2, n) == language_count(golden, n)


class TestScc:
    def test_three_cycle(self):
        g = build_rauzy(sft_from_edges("xyz", [("x", "y"), ("y", "z"), ("z", "x")]))
        assert len(g.sccs()) == 1 and g.transient_vertices() == ()

    def test_two_loops_one_way(self):
        g = Digraph(("a", "b"), frozenset({("a", "a"), ("b", "b"), ("a", "b")}))
        assert len(g.sccs()) == 2 and g.transient_vertices() == ()


class TestPattern2D:
    def test_indexing(self):
        p = Pattern2D.from_rows([("a", "b"), ("c", "d")])
        assert p[0, 0] == "a" and p[1, 0] == "b" and p[0, 1] == "c" and p[1, 1] == "d"
        assert p.column(0) == ("a", "c")

    def test_wildcard_match(self):
        q = Pattern2D(2, 1, ("a", "·"))
        big = Pattern2D.from_rows([("a", "x"), ("b", "a")])
        assert q.occurs_in(big)

    def test_wrap_match(self):
        q = Pattern2D(2, 1, ("b", "a"))
        big = Pattern2D.from_rows([("a", "b")])
        assert not q.occurs_in(big)
        assert q.occurs_in(big, wrap=True)

    def test_json_roundtrip(self):
        p = Pattern2D.from_rows([("a", "b"), ("c", "d")])
        assert Pattern2D.from_json(json.loads(json.dumps(p.to_json()))) == p

    def test_int_cells_become_strings(self):
        p = Pattern2D.from_json({"width": 2, "height": 1, "cells": [0, 1]})
        assert p.cells == ("0", "1") and all(type(s) is str for s in p.cells)
        assert Pattern2D.from_columns([(1, 2), (3, 4)]).cells == ("1", "3", "2", "4")

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(0, 4).flatmap(
            lambda h: st.lists(st.lists(st.sampled_from("ab01"), min_size=h, max_size=h), max_size=4)
        )
    )
    def test_from_columns_is_from_rows_of_the_transpose(self, cols):
        p = Pattern2D.from_columns(cols)
        # the transpose of the pattern whose rows are ``cols``, cell by cell;
        # it keeps the width of 0-height columns, which no row list can show
        q = Pattern2D.from_rows(cols)
        assert p == Pattern2D(q.height, q.width, tuple(q[j, i] for j in range(q.width) for i in range(q.height)))
        if cols and cols[0]:
            assert p == Pattern2D.from_rows(zip(*cols))
        assert all(p.column(i) == tuple(c) for i, c in enumerate(cols))

    def test_zero_height_and_ragged_columns(self):
        assert Pattern2D.from_columns([]) == Pattern2D(0, 0, ())
        assert Pattern2D.from_columns([(), (), ()]) == Pattern2D(3, 0, ())
        for ragged in ([("a",), ("a", "b")], [("a", "b"), ("a",)], [(), ("a",)], [("a",), ()]):
            with pytest.raises(ValueError, match="ragged columns"):
                Pattern2D.from_columns(ragged)
            with pytest.raises(ValueError, match="ragged rows"):
                Pattern2D.from_rows(ragged)


class TestWang:
    def test_adjacency(self):
        ts = WangTileSet(
            (
                WangTile("1", "2", "x", "y"),
                WangTile("2", "1", "y", "x"),
            )
        )
        assert ts.horizontal_ok(1, 2) and ts.horizontal_ok(2, 1)
        assert not ts.horizontal_ok(1, 1)
        assert ts.vertical_ok(1, 2) and not ts.vertical_ok(1, 1)

    def test_free_set_names_keep_tiles_distinct(self):
        ts = free_tile_set(2)
        assert ts.N == 2
        assert all(ts.horizontal_ok(k, l) and ts.vertical_ok(k, l) for k in (1, 2) for l in (1, 2))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            WangTileSet((WangTile("a", "a", "a", "a"), WangTile("a", "a", "a", "a")))


class TestSerialization:
    def test_sft_roundtrip(self, golden):
        assert Sft1D.from_json(golden.to_json()) == golden

    def test_dot_export(self, golden):
        dot = build_rauzy(golden).to_dot()
        assert '"0" -> "1"' in dot and "digraph" in dot

    def test_alphabet_validation(self):
        with pytest.raises(ValueError):
            Alphabet(("0", "0"))
        with pytest.raises(ValueError):
            Sft1D.from_words("01", "2")


# ---------------------------------------------------------------------------
# the forbidden-factor automaton against naive scans

SYMBOLS = "abc"
FOREIGN = "xz"  # never in an alphabet


def naive_admissible(forbidden, word):
    """All-offsets scan: no forbidden word occurs anywhere in ``word``."""
    word = tuple(word)
    return not any(
        word[i : i + len(f)] == f for f in forbidden for i in range(len(word) - len(f) + 1)
    )


def naive_rauzy(sft, m):
    """(vertices, edges) of the pruned order-m Rauzy graph, from scratch."""
    verts = [w for w in product(sft.alphabet.symbols, repeat=m) if naive_admissible(sft.forbidden, w)]
    edges = {
        (u, v)
        for u in verts
        for v in verts
        if u[1:] == v[:-1] and naive_admissible(sft.forbidden, u + v[-1:])
    }
    keep = set(verts)
    while True:
        edges = {(u, v) for (u, v) in edges if u in keep and v in keep}
        alive = {u for u, _ in edges} & {v for _, v in edges}
        if alive == keep:
            break
        keep = alive
    return [v for v in verts if v in keep], edges


@st.composite
def small_sfts(draw):
    """Small SFTs whose forbidden sets overlap, nest (one word a factor of
    another) and include length-1 words often enough to be exercised."""
    alphabet = draw(st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=3, unique=True))
    words = draw(st.lists(st.text(alphabet="".join(alphabet), min_size=1, max_size=4), max_size=6))
    if words and draw(st.booleans()):
        w = draw(st.sampled_from(words))
        i = draw(st.integers(0, len(w) - 1))
        j = draw(st.integers(i + 1, len(w)))
        words.append(w[i:j])  # a factor of another forbidden word
    return Sft1D(Alphabet(tuple(alphabet)), frozenset(tuple(w) for w in words))


# reproducible runs: a fixed example sequence and no example database
DIFFERENTIAL = settings(max_examples=150, deadline=None, derandomize=True, database=None)
NESTED = Sft1D.from_words("ab", "aba", "b", "bab")  # a length-1 word inside longer ones
OVERLAPPING = Sft1D.from_words("abc", "abab", "bab", "cc")
NOTHING = Sft1D.from_words("ab")


class TestFactorAutomaton:
    @DIFFERENTIAL
    @given(small_sfts(), st.lists(st.text(alphabet=SYMBOLS + FOREIGN, max_size=9), max_size=20))
    @example(NESTED, ["abab", "aab", "axbab", "aaaa"])
    @example(OVERLAPPING, ["ababc", "abzab", "cbab", "acac", "ccx"])
    @example(NOTHING, ["", "abba", "zz"])
    def test_word_check_matches_naive_scan(self, sft, texts):
        # every 4-word over two alphabet symbols and a foreign one, then the drawn texts
        pool = sft.alphabet.symbols[:2] + tuple(FOREIGN[:1])
        words = list(product(pool, repeat=4)) + [tuple(t) for t in texts]
        for w in words:
            assert sft.word_locally_admissible(w) == naive_admissible(sft.forbidden, w), w

    def test_foreign_symbols_reset_the_match(self):
        sft = Sft1D.from_words("ab", "ab", "bb")
        assert sft.word_locally_admissible(("a", "x", "b"))
        assert sft.word_locally_admissible(("b", "z", "b", "a", "a"))
        assert not sft.word_locally_admissible(("x", "a", "b", "x"))

    @DIFFERENTIAL
    @given(small_sfts(), st.integers(1, 5))
    @example(NESTED, 4)
    @example(OVERLAPPING, 5)
    def test_dfs_words_match_product_filter(self, sft, n):
        expect = [w for w in product(sft.alphabet.symbols, repeat=n) if naive_admissible(sft.forbidden, w)]
        assert _locally_admissible_words(sft, n) == expect

    @DIFFERENTIAL
    @given(small_sfts(), st.integers(0, 1))
    @example(NESTED, 0)
    @example(OVERLAPPING, 1)
    def test_rauzy_matches_naive_rebuild(self, sft, extra):
        m = sft.order + extra
        verts, edges = naive_rauzy(sft, m)
        if not verts:
            with pytest.raises(EmptyLanguage):
                build_rauzy(sft, m)
            return
        g = build_rauzy(sft, m)
        assert list(g.vertices) == verts
        assert set(g.edges) == edges

    def test_automaton_is_not_part_of_the_value(self, golden):
        fresh = Sft1D.from_words("01", "11")
        assert golden.word_locally_admissible("0101")
        assert golden == fresh and hash(golden) == hash(fresh)
        assert golden.to_json() == fresh.to_json()


# ---------------------------------------------------------------------------
# the essential-part trim against a round-based fixpoint


def rounds_trim(succ):
    """Reference: delete every state of in- or out-degree 0, round by round,
    until a round deletes nothing; the sorted survivors."""
    alive = set(range(len(succ)))
    while True:
        outdeg = {u: sum(1 for v in succ[u] if v in alive) for u in alive}
        indeg = {v: 0 for v in alive}
        for u in alive:
            for v in succ[u]:
                if v in alive:
                    indeg[v] += 1
        dead = {u for u in alive if indeg[u] == 0 or outdeg[u] == 0}
        if not dead:
            return sorted(alive)
        alive -= dead


@st.composite
def trim_digraphs(draw):
    """Random digraphs with self-loops, parallel edges and isolated states,
    plus long chains into and out of a cycle, under a random numbering."""
    n = draw(st.integers(0, 10))
    edges = []
    if n:
        edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30))
    if draw(st.booleans()):
        # a chain of length `into` feeding a cycle that drains into a chain of length `out`
        into, ring, out = draw(st.integers(0, 60)), draw(st.integers(1, 4)), draw(st.integers(0, 60))
        chain = list(range(n, n + into + ring + out))
        n += len(chain)
        path = chain[:into] + chain[into : into + ring]
        edges += list(zip(path, path[1:]))
        edges.append((chain[into + ring - 1], chain[into]))  # close the ring
        tail = [chain[into]] + chain[into + ring :]
        edges += list(zip(tail, tail[1:]))
    perm = draw(st.permutations(range(n)))
    succ = [[] for _ in range(n)]
    for u, v in edges:
        succ[perm[u]].append(perm[v])
    return succ


class TestEssentialTrim:
    @DIFFERENTIAL
    @given(trim_digraphs())
    @example([[1], [2], [3], [3]])  # a chain into a loop: the chain goes
    @example([[0, 0], [], [1, 1]])  # parallel edges around a sink
    @example([[]] * 4)  # isolated states only
    def test_matches_round_based_fixpoint(self, succ):
        assert essential_states(succ) == rounds_trim(succ)

    def test_long_chain_through_a_cycle(self):
        # the reference needs about n rounds; the worklist one pass
        n = 220
        into = [[i + 1] for i in range(n)]  # 0 -> 1 -> ... -> n
        ring = [[n + 1], [n, n + 2]]  # n <-> n + 1, then out
        out = [[i + 1] for i in range(n + 2, 2 * n + 2)] + [[]]
        succ = into + ring + out
        assert essential_states(succ) == rounds_trim(succ) == [n, n + 1]

    def test_everything_pruned(self):
        assert essential_states([[1], [2], []]) == []
        # the order-1 graph 1 -> 0 keeps no vertex, so the SFT is empty
        sft = Sft1D.from_words("01", "00", "01", "11")
        assert _locally_admissible_words(sft, 1) == [("0",), ("1",)]
        with pytest.raises(EmptyLanguage):
            build_rauzy(sft)

    def test_coding3_free2_presentation(self, coding_sft):
        from sftkit.compiler import _grammar_nfa, compile_wang
        from sftkit.cycles import find_cycle_pair

        pair = find_cycle_pair(build_rauzy(coding_sft))[0]
        pres, _ = compile_wang(coding_sft, free_tile_set(2), pair)
        # the subset construction again, untrimmed, from the cell NFA
        blocks, follow, _ = _grammar_nfa(pres.grammar, pres.tiles)
        nfa_next = block_cells(blocks, follow)
        start = frozenset(nfa_next)
        ids, order, rows = {start: 0}, [start], []
        for subset in order:
            by_label = {}
            for q in subset:
                a, targets = nfa_next[q]
                by_label.setdefault(a, set()).update(targets)
            row = {}
            for a in sorted(by_label):
                t = frozenset(by_label[a])
                if t not in ids:
                    ids[t] = len(order)
                    order.append(t)
                row[a] = ids[t]
            rows.append(row)
        succ = [list(r.values()) for r in rows]
        keep = essential_states(succ)
        assert keep == rounds_trim(succ)
        assert len(keep) == len(pres.states) == 195 < len(rows)
        remap = {s: i for i, s in enumerate(keep)}
        assert pres.transitions == [
            {a: remap[t] for a, t in rows[s].items() if t in remap} for s in keep
        ]


# ---------------------------------------------------------------------------
# the indexed graph core against scans of the edge set


@st.composite
def shuffled_digraphs(draw):
    """Random digraphs with self-loops and isolated vertices, whose vertex
    order is a shuffle of v0..v(n-1), so canonical order is not sorted order."""
    n = draw(st.integers(0, 9))
    names = draw(st.permutations([f"v{i}" for i in range(n)]))
    edges = []
    if n:
        edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=25))
        edges += [(i, i) for i in draw(st.lists(st.integers(0, n - 1), max_size=3))]
    return Digraph(tuple(names), frozenset((names[u], names[v]) for u, v in edges))


def reachable(g, u):
    """Vertices reachable from u by a path of one edge or more, by BFS."""
    seen, frontier = set(), [u]
    while frontier:
        frontier = [b for (a, b) in g.edges if a in frontier and b not in seen]
        seen.update(frontier)
    return seen


def scan_shortest_path(g, src, dst, avoid, banned):
    """BFS that scans the edge set for successors in canonical order."""
    parent, frontier = {src: None}, [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v in (v for v in g.vertices if (u, v) in g.edges):
                if (u, v) in banned or (v in avoid and v != dst):
                    continue
                if v == dst:
                    path = [v, u]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    return tuple(reversed(path))
                if v not in parent:
                    parent[v] = u
                    nxt.append(v)
        frontier = nxt
    return None


class TestGraphIndex:
    @DIFFERENTIAL
    @given(shuffled_digraphs())
    @example(Digraph((), frozenset()))
    @example(Digraph(("b", "a"), frozenset({("b", "b")})))
    def test_neighbours_and_degrees_match_edge_scans(self, g):
        for u in g.vertices:
            assert g.successors(u) == tuple(v for v in g.vertices if (u, v) in g.edges)
            assert g.predecessors(u) == tuple(v for v in g.vertices if (v, u) in g.edges)
            assert g.out_degree(u) == sum(1 for (a, _) in g.edges if a == u)
            assert g.in_degree(u) == sum(1 for (_, b) in g.edges if b == u)

    @DIFFERENTIAL
    @given(shuffled_digraphs())
    @example(Digraph(("b", "a", "c"), frozenset({("c", "a"), ("a", "c"), ("b", "b")})))
    def test_components_are_mutual_reachability_classes(self, g):
        reach = {u: reachable(g, u) | {u} for u in g.vertices}
        expect = []
        for u in g.vertices:  # a class is met first at its first vertex
            if not any(u in c for c in expect):
                expect.append(tuple(v for v in g.vertices if v in reach[u] and u in reach[v]))
        assert g.sccs() == tuple(expect)
        assert g.sccs() is g.sccs()
        assert g.transient_vertices() == tuple(v for v in g.vertices if v not in reachable(g, v))
        assert g == Digraph(g.vertices, g.edges) and hash(g) == hash(Digraph(g.vertices, g.edges))

    @DIFFERENTIAL
    @given(shuffled_digraphs(), st.data())
    def test_shortest_path_matches_a_scanning_bfs(self, g, data):
        if not g.vertices:
            return
        pick = st.sampled_from(g.vertices)
        src, dst = data.draw(pick), data.draw(pick)
        avoid = set(data.draw(st.lists(pick, max_size=2)))
        banned = set(data.draw(st.lists(st.sampled_from(sorted(g.edges) or [(src, dst)]), max_size=2)))
        path = g.shortest_path(src, dst, avoid, banned)
        assert path == scan_shortest_path(g, src, dst, avoid, banned)
        if not avoid and not banned:
            assert (path is None) == (dst not in reachable(g, src))
