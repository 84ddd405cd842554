import random
from fractions import Fraction
from itertools import permutations

import pytest

from sftkit.core import ConditionDHolds, Digraph, EmptyLanguage, build_rauzy, free_tile_set, sft_from_edges
from sftkit.classify import check_condition_d
from sftkit.compiler import SliceGrammar, compile_wang
from sftkit.cycles import (
    Cycle,
    _min_simple_cycles,
    check_condition_c,
    cross_bridges,
    attract_repulse,
    find_cycle_pair,
    good_pairs,
    uniform_shortcuts,
    verify_pair_admissible,
)
from sftkit.solve import StripAutomaton
from conftest import closed_walk_count, graph


def cyc(g, word):
    return Cycle(g, tuple(word))


@pytest.fixture(scope="module")
def five_plus_detour():
    # a 5-cycle with a 2-step detour c -> f -> d replacing the edge c -> d
    return graph(["ab", "bc", "cd", "de", "ea", "cf", "fd"])


class TestGoodPairs:
    def test_detour_has_good_pair(self, five_plus_detour):
        g = five_plus_detour
        c1 = cyc(g, "abcde")
        c2 = cyc(g, ["a", "b", "c", "f", "d", "e"])
        gp = good_pairs(c1, c2)
        # the marked pair: disagreement starts right where the detour forks
        assert (3, 3, 24) in gp
        assert good_pairs(c1.vertices, c2.vertices) == gp
        orb = SliceGrammar(None, c1.vertices, c2.vertices, 2, (3, 3, 24)).good_pair_orbit
        assert len(orb) == 30 and orb[0] == (3, 3)
        assert orb == tuple(((3 + p) % 5, (3 + p) % 6) for p in range(30))

    def test_bypass_cycle_has_no_good_pair(self):
        # 5-cycle a..e and the cycle through f bypassing vertex a entirely
        g = graph(["ab", "bc", "cd", "de", "ea", "ef", "fb"])
        c1 = cyc(g, "abcde")
        c2 = cyc(g, ["b", "c", "d", "e", "f"])
        assert good_pairs(c1, c2) == []

    def test_same_cycle_no_good_pair(self):
        g = graph(["ab", "bc", "ca"])
        c1 = cyc(g, "abc")
        assert good_pairs(c1, c1) == []

    def test_rotation_invariance(self, five_plus_detour):
        g = five_plus_detour
        c1 = cyc(g, "abcde")
        c2 = cyc(g, ["a", "b", "c", "f", "d", "e"])
        base = {(i, j) for (i, j, _) in good_pairs(c1, c2)}
        r1, r2 = c1.rotated(2), c2.rotated(2)
        rot = {((i + 2) % 5, (j + 2) % 6) for (i, j, _) in good_pairs(r1, r2)}
        assert base == rot


class TestShortcuts:
    def test_plain_cycle_none(self):
        g = graph(["ab", "bc", "cd", "de", "ea"])
        assert uniform_shortcuts(cyc(g, "abcde")) == []

    def test_all_chords_k3(self):
        edges = ["ab", "bc", "cd", "de", "ea"] + ["ad", "be", "ca", "db", "ec"]
        g = graph(edges)
        assert uniform_shortcuts(cyc(g, "abcde")) == [3]

    def test_loops_give_zero(self):
        g = graph(["ab", "ba", "aa", "bb"])
        assert 0 in uniform_shortcuts(cyc(g, "ab"))

    def test_single_vertex_never(self):
        g = graph(["aa"])
        assert uniform_shortcuts(cyc(g, "a")) == []


class TestCrossBridges:
    def test_two_cycles_with_crossed_chords(self):
        # two 5-cycles sharing vertex a, with chords d->i and h->e crossing
        edges = ["ab", "bc", "cd", "de", "ea", "af", "fg", "gh", "hi", "ia", "di", "he"]
        g = graph(edges)
        c1 = cyc(g, "abcde")
        c2 = cyc(g, ["a", "f", "g", "h", "i"])
        bridges = cross_bridges(c1, c2, g)
        assert (3, 3) in bridges

    def test_disjoint_plain_cycles(self):
        g = graph(["ab", "bc", "ca", "de", "ef", "fd", "ad", "da"])
        assert cross_bridges(cyc(g, "abc"), cyc(g, "def"), g) == []

    def test_single_vertex_second_cycle(self):
        g = graph(["ab", "bc", "ca", "vv", "av", "vb"])
        c1 = cyc(g, "abc")
        c2 = cyc(g, "v")
        assert cross_bridges(c1, c2, g) == [(0, 0)]


class TestAttractRepulse:
    def test_attractive_and_repulsive(self):
        # 5-cycle t,b,p,d,e with t attracting everyone and p repelling
        edges = ["tb", "bp", "pd", "de", "et", "bt", "pt", "dt", "tt", "pe", "pb", "pp"]
        g = graph(edges)
        c1 = cyc(g, ["t", "b", "p", "d", "e"])
        att, rep = attract_repulse(c1, set(c1), g)
        assert att == ("p", "t") or "t" in att
        assert "p" in rep

    def test_plain_cycle_empty(self):
        g = graph(["ab", "bc", "ca"])
        att, rep = attract_repulse(cyc(g, "abc"), {"a", "b", "c"}, g)
        assert att == () and rep == ()

    def test_complete_with_loops(self):
        g = graph([x + y for x in "abc" for y in "abc"])
        c1 = cyc(g, "abc")
        att, rep = attract_repulse(c1, {"a", "b", "c"}, g)
        assert set(att) == {"a", "b", "c"} and set(rep) == {"a", "b", "c"}


class TestConditionC:
    def test_case21_exemplar_passes(self, exemplars):
        g = exemplars["2.1"]
        c1 = cyc(g, "abcde")
        c2 = cyc(g, "ab")
        assert check_condition_c(c1, c2, g).passes

    def test_short_c1_fails(self):
        g = graph(["ab", "ba", "bc", "cb", "ac", "ca"])
        rep = check_condition_c(cyc(g, "ab"), cyc(g, "ac"), g)
        assert not rep.passes and "i" in rep.failed()

    def test_shortcut_cycle_fails(self):
        edges = ["ab", "bc", "cd", "de", "ea"] + ["ad", "be", "ca", "db", "ec"]
        g = graph(edges)
        rep = check_condition_c(cyc(g, "abcde"), cyc(g, "abcde"), g)
        assert not rep.passes and "iii" in rep.failed()


# 5-vertex graphs whose brute-force fallback has no pair that passes
# condition C, but has pairs that the degree-one alignment excuses
FALLBACK_BY_EXEMPTION = (
    "00 01 02 03 04 11 12 13 14 20 21 23 24 30 31 40 41 43",
    "00 02 03 10 11 12 13 14 20 21 24 30 31 32 34 40 42 43 44",
    "00 01 02 03 04 11 12 14 20 21 23 31 32 33 34 40 41 42 43",
)


class TestFindCyclePair:
    def test_coding_graph(self, coding_sft):
        g = build_rauzy(coding_sft)
        pair, report = find_cycle_pair(g)
        assert [v[0] for v in pair.c1.vertices] == ["c", "a", "b"]
        assert [v[0] for v in pair.c2.vertices] == ["c"]
        assert report.case_tag == "1.1"
        assert report.admissible

    def test_cycle_is_its_vertices(self, coding_sft):
        # a cycle over the Rauzy graph equals the same cycle over an equal
        # plain Digraph: the graph is not part of the value
        g = build_rauzy(coding_sft)
        plain = Digraph(g.vertices, g.edges)
        pair, _ = find_cycle_pair(g)
        for c in (pair.c1, pair.c2):
            same = Cycle(plain, c.vertices)
            assert type(c.graph) is not type(same.graph)
            assert same == c and hash(same) == hash(c) and repr(same) == repr(c)
            assert c.rotated(1) != c or len(c) == 1

    def test_case33_exemplar_strict(self, exemplars):
        g = exemplars["3.3"]
        pair, report = find_cycle_pair(g)
        assert report.case_tag == "3.3"
        assert report.passes
        # the smallest cycle is the detour, so it plays the C1 role
        assert len(pair.c1) == 3 and len(pair.c2) == 5

    def test_condition_d_rejected(self, golden):
        with pytest.raises(ConditionDHolds):
            find_cycle_pair(build_rauzy(golden))

    @pytest.mark.parametrize("vertices", [(0,), (0, 1)])
    def test_graph_without_edges_has_no_cycle(self, vertices):
        with pytest.raises(EmptyLanguage):
            find_cycle_pair(Digraph(vertices, frozenset()))

    def test_table_tags(self, exemplars):
        for tag, g in exemplars.items():
            pair, report = find_cycle_pair(g)
            assert report.case_tag == tag, f"expected {tag}, got {report.case_tag}"
            assert verify_pair_admissible(g, pair.c1, pair.c2)

    @pytest.mark.parametrize("edges", FALLBACK_BY_EXEMPTION)
    def test_fallback_pair_excused_by_an_exemption(self, edges):
        # no fallback pair passes condition C here; the first that an
        # exemption excuses is accepted by the same rule as every candidate
        g = graph(edges.split())
        pair, report = find_cycle_pair(g)
        assert report.case_tag == "fallback" and report.admissible
        assert verify_pair_admissible(g, pair.c1, pair.c2)

    def test_deterministic(self, exemplars):
        for g in exemplars.values():
            p1, r1 = find_cycle_pair(g)
            p2, r2 = find_cycle_pair(g)
            assert p1.c1.vertices == p2.c1.vertices
            assert p1.c2.vertices == p2.c2.vertices
            assert r1.case_tag == r2.case_tag


def random_non_decidable_graphs(seed, count, nmax=6):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, nmax)
        verts = tuple(f"v{i}" for i in range(n))
        p = rng.uniform(0.2, 0.6)
        edges = {(u, v) for u in verts for v in verts if rng.random() < p}
        g = Digraph(verts, frozenset(edges))
        if g.is_strongly_connected() and not check_condition_d(g).holds:
            out.append(g)
    return out


class TestMinSimpleCycles:
    def test_matches_brute_force(self):
        # every simple cycle of the least length, rotated to its first vertex
        # in the graph's vertex order, sorted by the ranks of its vertices;
        # most graphs have no loop, so that the least length is often above 1
        rng = random.Random(23)
        for _ in range(400):
            names = rng.sample("abcdefg", rng.randint(1, 5))
            loops, p = rng.random() < 0.2, rng.uniform(0.3, 0.7)
            edges = frozenset((u, v) for u in names for v in names if (loops or u != v) and rng.random() < p)
            rank = {v: i for i, v in enumerate(names)}
            simple = [
                c
                for k in range(1, len(names) + 1)
                for c in permutations(names, k)
                if rank[c[0]] == min(map(rank.get, c)) and all((c[i], c[(i + 1) % k]) in edges for i in range(k))
            ]
            girth = min(map(len, simple), default=0)
            want = sorted((c for c in simple if len(c) == girth), key=lambda c: [rank[v] for v in c])
            assert _min_simple_cycles(Digraph(tuple(names), edges)) == want, (names, sorted(edges))


class TestAdmissibilityOracle:
    def test_strict_pair_accepted(self, exemplars):
        g = exemplars["2.1"]
        assert verify_pair_admissible(g, cyc(g, "abcde"), cyc(g, "ab"))

    def test_bridge_without_exemption_rejected(self):
        edges = ["ab", "bc", "cd", "de", "ea", "af", "fg", "gh", "hi", "ia", "di", "he"]
        g = graph(edges)
        assert not verify_pair_admissible(g, cyc(g, "abcde"), cyc(g, ["a", "f", "g", "h", "i"]))

    def test_random_corpus(self):
        for g in random_non_decidable_graphs(987, 60):
            pair, report = find_cycle_pair(g)
            assert verify_pair_admissible(g, pair.c1, pair.c2), sorted(g.edges)


def digraph_classes(n):
    """One edge mask per isomorphism class of digraphs on n vertices, loops
    allowed: the least mask of the class, where bit u * n + v is the edge
    u -> v."""
    images = [[1 << (p[u] * n + p[v]) for u in range(n) for v in range(n)] for p in permutations(range(n))]
    seen = bytearray(1 << n * n)
    for mask in range(1 << n * n):
        if not seen[mask]:
            yield mask
            bits = [b for b in range(n * n) if mask >> b & 1]
            for image in images:
                seen[sum(image[b] for b in bits)] = 1


def mask_graph(mask, n):
    return graph([f"{u}{v}" for u in range(n) for v in range(n) if mask >> (u * n + v) & 1], tuple("0123"[:n]))


# the class whose first case1.3-special pair, with C2 = (v), has cross bridges
# that no documented exemption excuses; the same cycle with C2 = (u) passes
CASE13_SPECIAL_GAP = graph("00 01 02 03 10 11 13 20 21 22 30 31".split())


class TestEverySmallGraph:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_find_cycle_pair(self, n):
        classes = list(digraph_classes(n))
        assert len(classes) == (2, 10, 104, 3044)[n - 1]  # OEIS A000595
        graphs = [mask_graph(mask, n) for mask in classes]
        assert graphs.count(CASE13_SPECIAL_GAP) == (n == 4)  # the least mask of its class
        for g in graphs:
            if not g.edges or not g.is_strongly_connected():
                continue
            if check_condition_d(g).holds:
                with pytest.raises(ConditionDHolds):
                    find_cycle_pair(g)
                continue
            pair, _ = find_cycle_pair(g)  # never SearchExhausted
            assert verify_pair_admissible(g, pair.c1, pair.c2), sorted(g.edges)

    def test_case13_special_gap(self):
        # C2 = (v) is refused and C2 = (u) passes: the fallback's cycle, rotated
        g = CASE13_SPECIAL_GAP
        pair, report = find_cycle_pair(g)
        assert verify_pair_admissible(g, pair.c1, pair.c2)
        assert (pair.c1.vertices, pair.c2.vertices, report.case_tag) == (tuple("30210"), ("2",), "case1.3-special")

    def test_every_labelling_of_the_gap_class(self):
        # the answer must not hang on the labels; on the six masks named no
        # candidate of the brute-force fallback passes or is excused
        mask = sum(1 << (int(u) * 4 + int(v)) for (u, v) in CASE13_SPECIAL_GAP.edges)
        masks = {sum(1 << (p[b // 4] * 4 + p[b % 4]) for b in range(16) if mask >> b & 1) for p in permutations(range(4))}
        assert len(masks) == 24 and {28407, 48890, 57324, 59382, 60155, 61389} <= masks
        for m in sorted(masks):
            g = mask_graph(m, 4)
            pair, report = find_cycle_pair(g)
            assert verify_pair_admissible(g, pair.c1, pair.c2), m
            assert report.case_tag == "case1.3-special", m


def torus_ratio(g, n=2):
    """(ratio, tag) for H, the nearest-neighbour SFT whose graph is ``g``,
    and its pair from ``find_cycle_pair``: the closed walks of M edges in the
    cylinder strip of height mh of H x compile_wang(H, free-n, pair), over
    M * mh * n.  These walks are the tori of M x mh cells; the n free tiles
    have n tilings of period (1, 1)."""
    H = sft_from_edges(g.vertices, g.edges)
    pair, report = find_cycle_pair(build_rauzy(H))
    pres, _ = compile_wang(H, free_tile_set(n), pair)
    M, mh = pres.grammar.M, pres.grammar.macro_height
    tori = closed_walk_count(StripAutomaton.build(H, pres, mh, cyclic=True).successors, M)
    return Fraction(tori, M * mh * n), report.case_tag


LEN3_D = graph("ab bc ca ba ac bb cc".split())

# one graph per tag that ``find_cycle_pair`` gives on at most four vertices,
# 4-vertex graphs by their ``mask_graph`` mask, and a 5-vertex graph whose
# fallback pair is excused by an exemption; len3-d has its own test with
# free-2 tiles.  Tag 3.1 is left out: its least 4-vertex graph, mask 4742,
# has M = 12, and its check takes about 20 s (its ratio is 1).
TORUS_CASES = {
    "coding3": ("1.1", graph("ab bc ca cb cc".split())),
    "mask4427": ("1.1", mask_graph(4427, 4)),
    "mask5005": ("1.2", mask_graph(5005, 4)),
    "mask13801": ("1.3", mask_graph(13801, 4)),
    "mask4748": ("2.1", mask_graph(4748, 4)),
    "mask4426": ("2.2", mask_graph(4426, 4)),
    "mask13819": ("case1.3-special", mask_graph(13819, 4)),
    "mask5855": ("fallback", mask_graph(5855, 4)),
    "fallback5": ("fallback", graph(FALLBACK_BY_EXEMPTION[0].split())),
    "gap": ("case1.3-special", CASE13_SPECIAL_GAP),
    "len3-a": ("len3-a", graph("ab bc ca cb bb cc".split())),
    "len3-b": ("len3-b", graph("ab bc ca cb ac cc".split())),
    "len3-c": ("len3-c", graph("ab bc ca cb ac bb cc".split())),
}

# each case with free-2 tiles under its own name, then each with one free
# tile, len3-d included: one tile has no second tiling for its pair to admit
TORUS_PARAMS = [pytest.param(*case, 2, id=name) for name, case in TORUS_CASES.items()] + [
    pytest.param(*case, 1, id=f"{name}-free1")
    for name, case in {**TORUS_CASES, "len3-d": ("len3-d", LEN3_D)}.items()
]


class TestTorusIdentity:
    """H x compile_wang(H, T, pair) has M * mh * P_T tori of M x mh cells,
    P_T being the tilings of T of period (1, 1): each tiling at each offset
    of a macro-slice.  The identity was measured, not proved; a pair that
    does not pin the column alignment gives more tori."""

    @pytest.mark.parametrize("tag, g, n", TORUS_PARAMS)
    def test_tori(self, tag, g, n):
        ratio, got = torus_ratio(g, n)
        assert got == tag
        assert ratio == 1, f"{ratio} times M * mh * P_T tori"

    @pytest.mark.xfail(strict=True, reason="the documented len3-d pair gives twice the tori")
    def test_len3_d(self):
        # C1 = abc, C2 = ab: 3,168 tori against 1,584; C2 = (b) or (c) gives
        # the ratio 1 but fails condition v, so the oracle refuses it
        ratio, got = torus_ratio(LEN3_D)
        assert got == "len3-d"
        assert ratio == 1, f"{ratio} times M * mh * P_T tori"
