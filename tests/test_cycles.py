import random

import pytest

from sftkit.core import ConditionDHolds, Digraph, EmptyLanguage, build_rauzy, sft_from_edges
from sftkit.classify import check_condition_d
from sftkit.compiler import SliceGrammar
from sftkit.cycles import (
    Cycle,
    check_condition_c,
    cross_bridges,
    attract_repulse,
    find_cycle_pair,
    good_pairs,
    uniform_shortcuts,
    verify_pair_admissible,
)
from conftest import graph


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


class TestFindCyclePair:
    def test_coding_graph(self, coding_sft):
        g = build_rauzy(coding_sft)
        pair, report = find_cycle_pair(g)
        assert [v[0] for v in pair.c1.vertices] == ["c", "a", "b"]
        assert [v[0] for v in pair.c2.vertices] == ["c"]
        assert report.case_tag == "1.1"
        assert report.admissible

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
