from itertools import product

import pytest

from sftkit.core import Digraph, EmptyLanguage, NotStronglyConnected, Sft1D, build_rauzy, sft_from_edges
from sftkit.classify import (
    check_condition_d,
    has_only_periodic_points,
    scc_product,
    scc_types,
)


def all_digraphs(symbols):
    pairs = [(u, v) for u in symbols for v in symbols]
    for bits in product((0, 1), repeat=len(pairs)):
        edges = frozenset(p for p, b in zip(pairs, bits) if b)
        yield Digraph(tuple(symbols), edges)


def brute_state_split(g, max_p=3):
    """Exhaustive partition search, independent of the BFS-level method."""
    verts = list(g.vertices)
    n = len(verts)
    for p in range(1, max_p + 1):
        for assign in product(range(p), repeat=n):
            if set(assign) != set(range(p)):
                continue
            cls = dict(zip(verts, assign))
            classes = [set(v for v in verts if cls[v] == i) for i in range(p)]
            ok = True
            for v in verts:
                succ = set(g.successors(v))
                if succ != classes[(cls[v] + 1) % p]:
                    ok = False
                    break
            if ok:
                return True
    return False


class TestSccTypes:
    def test_three_graph_example(self, graph_reflexive, graph_symmetric, graph_statesplit):
        t1 = scc_types(graph_reflexive)
        assert t1.reflexive and not t1.symmetric and not t1.state_split
        t2 = scc_types(graph_symmetric)
        assert t2.symmetric and not t2.reflexive and not t2.state_split
        t3 = scc_types(graph_statesplit)
        assert t3.state_split and not t3.reflexive and not t3.symmetric
        assert len(t3.state_split_partition) == 3
        assert sorted(len(c) for c in t3.state_split_partition) == [1, 2, 3]

    def test_single_vertex_with_loop_has_all_types(self):
        g = Digraph(("a",), frozenset({("a", "a")}))
        t = scc_types(g)
        assert t.reflexive and t.symmetric and t.state_split
        assert t.state_split_partition == (("a",),)

    def test_requires_strong_connectivity(self):
        g = Digraph(("a", "b"), frozenset({("a", "b"), ("a", "a"), ("b", "b")}))
        with pytest.raises(NotStronglyConnected):
            scc_types(g)

    def test_partition_replays_against_definition(self, graph_statesplit):
        t = scc_types(graph_statesplit)
        p = len(t.state_split_partition)
        cls = {}
        for i, group in enumerate(t.state_split_partition):
            for v in group:
                cls[v] = i
        for v in graph_statesplit.vertices:
            assert set(graph_statesplit.successors(v)) == set(
                t.state_split_partition[(cls[v] + 1) % p]
            )

    def test_state_split_matches_brute_force(self):
        # every strongly connected digraph on <= 3 vertices
        for g in all_digraphs("ab"):
            if g.is_strongly_connected():
                assert scc_types(g).state_split == brute_state_split(g)
        import random

        rng = random.Random(5)
        checked = 0
        for g in all_digraphs("abc"):
            if not g.is_strongly_connected() or rng.random() > 0.25:
                continue
            assert scc_types(g).state_split == brute_state_split(g)
            checked += 1
        assert checked > 20


class TestConditionD:
    def test_golden_holds_symmetric(self, golden):
        v = check_condition_d(build_rauzy(golden))
        assert v.holds and v.common_type == "symmetric"

    def test_coding_graph_fails(self, coding_sft):
        g = build_rauzy(coding_sft)
        v = check_condition_d(g)
        assert not v.holds
        # cross-check: no partition up to p = 3 exists either
        assert not brute_state_split(g)

    def test_mixed_components_fail(self, graph_reflexive, graph_symmetric):
        # relabel the symmetric graph and join with a one-way bridge
        ren = {v: v.upper() for v in graph_symmetric.vertices}
        g2 = Digraph(
            tuple(ren[v] for v in graph_symmetric.vertices),
            frozenset((ren[u], ren[v]) for (u, v) in graph_symmetric.edges),
        )
        joined = Digraph(
            graph_reflexive.vertices + g2.vertices,
            graph_reflexive.edges | g2.edges | {("a", "A")},
        )
        v = check_condition_d(joined)
        assert not v.holds
        assert len(v.per_scc) == 2

    def test_isomorphism_invariance(self, exemplars):
        import random

        rng = random.Random(11)
        for g in exemplars.values():
            names = list(g.vertices)
            perm = names[:]
            rng.shuffle(perm)
            ren = dict(zip(names, perm))
            h = Digraph(tuple(sorted(perm)), frozenset((ren[u], ren[v]) for (u, v) in g.edges))
            assert check_condition_d(g).holds == check_condition_d(h).holds


class TestOnlyPeriodic:
    def test_plain_cycle(self):
        sft = sft_from_edges("xyz", [("x", "y"), ("y", "z"), ("z", "x")])
        r = has_only_periodic_points(sft)
        assert r.holds and r.period == 3

    def test_golden_not(self, golden):
        assert not has_only_periodic_points(golden)

    def test_two_component_example_not(self):
        sft = Sft1D.from_words("0123", "10", "20", "21", "11", "30", "31", "32", "33")
        assert not has_only_periodic_points(sft)
        # the nonperiodic configuration ...000122... is in the language
        assert sft.word_locally_admissible(tuple("00001222"))

    def test_empty_sft_raises(self):
        with pytest.raises(EmptyLanguage):
            has_only_periodic_points(Sft1D.from_words("0", "0"))

    def test_criterion_against_count_oracle(self):
        # all order-1 SFTs on <= 3 symbols: periodic-only iff the number of
        # n-words stops growing (counts are |V| for every n on cycle graphs)
        from sftkit.core import language_count

        checked = 0
        for g in all_digraphs("abc"):
            pruned = _prune(g)
            if pruned is None:
                continue
            sft = sft_from_edges("abc", g.edges)
            try:
                r = has_only_periodic_points(sft)
            except EmptyLanguage:
                continue
            n0 = 2 * len(pruned.vertices) + 2
            stable = language_count(sft, n0) == language_count(sft, n0 + 1)
            assert bool(r) == stable
            if r.holds:
                # every long word extends periodically with period r.period
                for w in _sample_words(sft, r.period + 2, 5):
                    big = _extend(sft, w, 2 * r.period)
                    if big is not None:
                        assert all(
                            big[i] == big[i + r.period] for i in range(len(big) - r.period)
                        )
            checked += 1
        assert checked > 100


def _prune(g):
    verts = set(g.vertices)
    edges = set(g.edges)
    while True:
        dead = {
            v
            for v in verts
            if not any(u == v for (u, _) in edges) or not any(w == v for (_, w) in edges)
        }
        if not dead:
            break
        verts -= dead
        edges = {(u, v) for (u, v) in edges if u not in dead and v not in dead}
    if not verts:
        return None
    return Digraph(tuple(sorted(verts)), frozenset(edges))


def _sample_words(sft, n, limit):
    from sftkit.solve import _global_words

    return _global_words(sft, n)[:limit]


def _extend(sft, w, extra):
    from sftkit.core import word_in_language

    cur = tuple(w)
    for _ in range(extra):
        for a in sft.alphabet:
            if word_in_language(sft, cur + (a,)):
                cur = cur + (a,)
                break
        else:
            return None
    return cur


class TestSccProduct:
    def test_identity_with_looped_point(self, graph_symmetric):
        point = Digraph(("p",), frozenset({("p", "p")}))
        prod = scc_product([graph_symmetric, point])
        assert len(prod.vertices) == len(graph_symmetric.vertices)
        assert len(prod.edges) == len(graph_symmetric.edges)

    def test_two_cycles_split(self):
        c2 = Digraph(("a", "b"), frozenset({("a", "b"), ("b", "a")}))
        prod = scc_product([c2, c2])
        comps = prod.sccs()
        assert len(comps) == 2
        assert all(len(c) == 2 for c in comps)

    def test_counterexample_product_has_no_type(
        self, graph_reflexive, graph_symmetric, graph_statesplit
    ):
        # pick components that each lack one specific type
        s1 = graph_symmetric  # not reflexive
        s2 = graph_reflexive  # not symmetric
        s3 = graph_reflexive  # not state-split
        prod = scc_product([s1, s2, s3])
        for comp in prod.sccs():
            sub = prod.subgraph(comp)
            if len(comp) == 1 and not sub.edges:
                continue
            t = scc_types(sub)
            assert not (t.reflexive or t.symmetric or t.state_split)
