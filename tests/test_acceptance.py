"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
timings; every tolerance is pinned here.
"""

import random
import time
from itertools import product
from math import comb, log2

import numpy as np
import pytest

from sftkit.core import Digraph, Sft1D, build_rauzy, free_tile_set, full_shift, sft_from_edges
from sftkit.classify import check_condition_d, scc_types
from sftkit.cycles import find_cycle_pair, verify_pair_admissible
from sftkit.compiler import (
    build_grammar,
    compile_wang,
    decode_pattern,
    encode_pattern,
    parse_column,
)
from sftkit.solve import count_rectangles, find_torus, semi_decide_emptiness, validate_torus
from sftkit.entropy import (
    RealizationPlan,
    bezout_rank,
    build_realization,
    entropy_1d,
    entropy_words,
    ntilde_count,
    realization_sandwich,
    sft_with_loops,
    statesplit_entropy,
)

from conftest import table_exemplars
from test_solve import brute_count
from test_entropy import dp_rank_oracle


def report(num, desc, ok, t0, budget):
    dt = time.time() - t0
    status = "PASS" if ok and dt < budget else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{status}] {desc} ({dt:.2f}s < {budget:.0f}s)")
    assert ok, f"criterion {num} failed"
    assert dt < budget, f"criterion {num} exceeded its {budget}s budget ({dt:.2f}s)"


GOLDEN = Sft1D.from_words("01", "11")
CODING = sft_from_edges("abc", [("a", "b"), ("b", "c"), ("c", "a"), ("c", "b"), ("c", "c")])


def test_01_condition_d_three_graphs(graph_reflexive, graph_symmetric, graph_statesplit):
    t0 = time.time()
    t1 = scc_types(graph_reflexive)
    t2 = scc_types(graph_symmetric)
    t3 = scc_types(graph_statesplit)
    ok = (
        t1.names() == ("reflexive",)
        and t2.names() == ("symmetric",)
        and t3.names() == ("state_split",)
        and all(
            check_condition_d(g).holds
            for g in (graph_reflexive, graph_symmetric, graph_statesplit)
        )
    )
    report(1, "three-graph typing: reflexive / symmetric / state-split", ok, t0, 1.0)


def test_02_emptiness_pair():
    t0 = time.time()
    H = Sft1D.from_words("01", "00", "11")
    V = Sft1D.from_words("01", "00", "010", "111")
    no_window = count_rectangles(H, V, 6, 6) == 0
    out = semi_decide_emptiness(H, V, 6)
    wit = find_torus(GOLDEN, GOLDEN, 3, 3)
    ok = (
        no_window
        and out.empty
        and wit is not None
        and (wit.width, wit.height) == (1, 1)
        and validate_torus(GOLDEN, GOLDEN, wit.pattern)
    )
    report(2, "alternating pair empty at 6x6; golden pair has a replayed 1x1 torus", ok, t0, 2.0)


def test_03_exact_counting_oracle():
    t0 = time.time()
    rng = random.Random(1003)
    pairs_checked = 0
    ok = True
    while pairs_checked < 20:
        asize = rng.choice([2, 2, 3])
        symbols = "012"[:asize]
        sym_pairs = [(a, b) for a in symbols for b in symbols]

        def rand_sft(allow_triples):
            while True:
                words = set()
                for _ in range(rng.randint(1, 3)):
                    if allow_triples and rng.random() < 0.35:
                        words.add(tuple(rng.choice(symbols) for _ in range(3)))
                    else:
                        words.add(rng.choice(sym_pairs))
                sft = Sft1D(tuple(symbols), frozenset(words))
                try:
                    build_rauzy(sft)
                    return sft
                except Exception:
                    continue

        H, V = rand_sft(False), rand_sft(True)
        # keep the brute-force work bounded
        if count_rectangles(H, V, 4, 4) > 3 * 10 ** 5:
            continue
        for w, h in product(range(1, 5), repeat=2):
            if count_rectangles(H, V, w, h) != brute_count(H, V, w, h):
                ok = False
        pairs_checked += 1
    report(3, "count_rectangles == brute force for w,h <= 4 on 20 seeded pairs", ok, t0, 60.0)


def test_04_full_shift_identity():
    t0 = time.time()
    rng = random.Random(1004)
    ok = True
    from sftkit.core import language_count

    for _ in range(5):
        asize = rng.choice([2, 3])
        symbols = "012"[:asize]
        while True:
            words = {
                tuple(rng.choice(symbols) for _ in range(rng.choice([2, 2, 3])))
                for _ in range(rng.randint(1, 3))
            }
            V = Sft1D(tuple(symbols), frozenset(words))
            try:
                build_rauzy(V)
                break
            except Exception:
                continue
        A = full_shift(symbols)
        for n in range(1, 6):
            if count_rectangles(A, V, n, n) != language_count(V, n) ** n:
                ok = False
    report(4, "full-shift identity N(n,n) = N_V(n)^n for n <= 5 on 5 random V", ok, t0, 30.0)


def test_05_compiler_roundtrip():
    t0 = time.time()
    g = build_rauzy(CODING)
    pair, _ = find_cycle_pair(g)
    tiles2 = free_tile_set(2)
    gram2 = build_grammar(CODING, pair, 2)
    pres2, _ = compile_wang(CODING, tiles2, pair)
    edges = {(a[0], b[0]) for (a, b) in g.edges}
    rng = random.Random(1005)
    ok = True
    for _ in range(100):
        grid = [[rng.randint(1, 2) for _ in range(2)] for _ in range(3)]
        enc = encode_pattern(grid, gram2, tiles2)
        for j in range(enc.height):
            row = enc.row(j)
            if not all((row[i], row[i + 1]) in edges for i in range(len(row) - 1)):
                ok = False
        for i in range(enc.width):
            if not pres2.is_factor(enc.column(i)):
                ok = False
        if decode_pattern(enc, gram2, tiles2) != grid:
            ok = False
    # the drawn strip: four blocks coding tiles 3, 1, 2, 2
    tiles3 = free_tile_set(3)
    gram3 = build_grammar(CODING, pair, 3)
    strip = encode_pattern([[3], [1], [2], [2]], gram3, tiles3)
    ok = ok and decode_pattern(strip, gram3, tiles3) == [[3], [1], [2], [2]]
    report(5, "encode/validate/decode identity on 100 patterns; figure strip reads 3,1,2,2", ok, t0, 120.0)


def test_06_rigidity():
    t0 = time.time()
    pair, _ = find_cycle_pair(build_rauzy(CODING))
    tiles = free_tile_set(2)
    gram = build_grammar(CODING, pair, 2)
    assert gram.macro_height == 60
    pres, _ = compile_wang(CODING, tiles, pair)
    height = 2 * gram.macro_height
    words = pres.words(height)
    # structural parse of every column, cached
    parses = []
    for w in words:
        got = next(
            (
                (p, off, codes)
                for p in range(gram.M)
                for off in range(gram.macro_height)
                if (codes := parse_column(gram, w, p, off)) is not None
            ),
            None,
        )
        assert got is not None, "presentation emitted a non-structural column"
        parses.append(got)
    # all valid adjacent pairs via vectorized edge filtering
    sym_id = {s: i for i, s in enumerate(CODING.alphabet.symbols)}
    arr = np.array([[sym_id[s] for s in w] for w in words], dtype=np.int8)
    g = build_rauzy(CODING)
    E = np.zeros((3, 3), dtype=bool)
    for (a, b) in g.edges:
        E[sym_id[a[0]], sym_id[b[0]]] = True
    def full_slabs(offset, n_slabs):
        # indices of macro-slices fully contained in the window; the
        # transmission statement is about complete macro-slices, so codes
        # cut by the window border carry no claim
        if offset == 0:
            return range(n_slabs)
        return range(1, n_slabs - 1)

    checked_pairs = 0
    full_slab_comparisons = 0
    ok = True
    M = gram.M
    for i1 in range(len(words)):
        mask = E[arr[i1][None, :], arr].all(axis=1)
        for i2 in np.nonzero(mask)[0]:
            p1, o1, codes1 = parses[i1]
            p2, o2, codes2 = parses[int(i2)]
            checked_pairs += 1
            if o1 != o2:
                ok = False  # misaligned neighbors must not exist
            if (p1 + 1) % M != p2:
                ok = False  # synchronization
            k_rel1, k_rel2 = gram.k_relevant(p1), gram.k_relevant(p2)
            l_rel1, l_rel2 = gram.l_relevant(p1), gram.l_relevant(p2)
            for s in full_slabs(o1, len(codes1)):
                k1, l1 = codes1[s]
                k2, l2 = codes2[s]
                full_slab_comparisons += 1
                if k_rel1 and k_rel2 and k1 != k2:
                    ok = False  # transmission of the main tile
                if l_rel1 and l_rel2 and l1 != l2:
                    ok = False  # transmission of the side tile
    assert checked_pairs > 0 and full_slab_comparisons > 0
    report(
        6,
        f"rigidity: {checked_pairs} valid column pairs all aligned+synchronized+transmitting",
        ok,
        t0,
        600.0,
    )


def test_07_case_dispatch():
    t0 = time.time()
    rng = random.Random(20240401)
    count = 0
    ok = True
    while count < 500:
        n = rng.randint(2, 6)
        verts = tuple(f"v{i}" for i in range(n))
        p = rng.uniform(0.25, 0.6)
        edges = {(u, v) for u in verts for v in verts if rng.random() < p}
        g = Digraph(verts, frozenset(edges))
        if not g.is_strongly_connected() or check_condition_d(g).holds:
            continue
        count += 1
        pair, report_ = find_cycle_pair(g)
        if not verify_pair_admissible(g, pair.c1, pair.c2):
            ok = False
    for tag, g in table_exemplars().items():
        _, report_ = find_cycle_pair(g)
        if report_.case_tag != tag:
            ok = False
    report(7, "500 random graphs admissible; 8 exemplar tags match the table", ok, t0, 300.0)


def test_08_bezout():
    t0 = time.time()
    m, rank, bound = bezout_rank([3, 5])
    ok = (m, rank) == dp_rank_oracle([3, 5]) and rank <= bound
    rng = random.Random(1008)
    for _ in range(100):
        cs = [rng.randint(1, 12) for _ in range(rng.randint(1, 4))]
        m, rank, bound = bezout_rank(cs)
        om, orank = dp_rank_oracle(cs)
        if (m, rank) != (om, orank) or rank > max(bound, 1):
            ok = False
    report(8, "bezout rank matches the DP oracle and stays under the certificate bound", ok, t0, 30.0)


def test_09_entropy_1d():
    t0 = time.time()
    golden_val = entropy_1d(GOLDEN).log2_value
    full_val = entropy_1d(full_shift("01")).log2_value
    ok = abs(golden_val - log2((1 + 5 ** 0.5) / 2)) < 1e-6 and abs(full_val - 1.0) < 1e-12
    report(9, "golden-mean entropy within 1e-6 of the closed form; full shift = 1.0", ok, t0, 1.0)


def test_10_realization_sandwich():
    t0 = time.time()
    u, w1, w2, alpha = entropy_words(GOLDEN, k=1)
    plan = RealizationPlan(GOLDEN, u, w1, w2, q=1, r=2, R=1, payload=free_tile_set(2))
    system = build_realization(plan)
    ok = True
    for k in (2, 3):
        rep = realization_sandwich(system, k)
        if not (rep["lower"] <= rep["count"] <= rep["upper"]):
            ok = False
    nt = ntilde_count(GOLDEN, u, w1, plan.q * alpha)
    target = log2(nt) / plan.period + 1.0 / plan.period
    sample = realization_sandwich(system, 3)["sample_entropy"]
    ok = ok and abs(sample - target) < 0.05
    report(10, "realization sandwich exact at k=2,3; k=3 sample within 0.05 of target", ok, t0, 600.0)


def test_11_statesplit_identity():
    t0 = time.time()
    ss = sft_from_edges("ab", [("a", "b"), ("b", "a")])
    ok = True
    for V in (Sft1D.from_words("ab", "bb"), Sft1D.from_words("ab", "aba")):
        for n in range(1, 4):
            rep = statesplit_entropy(ss, V, n)
            for m in range(1, 4):
                if rep["lhs"](m) != rep["rhs"](m):
                    ok = False
    report(11, "state-split product identity exact for m,n <= 3 on two column SFTs", ok, t0, 60.0)


def test_12_loops_transform_bounds():
    t0 = time.time()
    pair, _ = find_cycle_pair(build_rauzy(CODING))
    pres, _ = compile_wang(CODING, free_tile_set(2), pair)
    loopy = sft_with_loops(CODING)
    ok = True
    for n in range(1, 5):
        nx = count_rectangles(CODING, pres, n, n)
        nxt = count_rectangles(loopy, pres, n, n)
        if not (nx <= nxt <= comb(2 * n, n + 1) * nx):
            ok = False
    report(12, "loop-added counts bounded by N and C(2n,n+1)*N for n <= 4", ok, t0, 300.0)
