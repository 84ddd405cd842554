import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from sftkit.core import (
    Digraph,
    MalformedSlices,
    NoGoodPair,
    NotInClopen,
    OnlyPeriodicPoints,
    Pattern2D,
    Sft1D,
    WangTile,
    WangTileSet,
    build_rauzy,
    free_tile_set,
    sft_from_edges,
)
from sftkit.cycles import Cycle, CyclePair, find_cycle_pair
from sftkit.compiler import (
    _determinize,
    _first_return_paths,
    _flower_scan,
    _grammar_nfa,
    _minimal_forbidden,
    build_grammar,
    compile_horizontal,
    compile_wang,
    decode_pattern,
    encode_pattern,
    parse_column,
)
from sftkit.solve import count_rectangles

from conftest import block_cells


@pytest.fixture(scope="module")
def coding_pair(coding_sft):
    return find_cycle_pair(build_rauzy(coding_sft))[0]


@pytest.fixture(scope="module")
def grammar3(coding_sft, coding_pair):
    return build_grammar(coding_sft, coding_pair, 3)


@pytest.fixture(scope="module")
def pres3(coding_sft, coding_pair):
    pres, cert = compile_wang(coding_sft, free_tile_set(3), coding_pair)
    return pres, cert


def offset0_phase(grammar, cells):
    """The first phase at which a column parses as a stack of macro-slices."""
    return next(p for p in range(grammar.M) if parse_column(grammar, cells, p) is not None)


class TestGrammar:
    def test_layout_formulas(self, coding_sft, coding_pair):
        g = build_grammar(coding_sft, coding_pair, 3)
        assert (g.M, g.K) == (3, 10)
        assert g.macro_height == 90
        g2 = build_grammar(coding_sft, coding_pair, 2)
        assert g2.macro_height == 60

    def test_formulas_c2_len2(self, exemplars):
        g = exemplars["2.1"]
        pair, _ = find_cycle_pair(g)
        assert len(pair.c1) == 5 and len(pair.c2) == 2
        H = sft_from_edges(
            sorted({v for v in g.vertices}), [(u, v) for (u, v) in g.edges]
        )
        gram = build_grammar(H, pair, 2)
        assert gram.M == 10 and gram.K == 15
        assert gram.macro_height == 10 * 15 * 2

    def test_no_good_pair(self):
        g = sft_from_edges("ab", [("a", "b"), ("b", "a")])
        graph = build_rauzy(g)
        c1 = Cycle(graph, ((("a",)), (("b",))))
        with pytest.raises(NoGoodPair):
            build_grammar(g, CyclePair(c1, c1), 2)

    def test_degenerate_single_tile(self, coding_sft, coding_pair):
        g = build_grammar(coding_sft, coding_pair, 1)
        assert g.anchor is None and g.N == 1

    def test_orbit(self, grammar3):
        orbit = grammar3.good_pair_orbit
        assert len(orbit) == 3
        assert orbit[0] == grammar3.anchor[:2]


class TestFigureTranscription:
    """The drawn code meso-slices: four blocks coding t3, t1, t2, t2."""

    def expected_code_micros(self, grammar, phase, cur, nxt):
        # top-down micro contents as (phase, value source) per the layout
        N = grammar.N
        out = []
        for d in range(grammar.M):
            q = (phase + d) % grammar.M
            a = grammar.c1_sym(q)
            src = grammar.micro_value_source(phase, q)
            if src is None:
                out.append((a,) * N)
            else:
                v = cur if src == "k" else nxt
                micro = [a] * N
                micro[v - 1] = grammar.c2_sym(q)  # position from the top
                out.append(tuple(micro))
        return out

    def test_figure_columns(self, grammar3, coding_sft):
        tiles = free_tile_set(3)
        enc = encode_pattern([[3], [1], [2], [2]], grammar3, tiles)
        assert (enc.width, enc.height) == (12, 90)
        M, N = grammar3.M, grammar3.N
        code_zone = (grammar3.K - 1) * M * N
        # figure content, top-down micro rows per column (visible window
        # starts one column after the marker)
        fig = {
            1: [("b", "b", "c"), ("c", "c", "c"), ("c", "a", "a")],
            2: [("c", "c", "c"), ("c", "a", "a"), ("c", "b", "b")],
            3: [("c", "a", "a"), ("c", "b", "b"), ("c", "c", "c")],
            4: [("c", "b", "b"), ("c", "c", "c"), ("a", "c", "a")],
            5: [("c", "c", "c"), ("a", "c", "a"), ("b", "c", "b")],
            6: [("a", "c", "a"), ("b", "c", "b"), ("c", "c", "c")],
        }
        for col, rows_top_down in fig.items():
            cells = enc.column(col)[code_zone:]
            micros_bottom_up = [cells[i * N : (i + 1) * N] for i in range(M)]
            got_top_down = [tuple(reversed(m)) for m in reversed(micros_bottom_up)]
            assert got_top_down == rows_top_down, f"column {col}"

    def test_figure_strip_decodes(self, grammar3, coding_sft):
        tiles = free_tile_set(3)
        enc = encode_pattern([[3], [1], [2], [2]], grammar3, tiles)
        assert decode_pattern(enc, grammar3, tiles) == [[3], [1], [2], [2]]


class TestCompileWang:
    def test_certificate(self, pres3, grammar3):
        pres, cert = pres3
        assert cert.m == grammar3.M
        assert cert.n == grammar3.macro_height

    def test_presentation_right_resolving(self, pres3):
        pres, _ = pres3
        for s in pres.states:
            labels = list(pres.transitions[s])
            assert len(labels) == len(set(labels))

    def test_monotile_plain_cycle(self, coding_sft, coding_pair):
        pres, cert = compile_wang(coding_sft, free_tile_set(1), coding_pair)
        # vertical language is the cycle shift: one word per rotation
        words = pres.words(3)
        assert sorted(words) == sorted([("c", "a", "b"), ("a", "b", "c"), ("b", "c", "a")])

    def test_free_set_window_surjectivity(self, coding_sft, coding_pair):
        # every pattern of the full 2-shift on small windows is reachable
        tiles = free_tile_set(2)
        gram = build_grammar(coding_sft, coding_pair, 2)
        for grid in ([[1]], [[2]], [[1], [2]], [[2], [1]], [[1, 2]], [[2, 2]], [[1, 1], [2, 1]]):
            enc = encode_pattern(grid, gram, tiles)
            assert decode_pattern(enc, gram, tiles) == grid

    def test_condition_d_rejected(self, golden):
        from sftkit.core import ConditionDHolds

        g = build_rauzy(golden)
        c1 = Cycle(g, ((("0",)), (("1",))))
        with pytest.raises(ConditionDHolds):
            compile_wang(golden, free_tile_set(2), CyclePair(c1, c1))


class TestTallWords:
    def test_words_beyond_the_recursion_limit(self, coding_sft, coding_pair):
        pres, _ = compile_wang(coding_sft, free_tile_set(1), coding_pair)
        words = pres.words(2000)
        assert len(words) == 3 and all(len(w) == 2000 for w in words)
        assert words == sorted(words) and all(pres.is_factor(w) for w in words)


class TestMemberVertical:
    def test_macro_word_is_factor(self, pres3, grammar3):
        pres, _ = pres3
        for p in range(3):
            assert pres.is_factor(grammar3.macro_word(p, 2, 1))

    def test_desynchronized_slices_rejected(self, pres3, grammar3):
        pres, _ = pres3
        w = list(grammar3.macro_word(0, 1, 1))
        MN = grammar3.meso_height
        # rotate the second C1-slice by one meso-slice
        lo = MN + 3 * MN
        hi = lo + 3 * MN
        w[lo:hi] = w[lo + MN : hi] + w[lo : lo + MN]
        assert not pres.is_factor(w)

    def test_vertically_illegal_succession_rejected(self, coding_sft, coding_pair):
        # each tile stacks on itself but never on the other
        from sftkit.core import WangTile, WangTileSet

        tiles = WangTileSet(
            (WangTile("h", "h", "x", "x"), WangTile("h", "h", "y", "y"))
        )
        pres, _ = compile_wang(coding_sft, tiles, coding_pair)
        gram = build_grammar(coding_sft, coding_pair, 2)
        mixed = gram.macro_word(0, 1, 1) + gram.macro_word(0, 2, 1)
        assert not pres.is_factor(mixed)
        same = gram.macro_word(0, 1, 1) + gram.macro_word(0, 1, 1)
        assert pres.is_factor(same)
        assert pres.is_factor(gram.macro_word(0, 2, 1))


class TestRoundTrip:
    def test_empty_pattern(self, grammar3):
        tiles = free_tile_set(3)
        enc = encode_pattern([], grammar3, tiles)
        assert (enc.width, enc.height) == (0, 0)
        assert decode_pattern(enc, grammar3, tiles) == []

    def test_window_with_no_cells_but_one_side(self, grammar3):
        tiles = free_tile_set(3)
        for width, height in ((0, grammar3.macro_height), (grammar3.M, 0)):
            with pytest.raises(MalformedSlices):
                decode_pattern(Pattern2D(width, height, ()), grammar3, tiles)

    def test_single_tile(self, grammar3, pres3, coding_sft):
        tiles = free_tile_set(3)
        pres, _ = pres3
        enc = encode_pattern([[2]], grammar3, tiles)
        assert decode_pattern(enc, grammar3, tiles) == [[2]]
        # soundness: H-rows and V-columns
        edges = {(a[0], b[0]) for (a, b) in build_rauzy(coding_sft).edges}
        for j in range(enc.height):
            row = enc.row(j)
            assert all((row[i], row[i + 1]) in edges for i in range(len(row) - 1))
        for i in range(enc.width):
            assert pres.is_factor(enc.column(i))

    def test_two_wide_orbit_advance(self, grammar3):
        tiles = free_tile_set(3)
        enc = encode_pattern([[1], [2]], grammar3, tiles)
        phases = [offset0_phase(grammar3, enc.column(c)) for c in range(enc.width)]
        assert phases == [c % grammar3.M for c in range(enc.width)]

    def test_random_roundtrip(self, grammar3, coding_sft, pres3):
        tiles = free_tile_set(2)
        gram = build_grammar(coding_sft, find_cycle_pair(build_rauzy(coding_sft))[0], 2)
        rng = random.Random(20240613)
        edges = {(a[0], b[0]) for (a, b) in build_rauzy(coding_sft).edges}
        pres, _ = compile_wang(coding_sft, tiles, find_cycle_pair(build_rauzy(coding_sft))[0])
        for _ in range(25):
            grid = [[rng.randint(1, 2) for _ in range(2)] for _ in range(3)]
            enc = encode_pattern(grid, gram, tiles)
            for j in range(enc.height):
                row = enc.row(j)
                assert all((row[i], row[i + 1]) in edges for i in range(len(row) - 1))
            for i in range(enc.width):
                assert pres.is_factor(enc.column(i))
            assert decode_pattern(enc, gram, tiles) == grid

    def test_shifted_window_not_in_clopen(self, grammar3):
        tiles = free_tile_set(3)
        enc = encode_pattern([[1], [2]], grammar3, tiles)
        shifted = Pattern2D.from_columns(
            [enc.column(c) for c in range(1, enc.width)] + [enc.column(0)]
        )
        with pytest.raises(NotInClopen, match="first column has phase 1"):
            decode_pattern(shifted, grammar3, tiles)

    def test_phase_parameter(self, grammar3):
        tiles = free_tile_set(3)
        enc = encode_pattern([[1], [2]], grammar3, tiles, phase=1)
        assert offset0_phase(grammar3, enc.column(0)) == 1  # first column now sits at phase 1

    def test_cropped_rows_not_in_clopen(self, grammar3):
        tiles = free_tile_set(3)
        enc = encode_pattern([[1, 2, 3], [2, 3, 1]], grammar3, tiles)
        height = grammar3.macro_height

        def crop(y0):
            return Pattern2D(enc.width, 2 * height, enc.cells[y0 * enc.width : (y0 + 2 * height) * enc.width])

        assert decode_pattern(crop(0), grammar3, tiles) == [[1, 2], [2, 3]]
        for y0 in (1, 7, height // 2):
            with pytest.raises(NotInClopen):
                decode_pattern(crop(y0), grammar3, tiles)


class TestParseColumn:
    def test_micro_slice_without_c2_rejected(self, grammar3):
        tiles = free_tile_set(3)
        enc = encode_pattern([[2], [3]], grammar3, tiles)
        height = grammar3.macro_height
        cells = list(enc.column(0))
        # the first coding micro-slice of the marker column: clear its C2
        t = next(t for t, (_, c2, _, _) in enumerate(grammar3.layout[0]) if c2 is not None)
        micro = range(t, t + grammar3.N)
        hit = next(i for i in micro if cells[i] != grammar3.layout[0][i][0])
        cells[hit] = grammar3.layout[0][hit][0]
        assert parse_column(grammar3, enc.column(0), 0) == [(2, None)]
        for p in range(grammar3.M):
            for off in range(height):
                assert parse_column(grammar3, cells, p, off) is None, (p, off)
        cols = [tuple(cells)] + [enc.column(c) for c in range(1, enc.width)]
        with pytest.raises(MalformedSlices):
            decode_pattern(Pattern2D.from_columns(cols), grammar3, tiles)

    def test_cut_micro_slice_may_hold_no_c2(self, grammar3):
        # main code 3 puts the C2 symbol at the bottom of its micro-slice; a
        # window that starts just above it still parses, and the next
        # micro-slice gives the code
        tiles = free_tile_set(3)
        col = encode_pattern([[3], [1]], grammar3, tiles).column(0)
        t = next(t for t, (_, c2, _, _) in enumerate(grammar3.layout[0]) if c2 is not None)
        assert col[t] == grammar3.layout[0][t][1]
        assert parse_column(grammar3, col[t + 1 :], 0, t + 1) == [(3, None)]


class TestOneTileDecode:
    def test_only_the_one_tile_encoding_decodes(self, coding_sft, coding_pair):
        tiles = free_tile_set(1)
        gram = build_grammar(coding_sft, coding_pair, 1)
        assert (gram.M, gram.macro_height) == (3, 30)
        enc = encode_pattern([[1, 1]], gram, tiles)
        assert decode_pattern(enc, gram, tiles) == [[1, 1]]
        with pytest.raises(MalformedSlices):
            decode_pattern(Pattern2D(3, 30, ("a",) * 90), gram, tiles)
        shifted = Pattern2D.from_columns([enc.column(c) for c in (1, 2, 0)])
        with pytest.raises(MalformedSlices):
            decode_pattern(shifted, gram, tiles)


class TestCompileHorizontal:
    def test_golden_code_word_length(self, golden):
        comp, cert = compile_horizontal(golden, free_tile_set(2))
        # gamma1 is the loop (1 symbol), gamma2 the 2-step return (2 symbols)
        assert len(comp.gamma1) == 1 and len(comp.gamma2) == 2
        assert all(len(u) == 9 for u in comp.code_words)
        assert cert.m == 9 and cert.n == 1

    def test_code_words_in_language(self, golden):
        comp, _ = compile_horizontal(golden, free_tile_set(2))
        u1, u2 = comp.code_words
        for w in (u1 + u2, u2 + u1, u1 + u1 + u2):
            assert golden.word_locally_admissible(w)

    def test_segmentation(self, golden):
        comp, _ = compile_horizontal(golden, free_tile_set(2))
        sep = comp.separator
        U = len(comp.code_words[0])
        from itertools import product

        for combo in product(comp.code_words, repeat=3):
            word = tuple(x for w in combo for x in w)
            hits = [
                i
                for i in range(len(word) - len(sep) + 1)
                if word[i : i + len(sep)] == sep
            ]
            # the separator occurs exactly at the block boundaries
            expected = [U - len(comp.gamma2) + k * U for k in range(2)]
            assert hits == expected

    def test_monotile_full_shift_torus(self, golden):
        from sftkit.solve import validate_torus

        # the one code word repeated in both directions avoids every pattern
        comp, _ = compile_horizontal(golden, free_tile_set(1))
        assert validate_torus(golden, None, Pattern2D.from_rows([comp.code_words[0]]), comp.patterns)

    def test_only_periodic_points_rejected(self):
        cyc = sft_from_edges("xyz", [("x", "y"), ("y", "z"), ("z", "x")])
        with pytest.raises(OnlyPeriodicPoints):
            compile_horizontal(cyc, free_tile_set(2))

    def test_wang_coupling_patterns_present(self, golden):
        from sftkit.core import WangTile, WangTileSet

        tiles = WangTileSet(
            (WangTile("1", "2", "x", "x"), WangTile("2", "1", "x", "x"))
        )
        comp, _ = compile_horizontal(golden, tiles)
        U = len(comp.code_words[0])
        wide = [p for p in comp.patterns if p.width == 2 * U and p.height == 1]
        # tile k cannot follow itself horizontally here
        assert len(wide) == 2


    @pytest.mark.parametrize("rows", ["golden", "rll23", "coding"])
    def test_dropped_separator_patterns_hold_a_forbidden_row(self, rows, golden, coding_sft):
        # the separator goes only above rows that are factors of the flower;
        # every other row holds a minimal forbidden word, a one-row pattern
        from itertools import product

        H = {"golden": golden, "rll23": Sft1D.from_words("01", "0000", "11", "101"), "coding": coding_sft}[rows]
        comp, _ = compile_horizontal(H, free_tile_set(2))
        sep = comp.separator
        one_row = [p.cells for p in comp.patterns if p.height == 1 and p.width < 2 * len(comp.code_words[0])]
        kept = [p.row(0) for p in comp.patterns if p.height == 2 and p.width == len(sep)]
        assert all(p.row(1) == sep for p in comp.patterns if p.height == 2 and p.width == len(sep))
        scan = _flower_scan(comp.code_words)
        assert all(scan(row) for row in kept)
        dropped = [r for r in product(H.alphabet.symbols, repeat=len(sep)) if r != sep and r not in kept]
        assert dropped
        for row in dropped:
            assert any(row[i : i + len(w)] == w for w in one_row for i in range(len(row) - len(w) + 1)), row


@st.composite
def flowers(draw):
    """(code words, alphabet, max_len): one to three words of one to four
    symbols over 01 or 012."""
    alphabet = draw(st.sampled_from(["01", "012"]))
    word = st.lists(st.sampled_from(alphabet), min_size=1, max_size=4).map(tuple)
    return tuple(draw(st.lists(word, min_size=1, max_size=3))), tuple(alphabet), draw(st.integers(1, 5))


class TestMinimalForbidden:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(flowers())
    def test_matches_brute_force_definition(self, case):
        # the factors of the bi-infinite concatenations of the words: one of
        # n <= max_len symbols lies inside max_len // (shortest word) + 2
        # words in a row
        from itertools import product

        words, alphabet, max_len = case
        span = max_len // min(map(len, words)) + 2
        factors = {()}
        for combo in product(words, repeat=span):
            run = sum(combo, ())
            factors.update(run[i : i + n] for n in range(1, max_len + 1) for i in range(len(run) - n + 1))
        want = [
            w
            for n in range(1, max_len + 1)
            for w in product(alphabet, repeat=n)
            if w not in factors and w[1:] in factors and w[:-1] in factors
        ]
        assert _minimal_forbidden(_flower_scan(words), alphabet, max_len) == want


class TestFirstReturnPaths:
    def test_long_return_paths(self):
        # RLL(1000, 1001): between two 1s lie 1000 or 1001 0s
        rll = Sft1D.from_words("01", "0" * 1002, *("1" + "0" * j + "1" for j in range(1000)))
        g = build_rauzy(rll)
        v = next(v for v in g.vertices if g.out_degree(v) >= 2 or g.in_degree(v) >= 2)
        t0 = time.perf_counter()
        paths = _first_return_paths(g, v, want=2)
        assert time.perf_counter() - t0 < 2.0
        assert [len(p) - 1 for p in paths] == [1001, 1002]
        assert all(p[0] == p[-1] == v and v not in p[1:-1] for p in paths)

    def test_canonical_order_within_a_length(self):
        # from 0, two returns of length 3 and one of length 2
        g = Digraph((0, 1, 2, 3), frozenset({(0, 2), (2, 0), (0, 1), (1, 3), (3, 0), (2, 3), (1, 2)}))
        assert _first_return_paths(g, 0, want=3) == [(0, 2, 0), (0, 1, 2, 0), (0, 1, 3, 0)]
        assert _first_return_paths(g, 0, want=9) == [
            (0, 2, 0), (0, 1, 2, 0), (0, 1, 3, 0), (0, 2, 3, 0), (0, 1, 2, 3, 0)
        ]


class TestForbiddenExport:
    def test_monotile_export_matches_language(self, coding_sft, coding_pair):
        pres, _ = compile_wang(coding_sft, free_tile_set(1), coding_pair)
        words = _minimal_forbidden(pres.scan, pres.alphabet, 4)
        assert words  # the cycle shift forbids plenty of short words
        # every exported word is indeed not a factor, minimally so
        for w in words:
            assert not pres.is_factor(w)
            assert pres.is_factor(w[1:]) and pres.is_factor(w[:-1])
        # cross-check: words of length <= 4 avoiding all exported words are
        # exactly the factors
        from itertools import product

        alphabet = pres.alphabet
        for n in range(1, 5):
            for cand in product(alphabet, repeat=n):
                banned = any(
                    cand[i : i + len(w)] == w
                    for w in words
                    for i in range(len(cand) - len(w) + 1)
                )
                assert banned != pres.is_factor(cand)


def _nfa_oracle(grammar, tiles):
    """Independent reading of the NFA that a presentation is built from.

    The NFA is trimmed to its essential states by rounds: each round drops
    every state with no successor or no predecessor among the kept ones.
    Returns (steps, cyclic, words): ``steps(word)`` is the set of pairs
    (q, q') with q reading ``word`` into q' between essential states,
    ``cyclic(word)`` says whether that relation has a cycle, that is whether
    word repeated forever labels a bi-infinite path, and ``words(h)`` is the
    set of labels of length-h paths between essential states.
    """
    nfa_next = block_cells(*_grammar_nfa(grammar, tiles)[:2])
    keep = set(nfa_next)
    while True:
        has_pred = {t for q in keep for t in nfa_next[q][1] if t in keep}
        kept = {q for q in keep if q in has_pred and any(t in keep for t in nfa_next[q][1])}
        if kept == keep:
            break
        keep = kept
    label = {q: nfa_next[q][0] for q in keep}
    succ = {q: [t for t in nfa_next[q][1] if t in keep] for q in keep}

    def steps(word):
        pairs = {(q, q) for q in keep}
        for a in word:
            pairs = {(q, t) for q, r in pairs if label[r] == a for t in succ[r]}
        return pairs

    def cyclic(word):
        rel = {}
        for q, r in steps(word):
            rel.setdefault(q, set()).add(r)
        nodes = set(rel)
        while True:
            kept = {q for q in nodes if rel[q] & nodes}
            if kept == nodes:
                return bool(nodes)
            nodes = kept

    def words(h):
        frontier = {((), q) for q in keep}
        for _ in range(h):
            frontier = {(w + (label[q],), t) for w, q in frontier for t in succ[q]}
        return {w for w, _ in frontier}

    return steps, cyclic, words


class TestPresentationAgainstNfa:
    """The DFA queries against the essential part of the NFA."""

    def _random_tiles(self, rng, n):
        return WangTileSet(
            tuple(
                WangTile(rng.choice("hi"), rng.choice("hi"), rng.choice("xyz"), rng.choice("xyz"), name=f"t{k}")
                for k in range(1, n + 1)
            )
        )

    def _compare(self, coding_sft, coding_pair, tiles, rng):
        pres, cert = compile_wang(coding_sft, tiles, coding_pair)
        steps, cyclic, nfa_words = _nfa_oracle(pres.grammar, tiles)
        rank = {a: i for i, a in enumerate(pres.alphabet)}
        for h in list(range(1, 13)) + [cert.n]:
            words = pres.words(h)
            assert words == sorted(nfa_words(h), key=lambda w: [rank[a] for a in w]), h
            for w in words:
                assert pres.is_cyclic(w) == cyclic(w), w
            for w in rng.sample(words, min(len(words), 20)):
                w = list(w)
                w[rng.randrange(h)] = rng.choice(pres.alphabet)
                assert pres.is_factor(w) == bool(steps(w)), w
                assert pres.is_cyclic(w) == cyclic(w), w

    def test_random_tile_sets(self, coding_sft, coding_pair):
        rng = random.Random(5)
        no_upper = no_lower = 0
        for n in (2, 2, 2, 2, 2, 2, 3, 3):
            tiles = self._random_tiles(rng, n)
            ks = range(1, n + 1)
            no_upper += any(not any(tiles.vertical_ok(k, j) for j in ks) for k in ks)
            no_lower += any(not any(tiles.vertical_ok(j, k) for j in ks) for k in ks)
            self._compare(coding_sft, coding_pair, tiles, rng)
        assert no_upper and no_lower

    def test_dead_ends(self, coding_sft, coding_pair):
        rng = random.Random(0)
        for top, bottom in (("z", "x"), ("x", "z")):
            # t2 has no upper neighbour, then no lower one
            tiles = WangTileSet((WangTile("h", "h", "x", "x"), WangTile("h", "h", top, bottom)))
            self._compare(coding_sft, coding_pair, tiles, rng)

    def test_dead_end_columns_are_not_counted(self, coding_sft, coding_pair):
        # t2 has no upper neighbour, so a column cannot hold it forever
        tiles = WangTileSet((WangTile("h", "h", "x", "x"), WangTile("h", "h", "z", "x")))
        pres, _ = compile_wang(coding_sft, tiles, coding_pair)
        assert count_rectangles(coding_sft, pres, 1, 60) == 308


def _subset_construction(nfa_next, nfa_annotations):
    """Reference for ``_determinize``: subsets as frozensets, numbered
    breadth-first from the full set with labels in sorted order, then
    trimmed by rounds that drop every subset with no successor or no
    predecessor among the kept ones."""
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
    keep = set(range(len(rows)))
    while True:
        has_pred = {t for s in keep for t in rows[s].values() if t in keep}
        kept = {s for s in keep if s in has_pred and any(t in keep for t in rows[s].values())}
        if kept == keep:
            break
        keep = kept
    keep = sorted(keep)
    remap = {s: i for i, s in enumerate(keep)}
    transitions = [{a: remap[t] for a, t in rows[s].items() if t in remap} for s in keep]
    annotations = [
        tuple(sorted(nfa_annotations[q] for q in order[s])) if len(order[s]) <= 8 else None
        for s in keep
    ]
    return tuple(range(len(keep))), transitions, annotations


@st.composite
def block_nfas(draw):
    """NFAs shaped like the presentation NFAs: blocks whose cells step to
    the next cell (q -> q + 1), and block-final cells with zero, one or
    several targets, a block start or any state, possibly themselves."""
    labels = "abcd"[: draw(st.integers(1, 4))]
    lengths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    starts = [sum(lengths[:i]) for i in range(len(lengths))]
    n = sum(lengths)
    nfa_next, annotations = {}, {}
    for b, (first, length) in enumerate(zip(starts, lengths)):
        for t in range(length):
            q = first + t
            annotations[q] = (b % 2, t, b)
            if t < length - 1:
                targets = (q + 1,)
            else:
                target = st.one_of(st.sampled_from(starts), st.integers(0, n - 1))
                targets = tuple(sorted(draw(st.sets(target, max_size=4))))
            nfa_next[q] = (draw(st.sampled_from(labels)), targets)
    return nfa_next, annotations


def _two_cycles(m, n):
    """An m-cycle over "a" and an n-cycle over "b": the full set reads "a"
    into the m states of the first and "b" into the n of the second."""
    nfa_next = {q: ("a", ((q + 1) % m,)) for q in range(m)}
    nfa_next.update({m + q: ("b", (m + (q + 1) % n,)) for q in range(n)})
    return nfa_next, {q: (q % 3, q) for q in range(m + n)}


def _cut_into_blocks(nfa_next):
    """The block NFA of a cell NFA over states 0..n-1 in which a cell whose
    only target is the next cell steps to it.  Chains are cut at every cell
    that some cell jumps to, so every target is a block start.  Block
    b starting at cell s is (s, 0, 0, word), so the annotation (s, t, 0, 0)
    of a subset member names cell s + t."""
    n = len(nfa_next)
    steps = {q for q, (_, targets) in nfa_next.items() if targets == (q + 1,)}
    cuts = ({0} if n else set()) | {t for q, (_, targets) in nfa_next.items() if q not in steps for t in targets}
    cuts |= {q + 1 for q in range(n - 1) if q not in steps}
    starts = sorted(cuts)
    block_of = {s: b for b, s in enumerate(starts)}
    blocks, follow = [], []
    for s, e in zip(starts, starts[1:] + [n]):
        blocks.append((s, 0, 0, tuple(nfa_next[q][0] for q in range(s, e))))
        follow.append(tuple(block_of[t] for t in nfa_next[e - 1][1]))
    return blocks, follow


def _block_cells(blocks, follow):
    """The cell NFA of a block NFA whose blocks all have one height, as the
    grammar NFAs have, cells numbered block by block, and the annotation
    (p, t, k, l) that ``_determinize`` gives cell t of block (p, k, l, word)."""
    nfa_next = block_cells(blocks, follow)
    annotations = dict(enumerate((p, t, k, l) for p, k, l, word in blocks for t in range(len(word))))
    return nfa_next, annotations


def _determinize_cells(nfa_next, annotations):
    """``_determinize`` on a cell NFA, its annotations mapped back to cells."""
    states, transitions, ann = _determinize(*_cut_into_blocks(nfa_next))
    cells = [None if a is None else tuple(sorted(annotations[s + t] for s, t, _, _ in a)) for a in ann]
    return states, transitions, cells


class TestDeterminize:
    """The block subset construction against a set-based one over cells."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(block_nfas())
    @example(_two_cycles(9, 8))
    @example(_two_cycles(8, 9))
    @example(({0: ("a", ()), 1: ("a", (1,)), 2: ("b", (0, 1, 2))}, {0: (0,), 1: (1,), 2: (2,)}))
    # blocks "ba" and "bba" both end on the "a" that the full set reads at
    # cells 1 and 4, so two rows jump to row 0 and their masks are OR-ed
    @example(({0: ("b", (1,)), 1: ("a", (0,)), 2: ("b", (3,)), 3: ("b", (4,)), 4: ("a", (2,))}, {q: (q,) for q in range(5)}))
    # blocks "ab" and "abab" read (ab)^oo together and never synchronize:
    # the essential part keeps the subsets of rows 0 and 2 and of rows 1 and 3
    @example(({0: ("a", (1,)), 1: ("b", (0,)), 2: ("a", (3,)), 3: ("b", (4,)), 4: ("a", (5,)), 5: ("b", (2,))}, {q: (q,) for q in range(6)}))
    @example(({}, {}))  # no blocks
    def test_matches_set_construction(self, nfa):
        nfa_next, annotations = nfa
        assert _determinize_cells(nfa_next, annotations) == _subset_construction(nfa_next, annotations)

    @pytest.mark.parametrize(
        "tiles",
        [
            free_tile_set(2),
            free_tile_set(3),
            # t2 has no upper neighbour, then no lower one
            WangTileSet((WangTile("h", "h", "x", "x"), WangTile("h", "h", "z", "x"))),
            WangTileSet((WangTile("h", "h", "x", "x"), WangTile("h", "h", "x", "z"))),
        ],
        ids=["free2", "free3", "no-upper", "no-lower"],
    )
    def test_grammar_nfas_match_set_construction(self, coding_sft, coding_pair, tiles):
        blocks, follow = _grammar_nfa(build_grammar(coding_sft, coding_pair, tiles.N), tiles)[:2]
        assert _determinize(blocks, follow) == _subset_construction(*_block_cells(blocks, follow))

    def test_block_order_does_not_matter(self, coding_sft, coding_pair):
        tiles = free_tile_set(2)
        blocks, follow = _grammar_nfa(build_grammar(coding_sft, coding_pair, tiles.N), tiles)[:2]
        last = len(blocks) - 1
        reversed_follow = [tuple(last - c for c in nxt) for nxt in reversed(follow)]
        assert _determinize(blocks[::-1], reversed_follow) == _determinize(blocks, follow)

    def test_annotation_limit_is_eight_members(self):
        nfa_next, annotations = _two_cycles(9, 8)
        states, transitions, ann = _determinize_cells(nfa_next, annotations)
        # the trim keeps the 9-cycle and the 8-cycle, not the full set
        assert states == (0, 1) and transitions == [{"a": 0}, {"b": 1}]
        assert ann == [None, tuple(sorted(annotations[q] for q in range(9, 17)))]
