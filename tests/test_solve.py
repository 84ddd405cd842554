import functools
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from sftkit.core import (
    BudgetExceeded,
    EmptyLanguage,
    Pattern2D,
    PreconditionUnmet,
    Sft1D,
    build_rauzy,
    full_shift,
    language_count,
    free_tile_set,
    sft_from_edges,
    word_in_language,
)
from sftkit.cycles import find_cycle_pair
from sftkit.compiler import VerticalPresentation, compile_wang
from sftkit.solve import (
    StripAutomaton,
    count_rectangles,
    decide_with_certificate,
    find_torus,
    semi_decide_emptiness,
    validate_torus,
)


def brute_count(H, V, w, h):
    """Cell-by-cell backtracking oracle; rows/columns checked by extendable
    1D admissibility, independent of the transfer implementation."""
    symbols = H.alphabet.symbols
    grid = [[None] * h for _ in range(w)]
    total = 0

    row_cache = {}
    col_cache = {}

    def row_ok(word, complete):
        if not H.word_locally_admissible(word):
            return False
        if not complete:
            return True
        if word not in row_cache:
            row_cache[word] = word_in_language(H, word)
        return row_cache[word]

    def col_ok(word, complete):
        if V is None:
            return True
        if isinstance(V, VerticalPresentation):
            # a prefix of a factor is one too
            if word not in col_cache:
                col_cache[word] = V.is_factor(word)
            return col_cache[word]
        if not V.word_locally_admissible(word):
            return False
        if not complete:
            return True
        if word not in col_cache:
            col_cache[word] = word_in_language(V, word)
        return col_cache[word]

    def rec(pos):
        nonlocal total
        if pos == w * h:
            total += 1
            return
        i, j = pos % w, pos // w
        for s in symbols:
            grid[i][j] = s
            row = tuple(grid[x][j] for x in range(i + 1))
            col = tuple(grid[i][y] for y in range(j + 1))
            if row_ok(row, i == w - 1) and col_ok(col, j == h - 1):
                rec(pos + 1)
            grid[i][j] = None

    rec(0)
    return total


def random_pair(rng):
    asize = rng.choice([2, 2, 3])
    symbols = "012"[:asize]
    pairs = [(a, b) for a in symbols for b in symbols]

    def random_sft(min_forbidden, max_forbidden, allow_triples):
        while True:
            words = set()
            for _ in range(rng.randint(min_forbidden, max_forbidden)):
                if allow_triples and rng.random() < 0.4:
                    words.add(tuple(rng.choice(symbols) for _ in range(3)))
                else:
                    words.add(rng.choice(pairs))
            sft = Sft1D(tuple(symbols), frozenset(words))
            try:
                build_rauzy(sft)
                return sft
            except Exception:
                continue

    return random_sft(1, 3, False), random_sft(1, 3, True)


def random_sft(rng, symbols, order):
    """Nonempty SFT over ``symbols`` with at least one forbidden word of
    length order + 1."""
    while True:
        words = {tuple(rng.choice(symbols) for _ in range(order + 1))}
        for _ in range(rng.randint(0, 2)):
            words.add(tuple(rng.choice(symbols) for _ in range(rng.randint(2, order + 1))))
        sft = Sft1D(tuple(symbols), frozenset(words))
        try:
            build_rauzy(sft)
            return sft
        except EmptyLanguage:
            continue


def cycle_instance(rng, k, verdict):
    """Rows: the k-cycle shift q0 -> q1 -> .. -> q(k-1) -> q0.  Columns: an
    order-2 SFT whose emptiness verdict is known by construction.

    In a torus every row is a rotation of the cycle word, so two stacked rows
    differ by one phase step d along their whole width, and three stacked
    rows with steps (d1, d2) put the column word (x, x+d1, x+d1+d2) under
    every x.  Forbidding that word for one x therefore bans the step pair
    everywhere.  The allowed pairs are a random set with d1 < d2, an acyclic
    step graph (empty), plus a pair (d0, d0) for a nonempty instance (the
    constant step d0 tiles the plane).
    """
    syms = [f"q{i}" for i in range(k)]
    allowed = {(d1, d2) for d1 in range(k) for d2 in range(d1 + 1, k) if rng.random() < 0.5}
    if verdict == "nonempty":
        d0 = rng.randrange(k)
        allowed.add((d0, d0))
    forbidden = set()
    for d1, d2 in product(range(k), repeat=2):
        if (d1, d2) not in allowed:
            x = rng.randrange(k)
            forbidden.add((syms[x], syms[(x + d1) % k], syms[(x + d1 + d2) % k]))
    H = sft_from_edges(syms, [(syms[i], syms[(i + 1) % k]) for i in range(k)])
    return H, Sft1D(tuple(syms), frozenset(forbidden))


class TestCountRectangles:
    def test_golden_square(self, golden):
        assert count_rectangles(golden, golden, 2, 2) == 7

    def test_full_shift_identity(self, full2, golden):
        for n in range(1, 5):
            assert count_rectangles(full2, golden, n, n) == language_count(golden, n) ** n

    def test_width_one_is_language_count(self, golden):
        for h in range(1, 7):
            assert count_rectangles(full_shift("01"), golden, 1, h) == language_count(golden, h)
            assert count_rectangles(golden, golden, 1, h) == language_count(golden, h)

    def test_against_brute_force_small(self, golden):
        V = Sft1D.from_words("01", "00")
        for w, h in product(range(1, 4), repeat=2):
            assert count_rectangles(golden, V, w, h) == brute_count(golden, V, w, h)

    def test_higher_order_horizontal(self):
        H = Sft1D.from_words("01", "111")
        for V in (Sft1D.from_words("01", "00"), Sft1D.from_words("01", "000")):
            for w, h in product(range(1, 5), range(1, 4)):
                assert count_rectangles(H, V, w, h) == brute_count(H, V, w, h)

    def test_randomized_oracle(self):
        rng = random.Random(424242)
        for _ in range(6):
            H, V = random_pair(rng)
            for w, h in ((2, 2), (3, 2), (3, 3)):
                assert count_rectangles(H, V, w, h) == brute_count(H, V, w, h), (
                    H.forbidden,
                    V.forbidden,
                    w,
                    h,
                )

    def test_randomized_higher_order_oracle(self):
        rng = random.Random(20261018)
        for order, symbols, heights in ((2, "012", (1, 2)), (3, "01", (1, 2, 3))):
            for _ in range(4):
                H = random_sft(rng, symbols, order)
                V = rng.choice([None, random_sft(rng, symbols, rng.randint(1, 2))])
                for w in range(1, order + 3):
                    for h in heights:
                        assert count_rectangles(H, V, w, h) == brute_count(H, V, w, h), (
                            H.forbidden,
                            V and V.forbidden,
                            w,
                            h,
                        )

    def test_presentation_columns_under_order_two_rows(self, coding_sft):
        pair, _ = find_cycle_pair(build_rauzy(coding_sft))
        pres, _ = compile_wang(coding_sft, free_tile_set(2), pair)
        H = Sft1D.from_words("abc", "aa", "bcb", "cab")
        assert H.order == 2
        row_ok = functools.cache(lambda row: word_in_language(H, row))
        for h in range(1, 5):
            words = pres.words(h)
            for w in (1, 2):
                want = sum(
                    all(row_ok(row) for row in zip(*cols)) for cols in product(words, repeat=w)
                )
                assert count_rectangles(H, pres, w, h) == want

    def test_budget_exceeded(self, golden):
        with pytest.raises(BudgetExceeded):
            StripAutomaton.build(golden, golden, 10, budget=100)  # 144 columns
        with pytest.raises(BudgetExceeded):
            StripAutomaton.build(golden, golden, 4, budget=20)  # 8 columns, 41 transitions
        sa = StripAutomaton.build(golden, golden, 4, budget=49)  # 8 + 41 built
        assert sa.count_width(4) == count_rectangles(golden, golden, 4, 4)

    def test_monotonicity_of_emptiness(self):
        H = Sft1D.from_words("01", "00", "11")
        V = Sft1D.from_words("01", "00", "010", "111")
        first_zero = None
        for n in range(1, 6):
            if count_rectangles(H, V, n, n) == 0:
                first_zero = n
                break
        assert first_zero is not None
        for w, h in ((first_zero + 1, first_zero), (first_zero, first_zero + 2)):
            assert count_rectangles(H, V, w, h) == 0


def sfts(symbols, order):
    """SFTs over ``symbols`` forbidding one word of length order + 1 and up
    to two words of length 1 to order + 1."""

    def words(n):
        return st.tuples(*[st.sampled_from(symbols)] * n)

    return st.builds(
        lambda w, more: Sft1D(tuple(symbols), frozenset({w, *more})),
        words(order + 1),
        st.lists(st.integers(1, order + 1).flatmap(words), max_size=2),
    )


@functools.cache
def coding_presentation(n_tiles):
    coding = sft_from_edges("abc", [("a", "b"), ("b", "c"), ("c", "a"), ("c", "b"), ("c", "c")])
    pair, _ = find_cycle_pair(build_rauzy(coding))
    return compile_wang(coding, free_tile_set(n_tiles), pair)[0]


@st.composite
def rectangle_cases(draw):
    """(H, columns, w, h) with w, h <= 4: H of order 1 or 2; columns free, an
    SFT of order 1 or 2, or a compiled presentation, and then H is over its
    symbols abc.  The free-2 presentation has 20 columns of height 3 under
    rows that may forbid almost nothing, so its shapes stop at 3 x 3 to keep
    the enumeration short."""
    columns = draw(st.sampled_from(["none", "sft", "presentation"]))
    order = draw(st.sampled_from([1, 2]))
    side = 4
    if columns == "presentation":
        H = draw(sfts("abc", order))
        n_tiles = draw(st.sampled_from([1, 2]))
        V = coding_presentation(n_tiles)
        side = 5 - n_tiles
    else:
        H = draw(sfts("01", order))
        V = draw(sfts("01", draw(st.sampled_from([1, 2])))) if columns == "sft" else None
    return H, V, draw(st.integers(1, side)), draw(st.integers(1, side))


def bitmask_rectangles(w, h, run):
    """Binary w x h rectangles whose rows hold no ``run`` adjacent 1s and
    whose columns hold no two stacked 1s: a row transfer over w-bit masks,
    one cell at a time.  The mask holds the new row's cells left of the
    current one and the old row's cells from it on."""
    counts = {0: 1}  # an all-0 row stands below the first
    left = (1 << (run - 1)) - 1
    for _ in range(h):
        for i in range(w):
            bit = 1 << i
            block = left << (i - run + 1) if i >= run - 1 else None
            nxt = {}
            for mask, c in counts.items():
                zero = mask & ~bit
                nxt[zero] = nxt.get(zero, 0) + c
                if not mask & bit and (block is None or mask & block != block):
                    nxt[mask | bit] = nxt.get(mask | bit, 0) + c
            counts = nxt
    return sum(counts.values())


class TestCountRectanglesDifferential:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(rectangle_cases())
    def test_matches_brute_force(self, case):
        H, V, w, h = case
        assert count_rectangles(H, V, w, h) == brute_count(H, V, w, h)

    def test_hard_square_squares_match_bitmask_transfer(self, golden):
        for n in range(1, 16):
            strip = StripAutomaton.build(golden, golden, n)
            assert strip.count_width(n) == bitmask_rectangles(n, n, 2), n
            # from height 6 on the row layers hold fewer edges than the list
            assert len(strip.layers) == (n if n >= 6 else 1)

    def test_no_111_rows_under_golden_columns_match_bitmask_transfer(self, golden):
        no111 = Sft1D.from_words("01", "111")
        for h in range(1, 11):
            strip = StripAutomaton.build(no111, golden, h)
            for w in range(1, 9):
                assert strip.count_width(w) == bitmask_rectangles(w, h, 3), (w, h)
            assert len(strip.layers) == (h if h >= 5 else 1)


class TestStripAutomaton:
    def test_counts_match(self, golden):
        sa = StripAutomaton.build(golden, golden, 3)
        for w in range(1, 5):
            assert sa.count_width(w) == count_rectangles(golden, golden, w, 3)

    def test_spectral_radius_positive(self, golden):
        sa = StripAutomaton.build(golden, golden, 2)
        lam = sa.spectral_radius()[0]
        assert lam > 1


def aperiodic_sft(rng, order):
    """An order-``order`` SFT over 0, 1 with no constant point: it forbids
    both constant words of length order + 1 and up to three random ones."""
    words = {a * (order + 1) for a in "01"} | {
        "".join(rng.choice("01") for _ in range(order + 1)) for _ in range(rng.randint(0, 3))
    }
    return Sft1D.from_words("01", *words)


def cyclic_ok(sft, word):
    """Naive scan: the periodic repetition of ``word`` has no forbidden factor."""
    longest = max(map(len, sft.forbidden), default=1)
    text = tuple(word) * (2 + longest // len(word))
    return not any(
        text[x : x + len(f)] == f for f in sft.forbidden for x in range(len(text) - len(f) + 1)
    )


def unpruned_torus(H, V, max_w, max_h):
    """Columns of the first torus in find_torus order, trying every w-tuple of
    cyclic columns in lexicographic order with no pruning; None if none."""
    sizes = sorted(
        ((w, h) for w in range(1, max_w + 1) for h in range(1, max_h + 1)),
        key=lambda s: (s[0] * s[1], s[0], s[1]),
    )
    for w, h in sizes:
        cols = [c for c in product(V.alphabet.symbols, repeat=h) if cyclic_ok(V, c)]
        rows = {r for r in product(H.alphabet.symbols, repeat=w) if cyclic_ok(H, r)}
        for combo in product(cols, repeat=w):
            if all(tuple(c[j] for c in combo) in rows for j in range(h)):
                return combo
    return None


class TestTorus:
    def test_golden_one_by_one(self, golden):
        wit = find_torus(golden, golden, 3, 3)
        assert (wit.width, wit.height) == (1, 1)
        assert wit.pattern.cells == ("0",)
        assert validate_torus(golden, golden, wit.pattern)

    def test_cells_outside_an_alphabet_fail_replay(self, golden):
        full_ab = full_shift("ab")
        # each cell passes the local checks vacuously where it is foreign
        assert not validate_torus(golden, None, Pattern2D(1, 1, ("a",)))
        assert not validate_torus(full_ab, golden, Pattern2D(1, 1, ("a",)))
        assert not validate_torus(full_ab, golden, Pattern2D(1, 1, ("0",)))
        assert validate_torus(full_shift("01"), golden, Pattern2D(1, 1, ("0",)))

    def test_incompatible_pair_has_none(self):
        H = Sft1D.from_words("01", "00", "11")
        V = Sft1D.from_words("01", "00", "010", "111")
        assert find_torus(H, V, 6, 6) is None

    @pytest.mark.parametrize("order", [2, 3])
    def test_higher_order_first_witness_matches_unpruned_search(self, order):
        rng = random.Random(order)
        found = 0
        for _ in range(30):
            H, V = aperiodic_sft(rng, order), aperiodic_sft(rng, rng.randint(1, 2))
            wit = find_torus(H, V, 4, 4)
            expect = unpruned_torus(H, V, 4, 4)
            if expect is None:
                assert wit is None
                continue
            found += 1
            assert (wit.width, wit.height) == (len(expect), len(expect[0]))
            assert tuple(tuple(wit.pattern.column(i)) for i in range(wit.width)) == expect
        assert found >= 4

    def test_compiled_monotile(self, coding_sft):
        pair, _ = find_cycle_pair(build_rauzy(coding_sft))
        pres, _ = compile_wang(coding_sft, free_tile_set(1), pair)
        wit = find_torus(coding_sft, pres, 4, 4)
        assert (wit.width, wit.height) == (3, 3)
        assert validate_torus(coding_sft, pres, wit.pattern)


class TestSemiDecide:
    def test_incompatible_pair_empty(self):
        H = Sft1D.from_words("01", "00", "11")
        V = Sft1D.from_words("01", "00", "010", "111")
        out = semi_decide_emptiness(H, V, 6)
        assert out.empty

    def test_golden_nonempty(self, golden):
        out = semi_decide_emptiness(golden, golden, 3)
        assert out.nonempty and out.witness is not None

    def test_compiled_system_unknown_at_small_bounds(self, coding_sft):
        # the compiled macro structure has no small torus, and small windows
        # exist, so tiny bounds stay undecided
        from sftkit.core import free_tile_set

        pair, _ = find_cycle_pair(build_rauzy(coding_sft))
        pres, _ = compile_wang(coding_sft, free_tile_set(2), pair)
        out = semi_decide_emptiness(coding_sft, pres, 3)
        assert out.status == "unknown"


class TestDecide:
    def test_periodic_only_with_no_patterns(self):
        cyc = sft_from_edges("xyz", [("x", "y"), ("y", "z"), ("z", "x")])
        out = decide_with_certificate(cyc, ())
        assert out.nonempty
        assert (out.witness.width, out.witness.height) == (3, 1)

    def test_state_split_with_vertical_sft(self):
        ss = sft_from_edges("ab", [("a", "b"), ("b", "a")])
        out = decide_with_certificate(ss, Sft1D.from_words("ab", "bb"))
        assert out.nonempty
        assert validate_torus(ss, Sft1D.from_words("ab", "bb"), out.witness.pattern)

    def test_all_vertical_pairs_banned_empty(self):
        ss = sft_from_edges("ab", [("a", "b"), ("b", "a")])
        V = Sft1D.from_words("ab", "aa", "ab", "ba", "bb")
        out = decide_with_certificate(ss, V)
        assert out.empty

    def test_reflexive_branch(self):
        H = sft_from_edges("ab", [("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")])
        out = decide_with_certificate(H, Sft1D.from_words("ab", "aa"))
        assert out.nonempty

    def test_periodic_branch_with_patterns(self):
        from sftkit.core import Pattern2D

        cyc = sft_from_edges("xy", [("x", "y"), ("y", "x")])
        # forbid a vertical pair (x above x): still nonempty
        out = decide_with_certificate(cyc, (Pattern2D(1, 2, ("x", "x")),))
        assert out.nonempty
        assert validate_torus(cyc, None, out.witness.pattern, (Pattern2D(1, 2, ("x", "x")),))
        # forbid both verticals over x: every column dies
        out2 = decide_with_certificate(
            cyc, (Pattern2D(1, 2, ("x", "x")), Pattern2D(1, 2, ("x", "y")))
        )
        assert out2.empty

    def test_failed_replay_is_an_error_not_empty(self, monkeypatch):
        import sftkit.solve

        monkeypatch.setattr(sftkit.solve, "validate_torus", lambda *args: False)
        cyc = sft_from_edges("xyz", [("x", "y"), ("y", "z"), ("z", "x")])
        with pytest.raises(RuntimeError):
            decide_with_certificate(cyc, ())

    @pytest.mark.parametrize("k", [5, 6, 7])
    @pytest.mark.parametrize("verdict", ["nonempty", "empty"])
    def test_seeded_cycle_instances(self, k, verdict):
        for seed in range(3):
            H, V = cycle_instance(random.Random(1000 * k + seed), k, verdict)
            assert len(V.forbidden) >= k * (k + 1) // 2 - 1
            out = decide_with_certificate(H, V)
            assert out.status == verdict, (k, seed)
            if verdict == "empty":
                assert out.witness is None
                continue
            pat = out.witness.pattern
            assert validate_torus(H, V, pat)
            # replay without the solver: rows step along the cycle, and no
            # column, repeated, contains a forbidden word
            succ = {f"q{i}": f"q{(i + 1) % k}" for i in range(k)}
            for j in range(pat.height):
                row = pat.row(j)
                assert all(succ[a] == b for a, b in zip(row, row[1:] + row[:1]))
            for i in range(pat.width):
                col = pat.column(i) * 3
                assert not any(
                    col[x : x + 3] == f for f in V.forbidden for x in range(len(col) - 2)
                )

    def test_mismatched_alphabets_are_input_errors(self, golden):
        two_cycle = sft_from_edges("ab", [("a", "b"), ("b", "a")])
        with pytest.raises(ValueError, match="different alphabets: a, b and 0, 1"):
            decide_with_certificate(two_cycle, golden)

    def test_precondition_checked(self, coding_sft, golden):
        with pytest.raises(PreconditionUnmet):
            decide_with_certificate(coding_sft, Sft1D.from_words("abc", "aa"))
        with pytest.raises(PreconditionUnmet):
            decide_with_certificate(golden, ())
