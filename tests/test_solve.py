import functools
import hashlib
import json
import os
import random
import re
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace
from itertools import product
from math import inf, lcm, log2
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sftkit.core import (
    WILDCARD,
    BudgetExceeded,
    EmptyLanguage,
    Pattern2D,
    PreconditionUnmet,
    Sft1D,
    WangTile,
    WangTileSet,
    _word_tuples,
    build_rauzy,
    full_shift,
    language_count,
    free_tile_set,
    sft_from_edges,
    shortest_cycle,
    word_in_language,
)
from sftkit.classify import check_condition_d, scc_types
from sftkit.cycles import find_cycle_pair
from sftkit.compiler import VerticalPresentation, compile_wang
from sftkit.solve import (
    StripAutomaton,
    _Windows,
    _columns_for,
    _repeats,
    _row_layers,
    count_rectangles,
    decide_with_certificate,
    find_torus,
    semi_decide_emptiness,
    validate_torus,
)
import sftkit.core
import sftkit.entropy
import sftkit.solve
from sftkit.entropy import _spectral_radius

from conftest import brute_strip, closed_walk_count, numpy_radius, rll, sfts_of_order


def spelled(strip, H, V, cyclic):
    """Each state of ``strip`` as its columns' cells, column by column, as a
    tuple of H's symbols, spelled from the row words of its window: column j
    is symbol j of each row's Rauzy vertex.  A state's key must name its
    window's last column."""
    vertices = build_rauzy(H).vertices
    rows = _Windows(H, V, strip.height, None, cyclic, H.order).rows.tolist()
    windows = [[vertices[v] for v in row] for row in rows]
    last = strip.columns[strip.states % len(strip.columns)]
    assert _word_tuples(last, H.alphabet.symbols) == [tuple(v[-1] for v in window) for window in windows]
    return tuple(tuple(s for column in zip(*window) for s in column) for window in windows)


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


class TestHighOrderRows:
    """With no column rule the rows of a rectangle are independent, so
    N(w, h) = |L_w(H)|^h; a width up to the order of H counts windows, and
    the strip joins no more columns than that width."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(sfts_of_order(), st.integers(1, 2))
    def test_free_columns_count_independent_rows(self, H, h):
        for w in range(1, H.order + 3):
            assert count_rectangles(H, None, w, h) == language_count(H, w) ** h, (w, h)

    def test_run_length_limited(self):
        for d, w, h in ((5, 3, 2), (5, 6, 2), (5, 7, 2), (12, 14, 2), (30, 3, 3)):
            H = rll(d, d + 1)
            assert count_rectangles(H, None, w, h) == language_count(H, w) ** h, (d, w, h)

    def test_joins_stop_at_the_width(self, monkeypatch):
        joins = []
        real = sftkit.solve._join
        monkeypatch.setattr(sftkit.solve, "_join", lambda rows, *rest: joins.append(len(rows)) or real(rows, *rest))
        H = rll(5, 6)  # order 6; at height 2 the windows of width k number (k + 1)^2
        for w in range(1, 7):
            joins.clear()
            assert count_rectangles(H, None, w, 2) == language_count(H, w) ** 2
            assert joins == [k * k for k in range(2, w + 1)], (w, joins)
        # one width past the order joins every window of width 6, then pairs them
        joins.clear()
        assert count_rectangles(H, None, 7, 2) == language_count(H, 7) ** 2
        assert joins[:5] == [4, 9, 16, 25, 36] and joins[5:] and set(joins[5:]) == {49}, joins

    def test_a_count_past_the_order_keeps_one_key_per_window(self):
        # 42 x 3 lists RLL(40, 41)'s 74,088 windows of 41 columns; keeping
        # each window's 41 column indices peaked at 40 MB
        H = rll(40, 41)
        count, peak = traced_peak(lambda: count_rectangles(H, None, 42, 3))
        assert count == language_count(H, 42) ** 3
        assert peak < 25 * 2**20, f"{peak / 2**20:.1f} MB"

    def test_budget_counts_the_windows_of_the_width(self):
        # the budget counts the 4 columns twice, then the windows: the 9 of
        # width 2 fit a budget of 17 and not one of 16
        H = rll(5, 6)
        assert count_rectangles(H, None, 2, 2, budget=17) == 9
        for w, budget in ((2, 16), (3, 17)):
            with pytest.raises(BudgetExceeded):
                count_rectangles(H, None, w, 2, budget=budget)


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
            StripAutomaton.build(golden, golden, 4, budget=56)  # 8 columns, 8 windows, 41 list edges
        sa = StripAutomaton.build(golden, golden, 4, budget=57)  # 8 + 8 + 41 kept
        assert sa.count_width(4) == count_rectangles(golden, golden, 4, 4)

    def test_columns_are_counted_while_they_are_listed(self, golden):
        # each level of a language whose words all extend holds at most as
        # many words as the last, so a budget refuses where the whole list
        # would: 2^h free columns, and 144 golden columns of height 10
        for h in (3, 9, 10):
            with pytest.raises(BudgetExceeded):
                StripAutomaton.build(golden, None, h, budget=2**h - 1)
        with pytest.raises(BudgetExceeded, match="^1024 columns exceed the budget$"):
            StripAutomaton.build(golden, None, 10, budget=1000)
        with pytest.raises(BudgetExceeded, match="^512 column prefixes of height 9 exceed the budget$"):
            StripAutomaton.build(golden, None, 10, budget=500)
        with pytest.raises(BudgetExceeded, match="^144 columns exceed the budget$"):
            StripAutomaton.build(golden, golden, 10, budget=143)
        with pytest.raises(BudgetExceeded, match="strip columns, windows and edges"):
            StripAutomaton.build(golden, golden, 10, budget=144)  # listed, then the windows pass it
        assert StripAutomaton.build(golden, None, 3, budget=100).count_width(3) == 5**3  # golden rows of width 3

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


@st.composite
def transpose_cases(draw):
    """(H, V, w, h): SFTs of order 1 to 3 over 01 and w, h <= 4."""
    H, V = (draw(sfts("01", draw(st.integers(1, 3)))) for _ in range(2))
    return H, V, draw(st.integers(1, 4)), draw(st.integers(1, 4))


class TestCheaperAxis:
    """With SFT columns the strip runs along whichever axis bounds its
    windows lower; the count does not depend on the choice."""

    def test_no_111_rows_under_golden_columns_match_bitmask_transfer(self, golden):
        no111 = Sft1D.from_words("01", "111")
        shapes = [(w, h) for w in range(1, 5) for h in range(1, 31)]
        shapes += [(w, h) for w in range(5, 9) for h in range(1, 15)]
        for w, h in shapes:
            assert count_rectangles(no111, golden, w, h) == bitmask_rectangles(w, h, 3), (w, h)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(transpose_cases())
    def test_either_orientation_matches_brute_force(self, case):
        H, V, w, h = case
        want = brute_count(H, V, w, h)
        assert count_rectangles(H, V, w, h) == count_rectangles(V, H, h, w) == want

    def test_the_strip_built(self, golden, monkeypatch):
        no111 = Sft1D.from_words("01", "111")
        columns = Sft1D.from_words("01", "11")  # equal to ``golden``, another object
        name = {id(golden): "golden", id(no111): "no111", id(columns): "columns"}
        built = []
        real = StripAutomaton.build.__func__

        def build(cls, H, constraint, h, *args, **kwargs):
            built.append((name[id(H)], name[id(constraint)], h))
            return real(cls, H, constraint, h, *args, **kwargs)

        monkeypatch.setattr(StripAutomaton, "build", classmethod(build))
        # 6 x 7: 34^2 windows of golden columns against 44 no-111 rows of width 6
        count_rectangles(no111, golden, 6, 7)
        # 12 x 6: 21^2 windows against 1,705 rows of width 12
        count_rectangles(no111, golden, 12, 6)
        # 13 x 13: 610 windows either way, a tie
        count_rectangles(golden, columns, 13, 13)
        assert built == [("golden", "no111", 6), ("no111", "golden", 6), ("golden", "columns", 13)]

    def test_blown_budget_on_a_transposed_count_exits_1(self, capsys):
        from sftkit.cli import main

        data = os.path.join(os.path.dirname(__file__), "..", "demos", "data")
        argv = ["solve", "count", "--h", os.path.join(data, "no111.json"), "--v", os.path.join(data, "golden.json")]
        argv += ["--width", "4", "--height", "30"]
        # the transposed strip has 13 columns, the no-111 rows of width 4;
        # the given orientation would have 2,178,309 golden columns
        assert main(argv + ["--budget", "12"]) == 1
        assert "13 columns exceed the budget" in capsys.readouterr().err
        assert main(argv + ["--budget", "1000"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == "6722780565791261151845633"


class TestStripAutomaton:
    def test_counts_match(self, golden):
        sa = StripAutomaton.build(golden, golden, 3)
        for w in range(1, 5):
            assert sa.count_width(w) == count_rectangles(golden, golden, w, 3)

    def test_spectral_radius_positive(self, golden):
        sa = StripAutomaton.build(golden, golden, 2)
        lam = sa.spectral_radius()[0]
        assert lam > 1

    def test_transitions_count_the_successor_lists(self, golden):
        no111 = Sft1D.from_words("01", "111")
        cases = [
            (golden, None, 4, False, 1),  # free columns: the list layer
            (golden, golden, 5, True, 1),  # a cylinder strip
            (golden, golden, 9, False, 9),  # row layers
            (golden, golden, 10, True, 10),  # a cylinder strip's row layers
            (no111, golden, 6, False, 6),  # row layers over 2-column windows
        ]
        for H, V, h, cyclic, layers in cases:
            strip = StripAutomaton.build(H, V, h, cyclic=cyclic)
            assert len(strip.layers) == layers
            assert strip.transitions == sum(map(len, strip.successors))


@st.composite
def strip_cases(draw):
    """(H, columns, h, cyclic) with h <= 3: H of order 1 to 3; columns free,
    an SFT of order 1 to 3, whose alphabet may list the symbols in the other
    order (so its words are not in H's order), or a compiled presentation,
    and then H is over its symbols abc.  The oracle checks every (window,
    column) pair, about |columns|^(order + 1) of them, so order times h
    stays at most 9 over 01, 4 over 012 and 6 under a presentation."""
    columns = draw(st.sampled_from(["none", "sft", "presentation"]))
    order = draw(st.integers(1, 3))
    if columns == "presentation":
        H, V, cap = draw(sfts("abc", order)), coding_presentation(draw(st.sampled_from([1, 2]))), 6
    else:
        symbols = draw(st.sampled_from(["01", "012"]))
        H, cap = draw(sfts(symbols, order)), 9 if symbols == "01" else 4
        if columns == "sft":
            V = draw(sfts(draw(st.sampled_from([symbols, symbols[::-1]])), draw(st.integers(1, 3))))
        else:
            V = None
    return H, V, draw(st.integers(1, min(3, cap // order))), draw(st.booleans())


class TestStripOracle:
    """The joins of the build against every (window, column) pair."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(strip_cases())
    def test_matches_the_brute_strip(self, case):
        H, V, h, cyclic = case
        try:
            strip = StripAutomaton.build(H, V, h, cyclic=cyclic)
        except EmptyLanguage:
            return
        states, narrow, successors = brute_strip(H, V, h, cyclic)
        assert strip.states.dtype == np.intp
        assert spelled(strip, H, V, cyclic) == states and strip.narrow == narrow
        if "successors" not in strip.__dict__:  # the strip keeps its row layers
            vec = [1] * len(states)
            for w in range(len(narrow) + 1, len(narrow) + 6):
                assert strip.count_width(w) == sum(vec)
                vec = [sum(vec[i] for i in out) for out in successors]
        assert strip.successors == successors
        assert strip.transitions == sum(map(len, successors))

    @pytest.mark.parametrize("n_tiles, h, kept, listed", [(1, 60, 90, 90), (2, 60, 480, 500), (2, 120, 1440, 1496)])
    def test_cylinder_columns_of_a_presentation_repeat(self, n_tiles, h, kept, listed):
        # above h = 3 coding3's columns repeat; a column is cyclic iff its
        # (states + 2)-fold repetition is a factor, as a path reading it
        # passes some DFA state twice at the start of a copy.  Rows that
        # only repeat their symbol keep one transition per column
        pres = coding_presentation(n_tiles)
        H = sft_from_edges(pres.alphabet, [(a, a) for a in pres.alphabet])
        words = _word_tuples(_columns_for(pres, h, pres.alphabet), pres.alphabet)
        cyclic = [w for w in words if pres.is_factor(w * (len(pres.states) + 2))]
        assert (len(cyclic), len(words)) == (kept, listed)
        assert [w for w in words if pres.is_cyclic(w)] == cyclic
        strip = StripAutomaton.build(H, pres, h, cyclic=True)
        assert _word_tuples(strip.columns, H.alphabet.symbols) == cyclic
        assert len(strip.states) == kept and strip.transitions == kept


def order2_decisions():
    """The seed-0 instances of the benchmark's order2-decide decisions, each
    as (k, verdict, rows, columns): rows of the k-cycle shift over columns of
    an order-2 SFT, with the verdict they are built to have."""
    bench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, bench)
    try:
        from workloads import make_spec
    finally:
        sys.path.remove(bench)
    out = []
    for inst in make_spec("order2-decide", 0)["decide"]:
        H, V = (Sft1D(inst["alphabet"], [tuple(w) for w in inst[key]]) for key in ("h_forbidden", "v_forbidden"))
        out.append((inst["k"], inst["verdict"], H, V))
    return out


def order2_instance():
    """The first of ``order2_decisions``: rows of the 8-cycle shift, nonempty
    by construction.  Its strips of height 5 have about 24,000 windows."""
    k, verdict, H, V = order2_decisions()[0]
    assert k == 8 and verdict == "nonempty"
    return H, V


def traced_peak(build):
    """The result or exception of ``build()`` and the peak of the memory it
    allocated, in bytes, as tracemalloc counts it."""
    tracemalloc.start()
    try:
        result = build()
    except BudgetExceeded as exc:
        result = exc
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return result, peak


class TestStripMemory:
    """A strip keeps no column bitmasks, so what it allocates follows what
    the budget counts, not windows times columns."""

    def test_a_height_5_strip_builds_in_under_20_mb(self):
        H, V = order2_instance()
        strip, peak = traced_peak(lambda: StripAutomaton.build(H, V, 5))
        assert (len(strip.states), strip.transitions, len(strip.layers)) == (24358, 17376, 1)
        assert peak < 20 * 2**20, f"{peak / 2**20:.1f} MB"

    def test_a_refused_strip_allocates_at_most_400_bytes_per_budget_unit(self):
        # the height-5 strip keeps 2 x 24,358 columns and windows and 17,376
        # transitions, 66,092 in all; each budget below that is refused
        H, V = order2_instance()
        for budget in (48716, 55000, 66091):
            refused, peak = traced_peak(lambda: StripAutomaton.build(H, V, 5, budget))
            assert isinstance(refused, BudgetExceeded), budget
            assert peak <= 400 * budget, (budget, peak)
        strip = StripAutomaton.build(H, V, 5, 66092)
        assert strip.transitions == 17376

    def test_a_height_8_strip_is_refused_while_its_columns_are_listed(self):
        # 9,253,065 columns of height 8; the listing stops at height 6, the
        # first to hold more than 100,000 prefixes, where listing them all
        # took 15 s and a gigabyte
        H, V = order2_instance()
        t0 = time.perf_counter()
        refused, peak = traced_peak(lambda: StripAutomaton.build(H, V, 8, 100000))
        assert time.perf_counter() - t0 < 1
        assert str(refused) == "176411 column prefixes of height 6 exceed the budget"
        assert peak < 20 * 2**20, f"{peak / 2**20:.1f} MB"

    def test_a_height_6_strip_holds_no_symbol_tuples(self):
        # 176,411 windows of one column each, a column index, where spelling
        # every column out as symbol tuples peaked at 55.7 MB
        H, V = order2_instance()
        strip, peak = traced_peak(lambda: StripAutomaton.build(H, V, 6))
        assert len(strip.states) == 176411 and strip.transitions == 112284
        assert peak < 45 * 2**20, f"{peak / 2**20:.1f} MB"


@contextmanager
def dense_cut(cells):
    """``_join`` takes its dense step below ``cells`` cells, its trie walk
    from there on."""
    saved, sftkit.solve._DENSE_CELLS = sftkit.solve._DENSE_CELLS, cells
    try:
        yield
    finally:
        sftkit.solve._DENSE_CELLS = saved


def same_join(a, b):
    return a is None and b is None or (
        a is not None and b is not None
        and all(np.array_equal(x, y) and x.dtype == y.dtype for x, y in zip(a, b))
    )


def both_ways(joins):
    """A stand-in for ``_join`` that also runs each join a build makes with
    the dense step and with the trie walk, at the build's cap and just below,
    at and above the number of pairs, requires the same answers and appends
    its arguments to ``joins``."""
    join = sftkit.solve._join

    def checked(rows, automaton, columns, cap):
        answers = []
        for cut in (0, inf):
            with dense_cut(cut):
                pairs = len(join(rows, automaton, columns, inf)[0])
                answers.append([join(rows, automaton, columns, c) for c in (cap, pairs - 1, pairs, pairs + 1)])
        assert all(map(same_join, *answers))
        joins.append((rows, automaton, columns, cap))
        return join(rows, automaton, columns, cap)

    return checked


def strip_arrays(strip):
    """What a strip holds, as plain values: columns, states, narrow,
    transitions, layer arrays and successors."""
    layers = [(src.tolist(), dst.tolist(), size) for src, dst, size in strip.layers]
    return (
        strip.columns.tolist(), strip.columns.dtype, strip.states.tolist(), strip.states.dtype,
        strip.narrow, strip.transitions, layers, strip.successors,
    )


@st.composite
def join_cases(draw):
    """(H, columns, h, cyclic): H of order 1 or 2; columns free, an SFT of
    order 1 or 2, or a compiled presentation, and then H is over its symbols
    abc.  Heights go to 5 over 01, 3 over 012 and 2 over 0123, so the dense
    step of every join stays below a few million cells."""
    columns = draw(st.sampled_from(["none", "sft", "presentation"]))
    order = draw(st.integers(1, 2))
    if columns == "presentation":
        H, V, top = draw(sfts("abc", order)), coding_presentation(draw(st.sampled_from([1, 2]))), 6
    else:
        symbols = draw(st.sampled_from(["01", "012", "0123"]))
        H, top = draw(sfts(symbols, order)), {2: 5, 3: 3, 4: 2}[len(symbols)]
        V = draw(sfts(symbols, draw(st.integers(1, 2)))) if columns == "sft" else None
    return H, V, draw(st.integers(1, top)), draw(st.booleans())


class TestJoinCut:
    """``_join`` tests small joins as one dense array and walks the columns'
    trie for the others; both give the same pairs, the same refusals and the
    same strips."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(join_cases())
    def test_dense_step_and_trie_walk_agree(self, case):
        H, V, h, cyclic = case
        joins = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sftkit.solve, "_join", both_ways(joins))
            try:
                StripAutomaton.build(H, V, h, cyclic=cyclic).successors
            except EmptyLanguage:
                return
        assert joins

    def test_no_windows_give_no_pairs_at_any_cap(self, golden):
        # a join over no rows lists no pairs, even where a cap <= 0 refuses
        # any other join
        joins = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sftkit.solve, "_join", both_ways(joins))
            StripAutomaton.build(golden, golden, 3).successors
        rows, automaton, columns, _ = joins[0]
        for cut in (0, inf):
            with dense_cut(cut):
                assert sftkit.solve._join(rows, automaton, columns, 0) is None
                for cap in (0, -1, 1):
                    i, c = sftkit.solve._join(rows[:0], automaton, columns, cap)
                    assert i.tolist() == c.tolist() == [] and i.dtype == c.dtype == np.intp

    def test_strips_are_equal_on_both_sides_of_the_cut(self, golden):
        # golden x golden up to h = 9 (71,289 cells at the last join) and the
        # transposed cylinder strips of the four seed-0 k-cycle decisions
        # of the order2-decide benchmark, whose width is k
        builds = [(golden, golden, h, False) for h in range(1, 10)]
        builds += [(V, H, k, True) for k, _, H, V in order2_decisions()]
        for rows, cols, h, cyclic in builds:
            strips = []
            for cut in (0, inf):
                with dense_cut(cut):
                    strips.append(strip_arrays(StripAutomaton.build(rows, cols, h, cyclic=cyclic)))
            assert strips[0] == strips[1], (h, cyclic)
            assert not cyclic or len(strips[0][0]) == h  # the k rotations of the cycle


class TestCylinderFilter:
    @pytest.mark.parametrize("h, kept", [(5, 19932), (6, 144345)])
    def test_the_array_pass_keeps_the_columns_that_repeat(self, h, kept):
        # one array step per cell against a scan of each repeated column by
        # the forbidden-factor automaton, as many times as the pass repeats it
        H, V = order2_instance()
        symbols = H.alphabet.symbols
        cols = _columns_for(V, h, symbols)
        reps = 2 + (V.order + 1) // h
        repeats = [V.word_locally_admissible(w * reps) for w in _word_tuples(cols, symbols)]
        assert _repeats(V, cols, symbols).tolist() == repeats
        assert sum(repeats) == kept

    def test_each_automaton_is_converted_once_per_alphabet(self):
        # coding3 x free-2: the semi-decision builds 12 strips to bound 6 and
        # lists the columns of each, but converts the rows' automaton and the
        # presentation's once each
        coding = sft_from_edges("abc", [("a", "b"), ("b", "c"), ("c", "a"), ("c", "b"), ("c", "c")])
        pair, _ = find_cycle_pair(build_rauzy(coding))
        pres = compile_wang(coding, free_tile_set(2), pair)[0]
        convert, calls = sftkit.core._arcs, []

        def spy(step, alphabet):
            calls.append((step, tuple(alphabet)))
            return convert(step, alphabet)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sftkit.core, "_arcs", spy)
            out = semi_decide_emptiness(coding, pres, 6)
        assert (out.status, out.rationale) == ("unknown", "no decision up to height 6")
        assert sorted((len(step), alphabet) for step, alphabet in calls) == [(4, tuple("abc")), (378, tuple("abc"))]
        assert calls[0][0] is not calls[1][0]


def list_row_layers(windows, succ, h, cap):
    """The row layers built with Python lists and dicts, one dict operation
    per edge: the reference for the array build of ``_row_layers``.
    ``windows`` lists each window's h row words; the edges of a layer come
    in the order they are found, not sorted by target."""
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
    layers = []
    edges = 0
    states = {i: i for i in range(n)}  # p * width + s -> id of the state (p, s)
    width = n
    for r in range(h):
        d, suffix = grow[r], list(below[r])  # suffix id -> t * nv + v
        after = len(below[r + 1]) if r + 1 < h else 0
        found = {}
        src, dst = [], []
        for key, i in states.items():
            p, s = divmod(key, width)
            t, v = divmod(suffix[s], nv)
            qs = [q for q in map(d.get, [p * nv + x for x in succ[v]]) if q is not None]
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


def list_image(layers, vec):
    """One width step through list layers, one Python addition per edge."""
    for src, dst, size in layers:
        nxt = [0] * size
        for i, j in zip(src, dst):
            nxt[j] += vec[i]
        vec = nxt
    return vec


def list_count_width(strip, layers, w):
    if w <= len(strip.narrow):
        return strip.narrow[w - 1]
    vec = [1] * len(strip.states)
    for _ in range(w - len(strip.narrow) - 1):
        vec = list_image(layers, vec)
    return sum(vec)


def list_has_cycle(strip, layers):
    vec = [1] * len(strip.states)
    while True:
        nxt = [min(x, 1) for x in list_image(layers, vec)]
        if nxt == vec:
            return any(vec)
        vec = nxt


@st.composite
def layer_cases(draw):
    """(H, V, h): H and V of order 1 or 2 over 01 with h <= 6, or over 012
    with h <= 4; no V about one time in five."""
    symbols = draw(st.sampled_from(["01", "012"]))
    H = draw(sfts(symbols, draw(st.integers(1, 2))))
    V = None if draw(st.integers(0, 4)) == 0 else draw(sfts(symbols, draw(st.integers(1, 2))))
    return H, V, draw(st.integers(1, 6 if symbols == "01" else 4))


class TestRowLayersDifferential:
    """The array build of the row layers against the list build, and the
    array sweeps against one Python addition per edge."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(layer_cases())
    def test_matches_the_list_build(self, case):
        H, V, h = case
        try:
            strip = StripAutomaton.build(H, V, h, budget=200000)
        except (EmptyLanguage, BudgetExceeded):
            return
        if not len(strip.states):
            return
        g = build_rauzy(H)
        rank = {v: i for i, v in enumerate(g.vertices)}
        # a state lists its cells column by column, so row r is state[r::h]
        windows = [tuple(rank[state[r::h]] for r in range(h)) for state in spelled(strip, H, V, False)]
        grid = np.array(windows, dtype=np.intp)
        succ = g.index.succ
        want = list_row_layers(windows, succ, h, inf)
        got, _ = _row_layers(grid, succ, inf)
        assert [(size, len(src)) for src, _, size in got] == [(size, len(src)) for src, _, size in want]
        for src, dst, size in got:
            assert src.dtype == dst.dtype == np.intp and np.all(np.diff(dst) >= 0)
            assert np.all((0 <= dst) & (dst < size))
        if len(strip.layers) == h > 1:  # the build kept the row layers
            assert all(np.array_equal(a, b) for old, new in zip(got, strip.layers) for a, b in zip(old, new))
        # a budget refuses both builds at the same layer
        total = sum(len(src) for src, _, _ in want)
        for cap in {1, total // 2, total, total + 1}:
            assert (_row_layers(grid, succ, cap) is None) == (list_row_layers(windows, succ, h, cap) is None)
        layered = replace(strip, layers=got)
        for w in range(1, 8):
            assert strip.count_width(w) == layered.count_width(w) == list_count_width(strip, want, w)
        assert strip.has_cycle() == layered.has_cycle() == list_has_cycle(strip, want)
        # the list layers, sorted by target as the sweeps expect
        ordered = tuple(
            (np.array(src, dtype=np.intp)[o], np.array(dst, dtype=np.intp)[o], size)
            for src, dst, size in want
            for o in [np.argsort(np.array(dst, dtype=np.intp), kind="stable")]
        )
        tol = 1e-10
        _, (lo, hi), _ = layered.spectral_radius(tol)
        _, (r_lo, r_hi), _ = replace(strip, layers=ordered).spectral_radius(tol)
        assert lo <= r_hi and r_lo <= hi


def spectral_fallbacks(monkeypatch):
    """The calls that ``spectral_radius`` makes to the per-component
    iteration, as the step counts they return."""
    calls = []

    def recorded(*args, **kwargs):
        result = _spectral_radius(*args, **kwargs)
        calls.append(result[2])
        return result

    monkeypatch.setattr(sftkit.entropy, "_spectral_radius", recorded)
    return calls


def assert_matches_numpy(strip, tol=1e-12):
    value, (lo, hi), iterations = strip.spectral_radius(tol)
    rho = numpy_radius(strip.successors)
    assert lo <= value <= hi and hi - lo <= tol * hi
    # numpy's eigenvalues carry rounding error of their own
    assert lo <= rho * (1 + 1e-12) and rho * (1 - 1e-12) <= hi
    return iterations


class TestStripSpectralRadius:
    """The power iteration runs through the row layers over the whole strip;
    strips it cannot certify go to the per-component iteration.  Warnings
    are errors in this suite, so a numpy RuntimeWarning fails these too."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(rectangle_cases())
    def test_layers_agree_with_successor_lists(self, case):
        H, V, _, h = case
        try:
            strip = StripAutomaton.build(H, V, h)
        except EmptyLanguage:
            return
        tol = 1e-10
        _, (lo, hi), _ = strip.spectral_radius(tol)
        _, (s_lo, s_hi), _ = _spectral_radius(strip.successors, tol)
        assert lo <= s_hi and s_lo <= hi
        assert_matches_numpy(strip, tol)

    def test_golden_strip_never_decodes_its_transitions(self, golden):
        strip = StripAutomaton.build(golden, golden, 16)
        assert len(strip.layers) == 16
        _, (lo, hi), _ = strip.spectral_radius()
        assert "successors" not in strip.__dict__
        assert hi - lo <= 1e-12 * hi
        assert log2(hi) / 16 == pytest.approx(0.593937427411694, abs=1e-12)

    def test_reducible_strip_falls_back_after_n_steps(self, monkeypatch):
        # rows 0*1* under free columns: each column is its own component
        calls = spectral_fallbacks(monkeypatch)
        strip = StripAutomaton.build(Sft1D.from_words("01", "10"), None, 6)
        assert len(strip.layers) == 6
        iterations = assert_matches_numpy(strip)
        assert iterations == len(strip.states) + calls[0]
        assert strip.spectral_radius()[1] == (1.0, 1.0)

    def test_windows_without_predecessor_fall_back_on_underflow(self, monkeypatch):
        # 2 follows only 1, so a column with 2 over 2 needs 1 over 1 before
        # it, which the columns forbid: its entry of x shrinks every step
        calls = spectral_fallbacks(monkeypatch)
        H = sft_from_edges("012", [(a, b) for a in "012" for b in "01"] + [("1", "2")])
        strip = StripAutomaton.build(H, Sft1D.from_words("012", "11"), 6)
        iterations = assert_matches_numpy(strip)
        assert len(calls) == 1 and iterations - calls[0] < len(strip.states)

    def test_windows_without_successor_match_numpy(self, monkeypatch):
        # b -> c -> a in the rows, and no column holds c over a, so a column
        # with b over c ends every strip; heights 2 and 4 fall back, 6
        # certifies the whole strip
        calls = spectral_fallbacks(monkeypatch)
        H = sft_from_edges("abc", [("a", "a"), ("a", "b"), ("b", "c"), ("c", "a")])
        V = Sft1D.from_words("abc", "ca")
        for h in (2, 4, 6):
            strip = StripAutomaton.build(H, V, h)
            assert any(not out for out in strip.successors)
            assert_matches_numpy(strip)
        assert len(calls) == 2

    def test_max_iter_bounds_each_component(self, golden):
        strip = StripAutomaton.build(golden, golden, 8)
        with pytest.raises(RuntimeError, match="after 3 iterations"):
            strip.spectral_radius(max_iter=3)
        assert strip.spectral_radius(max_iter=40)[2] <= 40


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


@st.composite
def cylinder_cases(draw):
    """(H, V, w, h): random SFTs of order 1 to 3 over 01 with w, h <= 4, or
    over 012 with w, h <= 3.  H of order m has at most |A|^(h(m + w - 1))
    walks of w - 1 edges in the strip, which bounds h to keep it short."""
    symbols = draw(st.sampled_from(["01", "012"]))
    m = draw(st.integers(1, 3))
    H, V = draw(sfts(symbols, m)), draw(sfts(symbols, draw(st.integers(1, 3))))
    side, cap = (4, 16) if symbols == "01" else (3, 9)
    w = draw(st.integers(1, side))
    return H, V, w, draw(st.integers(1, min(side, cap // (m + w - 1))))


class TestCylinderStrip:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(cylinder_cases())
    def test_closed_walks_are_the_tori(self, case):
        H, V, w, h = case
        rows = {r for r in product(H.alphabet.symbols, repeat=w) if cyclic_ok(H, r)}
        cols = {c for c in product(V.alphabet.symbols, repeat=h) if cyclic_ok(V, c)}
        # stack whichever side gives fewer patterns to check
        a, b, n = (rows, cols, h) if len(rows) ** h < len(cols) ** w else (cols, rows, w)
        tori = sum(all(line in b for line in zip(*stack)) for stack in product(a, repeat=n))
        try:
            succ = StripAutomaton.build(H, V, h, cyclic=True).successors
        except EmptyLanguage:
            succ = ()
        assert closed_walk_count(succ, w) == tori


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

    @pytest.mark.parametrize("order", [1, 2, 3])
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

    def test_no_torus_below_the_phase_period_is_found_fast(self):
        # rows step a phase mod 25 and carry a free bit, columns keep the
        # phase: every torus is at least 25 wide, and enumerating the closed
        # walks of each width up to 20 took about 25 s
        symbols = [f"{p}.{b}" for p in range(25) for b in "01"]
        H = sft_from_edges(symbols, [(f"{p}.{a}", f"{(p + 1) % 25}.{b}") for p in range(25) for a in "01" for b in "01"])
        V = sft_from_edges(symbols, [(f"{p}.{a}", f"{p}.{b}") for p in range(25) for a in "01" for b in "01"])
        start = time.perf_counter()
        assert find_torus(H, V, 20, 1) is None
        wit = find_torus(H, V, 25, 1)
        assert time.perf_counter() - start < 1
        assert (wit.width, wit.height) == (25, 1)
        assert validate_torus(H, V, wit.pattern)

    def test_compiled_monotile(self, coding_sft):
        # the one-tile system's least torus is one M x mh block, M = 3, mh = 30
        pres = coding_presentation(1)
        assert find_torus(coding_sft, pres, 4, 29) is None
        wit = find_torus(coding_sft, pres, 4, 30)
        assert (wit.width, wit.height) == (3, 30)
        assert validate_torus(coding_sft, pres, wit.pattern)


def interleaved_reference(H, V, bound):
    """The former ``semi_decide_emptiness``: an empty n x n count proves
    emptiness, a torus of at most n x n nonemptiness, for n = 1..bound."""
    for n in range(1, bound + 1):
        if count_rectangles(H, V, n, n) == 0:
            return "empty"
        if find_torus(H, V, n, n) is not None:
            return "nonempty"
    return "unknown"


def demo_pairs():
    data = os.path.join(os.path.dirname(__file__), "..", "demos", "data")
    binary = []
    for name in ("alt011", "forbid0011", "golden", "no111"):
        with open(os.path.join(data, f"{name}.json")) as f:
            binary.append(Sft1D.from_json(json.load(f)))
    return list(product(binary, repeat=2))


@st.composite
def semi_decide_cases(draw):
    """(H, V, bound): SFTs of order 1 or 2 over 01 up to bound 4, or of
    order 1 over 012 up to bound 3; either may have an empty language."""
    symbols = draw(st.sampled_from(["01", "012"]))
    orders = st.integers(1, 2) if symbols == "01" else st.just(1)
    H, V = draw(sfts(symbols, draw(orders))), draw(sfts(symbols, draw(orders)))
    return H, V, 4 if symbols == "01" else 3


def check_outcome(H, V, out):
    """An ``empty`` names a zero count of the width the free strip rules
    out; a witness replays and is the narrowest torus of its height, no
    torus being lower."""
    if out.empty and out.rationale != "the rows have no words":
        w, h = map(int, re.match(r"no (\d+)x(\d+) window", out.rationale).groups())
        windows = len(StripAutomaton.build(H, V, h).states)
        assert w == windows + build_rauzy(H).order
        assert count_rectangles(H, V, w, h) == 0
    if out.nonempty:
        wit = out.witness
        assert (wit.pattern.width, wit.pattern.height) == (wit.width, wit.height)
        assert validate_torus(H, V, wit.pattern)
        succ = StripAutomaton.build(H, V, wit.height, cyclic=True).successors
        assert not any(closed_walk_count(succ, w) for w in range(1, wit.width))
        assert closed_walk_count(succ, wit.width)
        for h in range(1, wit.height):
            assert not any(closed_walk_count(StripAutomaton.build(H, V, h, cyclic=True).successors, w) for w in range(1, 9))
    assert out.witness is None or out.nonempty


@st.composite
def digraphs(draw):
    """Successor lists on one to five states, ascending, without repeats."""
    n = draw(st.integers(1, 5))
    return [sorted(draw(st.sets(st.integers(0, n - 1), max_size=3))) for _ in range(n)]


class TestShortestCycle:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(digraphs())
    def test_matches_brute_force(self, succ):
        # the shortest closed walks, listed by brute force, are the shortest
        # cycles; the one found is the lexicographically least of them
        n = len(succ)
        closed = [
            walk
            for w in range(1, n + 1)
            for walk in product(range(n), repeat=w)
            if all(walk[(i + 1) % w] in succ[walk[i]] for i in range(w))
        ]
        cycle = shortest_cycle(succ)
        if not closed:
            assert cycle == []
            return
        assert len(cycle) == len(closed[0]) and len(set(cycle)) == len(cycle)
        assert all(cycle[(i + 1) % len(cycle)] in succ[cycle[i]] for i in range(len(cycle)))
        assert tuple(cycle) == min(walk for walk in closed if len(walk) == len(cycle))


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

    def test_compiled_system_has_a_torus_of_its_macro_height(self, coding_sft):
        # the first cylinder strip with a cycle has height 60, and every
        # free strip below it has a cycle, so bound 40 is unknown
        out = semi_decide_emptiness(coding_sft, coding_presentation(2), 60)
        assert out.nonempty and (out.witness.width, out.witness.height) == (3, 60)
        assert validate_torus(coding_sft, coding_presentation(2), out.witness.pattern)

    @pytest.mark.parametrize(
        "tile",
        [WangTile("x", "y", "v", "v"), WangTile("h", "h", "x", "y")],
        ids=["east-west", "north-south"],
    )
    def test_compiled_one_tile_that_cannot_tile(self, coding_sft, tile):
        # the tile cannot sit beside, or on, itself; the compiled system
        # must read its colours to say so
        pair, _ = find_cycle_pair(build_rauzy(coding_sft))
        pres, _ = compile_wang(coding_sft, WangTileSet((tile,)), pair)
        assert semi_decide_emptiness(coding_sft, pres, 20).status == "empty"

    def test_compiled_free_one_tile(self, coding_sft):
        pres = coding_presentation(1)
        out = semi_decide_emptiness(coding_sft, pres, 30)
        assert out.nonempty and (out.witness.width, out.witness.height) == (3, 30)
        assert validate_torus(coding_sft, pres, out.witness.pattern)

    def test_demo_pairs_agree_with_the_reference(self):
        statuses = []
        for H, V in demo_pairs():
            out = semi_decide_emptiness(H, V, 6)
            assert out.status == interleaved_reference(H, V, 6)
            check_outcome(H, V, out)
            statuses.append(out.status)
        assert statuses.count("empty") == 4 and statuses.count("nonempty") == 12

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(semi_decide_cases())
    def test_never_contradicts_the_reference(self, case):
        H, V, bound = case
        out = semi_decide_emptiness(H, V, bound)
        want = interleaved_reference(H, V, bound)
        # only an unknown may turn into a verdict
        assert want == "unknown" or out.status == want
        check_outcome(H, V, out)

    def test_at_most_two_strips_per_height(self, coding_sft, monkeypatch):
        import sftkit.solve

        heights = []
        real = StripAutomaton.build.__func__

        def build(cls, H, constraint, h, *args, **kwargs):
            heights.append(h)
            return real(cls, H, constraint, h, *args, **kwargs)

        def banned(*args, **kwargs):
            raise AssertionError("the semi-decision counts or searches tori")

        monkeypatch.setattr(StripAutomaton, "build", classmethod(build))
        monkeypatch.setattr(sftkit.solve, "count_rectangles", banned)
        monkeypatch.setattr(sftkit.solve, "find_torus", banned)
        assert semi_decide_emptiness(coding_sft, coding_presentation(2), 12).status == "unknown"
        assert heights == [h for h in range(1, 13) for _ in range(2)]
        heights.clear()
        H = Sft1D.from_words("01", "00", "11")
        V = Sft1D.from_words("01", "00", "010", "111")
        assert semi_decide_emptiness(H, V, 6).empty
        # the free strip of the last height has no cycle: no cylinder strip
        assert heights == [1, 1, 2, 2, 3]

    def test_blown_budget_is_unknown(self, golden):
        out = semi_decide_emptiness(golden, golden, 3, budget=1)
        assert out.status == "unknown" and out.rationale == "budget exceeded at height 1"

    def test_failed_replay_is_an_error(self, golden, monkeypatch):
        import sftkit.solve

        monkeypatch.setattr(sftkit.solve, "validate_torus", lambda *args, **kwargs: False)
        with pytest.raises(RuntimeError):
            semi_decide_emptiness(golden, golden, 3)


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

    def test_benchmark_decisions_are_pinned(self):
        # SHA-256 of each seed-0 order2-decide decision as sorted-key JSON.
        # Its strip's rows are V, of order 2, so each witness column is read
        # from the key of the state one step on: read from the state itself,
        # the torus is rotated a column, still valid but not this one
        pins = [
            (8, "nonempty", 550, "b4e659e0ed5d8c97079b442f566e4fa907a319de4cb9f0a47434c732ebc0ea36"),
            (8, "empty", 88, "0d9d0faf38c93673b1a71fca870954a94dccbcd23a2fc2842c1d7168ba233c21"),
            (9, "nonempty", 652, "950acb2379b4fa52afdfa481f8c9cbabf900f68d0755216cc3fd8ab6419b2798"),
            (9, "empty", 88, "5c0d675c85a790d44fc1688c3755a5f51631032e8fe46389e373e999178cbe21"),
        ]
        got = []
        for k, verdict, H, V in order2_decisions():
            data = json.dumps(decide_with_certificate(H, V).to_json(), sort_keys=True).encode()
            got.append((k, verdict, len(data), hashlib.sha256(data).hexdigest()))
        assert got == pins

    def test_budget_counts_what_the_strip_keeps(self):
        # the transposed cylinder strip keeps the 5 cyclic rows of width 5 as
        # its columns, 5 one-column and 25 two-column windows and 20
        # transitions: 55 in all; any smaller budget gives unknown, never empty
        H, V = cycle_instance(random.Random(5000), 5, "empty")
        statuses = [decide_with_certificate(H, V, budget=b).status for b in range(60)]
        assert statuses == ["unknown"] * 55 + ["empty"] * 5

    def test_pattern_stacks_are_charged_before_they_are_listed(self, monkeypatch):
        # the 4 rows of width 4 give 4^3 = 64 stacks of three rows to check
        # against the pattern; each holds an "a" at the bottom, so every stack
        # is forbidden and the strip has no symbol
        cyc = sft_from_edges("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        patterns = (Pattern2D(1, 3, ("a", WILDCARD, WILDCARD)),)
        calls = []
        matches_at = Pattern2D.matches_at

        def spy(*args, **kwargs):
            calls.append(args)
            return matches_at(*args, **kwargs)

        monkeypatch.setattr(Pattern2D, "matches_at", spy)
        for budget in (1, 10, 63):
            out = decide_with_certificate(cyc, patterns, budget=budget)
            assert out.status == "unknown" and out.rationale == "budget exceeded: 64 row stacks to check", budget
        assert calls == []
        assert decide_with_certificate(cyc, patterns, budget=64).empty
        assert calls

    def test_a_pattern_of_no_cells_occurs_everywhere(self):
        # as ``validate_torus`` reads it, so no torus avoids it
        cyc = sft_from_edges("xy", [("x", "y"), ("y", "x")])
        for q in (Pattern2D(0, 0, ()), Pattern2D(0, 2, ()), Pattern2D(2, 0, ())):
            assert decide_with_certificate(cyc, (q,)).empty, q

    def test_empty_languages_are_empty(self, golden):
        nothing = Sft1D.from_words("01", "0", "1")
        for H, constraint in ((nothing, ()), (nothing, nothing), (nothing, golden)):
            out = decide_with_certificate(H, constraint)
            assert out.empty and out.rationale == "the rows have no words"
        out = decide_with_certificate(golden, nothing)
        assert out.empty and out.rationale == "no torus of width 2: the cylinder strip has no cycle"

    def test_mismatched_alphabets_are_input_errors(self, golden):
        two_cycle = sft_from_edges("ab", [("a", "b"), ("b", "a")])
        with pytest.raises(ValueError, match="different alphabets: a, b and 0, 1"):
            decide_with_certificate(two_cycle, golden)

    def test_precondition_checked(self, coding_sft, golden):
        with pytest.raises(PreconditionUnmet):
            decide_with_certificate(coding_sft, Sft1D.from_words("abc", "aa"))
        with pytest.raises(PreconditionUnmet):
            decide_with_certificate(golden, ())


@st.composite
def decision_cases(draw):
    """(H, constraint, cycles).  H is a union of one or two disjoint cycles of
    lengths 1 to 4 (``cycles`` lists their words), or a graph on 1 to 4
    symbols with a loop on each symbol (reflexive) or with every edge both
    ways (symmetric), and then ``cycles`` is None.  The constraint is a
    column SFT of order 1 to 3 over H's symbols, or, for cycles only, a set
    of one to four Pattern2D of height 1 to 3 and width 1 or 2 whose cells
    are H's symbols or the wildcard."""
    kind = draw(st.sampled_from(["cycles", "reflexive", "symmetric"]))
    if kind == "cycles":
        lengths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
        cycles, start = [], 0
        for n in lengths:
            cycles.append("abcdefgh"[start : start + n])
            start += n
        symbols = "".join(cycles)
        edges = [(c[i], c[(i + 1) % len(c)]) for c in cycles for i in range(len(c))]
    else:
        cycles = None
        symbols = "abcd"[: draw(st.integers(1, 4))]
        pairs = draw(st.lists(st.tuples(st.sampled_from(symbols), st.sampled_from(symbols)), min_size=1, max_size=6))
        if kind == "reflexive":
            edges = [(a, a) for a in symbols] + pairs
        else:
            edges = pairs + [(b, a) for a, b in pairs]
    H = sft_from_edges(symbols, edges)
    if cycles is None or draw(st.booleans()):
        order = draw(st.integers(1, 3))

        def words(n):
            return st.tuples(*[st.sampled_from(symbols)] * n)

        longest = draw(words(order + 1))
        more = draw(st.lists(st.integers(1, order + 1).flatmap(words), max_size=8))
        return H, Sft1D(tuple(symbols), frozenset({longest, *more})), cycles
    cell = st.sampled_from(symbols + WILDCARD)
    patterns = []
    for _ in range(draw(st.integers(1, 4))):
        w, h = draw(st.integers(1, 2)), draw(st.integers(1, 3))
        patterns.append(Pattern2D(w, h, tuple(draw(cell) for _ in range(w * h))))
    return H, tuple(patterns), cycles


def eager_block_graph(H, constraint, cycles):
    """(width, succ): the block graph of the eager search.  Its nodes are
    the blocks of mv rows whose every prefix is valid, with an edge for each
    row that goes on a block and keeps the top mv rows.  A cycle of n edges
    is an n-periodic stack of rows, so a torus of height n.

    The width is the one the decision takes: from the component types for a
    column SFT, from the period and the widest pattern otherwise.  The rows
    are found by brute force: every word of that width over H's symbols that
    repeats into a legal H-word, grown one symbol at a time through the
    locally admissible words (the plain product has 7^12 words on a 3-cycle
    and a 4-cycle)."""
    if isinstance(constraint, Sft1D):
        g = build_rauzy(H)
        kind = check_condition_d(g).common_type
        if kind == "reflexive":
            width = 1
        elif kind == "symmetric":
            width = 2
        else:
            width = lcm(*(len(scc_types(g.subgraph(c)).state_split_partition) for c in g.sccs()))
        mv = max(map(len, constraint.forbidden))
        patterns = ()
    else:
        period = lcm(*map(len, cycles))
        width = period * -(-max(q.width for q in constraint) // period)
        mv = max(q.height for q in constraint)
        patterns = constraint
    rows = [()]
    for _ in range(width):
        rows = [r + (s,) for r in rows for s in H.alphabet.symbols if H.word_locally_admissible(r + (s,))]
    rows = [r for r in rows if H.word_locally_admissible(r * (H.order + 2))]

    def ok(block):
        """The top row's column words of at most mv rows, and the patterns
        whose top is the top row, wrapping horizontally."""
        h = len(block)
        pat = Pattern2D.from_rows(block)
        if patterns:
            return not any(
                q.height <= h and q.matches_at(pat, i, h - q.height, wrap=True)
                for q in patterns
                for i in range(width)
            )
        top = block[max(0, h - mv) :]
        return all(constraint.word_locally_admissible(tuple(r[i] for r in top)) for i in range(width))

    blocks = {
        b for b in product(rows, repeat=mv) if all(ok(b[: j + 1]) for j in range(mv))
    }
    return width, {b: {b[1:] + (r,) for r in rows if ok(b + (r,))} & blocks for b in blocks}


def eager_block_verdict(H, constraint, cycles):
    """"nonempty" when the eager block graph has a cycle anywhere."""
    _, succ = eager_block_graph(H, constraint, cycles)
    # peel blocks without successors; a cycle is what remains
    while True:
        sinks = {b for b, out in succ.items() if not out}
        if not sinks:
            return "nonempty" if succ else "empty"
        succ = {b: out - sinks for b, out in succ.items() if b not in sinks}


def shortest_cycle_length(succ):
    """The fewest edges of a cycle of the graph ``succ`` (a dict of successor
    sets), by breadth-first search from each node back to itself; None when
    it has no cycle."""
    best = None
    for first in succ:
        seen, level, n = {first}, [first], 0
        while level and (best is None or n < best):
            n += 1
            if any(first in succ[u] for u in level):
                best = n
                break
            nxt = []
            for u in level:
                nxt += succ[u] - seen
                seen |= succ[u]
            level = nxt
    return best


class TestDecideDifferential:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(decision_cases())
    def test_matches_eager_block_graph(self, case):
        H, constraint, cycles = case
        vertical = isinstance(constraint, Sft1D)
        out = decide_with_certificate(H, constraint)
        assert out.status == eager_block_verdict(H, constraint, cycles)
        if out.nonempty:
            assert validate_torus(
                H, constraint if vertical else None, out.witness.pattern, () if vertical else constraint
            )
            # the witness is the lowest torus of the decision's width
            width, succ = eager_block_graph(H, constraint, cycles)
            assert (out.witness.width, out.witness.height) == (width, shortest_cycle_length(succ))
        assert decide_with_certificate(H, constraint, budget=0).status == "unknown"
