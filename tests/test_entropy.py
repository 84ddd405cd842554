import importlib.util
import random
import sys
from itertools import product
from fractions import Fraction
from math import comb, inf, log2, nextafter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sftkit.core import (
    NotStateSplit,
    NotTransitive,
    Sft1D,
    WangTile,
    WangTileSet,
    build_rauzy,
    free_tile_set,
    full_shift,
    sft_from_edges,
)
from sftkit.classify import check_condition_d
from sftkit.cycles import find_cycle_pair
from sftkit.compiler import compile_wang
from sftkit.solve import count_rectangles
from sftkit.entropy import (
    RealizationPlan,
    _RowTable,
    _exact_bracket,
    _payload_count,
    _row_count,
    _spectral_radius,
    bezout_rank,
    build_realization,
    count_realization,
    entropy_1d,
    entropy_bounds_2d,
    entropy_words,
    ntilde_count,
    realization_sandwich,
    root_entropy_check,
    sft_with_loops,
    statesplit_entropy,
)

from conftest import numpy_radius

GOLDEN_ENTROPY = log2((1 + 5 ** 0.5) / 2)


def _load_oracles():
    """perfbench/oracles.py, which computes its references without sftkit."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ORACLES = _load_oracles()
PERRON = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def perron_digraphs(draw):
    """Successor lists made of blocks: plain cycles, periodic components
    (complete between consecutive levels of a ring), random digraphs with
    self-loops and parallel edges, and transient vertices; edges between
    blocks only go forward, so each block keeps its own components.  The
    numbering is permuted."""
    edges = []
    n = 0
    for kind in draw(st.lists(st.sampled_from(["cycle", "periodic", "random", "transient"]), min_size=1, max_size=4)):
        if kind == "cycle":
            k = draw(st.integers(1, 5))
            edges += [(n + i, n + (i + 1) % k) for i in range(k)]
        elif kind == "periodic":
            sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
            starts = [n + sum(sizes[:i]) for i in range(len(sizes))]
            for i, (s, size) in enumerate(zip(starts, sizes)):
                j = (i + 1) % len(sizes)
                edges += [(u, v) for u in range(s, s + size) for v in range(starts[j], starts[j] + sizes[j])]
            k = sum(sizes)
        elif kind == "random":
            k = draw(st.integers(1, 5))
            pair = st.tuples(st.integers(n, n + k - 1), st.integers(n, n + k - 1))
            edges += draw(st.lists(pair, max_size=12))
        else:
            k = 1
        if n:
            into = st.tuples(st.integers(0, n - 1), st.integers(n, n + k - 1))
            edges += draw(st.lists(into, max_size=3))
        n += k
    perm = draw(st.permutations(range(n)))
    succ = [[] for _ in range(n)]
    for u, v in edges:
        succ[perm[u]].append(perm[v])
    return succ


class TestEntropy1D:
    def test_full_shift_exact(self):
        assert entropy_1d(full_shift("01")).log2_value == pytest.approx(1.0, abs=1e-12)

    def test_golden_closed_form(self, golden):
        assert entropy_1d(golden).log2_value == pytest.approx(GOLDEN_ENTROPY, abs=1e-9)

    def test_plain_cycle_zero(self):
        cyc = sft_from_edges("xyz", [("x", "y"), ("y", "z"), ("z", "x")])
        r = entropy_1d(cyc)
        assert r.bracket == (1.0, 1.0)
        assert r.log2_value == 0.0

    def test_multi_component(self):
        # two components: a full 2-shift block and a single loop
        H = sft_from_edges("abc", [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"), ("c", "c"), ("b", "c")])
        assert entropy_1d(H).log2_value == pytest.approx(1.0, abs=1e-9)


    def test_tol_below_float_precision_is_rejected(self, golden):
        # 4 float epsilons is the smallest tol; below it the float ratios
        # could never agree and all max_iter steps would run
        for tol in (1e-16, 3.9 * sys.float_info.epsilon, 0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="tol"):
                entropy_1d(golden, tol)
        for tol in (1e-15, 4 * sys.float_info.epsilon):
            lo, hi = entropy_1d(golden, tol).bracket
            assert lo <= hi and hi - lo <= tol * hi

    def test_unconverged_iteration_fails_loudly(self):
        # RLL(20, 21): between two 1s lie 20 or 21 0s; ten steps of power
        # iteration leave the bracket far wider than tol
        rll = Sft1D.from_words("01", *ORACLES.rll_forbidden(20, 21))
        with pytest.raises(RuntimeError, match=r"bracket .* wider than tol .* after 10 iterations"):
            entropy_1d(rll, max_iter=10)
        lo, hi = entropy_1d(rll).bracket
        assert hi - lo <= 1e-10 * hi

    @pytest.mark.parametrize("d", [20, 40, 80, 200])
    def test_rll_capacity_in_bracket(self, d):
        # the capacity of RLL(d, d + 1) is log2 of the largest root of
        # x^(k+2) - x^(k+1) - x^(k+1-d) + 1; the slack covers the float
        # bisection of the reference
        rll = Sft1D.from_words("01", *ORACLES.rll_forbidden(d, d + 1))
        r = entropy_1d(rll)
        lo, hi = r.bracket
        cap = ORACLES.rll_capacity(d, d + 1)
        assert hi - lo <= 1e-10 * hi
        assert log2(lo) - 1e-13 <= cap <= log2(hi) + 1e-13
        assert lo <= r.eigenvalue <= hi

    @PERRON
    @given(perron_digraphs())
    def test_bracket_contains_numpy_radius(self, succ):
        tol = 1e-10
        value, (lo, hi), _ = _spectral_radius(succ, tol)
        rho = numpy_radius(succ)
        assert lo <= value <= hi
        assert hi - lo <= tol * hi
        # numpy's eigenvalues carry rounding error of their own
        assert lo <= rho * (1 + 1e-12) and rho * (1 - 1e-12) <= hi

    @PERRON
    @given(st.lists(st.floats(1e-300, 1.0), min_size=1, max_size=8).flatmap(
        lambda x: st.tuples(st.just(x), st.lists(st.lists(st.integers(0, len(x) - 1), max_size=4), min_size=len(x), max_size=len(x)))
    ))
    def test_exact_bracket_rounds_outward(self, case):
        # each end is the float next to the exact min or max ratio, on its outer side
        x, rows = case
        lo, hi = _exact_bracket(np.array(x), lambda xs: [sum(xs[j] for j in row) for row in rows])
        ratios = [sum(Fraction(x[j]) for j in row) / Fraction(x[i]) for i, row in enumerate(rows)]
        assert Fraction(lo) <= min(ratios) < Fraction(nextafter(lo, inf))
        assert Fraction(nextafter(hi, -inf)) < max(ratios) <= Fraction(hi)


class TestBounds2D:
    def test_full_times_full(self, full2):
        b = entropy_bounds_2d(full2, full2, 4)
        assert all(v == pytest.approx(1.0) for _, v in b.samples)
        assert b.upper == pytest.approx(1.0)

    def test_full_shift_column_trend(self, full2, golden):
        b = entropy_bounds_2d(full2, golden, 5)
        from sftkit.core import language_count

        for n, v in b.samples:
            assert v == pytest.approx(log2(language_count(golden, n)) / n)

    def test_hard_square_bounds(self, golden):
        b = entropy_bounds_2d(golden, golden, 6)
        # the eigenvalue bounds decrease and stay above the true entropy
        uppers = [v for _, v in b.strip_upper]
        assert all(uppers[i] >= uppers[i + 1] for i in range(len(uppers) - 1))
        assert all(u >= 0.5878 for u in uppers)
        # successive-ratio refinement drops below 0.6 at height 6
        lam = {h: 2 ** (v * h) for h, v in b.strip_upper}
        ratio6 = log2(lam[6] / lam[5])
        assert ratio6 < 0.6
        assert b.strip_upper[5][1] == pytest.approx(0.6040, abs=5e-4)

    def test_strip_uppers_dominate_samples_limit(self, golden):
        # both sequences bound the true entropy from above; at finite sizes
        # they are only consistent up to a small tolerance
        b = entropy_bounds_2d(golden, golden, 5)
        assert all(v >= b.upper - 0.03 for _, v in b.strip_upper)


class TestAspect:
    def test_two_by_one(self, golden):
        # a 2n x 2n window is two 2n x n windows, one of those two n x n ones
        for n in (1, 2, 3):
            big = count_rectangles(golden, golden, 2 * n, 2 * n)
            mid = count_rectangles(golden, golden, 2 * n, n)
            small = count_rectangles(golden, golden, n, n)
            assert big <= mid ** 2 and mid <= small ** 2

    def test_full_shift_equalities(self, full2):
        for n in (1, 2):
            assert count_rectangles(full2, None, 2 * n, 2 * n) == 2 ** (4 * n * n)
            assert count_rectangles(full2, None, n, 2 * n) == 2 ** (2 * n * n)
            assert count_rectangles(full2, None, n, n) == 2 ** (n * n)


def dp_rank_oracle(cs):
    """Independent rank computation: direct reachability DP on multiples."""
    from math import gcd

    m = 0
    for c in cs:
        m = gcd(m, c)
    limit = (max(cs) ** 2) * 2 + sum(cs) + 2 * m
    reach = set()
    frontier = {0}
    # positive combinations: start from each c_i once, then extend
    reachable = [False] * (limit + 1)
    base = [False] * (limit + 1)
    base[0] = True
    for t in range(1, limit + 1):
        base[t] = any(t >= c and base[t - c] for c in cs)
    shift = sum(cs)
    ok = lambda n: n * m >= shift and base[n * m - shift]
    last_bad = 0
    for n in range(1, (limit - shift) // m + 1):
        if not ok(n):
            last_bad = n
    return m, last_bad + 1


class TestBezout:
    def test_three_five(self):
        m, rank, bound = bezout_rank([3, 5])
        assert (m, rank) == (1, 16)
        assert rank <= bound

    def test_singleton(self):
        assert bezout_rank([1])[:2] == (1, 1)

    def test_two_four(self):
        assert bezout_rank([2, 4])[:2] == (2, 3)

    def test_allow_zero_variant(self):
        m, rank, _ = bezout_rank([3, 5], allow_zero=True)
        assert (m, rank) == (1, 8)  # Frobenius number 7, all n >= 8 reachable

    def test_random_against_dp_oracle_and_bound(self):
        rng = random.Random(8128)
        for _ in range(100):
            cs = [rng.randint(1, 12) for _ in range(rng.randint(1, 4))]
            m, rank, bound = bezout_rank(cs)
            om, orank = dp_rank_oracle(cs)
            assert (m, rank) == (om, orank), cs
            assert rank <= max(bound, 1), cs


class TestEntropyWords:
    def test_golden_k1(self, golden):
        u, w1, w2, alpha = entropy_words(golden, k=1)
        assert alpha == 13
        assert len(u) == len(w1) == len(w2) == 13
        assert u != w1 != w2

    def test_golden_k3_longer_and_higher_entropy(self, golden):
        u1 = entropy_words(golden, k=1)[0]
        u3, _, _, alpha3 = entropy_words(golden, k=3)
        assert alpha3 == 15
        h1 = entropy_1d(Sft1D(golden.alphabet, golden.forbidden | {u1}))
        h3 = entropy_1d(Sft1D(golden.alphabet, golden.forbidden | {u3}))
        assert h3.log2_value > h1.log2_value

    def test_forbidding_u_lowers_entropy(self, golden):
        u = entropy_words(golden, k=1)[0]
        hu = entropy_1d(Sft1D(golden.alphabet, golden.forbidden | {u}))
        assert 0 < hu.log2_value < GOLDEN_ENTROPY

    def test_not_transitive(self):
        H = sft_from_edges("abc", [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"), ("b", "c"), ("c", "c")])
        with pytest.raises(NotTransitive):
            entropy_words(H)


class TestNtilde:
    def test_short_windows_vacuous_avoidance(self, golden):
        u, w1, _, alpha = entropy_words(golden, k=1)
        for n in (1, 2, 3):
            brute = 0
            for v in product("01", repeat=n):
                if golden.word_locally_admissible(w1 + v + u):
                    brute += 1
            assert ntilde_count(golden, u, w1, n) == brute

    def test_alpha_window_brute(self, golden):
        u, w1, _, alpha = entropy_words(golden, k=1)
        brute = 0
        for v in product("01", repeat=alpha):
            contains = any(v[i : i + alpha] == u for i in range(1))
            if v != u and golden.word_locally_admissible(w1 + v + u):
                brute += 1
        assert ntilde_count(golden, u, w1, alpha) == brute

    def test_convergence_to_hu(self, golden):
        u, w1, _, alpha = entropy_words(golden, k=1)
        hu = entropy_1d(Sft1D(golden.alphabet, golden.forbidden | {u})).log2_value
        n = 8
        val = ntilde_count(golden, u, w1, n * alpha)
        assert abs(log2(val) / (n * alpha) - hu) < 0.05


@pytest.fixture(scope="module")
def golden_plan(golden):
    u, w1, w2, alpha = entropy_words(golden, k=1)
    return RealizationPlan(golden, u, w1, w2, q=1, r=2, R=1, payload=free_tile_set(2))


class TestRealization:
    def test_plan_validates(self, golden_plan):
        system = build_realization(golden_plan)
        assert system.plan.period == 39

    def test_monotile_payload_collapses_codes(self, golden):
        u, w1, w2, alpha = entropy_words(golden, k=1)
        plan = RealizationPlan(golden, u, w1, w2, q=1, r=2, R=1, payload=free_tile_set(1))
        system = build_realization(plan)
        n = plan.period
        free_bits = count_realization(build_realization(
            RealizationPlan(golden, u, w1, w2, q=1, r=2, R=1, payload=free_tile_set(2))
        ), 2 * n, 1)
        mono = count_realization(system, 2 * n, 1)
        assert mono < free_bits  # the single choice removes code entropy

    def test_plan_invalid(self, golden):
        from sftkit.core import PlanInvalid

        u, w1, w2, alpha = entropy_words(golden, k=1)
        with pytest.raises(PlanInvalid):
            RealizationPlan(golden, u, w1, w2, q=1, r=1, R=1, payload=free_tile_set(2)).validate()
        with pytest.raises(PlanInvalid):
            RealizationPlan(golden, u, w1, w2, q=1, r=3, R=1, payload=free_tile_set(4)).validate()

    def test_sandwich_exact(self, golden_plan):
        system = build_realization(golden_plan)
        for k in (2, 3):
            rep = realization_sandwich(system, k)
            assert rep["lower"] <= rep["count"] <= rep["upper"]

    def test_sample_entropy_near_target(self, golden, golden_plan):
        system = build_realization(golden_plan)
        plan = golden_plan
        nt = ntilde_count(golden, plan.u, plan.w1, plan.q * plan.alpha)
        target = log2(nt) / plan.period + 1.0 / plan.period
        rep = realization_sandwich(system, 3)
        assert abs(rep["sample_entropy"] - target) < 0.05


@st.composite
def small_tile_sets(draw):
    """1-3 tiles, each edge coloured a or b."""
    colours = st.sampled_from("ab")
    n = draw(st.integers(1, 3))
    return WangTileSet(tuple(WangTile(*(draw(colours) for _ in range(4)), name=f"t{i}") for i in range(n)))


def brute_payload_count(tiles, a, b):
    """Locally valid a x b grids, grid[x][y] with y upward, by enumeration."""
    ts = tiles.tiles
    total = 0
    for flat in product(range(len(ts)), repeat=a * b):
        g = [flat[x * b : (x + 1) * b] for x in range(a)]
        total += all(ts[g[x][y]].e == ts[g[x + 1][y]].w for x in range(a - 1) for y in range(b)) and all(
            ts[g[x][y]].n == ts[g[x][y + 1]].s for x in range(a) for y in range(b - 1)
        )
    return total


class TestPayloadCount:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(small_tile_sets(), st.integers(0, 3), st.integers(0, 3))
    def test_matches_brute_force_in_both_orientations(self, tiles, a, b):
        expected = brute_payload_count(tiles, a, b)
        # the transposed set swaps the horizontal and vertical colours
        transposed = WangTileSet(tuple(WangTile(t.n, t.s, t.e, t.w, t.name) for t in tiles.tiles))
        assert _payload_count(tiles, a, b) == expected
        assert _payload_count(transposed, b, a) == expected

    @pytest.mark.parametrize("n, a, b", [(3, 8, 8), (2, 6, 9), (3, 1, 12), (2, 12, 1), (3, 5, 0), (1, 7, 7)])
    def test_free_sets_give_every_grid(self, n, a, b):
        assert _payload_count(free_tile_set(n), a, b) == n ** (a * b)


def window_oracle(plan, width, phase):
    """Distinct width-``width`` windows at the phase, from rows built
    explicitly: per period the marker, the R code blocks of one payload
    tile, the w1 filler and a locally admissible free word; a window counts
    when it is locally admissible and u occurs in it only at the marker
    grid.

    In the SFTs used here a 0 may stand next to anything, so every locally
    admissible word is in the language, and the cells of a free word
    outside the window can be 0: filtering the free words loses no window.
    """
    H, u, alpha, n, R = plan.H, plan.u, plan.alpha, plan.period, plan.R
    free = [v for v in product(H.alphabet.symbols, repeat=plan.q * alpha) if H.word_locally_admissible(v)]
    codes = []
    for t in range(plan.payload.N):
        bits = [(t >> (R - 1 - i)) & 1 for i in range(R)]
        codes.append(tuple(x for bit in bits for x in (plan.w1, plan.w2)[bit]))
    filler = plan.w1 * (plan.r - plan.R - 1)
    shift = -phase % n
    seen = set()
    for picks in product(product(codes, free), repeat=-(-(shift + width) // n)):
        row = tuple(x for code, v in picks for x in u + code + filler + v)
        window = row[shift : shift + width]
        starts = [i for i in range(width - alpha + 1) if window[i : i + alpha] == u]
        if H.word_locally_admissible(window) and all((i - phase) % n == 0 for i in starts):
            seen.add(window)
    return len(seen)


NO_111 = ("01", "111")  # order 2, so rows start in prefix states
SMALL_PLANS = [
    # (alphabet and forbidden words of H, u, w1, w2, payload N, R, r)
    (("01", "11"), "101", "001", "000", 3, 2, 4),
    (("01", "11"), "101", "001", "000", 2, 2, 3),
    (("01", "11"), "101", "001", "000", 1, 1, 2),
    (NO_111, "011", "000", "001", 3, 2, 3),
    (NO_111, "000", "100", "101", 3, 2, 3),
    (NO_111, "000", "100", "101", 2, 1, 2),
    # at phase 6 a code group cut off by the window's right end reads 11,
    # which addresses no tile of 3
    (NO_111, "000", "100", "110", 3, 2, 3),
]


@pytest.fixture(scope="module")
def free3_plan(golden):
    u, w1, w2, alpha = entropy_words(golden, k=1)
    return RealizationPlan(golden, u, w1, w2, q=1, r=3, R=2, payload=free_tile_set(3))


class TestRowCounts:
    @pytest.mark.parametrize("h, u, w1, w2, N, R, r", SMALL_PLANS)
    def test_every_phase_matches_window_enumeration(self, h, u, w1, w2, N, R, r):
        plan = RealizationPlan(Sft1D.from_words(*h), tuple(u), tuple(w1), tuple(w2), 1, r, R, free_tile_set(N))
        system = build_realization(plan)
        width = plan.period + plan.alpha - 1
        table = _RowTable(system)
        counts = [_row_count(table, width, phase) for phase in range(plan.period)]
        assert counts == [window_oracle(plan, width, phase) for phase in range(plan.period)]
        assert count_realization(system, width, 2) == sum(c * c for c in counts)

    # the golden literals were computed before the row automaton and the
    # transfer payload count; the free-3 ones once a cut-off code group had
    # to address a tile (N = 3 < 2^R, so some groups address none)
    def test_pinned_counts(self, golden, golden_plan, free3_plan):
        golden2 = build_realization(golden_plan)
        assert count_realization(golden2, 2 * 39, 2) == 12797389641472
        assert count_realization(golden2, 3 * 39, 3) == 2804800768633853801524101120
        assert count_realization(build_realization(free3_plan), 2 * 52, 2) == 97746037164144
        for plan in (golden_plan, free3_plan):
            assert ntilde_count(golden, plan.u, plan.w1, plan.alpha) == 376

    def test_free3_sandwich_at_k3(self, free3_plan, monkeypatch):
        import sftkit.entropy

        system = build_realization(free3_plan)
        builds = []
        real = sftkit.entropy.build_rauzy
        monkeypatch.setattr(sftkit.entropy, "build_rauzy", lambda *a: builds.append(a) or real(*a))
        rep = realization_sandwich(system, 3)
        assert len(builds) == 1  # one row automaton serves every phase and the free windows
        assert rep["ok"] and rep["count"] == 173708848910478800688428814336
        assert rep["lower"] == 2059940128316719104
        assert rep["upper"] == 4243353332249501167367921614838562816
        realization_sandwich(system, 2)
        assert len(builds) == 1


class TestRootEntropy:
    def test_full_shift_root_of_itself(self, full2):
        from sftkit.compiler import RootCertificate

        cert = RootCertificate(1, 1, "identity")
        count = lambda w, h: count_rectangles(full2, None, w, h)
        rep = root_entropy_check(cert, count, count, 2, [1, 2, 3], r=0, r_prime=0)
        assert rep["ok"]
        for row in rep["rows"]:
            assert row["ratio"] == pytest.approx(1.0)

    def test_monotile_root_zero_entropy(self, coding_sft):
        pair, _ = find_cycle_pair(build_rauzy(coding_sft))
        pres, cert = compile_wang(coding_sft, free_tile_set(1), pair)
        x_count = lambda w, h: count_rectangles(coding_sft, pres, w, h)
        y_count = lambda w, h: 1
        rep = root_entropy_check(cert, x_count, y_count, 3, [1])
        assert rep["ok"]

    def test_compiled_ratio_trend(self, coding_sft):
        pair, _ = find_cycle_pair(build_rauzy(coding_sft))
        tiles = free_tile_set(2)
        pres, cert = compile_wang(coding_sft, tiles, pair)
        x_count = lambda w, h: count_rectangles(coding_sft, pres, w, h)
        y_count = lambda a, b: 2 ** (a * b)
        rep = root_entropy_check(cert, x_count, y_count, 3, [1, 2])
        assert rep["ok"]
        ratios = [row["ratio"] for row in rep["rows"]]
        # the per-cell entropy ratio grows toward m*n
        assert ratios[0] < ratios[1] <= rep["mn"]


class TestStateSplit:
    def test_degenerate_full_shift(self, full2):
        golden_cols = Sft1D.from_words("01", "11")
        rep = statesplit_entropy(full2, golden_cols, 4)
        assert rep["p"] == 1
        from sftkit.core import language_count

        assert rep["term"] == pytest.approx(log2(language_count(golden_cols, 4)) / 4)

    def test_identity_p2_two_columns(self):
        ss = sft_from_edges("ab", [("a", "b"), ("b", "a")])
        for V in (Sft1D.from_words("ab", "bb"), Sft1D.from_words("ab", "aba")):
            for n in range(1, 4):
                rep = statesplit_entropy(ss, V, n)
                assert rep["p"] == 2
                for m in range(1, 4):
                    assert rep["lhs"](m) == rep["rhs"](m)

    def test_term_below_samples(self):
        ss = sft_from_edges("ab", [("a", "b"), ("b", "a")])
        V = full_shift("ab")
        terms = [statesplit_entropy(ss, V, n)["term"] for n in (1, 2, 3)]
        b = entropy_bounds_2d(ss, V, 4)
        assert all(t <= b.strip_upper[-1][1] + 1e-9 for t in terms)

    def test_two_symbol_classes_term_trend(self):
        # classes {a,b} <-> {c,d} with complete class edges; the lower-bound
        # terms are nondecreasing and meet the strip bounds
        H = sft_from_edges(
            "abcd",
            [(x, y) for x in "ab" for y in "cd"] + [(y, x) for y in "cd" for x in "ab"],
        )
        V = Sft1D.from_words("abcd", "ac", "ca", "bdb")
        terms = [statesplit_entropy(H, V, n)["term"] for n in range(1, 6)]
        assert all(terms[i] <= terms[i + 1] + 1e-9 for i in range(len(terms) - 1))
        b = entropy_bounds_2d(H, V, 4)
        assert all(t <= b.strip_upper[-1][1] + 1e-9 for t in terms)
        for n in range(1, 4):
            rep = statesplit_entropy(H, V, n)
            assert rep["p"] == 2
            for m in range(1, 4):
                assert rep["lhs"](m) == rep["rhs"](m)

    def test_not_state_split(self, golden):
        with pytest.raises(NotStateSplit):
            statesplit_entropy(golden, full_shift("01"), 2)


class TestAddLoops:
    def test_reflexive_unchanged(self):
        reflexive = sft_from_edges("abc", ["ab", "bc", "ca", "cb", "aa", "bb", "cc"])
        assert sft_with_loops(reflexive) == reflexive

    def test_golden_becomes_full(self, golden):
        full = sft_with_loops(golden)
        assert full.forbidden == frozenset()

    def test_cycle_becomes_decidable(self):
        cyc = sft_from_edges("xyz", [("x", "y"), ("y", "z"), ("z", "x")])
        looped = build_rauzy(sft_with_loops(cyc))
        v = check_condition_d(looped)
        assert v.holds and v.common_type == "reflexive"

    def test_counting_bounds_on_compiled_instance(self, coding_sft):
        pair, _ = find_cycle_pair(build_rauzy(coding_sft))
        pres, _ = compile_wang(coding_sft, free_tile_set(2), pair)
        loopy = sft_with_loops(coding_sft)
        for n in range(1, 5):
            nx = count_rectangles(coding_sft, pres, n, n)
            nxt = count_rectangles(loopy, pres, n, n)
            assert nx <= nxt <= comb(2 * n, n + 1) * nx
