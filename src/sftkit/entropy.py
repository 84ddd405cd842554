"""Entropy computation and entropy-realization machinery.

1D entropies are log2 of the transfer spectral radius; 2D entropies are
bracketed by exact square counts and strip eigenvalue bounds.  The
realization system pins a marker word u with a fixed horizontal period on
every row, aligned vertically, followed by code blocks from two
interchangeable words w1/w2 that carry a Wang tile payload; the remaining
free windows contribute the tunable entropy term.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from math import gcd, inf, lcm, log2, nextafter

import numpy as np

from .core import (
    NotStateSplit,
    NotTransitive,
    PlanInvalid,
    Sft1D,
    WangTileSet,
    ZeroEntropy,
    build_rauzy,
    sft_from_edges,
    strong_components,
    word_in_language,
)
from .classify import scc_types
from .compiler import _first_return_paths, _labels
from .solve import _global_words, count_rectangles, StripAutomaton


# ---------------------------------------------------------------------------
# 1D entropy


@dataclass(frozen=True)
class PerronResult:
    log2_value: float
    eigenvalue: float
    bracket: tuple  # (lo, hi): certified bounds, lo <= eigenvalue <= hi
    iterations: int


def _digraph_spectral_radius(g, tol=1e-12, max_iter=10**6):
    """Spectral radius of the adjacency matrix of a Digraph, as (value,
    (lo, hi), iters); see ``_spectral_radius``."""
    return _spectral_radius(g.index.succ, tol, max_iter)


def _spectral_radius(succ, tol=1e-12, max_iter=10**6):
    """Spectral radius rho of the graph with successor lists ``succ`` (a
    repeated index is a parallel edge), as (value, (lo, hi), iters).

    ``lo <= rho <= hi`` is certified in exact arithmetic, ``hi - lo <= tol *
    hi``, and ``value`` is the midpoint.  Each nontrivial strongly connected
    component gets its own bracket (``_perron_bracket``); rho is the largest
    component radius, so each end of the graph's bracket is the largest end
    among the components.  Raises RuntimeError when ``max_iter`` steps do not
    certify a component.
    """
    lo = hi = 0.0
    iters = 0
    for comp in strong_components(succ):
        if len(comp) == 1 and comp[0] not in succ[comp[0]]:
            continue  # transient vertex contributes nothing
        c_lo, c_hi, steps = _perron_bracket(succ, comp, tol, max_iter)
        iters += steps
        lo, hi = max(lo, c_lo), max(hi, c_hi)
    return (lo + hi) / 2, (lo, hi), iters


# After k squarings P is proportional to (A + I)^(2^k), which resolves any
# spectral gap above 2^-50 to double precision once k reaches 56; further
# squarings only cost n^3 each.
_MAX_SQUARINGS = 60


def _perron_bracket(succ, comp, tol, max_iter):
    """Certified (lo, hi, steps) around the spectral radius of the irreducible
    component ``comp`` of ``succ``.

    Power iteration on B = A + I from x = 1 (the shift makes periodic
    components primitive).  Once the steps outnumber the component's states,
    each step also squares a normalised power P of B and applies it, so a
    small spectral gap costs O(n^3 log steps) rather than O(n^4).  When the
    float ratios (Ax)_i / x_i agree to ``tol``, ``_exact_bracket`` recomputes
    their min and max exactly.
    """
    n = len(comp)
    pos = {v: i for i, v in enumerate(comp)}
    rows = [[pos[v] for v in succ[u] if v in pos] for u in comp]
    a = np.empty((n, n))
    for i, row in enumerate(rows):
        a[i] = np.bincount(row, minlength=n)
    x = np.ones(n)
    p = None
    squarings = 0
    next_check = 0
    lo, hi = 0.0, inf
    for steps in range(1, max_iter + 1):
        ax = a @ x
        ratios = ax / x
        lo, hi = float(ratios.min()), float(ratios.max())
        if hi - lo <= tol * hi and steps >= next_check:
            c_lo, c_hi = _exact_bracket(x, lambda xs: [sum(map(xs.__getitem__, row)) for row in rows])
            if c_hi - c_lo <= tol * c_hi:
                return c_lo, c_hi, steps
            next_check = 2 * steps  # the float ratios are too coarse yet
        y = ax + x
        if steps > n and squarings < _MAX_SQUARINGS:
            if p is None:
                p = a.copy()
                p.flat[:: n + 1] += 1.0
            else:
                p = p @ p
                p /= p.max()
            squarings += 1
            y = p @ y
        x = y / y.max()
    raise RuntimeError(
        f"power iteration did not certify the spectral radius: float bracket "
        f"[{lo!r}, {hi!r}] wider than tol {tol:g} after {max_iter} iterations "
        f"on a component of {n} states"
    )


def _exact_bracket(x, image):
    """Floats (lo, hi) around the min and max of (Ax)_i / x_i.

    For positive x these bracket the spectral radius of any nonnegative A
    (Collatz–Wielandt).  Each x_i is a dyadic rational, so scaling by the
    largest denominator makes x an integer vector xs.  ``image(xs)`` returns
    A xs as ints (a sum over successor rows, or a sweep through a strip's
    row layers), so the comparisons are exact, and the float ends are
    rounded outward.
    """
    fracs = [v.as_integer_ratio() for v in x.tolist()]
    shift = max(d for _, d in fracs).bit_length()
    xs = [m << (shift - d.bit_length()) for m, d in fracs]
    lo_n, lo_d, hi_n, hi_d = 1, 0, 0, 1  # lo = +inf, hi = 0
    for xi, s in zip(xs, image(xs)):
        if s * lo_d < lo_n * xi:
            lo_n, lo_d = s, xi
        if s * hi_d > hi_n * xi:
            hi_n, hi_d = s, xi
    lo, hi = lo_n / lo_d, hi_n / hi_d  # correctly rounded
    if _float_minus(lo, lo_n, lo_d) > 0:
        lo = nextafter(lo, -inf)
    if _float_minus(hi, hi_n, hi_d) < 0:
        hi = nextafter(hi, inf)
    return lo, hi


def _float_minus(f, num, den):
    """An int with the sign of f - num / den, for den > 0."""
    a, b = f.as_integer_ratio()
    return a * den - num * b


_TOL_MIN = 4 * sys.float_info.epsilon


def entropy_1d(H, tol=1e-10, max_iter=10**6):
    """log2 of the spectral radius of the pruned Rauzy adjacency matrix.

    ``bracket`` holds certified bounds on the spectral radius whose relative
    width is at most ``tol``.  Raises ValueError when ``tol`` is below
    4 * sys.float_info.epsilon, and RuntimeError when power iteration does
    not reach that width in ``max_iter`` steps on a component.
    """
    # float ratios cannot agree to a few ulps, so a smaller tol would run all
    # max_iter steps before failing; the check also rejects nan
    if not tol >= _TOL_MIN:
        raise ValueError(f"tol must be at least {_TOL_MIN:.3g} (four float epsilons)")
    g = build_rauzy(H)  # raises EmptyLanguage
    val, bracket, iters = _digraph_spectral_radius(g, tol, max_iter)
    return PerronResult(_log2(val), val, bracket, iters)


def _log2(v):
    return log2(v) if v > 0 else -inf


# ---------------------------------------------------------------------------
# 2D bounds


@dataclass(frozen=True)
class EntropyBounds:
    samples: tuple  # (n, log2 N(n,n) / n^2)
    upper: float  # running infimum over the samples
    strip_upper: tuple  # (h, log2(hi_h) / h), hi_h the certified upper end for lambda_h

    def to_json(self):
        return {
            "samples": [[n, v] for n, v in self.samples],
            "upper": self.upper,
            "strip_upper": [[h, v] for h, v in self.strip_upper],
        }


def entropy_bounds_2d(H, V, bound, budget=None):
    """Square-count samples plus strip-eigenvalue upper bounds for each
    height h <= bound, each from the upper end of the strip's certified
    spectral-radius bracket.  The strip of height n counts the n x n
    square and gives the bound at n; the samples stop at the first zero
    count."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    samples = []
    upper = inf
    strip = []
    for n in range(1, bound + 1):
        sa = StripAutomaton.build(H, V, n, budget)
        if upper > -inf:
            c = sa.count_width(n)
            v = log2(c) / (n * n) if c else -inf
            samples.append((n, v))
            upper = min(upper, v)
        strip.append((n, _log2(sa.spectral_radius()[1][1]) / n))
    return EntropyBounds(tuple(samples), upper, tuple(strip))


# ---------------------------------------------------------------------------
# Bezout rank


def bezout_rank(cs, allow_zero=False):
    """(gcd m, least rank N such that n*m is a positive combination for all
    n >= N), computed exactly by sieving; also returns the crude sufficient
    bound 2*(c/m)^2*max|z_i| from the Bezout certificate.

    With ``allow_zero`` the combination coefficients may be zero.
    """
    cs = [int(c) for c in cs]
    if not cs or any(c <= 0 for c in cs):
        raise ValueError("need positive integers")
    m = 0
    for c in cs:
        m = gcd(m, c)
    scaled = sorted(set(c // m for c in cs))
    shift = 0 if allow_zero else sum(c // m for c in cs)
    # sieve the values sum k_i * scaled_i with k_i >= 0; once a run of
    # min(scaled) consecutive values is reachable, everything beyond is
    mn = min(scaled)
    limit = max(scaled) ** 2 + shift + mn + 2
    while True:
        reach = [False] * (limit + 1)
        reach[0] = True
        for t in range(1, limit + 1):
            reach[t] = any(t >= c and reach[t - c] for c in scaled)
        if mn == 1 or all(reach[limit - d] for d in range(mn)):
            break
        limit *= 2  # certified-complete tail not reached yet
    last_fail = 0
    for n in range(1, shift + limit - mn + 1):
        t = n - shift
        if t < 0 or not reach[t]:
            last_fail = n
    rank = last_fail + 1

    # certificate bound from iterated extended gcd
    zs = _bezout_coefficients(cs)
    csum = sum(cs)
    bound = 2 * (csum * csum) // (m * m) * max(abs(z) for z in zs)
    return m, rank, bound


def _bezout_coefficients(cs):
    """Integers z_i with sum z_i c_i = gcd(cs)."""

    def ext(a, b):
        if b == 0:
            return a, 1, 0
        g, x, y = ext(b, a % b)
        return g, y, x - (a // b) * y

    g = cs[0]
    zs = [1]
    for c in cs[1:]:
        g2, x, y = ext(g, c)
        zs = [z * x for z in zs] + [y]
        g = g2
    return zs


# ---------------------------------------------------------------------------
# marker/code-word construction


def entropy_words(H, k=1):
    """Words (u, w1, w2) of equal length from two return paths of the graph.

    All three are cycles at one vertex; concatenations stay in the language
    and u occurs in u{w1,w2}*w1 only as a prefix.  Needs a transitive H of
    positive entropy and k >= 1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    g = build_rauzy(H)
    if len(g.sccs()) != 1:
        raise NotTransitive("the Rauzy graph is not strongly connected")
    lo, hi = entropy_1d(H).bracket
    if hi <= 1.0:
        raise ZeroEntropy("entropy must be positive")
    if not lo > 1.0:
        raise RuntimeError(f"the spectral radius bracket [{lo!r}, {hi!r}] does not decide positive entropy")
    s = None
    for v in g.vertices:
        paths = _first_return_paths(g, v, want=2)
        if len(paths) >= 2:
            s = v
            g1, g2 = _labels(paths[0]), _labels(paths[1])
            break
    if s is None:
        raise ZeroEntropy("no vertex with two distinct return paths")
    u = g2 + g1 + g2 + g1 + g1 + g1 + g2 + g1 * k + g2
    w1 = g2 + g1 + g1 + g2 + g1 + g1 + g2 + g1 * k + g2
    w2 = g2 + g1 + g1 + g1 + g2 + g1 + g2 + g1 * k + g2
    alpha = len(u)
    assert len(w1) == alpha and len(w2) == alpha
    if alpha <= H.order:
        raise PlanInvalid("marker word no longer than the order")
    _check_word_properties(H, u, w1, w2)
    return u, w1, w2, alpha


def _occurrences(word, sub):
    return [i for i in range(len(word) - len(sub) + 1) if word[i : i + len(sub)] == sub]


def _check_word_properties(H, u, w1, w2, blocks=4):
    """Replay the construction's guarantees on short block corpora."""
    from itertools import product as iproduct

    for n in range(blocks):
        for combo in iproduct((w1, w2), repeat=n):
            mid = tuple(x for w in combo for x in w)
            if not word_in_language(H, u + mid + w1):
                raise PlanInvalid("u{w1,w2}*w1 leaves the language")
            occ = _occurrences(u + mid + w1, u)
            if occ != [0]:
                raise PlanInvalid("marker word reoccurs inside the code blocks")


def ntilde_count(H, u, w1, n):
    """Exact count of n-words v with u not a factor of v and w1+v+u in the
    language."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _ntilde(_RowAutomaton(H, u), w1, n)


def _ntilde(rows, w1, n):
    """``ntilde_count`` on the row automaton of (H, u)."""
    m = rows.order
    if len(w1) < m:
        raise ValueError("w1 shorter than the order")
    # the first m symbols of w1 fix the start vertex when w1 is admissible
    v0 = rows.follow(rows.rank.get(tuple(w1[:m]), -1), w1[m:])
    if v0 < 0:
        return 0
    delta, marked = rows.delta, rows.marked
    cur = {rows.state(v0, 0): 1}
    for _ in range(n):
        nxt = {}
        for s, cnt in cur.items():
            for t in delta[s]:
                if t >= 0 and not marked[t]:
                    nxt[t] = nxt.get(t, 0) + cnt
        cur = nxt
    return sum(cnt for s, cnt in cur.items() if rows.follow(rows.vertex[s], rows.u) >= 0)


def _kmp_table(u, symbols):
    """Knuth-Morris-Pratt automaton of ``u`` over the symbol indices:
    ``table[j][a]`` is the length of the longest suffix of u[:j] followed by
    ``symbols[a]`` that is a prefix of u, for j in 0..len(u); from j = len(u)
    it moves on as from the longest proper border of u."""
    index = {a: i for i, a in enumerate(symbols)}
    table = [[0] * len(symbols)]
    border = 0  # the state after u[1:j]
    for j, x in enumerate(u):
        a = index.get(x)
        if j:
            table.append(list(table[border]))
            border = table[border][a] if a is not None else 0
        if a is not None:
            table[j][a] = j + 1
    table.append(list(table[border]))
    return table


class _RowAutomaton:
    """The rows of H read one symbol at a time, with the marker u tracked.

    The product of H's pruned Rauzy graph (order m) and the KMP automaton of
    u, on integer states numbered as they are first reached.  State 0 has
    read nothing; the states of the first m - 1 symbols hold proper prefixes
    of Rauzy vertices, and every later state is a pair (vertex, j), j the
    length of the longest suffix of the row that is a prefix of u.  A state
    with j = |u| has just completed u and is ``marked``.  ``delta[s][a]`` is
    the state after the symbol of index a, or -1 when the row leaves the
    language; ``vertex[s]`` is the vertex rank of s (-1 for a prefix), and
    ``symbol_index`` maps each symbol to its index.  Only the states
    reachable from 0 and from those asked of ``state`` are built.
    """

    def __init__(self, H, u):
        g = build_rauzy(H)  # raises EmptyLanguage
        self.u = tuple(u)
        self.order = g.order
        self.symbols = H.alphabet.symbols
        self.symbol_index = index = {a: i for i, a in enumerate(self.symbols)}
        gi = g.index
        self.rank = gi.rank
        # _succ[v][a]: the vertex after symbol index a from vertex v, or -1
        self._succ = [[-1] * len(self.symbols) for _ in g.vertices]
        for v, row in enumerate(gi.succ):
            for w in row:
                self._succ[v][index[g.vertices[w][-1]]] = w
        self._prefixes = {v[:j] for v in g.vertices for j in range(g.order)}
        self._kmp = _kmp_table(self.u, self.symbols)
        self.delta, self.marked, self.vertex = [], [], []
        self._keys, self._ids, self._todo = [], {}, []
        self._intern(((), 0))
        self._close()

    def follow(self, v, word):
        """The vertex reached from vertex rank v along ``word``, or -1."""
        for x in word:
            if v < 0 or x not in self.symbol_index:
                return -1
            v = self._succ[v][self.symbol_index[x]]
        return v

    def state(self, v, j):
        """The state (vertex rank v, marker progress j)."""
        s = self._intern((v, j))
        self._close()
        return s

    def _intern(self, key):
        s = self._ids.get(key)
        if s is None:
            s = self._ids[key] = len(self._keys)
            self._keys.append(key)
            self.delta.append(None)
            self.marked.append(key[1] == len(self.u))
            self.vertex.append(key[0] if isinstance(key[0], int) else -1)
            self._todo.append(s)
        return s

    def _close(self):
        m, kmp = self.order, self._kmp
        while self._todo:
            s = self._todo.pop()
            head, j = self._keys[s]
            row = []
            for a, x in enumerate(self.symbols):
                if isinstance(head, int):  # a vertex
                    w = self._succ[head][a]
                elif len(head) + 1 < m:  # a prefix of one
                    w = head + (x,) if head + (x,) in self._prefixes else -1
                else:
                    w = self.rank.get(head + (x,), -1)
                row.append(-1 if w == -1 else self._intern((w, kmp[j][a])))
            self.delta[s] = row


# ---------------------------------------------------------------------------
# the realization system


@dataclass(frozen=True)
class RealizationPlan:
    H: Sft1D
    u: tuple
    w1: tuple
    w2: tuple
    q: int
    r: int
    R: int
    payload: WangTileSet

    @property
    def alpha(self):
        return len(self.u)

    @property
    def period(self):
        return (self.q + self.r) * self.alpha

    def validate(self):
        if not (len(self.u) == len(self.w1) == len(self.w2)):
            raise PlanInvalid("u, w1, w2 must have equal length")
        if self.q < 1 or self.R < 1 or self.r <= self.R:
            raise PlanInvalid("need q >= 1 and r > R >= 1")
        if 2 ** self.R < self.payload.N:
            raise PlanInvalid("R bits cannot address the payload tiles")
        if self.alpha <= self.H.order:
            raise PlanInvalid("words no longer than the order")
        _check_word_properties(self.H, self.u, self.w1, self.w2)
        if ntilde_count(self.H, self.u, self.w1, self.q * self.alpha) == 0:
            raise PlanInvalid("no admissible free window: the system is empty")
        return self


@dataclass(frozen=True)
class RealizationSystem:
    """The five-rule system built from a plan; rows look like

        .. u  B_1 .. B_R  w1^(r-R-1)  v  u ..

    with period (q+r)*alpha, u vertically aligned, each B_i in {w1, w2}
    (an R-bit code addressing a payload tile), and v a u-free window of
    length q*alpha.
    """

    plan: RealizationPlan

    @cached_property
    def rows(self):
        """The row automaton of (H, u), built on first use."""
        return _RowAutomaton(self.plan.H, self.plan.u)


def build_realization(plan):
    """Validate the plan and wrap it as a countable system."""
    plan.validate()
    return RealizationSystem(plan)


def count_realization(system, width, height):
    """Exact number of width x height windows of the realization system.

    Windows are counted as restrictions of structure-valid rows (the marker
    grid extends beyond the window; occurrences straddling the border are
    those of the extended rows).  The width must pin the marker phase, so
    every row shows at least one complete marker, markers align vertically,
    and the total decomposes over the phase.  Payloads with nontrivial
    adjacency are only supported for height 1.
    """
    plan = system.plan
    n = plan.period
    if width < n + plan.alpha - 1:
        raise ValueError("window too narrow to pin the marker phase")
    tiles = plan.payload
    free_w = all(
        tiles.horizontal_ok(k, l) and tiles.vertical_ok(k, l)
        for k in range(1, tiles.N + 1)
        for l in range(1, tiles.N + 1)
    )
    if not free_w and height > 1:
        raise NotImplementedError("coupled payloads are counted row by row only")
    table = _RowTable(system)
    return sum(_row_count(table, width, phase) ** height for phase in range(n))


_BOTH = 2  # a code bit that the visible cells of its block do not decide


class _RowTable:
    """The moves of the row DP of one realization system, shared by every
    marker phase of one ``count_realization``.

    Column c of a row at phase p sits at offset o = (c - p) mod n of the
    period.  A DP state pairs a row automaton state with a code register:
    None outside code blocks, else (bits, bit), where ``bits`` holds the bits
    of the finished blocks of this R-group (None: before the window) and
    ``bit`` is the current block's bit, or _BOTH while its visible cells
    agree with both w1 and w2.  DP states are interned as ints.
    ``moves[o][d]`` lists the DP states one column after d at offset o; it
    is filled on first use from ``options`` and the automaton's successor
    table, so each phase's DP only looks moves up.
    """

    def __init__(self, system):
        plan = system.plan
        self.rows = system.rows
        self.n, self.alpha = plan.period, plan.alpha
        self._plan = plan
        self.moves = [{} for _ in range(self.n)]
        self._option_table = [{} for _ in range(self.n)]
        self._states, self._ids = [], {}

    def _zone(self, o):
        """("u" | "w1" | "free", pos) or ("code", block, pos) at offset o."""
        plan = self._plan
        alpha = plan.alpha
        if o < alpha:
            return ("u", o)
        if o < (1 + plan.R) * alpha:
            return ("code", (o - alpha) // alpha, (o - alpha) % alpha)
        if o < plan.r * alpha:
            return ("w1", (o - alpha) % alpha)
        return ("free", o - plan.r * alpha)

    def start(self, phase):
        """The DP state before column 0 at the given phase."""
        z = self._zone(-phase % self.n)
        return self._intern((0, ((None,) * z[1], _BOTH) if z[0] == "code" else None))

    def options(self, o, reg):
        """(symbol index, next register) pairs at offset o from register reg."""
        opts = self._option_table[o].get(reg)
        if opts is None:
            index = self.rows.symbol_index
            opts = self._option_table[o][reg] = tuple(
                (index[a], reg2) for a, reg2 in self._symbols(o, reg) if a in index
            )
        return opts

    def _symbols(self, o, reg):
        plan = self._plan
        z = self._zone(o)
        if z[0] == "u":
            return [(plan.u[z[1]], None)]
        if z[0] == "w1":
            return [(plan.w1[z[1]], None)]
        if z[0] == "free":
            return [(a, None) for a in self.rows.symbols]
        blk, pos = z[1], z[2]
        bits, bit = reg if reg is not None else ((None,) * blk, _BOTH)  # (re-)entering
        w1, w2 = plan.w1, plan.w2
        if bit != _BOTH:
            choices = [((w1, w2)[bit][pos], bit)]
        elif w1[pos] == w2[pos]:
            choices = [(w1[pos], _BOTH)]
        else:
            choices = [(w1[pos], 0), (w2[pos], 1)]
        if pos < self.alpha - 1:
            return [(a, (bits, b)) for a, b in choices]
        out = []  # the block closes
        for a, b in choices:
            done = bits + (None if b == _BOTH else b,)
            if self._addresses_a_tile(done):
                out.append((a, None if len(done) == plan.R else (done, _BOTH)))
        return out

    def open_group_ok(self, d):
        """Can the code group open in DP state d, if any, still address a
        payload tile when the row goes on past the window?"""
        reg = self._states[d][1]
        if reg is None:
            return True
        bits, bit = reg
        return self._addresses_a_tile(bits + (None if bit == _BOTH else bit,))

    def _addresses_a_tile(self, bits):
        """Can the bit prefix (None: unknown) address a payload tile?  Unknown
        and missing bits read as 0, which gives the smallest tile index."""
        val = 0
        for b in bits:
            val = 2 * val + (b or 0)
        return (val << (self._plan.R - len(bits))) < self._plan.payload.N

    def expand(self, o, d):
        """The DP states one column after DP state d at offset o."""
        s, reg = self._states[d]
        row, marked = self.rows.delta[s], self.rows.marked
        out = []
        for a, reg2 in self.options(o, reg):
            t = row[a]
            # u may end only where a marker ends
            if t >= 0 and (o == self.alpha - 1 or not marked[t]):
                out.append(self._intern((t, reg2)))
        out = self.moves[o][d] = tuple(out)
        return out

    def _intern(self, key):
        d = self._ids.get(key)
        if d is None:
            d = self._ids[key] = len(self._states)
            self._states.append(key)
        return d


def _row_count(table, width, phase):
    """Rows of the given width whose marker grid sits at i = phase mod n.

    The DP emits one symbol per column, so distinct states always emit
    distinct words: a code block whose visible part does not yet distinguish
    w1 from w2 is kept in an "ambiguous" register instead of branching.  A
    code group cut off by the right end of the window counts only if it can
    still address a payload tile.
    """
    n = table.n
    cur = {table.start(phase): 1}
    for c in range(width):
        o = (c - phase) % n
        moves = table.moves[o]
        nxt = {}
        for d, cnt in cur.items():
            targets = moves.get(d)
            if targets is None:
                targets = table.expand(o, d)
            for t in targets:
                nxt[t] = nxt.get(t, 0) + cnt
        cur = nxt
    return sum(cnt for d, cnt in cur.items() if table.open_group_ok(d))


def realization_sandwich(system, k):
    """Exact two-sided bounds around the window count at aspect (k*n) x k."""
    plan = system.plan
    n = plan.period
    nt = _ntilde(system.rows, plan.w1, plan.q * plan.alpha)
    nw = lambda a, b: _payload_count(plan.payload, a, b)
    nx = count_realization(system, k * n, k)
    lower = nt ** (k * (k - 1)) * nw(k - 1, k)
    upper = nt ** (k * (k + 1)) * nw(k + 1, k)
    sample = log2(nx) / (k * n * k) if nx else -inf
    return {
        "k": k,
        "count": nx,
        "lower": lower,
        "upper": upper,
        "sample_entropy": sample,
        "ok": lower <= nx <= upper,
    }


def _payload_count(tiles, a, b):
    """Exact number of locally valid a x b payload patterns, by a column
    transfer along the longer side.

    The states are the valid columns along the shorter side, at most
    N^min(a, b) of them; each step appends a column whose cells may each
    follow the matching cell of the last one (``horizontal_ok``; with a < b
    the grid is transposed and the two directions swap roles).  A step
    replaces one cell at a time, so it costs about min(a, b) * N operations
    per state instead of one per pair of columns.
    """
    if a <= 0 or b <= 0:
        return 1
    along, across = tiles.vertical_ok, tiles.horizontal_ok
    if a < b:
        a, b = b, a
        along, across = across, along
    ks = range(1, tiles.N + 1)
    # fits[k][j]: the tiles that may follow tile k across and sit after
    # tile j along the column; tile 0 stands for no neighbour
    fits = [
        [[l for l in ks if (k == 0 or across(k, l)) and (j == 0 or along(j, l))] for j in range(tiles.N + 1)]
        for k in range(tiles.N + 1)
    ]
    counts = {(0,) * b: 1}  # a column of no tiles stands before the first
    for _ in range(a):
        for y in range(b):
            nxt = {}
            for col, c in counts.items():
                for l in fits[col[y]][col[y - 1] if y else 0]:
                    key = col[:y] + (l,) + col[y + 1 :]
                    nxt[key] = nxt.get(key, 0) + c
            counts = nxt
    return sum(counts.values())


# ---------------------------------------------------------------------------
# root entropy and state-split formula


def root_entropy_check(cert, x_count, y_count, alphabet_size, k_range, r=None, r_prime=1):
    """Check the count inequalities linking a root to the covered shift.

    ``x_count(w, h)`` and ``y_count(w, h)`` are exact counters; the border
    slack uses the local-map radius r (default: the vertical root period,
    a safe overestimate for the slice construction) and the inverse radius
    r_prime (1 for the slice construction: a block is pinned by its own tile
    and its right neighbor).  Reports the per-cell entropy ratio, which
    approaches m*n.
    """
    m, n = cert.m, cert.n
    if r is None:
        r = max(m, n)
    rows = []
    all_ok = True
    for k in k_range:
        nx = x_count(m * k, n * k)
        ny = y_count(k, k)
        ny_pad = y_count(k + 2 * r_prime, k + 2 * r_prime)
        lower_ok = m * n * ny <= (alphabet_size ** (2 * r * k * (m + n))) * nx
        upper_ok = nx <= m * n * ny_pad
        ratio = None
        if nx > 1 and ny > 1:
            ratio = (log2(ny) / (k * k)) / (log2(nx) / (m * n * k * k))
        rows.append(
            {"k": k, "nx": nx, "ny": ny, "lower_ok": lower_ok, "upper_ok": upper_ok, "ratio": ratio}
        )
        all_ok = all_ok and lower_ok and upper_ok
    return {"rows": rows, "ok": all_ok, "mn": m * n}


def statesplit_entropy(H, V, n, budget=None):
    """Lower-bound term and exact product identity for state-split graphs.

    The graph of H must be a disjoint union of state-split cycles; p is the
    lcm of the class counts.  Returns the term log2(max_v prod_j N_{v^j})/(p n)
    together with the data needed to check
    N(p*m, n) = sum_u (prod_j N_{u^j})^m exactly.
    """
    g = build_rauzy(H)
    comps = g.sccs()
    transient = set(g.transient_vertices())
    if transient:
        raise NotStateSplit("transient vertices present")
    infos = []
    for comp in comps:
        t = scc_types(g.subgraph(comp))
        if not t.state_split:
            raise NotStateSplit("a component is not a state-split cycle")
        infos.append(t.state_split_partition)
    p = 1
    for part in infos:
        p = lcm(p, len(part))
    # class id of each symbol: (component index, class index, class count)
    cls = {}
    for ci, part in enumerate(infos):
        for k, group in enumerate(part):
            for v in group:
                cls[v[-1]] = (ci, k, len(part))

    cols = [c for c in _global_words(V, n) if all(x in cls for x in c)]
    groups = {}
    for c in cols:
        key = tuple(cls[x][:2] for x in c)
        groups.setdefault(key, 0)
        groups[key] += 1

    def shifted(key, j):
        return tuple((ci, (k + j) % cls_count(ci)) for (ci, k) in key)

    def cls_count(ci):
        return len(infos[ci])

    def column_product(key):
        prod = 1
        for j in range(p):
            prod *= groups.get(shifted(key, j), 0)
        return prod

    best = 0
    for key in groups:
        best = max(best, column_product(key))
    term = log2(best) / (p * n) if best else -inf

    def identity_lhs(m):
        return count_rectangles(H, V, p * m, n, budget)

    def identity_rhs(m):
        return sum(column_product(key) ** m for key in groups)

    return {
        "p": p,
        "term": term,
        "lhs": identity_lhs,
        "rhs": identity_rhs,
        "max_product": best,
    }


def sft_with_loops(H):
    """Nearest-neighbor SFT whose graph is H's pruned graph plus all loops."""
    g = build_rauzy(H)
    if g.order != 1:
        raise ValueError("needs a nearest-neighbor SFT")
    edges = {(a[0], b[0]) for (a, b) in g.edges} | {(v[0], v[0]) for v in g.vertices}
    return sft_from_edges(H.alphabet.symbols, edges)
