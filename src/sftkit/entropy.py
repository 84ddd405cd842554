"""Entropy computation and entropy-realization machinery.

1D entropies are log2 of the transfer spectral radius; 2D entropies are
bracketed by exact square counts and strip eigenvalue bounds.  The
realization system pins a marker word u with a fixed horizontal period on
every row, aligned vertically, followed by code blocks from two
interchangeable words w1/w2 that carry a Wang tile payload; the remaining
free windows contribute the tunable entropy term.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, inf, lcm, log2

import numpy as np

from .core import (
    Digraph,
    EmptyLanguage,
    NotStateSplit,
    NotTransitive,
    PlanInvalid,
    Sft1D,
    WangTileSet,
    ZeroEntropy,
    build_rauzy,
    language_count,
    sft_from_edges,
    word_in_language,
)
from .classify import scc_types
from .compiler import _first_return_paths, _labels
from .solve import count_rectangles, StripAutomaton


# ---------------------------------------------------------------------------
# 1D entropy


@dataclass(frozen=True)
class PerronResult:
    log2_value: float
    eigenvalue: float
    residual: float
    iterations: int


def _digraph_spectral_radius(g, tol=1e-12, max_iter=10**6):
    """Spectral radius of the adjacency matrix, as (value, residual, iters).

    Power iteration runs per strongly connected component on A + I (shifting
    makes periodic components primitive); the largest value wins.
    """
    best = 0.0
    best_res = 0.0
    iters = 0
    succ = g.succ_map()
    for comp in g.sccs():
        if len(comp) == 1 and not g.has_edge(comp[0], comp[0]):
            continue  # transient vertex contributes nothing
        idx = {v: i for i, v in enumerate(comp)}
        n = len(comp)
        a = np.zeros((n, n))
        for u in comp:
            for v in succ[u]:
                if v in idx:
                    a[idx[u], idx[v]] = 1.0
        b = a + np.eye(n)
        x = np.full(n, 1.0 / n)
        lam = 1.0
        res = inf
        for it in range(max_iter):
            y = b @ x
            lam = float(x @ y) / float(x @ x)
            res = float(np.linalg.norm(y - lam * x) / np.linalg.norm(x))
            x = y / np.linalg.norm(y)
            iters += 1
            if res < tol:
                break
        val = lam - 1.0
        if val > best:
            best = val
            best_res = res
    return best, best_res, iters


def entropy_1d(H, tol=1e-10, max_iter=10**6):
    """log2 of the spectral radius of the pruned Rauzy adjacency matrix."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    g = build_rauzy(H)  # raises EmptyLanguage
    val, res, iters = _digraph_spectral_radius(g.graph, tol, max_iter)
    val = max(val, 0.0)
    return PerronResult(log2(val) if val > 0 else -inf if val == 0 else 0.0, val, res, iters)


# ---------------------------------------------------------------------------
# 2D bounds


@dataclass(frozen=True)
class EntropyBounds:
    samples: tuple  # (n, log2 N(n,n) / n^2)
    upper: float  # running infimum over the samples
    strip_upper: tuple  # (h, log2(lambda_h) / h)

    def to_json(self):
        return {
            "samples": [[n, v] for n, v in self.samples],
            "upper": self.upper,
            "strip_upper": [[h, v] for h, v in self.strip_upper],
        }


def entropy_bounds_2d(H, V, max_n, max_strip_h, budget=None):
    """Square-count samples plus strip-eigenvalue upper bounds."""
    if max_n < 1 or max_strip_h < 1:
        raise ValueError("budgets must be >= 1")
    samples = []
    upper = inf
    for n in range(1, max_n + 1):
        c = count_rectangles(H, V, n, n, budget)
        if c == 0:
            samples.append((n, -inf))
            upper = -inf
            break
        v = log2(c) / (n * n)
        samples.append((n, v))
        upper = min(upper, v)
    strip = []
    for h in range(1, max_strip_h + 1):
        sa = StripAutomaton.build(H, V, h, budget)
        lam = sa.spectral_radius()[0]
        strip.append((h, log2(lam) / h if lam > 0 else -inf))
    return EntropyBounds(tuple(samples), upper, tuple(strip))


def aspect_check(H, V, alpha, beta, n_range, budget=None):
    """Exact verification of the two aspect-ratio sandwich inequalities."""
    if alpha < 1 or beta < 1:
        raise ValueError("aspect factors must be >= 1")
    report = []
    for n in n_range:
        big = count_rectangles(H, V, alpha * beta * n, alpha * beta * n, budget)
        mid = count_rectangles(H, V, alpha * n, beta * n, budget)
        small = count_rectangles(H, V, n, n, budget)
        ok = big <= mid ** (alpha * beta) and mid <= small ** (alpha * beta)
        report.append({"n": n, "big": big, "mid": mid, "small": small, "ok": ok})
    return report


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
    if len(g.graph.sccs()) != 1:
        raise NotTransitive("the Rauzy graph is not strongly connected")
    if entropy_1d(H).eigenvalue <= 1.0 + 1e-12:
        raise ZeroEntropy("entropy must be positive")
    s = None
    for v in g.vertices:
        paths = _first_return_paths(g.graph, v, want=2)
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
    g = build_rauzy(H)
    m = g.order
    if len(w1) < m:
        raise ValueError("w1 shorter than the order")
    # the first m symbols of w1 fix the start vertex when w1 is admissible
    start = tuple(w1[:m])
    if start not in set(g.vertices):
        return 0
    v0 = g.path_exists(start, w1[m:])
    if v0 is None:
        return 0
    kmp = _KMP(u)
    # DP over (graph vertex, kmp state), excluding a completed marker
    cur = {(v0, 0): 1}
    for _ in range(n):
        nxt = {}
        for (v, ks), cnt in cur.items():
            for w in g.successors(v):
                a = w[-1]
                k2 = kmp.step(ks, a)
                if k2 == len(u):
                    continue
                key = (w, k2)
                nxt[key] = nxt.get(key, 0) + cnt
        cur = nxt
    total = 0
    ucheck = {}
    for (v, ks), cnt in cur.items():
        if v not in ucheck:
            ucheck[v] = g.path_exists(v, u) is not None
        if ucheck[v]:
            total += cnt
    return total


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

    def tile_of_bits(self, bits):
        """Tile index addressed by an R-bit block word, or None."""
        val = 0
        for b in bits:
            val = 2 * val + b
        k = val + 1
        return k if k <= self.plan.payload.N else None


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
    total = 0
    for phase in range(n):
        rc = _row_count(system, width, phase)
        total += rc ** height
    return total


class _KMP:
    def __init__(self, u):
        self.u = u
        fail = [0] * len(u)
        for i in range(1, len(u)):
            j = fail[i - 1]
            while j and u[i] != u[j]:
                j = fail[j - 1]
            fail[i] = j + 1 if u[i] == u[j] else 0
        self.fail = fail

    def step(self, state, a):
        u, fail = self.u, self.fail
        while state and (state == len(u) or u[state] != a):
            state = fail[state - 1]
        return state + 1 if u[state] == a else 0


def _row_count(system, width, phase):
    """Rows of the given width whose marker grid sits at i = phase mod n.

    The DP emits one symbol per column, so distinct states always emit
    distinct words: a code block whose visible part does not yet distinguish
    w1 from w2 is kept in an "ambiguous" register instead of branching.
    """
    plan = system.plan
    H, u, w1, w2 = plan.H, plan.u, plan.w1, plan.w2
    alpha, r, R = plan.alpha, plan.r, plan.R
    n = plan.period
    N = plan.payload.N
    g = build_rauzy(H)
    m = g.order
    vset = set(g.vertices)
    kmp = _KMP(u)
    BOTH = 2

    def zone(c):
        o = (c - phase) % n
        if o < alpha:
            return ("u", o)
        if o < (1 + R) * alpha:
            return ("code", (o - alpha) // alpha, (o - alpha) % alpha)
        if o < r * alpha:
            return ("w1", (o - alpha) % alpha)
        return ("free", o - r * alpha)

    def marker_end_ok(c):
        return (c - phase) % n == alpha - 1

    def group_feasible(done, last_bit=None):
        # can the (possibly existential) bit prefix address a real tile?
        bits = list(done) + ([last_bit] if last_bit is not None else [])
        missing = R - len(bits)
        known = [0 if b is None else b for b in bits]
        val = 0
        for b in known:
            val = 2 * val + b
        val <<= missing  # zeros minimize the addressed tile
        return val + 1 <= N

    # state: (vertex | prefix-under-construction, kmp state, code register)
    # code register: None outside code blocks, else (bits_done, bitstate)
    # where bits_done is a tuple over finished blocks of this R-group (None =
    # unknown, pre-window) and bitstate in {0, 1, BOTH}.
    start_zone = zone(0)
    if start_zone[0] == "code":
        done = (None,) * start_zone[1]
        ctx0 = (done, BOTH)
    else:
        ctx0 = None
    states = {((), 0, ctx0): 1}

    for c in range(width):
        z = zone(c)
        nxt = {}
        for (v, ks, ctx), cnt in states.items():
            if z[0] == "u":
                options = [(u[z[1]], None)]
            elif z[0] == "w1":
                options = [(w1[z[1]], None)]
            elif z[0] == "free":
                options = [(a, None) for a in H.alphabet.symbols]
            else:
                blk, pos = z[1], z[2]
                if ctx is None:  # (re-)entering the code zone
                    ctx = ((None,) * blk, BOTH)
                done, bitstate = ctx
                if bitstate == BOTH:
                    if w1[pos] == w2[pos]:
                        options = [(w1[pos], (done, BOTH))]
                    else:
                        options = [(w1[pos], (done, 0)), (w2[pos], (done, 1))]
                else:
                    wsel = w1 if bitstate == 0 else w2
                    options = [(wsel[pos], (done, bitstate))]
                # close the block at its last cell
                closed = []
                for a, (d, b) in options:
                    if pos == alpha - 1:
                        nb = None if b == BOTH else b
                        d2 = d + (nb,)
                        if len(d2) == R:
                            if not group_feasible(d2):
                                continue
                            closed.append((a, None))
                        else:
                            if not group_feasible(d2):
                                continue
                            closed.append((a, (d2, BOTH)))
                    else:
                        closed.append((a, (d, b)))
                options = closed

            for a, ctx2 in options:
                if isinstance(v, tuple) and (not v or len(v) < m):
                    word = v + (a,)
                    if not H.word_locally_admissible(word):
                        continue
                    if len(word) == m:
                        if word not in vset:
                            continue
                        k2 = 0
                        for x in word:
                            k2 = kmp.step(k2, x)
                        key = (word, k2, ctx2)
                    else:
                        key = (word, 0, ctx2)
                    nxt[key] = nxt.get(key, 0) + cnt
                    continue
                w = v[1:] + (a,)
                if not g.has_edge(v, w):
                    continue
                k2 = kmp.step(ks, a)
                if k2 == len(u):
                    if not marker_end_ok(c):
                        continue
                    k2 = kmp.fail[k2 - 1]
                key = (w, k2, ctx2)
                nxt[key] = nxt.get(key, 0) + cnt
        states = nxt
    return sum(states.values())


def realization_sandwich(system, k, budget=None):
    """Exact two-sided bounds around the window count at aspect (k*n) x k."""
    plan = system.plan
    n = plan.period
    nt = ntilde_count(plan.H, plan.u, plan.w1, plan.q * plan.alpha)
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
    """Locally valid a x b payload patterns (brute force; payloads are tiny)."""
    if a <= 0 or b <= 0:
        return 1
    from itertools import product as iproduct

    total = 0
    for flat in iproduct(range(1, tiles.N + 1), repeat=a * b):
        grid = [[flat[x * b + y] for y in range(b)] for x in range(a)]
        if tiles.pattern_valid(grid):
            total += 1
    return total


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
    comps = g.graph.sccs()
    transient = set(g.transient)
    if transient:
        raise NotStateSplit("transient vertices present")
    infos = []
    for comp in comps:
        t = scc_types(g.graph.subgraph(comp))
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

    cols = [c for c in _symbols_words(V, n) if all(x in cls for x in c)]
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


def _symbols_words(V, n):
    """Globally admissible n-words of the column SFT."""
    from .solve import _global_words

    return _global_words(V, n)


def add_loops(graph):
    """The same graph with a loop added on every vertex."""
    g = graph.graph if hasattr(graph, "graph") else graph
    return Digraph(g.vertices, frozenset(set(g.edges) | {(v, v) for v in g.vertices}))


def sft_with_loops(H):
    """Nearest-neighbor SFT whose graph is H's pruned graph plus all loops."""
    g = build_rauzy(H)
    if g.order != 1:
        raise ValueError("needs a nearest-neighbor SFT")
    edges = {(a[0], b[0]) for (a, b) in g.graph.edges} | {(v[0], v[0]) for v in g.vertices}
    return sft_from_edges(H.alphabet.symbols, edges)
