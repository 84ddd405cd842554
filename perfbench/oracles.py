"""Oracles that check sftkit's outputs without using sftkit.

Every oracle here is computed from the raw input data (forbidden words,
edges, emitted JSON) by a method of its own:

* ``count_binary``: bitmask column transfer for binary SFT pairs whose
  languages are extendable (every locally admissible word is globally
  admissible), with exact Python integers.
* ``strip_log2_per_row``: numpy eigenvalue of the nearest-neighbour strip
  transfer matrix, for the 2D strip bounds.
* ``rll_capacity``: largest root of x^(k+2) - x^(k+1) - x^(k+1-d) + 1, the
  capacity of the run-length-limited shift RLL(d, k).
* ``torus_ok`` / ``small_torus``: cyclic replay of every row and column of a
  doubly periodic pattern against the forbidden words, and a brute-force
  search for small tori.
* ``Presentation``: a walker over the presentation JSON that ``compile
  wang`` emits.

Run ``python3 perfbench/oracles.py`` to run the self-tests.
"""

from __future__ import annotations

from itertools import product
from math import log2

HARD_SQUARE_LOG2_KAPPA = 0.5878911617  # Calkin & Wilf, truncated below


# ---------------------------------------------------------------------------
# bitmask transfer counter


def _bit_patterns(words, one):
    """Forbidden words as tuples of 0/1 over the symbol ``one``."""
    return [tuple(1 if s == one else 0 for s in w) for w in words]


def binary_columns(v_forbidden, one, h):
    """Bitmasks of height-h columns avoiding the (binary) forbidden words.

    Bit r of a mask is row r, counted from the bottom.
    """
    pats = _bit_patterns(v_forbidden, one)
    out = []
    for mask in range(1 << h):
        bits = [(mask >> r) & 1 for r in range(h)]
        if not any(
            tuple(bits[i : i + len(p)]) == p for p in pats for i in range(h - len(p) + 1)
        ):
            out.append(mask)
    return out


def count_binary(h_forbidden, v_forbidden, one, w, h):
    """Exact number of w x h binary rectangles whose rows avoid
    ``h_forbidden`` and whose columns avoid ``v_forbidden``.

    Columns are the states; a forbidden row word of length L is matched in all
    h rows at once by AND-ing the last L columns (complemented where the word
    has a 0).
    """
    full = (1 << h) - 1
    cols = binary_columns(v_forbidden, one, h)
    pats = _bit_patterns(h_forbidden, one)
    span = max((len(p) for p in pats), default=1)
    keep = span - 1  # columns of history a transition needs

    def hit(window, p):
        m = full
        for c, b in zip(window[len(window) - len(p) :], p):
            m &= c if b else ~c
            if not m:
                return False
        return True

    def ok(window):
        return not any(len(p) <= len(window) and hit(window, p) for p in pats)

    vec = {(c,): 1 for c in cols if ok((c,))}
    if keep == 1:
        # nearest-neighbour rows: precompute successor lists once
        succ = {a: [b for b in cols if ok((a, b))] for a in cols}
        for _ in range(w - 1):
            nxt = {}
            for (a,), n in vec.items():
                for b in succ[a]:
                    nxt[(b,)] = nxt.get((b,), 0) + n
            vec = nxt
        return sum(vec.values())
    for _ in range(w - 1):
        nxt = {}
        for state, n in vec.items():
            for c in cols:
                window = state + (c,)
                if ok(window):
                    key = window[-keep:] if keep else ()
                    nxt[key] = nxt.get(key, 0) + n
        vec = nxt
    return sum(vec.values())


def strip_log2_per_row(h_forbidden, v_forbidden, one, h):
    """log2 of the largest eigenvalue of the height-h strip transfer matrix,
    divided by h, for a nearest-neighbour binary row SFT."""
    import numpy as np

    cols = binary_columns(v_forbidden, one, h)
    pats = _bit_patterns(h_forbidden, one)
    if any(len(p) > 2 for p in pats):
        raise ValueError("strip matrix needs nearest-neighbour rows")
    full = (1 << h) - 1

    def hit(a, b, p):
        if len(p) == 1:
            m = b if p[0] else ~b
        else:
            m = (a if p[0] else ~a) & (b if p[1] else ~b)
        return bool(m & full)

    n = len(cols)
    mat = np.zeros((n, n))
    for i, a in enumerate(cols):
        for j, b in enumerate(cols):
            if not any(hit(a, b, p) for p in pats):
                mat[i, j] = 1.0
    lam = float(max(abs(np.linalg.eigvals(mat))))
    return log2(lam) / h


# ---------------------------------------------------------------------------
# run-length-limited capacity


def rll_forbidden(d, k, zero="0", one="1"):
    """Forbidden words of RLL(d, k): between two 1s lie d..k 0s."""
    words = [one + zero * j + one for j in range(d)]
    words.append(zero * (k + 1))
    return words


def rll_capacity(d, k):
    """log2 of the largest root of x^(k+2) - x^(k+1) - x^(k+1-d) + 1.

    Dividing by x^(k+1)(x - 1) turns the root condition into
    sum_{j=d..k} x^-(j+1) = 1, whose left side falls strictly for x > 0, so
    bisection on (1, 2] finds the root to the last bit.
    """
    if not 0 <= d <= k:
        raise ValueError("need 0 <= d <= k")

    def f(x):
        return sum(x ** -(j + 1) for j in range(d, k + 1)) - 1.0

    lo, hi = 1.0, 2.0
    if f(lo) <= 0:
        return 0.0
    while True:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            return log2(lo)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid


# ---------------------------------------------------------------------------
# torus replay


def forbidden_index(forbidden):
    """Forbidden words grouped by length, as sets of tuples."""
    index = {}
    for f in forbidden:
        index.setdefault(len(f), set()).add(tuple(f))
    return index


def cyclic_ok(word, index):
    """No forbidden word of ``index`` occurs in ``word`` read as a cycle."""
    word = tuple(word)
    n = len(word)
    for length, words in index.items():
        ext = word * (1 + -(-length // n))
        if any(ext[i : i + length] in words for i in range(n)):
            return False
    return True


def torus_ok(cells, width, height, h_forbidden, v_forbidden):
    """Replay a row-major doubly periodic pattern: every row against the
    horizontal forbidden words and every column against the vertical ones,
    both cyclically."""
    if len(cells) != width * height or width < 1 or height < 1:
        return False
    rows = [tuple(cells[j * width : (j + 1) * width]) for j in range(height)]
    cols = [tuple(r[i] for r in rows) for i in range(width)]
    hi, vi = forbidden_index(h_forbidden), forbidden_index(v_forbidden)
    return all(cyclic_ok(r, hi) for r in rows) and all(cyclic_ok(c, vi) for c in cols)


def _ends_clean(word, index):
    """No forbidden word ends at the last position of ``word``."""
    return not any(
        length <= len(word) and tuple(word[-length:]) in words for length, words in index.items()
    )


def cyclic_rows(alphabet, forbidden, width):
    """All words of the given width that avoid the forbidden words cyclically."""
    index = forbidden_index(forbidden)
    out = []
    word = []

    def rec():
        if len(word) == width:
            if cyclic_ok(word, index):
                out.append(tuple(word))
            return
        for s in alphabet:
            word.append(s)
            if _ends_clean(word, index):
                rec()
            word.pop()

    rec()
    return out


def small_torus(alphabet, h_forbidden, v_forbidden, width, max_height):
    """First torus of the given width and height <= max_height, as
    (row-major cells, height), or None.  Rows are stacked depth first and a
    stack is cut as soon as a column holds a forbidden word."""
    rows = cyclic_rows(alphabet, h_forbidden, width)
    vindex = forbidden_index(v_forbidden)
    for height in range(1, max_height + 1):
        stack = []

        def rec():
            if len(stack) == height:
                return all(cyclic_ok([r[i] for r in stack], vindex) for i in range(width))
            for r in rows:
                stack.append(r)
                if all(_ends_clean([q[i] for q in stack], vindex) for i in range(width)) and rec():
                    return True
                stack.pop()
            return False

        if rec():
            return [s for r in stack for s in r], height
    return None


# ---------------------------------------------------------------------------
# presentation walker


class Presentation:
    """The labelled graph that ``compile wang`` writes as JSON."""

    def __init__(self, obj):
        self.alphabet = tuple(obj["alphabet"])
        self.states = tuple(obj["states"])
        self.next = {s: {} for s in self.states}
        self.right_resolving = True
        for t in obj["transitions"]:
            row = self.next[t["from"]]
            if t["label"] in row:
                self.right_resolving = False
            row[t["label"]] = t["to"]

    def essential(self):
        """Every state has an incoming and an outgoing transition."""
        has_in = {t for row in self.next.values() for t in row.values()}
        return all(self.next[s] for s in self.states) and has_in == set(self.states)

    def walks(self, word):
        """Can ``word`` be read along some path of the graph?"""
        current = set(self.states)
        for a in word:
            current = {self.next[s][a] for s in current if a in self.next[s]}
            if not current:
                return False
        return True


# ---------------------------------------------------------------------------
# self-tests


def _brute_count(h_forbidden, v_forbidden, w, h):
    total = 0
    for flat in product("01", repeat=w * h):
        rows = ["".join(flat[j * w : (j + 1) * w]) for j in range(h)]
        cols = ["".join(r[i] for r in rows) for i in range(w)]
        if not any(f in r for f in h_forbidden for r in rows) and not any(
            f in c for f in v_forbidden for c in cols
        ):
            total += 1
    return total


def selftest():
    """Raise AssertionError when an oracle disagrees with a known value."""
    golden = ["11"]
    hard = [count_binary(golden, golden, "1", n, n) for n in range(1, 6)]
    assert hard == [2, 7, 63, 1234, 55447], hard
    no111 = ["111"]
    for w, h in ((1, 3), (2, 3), (3, 3), (4, 3), (3, 4), (2, 5)):
        for hf, vf in ((no111, golden), (golden, no111), (["00", "101"], ["11"])):
            got = count_binary(hf, vf, "1", w, h)
            assert got == _brute_count(hf, vf, w, h), (hf, vf, w, h)
    # strip bound: height-1 golden strip is the 1D golden mean shift
    phi = (1 + 5 ** 0.5) / 2
    assert abs(strip_log2_per_row(golden, golden, "1", 1) - log2(phi)) < 1e-12
    for h in (2, 3, 4, 5):
        ratio = count_binary(golden, golden, "1", 40, h) / count_binary(golden, golden, "1", 39, h)
        assert abs(strip_log2_per_row(golden, golden, "1", h) - log2(ratio) / h) < 1e-9
    # RLL capacities: golden mean, and numpy roots of the stated polynomial
    import numpy as np

    assert abs(rll_capacity(1, 10**3) - log2(phi)) < 1e-12
    for d, k in ((1, 3), (2, 7), (0, 1), (3, 5)):
        coeffs = [0.0] * (k + 3)
        coeffs[0], coeffs[1] = 1.0, -1.0
        coeffs[d + 1] -= 1.0
        coeffs[k + 2] += 1.0
        root = max(r.real for r in np.roots(coeffs) if abs(r.imag) < 1e-9)
        assert abs(rll_capacity(d, k) - log2(root)) < 1e-9, (d, k)
    assert rll_capacity(4, 4) == 0.0
    # torus replay
    cyc3 = [("a", "a"), ("a", "c"), ("b", "a"), ("b", "b"), ("c", "b"), ("c", "c")]
    assert cyclic_rows("abc", cyc3, 3) == [("a", "b", "c"), ("b", "c", "a"), ("c", "a", "b")]
    assert torus_ok(list("abcbca"), 3, 2, cyc3, [])
    assert not torus_ok(list("abcbca"), 3, 2, cyc3, [("a", "b")])
    assert not torus_ok(list("abcabc"), 3, 2, cyc3, [("a", "a")])
    assert small_torus("01", ["11"], ["11"], 2, 2) == (["0", "0"], 1)
    assert small_torus("01", ["00", "11"], ["00", "11", "01"], 2, 3) is None
    # presentation walker: the two-state golden-mean graph
    pres = Presentation(
        {
            "alphabet": ["0", "1"],
            "states": [0, 1],
            "transitions": [
                {"from": 0, "label": "0", "to": 0},
                {"from": 0, "label": "1", "to": 1},
                {"from": 1, "label": "0", "to": 0},
            ],
        }
    )
    assert pres.right_resolving and pres.essential()
    assert pres.walks("0100101") and not pres.walks("0110")


if __name__ == "__main__":
    selftest()
    print("oracle self-tests passed")
