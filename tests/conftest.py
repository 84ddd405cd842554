from itertools import product

import numpy as np
import pytest

from sftkit.core import Digraph, Sft1D, _follow, build_rauzy, full_shift, sft_from_edges, word_in_language


@pytest.fixture(scope="session")
def golden():
    return Sft1D.from_words("01", "11")


@pytest.fixture(scope="session")
def coding_sft():
    """The 3-symbol SFT whose graph is a 3-cycle plus a chord and a loop."""
    return sft_from_edges("abc", [("a", "b"), ("b", "c"), ("c", "a"), ("c", "b"), ("c", "c")])


@pytest.fixture(scope="session")
def full2():
    return full_shift("01")


def numpy_radius(succ):
    """Largest spectral radius of numpy.linalg.eigvals over the diagonal
    blocks of the strong components, found from the transitive closure.
    Taking eigvals of the whole matrix instead would meet repeated roots of
    equal components, which numpy resolves only to about sqrt(eps)."""
    n = len(succ)
    a = np.zeros((n, n))
    for u, vs in enumerate(succ):
        for v in vs:
            a[u, v] += 1.0
    reach = (a + np.eye(n)) > 0
    for _ in range(n.bit_length()):
        reach = (reach.astype(float) @ reach.astype(float)) > 0  # exact: entries <= n
    rho = 0.0
    done = np.zeros(n, dtype=bool)
    for u in range(n):
        if not done[u]:
            comp = np.flatnonzero(reach[u] & reach[:, u])
            done[comp] = True
            rho = max(rho, float(max(abs(np.linalg.eigvals(a[np.ix_(comp, comp)])))))
    return rho


def brute_words(sft, n):
    """Independent oracle: n-words extendable far enough on both sides.

    Each word is tried after every left context of ``order`` symbols, and
    only then extended on each side: a forbidden word of at most order + 1
    symbols cannot meet both extensions past that context, but it can meet
    both sides of a shorter word.  More steps than there are order-words
    repeat a window, so a word that goes that far goes on for ever.
    """
    m = sft.order
    pad = len(sft.alphabet) ** m + n

    def extends(word, budget):
        if budget == 0:
            return True
        return any(
            extends(word + (a,), budget - 1)
            for a in sft.alphabet
            if sft.word_locally_admissible(word[-(m + 1) :] + (a,))
        )

    def extends_left(word, budget):
        if budget == 0:
            return True
        return any(
            extends_left((a,) + word, budget - 1)
            for a in sft.alphabet
            if sft.word_locally_admissible((a,) + word[: m + 1])
        )

    symbols = sft.alphabet.symbols
    return {
        w
        for w in product(symbols, repeat=n)
        if any(
            sft.word_locally_admissible(x + w) and extends(x + w, pad) and extends_left(x + w, pad)
            for x in product(symbols, repeat=m)
        )
    }


def brute_strip(H, V, h, cyclic):
    """Independent oracle for ``StripAutomaton.build(H, V, h, cyclic=cyclic)``:
    its (states, narrow, successors), from every (window, column) pair.

    The columns are the words of height h over the column rule's alphabet,
    in its order, that its own membership test accepts (``word_in_language``
    or ``is_factor``; every word without a rule), less each one with a
    symbol that starts no H-word and, for a cylinder strip, each one whose
    periodic repetition V forbids (a naive scan for an SFT).  A window of k
    columns is a k-tuple of columns, in lexicographic order of their
    positions, whose every row ``core._follow`` reads from the root of H's
    word automaton.  Window w has one successor for each column c such that
    the rows of w followed by c all read so: the window of w's columns after
    the first, then c.
    """
    g = build_rauzy(H)
    step, root = g.word_automaton

    def periodic(col):
        if V is None:
            return True
        if isinstance(V, Sft1D):
            text = col * (2 + max(map(len, V.forbidden), default=1) // len(col))
            return not any(text[x : x + len(f)] == f for f in V.forbidden for x in range(len(text) - len(f) + 1))
        return V.is_cyclic(col)

    if V is None:
        legal = product(H.alphabet.symbols, repeat=h)
    elif isinstance(V, Sft1D):
        legal = (c for c in product(V.alphabet.symbols, repeat=h) if word_in_language(V, c))
    else:
        legal = (c for c in product(V.alphabet, repeat=h) if V.is_factor(c))
    cols = [
        c for c in legal
        if all(s in step[root] for s in c) and (not cyclic or periodic(c))
    ]

    def reads(window):
        return all(_follow(step, root, tuple(cols[j][r] for j in window)) >= 0 for r in range(h))

    levels = [[()]]
    for _ in range(g.order):
        levels.append([w + (c,) for w in levels[-1] for c in range(len(cols)) if reads(w + (c,))])
    windows = levels[-1]
    index = {w: i for i, w in enumerate(windows)}
    successors = tuple(
        tuple(index[w[1:] + (c,)] for c in range(len(cols)) if reads(w + (c,))) for w in windows
    )
    states = tuple(sum((cols[j] for j in w), ()) for w in windows)
    return states, tuple(map(len, levels[1:-1])), successors


def closed_walk_count(succ, w):
    """Closed walks of w edges: the trace of the w-th power of the
    adjacency matrix, one count vector per start state."""
    total = 0
    for s in range(len(succ)):
        vec = {s: 1}
        for _ in range(w):
            nxt = {}
            for u, c in vec.items():
                for v in succ[u]:
                    nxt[v] = nxt.get(v, 0) + c
            vec = nxt
        total += vec.get(s, 0)
    return total


def graph(edge_spec, vertices=None):
    """Digraph from 'uv' strings over 1-char vertex names."""
    edges = {(e[0], e[1]) for e in edge_spec}
    if vertices is None:
        vertices = sorted({x for e in edges for x in e})
    return Digraph(tuple(vertices), frozenset(edges))


# the three graphs of the decidability-condition example
@pytest.fixture(scope="session")
def graph_reflexive():
    return graph(["ab", "bc", "ca", "cb", "aa", "bb", "cc"])


@pytest.fixture(scope="session")
def graph_symmetric():
    return graph(["ab", "ba", "bc", "cb", "ca", "ac", "bb", "cc"])


@pytest.fixture(scope="session")
def graph_statesplit():
    # classes {a,d,e} -> {b,f} -> {c} -> back
    edges = []
    for x in "ade":
        for y in "bf":
            edges.append(x + y)
    for y in "bf":
        edges.append(y + "c")
    for x in "ade":
        edges.append("c" + x)
    return graph(edges, vertices=tuple("abcdef"))


def block_cells(blocks, follow):
    """The cell NFA of a block NFA whose blocks all have one height h, as
    {state: (label, targets)}: cell t of block b is state b * h + t."""
    height = len(blocks[0][-1])
    assert all(len(word) == height for *_, word in blocks)
    nfa_next = {}
    for b, (*_, word) in enumerate(blocks):
        for t in range(height - 1):
            nfa_next[b * height + t] = (word[t], (b * height + t + 1,))
        nfa_next[b * height + height - 1] = (word[-1], tuple(c * height for c in follow[b]))
    return nfa_next


# Table-of-main-cases exemplar graphs, keyed by the expected dispatch tag
def table_exemplars():
    out = {}
    # 1.1: 5-cycle a->b->c->d->e->a with back chords b->a, c->b and a loop on e
    out["1.1"] = graph(["ab", "bc", "cd", "de", "ea", "ba", "cb", "ee"])
    # 1.2: same 5-cycle, bidirectional a<->b, chord c->b, loop on b
    out["1.2"] = graph(["ab", "bc", "cd", "de", "ea", "ba", "cb", "bb"])
    # 1.3: 5-cycle v->a->c->d->u->v with a->v, c->a chords; loops on v, c, d, u
    out["1.3"] = graph(
        ["VA", "AC", "CD", "DU", "UV", "AV", "CA", "VV", "CC", "DD", "UU"],
        vertices=tuple("VACDU"),
    )
    # 2.1: 5-cycle with bidirectional a<->b and chord c->b, no loops
    out["2.1"] = graph(["ab", "bc", "cd", "de", "ea", "ba", "cb"])
    # 2.2: 5-cycle plus a pendant bidirectional edge a<->f
    out["2.2"] = graph(["ab", "bc", "cd", "de", "ea", "af", "fa"])
    # 3.1: 5-cycle plus a 3-step detour c->f->g->d bypassing the edge c->d
    out["3.1"] = graph(["ab", "bc", "cd", "de", "ea", "cf", "fg", "gd"])
    # 3.2: 5-cycle plus a parallel path b->f->g->e and chord c->g
    out["3.2"] = graph(["ab", "bc", "cd", "de", "ea", "bf", "fg", "ge", "cg"])
    # 3.3: 5-cycle plus a disjoint 3-cycle a->f->g->a sharing only a
    out["3.3"] = graph(["ab", "bc", "cd", "de", "ea", "af", "fg", "ga"])
    return out


@pytest.fixture(scope="session")
def exemplars():
    return table_exemplars()
