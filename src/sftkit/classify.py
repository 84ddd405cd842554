"""Typing of strongly connected components and the decidability condition.

A strongly connected component can be of reflexive type (a loop on every
vertex), symmetric type (every edge between distinct vertices is
bidirectional), or state-split cycle type (the vertex set splits into classes
V_0..V_{p-1} with edges exactly from each class onto the whole next class).
The decidability condition holds when all components of a graph share at
least one type.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .core import (
    Digraph,
    NotStronglyConnected,
    build_rauzy,
)

TYPE_NAMES = ("reflexive", "symmetric", "state_split")


@dataclass(frozen=True)
class SccTypeSet:
    reflexive: bool
    symmetric: bool
    state_split: bool
    state_split_partition: tuple | None = None

    def names(self):
        return tuple(n for n, f in zip(TYPE_NAMES, (self.reflexive, self.symmetric, self.state_split)) if f)


@dataclass(frozen=True)
class ConditionDVerdict:
    holds: bool
    common_type: str | None
    per_scc: tuple

    def to_json(self):
        return {
            "holds": self.holds,
            "common_type": self.common_type,
            "per_scc": [list(t.names()) for t in self.per_scc],
        }


def scc_types(component):
    """Exact type flags of one strongly connected component.

    ``component`` is a Digraph, such as a RauzyGraph, that must be strongly
    connected.  For the state-split test the class partition is forced by
    breadth-first levels modulo each divisor of the graph period; divisors
    are tried from the largest down and the witness partition is stored.
    """
    if not component.is_strongly_connected():
        raise NotStronglyConnected("scc_types needs a strongly connected input")
    reflexive = all(component.has_edge(v, v) for v in component.vertices)
    symmetric = all(component.has_edge(v, u) for (u, v) in component.edges if u != v)

    # breadth-first levels from the first vertex, on vertex positions
    succ = component.index.succ
    level = [0] + [None] * (len(succ) - 1)
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in succ[u]:
                if level[v] is None:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    period = 0  # gcd of all cycle lengths
    for u, row in enumerate(succ):
        for v in row:
            period = gcd(period, level[u] + 1 - level[v])

    partition = None
    for p in sorted((d for d in range(1, period + 1) if period % d == 0), reverse=True):
        classes = [[i for i in range(len(succ)) if level[i] % p == c] for c in range(p)]
        if all(row == classes[(level[i] + 1) % p] for i, row in enumerate(succ)):
            partition = tuple(tuple(component.vertices[i] for i in c) for c in classes)
            break
    return SccTypeSet(reflexive, symmetric, partition is not None, partition)


def check_condition_d(graph):
    """Do all strongly connected components share a type?

    Transient vertices belong to no component and are ignored.
    """
    transient = set(graph.transient_vertices())
    comps = [c for c in graph.sccs() if c[0] not in transient or len(c) > 1]
    per = tuple(scc_types(graph.subgraph(c)) for c in comps)
    common = None
    for name in TYPE_NAMES:
        if per and all(name in t.names() for t in per):
            common = name
            break
    return ConditionDVerdict(common is not None, common, per)


@dataclass(frozen=True)
class PeriodicOnlyResult:
    holds: bool
    period: int | None = None

    def __bool__(self):
        return self.holds


def has_only_periodic_points(sft):
    """True iff every configuration of ``sft`` is periodic.

    Criterion: the pruned Rauzy graph is a disjoint union of simple cycles,
    i.e. every vertex has in-degree and out-degree exactly 1.  The common
    period is then the lcm of the cycle lengths.  Raises EmptyLanguage on an
    empty SFT rather than answering vacuously.
    """
    g = build_rauzy(sft)  # raises EmptyLanguage when empty
    if any(g.out_degree(v) != 1 or g.in_degree(v) != 1 for v in g.vertices):
        return PeriodicOnlyResult(False)
    period = 1
    for comp in g.sccs():
        period = lcm(period, len(comp))
    return PeriodicOnlyResult(True, period)


def scc_product(components):
    """Direct product of strongly connected graphs.

    Vertices are tuples, with an edge iff all componentwise edges exist.  The
    product of strongly connected graphs may split; the result is returned as
    a plain Digraph (use ``sccs`` on it for the decomposition).
    """
    graphs = list(components)
    if not graphs:
        raise ValueError("need at least one component")
    for g in graphs:
        if not g.is_strongly_connected():
            raise NotStronglyConnected("scc_product needs strongly connected factors")
    verts = [()]
    for g in graphs:
        verts = [v + (x,) for v in verts for x in g.vertices]
    edges = set()
    for u in verts:
        for v in verts:
            if all(g.has_edge(a, b) for g, a, b in zip(graphs, u, v)):
                edges.add((u, v))
    return Digraph(tuple(verts), frozenset(edges))
