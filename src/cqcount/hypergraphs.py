"""S-hypergraphs, S-components, star sizes, and the contract operator.

The S-hypergraph of a query has the query variables as vertices, one edge
per atom (the set of variables it mentions), and the free variables as the
distinguished set S. Connectivity is edge-induced: two vertices are
adjacent iff some edge contains both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .errors import InputError, ResourceBudgetError
from .structures import ConjunctiveQuery

# Most free vertices per S-component: bounds the independent-set recursion.
STAR_SIZE_CAP = 20


@dataclass(frozen=True)
class SHypergraph:
    """Vertices, non-empty edges (vertex subsets), and the free set S."""

    vertices: Tuple[str, ...]
    edges: frozenset
    s_set: frozenset

    def __post_init__(self) -> None:
        seen = set()
        verts = []
        for v in self.vertices:
            if v not in seen:
                seen.add(v)
                verts.append(v)
        edges = set()
        for e in self.edges:
            e = frozenset(e)
            if not e:
                raise InputError("hypergraph edges must be non-empty")
            if not e <= seen:
                raise InputError(f"edge {sorted(e)!r} uses unknown vertices")
            edges.add(e)
        s_set = frozenset(self.s_set)
        if not s_set <= seen:
            raise InputError("the S set must be a subset of the vertices")
        object.__setattr__(self, "vertices", tuple(verts))
        object.__setattr__(self, "edges", frozenset(edges))
        object.__setattr__(self, "s_set", s_set)


@dataclass(frozen=True)
class SComponent:
    """One connected component C of the quantified part, with its closure.

    ``touched_edges`` is every edge meeting C; ``closure`` is the union of
    those edges (C plus the free vertices it reaches). ``free_scope`` is
    the closure's free vertices in sorted order.
    """

    component_core: frozenset
    touched_edges: frozenset
    closure: frozenset
    free_scope: Tuple[str, ...]


@dataclass(frozen=True)
class Graph:
    """A plain undirected graph; vertices normalised to sorted order."""

    vertices: Tuple[str, ...]
    edges: frozenset

    def __post_init__(self) -> None:
        verts = tuple(sorted(set(self.vertices)))
        vset = set(verts)
        edges = set()
        for e in self.edges:
            e = frozenset(e)
            if len(e) != 2:
                raise InputError(f"graph edges must join two distinct vertices: {sorted(e)!r}")
            if not e <= vset:
                raise InputError(f"edge {sorted(e)!r} uses unknown vertices")
            edges.add(e)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", frozenset(edges))

    def adjacency(self) -> Dict[str, set]:
        adj = {v: set() for v in self.vertices}
        for e in self.edges:
            u, v = sorted(e)
            adj[u].add(v)
            adj[v].add(u)
        return adj


def hypergraph_of(q: ConjunctiveQuery) -> SHypergraph:
    """Vertices = variables, one edge per atom's variable set, S = free vars.

    Duplicate edges collapse; 0-ary atoms contribute no edge.
    """
    edges = {
        frozenset(t)
        for ts in q.structure.relations.values()
        for t in ts
        if t
    }
    return SHypergraph(q.structure.domain, frozenset(edges), frozenset(q.free_vars))


def s_components(h: SHypergraph) -> List[SComponent]:
    """The S-components, ordered by their smallest quantified vertex."""
    quantified = [v for v in h.vertices if v not in h.s_set]
    parent = {v: v for v in quantified}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(u, v):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[rv] = ru

    for e in h.edges:
        inside = sorted(v for v in e if v not in h.s_set)
        for other in inside[1:]:
            union(inside[0], other)

    groups: Dict[str, set] = {}
    for v in quantified:
        groups.setdefault(find(v), set()).add(v)

    comps = []
    for group in sorted(groups.values(), key=min):
        core = frozenset(group)
        touched = frozenset(e for e in h.edges if e & core)
        # An isolated quantified vertex has no touched edges; its closure is
        # the empty union, per the definition.
        closure = frozenset().union(*touched) if touched else frozenset()
        comps.append(SComponent(core, touched, closure, tuple(sorted(closure & h.s_set))))
    return comps


def _max_independent_set(avail: frozenset, adj: Dict[str, set]) -> int:
    # Exact branch on a highest-degree vertex; an edgeless remainder is
    # taken wholesale.
    if not avail:
        return 0
    v = max(avail, key=lambda x: (len(adj[x] & avail), x))
    nb = adj[v] & avail
    if not nb:
        return len(avail)
    with_v = 1 + _max_independent_set(avail - {v} - nb, adj)
    without_v = _max_independent_set(avail - {v}, adj)
    return max(with_v, without_v)


def star_sizes(h: SHypergraph) -> Tuple[int, int]:
    """(S-star size, strict S-star size) of the S-hypergraph.

    Per component, the strict size counts the free vertices in the closure;
    the plain size is the largest independent set among them, where two free
    vertices are adjacent iff a touched edge contains both. Both are 0 when
    there are no S-components. A component touching more than
    ``STAR_SIZE_CAP`` free vertices raises ResourceBudgetError.
    """
    return _star_sizes(s_components(h))


def _star_sizes(comps: List[SComponent]) -> Tuple[int, int]:
    """``star_sizes`` of the hypergraph whose S-components are ``comps``."""
    star = 0
    strict = 0
    for comp in comps:
        free_here = comp.free_scope
        strict = max(strict, len(free_here))
        if len(free_here) > STAR_SIZE_CAP:
            raise ResourceBudgetError(
                f"component touches {len(free_here)} free vertices; the exact "
                f"independent-set computation is capped at {STAR_SIZE_CAP}"
            )
        adj = {v: set() for v in free_here}
        for e in comp.touched_edges:
            inside = [v for v in sorted(e) if v in adj]
            for i, u in enumerate(inside):
                for w in inside[i + 1:]:
                    adj[u].add(w)
                    adj[w].add(u)
        star = max(star, _max_independent_set(frozenset(free_here), adj))
    return star, strict


def contract(h: SHypergraph) -> SHypergraph:
    """Restrict to S, cliquing free vertices that share an S-component.

    Edges lose their quantified vertices (emptied edges vanish); every pair
    of free vertices lying in a common component closure gains an edge. The
    result is quantifier-free: its S set is its whole vertex set.
    """
    return _contract(h, s_components(h))


def _contract(h: SHypergraph, comps: List[SComponent]) -> SHypergraph:
    """``contract(h)``, given the S-components of ``h``.

    Without S-components every vertex is free and the contract is ``h``
    itself; otherwise an edge that is already all free is kept as it is,
    not copied, and so is the S set.
    """
    if not comps:
        return h
    s_set = h.s_set
    new_edges = set()
    for e in h.edges:
        r = e if e <= s_set else frozenset(v for v in e if v in s_set)
        if r:
            new_edges.add(r)
    for comp in comps:
        for i, u in enumerate(comp.free_scope):
            for v in comp.free_scope[i + 1:]:
                new_edges.add(frozenset((u, v)))
    verts = tuple(v for v in h.vertices if v in s_set)
    return SHypergraph(verts, frozenset(new_edges), s_set)


def primal_graph(h: SHypergraph) -> Graph:
    """Vertices of ``h`` with an edge for every pair sharing a hyperedge."""
    pairs = set()
    for e in h.edges:
        inside = sorted(e)
        for i, u in enumerate(inside):
            for v in inside[i + 1:]:
                pairs.add(frozenset((u, v)))
    return Graph(tuple(sorted(h.vertices)), frozenset(pairs))
