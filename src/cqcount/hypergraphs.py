"""S-hypergraphs, S-components, star sizes, and the contract operator.

The S-hypergraph of a query has the query variables as vertices, one edge
per atom (the set of variables it mentions), and the free variables as the
distinguished set S. Connectivity is edge-induced: two vertices are
adjacent iff some edge contains both.

The ``SHypergraph`` and ``Graph`` constructors validate their input; what
is derived here from a validated query or hypergraph is not validated again.
An S-hypergraph finds its S-components once, on first use, and keeps them:
``s_components``, ``star_sizes`` and ``contract`` all read that one pass.
"""

from __future__ import annotations

from collections import abc
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import AbstractSet, Dict, Iterable, List, Tuple

from .errors import InputError, ResourceBudgetError, _hashable_items, _require
from .structures import ConjunctiveQuery, _unchecked

# Most free vertices per S-component: bounds the independent-set recursion.
STAR_SIZE_CAP = 20


def _edge_set(edges: Iterable, known: AbstractSet) -> frozenset:
    """``edges`` as a frozenset of frozensets; InputError for an edge outside ``known``."""
    result = []
    for e in _require(edges, abc.Iterable):
        e = frozenset(_hashable_items(e, "edge vertices"))
        if not e <= known:
            raise InputError(f"edge {sorted(e)!r} uses unknown vertices")
        result.append(e)
    return frozenset(result)


@dataclass(frozen=True)
class SHypergraph:
    """Vertices, non-empty edges (vertex subsets), and the free set S."""

    vertices: Tuple[str, ...]
    edges: frozenset
    s_set: frozenset

    def __post_init__(self) -> None:
        known = dict.fromkeys(_hashable_items(self.vertices, "vertices")).keys()
        edges = _edge_set(self.edges, known)
        if frozenset() in edges:
            raise InputError("hypergraph edges must be non-empty")
        s_set = frozenset(_hashable_items(self.s_set, "the S set"))
        if not s_set <= known:
            raise InputError("the S set must be a subset of the vertices")
        object.__setattr__(self, "vertices", tuple(known))
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "s_set", s_set)

    @cached_property
    def _components(self) -> Tuple[SComponent, ...]:
        """The S-components, ordered by their smallest quantified vertex.

        One union-find pass over the edges notes each edge under its first
        quantified vertex; each component takes the edges noted under its
        members. Kept on the value: equality and hashing read only the fields.
        """
        s_set = self.s_set
        parent = {v: v for v in self.vertices if v not in s_set}
        if not parent:
            return ()

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        noted = []
        for e in self.edges:
            inside = [v for v in e if v in parent]
            if not inside:
                continue
            root = find(inside[0])
            for other in inside[1:]:
                r = find(other)
                if r != root:
                    parent[r] = root
            noted.append((inside[0], e))

        groups: Dict[str, Tuple[list, list]] = {}
        for v in parent:
            groups.setdefault(find(v), ([], []))[0].append(v)
        for v, e in noted:
            groups[find(v)][1].append(e)

        comps = []
        for core, touched in sorted(groups.values(), key=lambda group: min(group[0])):
            touched = frozenset(touched)
            # An isolated quantified vertex has no touched edges; its
            # closure is the empty union, per the definition.
            closure = frozenset().union(*touched)
            comps.append(SComponent(frozenset(core), touched, closure,
                                    tuple(sorted(closure & s_set))))
        return tuple(comps)


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
        known = set(_hashable_items(self.vertices, "vertices"))
        edges = _edge_set(self.edges, known)
        for e in edges:
            if len(e) != 2:
                raise InputError(f"graph edges must join two distinct vertices: {sorted(e)!r}")
        object.__setattr__(self, "vertices", tuple(sorted(known)))
        object.__setattr__(self, "edges", edges)

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
    relations = _require(q, ConjunctiveQuery).structure.relations
    edges = frozenset([frozenset(t) for ts in relations.values() for t in ts if t])
    return _unchecked(SHypergraph, vertices=q.structure.domain, edges=edges,
                      s_set=frozenset(q.free_vars))


def s_components(h: SHypergraph) -> List[SComponent]:
    """The S-components, ordered by their smallest quantified vertex, in a new list."""
    return list(_require(h, SHypergraph)._components)


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
    star = 0
    strict = 0
    for comp in _require(h, SHypergraph)._components:
        free_here = comp.free_scope
        strict = max(strict, len(free_here))
        if len(free_here) > STAR_SIZE_CAP:
            raise ResourceBudgetError(
                f"component touches {len(free_here)} free vertices; the exact "
                f"independent-set computation is capped at {STAR_SIZE_CAP}"
            )
        adj = {v: set() for v in free_here}
        for e in comp.touched_edges:
            for u, w in combinations(e.intersection(free_here), 2):
                adj[u].add(w)
                adj[w].add(u)
        star = max(star, _max_independent_set(frozenset(free_here), adj))
    return star, strict


def contract(h: SHypergraph) -> SHypergraph:
    """Restrict to S, cliquing free vertices that share an S-component.

    Edges lose their quantified vertices (emptied edges vanish); every pair
    of free vertices lying in a common component closure gains an edge. The
    result is quantifier-free: its S set is its whole vertex set. Without
    S-components every vertex is free and the contract is ``h`` itself;
    otherwise an edge that is already all free is kept as it is, not
    copied, and so is the S set.
    """
    comps = _require(h, SHypergraph)._components
    if not comps:
        return h
    s_set = h.s_set
    new_edges = {e if e <= s_set else e & s_set for e in h.edges}
    new_edges.discard(frozenset())
    new_edges.update(frozenset(p) for comp in comps for p in combinations(comp.free_scope, 2))
    verts = tuple([v for v in h.vertices if v in s_set])
    return _unchecked(SHypergraph, vertices=verts, edges=frozenset(new_edges), s_set=s_set)


def primal_graph(h: SHypergraph) -> Graph:
    """Vertices of ``h`` with an edge for every pair sharing a hyperedge."""
    pairs = frozenset([frozenset(p) for e in _require(h, SHypergraph).edges
                       for p in combinations(e, 2)])
    return _unchecked(Graph, vertices=tuple(sorted(h.vertices)), edges=pairs)
