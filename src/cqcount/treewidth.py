"""Tree decompositions: exact widths on small graphs, min-fill otherwise.

Both paths produce an elimination order and build the decomposition from
it: eliminating a vertex bags it with its current neighbourhood, which is
then cliqued. The heuristic picks the vertex needing the fewest fill
edges; on small graphs a minor-min-width lower bound often certifies that
order as optimal. Otherwise the exact path minimises the worst elimination
degree by dynamic programming over vertex subsets (bitmask encoded).
Decompositions carry an exactness flag so callers never mistake an upper
bound for the truth.

The convention ``width = max bag size - 1`` makes the empty graph width -1
(one empty bag).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Dict, List, Tuple

from .errors import InputError
from .hypergraphs import Graph

EXACT = "exact"
UPPER_BOUND = "upper_bound"

# 2^16 DP entries is the largest table we are willing to fill exactly.
DEFAULT_EXACT_THRESHOLD = 16

# Decompositions kept for reuse, least recently used evicted first. Distinct
# queries often share one contract graph, and a core without quantified
# variables is its own contract graph.
DECOMPOSITION_CACHE_SIZE = 256


class DecompositionError(InputError):
    """A tree decomposition failed verification."""


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags, tree edges over bag indices, width, and an exactness flag."""

    bags: Tuple[frozenset, ...]
    tree_edges: frozenset
    width: int
    exactness: str


def _require_graph(obj: Graph) -> Graph:
    if isinstance(obj, Graph):
        return obj
    raise InputError(f"expected a Graph, got {type(obj).__name__}")


def _exact_elimination(g: Graph, limit: int) -> Tuple[List[str], int]:
    """An elimination order whose worst degree equals the treewidth.

    f(S) = best-possible worst degree over orders eliminating exactly S
    first; the transition removes the vertex eliminated last. Its degree at
    that point counts the vertices outside S reachable from it through S.
    Reachability uses a precomputed neighbourhood-union table indexed by
    vertex masks, so each fixpoint step is a couple of integer operations.
    """
    vs = list(g.vertices)
    n = len(vs)
    if n > limit:
        raise InputError(f"exact treewidth handles at most {limit} vertices, got {n}")
    if n == 0:
        return [], -1
    index = {v: i for i, v in enumerate(vs)}
    adj = [0] * n
    for e in g.edges:
        i, j = sorted(index[v] for v in e)
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    size = 1 << n
    nu = [0] * size
    for m in range(1, size):
        low = m & -m
        nu[m] = nu[m ^ low] | adj[low.bit_length() - 1]
    infinity = n + 1
    f = [0] * size
    f[0] = -1
    choice = [-1] * size
    for m in range(1, size):
        best = infinity
        best_v = -1
        mm = m
        while mm:
            low = mm & -mm
            mm ^= low
            prev = m ^ low
            # Close v's reach under the already-eliminated set prev.
            r = low
            while True:
                grown = r | (nu[r] & prev)
                if grown == r:
                    break
                r = grown
            degree = (nu[r] & ~m).bit_count()
            prior = f[prev]
            cand = prior if prior > degree else degree
            if cand < best:
                best = cand
                best_v = low.bit_length() - 1
        f[m] = best
        choice[m] = best_v
    order_last_first = []
    m = size - 1
    while m:
        v = choice[m]
        order_last_first.append(vs[v])
        m ^= 1 << v
    return order_last_first[::-1], f[size - 1]


def exact_treewidth(obj: Graph, limit: int = DEFAULT_EXACT_THRESHOLD) -> int:
    """The exact treewidth, by subset dynamic programming."""
    return _exact_elimination(_require_graph(obj), limit)[1]


def _fill_in(adjacency: Dict[str, set], v: str) -> int:
    """How many edges eliminating v would add: non-adjacent neighbour pairs."""
    nb = adjacency[v]
    return sum(1 for u in nb for w in nb if u < w and w not in adjacency[u])


def _min_fill_elimination(g: Graph) -> List[str]:
    """Minimum-fill-in elimination order (tie break: vertex name).

    Fill counts live in a heap with lazy deletion. Eliminating v changes the
    neighbourhood of v's neighbours and the edges between their neighbours,
    so only those vertices are re-scored.
    """
    adjacency = g.adjacency()
    fills = {v: _fill_in(adjacency, v) for v in adjacency}
    heap = [(f, v) for v, f in fills.items()]
    heapq.heapify(heap)
    order = []
    while heap:
        f, v = heapq.heappop(heap)
        if fills.get(v) != f:
            continue
        order.append(v)
        del fills[v]
        nb = adjacency.pop(v)
        touched = set(nb)
        for u in nb:
            adjacency[u].discard(v)
            adjacency[u].update(nb - {u})
            touched |= adjacency[u]
        for u in touched:
            f = _fill_in(adjacency, u)
            if f != fills[u]:
                fills[u] = f
                heapq.heappush(heap, (f, u))
    return order


def _minor_min_width(g: Graph) -> int:
    """A lower bound on the treewidth by minor-min-width (Gogate & Dechter).

    Treewidth is at least the minimum degree and never grows under edge
    contraction, so the bound repeatedly records the minimum degree, then
    contracts a minimum-degree vertex into its neighbour with the fewest
    common neighbours (ties: lower degree, then name), or deletes it when
    isolated.
    """
    adjacency = g.adjacency()
    bound = -1
    while adjacency:
        v = min(adjacency, key=lambda x: (len(adjacency[x]), x))
        nb = adjacency.pop(v)
        if len(nb) > bound:
            bound = len(nb)
        for u in nb:
            adjacency[u].discard(v)
        if nb:
            u = min(nb, key=lambda x: (len(adjacency[x] & nb), len(adjacency[x]), x))
            for w in nb - {u}:
                adjacency[w].add(u)
                adjacency[u].add(w)
    return bound


def decomposition_from_order(g: Graph, order: List[str], exactness: str) -> TreeDecomposition:
    """Bags from an elimination order, linked into a tree.

    Bag i holds order[i] plus its neighbourhood at elimination time and
    attaches to the bag of the earliest-eliminated such neighbour (the
    neighbourhood is cliqued, so it survives intact into that bag). A bag
    without later neighbours chains to the next one, which keeps
    disconnected graphs in a single tree.
    """
    if set(order) != set(g.vertices) or len(order) != len(g.vertices):
        raise InputError("elimination order must list every vertex exactly once")
    n = len(order)
    if n == 0:
        return TreeDecomposition((frozenset(),), frozenset(), -1, exactness)
    pos = {v: i for i, v in enumerate(order)}
    adjacency = g.adjacency()
    bags = []
    for v in order:
        nb = adjacency.pop(v)
        bags.append(frozenset(nb | {v}))
        for u in nb:
            adjacency[u].discard(v)
            adjacency[u].update(nb - {u})
    edges = set()
    for i, v in enumerate(order):
        rest = bags[i] - {v}
        if rest:
            j = min(pos[u] for u in rest)
            edges.add((i, j) if i < j else (j, i))
        elif i + 1 < n:
            edges.add((i, i + 1))
    width = max(len(b) for b in bags) - 1
    return TreeDecomposition(tuple(bags), frozenset(edges), width, exactness)


@lru_cache(maxsize=DECOMPOSITION_CACHE_SIZE)
def decompose(obj: Graph, exact_threshold: int = DEFAULT_EXACT_THRESHOLD) -> TreeDecomposition:
    """A valid tree decomposition: exact up to the threshold, min-fill above.

    A hypergraph is decomposed by passing its ``primal_graph``. Every
    graph gets a min-fill decomposition first. Above the threshold it is
    returned as an upper bound. Within the threshold it is flagged exact when the
    minor-min-width lower bound equals its width; only when the bound falls
    short does the subset DP run for an optimal order. The result is always
    verified before being returned.

    Results are memoised by (graph value, threshold) and shared between
    callers; they are immutable.
    """
    g = _require_graph(obj)
    td = decomposition_from_order(g, _min_fill_elimination(g), UPPER_BOUND)
    if len(g.vertices) <= exact_threshold:
        if _minor_min_width(g) == td.width:
            td = replace(td, exactness=EXACT)
        else:
            order, _ = _exact_elimination(g, exact_threshold)
            td = decomposition_from_order(g, order, EXACT)
    verify_decomposition(g, td)
    return td


def verify_decomposition(obj: Graph, td: TreeDecomposition) -> int:
    """Check the three decomposition axioms plus tree shape; return the width.

    Raises DecompositionError naming the first failure: vertex or edge
    uncovered, occurrence connectivity, malformed tree, width mismatch.
    """
    g = _require_graph(obj)
    bags = td.bags
    if not bags:
        raise DecompositionError("decomposition has no bags")
    k = len(bags)
    adj: Dict[int, set] = {i: set() for i in range(k)}
    for edge in td.tree_edges:
        i, j = edge
        if not (0 <= i < j < k):
            raise DecompositionError(f"bad tree edge {edge!r}")
        adj[i].add(j)
        adj[j].add(i)
    if len(td.tree_edges) != k - 1:
        raise DecompositionError("tree edge count is wrong for a tree")
    seen = {0}
    stack = [0]
    while stack:
        for j in adj[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    if len(seen) != k:
        raise DecompositionError("tree is not connected")
    vset = set(g.vertices)
    bagged = set().union(*bags)
    if not bagged <= vset:
        raise DecompositionError(f"bags mention unknown vertices {sorted(bagged - vset)!r}")
    missing = vset - bagged
    if missing:
        raise DecompositionError(f"vertex {sorted(missing)[0]!r} uncovered")
    occ: Dict[str, List[int]] = {v: [] for v in vset}
    for i, b in enumerate(bags):
        for v in b:
            occ[v].append(i)
    for e in g.edges:
        u, w = e
        if not any(w in bags[i] for i in occ[u]):
            raise DecompositionError(f"edge {sorted(e)!r} uncovered")
    # The bags holding v induce a forest in the tree; it is connected
    # exactly when it has one tree edge fewer than it has bags.
    inner = dict.fromkeys(vset, 0)
    for i, j in td.tree_edges:
        for v in bags[i] & bags[j]:
            inner[v] += 1
    for v in sorted(vset):
        if inner[v] != len(occ[v]) - 1:
            raise DecompositionError(f"occurrence bags of {v!r} violate connectivity")
    width = max(len(b) for b in bags) - 1
    if width != td.width:
        raise DecompositionError(f"stored width {td.width} but bags give {width}")
    return width
