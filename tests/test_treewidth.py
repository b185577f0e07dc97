import random
from itertools import combinations

import pytest

from cqcount import Graph, decompose, exact_treewidth, verify_decomposition
from cqcount.errors import InputError
from cqcount.treewidth import (
    EXACT,
    UPPER_BOUND,
    DecompositionError,
    TreeDecomposition,
    _minor_min_width,
    decomposition_from_order,
)


def graph(vertices, pairs):
    return Graph(tuple(vertices), frozenset(frozenset(p) for p in pairs))


def grid(n):
    vertices = [f"g{i}_{j}" for i in range(n) for j in range(n)]
    pairs = []
    for i in range(n):
        for j in range(n):
            if i + 1 < n:
                pairs.append((f"g{i}_{j}", f"g{i + 1}_{j}"))
            if j + 1 < n:
                pairs.append((f"g{i}_{j}", f"g{i}_{j + 1}"))
    return graph(vertices, pairs)


def clique(k):
    vs = [f"v{i}" for i in range(k)]
    return graph(vs, combinations(vs, 2))


def random_graph(rng, max_n=10, p=0.35):
    n = rng.randint(0, max_n)
    vs = [f"v{i}" for i in range(n)]
    pairs = [e for e in combinations(vs, 2) if rng.random() < p]
    return graph(vs, pairs)


def brute_force_elimination_width(g):
    """Exhaustive search over elimination orders, pruned by the best so far."""
    adjacency = g.adjacency()
    best = [len(g.vertices)]

    def go(adj, worst):
        if worst >= best[0]:
            return
        if not adj:
            best[0] = worst
            return
        for v in sorted(adj):
            nb = adj[v]
            smaller = {u: (s | nb) - {u, v} if u in nb else s - {v}
                       for u, s in adj.items() if u != v}
            go(smaller, max(worst, len(nb)))

    go(adjacency, -1)
    return best[0]


def test_exact_treewidth_known_values():
    tree = graph("abcde", [("a", "b"), ("a", "c"), ("c", "d"), ("c", "e")])
    assert exact_treewidth(tree) == 1
    for n in (3, 5, 8):
        vs = [f"c{i}" for i in range(n)]
        cycle = graph(vs, [(vs[i], vs[(i + 1) % n]) for i in range(n)])
        assert exact_treewidth(cycle) == 2
    for k in range(2, 11):
        assert exact_treewidth(clique(k)) == k - 1
    assert exact_treewidth(grid(3)) == 3
    assert exact_treewidth(grid(4)) == 4


def test_exact_treewidth_degenerate():
    assert exact_treewidth(graph([], [])) == -1
    assert exact_treewidth(graph("a", [])) == 0
    assert exact_treewidth(graph("ab", [])) == 0


def test_exact_treewidth_matches_elimination_brute_force():
    assert brute_force_elimination_width(grid(3)) == 3
    rng = random.Random(20)
    for _ in range(20):
        g = random_graph(rng, max_n=7)
        assert exact_treewidth(g) == brute_force_elimination_width(g)


def test_exact_treewidth_limit():
    with pytest.raises(InputError):
        exact_treewidth(clique(17))


def test_decompose_examples():
    td = decompose(graph("uv", [("u", "v")]))
    assert td.width == 1 and td.exactness == EXACT
    for k in (3, 7, 14):
        td = decompose(clique(k))
        assert td.width == k - 1 and td.exactness == EXACT
    td = decompose(grid(4))
    assert td.width == 4 and td.exactness == EXACT


def test_decompose_heuristic_path():
    g = grid(5)  # 25 vertices forces the heuristic
    td = decompose(g)
    assert td.exactness == UPPER_BOUND
    assert verify_decomposition(g, td) == td.width
    assert td.width >= 5


def test_decompose_width_dominates_exact():
    rng = random.Random(21)
    for _ in range(30):
        g = random_graph(rng, max_n=9)
        exact = exact_treewidth(g)
        assert decompose(g).width == exact
        heuristic = decompose(g, exact_threshold=0) if g.vertices else decompose(g)
        assert heuristic.width >= exact


def test_verify_decomposition_passes_on_decompose_output():
    rng = random.Random(22)
    for _ in range(60):
        g = random_graph(rng, max_n=13, p=0.3)
        td = decompose(g)
        assert verify_decomposition(g, td) == td.width


def test_verify_mutations():
    g = graph("abc", [("a", "b"), ("b", "c")])
    td = decompose(g)

    # drop a bag vertex so an edge loses its cover
    bags = list(td.bags)
    victim = next(i for i, b in enumerate(bags) if len(b) == 2)
    kept = sorted(bags[victim])[0]
    bags[victim] = frozenset({kept})
    broken = TreeDecomposition(tuple(bags), td.tree_edges, td.width, td.exactness)
    with pytest.raises(DecompositionError, match="uncovered"):
        verify_decomposition(g, broken)

    # duplicate a vertex into a far bag: occurrence set splits in two
    chain = graph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    bags = (frozenset("ab"), frozenset("bc"), frozenset("cd"), frozenset("da"))
    split = TreeDecomposition(
        bags, frozenset({(0, 1), (1, 2), (2, 3)}), 1, EXACT)
    with pytest.raises(DecompositionError, match="connectivity"):
        verify_decomposition(chain, split)

    # break the tree shape
    loose = TreeDecomposition(td.bags, frozenset(), td.width, td.exactness)
    with pytest.raises(DecompositionError, match="tree"):
        verify_decomposition(g, loose)

    # lie about the width
    wrong = TreeDecomposition(td.bags, td.tree_edges, td.width + 1, td.exactness)
    with pytest.raises(DecompositionError, match="width"):
        verify_decomposition(g, wrong)

    # no bags; a tree edge out of range; a cycle beside an isolated bag
    with pytest.raises(DecompositionError, match="no bags"):
        verify_decomposition(g, TreeDecomposition((), frozenset(), -1, EXACT))
    far = TreeDecomposition(td.bags, frozenset({(0, len(td.bags))}), td.width, EXACT)
    with pytest.raises(DecompositionError, match="bad tree edge"):
        verify_decomposition(g, far)
    cycle = TreeDecomposition(bags, frozenset({(0, 1), (1, 2), (0, 2)}), 1, EXACT)
    with pytest.raises(DecompositionError, match="not connected"):
        verify_decomposition(chain, cycle)

    # a bag vertex outside the graph; a graph vertex in no bag
    alien = TreeDecomposition((frozenset("abz"),), frozenset(), 2, EXACT)
    with pytest.raises(DecompositionError, match="unknown vertices"):
        verify_decomposition(g, alien)
    with pytest.raises(DecompositionError, match="vertex 'd' uncovered"):
        verify_decomposition(graph("abcd", [("a", "b"), ("b", "c")]), td)


def test_decomposition_from_order_disconnected():
    g = graph("abcd", [("a", "b"), ("c", "d")])
    td = decomposition_from_order(g, ["a", "b", "c", "d"], EXACT)
    assert verify_decomposition(g, td) == 1


def test_minor_min_width_is_a_lower_bound():
    rng = random.Random(24)
    tight = 0
    for _ in range(200):
        g = random_graph(rng, max_n=10, p=rng.choice([0.2, 0.35, 0.5, 0.7]))
        exact = exact_treewidth(g)
        bound = _minor_min_width(g)
        assert bound <= exact
        tight += bound == exact
        td = decompose(g)
        if td.exactness == EXACT:
            assert td.width == exact
    assert tight >= 150


def test_minor_min_width_known_values():
    assert _minor_min_width(graph([], [])) == -1
    assert _minor_min_width(graph("ab", [])) == 0
    assert _minor_min_width(graph("abcde", [("a", "b"), ("a", "c"), ("c", "d")])) == 1
    for k in (2, 5, 9):
        assert _minor_min_width(clique(k)) == k - 1
    assert _minor_min_width(grid(3)) == 3
    assert _minor_min_width(grid(4)) == 4
