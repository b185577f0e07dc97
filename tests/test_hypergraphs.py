import random
from itertools import combinations

import pytest
from conftest import digraph, structure

from cqcount import (
    ConjunctiveQuery,
    Graph,
    InputError,
    ResourceBudgetError,
    SHypergraph,
    contract,
    exact_treewidth,
    hypergraph_of,
    primal_graph,
    s_components,
    star_sizes,
)
from cqcount.generators import random_query


def shg(vertices, edges, s):
    return SHypergraph(tuple(vertices), frozenset(frozenset(e) for e in edges),
                       frozenset(s))


@pytest.mark.parametrize("build, message", [
    (lambda: shg("ab", [[]], "a"), "non-empty"),
    (lambda: shg("ab", [["a", "z"]], "a"), "unknown vertices"),
    (lambda: shg("ab", [["a", "b"]], "az"), "subset of the vertices"),
    (lambda: Graph(("a", "b"), frozenset({frozenset("az")})), "unknown vertices"),
    (lambda: Graph(("a", "b"), frozenset({frozenset("a")})), "two distinct vertices"),
    (lambda: Graph(tuple("abc"), frozenset({frozenset("abc")})), "two distinct vertices"),
], ids=["empty-edge", "unknown-vertex", "s-outside", "graph-unknown-vertex",
        "graph-loop", "graph-triple"])
def test_constructors_reject_malformed_input(build, message):
    with pytest.raises(InputError, match=message):
        build()


def test_hypergraph_of_examples():
    q = ConjunctiveQuery(digraph("xyz", [("x", "y"), ("y", "z")]), ("x",))
    h = hypergraph_of(q)
    assert set(h.vertices) == {"x", "y", "z"}
    assert h.edges == frozenset({frozenset("xy"), frozenset("yz")})
    assert h.s_set == frozenset("x")

    loop = ConjunctiveQuery(digraph("x", [("x", "x")]), ("x",))
    assert hypergraph_of(loop).edges == frozenset({frozenset("x")})

    twice = ConjunctiveQuery(
        structure({"E": 2, "F": 2}, "xy", {"E": {("x", "y")}, "F": {("y", "x")}}),
        ("x",),
    )
    assert hypergraph_of(twice).edges == frozenset({frozenset("xy")})


def test_s_components_star():
    h = shg(["c", "s1", "s2", "s3"],
            [["c", "s1"], ["c", "s2"], ["c", "s3"]],
            ["s1", "s2", "s3"])
    comps = s_components(h)
    assert len(comps) == 1
    assert comps[0].component_core == frozenset({"c"})
    assert comps[0].closure == frozenset({"c", "s1", "s2", "s3"})
    assert comps[0].touched_edges == h.edges


def test_s_components_quantifier_free():
    h = shg("xy", [["x", "y"]], "xy")
    assert s_components(h) == []


def naive_components(h):
    """BFS oracle over the quantified vertices (edge-induced adjacency)."""
    quantified = [v for v in h.vertices if v not in h.s_set]
    seen = set()
    comps = []
    for start in quantified:
        if start in seen:
            continue
        stack = [start]
        comp = set()
        while stack:
            v = stack.pop()
            if v in comp:
                continue
            comp.add(v)
            for e in h.edges:
                if v in e:
                    stack.extend(u for u in e if u not in h.s_set and u not in comp)
        seen |= comp
        comps.append(frozenset(comp))
    return sorted(comps, key=min)


def test_two_hanging_paths_give_two_components():
    h = shg(["s", "p1", "p2", "q1", "q2"],
            [["s", "p1"], ["p1", "p2"], ["s", "q1"], ["q1", "q2"]],
            ["s"])
    comps = s_components(h)
    assert [c.component_core for c in comps] == naive_components(h)
    assert len(comps) == 2
    assert comps[0].closure == frozenset({"s", "p1", "p2"})


def test_star_sizes_examples():
    leaves = ["s1", "s2", "s3"]
    plain = shg(["c"] + leaves, [["c", s] for s in leaves], leaves)
    assert star_sizes(plain) == (3, 3)

    # one big edge covering all leaves makes them pairwise adjacent
    fat = shg(["c"] + leaves,
              [["c", s] for s in leaves] + [["c", "s1", "s2", "s3"]],
              leaves)
    assert star_sizes(fat) == (1, 3)

    qf = shg("xy", [["x", "y"]], "xy")
    assert star_sizes(qf) == (0, 0)


def naive_independent_set(vertices, adjacent):
    best = 0
    vs = sorted(vertices)
    for r in range(len(vs), -1, -1):
        for combo in combinations(vs, r):
            if all(not adjacent(u, v) for u, v in combinations(combo, 2)):
                return r
    return best


def test_star_size_against_subset_oracle():
    rng = random.Random(10)
    for _ in range(40):
        q = random_query(rng, max_vars=6, max_free=4)
        h = hypergraph_of(q)
        star, strict = star_sizes(h)
        best = 0
        biggest = 0
        for comp in s_components(h):
            free_here = sorted(comp.closure & h.s_set)
            biggest = max(biggest, len(free_here))

            def adjacent(u, v, edges=comp.touched_edges):
                return any(u in e and v in e for e in edges)

            best = max(best, naive_independent_set(free_here, adjacent))
        assert (star, strict) == (best, biggest)


def test_star_size_cap():
    def star(n):
        leaves = [f"s{i}" for i in range(n)]
        return shg(["c"] + leaves, [["c", s] for s in leaves], leaves)

    assert star_sizes(star(20)) == (20, 20)
    with pytest.raises(ResourceBudgetError, match="capped at 20"):
        star_sizes(star(21))


def test_contract_examples():
    leaves = ["s1", "s2", "s3"]
    star = shg(["c"] + leaves, [["c", s] for s in leaves], leaves)
    c = contract(star)
    assert set(c.vertices) == set(leaves)
    assert c.s_set == frozenset(leaves)
    assert primal_graph(c).edges == frozenset(
        frozenset(p) for p in combinations(leaves, 2))

    # without S-components the contract is the hypergraph itself, and an
    # edge already within S is kept, not copied
    qf = shg("xy", [["x", "y"]], "xy")
    assert contract(qf) is qf
    hanging = shg("xab", [["x", "a"], ["a", "b"]], "ab")
    within = next(e for e in hanging.edges if e == frozenset("ab"))
    assert any(kept is within for kept in contract(hanging).edges)

    path = shg(["s1", "q", "s2"], [["s1", "q"], ["q", "s2"]], ["s1", "s2"])
    c = contract(path)
    assert set(c.vertices) == {"s1", "s2"}
    assert primal_graph(c).edges == frozenset({frozenset({"s1", "s2"})})


def test_contract_invariants_random():
    rng = random.Random(11)
    for _ in range(60):
        q = random_query(rng, max_vars=6, max_free=4)
        h = hypergraph_of(q)
        star, strict = star_sizes(h)
        assert star <= strict
        c = contract(h)
        assert set(c.vertices) == set(h.s_set)
        # every contracted adjacency is justified by an original edge within
        # S or by a shared component closure
        closures = [comp.closure for comp in s_components(h)]
        for e in c.edges:
            for u, v in combinations(sorted(e), 2):
                direct = any(u in orig and v in orig for orig in h.edges)
                shared = any(u in cl and v in cl for cl in closures)
                assert direct or shared


def test_quantifier_free_contract_treewidth_self_consistency():
    rng = random.Random(12)
    for _ in range(20):
        q = random_query(rng, max_vars=5, max_free=5)
        h = hypergraph_of(q)
        qf = SHypergraph(h.vertices, h.edges, frozenset(h.vertices))
        restricted = primal_graph(qf)
        assert exact_treewidth(primal_graph(contract(qf))) == exact_treewidth(restricted)
