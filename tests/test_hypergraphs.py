import random
from itertools import combinations

import pytest
from conftest import digraph, structure

from cqcount import (
    ConjunctiveQuery,
    CountingConfig,
    Graph,
    InputError,
    RelationalStructure,
    ResourceBudgetError,
    SHypergraph,
    TreeDecomposition,
    Vocabulary,
    augment,
    blowup,
    classify,
    contract,
    contract_instance,
    core_of_query,
    core_of_structure,
    count_answers,
    count_quantifier_free_td,
    decompose,
    enumerate_answers,
    free_automorphism_set,
    hom_exists,
    hypergraph_of,
    is_core,
    is_homomorphism,
    lift_to_hypergraph,
    load_database,
    pair_structure,
    parse_query,
    pin_relation_names,
    primal_graph,
    render_query,
    s_components,
    solve_vandermonde,
    star_sizes,
    star_structure,
    structure_to_dict,
    verify_decomposition,
)
from cqcount.generators import random_query
from cqcount.hypergraphs import SComponent
from cqcount.treewidth import _exact_elimination


def shg(vertices, edges, s):
    return SHypergraph(tuple(vertices), frozenset(frozenset(e) for e in edges),
                       frozenset(s))


@pytest.mark.parametrize("build, message", [
    (lambda: shg("ab", [[]], "a"), "hypergraph edges must be non-empty"),
    (lambda: shg("ab", [["a", "z"]], "a"), "edge ['a', 'z'] uses unknown vertices"),
    (lambda: shg("ab", [["a", "b"]], "az"), "the S set must be a subset of the vertices"),
    (lambda: Graph(("a", "b"), frozenset({frozenset("az")})),
     "edge ['a', 'z'] uses unknown vertices"),
    (lambda: Graph(("a", "b"), frozenset({frozenset("a")})),
     "graph edges must join two distinct vertices: ['a']"),
    (lambda: Graph(tuple("abc"), frozenset({frozenset("abc")})),
     "graph edges must join two distinct vertices: ['a', 'b', 'c']"),
], ids=["empty-edge", "unknown-vertex", "s-outside", "graph-unknown-vertex",
        "graph-loop", "graph-triple"])
def test_constructors_reject_malformed_input(build, message):
    # Whole messages: both constructors share the unknown-vertex message,
    # and each keeps its own for an edge of the wrong size.
    with pytest.raises(InputError) as info:
        build()
    assert str(info.value) == message


_Q = ConjunctiveQuery(digraph("xy", [("x", "y")]), ("x",))
_G = Graph(("a",), frozenset())
_H = hypergraph_of(_Q)
_QF = ConjunctiveQuery(_Q.structure, ("x", "y"))
_TD = decompose(primal_graph(hypergraph_of(_QF)))
# Three one-vertex bags and a tree edge with three ends.
_TRIPLE_EDGE = TreeDecomposition((frozenset("a"),) * 3, frozenset({(0, 1, 2)}), 0, "exact")


@pytest.mark.parametrize("call, expected", [
    (lambda: s_components(42), "SHypergraph"),
    (lambda: contract("x"), "SHypergraph"),
    (lambda: star_sizes(None), "SHypergraph"),
    (lambda: primal_graph(1), "SHypergraph"),
    (lambda: hypergraph_of(42), "ConjunctiveQuery"),
    (lambda: count_answers("q", _Q.structure), "ConjunctiveQuery"),
    (lambda: count_answers(_Q, "db"), "RelationalStructure"),
    (lambda: count_answers(_Q, _Q.structure, cfg="x"), "CountingConfig"),
    (lambda: classify(None), "ConjunctiveQuery"),
    (lambda: classify(_Q, cfg="x"), "CountingConfig"),
    (lambda: verify_decomposition(_G, "td"), "TreeDecomposition"),
    (lambda: core_of_structure(1), "RelationalStructure"),
    (lambda: is_core(1), "RelationalStructure"),
    (lambda: core_of_query([]), "ConjunctiveQuery"),
    (lambda: core_of_query(_Q, cfg=[]), "HomSearchConfig"),
    (lambda: pair_structure(1, 2), "RelationalStructure"),
    (lambda: blowup(None, [], 2), "PairDomainStructure"),
    (lambda: render_query(1), "ConjunctiveQuery"),
    (lambda: enumerate_answers(_Q, 1), "RelationalStructure"),
    (lambda: hom_exists(1, 2), "RelationalStructure"),
    (lambda: contract_instance(_Q, 1), "RelationalStructure"),
    (lambda: structure_to_dict(1), "RelationalStructure"),
    (lambda: CountingConfig(hom=None), "HomSearchConfig"),
    (lambda: count_quantifier_free_td(None, _Q.structure, _TD), "ConjunctiveQuery"),
    (lambda: count_quantifier_free_td(_QF, 42, _TD), "RelationalStructure"),
    (lambda: count_quantifier_free_td(_QF, _Q.structure, _TD, cfg=None), "CountingConfig"),
    (lambda: lift_to_hypergraph(_Q, None, _H), "RelationalStructure"),
    (lambda: lift_to_hypergraph(_Q, _Q.structure, _H, cfg=42), "HomSearchConfig"),
    (lambda: is_homomorphism(None, _Q.structure, {}), "RelationalStructure"),
    (lambda: is_homomorphism(_Q.structure, 42, {"x": "x", "y": "y"}), "RelationalStructure"),
    (lambda: free_automorphism_set(None), "ConjunctiveQuery"),
    (lambda: augment(None), "ConjunctiveQuery"),
    (lambda: star_structure(42), "RelationalStructure"),
    (lambda: pin_relation_names(None), "RelationalStructure"),
    (lambda: is_homomorphism(_Q.structure, _Q.structure, 42), "Mapping"),
    (lambda: parse_query(42), "str"),
    (lambda: Vocabulary("x"), "Mapping"),
    (lambda: RelationalStructure("x", "x", "x"), "Vocabulary"),
    (lambda: ConjunctiveQuery("x", "x"), "RelationalStructure"),
    (lambda: Graph(None, None), "Iterable"),
    (lambda: SHypergraph(42, 42, 42), "Iterable"),
    (lambda: blowup(42, 42, 42), "PairDomainStructure"),
    (lambda: solve_vandermonde(None, None), "Sequence"),
    (lambda: solve_vandermonde(42, [1]), "Sequence"),
    (lambda: Graph(("a",), [42]), "Iterable"),
    (lambda: SHypergraph(("a",), [42], ()), "Iterable"),
    (lambda: RelationalStructure(Vocabulary({"E": 2}), ("a",), {"E": 42}), "Iterable"),
    (lambda: RelationalStructure(Vocabulary({"E": 2}), ("a",), {"E": [42]}), "Iterable"),
    (lambda: _TRIPLE_EDGE.elimination_order, "pair of bag indices"),
    (lambda: verify_decomposition(_G, _TRIPLE_EDGE), "pair of bag indices"),
], ids=["s_components", "contract", "star_sizes", "primal_graph", "hypergraph_of",
        "count-q", "count-target", "count-cfg", "classify-q", "classify-cfg",
        "verify-td", "core_of_structure", "is_core", "core_of_query", "core_of_query-cfg",
        "pair_structure", "blowup", "render_query", "enumerate_answers", "hom_exists",
        "contract_instance", "structure_to_dict", "counting-config-hom",
        "count_quantifier_free_td-q", "count_quantifier_free_td-dst",
        "count_quantifier_free_td-cfg", "lift_to_hypergraph-b",
        "lift_to_hypergraph-cfg", "is_homomorphism-src", "is_homomorphism-dst",
        "free_automorphism_set",
        "augment", "star_structure", "pin_relation_names",
        "is_homomorphism-mapping", "parse_query",
        "Vocabulary", "RelationalStructure", "ConjunctiveQuery", "Graph", "SHypergraph",
        "blowup-all", "solve_vandermonde-none", "solve_vandermonde-nodes",
        "Graph-edge", "SHypergraph-edge", "RelationalStructure-tuples",
        "RelationalStructure-tuple",
        "elimination_order-tree-edge", "verify-tree-edge"])
def test_wrong_typed_arguments_are_input_errors(call, expected):
    with pytest.raises(InputError, match=f"expected a {expected}, got ") as info:
        call()
    assert len(str(info.value)) < 200


@pytest.mark.parametrize("make", [Graph, lambda v, e: SHypergraph(v, e, ())], ids=["Graph", "SHypergraph"])
def test_an_unhashable_edge_vertex_is_an_input_error(make):
    # the boundary test replaces whole edges; this replaces a vertex inside one
    with pytest.raises(InputError, match=r"^edge vertices must be hashable, got \[\]$"):
        make(("a",), [[[]]])


@pytest.mark.parametrize("path", [42, None, b"db.json"])
def test_load_database_rejects_a_path_of_another_type(path):
    # a path may be a str or an os.PathLike, so the message names both
    with pytest.raises(InputError, match="expected a str or os.PathLike path, got ") as info:
        load_database(path)
    assert len(str(info.value)) < 200


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


def reference_components(h):
    """The S-components of ``h``, from the BFS oracle and the definitions."""
    comps = []
    for core in naive_components(h):
        touched = frozenset(e for e in h.edges if e & core)
        closure = frozenset().union(*touched)
        comps.append(SComponent(core, touched, closure, tuple(sorted(closure & h.s_set))))
    return comps


def reference_contract_and_star_sizes(h, comps):
    s = h.s_set
    edges = {e & s for e in h.edges if e & s}
    edges |= {frozenset(p) for comp in comps for p in combinations(comp.free_scope, 2)}
    contracted = SHypergraph(tuple(v for v in h.vertices if v in s), edges, s)
    star = strict = 0
    for comp in comps:
        def adjacent(u, v, edges=comp.touched_edges):
            return any(u in e and v in e for e in edges)

        star = max(star, naive_independent_set(comp.free_scope, adjacent))
        strict = max(strict, len(comp.free_scope))
    return contracted, (star, strict)


def test_components_are_found_once_per_hypergraph(monkeypatch):
    built = []
    init = SComponent.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(SComponent, "__init__", counting_init)
    rng = random.Random(14)
    seen = set()
    for _ in range(60):
        q = random_query(rng, max_vars=6, max_free=4)
        by_function = hypergraph_of(q)
        by_constructor = SHypergraph(q.structure.domain,
                                     [t for _, t in q.structure.atoms() if t], q.free_vars)
        want = reference_components(by_function)
        want_contract, want_sizes = reference_contract_and_star_sizes(by_function, want)
        seen.add("components" if want else "quantifier-free")
        for h in (by_constructor, by_function):
            built.clear()
            for _ in range(2):
                comps = s_components(h)
                assert comps == want
                comps.append(comps[0] if comps else None)
                assert contract(h) == want_contract
                assert star_sizes(h) == want_sizes
            assert len(built) == len(want)
            # equality and hashing read the fields, not the kept components
            untouched = hypergraph_of(q)
            assert h == untouched and hash(h) == hash(untouched)
    assert seen == {"components", "quantifier-free"}


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
        assert _exact_elimination(primal_graph(contract(qf)))[1] == _exact_elimination(restricted)[1]
