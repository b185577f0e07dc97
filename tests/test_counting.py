import json
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from conftest import digraph, naive_answer_set, structure

from cqcount import (
    CASE_I,
    CASE_II,
    CASE_III,
    ConjunctiveQuery,
    CountingConfig,
    HomSearchConfig,
    InputError,
    RelationalStructure,
    ResourceBudgetError,
    TrichotomyReport,
    Vocabulary,
    classify,
    contract,
    contract_instance,
    core_of_query,
    count_answers,
    count_answers_brute,
    count_quantifier_free_td,
    decompose,
    enumerate_answers,
    hom_exists,
    hypergraph_of,
    primal_graph,
    render_query,
    s_components,
    star_sizes,
    structure_to_dict,
)
from cqcount import counting
from cqcount.cli import main
from cqcount.generators import (
    boolean_clique_query,
    clique_graph,
    quantified_star_query,
    quantifier_free_path_query,
    random_instance,
)
from cqcount.homomorphisms import _is_forest, _search
from cqcount.treewidth import (
    EXACT,
    UPPER_BOUND,
    DecompositionError,
    TreeDecomposition,
    _decompose,
    decomposition_from_order,
)

STRUCTURAL = CountingConfig(mode="structural")
BRUTE = CountingConfig(mode="brute")
TRIANGLE = digraph("abc", [("a", "b"), ("b", "c"), ("c", "a")])


def component_projection(q, b, cfg=CountingConfig()):
    """The scope and rows of the one component atom ``contract_instance`` adds for ``q``."""
    left, right = contract_instance(q, b, cfg)
    (scope,) = left.structure.tuples("__comp_0")
    return scope, right.tuples("__comp_0")


def test_component_projection_out_degree():
    q = ConjunctiveQuery(digraph(["s", "y"], [("s", "y")]), ("s",))
    b = digraph("uvw", [("u", "v"), ("v", "w")])
    scope, rows = component_projection(q, b)
    assert scope == ("s",)
    assert rows == frozenset({("u",), ("v",)})


def test_component_projection_boolean():
    q = ConjunctiveQuery(digraph(["x", "y"], [("x", "y")]), ())
    b_yes = digraph("uv", [("u", "v")])
    b_no = digraph("uv", [])
    assert component_projection(q, b_yes) == ((), frozenset({()}))
    assert component_projection(q, b_no) == ((), frozenset())


def test_component_projection_distance_two():
    q = ConjunctiveQuery(
        digraph(["s1", "q", "s2"], [("s1", "q"), ("q", "s2")]), ("s1", "s2"))
    cycle = digraph("0123", [("0", "1"), ("1", "2"), ("2", "3"), ("3", "0")])
    scope, rows = component_projection(q, cycle)
    assert scope == ("s1", "s2")
    expected = {
        (u, v)
        for u in cycle.domain
        for v in cycle.domain
        if any((u, m) in cycle.tuples("E") and (m, v) in cycle.tuples("E")
               for m in cycle.domain)
    }
    assert rows == frozenset(expected)


def test_component_projection_budget_is_the_enumeration_cap():
    star = quantified_star_query(3)
    b = digraph("uvw", [("u", "u"), ("u", "v"), ("w", "w")])
    over = CountingConfig(hom=HomSearchConfig(enumeration_cap=3 ** 3 - 1))
    with pytest.raises(ResourceBudgetError, match="enumeration cap"):
        component_projection(star, b, over)
    exact = CountingConfig(hom=HomSearchConfig(enumeration_cap=3 ** 3))
    scope, rows = component_projection(star, b, exact)
    assert scope == ("s1", "s2", "s3")
    assert rows == frozenset(product("uv", repeat=3)) | {("w", "w", "w")}
    assert component_projection(star, b) == (scope, rows)


def test_contract_instance_quantifier_free_is_identity():
    q = ConjunctiveQuery(digraph("xy", [("x", "y")]), ("x", "y"))
    left, right = contract_instance(q, TRIANGLE)
    assert left == q
    assert right == TRIANGLE


def test_contract_instance_star():
    star = quantified_star_query(3)
    b = digraph("uv", [("u", "u"), ("u", "v")])
    left, right = contract_instance(star, b)
    fresh = "__comp_0"
    assert left.structure.vocabulary.arity(fresh) == 3
    assert left.structure.tuples(fresh) == frozenset({("s1", "s2", "s3")})
    assert left.structure.tuples("E") == frozenset()
    # the projection: all leaf triples reachable from one centre value
    expected = {
        triple
        for triple in product(b.domain, repeat=3)
        if any(all((c, s) in b.tuples("E") for s in triple) for c in b.domain)
    }
    assert right.tuples(fresh) == frozenset(expected)


def test_contract_instance_wider_than_user_arities():
    # the strict star size, 9, exceeds the 1..8 limit on user relations
    star = quantified_star_query(9)
    b = digraph("uvw", [("u", "u"), ("u", "v"), ("w", "w")])
    left, right = contract_instance(star, b)
    fresh = "__comp_0"
    assert left.structure.vocabulary.arity(fresh) == 9
    assert len(right.tuples(fresh)) == 2 ** 9 + 1
    assert count_answers(star, b, STRUCTURAL) == 2 ** 9 + 1


def test_star_over_the_star_size_cap_is_counted():
    # star_size_cap bounds star_sizes only; the projection has 1^21 = 1 candidate
    star = quantified_star_query(21)
    loop = digraph("u", [("u", "u")])
    assert count_answers(star, loop) == 1
    with pytest.raises(ResourceBudgetError):
        classify(star)


def test_contract_instance_boolean_components():
    q = ConjunctiveQuery(digraph("xy", [("x", "y")]), ())
    left, right = contract_instance(q, TRIANGLE)
    fresh = "__comp_0"
    assert left.structure.vocabulary.arity(fresh) == 0
    assert count_quantifier_free_td(left, right, decompose(primal_graph(hypergraph_of(left)))) == 1
    assert hom_exists(q.structure, TRIANGLE)

    empty = digraph("ab", [])
    left, right = contract_instance(q, empty)
    assert right.tuples(fresh) == frozenset()


def test_arc_consistent_cyclic_boolean_components_count_zero():
    # Arc consistency keeps every value in both instances, yet neither has a
    # solution: a Boolean component whose atoms close a cycle is searched.
    c6 = digraph("012345", [(str(i), str((i + 1) % 6)) for i in range(6)])
    twice = structure({"R": 2, "S": 2}, "xy", {"R": {("x", "y")}, "S": {("x", "y")}})
    swap_or_stay = structure({"R": 2, "S": 2}, "pq", {"R": {("p", "q"), ("q", "p")},
                                                     "S": {("p", "p"), ("q", "q")}})
    for a, b in ((TRIANGLE, c6), (twice, swap_or_stay)):
        q = ConjunctiveQuery(a, ())
        assert not _is_forest(a.atoms())
        assert _search(a, b).feasible
        assert count_answers(q, b) == count_answers_brute(q, b) == 0
        assert not hom_exists(a, b)


def test_acyclic_boolean_components_match_the_oracles():
    # Arc consistency alone decides a component whose atoms form a forest.
    rng = random.Random(43)
    outcomes = []
    for _ in range(400):
        q, b = random_instance(rng, max_vars=5, max_free=2, max_target=3)
        components = counting._analyse(q, HomSearchConfig()).components
        if any(not scope and _is_forest(atoms) for scope, atoms, _ in components):
            want = len(naive_answer_set(q, b))
            assert count_answers(q, b) == count_answers_brute(q, b) == want
            outcomes.append(want > 0)
    assert len(outcomes) >= 30 and len(set(outcomes)) == 2


def test_contract_instance_preserves_answer_sets():
    rng = random.Random(40)
    for _ in range(80):
        q, b = random_instance(rng, max_vars=5, max_free=3, max_target=4)
        core = core_of_query(q)
        left, right = contract_instance(core, b)
        assert set(enumerate_answers(core, b)) == set(enumerate_answers(left, right))


def test_contract_instance_matches_naive_oracle():
    # Against the enumeration oracle of conftest, independent of the search
    # that builds the projections, on the shapes a contract must get right.
    rng = random.Random(46)
    seen = set()
    for trial in range(160):
        q, b = random_instance(rng, max_vars=5, max_free=3, max_target=3)
        if trial % 6 == 0:
            b = RelationalStructure(b.vocabulary, (), {})
        used = {v for _, t in q.structure.atoms() for v in t}
        for query in (q, core_of_query(q)):
            left, right = contract_instance(query, b)
            assert naive_answer_set(left, right) == naive_answer_set(q, b)
            arities = left.structure.vocabulary.symbols
            if any(arities[n] == 0 for n in arities if n.startswith("__comp_")):
                seen.add("boolean component")
        if set(q.quantified_vars) - used:
            seen.add("isolated quantified variable")
        if any(len(set(t)) < len(t) for _, t in q.structure.atoms()):
            seen.add("repeated variable")
        if not b.domain:
            seen.add("empty target domain")
    assert seen == {"boolean component", "isolated quantified variable",
                    "repeated variable", "empty target domain"}


def test_contract_instance_keeps_a_query_relation_named_like_a_component():
    # Only the parser and the database loader reject "__" names; the Python
    # API accepts them, so the component relation needs a fresh name.
    vocab = Vocabulary({"E": 2, "__comp_0": 1})
    q = ConjunctiveQuery(RelationalStructure(
        vocab, ("x", "a", "b"), {"E": {("x", "a")}, "__comp_0": {("b",)}}), ("a", "b"))
    b = RelationalStructure(vocab, ("p", "q", "r"),
                            {"E": {("p", "q"), ("q", "r")}, "__comp_0": {("p",)}})
    assert count_answers_brute(q, b) == 2
    left, right = contract_instance(q, b)
    assert count_answers_brute(left, right) == 2
    assert left.structure.tuples("__comp_0") == frozenset({("b",)})
    assert right.tuples("__comp_0") == frozenset({("p",)})
    assert left.structure.tuples("__comp1_0") == frozenset({("a",)})


def test_contracted_hypergraph_matches_contract_of_core():
    rng = random.Random(41)
    for _ in range(60):
        q, b = random_instance(rng, max_vars=5, max_free=3, max_target=4)
        core = core_of_query(q)
        left, _ = contract_instance(core, b)
        assert primal_graph(hypergraph_of(left)) == primal_graph(
            contract(hypergraph_of(core)))


def test_dp_single_atom():
    q = ConjunctiveQuery(digraph("xy", [("x", "y")]), ("x", "y"))
    b = digraph("uvw", [("u", "v"), ("v", "w"), ("u", "w")])
    td = decompose(primal_graph(hypergraph_of(q)))
    assert count_quantifier_free_td(q, b, td) == 3


def test_dp_free_product():
    q = ConjunctiveQuery(structure({"E": 2}, "xy", {}), ("x", "y"))
    b = digraph("uvw", [])
    td = decompose(primal_graph(hypergraph_of(q)))
    assert count_quantifier_free_td(q, b, td) == 9


def test_dp_grid_query_into_k3():
    variables = ["a", "b", "c", "d"]
    arcs = [("a", "b"), ("c", "d"), ("a", "c"), ("b", "d")]
    q = ConjunctiveQuery(digraph(variables, arcs), tuple(variables))
    k3 = clique_graph(3)
    td = decompose(primal_graph(hypergraph_of(q)))
    want = count_answers_brute(q, k3)
    assert count_quantifier_free_td(q, k3, td) == want


def test_dp_rejects_quantified_queries():
    from cqcount import InputError

    q = ConjunctiveQuery(digraph("xy", [("x", "y")]), ("x",))
    td = decompose(primal_graph(hypergraph_of(q)))
    with pytest.raises(InputError):
        count_quantifier_free_td(q, TRIANGLE, td)


def random_quantifier_free_instance(rng):
    """A quantifier-free query and a target over 0- to 3-ary symbols.

    Variables may repeat inside an atom or occur in none; relations may be
    empty and the target domain may be empty.
    """
    symbols = {"Z": 0, "U": 1, "E": 2, "T": 3}
    variables = [f"x{i}" for i in range(rng.randint(0, 6))]
    atoms = {name: set() for name in symbols}
    for _ in range(rng.randint(0, 6)):
        name = rng.choice(sorted(symbols))
        if variables or not symbols[name]:
            atoms[name].add(tuple(rng.choice(variables) for _ in range(symbols[name])))
    q = ConjunctiveQuery(structure(symbols, variables, atoms), tuple(variables))
    elements = [f"b{i}" for i in range(rng.randint(0, 4))]
    relations = {}
    for name, arity in symbols.items():
        density = rng.choice([0.0, 0.3, 0.7, 1.0])
        relations[name] = {row for row in product(elements, repeat=arity)
                           if rng.random() < density}
    return q, structure(symbols, elements, relations)


def test_dp_matches_brute_under_any_decomposition(monkeypatch):
    rng = random.Random(44)
    seen = set()
    # every table handed to _join, with a copy taken when it was handed over;
    # atoms of one relation share a table, so none may be changed in place
    joined = []
    real_join = counting._join

    def join(left, right, drop=None):
        joined.extend((table, dict(table)) for _, table in (left, right))
        return real_join(left, right, drop)

    monkeypatch.setattr(counting, "_join", join)
    for _ in range(300):
        q, b = random_quantifier_free_instance(rng)
        atoms = q.structure.atoms()
        used = {v for _, t in atoms for v in t}
        seen.update(
            {"repeat" for _, t in atoms if len(set(t)) < len(t)}
            | {"0-ary" for _, t in atoms if not t}
            | {"empty relation" for name, t in atoms if not b.tuples(name)}
            | ({"isolated"} if set(q.structure.domain) - used else set())
            | ({"empty domain"} if not b.domain and q.structure.domain else set())
            | {"shared relation" for ts in q.structure.relations.values()
               if sum(len(set(t)) == len(t) > 0 for t in ts) > 1}
        )
        g = primal_graph(hypergraph_of(q))
        order = list(g.vertices)
        rng.shuffle(order)
        want = count_answers_brute(q, b)
        assert count_quantifier_free_td(q, b, decompose(g)) == want
        assert count_quantifier_free_td(
            q, b, decomposition_from_order(g, order, UPPER_BOUND)) == want
        assert all(table == snapshot for table, snapshot in joined)
        joined.clear()
    assert seen == {"repeat", "0-ary", "empty relation", "isolated", "empty domain",
                    "shared relation"}


def naive_join(left, right, drop=None):
    """Nested-loop join of two factors, as a map from assignments to counts."""
    out = {}
    for lrow, lcnt in left[1].items():
        for rrow, rcnt in right[1].items():
            a, b = dict(zip(left[0], lrow)), dict(zip(right[0], rrow))
            if all(a[v] == b[v] for v in a.keys() & b.keys()):
                merged = {**a, **b}
                merged.pop(drop, None)
                key = frozenset(merged.items())
                out[key] = out.get(key, 0) + lcnt * rcnt
    return out


def test_join_matches_nested_loop():
    rng = random.Random(7)
    seen = set()

    def factor(variables):
        rows = product("abc", repeat=len(variables))
        return variables, {row: rng.randint(1, 4) for row in rows if rng.random() < 0.6}

    for _ in range(400):
        left_vars = tuple(rng.sample("uvwxy", rng.randint(1, 4)))
        right_vars = tuple(rng.sample("uvwxy", rng.randint(0, 3)))
        drop = rng.choice([None, rng.choice(left_vars)])
        left, right = factor(left_vars), factor(right_vars)
        scope, table = counting._join(left, right, drop)
        assert sorted(scope) == sorted((set(left_vars) | set(right_vars)) - {drop})
        got = {frozenset(zip(scope, row)): cnt for row, cnt in table.items()}
        assert got == naive_join(left, right, drop)
        if drop is not None:
            seen.add("sum-out")
        elif set(right_vars) <= set(left_vars):
            seen.add("filter")
        else:
            seen.add("plain")
    assert seen == {"filter", "plain", "sum-out"}


def shaped_quantifier_free_instance(rng):
    """A grid or cycle query whose edges may be duplicated, over a random target.

    A duplicated edge repeats its scope in a second relation or reversed,
    and unary atoms cover some vertices, so many factors lie within
    another's scope.
    """
    if rng.random() < 0.5:
        rows, cols = rng.randint(2, 3), rng.randint(2, 3)
        cell = [[f"g{i}_{j}" for j in range(cols)] for i in range(rows)]
        variables = [v for row in cell for v in row]
        edges = [(cell[i][j], cell[i][j + 1]) for i in range(rows) for j in range(cols - 1)]
        edges += [(cell[i][j], cell[i + 1][j]) for i in range(rows - 1) for j in range(cols)]
    else:
        variables = [f"c{i}" for i in range(rng.randint(3, 6))]
        edges = list(zip(variables, variables[1:] + variables[:1]))
    atoms = {"E": set(edges), "F": set()}
    for u, v in edges:
        roll = rng.random()
        if roll < 0.3:
            atoms["F"].add((u, v))
        elif roll < 0.5:
            atoms["E"].add((v, u))
    atoms["U"] = {(v,) for v in variables if rng.random() < 0.3}
    symbols = {"E": 2, "F": 2, "U": 1}
    q = ConjunctiveQuery(structure(symbols, variables, atoms), tuple(variables))
    elements = [f"b{i}" for i in range(rng.randint(2, 3))]
    relations = {
        name: {row for row in product(elements, repeat=arity)
               if rng.random() < rng.choice([0.5, 0.8, 1.0])}
        for name, arity in symbols.items()
    }
    return q, structure(symbols, elements, relations)


def test_filter_first_elimination_matches_brute(monkeypatch):
    rng = random.Random(45)
    seen = set()
    absorbing = []
    real_join, real_absorb = counting._join, counting._absorb

    def join(left, right, drop=None):
        if absorbing:
            # absorption only filters: it never widens a product or sums
            assert drop is None and set(right[0]) <= set(left[0])
            seen.add("absorbed")
        elif drop is None and set(right[0]) <= set(left[0]):
            seen.add("bucket semijoin")
        return real_join(left, right, drop)

    def absorb(message, buckets, pos):
        absorbing.append(True)
        try:
            out = real_absorb(message, buckets, pos)
        finally:
            absorbing.pop()
        # the bucket being eliminated is None; a product still holding its
        # variable has not been summed yet
        if out is not message and any(buckets[pos[v]] is None for v in message[0]):
            seen.add("absorbed before the sum")
        return out

    monkeypatch.setattr(counting, "_join", join)
    monkeypatch.setattr(counting, "_absorb", absorb)
    for _ in range(120):
        q, b = shaped_quantifier_free_instance(rng)
        g = primal_graph(hypergraph_of(q))
        order = list(g.vertices)
        rng.shuffle(order)
        want = count_answers_brute(q, b)
        assert count_quantifier_free_td(q, b, decompose(g)) == want
        assert count_quantifier_free_td(
            q, b, decomposition_from_order(g, order, UPPER_BOUND)) == want
    assert seen == {"absorbed", "absorbed before the sum", "bucket semijoin"}


def test_dp_rejects_invalid_decompositions():
    q = ConjunctiveQuery(digraph("xyz", [("x", "y"), ("y", "z")]), ("x", "y", "z"))
    singletons = TreeDecomposition(
        (frozenset("x"), frozenset("y"), frozenset("z")),
        frozenset({(0, 1), (1, 2)}), 0, UPPER_BOUND)
    with pytest.raises(DecompositionError, match="uncovered"):
        count_quantifier_free_td(q, TRIANGLE, singletons)
    split = TreeDecomposition(
        (frozenset("xy"), frozenset("z"), frozenset("yz")),
        frozenset({(0, 1), (1, 2)}), 1, UPPER_BOUND)
    with pytest.raises(DecompositionError, match="connectivity"):
        count_quantifier_free_td(q, TRIANGLE, split)


def test_long_quantifier_free_path(tmp_path, capsys):
    q, k3 = quantifier_free_path_query(1200), clique_graph(3)
    assert count_answers(q, k3) == 3 * 2 ** 1200
    db_path, q_path = tmp_path / "k3.json", tmp_path / "path.query"
    db_path.write_text(json.dumps(structure_to_dict(k3)))
    q_path.write_text(render_query(q) + "\n")
    assert main(["count", "--db", str(db_path), "--query", str(q_path)]) == 0
    assert capsys.readouterr().out.strip() == str(3 * 2 ** 1200)


def test_count_answers_examples():
    edge = ConjunctiveQuery(digraph("xy", [("x", "y")]), ("x", "y"))
    assert count_answers(edge, TRIANGLE) == 3

    path = ConjunctiveQuery(
        digraph("xyz", [("x", "y"), ("y", "z")]), ("x", "z"))
    assert count_answers(path, TRIANGLE, STRUCTURAL) == 3
    assert count_answers(path, TRIANGLE, BRUTE) == 3

    empty_rel = digraph("ab", [])
    assert count_answers(edge, empty_rel) == 0


def test_modes_agree_random():
    rng = random.Random(42)
    auto = CountingConfig()
    for _ in range(120):
        q, b = random_instance(rng, max_vars=5, max_free=3, max_target=4)
        want = count_answers_brute(q, b)
        assert count_answers(q, b, STRUCTURAL) == want
        assert count_answers(q, b, BRUTE) == want
        assert count_answers(q, b, auto) == want


def test_count_answers_matches_the_replayed_pipeline():
    # count_answers builds its tables from a memoised analysis; the public
    # steps (core, contract_instance, decompose, count_quantifier_free_td)
    # are what perfbench's traced counts replay. Both must agree with brute
    # force, cold and warm.
    rng = random.Random(47)
    seen = set()
    for trial in range(300):
        q, b = random_quantifier_free_instance(rng)
        variables = list(q.structure.domain)
        free = rng.sample(variables, rng.randint(0, len(variables)))
        q = ConjunctiveQuery(q.structure, tuple(free))
        core = core_of_query(q)
        left, right = contract_instance(core, b)
        td = decompose(primal_graph(hypergraph_of(left)))
        want = count_answers_brute(q, b)
        assert count_quantifier_free_td(left, right, td) == want
        assert count_answers(q, b, STRUCTURAL) == count_answers(q, b, STRUCTURAL) == want
        atoms = core.structure.atoms()
        used = {v for _, t in atoms for v in t}
        seen.update(
            {"0-ary" for _, t in atoms if not t}
            | {"repeat" for _, t in atoms if len(set(t)) < len(t)}
            | {"empty relation" for name, t in atoms if not b.tuples(name)}
            | ({"empty target"} if not b.domain else set())
            | ({"isolated quantified"} if set(core.quantified_vars) - used else set())
            | {"boolean component" for comp in s_components(hypergraph_of(core))
               if not comp.free_scope}
        )
    assert seen == {"0-ary", "repeat", "empty relation", "empty target",
                    "isolated quantified", "boolean component"}


@pytest.mark.parametrize("config, field, value", [
    (CountingConfig, "mode", "fast"),
    (HomSearchConfig, "node_budget", 2.5),
    (HomSearchConfig, "enumeration_cap", False),
    (HomSearchConfig, "node_budget", 0),
])
def test_configs_reject_non_integers_and_values_out_of_range(config, field, value):
    with pytest.raises(InputError):
        config(**{field: value})


def test_isolated_free_variables_multiply():
    q = ConjunctiveQuery(digraph(["x", "y", "lone"], [("x", "y")]), ("x", "lone"))
    assert count_answers(q, TRIANGLE, STRUCTURAL) == 9
    assert count_answers_brute(q, TRIANGLE) == 9


def test_empty_target_with_isolated_quantified_variable():
    # a quantified variable in no atom still needs a target value to exist
    lonely = ConjunctiveQuery(structure({"E": 2}, ["x"], {}), ())
    empty = structure({"E": 2}, [], {})
    assert count_answers_brute(lonely, empty) == 0
    assert count_answers(lonely, empty, STRUCTURAL) == 0
    nonempty = digraph("a", [])
    assert count_answers_brute(lonely, nonempty) == 1
    assert count_answers(lonely, nonempty, STRUCTURAL) == 1


def test_empty_target_with_free_variables():
    q = ConjunctiveQuery(digraph("xy", [("x", "y")]), ("x",))
    empty = structure({"E": 2}, [], {})
    assert count_answers(q, empty, STRUCTURAL) == 0
    assert count_answers(q, empty, BRUTE) == 0


def test_extra_target_symbols_are_ignored():
    q = ConjunctiveQuery(digraph("xy", [("x", "y")]), ("x", "y"))
    fat = structure({"E": 2, "Unused": 1}, "abc",
                    {"E": {("a", "b"), ("b", "c"), ("c", "a")},
                     "Unused": {("a",)}})
    assert count_answers(q, fat, STRUCTURAL) == 3
    assert count_answers_brute(q, fat) == 3


def test_width_cap_and_auto_fallback():
    star = quantified_star_query(10)  # contract is K10, width 9
    assert CountingConfig.width_cap < 9
    b = digraph("uv", [("u", "u"), ("u", "v")])
    with pytest.raises(ResourceBudgetError, match="width 9"):
        count_answers(star, b, STRUCTURAL)
    assert count_answers(star, b, CountingConfig(mode="auto")) == count_answers_brute(star, b)
    # the brute-force fallback walks 2^10 candidate tuples
    boxed = CountingConfig(mode="auto", hom=HomSearchConfig(enumeration_cap=10))
    assert boxed.brute_cap == 10
    with pytest.raises(ResourceBudgetError, match="enumeration cap 10"):
        count_answers(star, b, boxed)


def test_classify_families():
    report = classify(quantifier_free_path_query(3))
    assert report.case_label == CASE_I
    assert (report.core_treewidth, report.contract_treewidth) == (1, 1)
    assert report.core_treewidth_exact and report.contract_treewidth_exact

    for k in (4, 5, 6):
        report = classify(boolean_clique_query(k))
        assert report.case_label == CASE_II
        assert report.core_treewidth == k - 1

        report = classify(quantified_star_query(k))
        assert report.case_label == CASE_III
        assert report.contract_treewidth == k - 1
        assert report.quantified_star_size == k
        assert report.strict_star_size == k


def test_classify_rejects_bounds_below_one():
    q = quantified_star_query(2)
    for bounds in ((0, 3), (3, 0), (-1, 0), (2.5, 3), (True, 3), ("3", 3), (3, 2.5)):
        with pytest.raises(InputError):
            classify(q, *bounds)
    assert classify(q, 1, 1).case_label == CASE_III


def test_classify_isomorphism_invariance():
    rng = random.Random(43)
    for _ in range(15):
        q, _ = random_instance(rng, max_vars=5, max_free=3, max_target=3)
        renaming = {v: f"z{i}" for i, v in enumerate(q.structure.domain)}
        relations = {
            name: {tuple(renaming[e] for e in t) for t in ts}
            for name, ts in q.structure.relations.items()
        }
        renamed = ConjunctiveQuery(
            structure(dict(q.structure.vocabulary.symbols),
                      [renaming[v] for v in q.structure.domain], relations),
            tuple(renaming[v] for v in q.free_vars),
        )
        r1 = classify(q)
        r2 = classify(renamed)
        assert r1.case_label == r2.case_label
        assert r1.core_treewidth == r2.core_treewidth
        assert r1.contract_treewidth == r2.contract_treewidth
        assert r1.quantified_star_size == r2.quantified_star_size
        assert r1.strict_star_size == r2.strict_star_size


def test_classify_matches_separate_decompositions():
    # The report assembled from one decompose call per primal graph.
    rng = random.Random(44)
    queries = []
    for trial in range(120):
        q, _ = random_instance(rng, max_vars=7, max_free=4, max_atoms=7)
        if trial % 3 == 0:
            q = ConjunctiveQuery(q.structure, q.structure.domain)
        queries.append(q)
    # more variables than the exact-treewidth threshold: an upper bound
    assert CountingConfig.exact_tw_threshold < 17
    queries.append(quantifier_free_path_query(17))
    kinds = set()
    for q in queries:
        core = core_of_query(q)
        h = hypergraph_of(core)
        cg = contract(h)
        core_td = decompose(primal_graph(h))
        contract_td = decompose(primal_graph(cg))
        star, strict = star_sizes(h)
        if contract_td.width >= 2:
            label = CASE_III
        elif core_td.width >= 2:
            label = CASE_II
        else:
            label = CASE_I
        want = TrichotomyReport(
            core, core_td.width, core_td.exactness == EXACT,
            cg, contract_td.width, contract_td.exactness == EXACT,
            star, strict, 2, 2, label)
        assert classify(q, 2, 2) == want
        kinds.add((bool(core.quantified_vars), core_td.exactness, label))
    assert {quantified for quantified, _, _ in kinds} == {False, True}
    assert {exactness for _, exactness, _ in kinds} == {EXACT, UPPER_BOUND}
    assert {label for _, _, label in kinds} == {CASE_I, CASE_II, CASE_III}


def test_classify_decomposes_a_quantifier_free_core_once(monkeypatch):
    # A core without quantified variables is its own contract graph: its
    # contract decomposition is its core decomposition, asked for once.
    graphs = []
    real_decompose = counting.decompose

    def recording(g):
        graphs.append(g)
        return real_decompose(g)

    def computed():
        return _decompose.cache_info().misses

    monkeypatch.setattr(counting, "decompose", recording)
    path = quantifier_free_path_query(4)
    classify(path)
    assert computed() == 1
    assert graphs == [primal_graph(hypergraph_of(path))]
    # y and z fold onto each other, but y stays quantified in the core
    forked = ConjunctiveQuery(
        digraph("xyz", [("x", "y"), ("x", "z")]), ("x",))
    graphs.clear()
    report = classify(forked)
    assert report.core_query.quantified_vars
    assert computed() == 3
    core_graph = primal_graph(hypergraph_of(report.core_query))
    assert graphs == [primal_graph(contract(hypergraph_of(report.core_query))), core_graph]


def test_report_consistency_invariant():
    report = classify(boolean_clique_query(5), k_core=3, k_contract=3)
    assert report.case_label == CASE_II
    assert report.core_treewidth >= report.k_core
    assert report.contract_treewidth < report.k_contract
    blob = report.to_json_dict()
    assert blob["case_label"] == CASE_II
    assert blob["core_treewidth"]["width"] == 4


def test_results_do_not_depend_on_the_string_hash_seed():
    # Arc consistency builds sets of supported values, and their iteration
    # order follows the string hash seed; none of it may reach a count, a
    # core or a report.
    script = (
        "import json, random\n"
        "from cqcount import classify, core_of_query, count_answers\n"
        "from cqcount.generators import random_instance\n"
        "rng = random.Random(44)\n"
        "done = 0\n"
        "while done < 200:\n"
        "    q, b = random_instance(rng, max_vars=6, max_free=3, max_target=4)\n"
        "    if not q.quantified_vars:\n"
        "        continue\n"
        "    done += 1\n"
        "    core = core_of_query(q)\n"
        "    print(count_answers(q, b), core.structure.domain, core.structure.atoms(),\n"
        "          json.dumps(classify(q).to_json_dict(), sort_keys=True))\n"
    )
    outputs = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("\n") == 200
        outputs.add(proc.stdout)
    assert len(outputs) == 1
