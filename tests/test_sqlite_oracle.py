"""``count_answers`` against SQLite, at sizes brute force cannot reach.

``sqlite_oracle`` shares no code with the library. It is first checked
against the naive oracle on small instances, then compared with
``count_answers``, in auto and structural mode, on projected stars and
paths over random digraphs with 100 to 200 vertices, on random instances,
and on instances with 3- and 4-ary relations, and with
``count_answers_brute`` on all-free queries too large for the naive oracle.
"""

import random

import pytest
from conftest import naive_answer_set, structure
from sqlite_oracle import count_answers_sql

from cqcount import ConjunctiveQuery, CountingConfig, count_answers, count_answers_brute, parse_query
from cqcount.generators import quantified_star_query, random_instance

STRUCTURAL = CountingConfig(mode="structural")


def _random_digraph(n, seed):
    """``n`` vertices and 3n uniform arcs (fewer after duplicates collapse)."""
    rng = random.Random(seed)
    vertices = [f"n{i}" for i in range(n)]
    arcs = {(rng.choice(vertices), rng.choice(vertices)) for _ in range(3 * n)}
    return structure({"E": 2}, vertices, {"E": arcs})


@pytest.mark.parametrize("symbols, domain, atoms, free, elements, rows, want", [
    # a 0-ary atom whose relation holds, then one whose relation is empty
    ({"Z": 0, "E": 2}, "xy", {"Z": {()}, "E": {("x", "y")}}, "x", "ab",
     {"Z": {()}, "E": {("a", "b"), ("b", "b")}}, 2),
    ({"Z": 0, "E": 2}, "xy", {"Z": {()}, "E": {("x", "y")}}, "x", "ab",
     {"Z": set(), "E": {("a", "b")}}, 0),
    # a free variable in no atom ranges over the whole domain
    ({"E": 2}, "xyz", {"E": {("x", "y")}}, "xz", "abc", {"E": {("a", "b")}}, 3),
    # a quantified variable in no atom needs some element
    ({"E": 2}, "xz", {"E": set()}, "x", "ab", {"E": set()}, 2),
    ({"E": 2}, "xz", {"E": set()}, "", "", {"E": set()}, 0),
    # Boolean queries count 0 or 1; a repeated variable is an equality
    ({"E": 2}, "xy", {"E": {("x", "y"), ("y", "x")}}, "", "abc",
     {"E": {("a", "b"), ("b", "a"), ("b", "c")}}, 1),
    ({"E": 2}, "x", {"E": {("x", "x")}}, "", "ab", {"E": {("a", "b")}}, 0),
    ({"E": 2}, "x", {"E": {("x", "x")}}, "x", "ab", {"E": {("a", "a"), ("b", "b")}}, 2),
    # an empty target relation, and the query with no atoms
    ({"E": 2, "U": 1}, "xy", {"E": {("x", "y")}}, "y", "ab", {"E": set(), "U": set()}, 0),
    ({"E": 2}, "", {"E": set()}, "", "", {"E": set()}, 1),
])
def test_sqlite_oracle_edge_cases(symbols, domain, atoms, free, elements, rows, want):
    q = ConjunctiveQuery(structure(symbols, domain, atoms), tuple(free))
    b = structure(symbols, elements, rows)
    assert len(naive_answer_set(q, b)) == want
    assert count_answers_sql(q, b) == want
    assert count_answers(q, b) == want


def test_sqlite_oracle_refuses_more_than_64_tables():
    path = parse_query("answer() :- " + ", ".join(f"E(v{i},v{i + 1})" for i in range(65)) + ".")
    with pytest.raises(ValueError, match="65 tables"):
        count_answers_sql(path, _random_digraph(3, 1))


@pytest.mark.parametrize("n", [100, 200])
@pytest.mark.parametrize("query", [
    quantified_star_query(2),
    parse_query("answer(s1,s2) :- E(c,s1), E(c,s2), E(c,s3)."),
    parse_query("answer(a,c) :- E(a,b), E(b,c)."),
    parse_query("answer(a,d) :- E(a,b), E(b,c), E(c,d)."),
    parse_query("answer(a,c) :- E(a,b), E(b,c), E(c,d)."),
], ids=["star2", "star3-two-free", "path2", "path3-ends", "path3-first-two"])
def test_projections_match_sqlite(query, n):
    db = _random_digraph(n, n)
    want = count_answers_sql(query, db)
    assert want > n  # projections that keep many rows
    assert count_answers(query, db) == want
    if n == 100:
        assert count_answers(query, db, STRUCTURAL) == want


def test_random_instances_match_sqlite():
    # Targets of up to 12 elements; the naive oracle also checks the helper
    # wherever it enumerates at most 4096 maps.
    rng = random.Random(151)
    checked = 0
    for _ in range(200):
        q, b = random_instance(rng, max_vars=7, max_free=4, max_atoms=6, max_target=12)
        want = count_answers_sql(q, b)
        assert count_answers(q, b) == want
        assert count_answers(q, b, STRUCTURAL) == want
        if len(b.domain) ** len(q.structure.domain) <= 4096:
            assert len(naive_answer_set(q, b)) == want
            checked += 1
    assert checked >= 50


def test_high_arity_instances_match_sqlite():
    # Random instances whose vocabularies draw arities up to 4.
    rng = random.Random(152)
    arities = set()
    for _ in range(100):
        q, b = random_instance(rng, max_vars=6, max_free=3, max_atoms=5, max_target=6, max_arity=4)
        arities.update(q.structure.vocabulary.symbols.values())
        want = count_answers_sql(q, b)
        assert count_answers(q, b) == want
        assert count_answers(q, b, STRUCTURAL) == want
    assert {3, 4} <= arities


@pytest.mark.parametrize("query", [
    "answer(x,w) :- T(x,y,z), R(y,z,w,u).",
    "answer(x,y,z) :- T(x,y,z), R(x,y,u,v).",
    "answer(x,u) :- T(x,y,z), R(y,z,u,v), T(u,v,w).",
    "answer(y,u) :- T(x,y,z), R(x,z,u,x).",
], ids=["shared-pair", "free-triple", "chain", "repeated-variable"])
def test_ternary_and_quaternary_relations_match_sqlite(query):
    # 600 random rows each over 30 elements: too many maps for brute force.
    rng = random.Random(153)
    elements = [f"n{i}" for i in range(30)]
    rows = {name: {tuple(rng.choice(elements) for _ in range(arity)) for _ in range(600)}
            for name, arity in (("T", 3), ("R", 4))}
    db = structure({"T": 3, "R": 4}, elements, rows)
    q = parse_query(query)
    want = count_answers_sql(q, db)
    assert want > 0
    assert count_answers(q, db) == want
    assert count_answers(q, db, STRUCTURAL) == want


@pytest.mark.parametrize("n, size", [(4, 6), (4, 10), (5, 7), (5, 8), (6, 6)])
def test_all_free_brute_counts_match_sqlite(n, size):
    # With every variable free, brute force pins all of them at once and
    # tests each atom among the pins. The naive oracle would check up to
    # |D|^n = 46,656 maps per instance here.
    rng = random.Random(154 + 10 * n + size)
    symbols = {"U": 1, "E": 2, "T": 3}
    variables = [f"v{i}" for i in range(n)]
    elements = [f"b{i}" for i in range(size)]
    positive = 0
    for _ in range(4):
        atoms = {name: {tuple(rng.choice(variables) for _ in range(arity))
                        for _ in range(rng.randint(1, n - 2))}
                 for name, arity in symbols.items()}
        rows = {name: {tuple(rng.choice(elements) for _ in range(arity))
                       for _ in range(round(rng.uniform(0.4, 0.8) * size ** arity))}
                for name, arity in symbols.items()}
        q = ConjunctiveQuery(structure(symbols, variables, atoms), tuple(variables))
        b = structure(symbols, elements, rows)
        want = count_answers_sql(q, b)
        assert count_answers_brute(q, b) == want
        positive += want > 0
    assert positive >= 2
