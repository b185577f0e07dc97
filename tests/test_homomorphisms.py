import random

import pytest
from conftest import all_maps, digraph, naive_answer_set, structure, undirected

from cqcount import (
    ConjunctiveQuery,
    HomSearchConfig,
    InputError,
    ResourceBudgetError,
    are_isomorphic,
    count_answers_brute,
    find_extension,
    free_automorphism_set,
    hom_equivalent,
    hom_exists,
    is_homomorphism,
    iter_homomorphisms,
)
from cqcount.generators import random_instance, random_structure, random_vocabulary

TRIANGLE = digraph("abc", [("a", "b"), ("b", "c"), ("c", "a")])
EDGE_Q = ConjunctiveQuery(digraph("xy", [("x", "y")]), ("x", "y"))


def test_find_extension_basic():
    single = digraph("xy", [("x", "y")])
    h = find_extension(single, TRIANGLE)
    assert h is not None
    assert is_homomorphism(single, TRIANGLE, h)


def test_triangle_into_bipartite_cycle_absent():
    triangle = undirected("abc", [("a", "b"), ("b", "c"), ("c", "a")])
    c4 = undirected("0123", [("0", "1"), ("1", "2"), ("2", "3"), ("3", "0")])
    assert find_extension(triangle, c4) is None
    # exhaustive oracle over all 4^3 maps
    assert not any(is_homomorphism(triangle, c4, h)
                   for h in all_maps(triangle.domain, c4.domain))


def test_total_valid_partial_returned_unchanged():
    single = digraph("xy", [("x", "y")])
    partial = {"x": "b", "y": "c"}
    assert find_extension(single, TRIANGLE, partial) == partial
    assert find_extension(single, TRIANGLE, {"x": "b", "y": "a"}) is None


def test_partial_validation():
    single = digraph("xy", [("x", "y")])
    with pytest.raises(InputError):
        find_extension(single, TRIANGLE, {"zz": "a"})
    with pytest.raises(InputError):
        find_extension(single, TRIANGLE, {"x": "nope"})


def test_vocabulary_mismatch():
    single = digraph("xy", [("x", "y")])
    other = structure({"F": 2}, "ab", {"F": {("a", "b")}})
    with pytest.raises(InputError):
        find_extension(single, other)
    wrong_arity = structure({"E": 3}, "ab", {})
    with pytest.raises(InputError):
        find_extension(single, wrong_arity)


def test_hom_exists_examples():
    loopy = digraph("x", [("x", "x")])
    loop_free = digraph("v", [])
    assert not hom_exists(loopy, loop_free)
    assert hom_exists(TRIANGLE, TRIANGLE)

    k4 = undirected("abcd", [(u, v) for u in "abcd" for v in "abcd" if u < v])
    k3 = undirected("xyz", [("x", "y"), ("y", "z"), ("x", "z")])
    assert not hom_exists(k4, k3)
    assert not any(is_homomorphism(k4, k3, h) for h in all_maps(k4.domain, k3.domain))


def test_hom_equivalent_examples():
    p3 = undirected("abc", [("a", "b"), ("b", "c")])
    edge = undirected("uv", [("u", "v")])
    triangle = undirected("abc", [("a", "b"), ("b", "c"), ("c", "a")])
    assert hom_equivalent(p3, p3)
    assert hom_equivalent(p3, edge)
    assert not hom_equivalent(triangle, edge)


def test_count_answers_brute_examples():
    assert count_answers_brute(EDGE_Q, TRIANGLE) == 3

    one_free = ConjunctiveQuery(digraph("xy", [("x", "y")]), ("x",))
    assert count_answers_brute(one_free, TRIANGLE) == 3

    boolean = ConjunctiveQuery(digraph("xy", [("x", "y")]), ())
    assert count_answers_brute(boolean, TRIANGLE) == 1
    empty_target = digraph("a", [])
    assert count_answers_brute(boolean, empty_target) == 0


def test_brute_count_matches_doubly_naive_oracle():
    rng = random.Random(1)
    for _ in range(100):
        q, b = random_instance(rng, max_vars=4, max_free=3, max_target=4)
        assert count_answers_brute(q, b) == len(naive_answer_set(q, b))


def test_found_homomorphisms_pass_independent_check():
    rng = random.Random(2)
    for _ in range(60):
        vocab = random_vocabulary(rng)
        a = random_structure(rng, vocab, max_elements=4)
        b = random_structure(rng, vocab, max_elements=4)
        h = find_extension(a, b)
        if h is not None:
            assert is_homomorphism(a, b, h)


def test_composition_closure():
    rng = random.Random(3)
    for _ in range(40):
        vocab = random_vocabulary(rng)
        a = random_structure(rng, vocab, max_elements=3)
        b = random_structure(rng, vocab, max_elements=3)
        c = random_structure(rng, vocab, max_elements=3)
        h1 = find_extension(a, b)
        h2 = find_extension(b, c)
        if h1 is not None and h2 is not None:
            assert is_homomorphism(a, c, {v: h2[h1[v]] for v in a.domain})


def test_free_automorphism_set_examples():
    both = ConjunctiveQuery(undirected("ab", [("a", "b")]), ("a", "b"))
    maps = free_automorphism_set(both)
    assert sorted(tuple(m[v] for v in both.free_vars) for m in maps) == [
        ("a", "b"), ("b", "a")]

    rigid = ConjunctiveQuery(digraph("abc", [("a", "b"), ("b", "c")]), ("a", "c"))
    maps = free_automorphism_set(rigid)
    assert [tuple(m[v] for v in rigid.free_vars) for m in maps] == [("a", "c")]
    # oracle: all 27 endomorphisms, keep the automorphisms
    autos = [h for h in all_maps("abc", "abc")
             if is_homomorphism(rigid.structure, rigid.structure, h)
             and len(set(h.values())) == 3]
    assert {(h["a"], h["c"]) for h in autos} == {("a", "c")}

    boolean = ConjunctiveQuery(undirected("ab", [("a", "b")]), ())
    assert free_automorphism_set(boolean) == [{}]


def test_free_automorphisms_form_a_group():
    rng = random.Random(4)
    for _ in range(40):
        q, _ = random_instance(rng, max_vars=4, max_free=3, max_target=3)
        maps = [tuple(m[v] for v in q.free_vars) for m in free_automorphism_set(q)]
        assert tuple(q.free_vars) in maps  # identity
        by_tuple = set(maps)
        for m1 in free_automorphism_set(q):
            for m2 in free_automorphism_set(q):
                composed = tuple(m1[m2[v]] for v in q.free_vars)
                assert composed in by_tuple  # closure
        for m in free_automorphism_set(q):
            inverse = {b: a for a, b in m.items()}
            assert tuple(inverse[v] for v in q.free_vars) in by_tuple  # inverse


def test_iter_homomorphisms_injective_and_isomorphism():
    square = undirected("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    autos = list(iter_homomorphisms(square, square, injective=True))
    assert len(autos) == 8  # dihedral group of the 4-cycle
    renamed = undirected("wxyz", [("w", "x"), ("x", "y"), ("y", "z"), ("z", "w")])
    assert are_isomorphic(square, renamed)
    p4 = undirected("wxyz", [("w", "x"), ("x", "y"), ("y", "z")])
    assert not are_isomorphic(square, p4)


def test_zero_ary_constraints():
    yes = structure({"T": 0}, "a", {"T": {()}})
    no = structure({"T": 0}, "a", {})
    assert hom_exists(yes, yes)
    assert not hom_exists(yes, no)


def test_budgets_raise_distinct_errors():
    k4 = undirected("abcd", [(u, v) for u in "abcd" for v in "abcd" if u < v])
    k3 = undirected("xyz", [("x", "y"), ("y", "z"), ("x", "z")])
    with pytest.raises(ResourceBudgetError):
        find_extension(k4, k3, cfg=HomSearchConfig(node_budget=2))
    q = ConjunctiveQuery(k4, tuple("abcd"))
    with pytest.raises(ResourceBudgetError):
        count_answers_brute(q, k3, HomSearchConfig(enumeration_cap=10))
