import random

import pytest
from conftest import digraph, structure

from cqcount import (
    ConjunctiveQuery,
    InputError,
    RelationalStructure,
    Vocabulary,
    augment,
    induced_substructure,
    pin_relation_names,
    star_structure,
    structure_from_dict,
    structure_to_dict,
)
from cqcount.generators import random_instance


def test_vocabulary_validation():
    Vocabulary({"E": 2, "P": 1})
    with pytest.raises(InputError):
        Vocabulary({"E": -1})
    # the 1..8 limit belongs to user input; internal relations may be wider
    assert Vocabulary({"E": 9}).arity("E") == 9
    with pytest.raises(InputError):
        Vocabulary({"": 1})


def test_structure_validation():
    with pytest.raises(InputError):
        structure({"E": 2}, "ab", {"E": {("a",)}})
    with pytest.raises(InputError):
        structure({"E": 2}, "ab", {"E": {("a", "z")}})
    with pytest.raises(InputError):
        structure({"E": 2}, "ab", {"F": {("a", "b")}})


def test_duplicates_collapse():
    a = structure({"E": 2}, ["x", "x", "y"], {"E": [("x", "y"), ("x", "y")]})
    assert a.domain == ("x", "y")
    assert a.tuples("E") == frozenset({("x", "y")})


def test_equal_values_are_equal_and_hash_equal():
    arcs = [("a", "b"), ("b", "c")]
    built = structure({"E": 2, "P": 1}, "abc", {"E": set(arcs), "P": {("a",)}})
    reordered = RelationalStructure(
        Vocabulary({"P": 1, "E": 2}), ("a", "b", "c"),
        {"P": [("a",)], "E": list(reversed(arcs))})
    loaded = structure_from_dict({
        "domain": ["a", "b", "c"],
        "relations": {"P": {"arity": 1, "tuples": [["a"]]},
                      "E": {"arity": 2, "tuples": [["b", "c"], ["a", "b"]]}},
    })
    for other in (reordered, loaded):
        assert other == built and hash(other) == hash(built)
        assert other.vocabulary == built.vocabulary
        assert hash(other.vocabulary) == hash(built.vocabulary)
        q, r = ConjunctiveQuery(built, ("a",)), ConjunctiveQuery(other, ("a",))
        assert q == r and hash(q) == hash(r)
        assert len({built: 0, other: 1}) == 1
    # the same tuples in another domain order, or another free tuple, differ
    assert structure({"E": 2, "P": 1}, "cba", built.relations) != built
    assert ConjunctiveQuery(built, ("a",)) != ConjunctiveQuery(built, ("b",))


def test_empty_relation_arity_is_part_of_the_value():
    one = structure({"E": 2, "P": 1}, "ab", {"E": {("a", "b")}})
    two = structure({"E": 2, "P": 2}, "ab", {"E": {("a", "b")}})
    assert one.relations == two.relations
    assert one != two
    assert Vocabulary({"P": 1}) != Vocabulary({"P": 2})


def test_structures_are_read_only():
    a = structure({"E": 2}, "ab", {"E": {("a", "b")}})
    with pytest.raises(TypeError):
        a.relations["E"] = frozenset()
    with pytest.raises(TypeError):
        a.relations["F"] = frozenset()
    with pytest.raises(TypeError):
        a.vocabulary.symbols["E"] = 3
    with pytest.raises(TypeError):
        del a.vocabulary.symbols["E"]
    assert a.tuples("E") == frozenset({("a", "b")})
    assert a.vocabulary.arity("E") == 2


def test_missing_relations_default_empty():
    a = structure({"E": 2, "P": 1}, "ab", {"E": {("a", "b")}})
    assert a.tuples("P") == frozenset()


def test_induced_substructure_examples():
    a = digraph("abc", [("a", "b"), ("b", "c")])
    sub = induced_substructure(a, ["a", "b"])
    assert sub.domain == ("a", "b")
    assert sub.tuples("E") == frozenset({("a", "b")})

    assert induced_substructure(a, a.domain) == a

    empty = induced_substructure(a, [])
    assert empty.domain == ()
    assert empty.tuples("E") == frozenset()

    with pytest.raises(InputError):
        induced_substructure(a, ["a", "nope"])


def test_query_validation():
    a = digraph("xy", [("x", "y")])
    ConjunctiveQuery(a, ("x",))
    with pytest.raises(InputError):
        ConjunctiveQuery(a, ("x", "x"))
    with pytest.raises(InputError):
        ConjunctiveQuery(a, ("z",))


def test_augment_examples():
    q = ConjunctiveQuery(digraph("xy", [("x", "y")]), ("x",))
    pinned = augment(q)
    assert pinned.tuples("E") == frozenset({("x", "y")})
    assert pinned.tuples("__aug_x") == frozenset({("x",)})
    assert "__aug_y" not in pinned.vocabulary.symbols

    boolean = ConjunctiveQuery(digraph("xy", [("x", "y")]), ())
    assert augment(boolean) == boolean.structure

    both = ConjunctiveQuery(digraph("xy", [("x", "y")]), ("x", "y"))
    pinned = augment(both)
    assert pinned.tuples("__aug_x") == frozenset({("x",)})
    assert pinned.tuples("__aug_y") == frozenset({("y",)})


def test_star_structure_examples():
    a = digraph("xy", [("x", "y")])
    starred = star_structure(a)
    assert starred.tuples("E") == frozenset({("x", "y")})
    assert starred.tuples("__aug_x") == frozenset({("x",)})
    assert starred.tuples("__aug_y") == frozenset({("y",)})

    empty = structure({"E": 2}, "", {})
    assert star_structure(empty) == empty


def test_star_equals_augment_when_quantifier_free():
    a = digraph("xy", [("x", "y")])
    q = ConjunctiveQuery(a, ("x", "y"))
    assert star_structure(a) == augment(q)


def test_pin_names_avoid_collisions():
    a = structure({"E": 2, "__aug_x": 1}, "xy",
                  {"E": {("x", "y")}, "__aug_x": {("y",)}})
    names = pin_relation_names(a)
    assert names["x"] != "__aug_x"
    assert set(names.values()).isdisjoint(a.vocabulary.symbols)
    starred = star_structure(a)
    # the pre-existing relation survives untouched
    assert starred.tuples("__aug_x") == frozenset({("y",)})
    assert starred.tuples(names["x"]) == frozenset({("x",)})


def test_serialization_round_trip_examples():
    a = digraph("abc", [("a", "b"), ("b", "c"), ("c", "a")])
    assert structure_from_dict(structure_to_dict(a)) == a
    pinned = star_structure(a)
    assert structure_from_dict(structure_to_dict(pinned)) == pinned


def test_serialization_round_trip_random():
    rng = random.Random(0)
    for _ in range(60):
        _, b = random_instance(rng)
        assert structure_from_dict(structure_to_dict(b)) == b


def test_structure_from_dict_validation():
    with pytest.raises(InputError):
        structure_from_dict([])
    with pytest.raises(InputError):
        structure_from_dict({"relations": {"E": {"arity": 2}}})
    with pytest.raises(InputError):
        structure_from_dict({"relations": {"E": {"arity": 2, "tuples": [["a"]]}}})
    with pytest.raises(InputError, match='"relations" object'):
        structure_from_dict({"relations": []})
    for domain in ("ab", ["a", 1]):
        with pytest.raises(InputError, match='"domain" must be a list of strings'):
            structure_from_dict({"domain": domain, "relations": {}})
    with pytest.raises(InputError, match='"tuples" of \'E\' must be a list'):
        structure_from_dict({"relations": {"E": {"arity": 1, "tuples": "ab"}}})
    for arity in ("2", True, 2.0, None, -1):
        with pytest.raises(InputError, match="arity of 'E'"):
            structure_from_dict({"relations": {"E": {"arity": arity, "tuples": []}}})
