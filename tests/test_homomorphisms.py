import random
from itertools import product

import pytest
from conftest import (
    all_maps,
    digraph,
    naive_answer_set,
    naive_homomorphisms,
    structure,
    undirected,
)

from cqcount import (
    ConjunctiveQuery,
    HomSearchConfig,
    InputError,
    ResourceBudgetError,
    are_isomorphic,
    count_answers_brute,
    enumerate_answers,
    find_extension,
    free_automorphism_set,
    hom_equivalent,
    hom_exists,
    is_homomorphism,
    iter_homomorphisms,
)
from cqcount.generators import (
    quantified_star_query,
    random_instance,
    random_structure,
    random_vocabulary,
)
from cqcount.homomorphisms import _HomSearch, _search
from cqcount.structures import induced_substructure

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


def _oracle_instance(rng):
    """A query structure and target with unary, binary, ternary and 0-ary
    symbols, repeated variables, and possibly empty relations or domains."""
    symbols = {"U": 1, "E": 2, "T": 3, "Z": 0}
    variables = [f"v{i}" for i in range(rng.randint(1, 5))]
    atoms = {name: set() for name in symbols}
    for _ in range(rng.randint(1, 5)):
        name = rng.choice(["U", "E", "E", "T", "Z"])
        # Few distinct variables, so atoms often repeat one.
        pool = rng.sample(variables, min(len(variables), rng.randint(1, 3)))
        atoms[name].add(tuple(rng.choice(pool) for _ in range(symbols[name])))
    a = structure(symbols, variables, atoms)
    elements = [f"b{i}" for i in range(rng.choice([0, 1, 2, 3, 3, 4]))]
    rows = {name: set() for name in symbols}
    for name, arity in symbols.items():
        if arity == 0:
            if rng.random() < 0.8:
                rows[name].add(())
        elif elements and rng.random() < 0.9:
            for _ in range(rng.randint(1, 2 * len(elements) ** arity)):
                rows[name].add(tuple(rng.choice(elements) for _ in range(arity)))
    return a, structure(symbols, elements, rows)


class _Shapes:
    """Counts the instance shapes the oracle tests must cover."""

    def __init__(self, monkeypatch):
        self.seen = {"repeat_in_driving_atom": 0, "unary_atom": 0, "zero_ary_atom": 0,
                     "empty_relation": 0, "empty_target": 0, "pin_outside_domain": 0,
                     "quantified_linked_only_later": 0}
        index = _HomSearch._support_index

        def recording(search, ci, v, before):
            t = search.constraints[ci][1]
            self.seen["repeat_in_driving_atom"] += len(set(t)) < len(t)
            return index(search, ci, v, before)

        monkeypatch.setattr(_HomSearch, "_support_index", recording)

    def note(self, a, b, pinned, pin_sets):
        """Record the shapes of ``a`` -> ``b`` searched with ``pinned`` set to each of ``pin_sets``."""
        used = {name for name, ts in a.relations.items() if ts}
        self.seen["unary_atom"] += "U" in used
        self.seen["zero_ary_atom"] += "Z" in used
        self.seen["empty_relation"] += any(not b.tuples(name) for name in used)
        self.seen["empty_target"] += not b.domain
        search = _search(a, b)
        if not (search.feasible and pinned):
            return
        self.seen["pin_outside_domain"] += any(
            value not in search.base_sets[v]
            for pins in pin_sets for v, value in zip(pinned, pins))
        for v, _, key, _ in search._plan(tuple(pinned)).steps:
            self.seen["quantified_linked_only_later"] += key is None and bool(search.watch[v])

    def assert_all_seen(self):
        assert all(self.seen.values()), self.seen


def test_answers_match_independent_oracle(monkeypatch):
    # count_answers_brute and enumerate_answers against the naive oracle,
    # which shares no code with the pinned search.
    rng = random.Random(61)
    shapes = _Shapes(monkeypatch)
    for _ in range(400):
        a, b = _oracle_instance(rng)
        free = tuple(rng.sample(a.domain, rng.randint(0, min(3, len(a.domain)))))
        q = ConjunctiveQuery(a, free)
        want = sorted(naive_answer_set(q, b))
        assert enumerate_answers(q, b) == want
        assert count_answers_brute(q, b) == len(want)
        shapes.note(a, b, free, list(product(sorted(b.domain), repeat=len(free))))
    shapes.assert_all_seen()


def test_pinned_homomorphisms_match_independent_oracle(monkeypatch):
    # iter_homomorphisms(partial=...) as a set, plain and injective, and a
    # pinned search that avoids a target value, against naive enumeration.
    rng = random.Random(62)
    shapes = _Shapes(monkeypatch)
    for _ in range(400):
        a, b = _oracle_instance(rng)
        pinned = rng.sample(a.domain, rng.randint(1, len(a.domain))) if b.domain else []
        pins = {v: rng.choice(b.domain) for v in pinned}
        shapes.note(a, b, sorted(pins), [tuple(pins[v] for v in sorted(pins))])

        def naive(target):
            return {frozenset(h.items()) for h in naive_homomorphisms(a, target)
                    if all(h[v] == value for v, value in pins.items())}

        want = naive(b)
        for injective in (False, True):
            got = [frozenset(h.items())
                   for h in iter_homomorphisms(a, b, partial=pins, injective=injective)]
            assert len(got) == len(set(got))
            assert set(got) == {h for h in want
                                if not injective or len(set(dict(h).values())) == len(h)}
        if not b.domain:
            continue
        avoided = rng.choice(b.domain)
        view = _search(a, b).avoiding(avoided)
        got = {frozenset(h.items()) for h in view.solutions(pins)}
        assert got == naive(induced_substructure(b, set(b.domain) - {avoided}))
    shapes.assert_all_seen()


def test_node_budget_counts_pin_sets_and_candidates():
    # One node per pin set, one per candidate centre tried.
    q = quantified_star_query(3)
    b = digraph("abcd", [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d"), ("d", "a")])
    want = len(naive_answer_set(q, b))
    with pytest.raises(ResourceBudgetError):
        count_answers_brute(q, b, HomSearchConfig(node_budget=1))
    assert count_answers_brute(q, b, HomSearchConfig(node_budget=1 + len(b.domain))) == want
