import hashlib
import random
from itertools import combinations, product

import pytest
from conftest import (
    all_maps,
    are_isomorphic,
    digraph,
    hom_equivalent,
    induced_substructure,
    naive_answer_set,
    naive_homomorphisms,
    pinned_solutions,
    relabel,
    structure,
    undirected,
)

from cqcount import (
    ConjunctiveQuery,
    HomSearchConfig,
    InputError,
    ResourceBudgetError,
    automorphisms,
    count_answers,
    count_answers_brute,
    enumerate_answers,
    free_automorphism_set,
    hom_exists,
    is_homomorphism,
    parse_query,
)
from cqcount.generators import (
    quantified_star_query,
    random_instance,
    random_structure,
    random_vocabulary,
)
from cqcount.homomorphisms import _HomSearch, _is_forest, _search

TRIANGLE = digraph("abc", [("a", "b"), ("b", "c"), ("c", "a")])
EDGE_Q = ConjunctiveQuery(digraph("xy", [("x", "y")]), ("x", "y"))


def first_homomorphism(a, b, cfg=HomSearchConfig()):
    return next(_search(a, b, cfg).solutions(), None)


def test_find_extension_basic():
    single = digraph("xy", [("x", "y")])
    h = first_homomorphism(single, TRIANGLE)
    assert h is not None
    assert is_homomorphism(single, TRIANGLE, h)
    # a map that misses or adds a source element, or leaves the target
    assert not is_homomorphism(single, TRIANGLE, {"x": h["x"]})
    assert not is_homomorphism(single, TRIANGLE, {**h, "z": "a"})
    assert not is_homomorphism(single, TRIANGLE, {"x": "a", "y": "z"})


def test_triangle_into_bipartite_cycle_absent():
    triangle = undirected("abc", [("a", "b"), ("b", "c"), ("c", "a")])
    c4 = undirected("0123", [("0", "1"), ("1", "2"), ("2", "3"), ("3", "0")])
    assert first_homomorphism(triangle, c4) is None
    # exhaustive oracle over all 4^3 maps
    assert not any(is_homomorphism(triangle, c4, h)
                   for h in all_maps(triangle.domain, c4.domain))


def test_total_valid_partial_returned_unchanged():
    # Every variable pinned: the search only checks the pins' constraints.
    single = digraph("xy", [("x", "y")])
    search = _search(single, TRIANGLE)
    partial = {"x": "b", "y": "c"}
    assert list(pinned_solutions(search, partial)) == [partial]
    assert list(pinned_solutions(search, {"x": "b", "y": "a"})) == []


def test_vocabulary_mismatch():
    single = digraph("xy", [("x", "y")])
    other = structure({"F": 2}, "ab", {"F": {("a", "b")}})
    with pytest.raises(InputError):
        first_homomorphism(single, other)
    wrong_arity = structure({"E": 3}, "ab", {})
    with pytest.raises(InputError):
        first_homomorphism(single, wrong_arity)


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
        h = first_homomorphism(a, b)
        if h is not None:
            assert is_homomorphism(a, b, h)


def test_composition_closure():
    rng = random.Random(3)
    for _ in range(40):
        vocab = random_vocabulary(rng)
        a = random_structure(rng, vocab, max_elements=3)
        b = random_structure(rng, vocab, max_elements=3)
        c = random_structure(rng, vocab, max_elements=3)
        h1 = first_homomorphism(a, b)
        h2 = first_homomorphism(b, c)
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
    # automorphisms searches injectively; the isomorphism cases check the
    # search-free oracle in conftest.
    square = undirected("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    autos = automorphisms(square)
    assert len(autos) == 8  # dihedral group of the 4-cycle
    assert {frozenset(h.items()) for h in autos} == {
        frozenset(h.items()) for h in naive_homomorphisms(square, square)
        if len(set(h.values())) == 4}
    renamed = undirected("wxyz", [("w", "x"), ("x", "y"), ("y", "z"), ("z", "w")])
    assert are_isomorphic(square, renamed)
    p4 = undirected("wxyz", [("w", "x"), ("x", "y"), ("y", "z")])
    assert not are_isomorphic(square, p4)
    # a different size, or the same arcs under a larger vocabulary
    assert not are_isomorphic(square, undirected("abc", [("a", "b"), ("b", "c")]))
    assert not are_isomorphic(square, structure({"E": 2, "U": 1}, "abcd",
                                                {"E": square.tuples("E")}))


def test_isomorphism_oracle_matches_all_bijections():
    # Against every bijection, checked both ways with is_homomorphism; half
    # the targets are relabelled copies, so both verdicts occur.
    rng = random.Random(5)
    verdicts = set()
    for _ in range(150):
        vocab = random_vocabulary(rng)
        a = random_structure(rng, vocab, max_elements=4)
        b = relabel(a, rng) if rng.random() < 0.5 else random_structure(rng, vocab, max_elements=4)
        want = len(a.domain) == len(b.domain) and any(
            len(set(h.values())) == len(a.domain) and is_homomorphism(a, b, h)
            and is_homomorphism(b, a, {v: k for k, v in h.items()})
            for h in all_maps(a.domain, b.domain))
        assert are_isomorphic(a, b) == want
        verdicts.add(want)
    assert verdicts == {False, True}


def test_zero_ary_constraints():
    yes = structure({"T": 0}, "a", {"T": {()}})
    no = structure({"T": 0}, "a", {})
    assert hom_exists(yes, yes)
    assert not hom_exists(yes, no)


@pytest.mark.parametrize("body, forest", [
    ("E(x,y), E(y,z), E(y,w)", True),
    ("E(x,x), E(x,y), U(y), U(x)", True),
    ("T(x,y,z), E(w,x)", True),
    ("E(x,y), E(y,z), E(z,x)", False),
    ("E(x,y), E(y,x)", False),
    ("T(x,y,z), E(x,z)", False),
])
def test_is_forest_examples(body, forest):
    assert _is_forest(parse_query(f"answer() :- {body}.").structure.atoms()) == forest


def test_hom_exists_decides_forests_without_a_search(monkeypatch):
    # Every Berge-acyclic source is decided without a plan, as the naive
    # enumeration decides it; the others still search.
    rng = random.Random(44)
    planned = []
    plan = _HomSearch._plan

    def counted(self, pinned):
        planned.append(pinned)
        return plan(self, pinned)

    monkeypatch.setattr(_HomSearch, "_plan", counted)
    seen = set()
    for _ in range(300):
        q, b = random_instance(rng, max_vars=5, max_target=3)
        a = q.structure
        forest = _is_forest(a.atoms())
        planned.clear()
        assert hom_exists(a, b) == bool(naive_homomorphisms(a, b))
        assert not (forest and planned)
        seen.add((forest, hom_exists(a, b)))
    assert len(seen) == 4
    assert hom_exists(parse_query("answer() :- E(x,y), E(y,z).").structure, TRIANGLE)


def test_budgets_raise_distinct_errors():
    k4 = undirected("abcd", [(u, v) for u in "abcd" for v in "abcd" if u < v])
    k3 = undirected("xyz", [("x", "y"), ("y", "z"), ("x", "z")])
    with pytest.raises(ResourceBudgetError):
        first_homomorphism(k4, k3, HomSearchConfig(node_budget=2))
    q = ConjunctiveQuery(k4, tuple("abcd"))
    with pytest.raises(ResourceBudgetError):
        count_answers_brute(q, k3, HomSearchConfig(enumeration_cap=10))


def test_a_long_bad_budget_is_echoed_briefly():
    with pytest.raises(InputError, match="node_budget must be an integer") as info:
        HomSearchConfig(node_budget="9" * 100000)
    assert len(str(info.value)) < 200


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
        # The atoms with variables each search was built from, by its
        # constraint list (which views made by ``avoiding`` share), so that
        # constraint ``ci`` reads back as the atom it was built from.
        self.built = {}
        init, index = _HomSearch.__init__, _HomSearch._support_index

        def recording_init(search, atoms, *args, **kwargs):
            init(search, atoms, *args, **kwargs)
            self.built[id(search.constraints)] = (search.constraints,
                                                  [t for _, t in atoms if t])

        def recording(search, ci, v, before):
            t = self.built[id(search.constraints)][1][ci]
            self.seen["repeat_in_driving_atom"] += len(set(t)) < len(t)
            return index(search, ci, v, before)

        monkeypatch.setattr(_HomSearch, "__init__", recording_init)
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
            value not in search.base[v]
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


def test_answers_walk_the_arc_consistent_domains(monkeypatch):
    # Arc consistency leaves x in {a, b} and y in {b, c} of four values, so
    # brute-force counting tries 2 * 2 free tuples, not 4 ** 2.
    b = digraph("abcd", [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d")])
    q = ConjunctiveQuery(digraph("xyz", [("x", "y"), ("y", "z")]), ("x", "y"))
    run, calls = _HomSearch._run, []

    def counting(search, plan, pins, injective=False):
        calls.append(pins)
        return run(search, plan, pins, injective)

    monkeypatch.setattr(_HomSearch, "_run", counting)
    assert count_answers_brute(q, b) == 3
    assert calls == [("a", "b"), ("a", "c"), ("b", "b"), ("b", "c")]
    want = sorted(naive_answer_set(q, b))
    assert want == [("a", "b"), ("a", "c"), ("b", "c")]
    assert enumerate_answers(q, b) == want


def test_pinned_homomorphisms_match_independent_oracle(monkeypatch):
    # Pinned searches as a set, plain and injective, and a pinned search
    # that avoids a target value, against naive enumeration.
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
                   for h in pinned_solutions(_search(a, b), pins, injective)]
            assert len(got) == len(set(got))
            assert set(got) == {h for h in want
                                if not injective or len(set(dict(h).values())) == len(h)}
        if not b.domain:
            continue
        avoided = rng.choice(b.domain)
        view = _search(a, b).avoiding(avoided)
        got = {frozenset(h.items()) for h in pinned_solutions(view, pins)}
        assert got == naive(induced_substructure(b, set(b.domain) - {avoided}))
    shapes.assert_all_seen()


@pytest.mark.parametrize("k", range(2, 8))
def test_all_free_clique_into_a_looped_triangle(k):
    # K_k maps into K3 plus a loop at a iff at most one vertex goes to b and
    # at most one to c: 1 + 2k + k(k - 1) = k^2 + k + 1 answers. With every
    # variable free, brute force checks each edge among the pins only.
    variables = [f"x{i}" for i in range(k)]
    q = ConjunctiveQuery(undirected(variables, combinations(variables, 2)), tuple(variables))
    b = digraph("abc", [(u, v) for u in "abc" for v in "abc" if u != v or u == "a"])
    want = k * k + k + 1
    assert count_answers_brute(q, b) == want
    assert len(enumerate_answers(q, b)) == want
    assert count_answers(q, b) == want


def test_pin_checks_match_independent_oracle():
    # Brute-force counting sets every free variable at once and tests the
    # atoms among them before any search. Here free variables carry unary
    # atoms and E(x,x)-style atoms (left to the domains), ternary atoms over
    # two or more of them (compiled checks), 0-ary atoms and atoms whose
    # relation is empty in the target.
    rng = random.Random(63)
    seen = dict.fromkeys(["unary_atom", "loop_atom", "ternary_atom", "zero_ary_atom",
                          "empty_relation"], 0)
    for _ in range(300):
        a, b = _oracle_instance(rng)
        free = tuple(rng.sample(a.domain, rng.randint(1, len(a.domain))))
        q = ConjunctiveQuery(a, free)
        want = sorted(naive_answer_set(q, b))
        assert count_answers_brute(q, b) == len(want)
        assert enumerate_answers(q, b) == want
        among = [(name, t) for name, t in a.atoms() if set(t) <= set(free)]
        seen["unary_atom"] += any(name == "U" for name, _ in among)
        seen["loop_atom"] += any(name == "E" and t[0] == t[1] for name, t in among)
        seen["ternary_atom"] += any(name == "T" and len(set(t)) > 1 for name, t in among)
        seen["zero_ary_atom"] += any(name == "Z" for name, _ in among)
        seen["empty_relation"] += any(not b.tuples(name) for name, _ in among)
    assert all(seen.values()), seen


def test_node_budget_counts_pin_sets_and_candidates():
    # One node per pin set, one per candidate centre tried.
    q = quantified_star_query(3)
    b = digraph("abcd", [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d"), ("d", "a")])
    want = len(naive_answer_set(q, b))
    with pytest.raises(ResourceBudgetError):
        count_answers_brute(q, b, HomSearchConfig(node_budget=1))
    assert count_answers_brute(q, b, HomSearchConfig(node_budget=1 + len(b.domain))) == want


def _drift_instance(rng):
    """A query structure and a dense target over unary, binary and ternary
    symbols: atoms often repeat a variable, and searches backtrack."""
    symbols = {"U": 1, "E": 2, "T": 3}
    variables = [f"v{i}" for i in range(rng.randint(3, 6))]
    atoms = {name: set() for name in symbols}
    for _ in range(rng.randint(3, 7)):
        name = rng.choice("UEET")
        atoms[name].add(tuple(rng.choice(variables) for _ in range(symbols[name])))
    elements = [f"b{i}" for i in range(rng.randint(3, 6))]
    rows = {}
    for name, arity in symbols.items():
        every = list(product(elements, repeat=arity))
        rows[name] = set(rng.sample(every, round(rng.uniform(0.3, 0.8) * len(every))))
    return structure(symbols, variables, atoms), structure(symbols, elements, rows)


def _least_budget(a, b, pins, injective):
    """The least ``node_budget`` under which listing the homomorphisms does not raise."""
    def runs(budget):
        try:
            list(pinned_solutions(_search(a, b, HomSearchConfig(node_budget=budget)), pins, injective))
        except ResourceBudgetError:
            return False
        return True

    lo, hi = 0, 1
    while not runs(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if runs(mid):
            hi = mid
        else:
            lo = mid
    return hi


def test_search_order_and_node_counts_do_not_drift():
    # Solutions in canonical order and the least sufficient node budget of
    # unpinned and pinned searches, plain and injective, against values
    # recorded before step and pin checks were compiled to getters. A getter
    # that reads the wrong positions changes the solutions.
    rng = random.Random(71)
    digest = hashlib.sha256()
    budgets = solutions = 0
    shapes = {"unary_atom": 0, "repeated_variable": 0, "pinned_solution": 0,
              "injective_solution": 0}
    for _ in range(40):
        a, b = _drift_instance(rng)
        shapes["unary_atom"] += bool(a.tuples("U"))
        shapes["repeated_variable"] += any(len(set(t)) < len(t) for _, t in a.atoms())
        pins = {v: rng.choice(b.domain) for v in sorted(rng.sample(a.domain, rng.randint(1, 2)))}
        for partial in ({}, pins):
            for injective in (False, True):
                got = [tuple(sorted(h.items()))
                       for h in pinned_solutions(_search(a, b), partial, injective)]
                budget = _least_budget(a, b, partial, injective)
                digest.update(repr((got, budget)).encode())
                budgets += budget
                solutions += len(got)
                shapes["pinned_solution"] += bool(partial and got)
                shapes["injective_solution"] += bool(injective and got)
    assert all(shapes.values()), shapes
    assert (budgets, solutions) == (19319, 4143)
    assert digest.hexdigest() == "8946bc3019d0c73375be184914a5bfe13aa913ad16dce049352bbe480a0fe929"
