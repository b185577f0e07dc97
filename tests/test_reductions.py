import random
from itertools import product

import pytest
from conftest import digraph, structure

from cqcount import (
    ConjunctiveQuery,
    HomSearchConfig,
    InputError,
    InternalError,
    RelationalStructure,
    ResourceBudgetError,
    Vocabulary,
    are_isomorphic,
    blowup,
    contract,
    count_answers,
    count_answers_brute,
    count_star_via_oracle,
    CountingConfig,
    core_of_query,
    enumerate_answers,
    free_automorphism_set,
    hypergraph_of,
    is_homomorphism,
    lift_to_hypergraph,
    pair_structure,
    pin_relation_names,
    solve_vandermonde,
    star_structure,
)
from cqcount.generators import (
    quantified_star_query,
    random_instance,
    random_query,
    random_structure,
    random_vocabulary,
    redundant_variant,
)


def with_pins(rng, base, b, full=False):
    """Extend a target with pin relations (full domain or random subsets)."""
    pins = pin_relation_names(base)
    symbols = dict(b.vocabulary.symbols)
    relations = {name: set(ts) for name, ts in b.relations.items()}
    for elem, name in pins.items():
        symbols[name] = 1
        if full:
            relations[name] = {(x,) for x in b.domain}
        else:
            relations[name] = {(x,) for x in b.domain if rng.random() < 0.75}
    return RelationalStructure(Vocabulary(symbols), b.domain, relations)


def starred_query(q):
    return ConjunctiveQuery(star_structure(q.structure), q.free_vars)


def random_core_query_with_target(rng, max_free=3, full_pins=False):
    q, b = random_instance(rng, max_vars=4, max_free=max_free, max_atoms=3,
                           max_target=3)
    core = core_of_query(q)
    return core, with_pins(rng, core.structure, b, full=full_pins)


def test_pair_structure_unrestricted_pins():
    rng = random.Random(50)
    a = digraph("xy", [("x", "y")])
    b = digraph("uv", [("u", "v"), ("v", "u")])
    bstar = with_pins(rng, a, b, full=True)
    d = pair_structure(a, b=bstar)
    assert len(d.structure.domain) == 4  # the full product
    assert len(d.structure.tuples("E")) == 2  # (x,y) paired with both arcs


def test_pair_structure_empty_pin_blocks_element():
    a = digraph("xy", [("x", "y")])
    b = digraph("uv", [("u", "v")])
    pins = pin_relation_names(a)
    symbols = {"E": 2, pins["x"]: 1, pins["y"]: 1}
    bstar = structure(symbols, "uv",
                      {"E": {("u", "v")}, pins["x"]: set(), pins["y"]: {("u",), ("v",)}})
    d = pair_structure(a, bstar)
    assert all(d.first_coordinate(e) != "x" for e in d.structure.domain)


def test_pair_structure_projection_is_homomorphism():
    rng = random.Random(51)
    for _ in range(30):
        vocab = random_vocabulary(rng)
        a = random_structure(rng, vocab, max_elements=3)
        b = random_structure(rng, vocab, max_elements=3)
        bstar = with_pins(rng, a, b)
        d = pair_structure(a, bstar)
        projection = {e: d.first_coordinate(e) for e in d.structure.domain}
        assert is_homomorphism(d.structure, a, projection)


def test_pair_structure_requires_pin_relations():
    a = digraph("xy", [("x", "y")])
    b = digraph("uv", [("u", "v")])
    with pytest.raises(InputError):
        pair_structure(a, b)


def test_blowup_identities():
    rng = random.Random(52)
    a = digraph("xy", [("x", "y")])
    b = digraph("uv", [("u", "v"), ("v", "u")])
    d = pair_structure(a, with_pins(rng, a, b, full=True))

    assert blowup(d, [], 5) == d.structure
    assert are_isomorphic(blowup(d, ["x"], 1), d.structure)

    tripled = blowup(d, ["x"], 3)
    x_pairs = sum(1 for e in d.structure.domain if d.first_coordinate(e) == "x")
    other = len(d.structure.domain) - x_pairs
    assert len(tripled.domain) == other + 3 * x_pairs
    assert len(tripled.tuples("E")) == 3 * len(d.structure.tuples("E"))

    with pytest.raises(InputError):
        blowup(d, ["x"], 0)


def test_blowup_small_concrete():
    # |D| = 2 with one blown element and j = 3: domain grows to 4
    a = digraph("xy", [("x", "y")])
    pins = pin_relation_names(a)
    bstar = structure({"E": 2, pins["x"]: 1, pins["y"]: 1}, "u",
                      {"E": {("u", "u")}, pins["x"]: {("u",)}, pins["y"]: {("u",)}})
    d = pair_structure(a, bstar)
    assert len(d.structure.domain) == 2
    blown = blowup(d, ["x"], 3)
    assert len(blown.domain) == 4
    assert len(blown.tuples("E")) == 3


def test_solve_vandermonde_derived():
    # forward-substitute, then solve (two unknowns, nodes 1 and 2)
    target = [2, 1]
    rhs = [sum(c * j ** i for i, c in enumerate(target)) for j in (1, 2)]
    assert rhs == [3, 4]
    assert solve_vandermonde([1, 2], rhs) == target

    assert solve_vandermonde([1, 2, 3], [0, 0, 0]) == [0, 0, 0]

    target = [1, 0, 2]
    rhs = [sum(c * j ** i for i, c in enumerate(target)) for j in (1, 2, 3)]
    assert solve_vandermonde([1, 2, 3], rhs) == target


def test_solve_vandermonde_random_systems():
    # Arbitrary distinct integer nodes. Adding 1 to rhs[r] adds the Lagrange
    # polynomial L_r, whose leading coefficient is 1 / prod_{j != r}(x_r - x_j),
    # so the result stays integral exactly when that product is +-1.
    def value(cs, x):
        return sum(c * x ** i for i, c in enumerate(cs))

    rng = random.Random(63)
    inconsistent = 0
    for _ in range(1200):
        n = rng.randint(1, 6)
        nodes = rng.sample(range(-25, 26), n)
        coef = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(n)]
        rhs = [value(coef, x) for x in nodes]
        assert solve_vandermonde(nodes, rhs) == coef
        r = rng.randrange(n)
        denominator = 1
        for j, x in enumerate(nodes):
            if j != r:
                denominator *= nodes[r] - x
        rhs[r] += 1
        if abs(denominator) == 1:
            got = solve_vandermonde(nodes, rhs)
            assert [value(got, x) for x in nodes] == rhs
        else:
            inconsistent += 1
            with pytest.raises(InternalError):
                solve_vandermonde(nodes, rhs)
    assert inconsistent >= 900


def test_solve_vandermonde_errors():
    with pytest.raises(InputError):
        solve_vandermonde([1, 1], [0, 0])
    with pytest.raises(InputError):
        solve_vandermonde([1, 2], [0])
    with pytest.raises(InternalError):
        solve_vandermonde([1, 3], [1, 2])  # solution is (1/2, 1/2)


def count_first_coordinate_profile(q, d, t_subset):
    """N_{T,i} by enumeration: answers of q against the pair structure,
    bucketed by how many free images have their first coordinate in T."""
    counts = [0] * (len(q.free_vars) + 1)
    for row in enumerate_answers(q, d.structure):
        i = sum(1 for value in row if d.first_coordinate(value) in t_subset)
        counts[i] += 1
    return counts


def test_blowup_counting_identity():
    # the interpolation identity c_j = sum_i j^i N_{T,i}, checked by
    # enumeration before the pipeline is trusted with it
    rng = random.Random(53)
    checked = 0
    while checked < 50:
        core, bstar = random_core_query_with_target(rng, max_free=2)
        if not (1 <= len(core.free_vars) <= 2):
            continue
        d = pair_structure(core.structure, bstar)
        s = len(core.free_vars)
        for mask in range(1 << s):
            t_subset = {v for i, v in enumerate(core.free_vars) if mask >> i & 1}
            profile = count_first_coordinate_profile(core, d, t_subset)
            for j in range(1, s + 2):
                blown = blowup(d, sorted(t_subset), j)
                want = sum(j ** i * n for i, n in enumerate(profile))
                assert count_answers_brute(core, blown) == want
        checked += 1


def test_identity_bijection_with_pinned_answers():
    # answers of the fully pinned query correspond to answers over the pair
    # structure whose first coordinates are the identity
    rng = random.Random(54)
    for _ in range(40):
        core, bstar = random_core_query_with_target(rng, max_free=3)
        d = pair_structure(core.structure, bstar)
        pinned = count_answers_brute(starred_query(core), bstar)
        identity_like = sum(
            1
            for row in enumerate_answers(core, d.structure)
            if all(d.first_coordinate(value) == v
                   for v, value in zip(core.free_vars, row))
        )
        assert pinned == identity_like


def test_cover_equals_identity_times_automorphisms():
    # |{answers whose first coordinates cover S}| = |identity answers| * |I|
    rng = random.Random(55)
    for _ in range(30):
        core, bstar = random_core_query_with_target(rng, max_free=3)
        d = pair_structure(core.structure, bstar)
        free = core.free_vars
        cover = 0
        identity_like = 0
        for row in enumerate_answers(core, d.structure):
            firsts = [d.first_coordinate(value) for value in row]
            if set(firsts) == set(free):
                cover += 1
            if list(free) == firsts:
                identity_like += 1
        assert cover == identity_like * len(free_automorphism_set(core))


def test_count_star_via_oracle_boolean():
    q = ConjunctiveQuery(digraph("xy", [("x", "y")]), ())
    rng = random.Random(56)
    b = with_pins(rng, q.structure, digraph("uv", [("u", "v")]), full=True)
    oracle = lambda right: count_answers_brute(q, right)
    assert count_star_via_oracle(q, b, oracle) == 1

    blocked = with_pins(rng, q.structure, digraph("uv", []), full=True)
    assert count_star_via_oracle(q, blocked, oracle) == 0

    for wrong in (1.5, True, "1"):
        with pytest.raises(InputError, match="exact integer"):
            count_star_via_oracle(q, b, lambda right: wrong)


def test_count_star_via_oracle_single_edge_unrestricted():
    q = ConjunctiveQuery(digraph("xy", [("x", "y")]), ("x", "y"))
    rng = random.Random(57)
    b = digraph("uvw", [("u", "v"), ("v", "w"), ("w", "u")])
    bstar = with_pins(rng, q.structure, b, full=True)
    oracle = lambda right: count_answers_brute(q, right)
    assert count_star_via_oracle(q, bstar, oracle) == count_answers_brute(q, b)


def test_count_star_via_oracle_random():
    rng = random.Random(58)
    structural = CountingConfig(mode="structural")
    for trial in range(40):
        core, bstar = random_core_query_with_target(rng, max_free=2)
        if trial % 2:
            oracle = lambda right: count_answers_brute(core, right)
        else:
            oracle = lambda right: count_answers(core, right, structural)
        got = count_star_via_oracle(core, bstar, oracle)
        want = count_answers_brute(starred_query(core), bstar)
        assert got == want


def test_count_star_requires_core():
    # x -> y -> z folds onto a single edge once y is free to move, so the
    # pinned structure is not a core when only x is pinned... build an
    # explicitly redundant query instead: two parallel quantified paths
    a = digraph(["x", "y", "y2"], [("x", "y"), ("x", "y2")])
    q = ConjunctiveQuery(a, ("x",))
    rng = random.Random(59)
    bstar = with_pins(rng, a, digraph("uv", [("u", "v")]), full=True)
    with pytest.raises(InputError):
        count_star_via_oracle(q, bstar, lambda right: 0)

    # Seeded queries made redundant: each one that is not its own core is
    # refused, and its core is accepted.
    refused = 0
    for _ in range(40):
        q, b = random_instance(rng, max_vars=4, max_free=2, max_atoms=3, max_target=3)
        q = redundant_variant(rng, q)
        core = core_of_query(q)
        bstar = with_pins(rng, q.structure, b, full=True)
        if core != q:
            refused += 1
            with pytest.raises(InputError, match="must be a core"):
                count_star_via_oracle(q, bstar, lambda right: 0)
        cstar = with_pins(rng, core.structure, b, full=True)
        oracle = lambda right, core=core: count_answers_brute(core, right)
        assert count_star_via_oracle(core, cstar, oracle) == count_answers_brute(
            starred_query(core), cstar)
    assert refused >= 20


def generic_contract_instance(rng, target_h, n_values=3, density=0.7):
    """A random instance over contract(target): one to three atoms per edge.

    Each atom lists its edge's variables in shuffled order, sometimes with
    one of them repeated; about one instance in ten has no target values.
    """
    ct = contract(target_h)
    if rng.random() < 0.1:
        n_values = 0
    elems = tuple(f"d{i}" for i in range(n_values))
    symbols = {}
    lrels = {}
    rrels = {}
    for e in sorted(ct.edges, key=lambda e: sorted(e)):
        for _ in range(rng.randint(1, 3)):
            scope = sorted(e)
            rng.shuffle(scope)
            if rng.random() < 0.3:
                scope.insert(rng.randrange(len(scope) + 1), rng.choice(scope))
            name = f"Q{len(symbols)}"
            symbols[name] = len(scope)
            lrels[name] = {tuple(scope)}
            rrels[name] = {
                t for t in product(elems, repeat=len(scope)) if rng.random() < density
            }
    vocab = Vocabulary(symbols)
    left = ConjunctiveQuery(
        RelationalStructure(vocab, tuple(ct.vertices), lrels), tuple(ct.vertices))
    right = RelationalStructure(vocab, elems, rrels)
    return left, right


def test_lift_quantifier_free_is_renaming():
    rng = random.Random(60)
    for _ in range(20):
        q = random_query(rng, max_vars=4, max_free=4)
        h = hypergraph_of(ConjunctiveQuery(q.structure, tuple(q.structure.domain)))
        left, right = generic_contract_instance(rng, h)
        lifted_q, lifted_b = lift_to_hypergraph(left, right, h)
        assert set(enumerate_answers(left, right)) == set(
            enumerate_answers(lifted_q, lifted_b))


def test_lift_star_target():
    rng = random.Random(61)
    for leaves in (1, 2, 3) * 10:
        target = hypergraph_of(quantified_star_query(leaves))
        left, right = generic_contract_instance(rng, target)
        lifted_q, lifted_b = lift_to_hypergraph(left, right, target)
        assert set(enumerate_answers(left, right)) == set(
            enumerate_answers(lifted_q, lifted_b))


def test_lift_two_components():
    rng = random.Random(62)
    q = ConjunctiveQuery(
        digraph(["s1", "s2", "p", "r"],
                [("s1", "p"), ("p", "s2"), ("s1", "r"), ("r", "s1")]),
        ("s1", "s2"))
    target = hypergraph_of(q)
    for _ in range(10):
        left, right = generic_contract_instance(rng, target, n_values=2)
        lifted_q, lifted_b = lift_to_hypergraph(left, right, target)
        assert set(enumerate_answers(left, right)) == set(
            enumerate_answers(lifted_q, lifted_b))


def test_lift_with_isolated_free_vertex():
    # a free vertex in no edge must keep ranging over the value domain,
    # not over the component encodings added to the lifted target
    rng = random.Random(64)
    q = ConjunctiveQuery(digraph(["s", "t", "w"], [("t", "w")]), ("s", "t"))
    target = hypergraph_of(q)
    for _ in range(10):
        left, right = generic_contract_instance(rng, target, n_values=2)
        lifted_q, lifted_b = lift_to_hypergraph(left, right, target)
        assert set(enumerate_answers(left, right)) == set(
            enumerate_answers(lifted_q, lifted_b))


def test_lift_row_budget():
    # every leaf takes any of three values and every pair of leaves must be
    # equal, so the component join builds 3 rows where |D|^3 is 27
    target = hypergraph_of(quantified_star_query(3))
    ct = contract(target)
    vocab = Vocabulary({"U": 1, "Eq": 2})
    left = ConjunctiveQuery(RelationalStructure(vocab, tuple(ct.vertices), {
        "U": {(v,) for v in ct.vertices},
        "Eq": {tuple(sorted(e)) for e in ct.edges if len(e) == 2},
    }), tuple(ct.vertices))
    elems = ("0", "1", "2")
    right = RelationalStructure(
        vocab, elems, {"U": {(x,) for x in elems}, "Eq": {(x, x) for x in elems}})
    with pytest.raises(ResourceBudgetError):
        lift_to_hypergraph(left, right, target, HomSearchConfig(enumeration_cap=2))
    for cfg in (HomSearchConfig(enumeration_cap=3), HomSearchConfig()):
        lifted_q, lifted_b = lift_to_hypergraph(left, right, target, cfg)
        assert set(enumerate_answers(lifted_q, lifted_b)) == {
            (x, x, x) for x in elems}


def test_lift_rejects_mismatched_hypergraph():
    rng = random.Random(63)
    target = hypergraph_of(quantified_star_query(3))
    left, right = generic_contract_instance(rng, target)
    other = hypergraph_of(quantified_star_query(2))
    with pytest.raises(InputError):
        lift_to_hypergraph(left, right, other)
