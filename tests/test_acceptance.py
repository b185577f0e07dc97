"""Acceptance suite: one test per criterion, each printing a PASS line.

Random sizes stay inside the stated caps (query domain <= 8 variables,
arity <= 3, target domain <= 6); seeds are fixed so runs are reproducible.
"""

import random
from itertools import combinations
from pathlib import Path

import pytest
from conftest import are_isomorphic, hom_equivalent, relabel

from cqcount import (
    CASE_I,
    CASE_II,
    CASE_III,
    ConjunctiveQuery,
    CountingConfig,
    Graph,
    RelationalStructure,
    TreeDecomposition,
    Vocabulary,
    blowup,
    classify,
    contract,
    contract_instance,
    core_of_query,
    core_of_structure,
    count_answers,
    count_answers_brute,
    count_star_via_oracle,
    decompose,
    enumerate_answers,
    hypergraph_of,
    is_core,
    pair_structure,
    pin_relation_names,
    primal_graph,
    star_structure,
    verify_decomposition,
)
from cqcount.cli import main
from cqcount.generators import (
    boolean_clique_query,
    quantified_star_query,
    quantifier_free_path_query,
    random_instance,
    random_structure,
    random_vocabulary,
    redundant_variant,
)
from cqcount.treewidth import DecompositionError, _exact_elimination

DATA = Path(__file__).parent / "data"
STRUCTURAL = CountingConfig(mode="structural")


def criterion_one_instances(count=1000):
    rng = random.Random(20260810)
    for _ in range(count):
        yield random_instance(rng, max_vars=8, max_free=4, max_atoms=6,
                              max_target=6, max_arity=3)


def test_criterion_1_oracle_equivalence():
    trials = 0
    for q, b in criterion_one_instances():
        want = count_answers_brute(q, b)
        got = count_answers(q, b, STRUCTURAL)
        assert got == want, (q, b, got, want)
        trials += 1
    assert trials >= 1000
    print(f"ACCEPTANCE 1 (oracle equivalence, {trials} instances): PASS")


def test_criterion_2_core_laws():
    rng = random.Random(2)
    trials = 0
    for _ in range(500):
        vocab = random_vocabulary(rng, max_arity=3)
        a = random_structure(rng, vocab, max_elements=7)
        core = core_of_structure(a)
        assert is_core(core)
        assert hom_equivalent(core, a)
        assert core_of_structure(core) == core
        permuted = core_of_structure(relabel(a, rng))
        assert are_isomorphic(core, permuted)
        trials += 1
    assert trials >= 500
    print(f"ACCEPTANCE 2 (core laws, {trials} structures): PASS")


def test_criterion_3_same_core_equivalence():
    rng = random.Random(3)
    trials = 0
    for _ in range(200):
        q, b = random_instance(rng, max_vars=4, max_free=3, max_atoms=4,
                               max_target=4)
        variant = redundant_variant(rng, q)
        assert are_isomorphic(
            core_of_structure(  # shared core of the pinned structures
                _pinned(q)), core_of_structure(_pinned(variant)))
        want = count_answers_brute(q, b)
        assert count_answers_brute(variant, b) == want
        assert count_answers(variant, b, STRUCTURAL) == want
        trials += 1
    assert trials >= 200
    print(f"ACCEPTANCE 3 (same-core count agreement, {trials} pairs): PASS")


def _pinned(q):
    from cqcount import augment

    return augment(q)


def test_criterion_4_contract_instance_preservation():
    trials = 0
    for q, b in criterion_one_instances():
        core = core_of_query(q)
        left, right = contract_instance(core, b)
        assert set(enumerate_answers(core, b)) == set(enumerate_answers(left, right))
        assert primal_graph(hypergraph_of(left)) == primal_graph(
            contract(hypergraph_of(core)))
        trials += 1
    assert trials >= 1000
    print(f"ACCEPTANCE 4 (answer-set preservation, {trials} instances): PASS")


def _with_random_pins(rng, base, b):
    pins = pin_relation_names(base)
    symbols = dict(b.vocabulary.symbols)
    relations = {name: set(ts) for name, ts in b.relations.items()}
    for elem, name in pins.items():
        symbols[name] = 1
        relations[name] = {(x,) for x in b.domain if rng.random() < 0.8}
    return RelationalStructure(Vocabulary(symbols), b.domain, relations)


def _pipeline_cases(rng, count):
    """Core queries with |S| <= 4 plus pinned targets, small enough that
    every oracle call stays cheap."""
    produced = 0
    while produced < count:
        shape = rng.choice(["random", "random", "path3", "path4", "star3"])
        if shape == "random":
            q, b = random_instance(rng, max_vars=4, max_free=2, max_atoms=3,
                                   max_target=3)
            core = core_of_query(q)
        elif shape == "star3":
            core = quantified_star_query(3)
            b = random_structure(rng, core.structure.vocabulary, max_elements=2,
                                 density=0.7)
        else:
            length = 3 if shape == "path3" else 4
            core = quantifier_free_path_query(length - 1)
            core = ConjunctiveQuery(core.structure, core.free_vars[:length])
            b = random_structure(rng, core.structure.vocabulary, max_elements=2,
                                 density=0.7)
        yield core, _with_random_pins(rng, core.structure, b)
        produced += 1


def test_criterion_5_interpolation_pipeline():
    rng = random.Random(5)
    verified_identity = 0
    # the interpolation identity, by enumeration, before trusting it
    while verified_identity < 50:
        q, b = random_instance(rng, max_vars=4, max_free=2, max_atoms=3,
                               max_target=3)
        core = core_of_query(q)
        if len(core.free_vars) < 1:
            continue
        bstar = _with_random_pins(rng, core.structure, b)
        d = pair_structure(core.structure, bstar)
        s = len(core.free_vars)
        for mask in range(1 << s):
            t_subset = {v for i, v in enumerate(core.free_vars) if mask >> i & 1}
            profile = [0] * (s + 1)
            for row in enumerate_answers(core, d.structure):
                hits = sum(1 for value in row if d.first_coordinate(value) in t_subset)
                profile[hits] += 1
            for j in range(1, s + 2):
                blown = blowup(d, sorted(t_subset), j)
                assert count_answers_brute(core, blown) == sum(
                    j ** i * n for i, n in enumerate(profile))
        verified_identity += 1

    trials = 0
    for core, bstar in _pipeline_cases(rng, 100):
        use_structural = len(core.free_vars) >= 3
        if use_structural:
            oracle = lambda right: count_answers(core, right, STRUCTURAL)
        else:
            oracle = lambda right: count_answers_brute(core, right)
        got = count_star_via_oracle(core, bstar, oracle)  # division exactness asserted inside
        starred = ConjunctiveQuery(star_structure(core.structure), core.free_vars)
        assert got == count_answers_brute(starred, bstar)
        trials += 1
    assert trials >= 100 and verified_identity >= 50
    print(f"ACCEPTANCE 5 (interpolation pipeline, {trials} runs, "
          f"{verified_identity} identity enumerations): PASS")


def _random_graph(rng, max_n=30):
    n = rng.randint(0, max_n)
    vs = [f"v{i}" for i in range(n)]
    pairs = [e for e in combinations(vs, 2) if rng.random() < 0.25]
    return Graph(tuple(vs), frozenset(frozenset(p) for p in pairs))


def test_criterion_6_treewidth():
    tree = Graph(tuple("abcdef"), frozenset(
        frozenset(p) for p in [("a", "b"), ("b", "c"), ("b", "d"), ("d", "e"), ("a", "f")]))
    assert _exact_elimination(tree)[1] == 1
    for n in (3, 4, 7):
        vs = [f"c{i}" for i in range(n)]
        cycle = Graph(tuple(vs), frozenset(
            frozenset((vs[i], vs[(i + 1) % n])) for i in range(n)))
        assert _exact_elimination(cycle)[1] == 2
    for k in range(2, 11):
        vs = [f"k{i}" for i in range(k)]
        clique = Graph(tuple(vs), frozenset(frozenset(p) for p in combinations(vs, 2)))
        assert _exact_elimination(clique)[1] == k - 1

    def grid(n):
        vs = [f"g{i}_{j}" for i in range(n) for j in range(n)]
        pairs = []
        for i in range(n):
            for j in range(n):
                if i + 1 < n:
                    pairs.append((f"g{i}_{j}", f"g{i + 1}_{j}"))
                if j + 1 < n:
                    pairs.append((f"g{i}_{j}", f"g{i}_{j + 1}"))
        return Graph(tuple(vs), frozenset(frozenset(p) for p in pairs))

    assert _exact_elimination(grid(3))[1] == 3
    assert _exact_elimination(grid(4))[1] == 4

    rng = random.Random(6)
    fuzzed = 0
    for _ in range(500):
        g = _random_graph(rng)
        td = decompose(g)
        assert verify_decomposition(g, td) == td.width
        fuzzed += 1

    # three mutation classes must be rejected
    chain = Graph(tuple("abcd"), frozenset(
        frozenset(p) for p in [("a", "b"), ("b", "c"), ("c", "d")]))
    td = decompose(chain)
    bags = list(td.bags)
    victim = next(i for i, bag in enumerate(bags) if len(bag) == 2)
    bags[victim] = frozenset({sorted(bags[victim])[0]})
    with pytest.raises(DecompositionError):
        verify_decomposition(chain, TreeDecomposition(
            tuple(bags), td.tree_edges, td.width, td.exactness))
    disconnected = TreeDecomposition(
        (frozenset("ab"), frozenset("bc"), frozenset("cd"), frozenset("da")),
        frozenset({(0, 1), (1, 2), (2, 3)}), 1, "exact")
    with pytest.raises(DecompositionError):
        verify_decomposition(chain, disconnected)
    with pytest.raises(DecompositionError):
        verify_decomposition(chain, TreeDecomposition(
            td.bags, frozenset(), td.width, td.exactness))
    print(f"ACCEPTANCE 6 (treewidth values + {fuzzed} fuzzed decompositions): PASS")


def test_criterion_7_trichotomy_families():
    for length in (2, 3, 4):
        report = classify(quantifier_free_path_query(length), 3, 3)
        assert report.case_label == CASE_I
    for k in (4, 5, 6):
        report = classify(boolean_clique_query(k), 3, 3)
        assert report.case_label == CASE_II
        assert report.core_treewidth == k - 1
        assert report.core_treewidth_exact
        report = classify(quantified_star_query(k), 3, 3)
        assert report.case_label == CASE_III
        assert report.contract_treewidth == k - 1
        assert report.contract_treewidth_exact
    print("ACCEPTANCE 7 (trichotomy families): PASS")


def test_criterion_8_cli_golden(capsys):
    code = main(["count", "--db", str(DATA / "triangle.json"),
                 "--query", str(DATA / "edge.query")])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "3\n"

    code = main(["decide", "--db", str(DATA / "undirected_triangle.json"),
                 "--query", str(DATA / "clique4.query")])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "UNSAT\n"
    print("ACCEPTANCE 8 (CLI golden outputs): PASS")
