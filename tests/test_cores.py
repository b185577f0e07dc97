import json
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from conftest import digraph, structure, undirected

from cqcount import (
    ConjunctiveQuery,
    HomSearchConfig,
    ResourceBudgetError,
    are_isomorphic,
    augment,
    core_of_query,
    core_of_structure,
    count_answers,
    count_answers_brute,
    drop_relations,
    find_extension,
    hom_equivalent,
    induced_substructure,
    is_core,
    is_homomorphism,
    iter_homomorphisms,
    parse_query,
    render_query,
    structure_to_dict,
)
from cqcount.cli import main
from cqcount.generators import (
    clique_graph,
    random_instance,
    random_query,
    random_structure,
    random_vocabulary,
    redundant_variant,
)
from cqcount.homomorphisms import _HomSearch
from cqcount.structures import _with_pins

TRIANGLE = undirected("abc", [("a", "b"), ("b", "c"), ("c", "a")])
P3 = undirected("abc", [("a", "b"), ("b", "c")])


def smallest_equivalent_subdomain(a):
    """Brute force over induced substructures: the least domain size that
    stays homomorphically equivalent to the input."""
    for r in range(len(a.domain) + 1):
        for combo in combinations(sorted(a.domain), r):
            sub = induced_substructure(a, combo)
            if hom_equivalent(a, sub):
                return r
    raise AssertionError("the structure is equivalent to itself")


def test_is_core_examples():
    assert is_core(TRIANGLE)
    assert not is_core(P3)
    lonely = structure({"E": 2}, "v", {})
    assert is_core(lonely)


def test_p3_has_an_endpoint_folding_retraction():
    fold = {"a": "c", "b": "b", "c": "c"}
    assert is_homomorphism(P3, induced_substructure(P3, "bc"), fold)


def test_core_of_p3_is_an_edge():
    core = core_of_structure(P3)
    assert len(core.domain) == 2
    assert len(core.tuples("E")) == 2
    assert hom_equivalent(core, P3)
    assert smallest_equivalent_subdomain(P3) == 2


def test_core_of_core_is_fixed_point():
    assert core_of_structure(TRIANGLE) == TRIANGLE


def test_triangle_plus_edge_cores_to_triangle():
    both = undirected("abcde", [("a", "b"), ("b", "c"), ("c", "a"), ("d", "e")])
    core = core_of_structure(both)
    assert are_isomorphic(core, TRIANGLE)
    assert smallest_equivalent_subdomain(both) == 3


def test_core_drops_isolated_elements():
    padded = structure({"E": 2}, "abz", {"E": {("a", "b"), ("b", "a")}})
    core = core_of_structure(padded)
    assert set(core.domain) == {"a", "b"}


def test_core_laws_random():
    rng = random.Random(30)
    for _ in range(60):
        a = random_structure(rng, random_vocabulary(rng), max_elements=5)
        core = core_of_structure(a)
        assert is_core(core)
        assert hom_equivalent(core, a)
        again = core_of_structure(core)
        assert again == core
        assert are_isomorphic(again, core)


def test_core_unique_up_to_isomorphism_under_permuted_orders():
    rng = random.Random(31)
    for _ in range(25):
        a = random_structure(rng, random_vocabulary(rng), max_elements=5)
        reference = core_of_structure(a)
        order = sorted(a.domain)
        rng.shuffle(order)
        permuted = core_of_structure(a, element_order=order)
        assert are_isomorphic(reference, permuted)


def test_core_of_query_examples():
    # without free variables, the query core is the plain structure core
    boolean = ConjunctiveQuery(P3, ())
    core = core_of_query(boolean)
    assert len(core.structure.domain) == 2

    # quantifier-free queries are their own cores
    qf = ConjunctiveQuery(P3, tuple(P3.domain))
    assert core_of_query(qf).structure == P3

    # answer(x) :- E(x,y), E(x,z) keeps x and exactly one of y, z
    fork = ConjunctiveQuery(digraph("xyz", [("x", "y"), ("x", "z")]), ("x",))
    core = core_of_query(fork)
    assert core.free_vars == ("x",)
    assert len(core.structure.domain) == 2
    assert "x" in core.structure.domain
    assert len(core.structure.tuples("E")) == 1
    # brute-force check: no single-element substructure of the pinned
    # structure is equivalent to it
    assert smallest_equivalent_subdomain(augment(fork)) == 2


def test_pins_survive_into_query_core():
    rng = random.Random(32)
    for _ in range(40):
        q, _ = random_instance(rng, max_vars=5, max_free=3, max_target=3)
        core = core_of_query(q)
        assert core.free_vars == q.free_vars
        assert set(core.free_vars) <= set(core.structure.domain)
        assert core.structure.vocabulary == q.structure.vocabulary


def test_endomorphisms_fixing_free_vars_are_bijections():
    # on computed query cores, an endomorphism that is the identity on the
    # free variables cannot collapse anything
    rng = random.Random(33)
    for _ in range(30):
        q, _ = random_instance(rng, max_vars=4, max_free=3, max_target=3)
        core = core_of_query(q)
        pins = {v: v for v in core.free_vars}
        for h in iter_homomorphisms(core.structure, core.structure, partial=pins):
            assert len(set(h.values())) == len(core.structure.domain)


def test_same_core_means_same_counts():
    rng = random.Random(34)
    for _ in range(40):
        q, b = random_instance(rng, max_vars=4, max_free=3, max_target=4)
        core = core_of_query(q)
        assert count_answers_brute(q, b) == count_answers_brute(core, b)


def test_budget_propagates():
    with pytest.raises(ResourceBudgetError):
        core_of_structure(P3, cfg=HomSearchConfig(node_budget=1))


# Reference: one fresh search into the induced substructure per candidate.
# The shared per-round search must give exactly the same results.
def reference_retraction(a, cfg, order):
    for v in order:
        sub = induced_substructure(a, [e for e in a.domain if e != v])
        h = find_extension(a, sub, cfg=cfg)
        if h is not None:
            return h
    return None


def reference_shrink(a, cfg, candidates):
    current = a
    while True:
        present = set(current.domain)
        h = reference_retraction(current, cfg, [v for v in candidates if v in present])
        if h is None:
            return current
        current = induced_substructure(current, sorted(set(h.values())))


def reference_core_of_query(q, cfg):
    if not q.quantified_vars:
        return q
    pinned, names = _with_pins(q.structure, q.free_vars)
    core = reference_shrink(pinned, cfg, sorted(q.quantified_vars))
    return ConjunctiveQuery(drop_relations(core, names.values()), q.free_vars)


def naive_arc_consistent_domains(src, dst):
    # Greatest arc-consistent domains by sweeping every tuple to a fixpoint.
    dom = {v: set(dst.domain) for v in src.domain}
    changed = True
    while changed:
        changed = False
        for name, ts in src.relations.items():
            for t in ts:
                rows = [r for r in dst.tuples(name)
                        if all(b in dom[v] for v, b in zip(t, r))
                        and all(r[i] == r[j] for i in range(len(t))
                                for j in range(len(t)) if t[i] == t[j])]
                for i, v in enumerate(t):
                    keep = {r[i] for r in rows}
                    if dom[v] - keep:
                        dom[v] &= keep
                        changed = True
    return dom


def test_arc_consistency_reaches_the_greatest_fixpoint():
    rng = random.Random(36)
    wiped = 0
    for _ in range(200):
        q, b = random_instance(rng, max_vars=6, max_atoms=6, max_target=4)
        want = naive_arc_consistent_domains(q.structure, b)
        search = _HomSearch(q.structure, b)
        wiped_out = any(not d for d in want.values())
        zero_ary_fails = any(() in ts and () not in b.tuples(name)
                             for name, ts in q.structure.relations.items())
        wiped += wiped_out
        assert search.feasible == (not wiped_out and not zero_ary_fails)
        if search.feasible:
            assert {v: set(d) for v, d in search.base.items()} == want
    assert wiped >= 20


def test_shared_search_matches_per_candidate_reference():
    rng = random.Random(35)
    cfg = HomSearchConfig()
    shrunk = 0
    for _ in range(150):
        a = random_structure(rng, random_vocabulary(rng), max_elements=6)
        order = sorted(a.domain)
        search = _HomSearch(a, a, cfg)
        for v in order:
            fresh = _HomSearch(a, induced_substructure(a, set(a.domain) - {v}), cfg)
            view = search.avoiding(v)
            assert next(view.solutions(), None) == next(fresh.solutions(), None)
            assert view.feasible == fresh.feasible
            if fresh.feasible:
                assert (view.base, view.order) == (fresh.base, fresh.order)
        assert core_of_structure(a, cfg) == reference_shrink(a, cfg, order)
        assert is_core(a, cfg) == (reference_retraction(a, cfg, order) is None)
        rng.shuffle(order)
        permuted = core_of_structure(a, cfg, element_order=order)
        assert permuted == reference_shrink(a, cfg, order)

        q = random_query(rng, max_vars=7, max_free=3, max_atoms=6)
        if rng.random() < 0.5:
            q = redundant_variant(rng, q)
        core = core_of_query(q, cfg)
        assert core == reference_core_of_query(q, cfg)
        shrunk += len(core.structure.domain) < len(q.structure.domain)
    assert shrunk >= 20


def test_redundant_variant_does_not_depend_on_the_string_hash_seed():
    # One seed draws the same queries in every process, whatever order the
    # per-process string hash gives to sets of variable names.
    script = (
        "import random\n"
        "from cqcount import render_query\n"
        "from cqcount.generators import random_query, redundant_variant\n"
        "rng = random.Random(7)\n"
        "for _ in range(50):\n"
        "    q = random_query(rng, max_vars=7, max_free=3, max_atoms=6)\n"
        "    print(render_query(redundant_variant(rng, q)))\n"
    )
    outputs = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1


def ends_free_path(length):
    atoms = ", ".join(f"E(v{i},v{i + 1})" for i in range(length))
    return parse_query(f"answer(v0,v{length}) :- {atoms}.")


def test_deep_ends_free_path_cores_and_counts(tmp_path, capsys):
    # The path is its own core: every one of its 199 quantified variables
    # is tried and refused.
    q, k3 = ends_free_path(200), clique_graph(3)
    assert core_of_query(q) == q
    assert count_answers(q, k3) == 9
    db_path, q_path = tmp_path / "k3.json", tmp_path / "path.query"
    db_path.write_text(json.dumps(structure_to_dict(k3)))
    q_path.write_text(render_query(q) + "\n")
    assert main(["count", "--db", str(db_path), "--query", str(q_path)]) == 0
    assert capsys.readouterr().out == "9\n"
