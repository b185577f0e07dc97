import json
import os
import random
import subprocess
import sys
from itertools import combinations, product
from pathlib import Path

import pytest
from conftest import (
    are_isomorphic,
    digraph,
    hom_equivalent,
    induced_substructure,
    naive_homomorphisms,
    pinned_solutions,
    relabel,
    structure,
    undirected,
)
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cqcount import (
    ConjunctiveQuery,
    HomSearchConfig,
    ResourceBudgetError,
    augment,
    core_of_query,
    core_of_structure,
    count_answers,
    count_answers_brute,
    is_core,
    is_homomorphism,
    parse_query,
    render_query,
    structure_to_dict,
)
from cqcount import cores
from cqcount.cli import main
from cqcount.generators import (
    clique_graph,
    random_instance,
    random_query,
    random_structure,
    random_vocabulary,
    redundant_variant,
)
from cqcount.homomorphisms import _HomSearch, _search
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
        permuted = core_of_structure(relabel(a, rng))
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
        for h in pinned_solutions(_search(core.structure, core.structure), pins):
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
        h = next(_search(a, sub, cfg).solutions(), None)
        if h is not None:
            return h
    return None


def reference_shrink(a, cfg, candidates, rounds=None):
    """The per-candidate reference; ``rounds``, a list, gets one entry per retraction."""
    current = a
    while True:
        present = set(current.domain)
        h = reference_retraction(current, cfg, [v for v in candidates if v in present])
        if h is None:
            return current
        if rounds is not None:
            rounds.append(h)
        current = induced_substructure(current, sorted(set(h.values())))


def reference_core_of_query(q, cfg, rounds=None):
    if not q.quantified_vars:
        return q
    pinned = _with_pins(q.structure, q.free_vars)
    core = reference_shrink(pinned, cfg, sorted(q.quantified_vars), rounds)
    return ConjunctiveQuery(induced_substructure(q.structure, core.domain), q.free_vars)


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


def assert_greatest_fixpoint(search, q, b):
    """The search's root domains are the naive fixpoint; returns whether one is wiped out."""
    want = naive_arc_consistent_domains(q.structure, b)
    wiped_out = any(not d for d in want.values())
    zero_ary_fails = any(() in ts and () not in b.tuples(name)
                         for name, ts in q.structure.relations.items())
    assert search.feasible == (not wiped_out and not zero_ary_fails)
    if search.feasible:
        assert {v: set(d) for v, d in search.base.items()} == want
        # every domain is sorted, and a domain equal to the target's is its one shared list
        for d in search.base.values():
            assert d == sorted(d)
            assert d is search.values or len(d) < len(search.values)
    return wiped_out


def test_arc_consistency_reaches_the_greatest_fixpoint():
    rng = random.Random(36)
    wiped = 0
    for _ in range(200):
        q, b = random_instance(rng, max_vars=6, max_atoms=6, max_target=4)
        wiped += assert_greatest_fixpoint(_search(q.structure, b), q, b)
    assert wiped >= 20
    # Relations of arity up to 4, and each view avoiding one target value:
    # a view restores arc consistency from the constraints on the variables
    # that lost the value, and reaches the fixpoint of the smaller target.
    rng = random.Random(38)
    arities, views = set(), 0
    for _ in range(150):
        q, b = random_instance(rng, max_vars=6, max_atoms=6, max_target=4, max_arity=4)
        arities.update(q.structure.vocabulary.symbols.values())
        search = _search(q.structure, b)
        assert_greatest_fixpoint(search, q, b)
        if not search.feasible:
            continue
        for value in b.domain:
            smaller = induced_substructure(b, [e for e in b.domain if e != value])
            assert_greatest_fixpoint(search.avoiding(value), q, smaller)
            views += 1
    assert 4 in arities and views >= 200


def test_shared_search_matches_per_candidate_reference(monkeypatch):
    rng = random.Random(35)
    cfg = HomSearchConfig()
    shrunk = 0
    pinned = 0
    avoided = []
    real_avoiding = _HomSearch.avoiding

    def recording(self, value):
        avoided.append(self.base[value])
        return real_avoiding(self, value)
    for _ in range(150):
        a = random_structure(rng, random_vocabulary(rng), max_elements=6)
        order = sorted(a.domain)
        search = _search(a, a, cfg)
        for v in order:
            fresh = _search(a, induced_substructure(a, set(a.domain) - {v}), cfg)
            view = search.avoiding(v)
            assert next(view.solutions(), None) == next(fresh.solutions(), None)
            assert view.feasible == fresh.feasible
            if fresh.feasible:
                # The variables of the unpinned plan, in search order.
                view_order, fresh_order = ([step[0] for step in s._plan(()).steps]
                                           for s in (view, fresh))
                assert (view.base, view_order) == (fresh.base, fresh_order)
        assert core_of_structure(a, cfg) == reference_shrink(a, cfg, order)
        assert is_core(a, cfg) == (reference_retraction(a, cfg, order) is None)
        # candidates in a shuffled order: the same structure, relabeled
        relabeled = relabel(a, rng)
        permuted = core_of_structure(relabeled, cfg)
        assert permuted == reference_shrink(relabeled, cfg, sorted(relabeled.domain))
        assert are_isomorphic(permuted, core_of_structure(a, cfg))

        q = random_query(rng, max_vars=7, max_free=3, max_atoms=6)
        if rng.random() < 0.5:
            q = redundant_variant(rng, q)
        # A candidate that root arc consistency pins to itself cannot be
        # avoided, and is skipped without a view.
        first = _HomSearch(q.structure.atoms(), q.structure.domain, q.structure.relations,
                           q.structure.domain, {v: [v] for v in q.free_vars}, cfg)
        pinned += sum(first.base[v] == [v] for v in q.quantified_vars)
        avoided.clear()
        with monkeypatch.context() as patch:
            patch.setattr(_HomSearch, "avoiding", recording)
            core = core_of_query(q, cfg)
        assert all(len(domain) > 1 for domain in avoided)
        assert core == reference_core_of_query(q, cfg)
        shrunk += len(core.structure.domain) < len(q.structure.domain)
    assert shrunk >= 20
    assert pinned >= 20


# Seeds whose queries need two or more retraction rounds (checked below).
SEVERAL_ROUNDS = [(7, False), (15, True), (47, True)]


def drawn_query(seed, redundant):
    rng = random.Random(seed)
    q = random_query(rng, max_vars=7, max_free=3, max_atoms=6)
    return redundant_variant(rng, q) if redundant else q


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2 ** 32 - 1), st.booleans())
@example(*SEVERAL_ROUNDS[0])
@example(*SEVERAL_ROUNDS[1])
@example(*SEVERAL_ROUNDS[2])
def test_query_cores_match_the_per_candidate_reference(seed, redundant):
    # Candidates proved undroppable in one round are not offered again, and
    # candidates in the only tuple of a relation are never offered; the core
    # is still the one a fresh search per candidate and round finds.
    q = drawn_query(seed, redundant)
    cfg = HomSearchConfig()
    assert core_of_query(q, cfg) == reference_core_of_query(q, cfg)


def test_the_several_round_examples_need_several_rounds():
    for seed, redundant in SEVERAL_ROUNDS:
        rounds = []
        reference_core_of_query(drawn_query(seed, redundant), HomSearchConfig(), rounds)
        assert len(rounds) >= 2


def test_a_variable_proved_undroppable_is_not_searched_again(monkeypatch):
    # The first round folds y onto z. z's root domain was {y, z}, which
    # meets the image {x, z} only in z, so z is kept without a second
    # search, which would only confirm it.
    q = parse_query("answer(x) :- E(x,y), E(x,z).")
    built = []

    class Counted(_HomSearch):
        def __init__(self, *args, **kwargs):
            built.append(args[1])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cores, "_HomSearch", Counted)
    core = core_of_query(q, HomSearchConfig())
    assert core.structure.domain == ("x", "z")
    assert built == [q.structure.domain]
    assert reference_core_of_query(q, HomSearchConfig()) == core


def test_candidates_in_no_atom_are_dropped_without_a_search(monkeypatch):
    # u, in no atom, folds onto x or y, which the single tuple of E fixes;
    # only a query built through the API can have such a variable.
    q = ConjunctiveQuery(structure({"E": 2}, "xyu", {"E": {("x", "y")}}), ("x",))
    built = []

    class Counted(_HomSearch):
        def __init__(self, *args, **kwargs):
            built.append(args[1])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cores, "_HomSearch", Counted)
    core = core_of_query(q, HomSearchConfig(node_budget=1))
    assert core.structure.domain == ("x", "y") and core.free_vars == ("x",)
    assert core_of_structure(q.structure).domain == ("x", "y")
    assert built == []
    assert reference_core_of_query(q, HomSearchConfig()) == core


def equivalent_fixing_free(q, sub):
    """Some map of q into its induced subquery sub fixes every free variable.

    Checked map by map with is_homomorphism, apart from the search code;
    sub maps back into q by inclusion.
    """
    quantified = q.quantified_vars
    fixed = {v: v for v in q.free_vars}
    return any(is_homomorphism(q.structure, sub, {**fixed, **dict(zip(quantified, combo))})
               for combo in product(sub.domain, repeat=len(quantified)))


def test_query_cores_against_a_search_free_oracle():
    # A subquery equivalent to q stays equivalent when variables are added
    # back, so the core is minimal iff no induced subquery one variable
    # smaller that keeps the free variables is equivalent to q.
    rng = random.Random(37)
    shrunk = variants = 0
    for i in range(200):
        while True:
            q = random_query(rng, max_vars=5, max_free=3, max_atoms=5)
            if i % 2:
                q = redundant_variant(rng, q)
            if len(q.structure.domain) <= 5:
                break
        variants += i % 2
        core = core_of_query(q)
        assert core.free_vars == q.free_vars
        aq, acore = augment(q), augment(core)
        assert naive_homomorphisms(aq, acore) and naive_homomorphisms(acore, aq)
        size = len(core.structure.domain)
        assert size == len(q.free_vars) or not any(
            equivalent_fixing_free(q, induced_substructure(q.structure, q.free_vars + rest))
            for rest in combinations(q.quantified_vars, size - 1 - len(q.free_vars)))
        shrunk += size < len(q.structure.domain)
    assert variants == 100 and shrunk >= 30


def smallest_core_budget(q, core=core_of_query):
    """The least node budget under which ``core`` (core_of_query by default) succeeds."""
    low, high = 1, 1
    while True:
        try:
            core(q, HomSearchConfig(node_budget=high))
            break
        except ResourceBudgetError:
            low, high = high + 1, 2 * high
    while low < high:
        mid = (low + high) // 2
        try:
            core(q, HomSearchConfig(node_budget=mid))
            high = mid
        except ResourceBudgetError:
            low = mid + 1
    return high


def only_isolated_candidates(q):
    """Whether every quantified variable outside a one-tuple relation is in no atom,
    and some variable is not such a one: then the core needs no search."""
    relations = q.structure.relations.values()
    alone = {v for ts in relations if len(ts) == 1 for t in ts for v in t}
    offered = [v for v in q.quantified_vars if v not in alone]
    used = {v for ts in relations for t in ts for v in t}
    return bool(offered) and used.isdisjoint(offered) and len(offered) < len(q.structure.domain)


def test_core_budgets_match_the_pinned_reference():
    # The free variables' one-value domains stand in for pin relations, so
    # every search call tries the same nodes: the least budget that cores
    # a query is the same for both, and one node less fails in both. A
    # query whose candidates are all in no atom is cored without a search:
    # at any budget, with the core the reference finds at its least one.
    rng = random.Random(9)
    budgets = set()
    searched = unsearched = 0
    for _ in range(300):
        q = random_query(rng, max_vars=7, max_free=3, max_atoms=6)
        if rng.random() < 0.5:
            q = redundant_variant(rng, q)
        if not q.quantified_vars:
            continue
        if only_isolated_candidates(q):
            least = HomSearchConfig(node_budget=smallest_core_budget(q, reference_core_of_query))
            core = core_of_query(q, HomSearchConfig(node_budget=1))
            assert core == core_of_query(q, least) == reference_core_of_query(q, least)
            unsearched += 1
            continue
        searched += 1
        budget = smallest_core_budget(q)
        enough = HomSearchConfig(node_budget=budget)
        assert reference_core_of_query(q, enough) == core_of_query(q, enough)
        if budget > 1:
            short = HomSearchConfig(node_budget=budget - 1)
            for core in (core_of_query, reference_core_of_query):
                with pytest.raises(ResourceBudgetError):
                    core(q, short)
        budgets.add(budget)
    assert len(budgets) >= 5
    assert searched and unsearched


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
