"""The decomposition and query-analysis caches against uncached computation.

``decompose`` memoises by value, and ``count_answers`` and ``classify``
share one memoised analysis per query, core included; these tests check
that a cold and a warm cache give the same cores, reports and counts as
``core_of_query``, the undecorated ``decompose`` and the brute-force
counter, that equal values share one entry, that classifying a counted
query reuses its analysis, and that failures and other budgets are never
served from it.
"""

import random
from collections import Counter
from pathlib import Path

import pytest
from conftest import clear_caches as clear
from conftest import digraph, induced_substructure

from cqcount import (
    CASE_I,
    CASE_II,
    CASE_III,
    ConjunctiveQuery,
    CountingConfig,
    HomSearchConfig,
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
    decompose,
    hypergraph_of,
    parse_query,
    primal_graph,
    s_components,
    star_sizes,
)
from cqcount import cores, counting
from cqcount.cli import main
from cqcount.counting import ANALYSIS_CACHE_SIZE, MODE_AUTO, MODE_STRUCTURAL, _analyse
from cqcount.generators import random_instance, redundant_variant
from cqcount.hypergraphs import Graph, SHypergraph
from cqcount.treewidth import DECOMPOSITION_CACHE_SIZE, EXACT, TreeDecomposition, _decompose

CONFIGS = [CountingConfig(mode=mode) for mode in (MODE_AUTO, MODE_STRUCTURAL)]


def uncached_report(q, cfg, k_core=3, k_contract=3):
    """classify's JSON, from ``core_of_query`` and the undecorated decomposition."""
    core = core_of_query(q, cfg.hom)
    h = hypergraph_of(core)
    cg = contract(h)
    core_td = _decompose.__wrapped__(primal_graph(h))
    contract_td = _decompose.__wrapped__(primal_graph(cg))
    if contract_td.width >= k_contract:
        label = CASE_III
    elif core_td.width >= k_core:
        label = CASE_II
    else:
        label = CASE_I
    return TrichotomyReport(
        core, core_td.width, core_td.exactness == EXACT,
        cg, contract_td.width, contract_td.exactness == EXACT,
        *star_sizes(h), k_core, k_contract, label).to_json_dict()


def analyse(q, b, cfg, cold):
    """Count, core and classify; with ``cold``, each from empty caches."""
    results = []
    for call in (lambda: count_answers(q, b, cfg), lambda: core_of_query(q, cfg.hom),
                 lambda: classify(q, cfg=cfg)):
        if cold:
            clear()
        results.append(call())
    count, core, report = results
    return count, core, report.to_json_dict(), report.core_query


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"{c.mode}-{c.exact_tw_threshold}")
def test_cold_and_warm_caches_agree_with_uncached(cfg):
    rng = random.Random(83)
    instances = [random_instance(rng, max_vars=6, max_free=3, max_target=4)
                 for _ in range(60)]
    cold = [analyse(q, b, cfg, cold=True) for q, b in instances]
    clear()
    warm = [analyse(q, b, cfg, cold=False) for q, b in instances]
    assert _decompose.cache_info().hits and _analyse.cache_info().hits
    for (q, b), got, again in zip(instances, cold, warm):
        assert got == again
        assert got[0] == count_answers_brute(q, b, cfg.hom)
        assert got[1] == got[3] == core_of_query(q, cfg.hom)
        assert got[2] == uncached_report(q, cfg)
        # warm, classify hands out the core count_answers cached
        assert again[3] == again[1]
        assert again[3] is _analyse(q, cfg.hom).core


def test_classify_after_a_count_reuses_its_analysis(monkeypatch):
    # Only the core's own graph is decomposed anew, and only when the core
    # has quantified variables; otherwise it is the contract graph, whose
    # decomposition the count already holds. The core is never searched again.
    graphs, shrunk = [], []
    real_decompose, real_shrink = counting.decompose, cores._shrink

    def recording(g):
        graphs.append(g)
        return real_decompose(g)

    def shrinking(a, *args):
        shrunk.append(a)
        return real_shrink(a, *args)

    monkeypatch.setattr(counting, "decompose", recording)
    monkeypatch.setattr(cores, "_shrink", shrinking)
    rng = random.Random(86)
    kinds = set()
    for _ in range(40):
        q, b = random_instance(rng, max_vars=6, max_free=3, max_target=4)
        clear()
        count_answers(q, b)
        assert shrunk == [q.structure] * bool(q.quantified_vars)
        computed = _decompose.cache_info().misses
        graphs.clear()
        shrunk.clear()
        report = classify(q)
        quantified = bool(report.core_query.quantified_vars)
        assert not shrunk
        assert graphs == [primal_graph(hypergraph_of(report.core_query))] * quantified
        assert _decompose.cache_info().misses == computed + quantified
        graphs.clear()
        assert classify(q) == report and not graphs and not shrunk
        kinds.add(quantified)
    assert kinds == {False, True}


def test_warm_counts_build_no_structures(monkeypatch):
    # two S-components: {x} reaching a and b, {c} reaching a; the core
    # folds d onto c
    q = parse_query("answer(a,b) :- E(x,a), E(x,b), E(a,c), E(a,d).")
    b = digraph("pqrs", [("p", "q"), ("p", "r"), ("q", "s"), ("r", "r"), ("s", "p")])
    want = count_answers_brute(q, b)
    built = Counter()
    for cls in (RelationalStructure, Vocabulary, ConjunctiveQuery, SHypergraph, Graph):
        def counted(self, real=cls.__post_init__):
            built[type(self).__name__] += 1
            real(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    # cold: the core and its graphs are built without re-validation
    assert count_answers(q, b, CountingConfig(mode=MODE_STRUCTURAL)) == want
    core = core_of_query(q)
    assert len(core.structure.domain) < len(q.structure.domain)
    assert count_answers(q, b, CountingConfig(mode=MODE_STRUCTURAL)) == want
    assert not built
    # the contracted instance the count no longer builds
    contract_instance(core, b)
    assert set(built) == {"RelationalStructure", "Vocabulary", "ConjunctiveQuery"}


def with_zero_ary_atom(q):
    """``q`` plus the 0-ary atom Z()."""
    vocab = Vocabulary({**q.structure.vocabulary.symbols, "Z": 0})
    structure = RelationalStructure(vocab, q.structure.domain,
                                    {**q.structure.relations, "Z": {()}})
    return ConjunctiveQuery(structure, q.free_vars)


def connected_quantified(q):
    """The quantified variables grouped by shared atoms, by search from each in sorted order."""
    quantified = set(q.quantified_vars)
    groups = []
    for v in sorted(quantified):
        if any(v in group for group in groups):
            continue
        group, frontier = {v}, [v]
        while frontier:
            u = frontier.pop()
            for _, t in q.structure.atoms():
                if u in t:
                    new = set(t) & quantified - group
                    group |= new
                    frontier.extend(new)
        groups.append(group)
    return groups


def split_by_public_steps(q):
    """What ``counting._split`` returns, from the public step functions."""
    h = hypergraph_of(q)
    comps = s_components(h)
    subqueries = []
    for comp in comps:
        sub = induced_substructure(q.structure, comp.closure | comp.component_core)
        subqueries.append((comp.free_scope, sub.atoms(), sub.domain))
    free = set(q.free_vars)
    free_atoms = {name: {t for t in ts if free.issuperset(t)}
                  for name, ts in q.structure.relations.items()}
    return h, comps, subqueries, {name: ts for name, ts in free_atoms.items() if ts}


def test_one_pass_analysis_matches_the_public_steps():
    rng = random.Random(87)
    cfg = CountingConfig()
    seen = set()
    for trial in range(150):
        q, _ = random_instance(rng, max_vars=6, max_free=3, max_target=4)
        if trial % 3 == 1:
            q = redundant_variant(rng, q)
        if trial % 4 == 2:
            q = with_zero_ary_atom(q)
        analysis = _analyse(q, cfg.hom)
        core = core_of_query(q, cfg.hom)
        assert analysis.core == core
        for query in (q, core):
            h, subqueries, free_atoms = counting._split(query)
            comps = s_components(h)
            want = split_by_public_steps(query)
            assert (h, comps, list(subqueries)) == want[:3]
            assert {name: set(ts) for name, ts in free_atoms} == want[3]
            assert [c.component_core for c in comps] == connected_quantified(query)
            atoms = query.structure.atoms()
            if any(not t for _, t in atoms):
                seen.add("0-ary atom")
            if any(len(set(t)) < len(t) for _, t in atoms):
                seen.add("repeated variable")
            if set(query.quantified_vars) - {v for _, t in atoms for v in t}:
                seen.add("isolated quantified variable")
            if not query.free_vars:
                seen.add("Boolean query")
        h, comps, subqueries, _ = split_by_public_steps(core)
        assert (analysis.hypergraph, s_components(analysis.hypergraph),
                list(analysis.components)) == (h, comps, subqueries)
        assert analysis.contract_graph == contract(h)
        td = _decompose.__wrapped__(primal_graph(contract(h)))
        assert (analysis.contract_td.width, analysis.contract_td.exactness) == (
            td.width, td.exactness)
        assert analysis.contract_td.elimination_order == TreeDecomposition.elimination_order.func(td)
        assert classify(q, cfg=cfg).to_json_dict() == uncached_report(q, cfg)
    assert seen == {"0-ary atom", "repeated variable", "isolated quantified variable",
                    "Boolean query"}


def test_decompositions_match_uncached():
    rng = random.Random(5)
    for _ in range(40):
        q, _ = random_instance(rng, max_vars=7, max_free=7)
        verts = q.structure.domain
        edges = {frozenset((u, v)) for _, t in q.structure.atoms()
                 for u in t for v in t if u != v}
        g = Graph(verts, edges)
        for threshold in (16, 2):
            fresh = _decompose.__wrapped__(g, threshold)
            assert decompose(g, threshold) == fresh
            assert decompose(Graph(tuple(reversed(verts)), set(edges)), threshold) == fresh


def test_equal_queries_share_one_entry():
    text = "answer(x) :- E(x,y), E(y,z), E(x,w)."
    first = parse_query(text)
    report = classify(first)
    info = _analyse.cache_info()
    again = parse_query("answer(x) :-  E(x,w), E(x,y),E(y,z) .")
    assert again is not first and again == first
    assert classify(again).core_query is report.core_query
    assert _analyse.cache_info().hits == info.hits + 1
    assert _analyse.cache_info().currsize == info.currsize


def test_budget_errors_are_not_cached():
    q = ConjunctiveQuery(digraph("xyzw", [("x", "y"), ("y", "z"), ("x", "w")]), ("x",))
    b = digraph("ab", [("a", "b"), ("b", "b")])
    tiny = HomSearchConfig(node_budget=1)
    budgeted = CountingConfig(mode=MODE_STRUCTURAL, hom=tiny)
    for _ in range(2):
        for call in (lambda: core_of_query(q, tiny), lambda: count_answers(q, b, budgeted),
                     lambda: classify(q, cfg=budgeted)):
            with pytest.raises(ResourceBudgetError):
                call()
    assert _analyse.cache_info().currsize == 0
    # a default-budget entry is never served to a budgeted call
    assert len(core_of_query(q).structure.domain) == 3
    assert count_answers(q, b) == count_answers_brute(q, b) == 2
    for call in (lambda: core_of_query(q, tiny), lambda: count_answers(q, b, budgeted)):
        with pytest.raises(ResourceBudgetError):
            call()


def test_budget_errors_are_not_cached_through_the_cli(capsys, monkeypatch, tmp_path):
    query = tmp_path / "q.query"
    query.write_text("answer(x) :- E(x,y), E(y,z), E(x,w).")
    assert main(["core", "--query", str(query)]) == 0
    assert capsys.readouterr().out == "answer(x) :- E(x,y), E(y,z).\n"
    monkeypatch.setenv("CQCOUNT_BUDGET", "1")
    for _ in range(2):
        assert main(["core", "--query", str(query)]) == 2
        assert "budget" in capsys.readouterr().err


def test_reduce_demo_searches_for_a_core_twice(capsys, monkeypatch, tmp_path):
    # Once for the command's core of the query and once for the analysis
    # that checks the core; the oracle's counts read that same analysis.
    text = "answer(x) :- E(x,y), E(y,z), E(x,w)."
    q = parse_query(text)
    core = core_of_query(q)
    shrunk = []
    real_shrink = cores._shrink

    def shrinking(a, *args):
        shrunk.append(a)
        return real_shrink(a, *args)

    monkeypatch.setattr(cores, "_shrink", shrinking)
    query = tmp_path / "q.query"
    query.write_text(text)
    db = Path(__file__).parent / "data" / "triangle.json"
    assert main(["reduce-demo", "--db", str(db), "--query", str(query)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "AGREE"
    assert shrunk == [q.structure, core.structure]


def test_cache_sizes_stay_bounded():
    for i in range(ANALYSIS_CACHE_SIZE + 20):
        q = ConjunctiveQuery(digraph(["x", f"y{i}"], [("x", f"y{i}")]), ("x",))
        classify(q)
        assert _analyse.cache_info().currsize <= ANALYSIS_CACHE_SIZE
    assert _analyse.cache_info().currsize == ANALYSIS_CACHE_SIZE
    for i in range(DECOMPOSITION_CACHE_SIZE + 20):
        decompose(Graph(("a", f"b{i}"), {frozenset(("a", f"b{i}"))}))
        assert _decompose.cache_info().currsize <= DECOMPOSITION_CACHE_SIZE
    assert _decompose.cache_info().currsize == DECOMPOSITION_CACHE_SIZE
