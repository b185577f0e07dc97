"""The core, decomposition and query-analysis caches against uncached computation.

``core_of_query`` and ``decompose`` memoise by value, and ``count_answers``
and ``classify`` share one memoised analysis per query; these tests check
that a cold and a warm cache give the same cores, reports and counts as
the undecorated functions and the brute-force counter, that equal values
share one entry, that classifying a counted query reuses its analysis,
and that failures and other budgets or thresholds are never served from
it.
"""

import random
from collections import Counter

import pytest
from conftest import clear_caches as clear
from conftest import digraph

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
    star_sizes,
)
from cqcount import counting
from cqcount.cli import main
from cqcount.cores import CORE_CACHE_SIZE
from cqcount.counting import MODE_AUTO, MODE_STRUCTURAL, _analyse
from cqcount.generators import quantifier_free_path_query, random_instance
from cqcount.hypergraphs import Graph
from cqcount.treewidth import DECOMPOSITION_CACHE_SIZE, EXACT

CONFIGS = [CountingConfig(mode=mode, exact_tw_threshold=threshold)
           for mode in (MODE_AUTO, MODE_STRUCTURAL) for threshold in (16, 2)]


def uncached_report(q, cfg, k_core=3, k_contract=3):
    """classify's JSON, from the undecorated core and decomposition functions."""
    core = core_of_query.__wrapped__(q, cfg.hom)
    h = hypergraph_of(core)
    cg = contract(h)
    core_td = decompose.__wrapped__(primal_graph(h), cfg.exact_tw_threshold)
    contract_td = decompose.__wrapped__(primal_graph(cg), cfg.exact_tw_threshold)
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
    assert core_of_query.cache_info().hits and decompose.cache_info().hits
    assert _analyse.cache_info().hits
    for (q, b), got, again in zip(instances, cold, warm):
        assert got == again
        assert got[0] == count_answers_brute(q, b, cfg.hom)
        assert got[1] == got[3] == core_of_query.__wrapped__(q, cfg.hom)
        assert got[2] == uncached_report(q, cfg)
        # warm, classify hands out the very core object count_answers cached
        assert again[3] is again[1]


def test_classify_after_a_count_reuses_its_analysis(monkeypatch):
    # Only the core's own graph is decomposed anew, and only when the core
    # has quantified variables; otherwise it is the contract graph.
    graphs = []
    real_decompose = counting.decompose

    def recording(g, threshold):
        graphs.append(g)
        return real_decompose(g, threshold)

    monkeypatch.setattr(counting, "decompose", recording)
    rng = random.Random(86)
    kinds = set()
    for _ in range(40):
        q, b = random_instance(rng, max_vars=6, max_free=3, max_target=4)
        clear()
        count_answers(q, b)
        cores = core_of_query.cache_info()
        computed = decompose.cache_info().misses
        graphs.clear()
        report = classify(q)
        quantified = bool(report.core_query.quantified_vars)
        assert core_of_query.cache_info() == cores
        assert graphs == [primal_graph(hypergraph_of(report.core_query))]
        assert decompose.cache_info().misses == computed + quantified
        graphs.clear()
        assert classify(q) == report and not graphs
        kinds.add(quantified)
    assert kinds == {False, True}


def test_exact_thresholds_do_not_share_an_analysis():
    q = quantifier_free_path_query(4)
    b = digraph("ab", [("a", "b"), ("b", "a")])
    assert count_answers(q, b, CountingConfig(exact_tw_threshold=16)) == 2
    bound = classify(q, cfg=CountingConfig(exact_tw_threshold=2))
    exact = classify(q, cfg=CountingConfig(exact_tw_threshold=16))
    assert exact.contract_treewidth_exact and not bound.contract_treewidth_exact
    assert _analyse.cache_info().currsize == 2


def test_warm_counts_build_no_structures(monkeypatch):
    # two S-components: {x} reaching a and b, {c} reaching a
    q = parse_query("answer(a,b) :- E(x,a), E(x,b), E(a,c).")
    b = digraph("pqrs", [("p", "q"), ("p", "r"), ("q", "s"), ("r", "r"), ("s", "p")])
    want = count_answers_brute(q, b)
    assert count_answers(q, b, CountingConfig(mode=MODE_STRUCTURAL)) == want
    built = Counter()
    for cls in (RelationalStructure, Vocabulary, ConjunctiveQuery):
        def counted(self, real=cls.__post_init__):
            built[type(self).__name__] += 1
            real(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    assert count_answers(q, b, CountingConfig(mode=MODE_STRUCTURAL)) == want
    assert not built
    # the contracted instance the count no longer builds
    contract_instance(core_of_query(q), b)
    assert set(built) == {"RelationalStructure", "Vocabulary", "ConjunctiveQuery"}


def test_decompositions_match_uncached():
    rng = random.Random(5)
    for _ in range(40):
        q, _ = random_instance(rng, max_vars=7, max_free=7)
        verts = q.structure.domain
        edges = {frozenset((u, v)) for _, t in q.structure.atoms()
                 for u in t for v in t if u != v}
        g = Graph(verts, edges)
        for threshold in (16, 2):
            fresh = decompose.__wrapped__(g, threshold)
            assert decompose(g, threshold) == fresh
            assert decompose(Graph(tuple(reversed(verts)), set(edges)), threshold) == fresh


def test_equal_queries_share_one_entry():
    text = "answer(x) :- E(x,y), E(y,z), E(x,w)."
    first = parse_query(text)
    core = core_of_query(first)
    info = core_of_query.cache_info()
    again = parse_query("answer(x) :-  E(x,w), E(x,y),E(y,z) .")
    assert again is not first and again == first
    assert core_of_query(again) is core
    assert core_of_query.cache_info().hits == info.hits + 1
    assert core_of_query.cache_info().currsize == info.currsize


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
    assert core_of_query.cache_info().currsize == 0
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


def test_cache_sizes_stay_bounded():
    for i in range(CORE_CACHE_SIZE + 20):
        q = ConjunctiveQuery(digraph(["x", f"y{i}"], [("x", f"y{i}")]), ("x",))
        core_of_query(q)
        assert core_of_query.cache_info().currsize <= CORE_CACHE_SIZE
    assert core_of_query.cache_info().currsize == CORE_CACHE_SIZE
    for i in range(DECOMPOSITION_CACHE_SIZE + 20):
        decompose(Graph(("a", f"b{i}"), {frozenset(("a", f"b{i}"))}))
        assert decompose.cache_info().currsize <= DECOMPOSITION_CACHE_SIZE
    assert decompose.cache_info().currsize == DECOMPOSITION_CACHE_SIZE
