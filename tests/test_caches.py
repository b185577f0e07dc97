"""The core and decomposition caches against uncached computation.

``core_of_query`` and ``decompose`` memoise by value; these tests check
that a cold and a warm cache give the same cores, reports and counts as
the undecorated functions and the brute-force counter, that equal values
share one entry, and that failures and other budgets are never served
from it.
"""

import random

import pytest
from conftest import digraph

from cqcount import (
    ConjunctiveQuery,
    CountingConfig,
    HomSearchConfig,
    ResourceBudgetError,
    classify,
    core_of_query,
    count_answers,
    count_answers_brute,
    decompose,
    parse_query,
)
from cqcount.cli import main
from cqcount.cores import CORE_CACHE_SIZE
from cqcount.counting import MODE_AUTO, MODE_STRUCTURAL
from cqcount.generators import random_instance
from cqcount.hypergraphs import Graph
from cqcount.treewidth import DECOMPOSITION_CACHE_SIZE

CONFIGS = [CountingConfig(mode=mode, exact_tw_threshold=threshold)
           for mode in (MODE_AUTO, MODE_STRUCTURAL) for threshold in (16, 2)]


def clear():
    core_of_query.cache_clear()
    decompose.cache_clear()


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
    for (q, b), got, again in zip(instances, cold, warm):
        assert got == again
        assert got[0] == count_answers_brute(q, b, cfg.hom)
        assert got[1] == got[3] == core_of_query.__wrapped__(q, cfg.hom)
        # warm, classify hands out the very core object count_answers cached
        assert again[3] is again[1]


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
    tiny = HomSearchConfig(node_budget=1)
    for _ in range(2):
        with pytest.raises(ResourceBudgetError):
            core_of_query(q, tiny)
    assert core_of_query.cache_info().currsize == 0
    # a default-budget entry is never served to a budgeted call
    assert len(core_of_query(q).structure.domain) == 3
    with pytest.raises(ResourceBudgetError):
        core_of_query(q, tiny)


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
