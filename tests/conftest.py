"""Shared test helpers: tiny structure builders and independent oracles.

Oracles here are deliberately naive (full enumeration) so they stay
independent of the search and counting code paths they check.
"""

from itertools import product

import pytest

from cqcount import RelationalStructure, Vocabulary, core_of_query, decompose, is_homomorphism
from cqcount.counting import _analyse


def clear_caches():
    """Empty the core, decomposition and query-analysis caches."""
    core_of_query.cache_clear()
    decompose.cache_clear()
    _analyse.cache_clear()


@pytest.fixture(autouse=True)
def cold_caches():
    """Start every test with empty caches."""
    clear_caches()


def structure(symbols, domain, relations):
    return RelationalStructure(Vocabulary(symbols), tuple(domain), relations)


def digraph(domain, arcs):
    return structure({"E": 2}, domain, {"E": set(arcs)})


def undirected(domain, edges):
    arcs = set()
    for u, v in edges:
        arcs.add((u, v))
        arcs.add((v, u))
    return digraph(domain, arcs)


def all_maps(src_domain, dst_domain):
    src = list(src_domain)
    for combo in product(list(dst_domain), repeat=len(src)):
        yield dict(zip(src, combo))


def naive_homomorphisms(a, b):
    """Every homomorphism a -> b by checking all |B|^|A| maps."""
    return [h for h in all_maps(a.domain, b.domain) if is_homomorphism(a, b, h)]


def naive_answer_set(q, b):
    """Distinct free-variable restrictions of all homomorphisms."""
    return {
        tuple(h[v] for v in q.free_vars)
        for h in naive_homomorphisms(q.structure, b)
    }
