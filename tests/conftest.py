"""Shared test helpers: tiny structure builders and independent oracles.

Oracles here are deliberately naive (full enumeration) so they stay
independent of the search and counting code paths they check.
``pinned_solutions`` is the one helper that drives the library's search:
pinned and injective runs have no public entry, and tests reach them
through it.
"""

from collections import Counter
from itertools import permutations, product

import pytest

from cqcount import RelationalStructure, Vocabulary, hom_exists, is_homomorphism
from cqcount.counting import _analyse
from cqcount.treewidth import _decompose


def clear_caches():
    """Empty the decomposition and query-analysis caches."""
    _decompose.cache_clear()
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


def relabel(a, rng):
    """``a`` with its elements renamed by a random bijection.

    The new names sort in a random order relative to the old ones, so a
    computation that walks the domain in sorted order walks it shuffled.
    """
    names = [f"r{i:03d}" for i in range(len(a.domain))]
    rng.shuffle(names)
    rename = dict(zip(a.domain, names))
    relations = {name: {tuple(rename[e] for e in t) for t in ts}
                 for name, ts in a.relations.items()}
    return RelationalStructure(a.vocabulary, tuple(rename[e] for e in a.domain), relations)


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


def induced_substructure(a, keep):
    """``a`` restricted to the elements in ``keep``, in domain order.

    Each relation keeps the tuples whose entries all survive.
    """
    keep = set(keep)
    if not keep <= set(a.domain):
        raise ValueError(f"elements {sorted(keep - set(a.domain))} are not in the domain")
    relations = {name: {t for t in ts if keep.issuperset(t)} for name, ts in a.relations.items()}
    return RelationalStructure(a.vocabulary, tuple(e for e in a.domain if e in keep), relations)


def hom_equivalent(a, b):
    return hom_exists(a, b) and hom_exists(b, a)


def _profiles(a):
    """Each element's occurrence profile: how often it sits at each position of each relation."""
    seen = {e: Counter() for e in a.domain}
    for name, ts in a.relations.items():
        for t in ts:
            for i, e in enumerate(t):
                seen[e][name, i] += 1
    return {e: tuple(sorted(c.items())) for e, c in seen.items()}


def are_isomorphic(a, b):
    """Isomorphism without a search: equal sizes, symbols and per-symbol
    tuple counts, then every bijection that keeps occurrence profiles."""
    if len(a.domain) != len(b.domain) or dict(a.vocabulary.symbols) != dict(b.vocabulary.symbols):
        return False
    if any(len(a.tuples(name)) != len(b.tuples(name)) for name in a.vocabulary.symbols):
        return False
    classes = {}
    for side, s in enumerate((a, b)):
        for e, p in _profiles(s).items():
            classes.setdefault(p, ([], []))[side].append(e)
    if any(len(left) != len(right) for left, right in classes.values()):
        return False
    groups = list(classes.values())
    for images in product(*[permutations(right) for _, right in groups]):
        h = {e: f for (left, _), image in zip(groups, images) for e, f in zip(left, image)}
        if all({tuple(h[e] for e in t) for t in ts} == b.tuples(name)
               for name, ts in a.relations.items()):
            return True
    return False


def pinned_solutions(search, pins, injective=False):
    """The solutions of the library search ``search`` that extend ``pins``.

    Nothing unless the search is feasible and each pin lies in its
    variable's domain; otherwise one plan with the pinned variables first.
    """
    if not search.feasible or any(b not in search.base[v] for v, b in pins.items()):
        return iter(())
    pinned = tuple(sorted(pins))
    return search._run(search._plan(pinned), tuple([pins[v] for v in pinned]), injective)
