"""Cores of structures and of conjunctive queries.

A structure is a core iff it admits no homomorphism into the substructure
induced by dropping one of its elements (a non-surjective endomorphism of a
finite structure always misses an element, and an injective one is already
an automorphism). Core computation therefore looks for such a retraction,
restricts to its image, and repeats; the loop strictly shrinks the domain
and needs no outside promise about treewidth.

Each round builds one search of the structure into itself. A candidate is
tested by removing it from every domain of that search and restoring arc
consistency from the constraints on the variables that lost it. This
reaches the domains, variable order and first solution that a fresh search
into the substructure without the candidate would, so the core is the same
as with one such search per candidate, without rebuilding it each time.
The rounds work on bare atom lists and tuple sets, each filtered to the
last retraction's image; one structure is built at the end.

The core of a query fixes every free variable by its search domain: a free
variable starts with itself as its only value, so every endomorphism the
search finds fixes it, and it survives into the core with the free tuple
unchanged. Under arc consistency this gives the same domains, variable
order and solutions as pinning each free variable with a singleton unary
relation (``augment``) and coring the pinned structure.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, Optional, Sequence

from .errors import InputError
from .homomorphisms import DEFAULT_CONFIG, HomSearchConfig, _HomSearch
from .structures import ConjunctiveQuery, RelationalStructure


def _find_retraction(atoms: list, domain: Sequence[str], relations: Mapping[str, frozenset],
                     start: Mapping[str, list], cfg: HomSearchConfig,
                     element_order: Sequence[str]):
    if not element_order:
        return None
    search = _HomSearch(atoms, domain, relations, domain, start, cfg)
    for v in element_order:
        h = next(search.avoiding(v).solutions(), None)
        if h is not None:
            return h
    return None


def is_core(a: RelationalStructure, cfg: HomSearchConfig = DEFAULT_CONFIG) -> bool:
    """True iff no endomorphism lands in a proper substructure."""
    return _find_retraction(a.atoms(), a.domain, a.relations, {}, cfg,
                            sorted(a.domain)) is None


def _shrink(a: RelationalStructure, cfg: HomSearchConfig, candidates: Sequence[str],
            fixed: Sequence[str] = ()) -> RelationalStructure:
    """Retract onto images until no candidate can be dropped.

    Each element of ``fixed`` starts with itself as its only value, so
    every retraction fixes it. Returns ``a`` itself if nothing is dropped.
    """
    atoms, domain, relations = a.atoms(), a.domain, a.relations
    start = {v: [v] for v in fixed}
    while True:
        present = set(domain)
        h = _find_retraction(atoms, domain, relations, start, cfg,
                             [v for v in candidates if v in present])
        if h is None:
            break
        image = set(h.values())
        domain = [v for v in domain if v in image]
        atoms = [atom for atom in atoms if image.issuperset(atom[1])]
        relations = {name: {t for t in ts if image.issuperset(t)}
                     for name, ts in relations.items()}
    if len(domain) == len(a.domain):
        return a
    return RelationalStructure(a.vocabulary, tuple(domain), relations)


def core_of_structure(a: RelationalStructure,
                      cfg: HomSearchConfig = DEFAULT_CONFIG,
                      element_order: Optional[Sequence[str]] = None) -> RelationalStructure:
    """A core of ``a``: an induced substructure, hom-equivalent and minimal.

    Deterministic for the default order; ``element_order`` overrides the
    order in which deletion candidates are tried (any order yields an
    isomorphic result, which the tests exercise).
    """
    if element_order is not None:
        if sorted(element_order) != sorted(a.domain):
            raise InputError("element_order must enumerate the domain exactly")
    return _shrink(a, cfg, element_order or sorted(a.domain))


# Query cores kept for reuse, least recently used evicted first. Counting
# and classifying one query, or counting one query over many targets, finds
# its core once.
CORE_CACHE_SIZE = 256


@lru_cache(maxsize=CORE_CACHE_SIZE)
def core_of_query(q: ConjunctiveQuery,
                  cfg: HomSearchConfig = DEFAULT_CONFIG) -> ConjunctiveQuery:
    """The core of a query, free variables fixed by their search domains.

    Every free variable starts each search with itself as its only value,
    so it is fixed by every retraction and survives into the core; the
    returned query keeps the original free tuple. Only quantified
    variables are tried as deletion candidates, and a query without
    quantified variables, or one nothing can be dropped from, is returned
    as it is.

    Results are memoised by (query value, ``cfg``) and shared between
    callers; they are immutable. A search that raises (a budget overrun) is
    not remembered, so the next call searches again.
    """
    quantified = q.quantified_vars
    if not quantified:
        return q
    core = _shrink(q.structure, cfg, sorted(quantified), q.free_vars)
    return q if core is q.structure else ConjunctiveQuery(core, q.free_vars)
