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

The core of a query pins every free variable first (augment), cores the
pinned structure, and strips the pins again: the pins force every free
variable to survive, so the free tuple carries over unchanged.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence

from .errors import InputError
from .homomorphisms import DEFAULT_CONFIG, HomSearchConfig, _HomSearch
from .structures import (
    ConjunctiveQuery,
    RelationalStructure,
    _with_pins,
    drop_relations,
    induced_substructure,
)


def _find_retraction(a: RelationalStructure, cfg: HomSearchConfig,
                     element_order: Sequence[str]):
    if not element_order:
        return None
    search = _HomSearch(a, a, cfg)
    for v in element_order:
        h = next(search.avoiding(v).solutions(), None)
        if h is not None:
            return h
    return None


def is_core(a: RelationalStructure, cfg: HomSearchConfig = DEFAULT_CONFIG) -> bool:
    """True iff no endomorphism lands in a proper substructure."""
    return _find_retraction(a, cfg, sorted(a.domain)) is None


def _shrink(a: RelationalStructure, cfg: HomSearchConfig,
            candidates: Sequence[str]) -> RelationalStructure:
    """Retract onto images until no candidate can be dropped."""
    current = a
    while True:
        present = set(current.domain)
        h = _find_retraction(current, cfg, [v for v in candidates if v in present])
        if h is None:
            return current
        current = induced_substructure(current, sorted(set(h.values())))


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
    """The core of a query: core the pinned structure, then unpin.

    Every free variable is pinned by a singleton unary relation, so it is
    fixed by every endomorphism of the pinned structure and survives into
    the core; the returned query keeps the original free tuple. Dropping a
    pinned variable would empty its pin relation, so only quantified
    variables are tried as deletion candidates, and a query without
    quantified variables is already its own core.

    Results are memoised by (query value, ``cfg``) and shared between
    callers; they are immutable. A search that raises (a budget overrun) is
    not remembered, so the next call searches again.
    """
    quantified = q.quantified_vars
    if not quantified:
        return q
    pinned, names = _with_pins(q.structure, q.free_vars)
    core = _shrink(pinned, cfg, sorted(quantified))
    stripped = drop_relations(core, names.values())
    return ConjunctiveQuery(stripped, q.free_vars)
