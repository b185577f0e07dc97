"""Cores of structures and of conjunctive queries.

A structure is a core iff it admits no homomorphism into the substructure
induced by dropping one of its elements (a non-surjective endomorphism of a
finite structure always misses an element, and an injective one is already
an automorphism). Core computation therefore looks for such a retraction,
restricts to its image, and repeats; the loop strictly shrinks the domain
and needs no outside promise about treewidth.

The core of a query pins every free variable first (augment), cores the
pinned structure, and strips the pins again: the pins force every free
variable to survive, so the free tuple carries over unchanged.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import InputError
from .homomorphisms import DEFAULT_CONFIG, HomSearchConfig, find_extension
from .structures import (
    ConjunctiveQuery,
    RelationalStructure,
    _with_pins,
    drop_relations,
    induced_substructure,
)


def _find_retraction(a: RelationalStructure, cfg: HomSearchConfig,
                     element_order: Sequence[str]):
    for v in element_order:
        sub = induced_substructure(a, [e for e in a.domain if e != v])
        h = find_extension(a, sub, cfg=cfg)
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


def core_of_query(q: ConjunctiveQuery,
                  cfg: HomSearchConfig = DEFAULT_CONFIG) -> ConjunctiveQuery:
    """The core of a query: core the pinned structure, then unpin.

    Every free variable is pinned by a singleton unary relation, so it is
    fixed by every endomorphism of the pinned structure and survives into
    the core; the returned query keeps the original free tuple. Dropping a
    pinned variable would empty its pin relation, so only quantified
    variables are tried as deletion candidates, and a query without
    quantified variables is already its own core.
    """
    quantified = q.quantified_vars
    if not quantified:
        return q
    pinned, names = _with_pins(q.structure, q.free_vars)
    core = _shrink(pinned, cfg, sorted(quantified))
    stripped = drop_relations(core, names.values())
    return ConjunctiveQuery(stripped, q.free_vars)
