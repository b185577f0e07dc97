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
A candidate whose root domain is itself alone is skipped. The rounds work
on bare atom lists and tuple sets, each filtered to the last retraction's
image; one structure is built at the end, not validated again.

A candidate in the only tuple of a relation is never offered, since every
endomorphism maps that tuple to itself. A candidate x proved undroppable
is not offered again in later rounds: arc consistency pinned it, its view
had no solution, or, after a retraction h of A with image I, its root
domain in that round met I only in x. Proof: an endomorphism g of A[I]
avoiding x makes g∘h an endomorphism of A, fixing what the search fixes,
that avoids x, which the first two reasons rule out; and arc consistency
keeps in x's root domain every value an endomorphism gives x, so g(h(x))
would be a second element of I in it. A skipped candidate is one the
search would refuse, so the first retraction found, and the core, do not
change.

If every candidate still offered occurs in no tuple, and some element is
not offered, no search is built: the core is the substructure R on the
elements not offered. Proof: the candidates and the fixed elements make
up the domain, so an element of R is fixed by its search domain or lies
in the only tuple of a relation, and every endomorphism the search admits
fixes it. Every tuple lies in R, and a candidate in no tuple may map to
any element of R, so R is a retract of A. Every retraction fixes R, so
every retract contains R: R is the only minimal one, which is the core
the rounds would reach, with the same domain order.

The core of a query fixes every free variable by its search domain: a free
variable starts with itself as its only value, so every endomorphism the
search finds fixes it, and it survives into the core with the free tuple
unchanged. Under arc consistency this gives the same domains, variable
order and solutions as pinning each free variable with a singleton unary
relation (``augment``) and coring the pinned structure.

Nothing here is memoised: counting and classifying keep a query's core
with the rest of their memoised analysis of that query.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Sequence

from .errors import _require
from .homomorphisms import DEFAULT_CONFIG, HomSearchConfig, _HomSearch
from .structures import ConjunctiveQuery, RelationalStructure, _unchecked


def _first_retraction(search: _HomSearch, candidates: Sequence[str]):
    """The index of the first candidate some solution of ``search`` avoids, and that solution.

    Every candidate before the index is proved undroppable: arc consistency
    pins it to itself, which nothing avoids, or its view has no solution.
    Without a retraction the index is ``len(candidates)`` and the solution None.
    """
    for i, v in enumerate(candidates):
        # The identity is a solution, so v's domain holds v.
        if len(search.base[v]) > 1:
            h = next(search.avoiding(v).solutions(), None)
            if h is not None:
                return i, h
    return len(candidates), None


def is_core(a: RelationalStructure, cfg: HomSearchConfig = DEFAULT_CONFIG) -> bool:
    """True iff no endomorphism lands in a proper substructure."""
    _require(a, RelationalStructure)
    search = _HomSearch(a.atoms(), a.domain, a.relations, a.domain, cfg=_require(cfg, HomSearchConfig))
    return _first_retraction(search, sorted(a.domain))[1] is None


def _shrink(a: RelationalStructure, cfg: HomSearchConfig, candidates: Sequence[str],
            fixed: Sequence[str] = ()) -> RelationalStructure:
    """Retract onto images until no candidate can be dropped.

    ``candidates`` and ``fixed`` make up the domain. Each element of
    ``fixed`` starts with itself as its only value, so every retraction
    fixes it. A candidate proved undroppable in one round is not tried
    again, and candidates in no tuple are dropped without a search (see the
    module docstring). Returns ``a`` itself if nothing is dropped.
    """
    relations = a.relations
    # Every endomorphism maps the only tuple of a relation to itself.
    alone = {v for ts in relations.values() if len(ts) == 1 for t in ts for v in t}
    open_ = [v for v in candidates if v not in alone]
    if not open_:
        return a
    # Offered candidates all in no tuple fold onto the rest, a core.
    dropped = set(open_)
    if all(dropped.isdisjoint(t) for ts in relations.values() for t in ts):
        rest = tuple([v for v in a.domain if v not in dropped])
        if rest:
            return _unchecked(RelationalStructure, vocabulary=a.vocabulary, domain=rest,
                              relations=relations)
    atoms, domain, start = a.atoms(), a.domain, {v: [v] for v in fixed}
    while open_:
        search = _HomSearch(atoms, domain, relations, domain, start, cfg)
        i, h = _first_retraction(search, open_)
        if h is None:
            break
        image = set(h.values())
        base = search.base
        # open_[i] is dropped and those before it are proved undroppable, as
        # is each one whose root domain meets the image only in itself.
        open_ = [v for v in open_[i + 1:]
                 if v in image and len(image.intersection(base[v])) > 1]
        domain = [v for v in domain if v in image]
        atoms = [atom for atom in atoms if image.issuperset(atom[1])]
        relations = {name: frozenset(t for t in ts if image.issuperset(t))
                     for name, ts in relations.items()}
    if len(domain) == len(a.domain):
        return a
    return _unchecked(RelationalStructure, vocabulary=a.vocabulary, domain=tuple(domain),
                      relations=MappingProxyType(relations))


def core_of_structure(a: RelationalStructure,
                      cfg: HomSearchConfig = DEFAULT_CONFIG) -> RelationalStructure:
    """A core of ``a``: an induced substructure, hom-equivalent and minimal.

    Deletion candidates are tried in sorted order, so the result is
    deterministic; any order would give an isomorphic core.
    """
    return _shrink(_require(a, RelationalStructure), _require(cfg, HomSearchConfig),
                   sorted(a.domain))


def core_of_query(q: ConjunctiveQuery,
                  cfg: HomSearchConfig = DEFAULT_CONFIG) -> ConjunctiveQuery:
    """The core of a query, free variables fixed by their search domains.

    Every free variable starts each search with itself as its only value,
    so it is fixed by every retraction and survives into the core; the
    returned query keeps the original free tuple. Only quantified
    variables are tried as deletion candidates, and a query without
    quantified variables, or one nothing can be dropped from, is returned
    as it is.

    Each call searches anew; counting and classifying keep the core in
    their memoised analysis of the query.
    """
    _require(q, ConjunctiveQuery)
    _require(cfg, HomSearchConfig)
    quantified = q.quantified_vars
    if not quantified:
        return q
    core = _shrink(q.structure, cfg, sorted(quantified), q.free_vars)
    return q if core is q.structure else _unchecked(ConjunctiveQuery, structure=core,
                                                    free_vars=q.free_vars)
