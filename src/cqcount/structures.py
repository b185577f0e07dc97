"""Relational vocabularies, structures, and conjunctive queries.

All values here are immutable after construction and safe to share across
threads; every operation is a pure function. Set-like data is stored in
frozensets and iterated in sorted order, so every downstream computation is
deterministic. Mappings (``Vocabulary.symbols``,
``RelationalStructure.relations``) are read-only views, and vocabularies,
structures and queries compare and hash by value: equal values built along
different routes (another insertion order, ``structure_from_dict`` or the
constructor) are interchangeable as dictionary keys, which is what lets
``core_of_query`` memoise its results and share them between callers.

A conjunctive query is kept in natural-model form: a structure whose domain
is the set of query variables, paired with the ordered tuple of free
variables. Tuple sets use set semantics; duplicate input tuples are
silently collapsed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Iterable, Mapping, Tuple

from .errors import InputError

# User-facing relation names may not start with "__"; that prefix is
# reserved for relations the library adds itself. Pinning relations (one
# singleton unary per element, shared by augment and star_structure) live
# under "__aug"; the numeric bump keeps them fresh if a structure already
# carries such names.
RESERVED_PREFIX = "__"
PIN_PREFIX_BASE = "__aug"
_PIN_NAME_RE = re.compile(r"^__aug\d*_")

# A (partial) map from query variables to target elements.
Assignment = Dict[str, str]


@dataclass(frozen=True)
class Vocabulary:
    """Relation symbols with fixed arities.

    Any non-negative arity is permitted at this level: the counting
    pipeline represents Boolean subproblems as 0-ary relations, and a
    component relation's arity is the number of free variables the
    component touches. User input goes through the parser and database
    loader, which both require arities in 1..8.
    """

    symbols: Mapping[str, int]

    def __post_init__(self) -> None:
        symbols = dict(self.symbols)
        for name, arity in symbols.items():
            if not name or not isinstance(name, str):
                raise InputError("relation names must be non-empty strings")
            if isinstance(arity, bool) or not isinstance(arity, int) or arity < 0:
                raise InputError(f"arity of {name!r} must be a non-negative integer")
        object.__setattr__(self, "symbols", MappingProxyType(symbols))

    def __hash__(self) -> int:
        return hash(frozenset(self.symbols.items()))

    def arity(self, name: str) -> int:
        try:
            return self.symbols[name]
        except KeyError:
            raise InputError(f"unknown relation symbol {name!r}") from None


@dataclass(frozen=True)
class RelationalStructure:
    """A finite ordered domain plus one tuple set per relation symbol.

    Every symbol of the vocabulary gets an entry in ``relations`` (possibly
    empty); tuples are element tuples of the declared arity over the
    domain. Domain order is preserved (duplicates dropped) so that
    serialisation round-trips exactly.
    """

    vocabulary: Vocabulary
    domain: Tuple[str, ...]
    relations: Mapping[str, frozenset]

    def __post_init__(self) -> None:
        seen = set()
        dom = []
        for e in self.domain:
            if not isinstance(e, str):
                raise InputError(f"domain elements must be strings, got {e!r}")
            if e not in seen:
                seen.add(e)
                dom.append(e)
        rels = {name: frozenset() for name in self.vocabulary.symbols}
        for name, tuples in dict(self.relations).items():
            arity = self.vocabulary.arity(name)
            out = set()
            for t in tuples:
                t = tuple(t)
                if len(t) != arity:
                    raise InputError(
                        f"tuple {t!r} has length {len(t)}, relation {name!r} expects {arity}"
                    )
                for e in t:
                    if e not in seen:
                        raise InputError(
                            f"element {e!r} of a {name!r} tuple is not in the domain"
                        )
                out.add(t)
            rels[name] = frozenset(out)
        object.__setattr__(self, "domain", tuple(dom))
        object.__setattr__(self, "relations", MappingProxyType(rels))

    def __hash__(self) -> int:
        return hash((self.vocabulary, self.domain, frozenset(self.relations.items())))

    def tuples(self, name: str) -> frozenset:
        return self.relations.get(name, frozenset())

    def total_tuples(self) -> int:
        return sum(len(ts) for ts in self.relations.values())

    def atoms(self) -> list:
        """All (symbol, tuple) pairs in canonical (sorted) order."""
        return [
            (name, t)
            for name in sorted(self.relations)
            for t in sorted(self.relations[name])
        ]


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A structure in natural-model form plus its ordered free variables."""

    structure: RelationalStructure
    free_vars: Tuple[str, ...]

    def __post_init__(self) -> None:
        free = tuple(self.free_vars)
        if len(set(free)) != len(free):
            raise InputError("free variables must not repeat")
        dom = set(self.structure.domain)
        missing = [v for v in free if v not in dom]
        if missing:
            raise InputError(f"free variables {missing!r} are not in the query domain")
        object.__setattr__(self, "free_vars", free)

    @property
    def quantified_vars(self) -> Tuple[str, ...]:
        free = set(self.free_vars)
        return tuple(v for v in self.structure.domain if v not in free)


def induced_substructure(a: RelationalStructure, keep: Iterable) -> RelationalStructure:
    """Restrict ``a`` to the elements in ``keep``.

    Each relation retains exactly the tuples all of whose entries survive.
    Domain order is preserved.
    """
    keep_set = set(keep)
    unknown = sorted(keep_set - set(a.domain))
    if unknown:
        raise InputError(f"elements {unknown!r} are not in the domain")
    dom = tuple(e for e in a.domain if e in keep_set)
    rels = {
        name: frozenset(t for t in ts if all(e in keep_set for e in t))
        for name, ts in a.relations.items()
    }
    return RelationalStructure(a.vocabulary, dom, rels)


def _pin_names(vocab: Vocabulary, elements: Tuple[str, ...]) -> Dict[str, str]:
    # Deterministic fresh names: bump the prefix until nothing collides.
    existing = set(vocab.symbols)
    bump = 0
    while True:
        prefix = PIN_PREFIX_BASE + (str(bump) if bump else "") + "_"
        names = {e: prefix + e for e in elements}
        if not set(names.values()) & existing:
            return names
        bump += 1


def pin_relation_names(a: RelationalStructure) -> Dict[str, str]:
    """The unary relation names ``star_structure`` would add.

    Exposed so callers building companion structures over the extended
    vocabulary (for the interpolation reduction) use identical names.
    """
    return _pin_names(a.vocabulary, a.domain)


def _with_pins(a: RelationalStructure, elements: Tuple[str, ...]):
    names = _pin_names(a.vocabulary, elements)
    symbols = dict(a.vocabulary.symbols)
    rels = dict(a.relations)
    for e in elements:
        symbols[names[e]] = 1
        rels[names[e]] = frozenset({(e,)})
    return RelationalStructure(Vocabulary(symbols), a.domain, rels), names


def augment(q: ConjunctiveQuery) -> RelationalStructure:
    """The query structure plus one singleton unary relation per free variable.

    The added relation for free variable ``a`` holds exactly ``{(a,)}``, so
    any homomorphism out of the result must fix ``a``. With an empty free
    tuple this returns the structure unchanged.
    """
    return _with_pins(q.structure, q.free_vars)[0]


def star_structure(a: RelationalStructure) -> RelationalStructure:
    """Pin every domain element, not only the free ones.

    For a quantifier-free query this coincides with ``augment``, name for
    name.
    """
    return _with_pins(a, a.domain)[0]


def drop_relations(a: RelationalStructure, names: Iterable) -> RelationalStructure:
    """Remove the given relation symbols (and their tuples) outright."""
    gone = set(names)
    unknown = sorted(gone - set(a.vocabulary.symbols))
    if unknown:
        raise InputError(f"cannot drop unknown relations {unknown!r}")
    symbols = {n: r for n, r in a.vocabulary.symbols.items() if n not in gone}
    rels = {n: ts for n, ts in a.relations.items() if n not in gone}
    return RelationalStructure(Vocabulary(symbols), a.domain, rels)


def strip_pin_relations(a: RelationalStructure) -> RelationalStructure:
    """Drop every pinning relation added by augment / star_structure."""
    return drop_relations(a, [n for n in a.vocabulary.symbols if _PIN_NAME_RE.match(n)])


def structure_to_dict(a: RelationalStructure) -> dict:
    """JSON-ready form; matches the database file format exactly."""
    return {
        "domain": list(a.domain),
        "relations": {
            name: {
                "arity": a.vocabulary.arity(name),
                "tuples": [list(t) for t in sorted(ts)],
            }
            for name, ts in sorted(a.relations.items())
        },
    }


def structure_from_dict(data: dict) -> RelationalStructure:
    """Inverse of :func:`structure_to_dict`.

    The domain is the declared list (order kept) extended by any tuple
    elements it missed, in sorted order. This function accepts reserved
    ("__"-prefixed) names and any non-negative arity, 0 and above 8
    included, so internal structures round-trip; the database loader
    layers user-facing restrictions on top.
    """
    if not isinstance(data, dict):
        raise InputError("structure data must be a JSON object")
    raw_relations = data.get("relations")
    if not isinstance(raw_relations, dict):
        raise InputError('structure data needs a "relations" object')
    declared = data.get("domain", [])
    if not isinstance(declared, list) or any(not isinstance(e, str) for e in declared):
        raise InputError('"domain" must be a list of strings')
    symbols = {}
    relations = {}
    extra = set()
    for name, body in raw_relations.items():
        if not isinstance(body, dict) or "arity" not in body or "tuples" not in body:
            raise InputError(f'relation {name!r} needs "arity" and "tuples"')
        tuples = body["tuples"]
        if not isinstance(tuples, list):
            raise InputError(f'"tuples" of {name!r} must be a list')
        rows = set()
        for row in tuples:
            if not isinstance(row, list) or any(not isinstance(e, str) for e in row):
                raise InputError(f"tuples of {name!r} must be lists of strings")
            rows.add(tuple(row))
            extra.update(row)
        symbols[name] = body["arity"]
        relations[name] = frozenset(rows)
    dom = list(dict.fromkeys(declared))
    dom.extend(sorted(extra - set(dom)))
    return RelationalStructure(Vocabulary(symbols), tuple(dom), relations)
