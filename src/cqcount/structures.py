"""Relational vocabularies, structures, and conjunctive queries.

All values here are immutable after construction and safe to share across
threads; every operation is a pure function. Set-like data is stored in
frozensets and iterated in sorted order, so every downstream computation is
deterministic. Mappings (``Vocabulary.symbols``,
``RelationalStructure.relations``) are read-only views, and vocabularies,
structures and queries compare and hash by value: equal values built along
different routes (another insertion order, ``structure_from_dict`` or the
constructor) are interchangeable as dictionary keys, which is what lets
counting memoise its analysis of a query and share it between callers. A
structure keeps its hash once computed; pickles carry only the fields,
since string hashes differ between processes.

A conjunctive query is kept in natural-model form: a structure whose domain
is the set of query variables, paired with the ordered tuple of free
variables. Tuple sets use set semantics; duplicate input tuples are
silently collapsed. Error messages quote caller values (names, elements,
tuples) through ``reprlib.repr``, so a huge value is shortened.
"""

from __future__ import annotations

import reprlib
from collections import abc
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Mapping, Sequence, Tuple

from .errors import InputError, _check_int, _hashable_items, _require

# User-facing relation names may not start with "__"; that prefix is
# reserved for relations the library adds itself, all named by
# _fresh_names. Pinning relations (one singleton unary per element, shared
# by augment and star_structure) live under "__aug", contract_instance's
# component relations under "__comp", and lift_to_hypergraph's edge and
# free-pin relations under "__edge" and "__free"; the numeric bump keeps
# them fresh if a structure already carries such names.
RESERVED_PREFIX = "__"
PIN_PREFIX_BASE = "__aug"

# A (partial) map from query variables to target elements.
Assignment = Dict[str, str]


def _unchecked(cls, **fields):
    """The frozen dataclass ``cls`` with these fields, skipping ``__post_init__``.

    Only for values derived from validated ones, each field already in normal form.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _from_pickle(cls, fields: dict, view: str):
    """``cls`` rebuilt from pickled fields, the mapping field ``view`` made read-only again.

    Pickles carry the fields alone: read-only views do not pickle, and the
    cached hash depends on the process's string hash seed.
    """
    fields[view] = MappingProxyType(fields[view])
    return _unchecked(cls, **fields)


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
        symbols = dict(_require(self.symbols, abc.Mapping))
        for name, arity in symbols.items():
            if not name or not isinstance(name, str):
                raise InputError("relation names must be non-empty strings")
            # The label costs a reprlib.repr call: build it only when it may be needed.
            if type(arity) is not int or arity < 0:
                _check_int(f"arity of {reprlib.repr(name)}", arity, 0)
        object.__setattr__(self, "symbols", MappingProxyType(symbols))

    def __hash__(self) -> int:
        return hash(frozenset(self.symbols.items()))

    def __reduce__(self):
        return _from_pickle, (Vocabulary, {"symbols": dict(self.symbols)}, "symbols")

    def arity(self, name: str) -> int:
        try:
            return self.symbols[name]
        except KeyError:
            raise InputError(f"unknown relation symbol {reprlib.repr(name)}") from None


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
        for e in _require(self.domain, abc.Iterable):
            if not isinstance(e, str):
                raise InputError(f"domain elements must be strings, got {reprlib.repr(e)}")
            if e not in seen:
                seen.add(e)
                dom.append(e)
        rels = {name: frozenset() for name in _require(self.vocabulary, Vocabulary).symbols}
        for name, tuples in dict(_require(self.relations, abc.Mapping)).items():
            arity = self.vocabulary.arity(name)
            out = set()
            for t in _require(tuples, abc.Iterable):
                try:
                    t = tuple(t)
                except TypeError:
                    _require(t, abc.Iterable)  # InputError if t is not iterable at all
                    raise
                if len(t) != arity:
                    raise InputError(
                        f"tuple {reprlib.repr(t)} has length {len(t)}, "
                        f"relation {reprlib.repr(name)} expects {arity}"
                    )
                for e in t:
                    if e not in seen:
                        raise InputError(
                            f"element {reprlib.repr(e)} of a {reprlib.repr(name)} tuple "
                            f"is not in the domain"
                        )
                out.add(t)
            rels[name] = frozenset(out)
        object.__setattr__(self, "domain", tuple(dom))
        object.__setattr__(self, "relations", MappingProxyType(rels))

    def __hash__(self) -> int:
        # Computed once and kept; a pickle leaves it out (see _from_pickle).
        try:
            return self.__dict__["_hash"]
        except KeyError:
            h = self.__dict__["_hash"] = hash(
                (self.vocabulary, self.domain, frozenset(self.relations.items())))
            return h

    def __reduce__(self):
        return _from_pickle, (RelationalStructure, {
            "vocabulary": self.vocabulary, "domain": self.domain,
            "relations": dict(self.relations)}, "relations")

    def tuples(self, name: str) -> frozenset:
        return self.relations.get(name, frozenset())

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
        free = _hashable_items(self.free_vars, "free variables")
        if len(set(free)) != len(free):
            raise InputError("free variables must not repeat")
        dom = set(_require(self.structure, RelationalStructure).domain)
        missing = [v for v in free if v not in dom]
        if missing:
            raise InputError(f"free variables {reprlib.repr(missing)} are not in the query domain")
        object.__setattr__(self, "free_vars", free)

    @property
    def quantified_vars(self) -> Tuple[str, ...]:
        free = set(self.free_vars)
        return tuple([v for v in self.structure.domain if v not in free])


def _fresh_names(vocab: Vocabulary, base: str, keys: Sequence[str]) -> Dict[str, str]:
    """Names ``<base>_<key>``, the prefix bumped (``<base>1_``, ...) until none is in ``vocab``."""
    existing = set(vocab.symbols)
    bump = 0
    while True:
        prefix = base + (str(bump) if bump else "") + "_"
        names = {k: prefix + k for k in keys}
        if not set(names.values()) & existing:
            return names
        bump += 1


def pin_relation_names(a: RelationalStructure) -> Dict[str, str]:
    """The unary relation names ``star_structure`` would add.

    Exposed so callers building companion structures over the extended
    vocabulary (for the interpolation reduction) use identical names.
    """
    return _fresh_names(_require(a, RelationalStructure).vocabulary, PIN_PREFIX_BASE, a.domain)


def _with_pins(a: RelationalStructure, elements: Tuple[str, ...]) -> RelationalStructure:
    names = _fresh_names(a.vocabulary, PIN_PREFIX_BASE, elements)
    symbols = dict(a.vocabulary.symbols)
    rels = dict(a.relations)
    for e in elements:
        symbols[names[e]] = 1
        rels[names[e]] = frozenset({(e,)})
    return RelationalStructure(Vocabulary(symbols), a.domain, rels)


def augment(q: ConjunctiveQuery) -> RelationalStructure:
    """The query structure plus one singleton unary relation per free variable.

    The added relation for free variable ``a`` holds exactly ``{(a,)}``, so
    any homomorphism out of the result must fix ``a``. With an empty free
    tuple this returns the structure unchanged.
    """
    return _with_pins(_require(q, ConjunctiveQuery).structure, q.free_vars)


def star_structure(a: RelationalStructure) -> RelationalStructure:
    """Pin every domain element, not only the free ones.

    For a quantifier-free query this coincides with ``augment``, name for
    name.
    """
    return _with_pins(a, _require(a, RelationalStructure).domain)


def structure_to_dict(a: RelationalStructure) -> dict:
    """JSON-ready form; matches the database file format exactly."""
    _require(a, RelationalStructure)
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
            raise InputError(f'relation {reprlib.repr(name)} needs "arity" and "tuples"')
        tuples = body["tuples"]
        if not isinstance(tuples, list):
            raise InputError(f'"tuples" of {reprlib.repr(name)} must be a list')
        rows = set()
        for row in tuples:
            if not isinstance(row, list) or any(not isinstance(e, str) for e in row):
                raise InputError(f"tuples of {reprlib.repr(name)} must be lists of strings")
            rows.add(tuple(row))
            extra.update(row)
        symbols[name] = body["arity"]
        relations[name] = frozenset(rows)
    dom = list(dict.fromkeys(declared))
    dom.extend(sorted(extra - set(dom)))
    return RelationalStructure(Vocabulary(symbols), tuple(dom), relations)
