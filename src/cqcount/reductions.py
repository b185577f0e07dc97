"""Count-preserving reductions, executed exactly and verified end to end.

Two constructions live here.

The interpolation pipeline counts answers of the fully pinned query (every
variable carries a singleton unary constraint on the target) using only an
oracle for the unpinned query. It builds the pair structure D over pairs
(variable, target value) compatible with the pins, then recovers, for every
subset T of the free variables, the number of oracle answers whose first
coordinates all land in T: blowing each T-pair up into j twins multiplies
an answer with i pinned-in-T coordinates by j^i, so oracle counts against
the blowups for j = 1..|S|+1 form a Vandermonde system in the unknowns
N_{T,0..|S|}. Inclusion-exclusion over T then counts the answers whose
first coordinates cover S exactly, and dividing by the number of free-
variable automorphism patterns leaves the pinned count. Every division is
exact; a remainder means a bug upstream.

Instance lifting goes the other way: an instance over the contract of an
S-hypergraph is rewritten as an instance over the hypergraph itself, one
single-tuple relation per edge on the left and consistency relations on the
right (quantified vertices of a component share one value encoding an
admissible assignment of the free vertices around it). Answer sets are
preserved element-wise. The consistency relations are joins of the atoms'
sparse tables, built with the counting engine's join, so their cost
follows the rows they hold rather than |D|^(free vertices); the component
joins are capped at ``enumeration_cap`` rows.

Composite elements (pairs, twins, component encodings) are ``_pair_id``
strings; the lifted relations are named by ``structures._fresh_names`` on
the bases ``__edge`` and ``__free``, bumped if the query uses such names.
"""

from __future__ import annotations

from collections import abc
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from .counting import _analyse, _join, _key_getter, _relation_factors
from .errors import InputError, InternalError, ResourceBudgetError, _check_int, _hashable_items, _require
from .homomorphisms import (
    DEFAULT_CONFIG,
    HomSearchConfig,
    free_automorphism_set,
    is_homomorphism,
)
from .hypergraphs import SHypergraph, contract, hypergraph_of, s_components
from .structures import (
    ConjunctiveQuery,
    RelationalStructure,
    Vocabulary,
    _fresh_names,
    pin_relation_names,
)

Oracle = Callable[[RelationalStructure], int]


@dataclass(frozen=True)
class PairDomainStructure:
    """The pair structure D over (source element, target value) pairs.

    ``pair_of`` decodes each domain element of ``structure`` back into its
    pair; first coordinates drive the interpolation bookkeeping.
    """

    structure: RelationalStructure
    pair_of: Mapping[str, Tuple[str, str]]

    def first_coordinate(self, element: str) -> str:
        return self.pair_of[element][0]


def _pair_id(a: object, b: object) -> str:
    # repr-based encoding is injective for strings, ints and tuples of them.
    return str((a, b))


def pair_structure(a: RelationalStructure, b: RelationalStructure) -> PairDomainStructure:
    """Build D: pairs (a, b) with b allowed by a's pin, product relations.

    ``b`` must be over a's vocabulary extended by the pin relations of
    ``star_structure(a)``. The first-coordinate projection is checked to be
    a homomorphism from D back to ``a``.
    """
    _require(b, RelationalStructure)
    pins = pin_relation_names(_require(a, RelationalStructure))
    for elem, name in pins.items():
        if b.vocabulary.symbols.get(name) != 1:
            raise InputError(
                f"target lacks the unary pin relation {name!r} for element {elem!r}"
            )
    pairs = []
    for elem in sorted(a.domain):
        for (val,) in sorted(b.tuples(pins[elem])):
            pairs.append((elem, val))
    pair_of = {_pair_id(x, y): (x, y) for x, y in pairs}
    dom = tuple(sorted(pair_of))
    allowed = set(pairs)
    rels: Dict[str, set] = {name: set() for name in a.vocabulary.symbols}
    for name in a.vocabulary.symbols:
        for ta in a.tuples(name):
            for tb in b.tuples(name):
                if all(pair in allowed for pair in zip(ta, tb)):
                    rels[name].add(tuple(_pair_id(x, y) for x, y in zip(ta, tb)))
    structure = RelationalStructure(a.vocabulary, dom, {k: frozenset(v) for k, v in rels.items()})
    projection = {e: pair_of[e][0] for e in dom}
    if not is_homomorphism(structure, a, projection):
        raise InternalError("first-coordinate projection failed to be a homomorphism")
    return PairDomainStructure(structure, pair_of)


def blowup(dstruct: PairDomainStructure, t_subset: Sequence[str],
           copies: int) -> RelationalStructure:
    """Replace every pair whose first coordinate is in T by ``copies`` twins.

    Relations expand to the full product over the twin sets, so any answer
    placing i of its values on T-pairs lifts to exactly copies^i answers.
    With an empty T (or one copy over an empty T) the structure is returned
    unchanged; one copy of a non-empty T yields an isomorphic renaming.
    """
    base = _require(dstruct, PairDomainStructure).structure
    t_set = set(_hashable_items(t_subset, "t_subset"))
    _check_int("copies", copies, 1)
    twins: Dict[str, Tuple[str, ...]] = {}
    for e in base.domain:
        a, b = dstruct.pair_of[e]
        if a in t_set:
            twins[e] = tuple(_pair_id((a, k), b) for k in range(1, copies + 1))
        else:
            twins[e] = (e,)
    if all(len(t) == 1 and t[0] == e for e, t in twins.items()):
        return base
    dom = tuple(sorted(x for t in twins.values() for x in t))
    rels: Dict[str, frozenset] = {}
    for name, ts in base.relations.items():
        out = set()
        for t in ts:
            for combo in product(*(twins[e] for e in t)):
                out.add(combo)
        rels[name] = frozenset(out)
    return RelationalStructure(base.vocabulary, dom, rels)


def solve_vandermonde(nodes: Sequence[int], rhs: Sequence[int]) -> List[int]:
    """Solve sum_i nodes[r]^i * x_i = rhs[r] exactly; results must be integers.

    Björck–Pereyra over rationals in O(n^2): Newton divided differences of
    the points (nodes[r], rhs[r]), then expansion into monomial coefficients.
    A non-integer x_i means the right-hand sides were not consistent counts,
    which is a bug in the caller, not in the input data. Nodes and
    right-hand sides must be integers, not bools (InputError otherwise).
    """
    n = len(_require(nodes, abc.Sequence))
    if len(_require(rhs, abc.Sequence)) != n:
        raise InputError("nodes and right-hand sides must have equal length")
    for value in (*nodes, *rhs):
        _check_int("each node and right-hand side", value)
    if len(set(nodes)) != n:
        raise InputError("interpolation nodes must be distinct")
    c = [Fraction(y) for y in rhs]
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            c[i] = (c[i] - c[i - 1]) / (nodes[i] - nodes[i - k])
    for k in range(n - 2, -1, -1):
        for i in range(k, n - 1):
            c[i] -= nodes[k] * c[i + 1]
    for value in c:
        if value.denominator != 1:
            raise InternalError(f"non-integral interpolation solution {value}")
    return [int(value) for value in c]


def count_star_via_oracle(q: ConjunctiveQuery, b: RelationalStructure,
                          oracle: Oracle,
                          cfg: HomSearchConfig = DEFAULT_CONFIG) -> int:
    """|hom(A*, B, S)| using only counts of the unpinned query.

    ``q`` must be its own core with its free variables fixed (checked); ``b``
    must interpret the base vocabulary and every pin relation. The oracle is
    any procedure returning exact |hom(A, ., S)| counts. One copy of T is D
    renamed, so D is counted once, as every system's j = 1 point. The core
    check reads ``count_answers``'s memoised analysis of ``q`` under ``cfg``.
    """
    _require(q, ConjunctiveQuery)
    _require(oracle, abc.Callable)
    if _analyse(q, _require(cfg, HomSearchConfig)).core != q:
        raise InputError("the pinned (augmented) query structure must be a core")
    dstruct = pair_structure(q.structure, b)
    auto = free_automorphism_set(q, cfg)
    s = len(q.free_vars)
    nodes = list(range(1, s + 2))
    plain = _oracle_count(oracle, dstruct.structure)
    total = 0
    for mask in range(1 << s):
        t_subset = [v for i, v in enumerate(q.free_vars) if mask >> i & 1]
        if t_subset:
            rhs = [plain] + [_oracle_count(oracle, blowup(dstruct, t_subset, j))
                             for j in nodes[1:]]
        else:
            rhs = [plain] * len(nodes)
        coefficients = solve_vandermonde(nodes, rhs)
        if any(c < 0 for c in coefficients):
            raise InternalError(f"negative interpolated count {coefficients}")
        n_t = coefficients[s]
        total += (-1) ** (s - len(t_subset)) * n_t
    size = len(auto)
    if total < 0 or total % size:
        raise InternalError(
            f"inclusion-exclusion total {total} is not a multiple of |I| = {size}"
        )
    return total // size


def _oracle_count(oracle: Oracle, structure: RelationalStructure) -> int:
    value = oracle(structure)
    _check_int("oracle count", value)
    return value


def _edge_key(e: frozenset) -> tuple:
    return tuple(sorted(e))


def _rows_over(scope: Tuple[str, ...], factor: Tuple[tuple, dict]) -> frozenset:
    """A factor's rows, reordered to list ``scope``'s variables in order."""
    order = _key_getter([factor[0].index(v) for v in scope])
    return frozenset(order(row) for row in factor[1])


def lift_to_hypergraph(q: ConjunctiveQuery, b: RelationalStructure,
                       target: SHypergraph,
                       cfg: HomSearchConfig = DEFAULT_CONFIG) -> Tuple[ConjunctiveQuery, RelationalStructure]:
    """Rewrite an instance over contract(target) as one over target itself.

    The query's S-hypergraph must equal the contract exactly. The result has
    one single-tuple relation per target edge; on the right, edges touching
    a component constrain their quantified vertices to a shared element that
    encodes an admissible assignment of the component's free vertices.
    Answer sets are preserved element-wise.

    Every table is a join of sparse tables, one per relation and shared by
    its atoms as in Σ-elimination: an edge's constraint joins the atoms
    whose variable set is that edge, and a component's admissible
    assignments join the edge constraints inside its free scope. The row
    budget is ``cfg.enumeration_cap``: a component join that builds more
    rows raises ResourceBudgetError.
    """
    _require(b, RelationalStructure)
    _require(cfg, HomSearchConfig)
    comps = s_components(target)
    ct, h = contract(target), hypergraph_of(q)
    if (set(h.vertices), h.edges, h.s_set) != (set(ct.vertices), ct.edges, ct.s_set):
        raise InputError("the query's S-hypergraph must equal the contract of the target")

    # One constraint per contract edge, conjoining every atom with that
    # variable set; its rows are read out over the edge's sorted variables.
    edge_tables: Dict[frozenset, Tuple[tuple, dict]] = {}
    for factor in _relation_factors(q.structure.relations.items(), b):
        e = frozenset(factor[0])
        if e:
            edge_tables[e] = _join(edge_tables[e], factor) if e in edge_tables else factor

    # Encoded component elements must not collide with target values; bump
    # the tag until they cannot.
    values = sorted(b.domain)
    tag = "__scomp"
    while any(v.startswith(f"('{tag}_") for v in values):
        tag = "_" + tag

    # A component's admissible assignments join the contract edges inside
    # its closure. Every free vertex of the closure lies in a touched edge,
    # whose free part is such a contract edge, so the joins cover the scope.
    comp_rows: List[dict] = []
    for ci, comp in enumerate(comps):
        table = ((), {(): 1})  # the empty join: a Boolean component keeps one row
        for e in sorted(ct.edges, key=_edge_key):
            if e <= comp.closure:
                table = _join(table, edge_tables[e])
                if len(table[1]) > cfg.enumeration_cap:
                    raise ResourceBudgetError(
                        f"component join built {len(table[1])} rows, cap is {cfg.enumeration_cap}"
                    )
        comp_rows.append({_pair_id(f"{tag}_{ci}", row): dict(zip(comp.free_scope, row))
                          for row in _rows_over(comp.free_scope, table)})

    comp_of = {v: ci for ci, comp in enumerate(comps) for v in comp.component_core}

    target_edges = sorted(target.edges, key=_edge_key)
    edge_names = _fresh_names(q.structure.vocabulary, "__edge",
                              [str(i) for i in range(len(target_edges))])
    left_symbols: Dict[str, int] = {}
    left_rels: Dict[str, frozenset] = {}
    right_rels: Dict[str, frozenset] = {}
    for name, e in zip(edge_names.values(), target_edges):
        scope = _edge_key(e)
        left_symbols[name] = len(scope)
        left_rels[name] = frozenset({scope})
        quantified = [v for v in scope if v not in target.s_set]
        if not quantified:
            right_rels[name] = _rows_over(scope, edge_tables[e])
        else:
            right_rels[name] = frozenset(
                tuple(key if v not in target.s_set else bind[v] for v in scope)
                for key, bind in comp_rows[comp_of[quantified[0]]].items())

    # 0-ary atoms have no edge; carry them over verbatim so degenerate
    # Boolean constraints survive the rewrite.
    for name, arity in q.structure.vocabulary.symbols.items():
        if arity == 0 and q.structure.tuples(name):
            left_symbols[name] = 0
            left_rels[name] = frozenset({()})
            right_rels[name] = b.tuples(name)

    # A free vertex in no target edge is otherwise unconstrained and would
    # range over the component encodings too; pin it to the value domain.
    covered = set().union(*target.edges) if target.edges else set()
    uncovered = sorted(set(target.s_set) - covered)
    free_names = _fresh_names(q.structure.vocabulary, "__free",
                              [str(j) for j in range(len(uncovered))])
    for name, v in zip(free_names.values(), uncovered):
        left_symbols[name] = 1
        left_rels[name] = frozenset({(v,)})
        right_rels[name] = frozenset((x,) for x in values)

    vocab = Vocabulary(left_symbols)
    right_domain = tuple(values) + tuple(sorted(key for rows in comp_rows for key in rows))
    left = RelationalStructure(vocab, tuple(target.vertices), left_rels)
    return (ConjunctiveQuery(left, q.free_vars),
            RelationalStructure(vocab, right_domain, right_rels))
