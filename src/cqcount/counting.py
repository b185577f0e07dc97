"""The structural counting pipeline and the trichotomy classifier.

Counting proceeds in three steps: take the core of the query, fold every
S-component into a single projection relation over the free variables it
touches (this quantifier-eliminated instance has the same answer set, and
its hypergraph's primal graph is exactly the contract of the core's
S-hypergraph), then count by sparse sum-product variable elimination
(bucket elimination) along a tree decomposition of that graph: each atom
is a table of the target tuples it matches, each component a table of its
projection, and eliminating a variable joins the tables that mention it
and sums it out, in the filter-first order that ``_join_sum_out`` and
``_absorb`` describe. Atoms of one relation with distinct variables share
one table; no table is modified once built. An instance whose contract is
wider than ``CountingConfig.width_cap`` is counted by brute force in auto
mode, and refused in structural mode. A Boolean component, one that
touches no free variable, contributes 1 or 0; when its atoms' incidence
graph over their distinct variables is a forest, generalized arc
consistency alone decides which (Freuder, JACM 1982), and no search runs.

What counting and classifying read of the query alone is worked out once
per query and kept: the core, its S-hypergraph (which finds its
S-components once and keeps them), each S-component's scope and the bare
sorted atoms and domain of its induced subquery, the core atoms over free
variables only, the contract graph (sharing the hypergraph's all-free
edges), its decomposition and the elimination order along it, none of it
validated again: the query was, at the API. The last 256 such analyses
are memoised by (query value, search budgets), the only memo keyed by
query, and each order is kept on its decomposition in ``decompose``'s
memo, the only one keyed by graph; the core's own decomposition
and its star sizes, which only the classifier reads, join an analysis on
its first classification. Nothing that reads the database is cached: a
count builds its tables straight from the target's tuple sets, and each
component's search straight from its kept atoms, with no contracted
structure or subquery in between.

The classifier measures where a single query lands relative to
user-supplied width bounds. The bounds-based label is advisory: the
underlying theory classifies query classes, not individual queries.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain
from operator import itemgetter
from typing import ClassVar, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .cores import core_of_query
from .errors import InputError, ResourceBudgetError, _check_int, _require
from .homomorphisms import (
    HomSearchConfig,
    _HomSearch,
    _answers,
    _atom_factor,
    _check_candidates,
    _exists,
    check_vocabulary,
    count_answers_brute,
)
from .hypergraphs import (
    SComponent,
    SHypergraph,
    contract,
    hypergraph_of,
    primal_graph,
    star_sizes,
)
from .structures import ConjunctiveQuery, RelationalStructure, Vocabulary, _fresh_names
from .treewidth import (
    DEFAULT_EXACT_THRESHOLD,
    EXACT,
    TreeDecomposition,
    decompose,
    verify_decomposition,
)

MODE_AUTO = "auto"
MODE_BRUTE = "brute"
MODE_STRUCTURAL = "structural"

CASE_I = "I_tractable"
CASE_II = "II_clique_equivalent"
CASE_III = "III_sharp_clique_hard"

# contract_instance's relations: __comp_0, ..., bumped like pin relations.
COMPONENT_BASE = "__comp"

# Query analyses kept for reuse, least recently used evicted first, as for
# decompositions. Counting and classifying one query, or counting one
# query over many targets, finds its core once.
ANALYSIS_CACHE_SIZE = 256


@dataclass(frozen=True)
class CountingConfig:
    """Mode selection and search budgets for count_answers.

    ``hom.enumeration_cap`` bounds each component projection and every
    brute-force count, whether ``mode`` is brute or auto falls back past
    ``width_cap``. ``width_cap`` and ``exact_tw_threshold`` are fixed, and
    ``brute_cap`` reads ``hom.enumeration_cap``; perfbench's traced replay
    reads all three.
    """

    width_cap: ClassVar[int] = 8
    exact_tw_threshold: ClassVar[int] = DEFAULT_EXACT_THRESHOLD

    mode: str = MODE_AUTO
    hom: HomSearchConfig = field(default_factory=HomSearchConfig)

    def __post_init__(self) -> None:
        if self.mode not in (MODE_AUTO, MODE_BRUTE, MODE_STRUCTURAL):
            raise InputError(f"unknown counting mode {reprlib.repr(self.mode)}")
        _require(self.hom, HomSearchConfig)

    @property
    def brute_cap(self) -> int:
        return self.hom.enumeration_cap


DEFAULT_COUNTING_CONFIG = CountingConfig()


def _bare_subquery(atoms: List[Tuple[str, tuple]], domain: Sequence[str],
                   comp: SComponent) -> Tuple[tuple, list, tuple]:
    """A component's free scope and its induced subquery's atoms and domain.

    The atoms keep the sorted order of ``atoms``: those whose variables
    all lie in the closure or the component core, every 0-ary atom included.
    """
    keep = comp.closure | comp.component_core
    return (comp.free_scope, [atom for atom in atoms if keep.issuperset(atom[1])],
            tuple([v for v in domain if v in keep]))


def _split(q: ConjunctiveQuery) -> Tuple[SHypergraph, tuple, tuple]:
    """The query's S-hypergraph, its S-components' ``_bare_subquery``s and its all-free atoms.

    The subqueries follow the order of ``s_components``. The all-free
    atoms, 0-ary ones included, are grouped per relation that has any.
    Counting splits the core, ``contract_instance`` its own query.
    """
    h = hypergraph_of(q)
    atoms, domain = q.structure.atoms(), q.structure.domain
    free_atoms: Dict[str, list] = {}
    all_free = h.s_set.issuperset
    for name, t in atoms:
        if all_free(t):
            free_atoms.setdefault(name, []).append(t)
    return (h, tuple([_bare_subquery(atoms, domain, c) for c in h._components]),
            tuple(free_atoms.items()))


def _projection(component: Tuple[tuple, list, tuple], dst: RelationalStructure,
                hom: HomSearchConfig) -> Tuple[tuple, dict]:
    """A component's factor: its scope and the answers of its subquery in ``dst``.

    The vocabulary is taken as checked; the candidate count is checked
    before the search is built. A Boolean component, one with an empty
    scope, has the one answer () iff its subquery maps into ``dst``.
    """
    scope, atoms, domain = component
    _check_candidates(len(dst.domain), len(scope), hom)
    search = _HomSearch(atoms, domain, dst.relations, dst.domain, cfg=hom)
    if not scope:
        return scope, {(): 1} if _exists(search, atoms) else {}
    return scope, dict.fromkeys(_answers(search, scope), 1)


def contract_instance(q: ConjunctiveQuery, dst: RelationalStructure,
                      cfg: CountingConfig = DEFAULT_COUNTING_CONFIG) -> Tuple[ConjunctiveQuery, RelationalStructure]:
    """Quantifier-eliminate the instance, one fresh atom per S-component.

    The new query keeps every original atom whose variables are all free and
    gains, per component, one atom over the free variables in its closure;
    the new target interprets that atom as the component's projection. The
    answer sets of (q, dst) and of the result coincide exactly. Callers
    normally pass a core query, but the equivalence holds for any query.
    A query without quantified variables has no S-component and is returned
    unchanged, together with ``dst``. The component subqueries and all-free
    atoms come from ``_split``, the same split a count reads of its core. The
    component relations are ``__comp_0``, ``__comp_1``, ..., with the
    prefix bumped (``__comp1_``, ...) if the query uses such a name.
    """
    _require(cfg, CountingConfig)
    check_vocabulary(_require(q, ConjunctiveQuery).structure, _require(dst, RelationalStructure))
    _, subqueries, free_atoms = _split(q)
    if not subqueries:
        return q, dst
    left_symbols = dict(q.structure.vocabulary.symbols)
    left_rels = dict(free_atoms)  # a relation left out is empty
    right_rels: Dict[str, frozenset] = {name: dst.tuples(name) for name in left_symbols}
    names = _fresh_names(q.structure.vocabulary, COMPONENT_BASE,
                         [str(i) for i in range(len(subqueries))])
    for name, subquery in zip(names.values(), subqueries):
        scope, rows = _projection(subquery, dst, cfg.hom)
        left_symbols[name] = len(scope)
        left_rels[name] = frozenset({scope})
        right_rels[name] = frozenset(rows)
    vocab = Vocabulary(left_symbols)
    left = RelationalStructure(vocab, q.free_vars, left_rels)
    right = RelationalStructure(vocab, dst.domain, right_rels)
    return ConjunctiveQuery(left, q.free_vars), right


def _key_getter(positions: List[int]):
    """A function taking a row to the tuple of its values at ``positions``."""
    if len(positions) == 1:
        i = positions[0]
        return lambda row: (row[i],)
    if not positions:
        return lambda row: ()
    return itemgetter(*positions)


def _match_key(positions: List[int]):
    """A function taking a row to a hashable key of its values at ``positions``.

    One position gives the bare value, so a join on one shared variable
    builds no tuple per row; both sides of a join use the same form.
    """
    if not positions:
        return lambda row: ()
    return itemgetter(*positions)


def _join(left: Tuple[tuple, dict], right: Tuple[tuple, dict],
          drop: Optional[str] = None) -> Tuple[tuple, dict]:
    """Hash join of two factors on their shared variables; counts multiply.

    With ``drop``, that variable of ``left`` is summed out in the same pass,
    so the unsummed join is never built. When ``right`` adds no variable and
    nothing is dropped, the join is a semijoin that probes ``right``
    directly and keeps ``left``'s scope. Neither input table is modified.
    """
    scope, table = left
    other_scope, other = right
    extra = [v for v in other_scope if v not in scope]
    if not extra and drop is None:
        probe = _key_getter([scope.index(v) for v in other_scope])
        return scope, {row: cnt * c for row, cnt in table.items()
                       if (c := other.get(probe(row)))}
    shared = [v for v in other_scope if v in scope]
    on_left = _match_key([scope.index(v) for v in shared])
    on_right = _match_key([other_scope.index(v) for v in shared])
    rest = _key_getter([other_scope.index(v) for v in extra])
    index: Dict[object, list] = {}
    for row, cnt in other.items():
        index.setdefault(on_right(row), []).append((rest(row), cnt))
    if drop is None:
        # distinct left rows meet distinct extensions: no key repeats
        return scope + tuple(extra), {
            row + ext: cnt * c
            for row, cnt in table.items()
            for ext, c in index.get(on_left(row), ())
        }
    kept = [i for i, v in enumerate(scope) if v != drop]
    head = _key_getter(kept)
    out: Dict[tuple, int] = {}
    for row, cnt in table.items():
        matches = index.get(on_left(row))
        if matches:
            start = head(row)
            for ext, c in matches:
                key = start + ext
                out[key] = out.get(key, 0) + cnt * c
    return tuple(scope[i] for i in kept) + tuple(extra), out


def _sum_out(factor: Tuple[tuple, dict], var: str) -> Tuple[tuple, dict]:
    """Sum ``var`` out of one factor in a single projection pass."""
    scope, table = factor
    kept = [i for i, v in enumerate(scope) if v != var]
    head = _key_getter(kept)
    out: Dict[tuple, int] = {}
    for row, cnt in table.items():
        key = head(row)
        out[key] = out.get(key, 0) + cnt
    return tuple(scope[i] for i in kept), out


def _join_sum_out(factors: List[Tuple[tuple, dict]], var: str,
                  buckets: List[Optional[list]], pos: Dict[str, int]) -> Tuple[tuple, dict]:
    """Multiply factors that all mention ``var`` and sum it out in the last join.

    The product starts from the largest table and next takes the factor
    that adds the fewest new variables (on ties, the smaller table), so
    factors already covered by the running scope filter it before it grows.
    The starting table, every intermediate product and the summed message
    each absorb the pending factors their scope covers. A lone factor is
    summed out without a join.
    """
    rest = sorted(factors, key=lambda f: len(f[1]))
    joined = _absorb(rest.pop(), buckets, pos)
    while len(rest) > 1:
        have = joined[0]
        k = min(range(len(rest)),
                key=lambda j: (sum(v not in have for v in rest[j][0]), j))
        joined = _absorb(_join(joined, rest.pop(k)), buckets, pos)
    summed = _join(joined, rest[0], drop=var) if rest else _sum_out(joined, var)
    return _absorb(summed, buckets, pos)


def _absorb(message: Tuple[tuple, dict], buckets: List[Optional[list]],
            pos: Dict[str, int]) -> Tuple[tuple, dict]:
    """Join into ``message`` every pending factor its scope covers.

    Such a factor waits in the bucket of one of the message's variables.
    Joining it now only filters the message, before a later join multiplies
    it by factors that add variables. The bucket being eliminated is None
    and is skipped: a pending factor lies in a later bucket, so it does not
    mention the variable being summed out, and multiplying by it commutes
    with the sum.
    """
    scope = message[0]
    within = set(scope)
    for v in scope:
        bucket = buckets[pos[v]]
        if not bucket:
            continue
        covered = [f for f in bucket if within.issuperset(f[0])]
        if covered:
            bucket[:] = [f for f in bucket if not within.issuperset(f[0])]
            for f in covered:
                message = _join(message, f)
    return message


def _relation_factors(atoms: Iterable[Tuple[str, Iterable[tuple]]],
                      dst: RelationalStructure) -> Iterator[Tuple[tuple, dict]]:
    """One factor per atom; a relation with atoms builds one target table, which they share."""
    for name, ts in atoms:
        if not ts:
            continue
        shared = dict.fromkeys(dst.tuples(name), 1)
        for t in ts:
            yield _atom_factor(t, shared)


def _sum_product(factors: Iterable[Tuple[tuple, dict]], order: Sequence[str],
                 size: int) -> int:
    """Bucket elimination of the variables in ``order``, in that order.

    Each factor waits in the bucket of its earliest-eliminated variable;
    eliminating that variable joins the bucket and passes the result on.
    An empty factor ends the count at 0 before the later ones are drawn,
    and a variable in no factor contributes ``size``.
    """
    pos = {v: i for i, v in enumerate(order)}
    buckets: List[Optional[list]] = [[] for _ in order]
    total = 1
    for scope, table in factors:
        if not table:
            return 0
        if scope:
            buckets[min(map(pos.__getitem__, scope))].append((scope, table))
    for i, var in enumerate(order):
        bucket = buckets[i]
        buckets[i] = None
        if not bucket:
            total *= size
            continue
        message = _join_sum_out(bucket, var, buckets, pos)
        scope, table = message
        if not table:
            return 0
        if scope:
            buckets[min(map(pos.__getitem__, scope))].append(message)
        else:
            total *= table[()]
    return total


def count_quantifier_free_td(q: ConjunctiveQuery, dst: RelationalStructure,
                             td: TreeDecomposition,
                             cfg: CountingConfig = DEFAULT_COUNTING_CONFIG) -> int:
    """Count full homomorphisms of a quantifier-free query by Σ-elimination.

    The decomposition (of the query's primal graph) is verified first. Each
    atom becomes a sparse factor table built from the target's tuples: a
    dict from value tuples to counts. Variables are then eliminated
    bottom-up along the decomposition: the factors mentioning a variable
    are joined and the variable is summed out, so every intermediate table
    lies within one bag and holds only rows that match the atoms joined
    into it, in the filter-first order ``_join_sum_out`` describes. A
    variable in no atom contributes a factor |target domain|; a 0-ary atom
    contributes 1 or 0.
    """
    _require(cfg, CountingConfig)
    if set(_require(q, ConjunctiveQuery).free_vars) != set(q.structure.domain):
        raise InputError("count_quantifier_free_td expects a quantifier-free query")
    check_vocabulary(q.structure, _require(dst, RelationalStructure))
    verify_decomposition(primal_graph(hypergraph_of(q)), td)
    return _sum_product(_relation_factors(q.structure.relations.items(), dst),
                        td.elimination_order, len(dst.domain))


class _Analysis:
    """What counting and classifying read of one query, apart from any target.

    The core's ``_split`` gives its hypergraph, which keeps its
    S-components, and two bare lists: ``components`` holds, per
    S-component, its free scope and the sorted atoms and domain of its
    induced subquery, so that a count only builds the search that reads
    the target, and ``free_atoms`` holds, per relation, the core atoms whose
    variables are all free. A count eliminates the contract graph's
    variables in ``contract_td.elimination_order``, which comes with the
    decomposition from ``decompose``'s memo. The contract graph shares its
    all-free edges with the hypergraph, and is the hypergraph itself,
    decomposition included, when there is no S-component. The core's own
    decomposition and its star sizes are computed on first use, so a count
    never pays for them.
    """

    def __init__(self, q: ConjunctiveQuery, hom: HomSearchConfig):
        self.core = core_of_query(q, hom)
        self.hypergraph, self.components, self.free_atoms = _split(self.core)
        self.contract_graph = contract(self.hypergraph)
        self.contract_td = decompose(primal_graph(self.contract_graph))

    @cached_property
    def core_td(self) -> TreeDecomposition:
        if not self.components:
            return self.contract_td
        return decompose(primal_graph(self.hypergraph))

    @cached_property
    def star_sizes(self) -> Tuple[int, int]:
        return star_sizes(self.hypergraph)


@lru_cache(maxsize=ANALYSIS_CACHE_SIZE)
def _analyse(q: ConjunctiveQuery, hom: HomSearchConfig) -> _Analysis:
    """The analysis of ``q``, memoised by (query value, ``hom``).

    A budget error raised while it is built is not remembered.
    """
    return _Analysis(q, hom)


def count_answers(q: ConjunctiveQuery, dst: RelationalStructure,
                  cfg: CountingConfig = DEFAULT_COUNTING_CONFIG) -> int:
    """Exact |hom(A, B, S)| via the configured strategy.

    brute enumerates assignments; structural runs core -> contract -> tree
    DP, and refuses a contract wider than ``width_cap``; auto counts such a
    contract by brute force instead. A brute-force count, like each
    component projection, refuses more than ``cfg.hom.enumeration_cap``
    candidate tuples. All modes agree whenever they run to completion.

    The query's analysis (core, components, contract graph, decomposition
    and elimination order) is memoised and shared with ``classify``;
    nothing read from ``dst`` is cached. An empty table ends the count at
    0 before later components are projected.
    """
    _require(cfg, CountingConfig)
    check_vocabulary(_require(q, ConjunctiveQuery).structure, _require(dst, RelationalStructure))
    if cfg.mode != MODE_BRUTE:
        analysis = _analyse(q, cfg.hom)
        td = analysis.contract_td
        if td.width <= cfg.width_cap:
            projections = (_projection(comp, dst, cfg.hom) for comp in analysis.components)
            factors = chain(_relation_factors(analysis.free_atoms, dst), projections)
            return _sum_product(factors, td.elimination_order, len(dst.domain))
        if cfg.mode == MODE_STRUCTURAL:
            raise ResourceBudgetError(
                f"contracted instance has width {td.width}, cap is {cfg.width_cap}")
    return count_answers_brute(q, dst, cfg.hom)


@dataclass(frozen=True)
class TrichotomyReport:
    """Measured widths and star sizes plus the advisory case label."""

    core_query: ConjunctiveQuery
    core_treewidth: int
    core_treewidth_exact: bool
    contract_graph: SHypergraph
    contract_treewidth: int
    contract_treewidth_exact: bool
    quantified_star_size: int
    strict_star_size: int
    k_core: int
    k_contract: int
    case_label: str

    def to_json_dict(self) -> dict:
        from .parsing import render_query

        has_atoms = any(t for _, t in self.core_query.structure.atoms())
        return {
            "case_label": self.case_label,
            "core_query": render_query(self.core_query) if has_atoms else None,
            "k_core": self.k_core,
            "k_contract": self.k_contract,
            "core_treewidth": {
                "width": self.core_treewidth,
                "exact": self.core_treewidth_exact,
            },
            "contract_treewidth": {
                "width": self.contract_treewidth,
                "exact": self.contract_treewidth_exact,
            },
            "quantified_star_size": self.quantified_star_size,
            "strict_star_size": self.strict_star_size,
            "contract_graph": {
                "vertices": sorted(self.contract_graph.vertices),
                "edges": sorted(sorted(e) for e in self.contract_graph.edges),
            },
        }


def classify(q: ConjunctiveQuery, k_core: int = 3, k_contract: int = 3,
             cfg: CountingConfig = DEFAULT_COUNTING_CONFIG) -> TrichotomyReport:
    """Measure the query's core and contract widths and label the case.

    A width strictly below its bound counts as bounded: case I when both
    widths stay below, case III when the contract width reaches its bound,
    case II otherwise (core width reaches its bound, contract stays below).
    Labels are advisory when a width is only an upper bound. A bound that
    is not an integer of at least 1, or a ``q`` or ``cfg`` of another type,
    is rejected with InputError.

    It reads the analysis ``count_answers`` memoises, and keeps the core's
    decomposition and star sizes with it on first use.
    """
    _check_int("k_core", k_core, 1)
    _check_int("k_contract", k_contract, 1)
    analysis = _analyse(_require(q, ConjunctiveQuery), _require(cfg, CountingConfig).hom)
    core_td, contract_td = analysis.core_td, analysis.contract_td
    star, strict = analysis.star_sizes
    if contract_td.width >= k_contract:
        label = CASE_III
    elif core_td.width >= k_core:
        label = CASE_II
    else:
        label = CASE_I
    return TrichotomyReport(
        core_query=analysis.core,
        core_treewidth=core_td.width,
        core_treewidth_exact=core_td.exactness == EXACT,
        contract_graph=analysis.contract_graph,
        contract_treewidth=contract_td.width,
        contract_treewidth_exact=contract_td.exactness == EXACT,
        quantified_star_size=star,
        strict_star_size=strict,
        k_core=k_core,
        k_contract=k_contract,
        case_label=label,
    )
