"""The structural counting pipeline and the trichotomy classifier.

Counting proceeds in three steps: take the core of the query, fold every
S-component into a single projection relation over the free variables it
touches (this quantifier-eliminated instance has the same answer set, and
its hypergraph's primal graph is exactly the contract of the core's
S-hypergraph), then count by sparse sum-product variable elimination
(bucket elimination) along a tree decomposition of that graph: each atom
is a table of the target tuples it matches, each component a table of its
projection, and eliminating a variable joins the tables that mention it
and sums it out. Joins filter before they grow: a bucket starts from its
largest table and next joins the table adding the fewest new variables,
and the starting table, each intermediate product and the summed message
absorb every pending table whose variables they cover. A bucket holding
one table is summed out in one pass, and atoms of one relation with
distinct variables share one table; no table is modified once built.

What counting and classifying read of the query alone is worked out once
per query and kept: the core, its S-hypergraph, each S-component's scope
and the bare sorted atoms and domain of its induced subquery, the core
atoms over free variables only, the contract graph (sharing the
hypergraph's all-free edges), its decomposition and the elimination order
along it. The
last 256 such analyses are memoised by (query value, search budgets,
exact-treewidth threshold); the core's own decomposition and its star
sizes, which only the classifier reads, join an analysis on its first
classification. Nothing that reads the database is cached: a count builds
its tables straight from the target's tuple sets, and each component's
search straight from its kept atoms, with no contracted structure or
subquery in between.

The classifier measures where a single query lands relative to
user-supplied width bounds. The bounds-based label is advisory: the
underlying theory classifies query classes, not individual queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .cores import core_of_query
from .errors import InputError, ResourceBudgetError
from .homomorphisms import (
    HomSearchConfig,
    _HomSearch,
    _answers,
    _check_candidates,
    _check_int,
    check_vocabulary,
    count_answers_brute,
)
from .hypergraphs import (
    SComponent,
    SHypergraph,
    _contract,
    _star_sizes,
    hypergraph_of,
    primal_graph,
    s_components,
)
from .structures import ConjunctiveQuery, RelationalStructure, Vocabulary
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

COMPONENT_PREFIX = "__comp_"

# Query analyses kept for reuse, least recently used evicted first, as for
# cores and decompositions.
ANALYSIS_CACHE_SIZE = 256


@dataclass(frozen=True)
class CountingConfig:
    """Caps and mode selection for count_answers.

    A component projection is bounded by ``hom.enumeration_cap`` alone,
    like brute-force counting.
    """

    mode: str = MODE_AUTO
    brute_cap: int = 10_000_000
    width_cap: int = 8
    exact_tw_threshold: int = DEFAULT_EXACT_THRESHOLD
    hom: HomSearchConfig = field(default_factory=HomSearchConfig)

    def __post_init__(self) -> None:
        if self.mode not in (MODE_AUTO, MODE_BRUTE, MODE_STRUCTURAL):
            raise InputError(f"unknown counting mode {self.mode!r}")
        _check_int("brute_cap", self.brute_cap, 1)
        _check_int("width_cap", self.width_cap, 1)
        _check_int("exact_tw_threshold", self.exact_tw_threshold, 0)


DEFAULT_COUNTING_CONFIG = CountingConfig()


def _bare_subquery(atoms: List[Tuple[str, tuple]], domain: Sequence[str],
                   comp: SComponent) -> Tuple[tuple, list, tuple]:
    """A component's free scope and its induced subquery's atoms and domain.

    The atoms keep the sorted order of ``atoms``; like
    ``induced_substructure``, the subquery keeps every 0-ary atom.
    """
    keep = comp.closure | comp.component_core
    return (comp.free_scope, [atom for atom in atoms if keep.issuperset(atom[1])],
            tuple(v for v in domain if v in keep))


def _projection(component: Tuple[tuple, list, tuple], dst: RelationalStructure,
                hom: HomSearchConfig) -> Tuple[tuple, dict]:
    """A component's factor: its scope and the answers of its subquery in ``dst``.

    The vocabulary is taken as checked; the candidate count is checked
    before the search is built.
    """
    scope, atoms, domain = component
    _check_candidates(len(dst.domain), len(scope), hom)
    search = _HomSearch(atoms, domain, dst.relations, dst.domain, cfg=hom)
    return scope, dict.fromkeys(_answers(search, scope), 1)


def component_projection(q: ConjunctiveQuery, dst: RelationalStructure,
                         comp: SComponent,
                         cfg: CountingConfig = DEFAULT_COUNTING_CONFIG) -> Tuple[Tuple[str, ...], frozenset]:
    """The relation a component contributes to the contracted instance.

    Returns the sorted free variables the component touches and the set of
    their value tuples that extend to a homomorphism of the component's
    induced subquery. The component core is included in the induced set so
    that an isolated quantified variable still demands a target value.
    The rows are the answers of that subquery with the touched free
    variables as its head, found by the brute-force answer loop, so
    ``cfg.hom.enumeration_cap`` bounds the |target domain|^|scope|
    candidate tuples it may walk (ResourceBudgetError beyond it).
    """
    check_vocabulary(q.structure, dst)
    component = _bare_subquery(q.structure.atoms(), q.structure.domain, comp)
    scope, rows = _projection(component, dst, cfg.hom)
    return scope, frozenset(rows)


def contract_instance(q: ConjunctiveQuery, dst: RelationalStructure,
                      cfg: CountingConfig = DEFAULT_COUNTING_CONFIG) -> Tuple[ConjunctiveQuery, RelationalStructure]:
    """Quantifier-eliminate the instance, one fresh atom per S-component.

    The new query keeps every original atom whose variables are all free and
    gains, per component, one atom over the free variables in its closure;
    the new target interprets that atom as the component's projection. The
    answer sets of (q, dst) and of the result coincide exactly. Callers
    normally pass a core query, but the equivalence holds for any query.
    A query without quantified variables has no S-component and is returned
    unchanged, together with ``dst``.
    """
    check_vocabulary(q.structure, dst)
    comps = s_components(hypergraph_of(q))
    if not comps:
        return q, dst
    free = frozenset(q.free_vars)
    left_symbols = dict(q.structure.vocabulary.symbols)
    left_rels: Dict[str, frozenset] = {}
    for name, ts in q.structure.relations.items():
        left_rels[name] = frozenset(t for t in ts if set(t) <= free)
    right_rels: Dict[str, frozenset] = {name: dst.tuples(name) for name in left_symbols}
    atoms = q.structure.atoms()
    for i, comp in enumerate(comps):
        scope, rows = _projection(_bare_subquery(atoms, q.structure.domain, comp), dst, cfg.hom)
        name = f"{COMPONENT_PREFIX}{i}"
        left_symbols[name] = len(scope)
        left_rels[name] = frozenset({scope})
        right_rels[name] = frozenset(rows)
    vocab = Vocabulary(left_symbols)
    left = RelationalStructure(vocab, q.free_vars, left_rels)
    right = RelationalStructure(vocab, dst.domain, right_rels)
    return ConjunctiveQuery(left, q.free_vars), right


def _atom_factor(t: tuple, table: dict) -> Tuple[tuple, dict]:
    """One atom's factor: its distinct variables and the matching rows.

    ``table`` maps each row of the atom's relation to 1. An atom with
    distinct variables returns it as is, so atoms of one relation share it;
    a repeated variable keeps only rows that agree on its positions, and
    each row is projected onto the first occurrences.
    """
    scope = tuple(dict.fromkeys(t))
    if len(scope) == len(t):
        return scope, table
    first = {v: t.index(v) for v in scope}
    repeats = [(i, first[v]) for i, v in enumerate(t) if first[v] != i]
    keep = [first[v] for v in scope]
    return scope, {
        tuple(row[i] for i in keep): 1
        for row in table
        if all(row[i] == row[j] for i, j in repeats)
    }


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


def _elimination_order(td: TreeDecomposition) -> List[str]:
    """Variables ordered bottom-up along the decomposition rooted at bag 0.

    Each variable goes at its bag nearest the root, and bags come children
    first, so every variable's later neighbours lie in that one bag.
    """
    adj: Dict[int, List[int]] = {i: [] for i in range(len(td.bags))}
    for i, j in td.tree_edges:
        adj[i].append(j)
        adj[j].append(i)
    top_down = [0]
    seen = {0}
    for i in top_down:
        for j in adj[i]:
            if j not in seen:
                seen.add(j)
                top_down.append(j)
    placed = set()
    levels = []
    for i in top_down:
        fresh = sorted(td.bags[i] - placed)
        placed.update(fresh)
        levels.append(fresh)
    return [v for level in reversed(levels) for v in level]


def _relation_factors(atoms: Iterable[Tuple[str, Iterable[tuple]]],
                      dst: RelationalStructure) -> Iterator[Tuple[tuple, dict]]:
    """One factor per atom; the atoms of one relation share its target table."""
    for name, ts in atoms:
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
            buckets[min(pos[v] for v in scope)].append((scope, table))
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
            buckets[min(pos[v] for v in scope)].append(message)
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
    into it. The join order is filter-first: each bucket starts from its
    largest factor and next takes the one adding the fewest new variables.
    The starting factor, every intermediate product and the summed message
    each absorb the pending factors within their scope, so covered atoms
    cut tables before later joins extend them. A bucket with one factor is
    summed out without a join. A variable in no atom contributes a factor
    |target domain|; a 0-ary atom contributes 1 or 0.
    """
    if set(q.free_vars) != set(q.structure.domain):
        raise InputError("count_quantifier_free_td expects a quantifier-free query")
    check_vocabulary(q.structure, dst)
    verify_decomposition(primal_graph(hypergraph_of(q)), td)
    atoms = [(name, ts) for name, ts in q.structure.relations.items() if ts]
    return _sum_product(_relation_factors(atoms, dst), _elimination_order(td),
                        len(dst.domain))


class _Analysis:
    """What counting and classifying read of one query, apart from any target.

    ``components`` holds, per S-component of the core's hypergraph, its
    free scope and the sorted atoms and domain of its induced subquery,
    bare, so that a count only builds the search that reads the target;
    ``free_atoms`` holds, per relation, the core atoms whose variables are
    all free; ``order`` eliminates the variables of the contract graph
    bottom-up along ``contract_td``. The contract graph shares its all-free
    edges with the hypergraph, and is the hypergraph itself when there is
    no S-component. The core's own decomposition and its star sizes are
    computed on first use, so a count never pays for them.
    """

    def __init__(self, q: ConjunctiveQuery, hom: HomSearchConfig, threshold: int):
        self.core = core_of_query(q, hom)
        self.hypergraph = hypergraph_of(self.core)
        self.threshold = threshold
        self._comps = s_components(self.hypergraph)
        atoms = self.core.structure.atoms()
        self.components = tuple(_bare_subquery(atoms, self.core.structure.domain, comp)
                                for comp in self._comps)
        free = frozenset(self.core.free_vars)
        self.free_atoms = tuple(
            (name, kept)
            for name, ts in self.core.structure.relations.items()
            if (kept := tuple(t for t in ts if free.issuperset(t)))
        )
        self.contract_graph = _contract(self.hypergraph, self._comps)
        self.contract_td = decompose(primal_graph(self.contract_graph), threshold)
        self.order = _elimination_order(self.contract_td)

    @cached_property
    def core_td(self) -> TreeDecomposition:
        return decompose(primal_graph(self.hypergraph), self.threshold)

    @cached_property
    def star_sizes(self) -> Tuple[int, int]:
        return _star_sizes(self._comps)


@lru_cache(maxsize=ANALYSIS_CACHE_SIZE)
def _analyse(q: ConjunctiveQuery, hom: HomSearchConfig, threshold: int) -> _Analysis:
    """The analysis of ``q``, memoised by (query value, ``hom``, ``threshold``).

    A budget error raised while it is built is not remembered.
    """
    return _Analysis(q, hom, threshold)


def count_answers(q: ConjunctiveQuery, dst: RelationalStructure,
                  cfg: CountingConfig = DEFAULT_COUNTING_CONFIG) -> int:
    """Exact |hom(A, B, S)| via the configured strategy.

    brute enumerates assignments; structural runs core -> contract -> tree
    DP; auto prefers structural when the contracted width fits the cap and
    falls back to brute while it stays within its cap. All modes agree
    whenever they run to completion.

    The query's analysis (core, components, contract graph, decomposition
    and elimination order) is memoised and shared with ``classify``;
    nothing read from ``dst`` is cached. An empty table ends the count at
    0 before later components are projected.
    """
    check_vocabulary(q.structure, dst)
    if cfg.mode == MODE_BRUTE:
        return count_answers_brute(q, dst, cfg.hom)
    analysis = _analyse(q, cfg.hom, cfg.exact_tw_threshold)
    td = analysis.contract_td
    if td.width > cfg.width_cap:
        if cfg.mode == MODE_STRUCTURAL:
            raise ResourceBudgetError(
                f"contracted instance has width {td.width}, cap is {cfg.width_cap}"
            )
        if len(dst.domain) ** len(q.free_vars) <= cfg.brute_cap:
            return count_answers_brute(q, dst, cfg.hom)
        raise ResourceBudgetError(
            "instance exceeds both the width cap and the brute-force cap"
        )
    projections = (_projection(comp, dst, cfg.hom) for comp in analysis.components)
    factors = chain(_relation_factors(analysis.free_atoms, dst), projections)
    return _sum_product(factors, analysis.order, len(dst.domain))


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
    Labels are advisory when a width is only an upper bound. Bounds below
    1 are rejected with InputError.

    It reads the analysis ``count_answers`` memoises, and keeps the core's
    decomposition and star sizes with it on first use.
    """
    if k_core < 1 or k_contract < 1:
        raise InputError(f"width bounds must be at least 1, got k_core={k_core}, "
                         f"k_contract={k_contract}")
    analysis = _analyse(q, cfg.hom, cfg.exact_tw_threshold)
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
