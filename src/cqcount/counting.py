"""The structural counting pipeline and the trichotomy classifier.

Counting proceeds in three steps: take the core of the query, fold every
S-component into a single projection relation over the free variables it
touches (this quantifier-eliminated instance has the same answer set, and
its hypergraph's primal graph is exactly the contract of the core's
S-hypergraph), then count by sparse sum-product variable elimination
(bucket elimination) along a tree decomposition of that graph: each atom
is a table of the target tuples it matches, and eliminating a variable
joins the tables that mention it and sums it out. Joins filter before
they grow: a bucket starts from its largest table and next joins the
table adding the fewest new variables, and each message, once summed,
absorbs every pending table whose variables it covers.

The classifier measures where a single query lands relative to
user-supplied width bounds. The bounds-based label is advisory: the
underlying theory classifies query classes, not individual queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from .cores import core_of_query
from .errors import InputError, ResourceBudgetError
from .homomorphisms import (
    HomSearchConfig,
    _answer_iter,
    check_vocabulary,
    count_answers_brute,
)
from .hypergraphs import (
    SComponent,
    SHypergraph,
    contract,
    hypergraph_of,
    primal_graph,
    s_components,
    star_sizes,
)
from .structures import (
    ConjunctiveQuery,
    RelationalStructure,
    Vocabulary,
    induced_substructure,
)
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
        if self.brute_cap <= 0 or self.width_cap <= 0:
            raise InputError("caps must be positive")


DEFAULT_COUNTING_CONFIG = CountingConfig()


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
    sub = induced_substructure(q.structure, comp.closure | comp.component_core)
    rows = _answer_iter(ConjunctiveQuery(sub, comp.free_scope), dst, cfg.hom)
    return comp.free_scope, frozenset(rows)


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
    for i, comp in enumerate(comps):
        scope, rows = component_projection(q, dst, comp, cfg)
        name = f"{COMPONENT_PREFIX}{i}"
        left_symbols[name] = len(scope)
        left_rels[name] = frozenset({scope})
        right_rels[name] = rows
    vocab = Vocabulary(left_symbols)
    left = RelationalStructure(vocab, q.free_vars, left_rels)
    right = RelationalStructure(vocab, dst.domain, right_rels)
    return ConjunctiveQuery(left, q.free_vars), right


def _atom_factor(t: tuple, rows: frozenset) -> Tuple[tuple, dict]:
    """One atom's factor: its distinct variables and the matching rows.

    A repeated variable keeps only rows that agree on its positions, and
    each row is projected onto the first occurrences.
    """
    scope = tuple(dict.fromkeys(t))
    if len(scope) == len(t):
        return scope, dict.fromkeys(rows, 1)
    first = {v: t.index(v) for v in scope}
    repeats = [(i, first[v]) for i, v in enumerate(t) if first[v] != i]
    keep = [first[v] for v in scope]
    return scope, {
        tuple(row[i] for i in keep): 1
        for row in rows
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


_UNIT = ((), {(): 1})


def _join(left: Tuple[tuple, dict], right: Tuple[tuple, dict],
          drop: Optional[str] = None) -> Tuple[tuple, dict]:
    """Hash join of two factors on their shared variables; counts multiply.

    With ``drop``, that variable of ``left`` is summed out in the same pass,
    so the unsummed join is never built. When ``right`` adds no variable and
    nothing is dropped, the join is a semijoin that probes ``right``
    directly and keeps ``left``'s scope.
    """
    scope, table = left
    other_scope, other = right
    extra = [v for v in other_scope if v not in scope]
    if not extra and drop is None:
        probe = _key_getter([scope.index(v) for v in other_scope])
        return scope, {row: cnt * c for row, cnt in table.items()
                       if (c := other.get(probe(row)))}
    shared = [v for v in other_scope if v in scope]
    on_left = _key_getter([scope.index(v) for v in shared])
    on_right = _key_getter([other_scope.index(v) for v in shared])
    rest = _key_getter([other_scope.index(v) for v in extra])
    index: Dict[tuple, list] = {}
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


def _join_sum_out(factors: List[Tuple[tuple, dict]], var: str) -> Tuple[tuple, dict]:
    """Multiply factors that all mention ``var`` and sum it out in the last join.

    The product starts from the largest table and next takes the factor
    that adds the fewest new variables (on ties, the smaller table), so
    factors already covered by the running scope filter it before it grows.
    """
    rest = sorted(factors, key=lambda f: len(f[1]))
    joined = rest.pop()
    while len(rest) > 1:
        have = joined[0]
        k = min(range(len(rest)),
                key=lambda j: (sum(v not in have for v in rest[j][0]), j))
        joined = _join(joined, rest.pop(k))
    return _join(joined, rest[0] if rest else _UNIT, drop=var)


def _absorb(message: Tuple[tuple, dict], buckets: List[list],
            pos: Dict[str, int]) -> Tuple[tuple, dict]:
    """Join into ``message`` every pending factor its scope covers.

    Such a factor waits in the bucket of one of the message's variables.
    Joining it now only filters the message, before a later bucket
    multiplies the message by factors that add variables.
    """
    scope = message[0]
    within = set(scope)
    for v in scope:
        bucket = buckets[pos[v]]
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


def _sum_product(q: ConjunctiveQuery, dst: RelationalStructure,
                 td: TreeDecomposition) -> int:
    """Bucket elimination of every variable of ``q`` along ``td``.

    Each factor waits in the bucket of its earliest-eliminated variable;
    eliminating that variable joins the bucket and passes the result on.
    """
    order = _elimination_order(td)
    pos = {v: i for i, v in enumerate(order)}
    buckets: List[list] = [[] for _ in order]
    total = 1
    for name, ts in q.structure.relations.items():
        rows = dst.tuples(name)
        for t in ts:
            scope, table = _atom_factor(t, rows)
            if not table:
                return 0
            if scope:
                buckets[min(pos[v] for v in scope)].append((scope, table))
    size = len(dst.domain)
    for i, var in enumerate(order):
        bucket = buckets[i]
        buckets[i] = None
        if not bucket:
            total *= size
            continue
        message = _absorb(_join_sum_out(bucket, var), buckets, pos)
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
    largest factor and next takes the one adding the fewest new variables,
    and the summed message at once absorbs every pending factor within its
    scope, so covered atoms cut tables before later joins extend them. A
    variable in no atom contributes a factor |target domain|; a 0-ary atom
    contributes 1 or 0.
    """
    if set(q.free_vars) != set(q.structure.domain):
        raise InputError("count_quantifier_free_td expects a quantifier-free query")
    check_vocabulary(q.structure, dst)
    verify_decomposition(primal_graph(hypergraph_of(q)), td)
    return _sum_product(q, dst, td)


def count_answers(q: ConjunctiveQuery, dst: RelationalStructure,
                  cfg: CountingConfig = DEFAULT_COUNTING_CONFIG) -> int:
    """Exact |hom(A, B, S)| via the configured strategy.

    brute enumerates assignments; structural runs core -> contract -> tree
    DP; auto prefers structural when the contracted width fits the cap and
    falls back to brute while it stays within its cap. All modes agree
    whenever they run to completion.
    """
    check_vocabulary(q.structure, dst)
    if cfg.mode == MODE_BRUTE:
        return count_answers_brute(q, dst, cfg.hom)
    core = core_of_query(q, cfg.hom)
    left, right = contract_instance(core, dst, cfg)
    td = decompose(primal_graph(hypergraph_of(left)), cfg.exact_tw_threshold)
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
    return _sum_product(left, right, td)


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
    Labels are advisory when a width is only an upper bound.
    """
    core = core_of_query(q, cfg.hom)
    h = hypergraph_of(core)
    core_td = decompose(primal_graph(h), cfg.exact_tw_threshold)
    cg = contract(h)
    contract_td = decompose(primal_graph(cg), cfg.exact_tw_threshold)
    star, strict = star_sizes(h)
    if contract_td.width >= k_contract:
        label = CASE_III
    elif core_td.width >= k_core:
        label = CASE_II
    else:
        label = CASE_I
    return TrichotomyReport(
        core_query=core,
        core_treewidth=core_td.width,
        core_treewidth_exact=core_td.exactness == EXACT,
        contract_graph=cg,
        contract_treewidth=contract_td.width,
        contract_treewidth_exact=contract_td.exactness == EXACT,
        quantified_star_size=star,
        strict_star_size=strict,
        k_core=k_core,
        k_contract=k_contract,
        case_label=label,
    )
