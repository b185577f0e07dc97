"""Homomorphism search, enumeration, and brute-force answer counting.

The backtracking solver here is deliberately straightforward: it is the
oracle the structural counting pipeline is verified against, so clarity and
exactness win over cleverness. Variables are assigned in a static order
(smallest domain first after unary pruning), values in sorted order, so
every result is deterministic. Counts use Python integers and are never
approximated; running out of budget raises, it does not round.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, List, Mapping, Optional

from .errors import InputError, ResourceBudgetError
from .structures import Assignment, ConjunctiveQuery, RelationalStructure


@dataclass(frozen=True)
class HomSearchConfig:
    """Budgets for the search routines.

    ``node_budget`` caps backtracking nodes per search call;
    ``use_arc_consistency`` prunes the domains to arc consistency when a
    search is built or narrowed by ``avoiding``. ``enumeration_cap``
    bounds how many candidate assignments brute-force counting and each
    component projection in ``contract_instance`` may walk, and how many
    rows a component join in ``lift_to_hypergraph`` may build. Exceeding
    a budget raises ResourceBudgetError.
    """

    node_budget: int = 10_000_000
    use_arc_consistency: bool = True
    enumeration_cap: int = 10_000_000

    def __post_init__(self) -> None:
        if self.node_budget <= 0:
            raise InputError("node_budget must be positive")
        if self.enumeration_cap <= 0:
            raise InputError("enumeration_cap must be positive")


DEFAULT_CONFIG = HomSearchConfig()


def check_vocabulary(src: RelationalStructure, dst: RelationalStructure) -> None:
    """Require every source symbol in the target, with matching arity.

    Extra target symbols are fine: the source behaves as if it had empty
    relations for them.
    """
    for name, arity in src.vocabulary.symbols.items():
        have = dst.vocabulary.symbols.get(name)
        if have is None:
            raise InputError(f"target structure lacks relation {name!r}")
        if have != arity:
            raise InputError(
                f"relation {name!r} has arity {arity} in the source but {have} in the target"
            )


class _HomSearch:
    """Reusable backtracking context for homomorphisms src -> dst.

    Building the context indexes the instance once; ``solutions`` can then
    be called many times with different pinned variables (this is what makes
    brute-force answer counting tolerable). Arc consistency, when enabled,
    is established once at the root.
    """

    def __init__(self, src: RelationalStructure, dst: RelationalStructure,
                 cfg: HomSearchConfig = DEFAULT_CONFIG):
        check_vocabulary(src, dst)
        self.src = src
        self.dst = dst
        self.cfg = cfg
        self.src_domain = set(src.domain)
        self.dst_domain = set(dst.domain)
        self.dst_rel = {name: dst.tuples(name) for name in src.vocabulary.symbols}
        self.constraints = [
            (name, t)
            for name, ts in sorted(src.relations.items())
            for t in sorted(ts)
            if t
        ]
        # A 0-ary source tuple is a bare truth requirement on the target.
        self.feasible = all(
            () in self.dst_rel[name]
            for name, ts in src.relations.items()
            if () in ts
        )
        values = sorted(dst.domain)
        base = {v: list(values) for v in src.domain}
        for name, ts in src.relations.items():
            if src.vocabulary.arity(name) != 1:
                continue
            allowed = {t[0] for t in self.dst_rel[name]}
            for t in ts:
                base[t[0]] = [b for b in base[t[0]] if b in allowed]
        # Variable -> indices of the constraints it occurs in.
        self.watch = {v: [] for v in src.domain}
        for ci, (_, t) in enumerate(self.constraints):
            for v in set(t):
                self.watch[v].append(ci)
        if self.feasible and cfg.use_arc_consistency:
            self.feasible = self._propagate(base, range(len(self.constraints)))
        self._settle(base)

    def _settle(self, base: dict) -> None:
        # Fix the domains; the first search plans its variable order.
        self.base = base
        self.base_sets = {v: set(dom) for v, dom in base.items()}
        self.triggers: Optional[List[list]] = None

    def _plan(self) -> None:
        base = self.base
        self.order = sorted(base, key=lambda v: (len(base[v]), v))
        pos = {v: i for i, v in enumerate(self.order)}
        # Each constraint is checked as soon as its last variable is set.
        self.triggers = [[] for _ in self.order]
        for name, t in self.constraints:
            last = max(pos[v] for v in t)
            self.triggers[last].append((self.dst_rel[name], t))

    def avoiding(self, value: str) -> _HomSearch:
        """This search with ``value`` removed from every domain.

        The result searches the homomorphisms whose image misses ``value``.
        Arc consistency restarts from the constraints on the variables that
        lost ``value``; since the current domains are already consistent,
        this reaches the same fixpoint as a search built from scratch into
        the target minus ``value``, and so the same variable order.
        """
        view = object.__new__(_HomSearch)  # shares the instance's index
        view.__dict__.update(self.__dict__)
        dom = dict(self.base)
        changed = [v for v, d in self.base_sets.items() if value in d]
        for v in changed:
            dom[v] = [b for b in dom[v] if b != value]
            if not dom[v]:
                view.feasible = False
        if view.feasible and self.cfg.use_arc_consistency:
            view.feasible = view._propagate(
                dom, sorted({ci for v in changed for ci in self.watch[v]}))
        if view.feasible:
            # An infeasible view yields nothing and never reads its domains.
            view._settle(dom)
        return view

    def _propagate(self, dom: dict, start: Iterable[int]) -> bool:
        # Generalized arc consistency: shrink each domain to supported
        # values, re-queueing the constraints on each shrunk variable.
        queue = deque(start)
        queued = set(queue)
        while queue:
            ci = queue.popleft()
            queued.discard(ci)
            name, t = self.constraints[ci]
            # The target rows that fit the domains and repeat a value
            # wherever the constraint repeats a variable.
            rows = self.dst_rel[name]
            first = {}
            for i, v in enumerate(t):
                if v in first:
                    j = first[v]
                    rows = [row for row in rows if row[i] == row[j]]
                else:
                    first[v] = i
                    allowed = set(dom[v])
                    rows = [row for row in rows if row[i] in allowed]
            shrunk = []
            for v, i in first.items():
                supported = {row[i] for row in rows}
                new = [b for b in dom[v] if b in supported]
                if len(new) != len(dom[v]):
                    if not new:
                        return False
                    dom[v] = new
                    shrunk.append(v)
            for v in shrunk:
                for cj in self.watch[v]:
                    if cj != ci and cj not in queued:
                        queue.append(cj)
                        queued.add(cj)
        return True

    def solutions(self, pins: Optional[Mapping[str, str]] = None,
                  injective: bool = False) -> Iterator[Assignment]:
        """Yield all homomorphisms extending ``pins``, canonically ordered."""
        pins = dict(pins or {})
        bad_keys = sorted(set(pins) - self.src_domain)
        if bad_keys:
            raise InputError(f"pinned variables {bad_keys!r} are not in the source domain")
        bad_vals = sorted(set(pins.values()) - self.dst_domain)
        if bad_vals:
            raise InputError(f"pinned values {bad_vals!r} are not in the target domain")
        if not self.feasible:
            return
        if self.triggers is None:
            self._plan()
        doms = []
        for v in self.order:
            if v in pins:
                if pins[v] not in self.base_sets[v]:
                    return
                doms.append((pins[v],))
            else:
                doms.append(tuple(self.base[v]))
        order = self.order
        triggers = self.triggers
        n = len(order)
        budget = self.cfg.node_budget
        assign: Assignment = {}
        used = set()
        nodes = 0

        def extend(i: int) -> Iterator[Assignment]:
            nonlocal nodes
            if i == n:
                yield dict(assign)
                return
            v = order[i]
            for b in doms[i]:
                if injective and b in used:
                    continue
                nodes += 1
                if nodes > budget:
                    raise ResourceBudgetError(
                        f"homomorphism search exceeded {budget} nodes"
                    )
                assign[v] = b
                ok = True
                for rel, t in triggers[i]:
                    if tuple(assign[e] for e in t) not in rel:
                        ok = False
                        break
                if ok:
                    if injective:
                        used.add(b)
                        yield from extend(i + 1)
                        used.discard(b)
                    else:
                        yield from extend(i + 1)
            assign.pop(v, None)

        try:
            yield from extend(0)
        except RecursionError:
            raise ResourceBudgetError(
                f"homomorphism search depth {n} (one level per variable) "
                f"runs past Python's recursion limit {sys.getrecursionlimit()}"
            ) from None


def find_extension(src: RelationalStructure, dst: RelationalStructure,
                   partial: Optional[Mapping[str, str]] = None,
                   cfg: HomSearchConfig = DEFAULT_CONFIG) -> Optional[Assignment]:
    """A total homomorphism src -> dst extending ``partial``, or None.

    Deterministic: the canonically first solution is returned.
    """
    return next(_HomSearch(src, dst, cfg).solutions(partial), None)


def hom_exists(src: RelationalStructure, dst: RelationalStructure,
               cfg: HomSearchConfig = DEFAULT_CONFIG) -> bool:
    return find_extension(src, dst, cfg=cfg) is not None


def hom_equivalent(a: RelationalStructure, b: RelationalStructure,
                   cfg: HomSearchConfig = DEFAULT_CONFIG) -> bool:
    return hom_exists(a, b, cfg) and hom_exists(b, a, cfg)


def is_homomorphism(src: RelationalStructure, dst: RelationalStructure,
                    mapping: Mapping[str, str]) -> bool:
    """Tuple-by-tuple check, independent of the search machinery."""
    if set(mapping) != set(src.domain):
        return False
    if not set(mapping.values()) <= set(dst.domain):
        return False
    for name, ts in src.relations.items():
        target = dst.tuples(name)
        for t in ts:
            if tuple(mapping[e] for e in t) not in target:
                return False
    return True


def iter_homomorphisms(src: RelationalStructure, dst: RelationalStructure,
                       cfg: HomSearchConfig = DEFAULT_CONFIG,
                       partial: Optional[Mapping[str, str]] = None,
                       injective: bool = False) -> Iterator[Assignment]:
    """All homomorphisms src -> dst (optionally injective), canonical order."""
    yield from _HomSearch(src, dst, cfg).solutions(partial, injective=injective)


def _answer_iter(q: ConjunctiveQuery, dst: RelationalStructure,
                 cfg: HomSearchConfig) -> Iterator[tuple]:
    free = q.free_vars
    total = len(dst.domain) ** len(free)
    if total > cfg.enumeration_cap:
        raise ResourceBudgetError(
            f"{len(dst.domain)}^{len(free)} candidate assignments exceed the "
            f"enumeration cap {cfg.enumeration_cap}"
        )
    search = _HomSearch(q.structure, dst, cfg)
    values = sorted(dst.domain)
    for combo in product(values, repeat=len(free)):
        pins = dict(zip(free, combo))
        if next(search.solutions(pins), None) is not None:
            yield combo


def count_answers_brute(q: ConjunctiveQuery, dst: RelationalStructure,
                        cfg: HomSearchConfig = DEFAULT_CONFIG) -> int:
    """|hom(A, B, S)| by enumerating all maps S -> B and testing extension.

    This is the testing oracle for the whole repository.
    """
    return sum(1 for _ in _answer_iter(q, dst, cfg))


def enumerate_answers(q: ConjunctiveQuery, dst: RelationalStructure,
                      cfg: HomSearchConfig = DEFAULT_CONFIG) -> List[tuple]:
    """The answer set itself: value tuples in free-variable order, sorted."""
    return list(_answer_iter(q, dst, cfg))


def automorphisms(a: RelationalStructure,
                  cfg: HomSearchConfig = DEFAULT_CONFIG) -> List[Assignment]:
    """All automorphisms of ``a``.

    An injective endomorphism of a finite structure maps each relation onto
    itself, so searching injective homomorphisms a -> a is enough.
    """
    return list(iter_homomorphisms(a, a, cfg, injective=True))


def free_automorphism_set(q: ConjunctiveQuery,
                          cfg: HomSearchConfig = DEFAULT_CONFIG) -> List[Assignment]:
    """The maps S -> S extendable to an automorphism of the query structure.

    Automorphisms that move a free variable outside the free set are
    discarded: the restrictions kept here permute S and form a group.
    """
    free = set(q.free_vars)
    seen = {}
    for h in automorphisms(q.structure, cfg):
        key = tuple(h[v] for v in q.free_vars)
        if set(key) <= free:
            seen.setdefault(key, {v: h[v] for v in q.free_vars})
    return [seen[k] for k in sorted(seen)]


def are_isomorphic(a: RelationalStructure, b: RelationalStructure,
                   cfg: HomSearchConfig = DEFAULT_CONFIG) -> bool:
    """Isomorphism by search: equal profiles plus a bijective homomorphism.

    With per-symbol tuple counts equal, a bijective homomorphism maps each
    relation onto its counterpart, so its inverse is automatically a
    homomorphism too.
    """
    if len(a.domain) != len(b.domain):
        return False
    if dict(a.vocabulary.symbols) != dict(b.vocabulary.symbols):
        return False
    if any(len(a.tuples(n)) != len(b.tuples(n)) for n in a.vocabulary.symbols):
        return False
    return next(iter_homomorphisms(a, b, cfg, injective=True), None) is not None
