"""Homomorphism search, enumeration, and brute-force answer counting.

The backtracking solver here is deliberately straightforward: it is the
oracle the structural counting pipeline is verified against, so clarity and
exactness win over cleverness. Each atom becomes one constraint over its
distinct variables, and domains are pruned to generalized arc
consistency once per search. A unary constraint is revised once, before
the others, since shrinking domains keep it satisfied. A revision of a
wider constraint keeps the rows inside the current domains, testing only
the positions whose domain is no longer the whole target, and reads every
position's supported values off the kept rows in one pass; only a domain
that shrinks is rebuilt, from its sorted list. Sets of supported values
are only tested, never iterated, so the string hash seed reaches no domain
or order. Variables share one sorted list of the target's values until a
revision shrinks theirs. Pinned variables are set first, all at once,
and the constraints among them checked together; the others follow in
a static order (smallest domain first), values in sorted order, so every
result is deterministic. In a pinned search each later variable draws its
values from a support index of one constraint over variables already set.
Every check has one form, compiled once per plan: a constraint of two
or more variables becomes its rows and an ``operator.itemgetter`` over its
scope, so the pins or a node test it with one call and one set lookup. A
constraint of one variable is never checked, since the root revision
already keeps the variable's domain inside it and every value, pinned or
tried, is drawn from that domain.
Brute-force answer counting plans once and pins each tuple of the free
variables' arc-consistent domains in turn. Counts use Python integers and
are never approximated; running out of budget raises, it does not round.

Existence needs no search when the source's atoms are Berge-acyclic, that
is, when the graph joining each atom to its distinct variables is a
forest: on such an instance generalized arc consistency alone decides
whether a solution exists (Freuder, JACM 1982), so ``hom_exists`` and a
count's Boolean components answer from ``feasible``.

A search is built from bare atom lists and tuple sets; ``_search`` builds
one for two structures after checking their types and vocabularies.
"""

from __future__ import annotations

import reprlib
import sys
from collections import abc
from dataclasses import dataclass
from itertools import product
from operator import itemgetter
from typing import Collection, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .errors import InputError, ResourceBudgetError, _check_int, _hashable_items, _require
from .structures import Assignment, ConjunctiveQuery, RelationalStructure


@dataclass(frozen=True)
class HomSearchConfig:
    """Budgets for the search routines.

    ``node_budget`` caps backtracking nodes per search call, where a node
    is one set of pins or one candidate value tried; brute-force counting
    makes one search call per candidate tuple of free values.
    ``enumeration_cap`` bounds how many candidate assignments brute-force
    counting and each component projection in ``contract_instance`` may
    walk, and how many rows a component join in ``lift_to_hypergraph`` may
    build. Exceeding a budget raises ResourceBudgetError.
    """

    node_budget: int = 10_000_000
    enumeration_cap: int = 10_000_000

    def __post_init__(self) -> None:
        _check_int("node_budget", self.node_budget, 1)
        _check_int("enumeration_cap", self.enumeration_cap, 1)


DEFAULT_CONFIG = HomSearchConfig()


def check_vocabulary(src: RelationalStructure, dst: RelationalStructure) -> None:
    """Require every source symbol in the target, with matching arity.

    Extra target symbols are fine: the source behaves as if it had empty
    relations for them.
    """
    for name, arity in src.vocabulary.symbols.items():
        have = dst.vocabulary.symbols.get(name)
        if have is None:
            raise InputError(f"target structure lacks relation {reprlib.repr(name)}")
        if have != arity:
            raise InputError(
                f"relation {reprlib.repr(name)} has arity {arity} in the source but {have} in the target"
            )


def _atom_factor(t: tuple, table: Collection[tuple]) -> Tuple[tuple, Collection[tuple]]:
    """One atom's factor: its distinct variables and the rows of ``table`` it matches.

    ``table`` is the relation's tuple set (a search constraint) or a dict
    mapping each row to 1 (a Σ table). An atom with distinct variables keeps
    it as is, shared; otherwise a new dict maps to 1 each row that agrees on
    a repeated variable's positions, projected onto the first occurrences.
    """
    if len(set(t)) == len(t):
        return t, table
    scope = tuple(dict.fromkeys(t))
    keep = [t.index(v) for v in scope]
    rows = table
    for i, v in enumerate(t):
        j = t.index(v)
        if j != i:
            rows = [row for row in rows if row[i] == row[j]]
    if len(keep) == 1:
        i = keep[0]
        return scope, dict.fromkeys([(row[i],) for row in rows], 1)
    return scope, dict.fromkeys(map(itemgetter(*keep), rows), 1)


def _compile(checks: List[tuple]) -> List[tuple]:
    """``(rows, scope)`` checks as ``(rows, getter)`` pairs, for the pins or one step.

    ``getter(assign)`` is the tuple of the scope's values. A check on one
    variable is left out: the root revision keeps each domain inside its
    variable's one-variable constraints, and every pin and candidate is
    drawn from the domain.
    """
    return [(rows, itemgetter(*scope)) for rows, scope in checks if len(scope) > 1]


class _Plan(NamedTuple):
    """How a search sets its variables, for one tuple of pinned variables.

    ``pinned`` are set first, and ``pin_checks`` holds the constraints of
    two or more variables among them; the caller keeps each pin inside its
    domain. Each later variable has one step ``(variable, candidates, key,
    triggers)``: its sorted domain, or a support index that ``key`` looks
    up in the assignment, and the constraints whose last variable it is.
    Pin checks and a step's checks alike are ``(rows, getter)`` pairs from
    ``_compile``.
    """

    pinned: Tuple[str, ...]
    pin_checks: List[tuple]
    steps: List[tuple]


class _HomSearch:
    """Reusable backtracking context for homomorphisms src -> dst.

    ``atoms`` are the source's sorted (relation, tuple) pairs, 0-ary ones
    included, and ``relations`` maps their relations to the target's tuple
    sets. Each atom with variables becomes one constraint: its factor
    ``(scope, rows)`` from ``_atom_factor``, as in Σ-elimination, which
    keeps the target's tuple set unless the atom repeats a variable. A variable
    starts with the sorted target domain, a list all such variables share,
    or its ``start`` entry; one starting value acts as a singleton unary
    relation pinning it there. No domain list is changed in place.

    Building the context indexes the instance once; ``_answers`` then runs
    one plan many times with different values of the pinned variables (this
    is what makes brute-force answer counting tolerable), and ``solutions``
    is the one unpinned run. Generalized arc consistency
    over every constraint, unary ones included, is established once at the
    root, and ``base`` holds the sorted domains it leaves; ``feasible`` is
    False exactly when it empties a domain or a 0-ary atom fails in the
    target.

    A search plans its variables per call, and brute-force answer counting
    plans once per count. The pinned variables come first and are set and
    checked together; the others follow, smallest domain first, then by
    name. Without pins every variable tries its whole domain. With
    pins, a later variable takes its candidates from a support index of the
    constraint that covers the most variables already set: the values its
    rows allow the variable, given theirs, restricted to its domain.
    """

    def __init__(self, atoms: Sequence[Tuple[str, tuple]], src_domain: Sequence[str],
                 relations: Mapping[str, frozenset], dst_domain: Sequence[str],
                 start: Optional[Mapping[str, list]] = None,
                 cfg: HomSearchConfig = DEFAULT_CONFIG):
        self.cfg = cfg
        # Variables share one sorted value list until a revision shrinks it.
        self.values = values = sorted(dst_domain)
        if start:
            self.base = base = {v: start.get(v, values) for v in src_domain}
        else:
            self.base = base = dict.fromkeys(src_domain, values)
        # An empty target leaves no value for any source variable.
        feasible = bool(values) or not base
        self.constraints = constraints = []
        # Variable -> indices of the constraints of two or more variables it occurs in.
        self.watch = watch = {v: [] for v in src_domain}
        unary, wider = [], []
        for name, t in atoms:
            if not t:
                # A 0-ary source tuple is a bare truth requirement on the target.
                feasible = feasible and () in relations[name]
                continue
            constraint = _atom_factor(t, relations[name])
            ci = len(constraints)
            constraints.append(constraint)
            if len(constraint[0]) == 1:
                unary.append(constraint)
            else:
                wider.append(ci)
                for v in constraint[0]:
                    watch[v].append(ci)
        # A unary constraint is revised once, first: shrinking domains keep it satisfied.
        for (v,), rows in unary:
            d = base[v]
            new = [b for b in d if (b,) in rows]
            if len(new) != len(d):
                base[v] = new
                feasible = feasible and bool(new)
        self.feasible = feasible and self._propagate(base, wider)

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
        view.base = dom = dict(self.base)
        start = set()
        for v, d in dom.items():
            if value in d:
                dom[v] = [b for b in d if b != value]
                start.update(self.watch[v])
        view.feasible = self.feasible and all(dom.values()) and view._propagate(dom, sorted(start))
        return view

    def _propagate(self, dom: dict, start: Iterable[int]) -> bool:
        # Generalized arc consistency. Each revision keeps the rows inside the
        # current domains (a domain that is still the whole target needs no
        # test), reads each position's supported values off them in one pass,
        # and rebuilds and re-queues only the domains that shrink.
        values, constraints, watch = self.values, self.constraints, self.watch
        queue = list(start)
        queued = set(queue)
        for ci in queue:  # the loop also reaches the constraints queued on the way
            queued.discard(ci)
            scope, rows = constraints[ci]
            doms = [dom[v] for v in scope]
            kept = rows
            for i, d in enumerate(doms):
                if d is not values:
                    allowed = set(d)
                    kept = [row for row in kept if row[i] in allowed]
            if not kept:
                return False
            # Kept rows lie inside the domains: a domain shrinks iff fewer
            # of its values are supported than it holds.
            for v, d, column in zip(scope, doms, zip(*kept)):
                supported = set(column)
                if len(supported) != len(d):
                    dom[v] = [b for b in d if b in supported]
                    for cj in watch[v]:
                        if cj != ci and cj not in queued:
                            queue.append(cj)
                            queued.add(cj)
        return True

    def _plan(self, pinned: Tuple[str, ...]) -> _Plan:
        base, constraints = self.base, self.constraints
        rest = sorted(base, key=lambda v: (len(base[v]), v))
        if pinned:
            rest = [v for v in rest if v not in pinned]
        order = [*pinned, *rest]
        pos = dict(zip(order, range(len(order))))
        # Each constraint is checked as soon as its last variable is set.
        triggers = [[] for _ in order]
        at = pos.__getitem__
        for scope, rows in constraints:
            triggers[max(map(at, scope))].append((rows, scope))
        if not pinned:
            return _Plan((), [], [(v, base[v], None, _compile(triggers[i])) for i, v in enumerate(rest)])
        steps = []
        for i, v in enumerate(rest, len(pinned)):
            candidates, key = base[v], None
            # The first constraint on v covering the most variables set before it.
            best, before = None, []
            for ci in self.watch[v]:
                earlier = [u for u in constraints[ci][0] if pos[u] < i]
                if len(earlier) > len(before):
                    best, before = ci, earlier
            if before:
                candidates, key = self._support_index(best, v, sorted(before))
            steps.append((v, candidates, key, _compile(triggers[i])))
        return _Plan(pinned, _compile([c for cs in triggers[:len(pinned)] for c in cs]), steps)

    def _support_index(self, ci: int, v: str, before: List[str]):
        """The values constraint ``ci`` allows ``v`` given those of ``before``.

        Returns the index, which maps the values of ``before`` to the sorted
        values of ``v`` in its domain that some fitting row holds, and the
        key that reads the values of ``before`` from an assignment. A key
        over one variable is the bare value.
        """
        scope, rows = self.constraints[ci]
        at = scope.index(v)
        allowed = set(self.base[v])
        row_key = itemgetter(*[scope.index(u) for u in before])
        index = {}
        for row in rows:
            if row[at] in allowed:
                index.setdefault(row_key(row), set()).add(row[at])
        index = {key: sorted(vs) for key, vs in index.items()}
        return index, itemgetter(*before)

    def solutions(self, injective: bool = False) -> Iterator[Assignment]:
        """All homomorphisms, only the injective ones if asked, canonically ordered.

        The order is lexicographic in the variables' values, taken smallest
        domain first, then by name.
        """
        if not self.feasible:
            return iter(())
        return self._run(self._plan(()), (), injective)

    def _run(self, plan: _Plan, pins: tuple,
             injective: bool = False) -> Iterator[Assignment]:
        """The homomorphisms that give ``plan.pinned`` the values ``pins``.

        Nothing is checked here: the search must be feasible and each pin
        must lie in its variable's domain. Each pin check is one getter call
        and one set lookup, as a step's check is.
        """
        assign: Assignment = dict(zip(plan.pinned, pins))
        for rows, get in plan.pin_checks:
            if get(assign) not in rows:
                return
        used = set(pins) if injective else None
        if injective and len(used) != len(pins):
            return
        steps = plan.steps
        n = len(steps)
        budget = self.cfg.node_budget
        nodes = 1 if pins else 0

        def extend(i: int) -> Iterator[Assignment]:
            nonlocal nodes
            if i == n:
                yield dict(assign)
                return
            v, candidates, key, triggers = steps[i]
            if key is not None:
                candidates = candidates.get(key(assign), ())
            for b in candidates:
                if injective and b in used:
                    continue
                nodes += 1
                if nodes > budget:
                    raise ResourceBudgetError(
                        f"homomorphism search exceeded {budget} nodes"
                    )
                assign[v] = b
                ok = True
                for rows, get in triggers:
                    if get(assign) not in rows:
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
                f"homomorphism search depth {n} (one level per unpinned variable) "
                f"runs past Python's recursion limit {sys.getrecursionlimit()}"
            ) from None


def _search(src: RelationalStructure, dst: RelationalStructure,
            cfg: HomSearchConfig = DEFAULT_CONFIG) -> _HomSearch:
    """The search for homomorphisms src -> dst, argument types and vocabularies checked first."""
    check_vocabulary(_require(src, RelationalStructure), _require(dst, RelationalStructure))
    return _HomSearch(src.atoms(), src.domain, dst.relations, dst.domain,
                      cfg=_require(cfg, HomSearchConfig))


def _is_forest(atoms: Iterable[Tuple[str, tuple]]) -> bool:
    """True iff the incidence graph of ``atoms`` and their distinct variables is a forest.

    Such atoms are Berge-acyclic: no two share more than one variable, and
    no chain of atoms sharing variables closes into a cycle. One union-find
    pass adds the atoms in turn; an atom closes a cycle iff two of its
    distinct variables are already connected.
    """
    parent: dict = {}

    def find(v):
        root = v
        while root in parent:
            root = parent[root]
        while v != root:
            parent[v], v = root, parent[v]
        return root

    for _, t in atoms:
        roots = [find(v) for v in dict.fromkeys(t)]
        if len(set(roots)) != len(roots):
            return False
        for r in roots[1:]:
            parent[r] = roots[0]
    return True


def _exists(search: _HomSearch, atoms: Sequence[Tuple[str, tuple]]) -> bool:
    """Whether ``search``, built from ``atoms``, has a solution.

    Arc consistency alone decides Berge-acyclic atoms (``_is_forest``), so
    those build no plan and try no value; the others look for a first
    solution.
    """
    return search.feasible and (_is_forest(atoms) or next(search.solutions(), None) is not None)


def hom_exists(src: RelationalStructure, dst: RelationalStructure,
               cfg: HomSearchConfig = DEFAULT_CONFIG) -> bool:
    """Whether some homomorphism src -> dst exists; a Berge-acyclic ``src`` needs no search."""
    return _exists(_search(src, dst, cfg), src.atoms())


def is_homomorphism(src: RelationalStructure, dst: RelationalStructure,
                    mapping: Mapping[str, str]) -> bool:
    """Tuple-by-tuple check, independent of the search machinery."""
    if set(_require(mapping, abc.Mapping)) != set(_require(src, RelationalStructure).domain):
        return False
    values = _hashable_items(mapping.values(), "mapping values")
    if not set(values) <= set(_require(dst, RelationalStructure).domain):
        return False
    for name, ts in src.relations.items():
        target = dst.tuples(name)
        for t in ts:
            if tuple(mapping[e] for e in t) not in target:
                return False
    return True


def _check_candidates(size: int, free: int, cfg: HomSearchConfig) -> None:
    """ResourceBudgetError if ``size``^``free`` candidate tuples exceed the cap."""
    if size ** free > cfg.enumeration_cap:
        raise ResourceBudgetError(
            f"{size}^{free} candidate assignments exceed the "
            f"enumeration cap {cfg.enumeration_cap}"
        )


def _answer_iter(q: ConjunctiveQuery, dst: RelationalStructure,
                 cfg: HomSearchConfig) -> Iterator[tuple]:
    """The answers of ``q`` in ``dst``, sorted; the candidate count is checked first."""
    _check_candidates(len(_require(dst, RelationalStructure).domain),
                      len(_require(q, ConjunctiveQuery).free_vars), _require(cfg, HomSearchConfig))
    return _answers(_search(q.structure, dst, cfg), q.free_vars)


def _answers(search: _HomSearch, free: Tuple[str, ...]) -> Iterator[tuple]:
    """Each tuple of ``free``'s arc-consistent domains that extends to a solution, in order."""
    if not search.feasible:
        return
    plan = search._plan(free)
    run = search._run
    for combo in product(*[search.base[v] for v in free]):
        if next(run(plan, combo), None) is not None:
            yield combo


def count_answers_brute(q: ConjunctiveQuery, dst: RelationalStructure,
                        cfg: HomSearchConfig = DEFAULT_CONFIG) -> int:
    """|hom(A, B, S)| by testing each map of S into its arc-consistent domains for extension.

    This is the testing oracle for the whole repository. ``enumeration_cap``
    still bounds |D|^|free|, however far arc consistency prunes the domains.
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
    return list(_search(a, a, cfg).solutions(injective=True))


def free_automorphism_set(q: ConjunctiveQuery,
                          cfg: HomSearchConfig = DEFAULT_CONFIG) -> List[Assignment]:
    """The maps S -> S extendable to an automorphism of the query structure.

    Automorphisms that move a free variable outside the free set are
    discarded: the restrictions kept here permute S and form a group.
    """
    free = set(_require(q, ConjunctiveQuery).free_vars)
    seen = {}
    for h in automorphisms(q.structure, cfg):
        key = tuple(h[v] for v in q.free_vars)
        if set(key) <= free:
            seen.setdefault(key, {v: h[v] for v in q.free_vars})
    return [seen[k] for k in sorted(seen)]
