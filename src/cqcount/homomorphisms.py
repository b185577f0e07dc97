"""Homomorphism search, enumeration, and brute-force answer counting.

The backtracking solver here is deliberately straightforward: it is the
oracle the structural counting pipeline is verified against, so clarity and
exactness win over cleverness. Each atom becomes one constraint over its
distinct variables, and domains are pruned to generalized arc
consistency once per search. Pinned variables are set first, all at once,
and the constraints among them checked in one pass; the others follow in
a static order (smallest domain first), values in sorted order, so every
result is deterministic. In a pinned search each later variable draws its
values from a support index of one constraint over variables already set.
Brute-force answer counting plans once and pins each tuple of the free
variables' arc-consistent domains in turn. Counts use Python integers and
are never approximated; running out of budget raises, it does not round.

A search is built from bare atom lists and tuple sets; ``_search`` builds
one for two structures after checking their vocabularies.
"""

from __future__ import annotations

import reprlib
import sys
from collections import deque
from dataclasses import dataclass
from itertools import product
from operator import itemgetter
from typing import Collection, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .errors import InputError, ResourceBudgetError, _check_int
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
    scope = tuple(dict.fromkeys(t))
    if len(scope) == len(t):
        return scope, table
    first = {v: t.index(v) for v in scope}
    rows = table
    for i, v in enumerate(t):
        if first[v] != i:
            rows = [row for row in rows if row[i] == row[first[v]]]
    keep = list(first.values())
    return scope, {tuple([row[i] for i in keep]): 1 for row in rows}


class _Plan(NamedTuple):
    """How a search sets its variables, for one tuple of pinned variables.

    ``pinned`` are set first, and ``pin_checks`` holds the constraints
    among them; the caller keeps each pin inside its domain. Each later
    variable has one step ``(variable, candidates, key, triggers)``: its
    sorted domain, or a support index that ``key`` looks up in the
    assignment, and the constraints whose last variable it is. A check is a
    ``(rows, scope)`` pair.
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
    starts with the sorted target domain or its ``start`` entry; one
    starting value acts as a singleton unary relation pinning it there.

    Building the context indexes the instance once; ``solutions`` can then
    be called many times with different pinned variables (this is what makes
    brute-force answer counting tolerable). Generalized arc consistency
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
                 start: Optional[Mapping[str, Sequence[str]]] = None,
                 cfg: HomSearchConfig = DEFAULT_CONFIG):
        self.cfg = cfg
        self.src_domain = src_domain
        self.dst_domain = dst_domain
        values = sorted(dst_domain)
        start = start or {}
        self.base = {v: list(start.get(v, values)) for v in src_domain}
        # An empty target leaves no value for any source variable.
        self.feasible = bool(values) or not self.base
        self.constraints = []
        # Variable -> indices of the constraints it occurs in.
        self.watch = {v: [] for v in src_domain}
        for name, t in atoms:
            if not t:
                # A 0-ary source tuple is a bare truth requirement on the target.
                self.feasible = self.feasible and () in relations[name]
                continue
            constraint = _atom_factor(t, relations[name])
            for v in constraint[0]:
                self.watch[v].append(len(self.constraints))
            self.constraints.append(constraint)
        if self.feasible:
            self.feasible = self._propagate(self.base, range(len(self.constraints)))

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
        changed = [v for v, d in dom.items() if value in d]
        for v in changed:
            dom[v] = [b for b in dom[v] if b != value]
            if not dom[v]:
                view.feasible = False
        if view.feasible:
            view.feasible = view._propagate(
                dom, sorted({ci for v in changed for ci in self.watch[v]}))
        return view

    def _propagate(self, dom: dict, start: Iterable[int]) -> bool:
        # Generalized arc consistency: shrink each domain to supported
        # values, re-queueing the constraints on each shrunk variable.
        queue = deque(start)
        queued = set(queue)
        while queue:
            ci = queue.popleft()
            queued.discard(ci)
            scope, rows = self.constraints[ci]
            for i, v in enumerate(scope):
                allowed = set(dom[v])
                rows = [row for row in rows if row[i] in allowed]
            shrunk = []
            for i, v in enumerate(scope):
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

    def _plan(self, pinned: Tuple[str, ...]) -> _Plan:
        base = self.base
        rest = sorted(base, key=lambda v: (len(base[v]), v))
        if pinned:
            pinned_set = set(pinned)
            rest = [v for v in rest if v not in pinned_set]
        pos = {v: i for i, v in enumerate((*pinned, *rest))}
        # Each constraint is checked as soon as its last variable is set.
        triggers = [[] for _ in pos]
        for scope, rows in self.constraints:
            triggers[max(pos[v] for v in scope)].append((rows, scope))
        steps = []
        for i, v in enumerate(rest, len(pinned)):
            candidates, key = base[v], None
            if pinned:
                # The constraint on v covering the most variables set before it.
                ci, before = max(
                    ((ci, {u for u in self.constraints[ci][0] if pos[u] < i})
                     for ci in self.watch[v]),
                    key=lambda c: len(c[1]), default=(None, ()))
                if before:
                    candidates, key = self._support_index(ci, v, sorted(before))
            steps.append((v, candidates, key, triggers[i]))
        return _Plan(pinned, [c for cs in triggers[:len(pinned)] for c in cs], steps)

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

    def solutions(self, pins: Optional[Mapping[str, str]] = None,
                  injective: bool = False) -> Iterator[Assignment]:
        """All homomorphisms extending ``pins``, canonically ordered.

        The order is lexicographic in the values of the unpinned variables,
        taken smallest domain first, then by name. A pin outside its
        variable's domain has no solutions. Pins map strings to strings
        (InputError otherwise).
        """
        pins = dict(pins or {})
        if pins:
            if not all(isinstance(x, str) for x in (*pins, *pins.values())):
                raise InputError("pinned variables and values must be strings")
            bad_keys = sorted(set(pins).difference(self.src_domain))
            if bad_keys:
                raise InputError(f"pinned variables {bad_keys!r} are not in the source domain")
            bad_vals = sorted(set(pins.values()).difference(self.dst_domain))
            if bad_vals:
                raise InputError(f"pinned values {bad_vals!r} are not in the target domain")
        if not self.feasible or any(b not in self.base[v] for v, b in pins.items()):
            return iter(())
        pinned = tuple(sorted(pins))
        return self._run(self._plan(pinned), tuple([pins[v] for v in pinned]), injective)

    def _run(self, plan: _Plan, pins: tuple,
             injective: bool = False) -> Iterator[Assignment]:
        """The homomorphisms that give ``plan.pinned`` the values ``pins``.

        Nothing is checked here: the search must be feasible and each pin
        must lie in its variable's domain.
        """
        assign: Assignment = dict(zip(plan.pinned, pins))
        for rows, scope in plan.pin_checks:
            if tuple(assign[e] for e in scope) not in rows:
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
                for rows, scope in triggers:
                    if tuple(assign[e] for e in scope) not in rows:
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
    """The search for homomorphisms src -> dst, vocabularies checked first."""
    check_vocabulary(src, dst)
    return _HomSearch(src.atoms(), src.domain, dst.relations, dst.domain, cfg=cfg)


def find_extension(src: RelationalStructure, dst: RelationalStructure,
                   partial: Optional[Mapping[str, str]] = None,
                   cfg: HomSearchConfig = DEFAULT_CONFIG) -> Optional[Assignment]:
    """A total homomorphism src -> dst extending ``partial``, or None.

    Deterministic: the canonically first solution is returned.
    """
    return next(_search(src, dst, cfg).solutions(partial), None)


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
    yield from _search(src, dst, cfg).solutions(partial, injective=injective)


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
    _check_candidates(len(dst.domain), len(q.free_vars), cfg)
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
