"""Independent answer counters that check the library's counts.

Nothing here calls into ``cqcount``: instances are read through their plain
attributes (``relations``, ``domain``, ``free_vars``), so a bug in the
library cannot hide by agreeing with itself. Each oracle covers one family
of benchmark instances and is cheap next to the count it checks.
"""

from __future__ import annotations

from itertools import product
from math import factorial


def join_count(query, db) -> int:
    """Distinct free-variable tuples of all matches, by a sparse join.

    Atoms that share no variable are joined separately, since the answer set
    is the product of what each part allows; a part without free variables
    only has to match once. Within a part, atoms are joined one at a time,
    each next atom chosen to share a bound variable where possible, and only
    tuples of the target relation that agree with the binding are tried.
    Cost follows the number of partial matches, so it suits sparse targets
    and small queries. Variables in no atom range over the whole domain.
    """
    atoms = sorted((name, t) for name, ts in query.structure.relations.items() for t in ts)
    if any(not t and () not in db.relations.get(name, ()) for name, t in atoms):
        return 0
    parts = []
    for atom in (a for a in atoms if a[1]):
        joined = [p for p in parts if any(set(t) & set(atom[1]) for _, t in p)]
        parts = [p for p in parts if p not in joined] + [sum(joined, []) + [atom]]
    bound = {v for _, t in atoms for v in t}
    total = len(db.domain) ** sum(1 for v in query.free_vars if v not in bound)
    for part in parts:
        variables = {v for _, t in part for v in t}
        free = [v for v in query.free_vars if v in variables]
        total *= len(_part_answers(part, free, db))
        if not total:
            return 0
    return total


def _part_answers(atoms, free, db):
    """Distinct ``free`` tuples over all matches of connected atoms; one match if none are free."""
    ordered, bound = [], set()
    atoms = list(atoms)
    while atoms:
        best = max(range(len(atoms)), key=lambda i: (len(set(atoms[i][1]) & bound), -i))
        name, t = atoms.pop(best)
        ordered.append((name, t))
        bound |= set(t)
    index = {}
    for name, t in ordered:
        for pos in range(len(t)):
            if (name, pos) not in index:
                table = {}
                for row in db.relations.get(name, ()):
                    table.setdefault(row[pos], []).append(row)
                index[(name, pos)] = table
    answers = set()
    binding = {}

    def extend(i):
        if i == len(ordered):
            answers.add(tuple(binding[v] for v in free))
            return not free
        name, t = ordered[i]
        at = next((p for p, v in enumerate(t) if v in binding), None)
        rows = db.relations.get(name, ()) if at is None else index[(name, at)].get(binding[t[at]], ())
        for row in rows:
            added, done = [], False
            for v, b in zip(t, row):
                have = binding.get(v)
                if have is None:
                    binding[v] = b
                    added.append(v)
                elif have != b:
                    break
            else:
                done = extend(i + 1)
            for v in added:
                del binding[v]
            if done:
                return True
        return False

    extend(0)
    return answers


def _adjacency(db):
    out = {v: [] for v in db.domain}
    for u, v in db.relations["E"]:
        out[u].append(v)
    return out


def walk_count(db, length: int) -> int:
    """Homomorphisms of the directed path with ``length`` arcs: 1ᵀ A^L 1."""
    out = _adjacency(db)
    ways = {v: 1 for v in db.domain}
    for _ in range(length):
        ways = {u: sum(ways[v] for v in out[u]) for u in db.domain}
    return sum(ways.values())


def closed_walk_count(db, length: int) -> int:
    """Homomorphisms of the directed cycle with ``length`` arcs: trace(A^L)."""
    out = _adjacency(db)
    total = 0
    for start in db.domain:
        ways = {start: 1}
        for _ in range(length):
            nxt = {}
            for u, w in ways.items():
                for v in out[u]:
                    nxt[v] = nxt.get(v, 0) + w
            ways = nxt
        total += ways.get(start, 0)
    return total


def grid_count(db, rows: int, cols: int) -> int:
    """Homomorphisms of the rows x cols grid (arcs point right and down).

    Row-transfer: a state is the assignment of one grid row, which must be
    a walk in the target; the next row is built cell by cell from
    out-neighbours of the cell above. Transposing the grid keeps every arc
    pointing from a lower to a higher index, so the narrow side is the row.
    """
    width, height = min(rows, cols), max(rows, cols)
    out = _adjacency(db)
    arcs = set(db.relations["E"])
    states = {}
    for start in db.domain:
        partial = [(start,)]
        for _ in range(width - 1):
            partial = [p + (v,) for p in partial for v in out[p[-1]]]
        for p in partial:
            states[p] = 1
    for _ in range(height - 1):
        nxt = {}
        for above, ways in states.items():
            partial = [()]
            for i, top in enumerate(above):
                partial = [
                    p + (v,) for p in partial for v in out[top]
                    if i == 0 or (p[-1], v) in arcs
                ]
            for p in partial:
                nxt[p] = nxt.get(p, 0) + ways
        states = nxt
    return sum(states.values())


def path_into_clique_count(length: int, k: int) -> int:
    """Walks with ``length`` arcs in the loopless complete digraph K_k."""
    return k * (k - 1) ** length


def clique_count(k: int, db) -> int:
    """Homomorphisms of the all-free loopless k-clique query into ``db``.

    Only how many variables land on each target value matters: values used
    at least twice need a loop, and every two used values need arcs both
    ways. Sum the multinomial coefficients of the admissible splits.
    """
    values = sorted(db.domain)
    arcs = set(db.relations["E"])
    total = 0
    for split in product(range(k + 1), repeat=len(values)):
        if sum(split) != k:
            continue
        used = [v for v, m in zip(values, split) if m]
        if any(m > 1 and (v, v) not in arcs for v, m in zip(values, split)):
            continue
        if any((a, b) not in arcs for a in used for b in used if a != b):
            continue
        ways = factorial(k)
        for m in split:
            ways //= factorial(m)
        total += ways
    return total


def star_projection_count(db, leaves: int) -> int:
    """Answers of the quantified star: |⋃_c N⁺(c)^leaves|."""
    out = _adjacency(db)
    answers = set()
    for c in db.domain:
        answers.update(product(sorted(set(out[c])), repeat=leaves))
    return len(answers)
