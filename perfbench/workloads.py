"""Seeded workloads: the operations one benchmark run cycles through.

A workload is a fixed cycle of instance slots (query family and target
size), expanded into a pool of operations in which every slot gets a fresh
random target drawn from the seed. Sizes are fixed per slot, so the cost
mix, and with it each latency percentile, is the same for every seed; only
the targets change. Heavy slots are spread through the cycle so that any
prefix of the pool has about the same mix as the whole.

Every count carries an independent oracle from ``oracles`` (or the
library's brute-force counter where that is cheap); operations no oracle
covers are not generated.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Tuple

import oracles

COUNT = "count"
CLASSIFY = "classify"
CLI = "cli"
PROBE = "probe"  # traced runs only: contract_instance on an over-cap star


@dataclass
class Op:
    """One timed call: a count, a classify, a CLI call or a traced-only probe.

    ``oracle`` computes the expected count (None for reduce-demo, which must
    print AGREE); it runs outside the timed region, once per operation.
    """

    kind: str
    label: str
    query: object = None
    db: object = None
    argv: Tuple[str, ...] = ()
    oracle: Optional[Callable[[], int]] = None
    _expected: Optional[int] = field(default=None, repr=False)

    def expected(self) -> int:
        if self._expected is None:
            self._expected = self.oracle()
        return self._expected


def digraph(lib, rng, n):
    """A random digraph on n vertices with 3n distinct arcs (fewer if n < 3).

    Arcs come from random permutations, so in- and out-degrees are all close
    to 3. Uniformly drawn arcs would leave a random number of
    vertices without in-arcs, and the cost of a projection grows with the
    cube of the vertices left, which would make timings depend on the seed.
    """
    elements = tuple(f"d{i}" for i in range(n))
    want = min(3 * n, n * n)
    arcs = set()
    while len(arcs) < want:
        image = list(elements)
        rng.shuffle(image)
        for arc in zip(elements, image):
            if len(arcs) < want:
                arcs.add(arc)
    return lib.cq.RelationalStructure(lib.cq.Vocabulary({"E": 2}), elements, {"E": arcs})


def _text(head, atoms):
    body = ", ".join(f"E({u},{v})" for u, v in atoms)
    return f"answer({','.join(head)}) :- {body}."


def path_text(length, ends_only=False):
    vs = [f"v{i}" for i in range(length + 1)]
    head = [vs[0], vs[-1]] if ends_only else vs
    return _text(head, list(zip(vs, vs[1:])))


def cycle_text(length):
    vs = [f"v{i}" for i in range(length)]
    return _text(vs, [(vs[i], vs[(i + 1) % length]) for i in range(length)])


def grid_text(rows, cols):
    vs = [[f"g{i}_{j}" for j in range(cols)] for i in range(rows)]
    atoms = [(vs[i][j], vs[i][j + 1]) for i in range(rows) for j in range(cols - 1)]
    atoms += [(vs[i][j], vs[i + 1][j]) for i in range(rows - 1) for j in range(cols)]
    return _text([v for row in vs for v in row], atoms)


class _Files:
    """Writes CLI input files into the work directory, one pair per call."""

    def __init__(self, lib, workdir: Path):
        self.lib = lib
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.n = 0

    def argv(self, command, q, db):
        """Every query variable must occur in an atom, or the text cannot carry it."""
        db_path = self.workdir / f"{self.n}.json"
        q_path = self.workdir / f"{self.n}.query"
        self.n += 1
        db_path.write_text(json.dumps(self.lib.cq.structure_to_dict(db)))
        q_path.write_text(self.lib.cq.render_query(q) + "\n")
        return (command, "--db", str(db_path), "--query", str(q_path))


def _pool(count_ops, cli_ops, cli_every, probes=(), probe_every=0, classify=lambda op: True):
    """Interleave count, classify, CLI and probe operations into one list."""
    ops = []
    for i, op in enumerate(count_ops):
        ops.append(op)
        if classify(op):
            ops.append(Op(CLASSIFY, op.label, query=op.query))
        if cli_ops and i % cli_every == cli_every - 1:
            ops.append(cli_ops[(i // cli_every) % len(cli_ops)])
        if probes and i % probe_every == probe_every - 1:
            ops.append(probes[(i // probe_every) % len(probes)])
    return ops


def projection(lib, rng, files, pool_size=400):
    """Quantified stars, projected paths and redundant copies of both."""
    gen, parse = lib.gen, lib.cq.parse_query
    families = {
        "star2": lambda: gen.quantified_star_query(2),
        "star3": lambda: gen.quantified_star_query(3),
        "ppath2": lambda: parse(path_text(2, ends_only=True)),
        "ppath3": lambda: parse(path_text(3, ends_only=True)),
    }
    # Sorted by cost, the four star2@30 slots sit in the middle (p50), the
    # three star3@20 slots in the top 20% but one (p90) and star3@25 on top
    # (p99), so each percentile falls inside one slot's latency band.
    slots = [
        ("star2", 20), ("star2", 30), ("star3", 20), ("red-ppath3", 15),
        ("ppath3", 15), ("ppath2", 40), ("star2", 30), ("red-ppath2", 20),
        ("ppath3", 20), ("star3", 20), ("star2", 30), ("ppath2", 20),
        ("star3", 25), ("ppath2", 25), ("red-star3", 15), ("star2", 15),
        ("star2", 30), ("star3", 20), ("red-star2", 35), ("star2", 40),
    ]

    def make(family, n):
        base = families[family.removeprefix("red-")]()
        q = gen.redundant_variant(rng, base) if family.startswith("red-") else base
        db = digraph(lib, rng, n)
        return Op(COUNT, f"{family}@{n}", query=q, db=db,
                  oracle=lambda q=q, db=db: oracles.join_count(q, db))

    count_ops = [make(*slots[i % len(slots)]) for i in range(pool_size)]
    cli_ops = []
    for command, family, n in [("count", "star2", 8), ("reduce-demo", "star2", 5),
                               ("count", "ppath3", 8), ("count", "ppath2", 6),
                               ("reduce-demo", "ppath2", 5), ("count", "star2", 6)]:
        op = make(family, n)
        cli_ops.append(Op(CLI, f"{command}:{op.label}", argv=files.argv(command, op.query, op.db),
                          oracle=op.oracle if command == "count" else None))
    probes = []
    for n in (57, 60, 64):
        q, db = gen.quantified_star_query(4), digraph(lib, rng, n)
        probes.append(Op(PROBE, f"star4@{n}", query=q, db=db,
                         oracle=lambda db=db: oracles.star_projection_count(db, 4)))
    return _pool(count_ops, cli_ops, cli_every=4, probes=probes, probe_every=20)


def free_structure(lib, rng, files, pool_size=300):
    """All-free paths, cycles and grids, and long paths into K3."""
    parse = lib.cq.parse_query
    k3 = lib.gen.clique_graph(3)
    # qfpath150 is the top 1/28 (p99), the four 4x4 grids the next 4/28
    # (p90). Of the 22 slots that are classified, 16 are paths and cycles,
    # so the classify median falls among their reports.
    slots = [
        ("path", 3, 50), ("grid", (4, 4), 8), ("cycle", 4, 50), ("path", 4, 75),
        ("grid", (3, 3), 12), ("qfpath", 50, 3), ("cycle", 5, 75), ("path", 5, 100),
        ("grid", (4, 4), 10), ("cycle", 3, 100), ("path", 3, 100), ("grid", (3, 4), 8),
        ("path", 5, 50), ("qfpath", 150, 3), ("cycle", 4, 75), ("path", 4, 50),
        ("grid", (4, 4), 12), ("grid", (3, 3), 8), ("cycle", 5, 50), ("path", 5, 75),
        ("grid", (3, 4), 12), ("qfpath", 100, 3), ("cycle", 4, 100), ("path", 4, 100),
        ("grid", (4, 4), 15), ("path", 3, 75), ("grid", (3, 3), 15), ("cycle", 3, 50),
    ]

    def make(family, size, n):
        if family == "qfpath":
            q, db = lib.gen.quantifier_free_path_query(size), k3
            oracle = lambda: oracles.path_into_clique_count(size, n)
        elif family == "path":
            q, db = parse(path_text(size)), digraph(lib, rng, n)
            oracle = lambda: oracles.walk_count(db, size)
        elif family == "cycle":
            q, db = parse(cycle_text(size)), digraph(lib, rng, n)
            oracle = lambda: oracles.closed_walk_count(db, size)
        else:
            q, db = parse(grid_text(*size)), digraph(lib, rng, n)
            oracle = lambda: oracles.grid_count(db, *size)
        size_tag = "x".join(map(str, size)) if family == "grid" else size
        return Op(COUNT, f"{family}{size_tag}@{n}", query=q, db=db, oracle=oracle)

    count_ops = [make(*slots[i % len(slots)]) for i in range(pool_size)]
    cli_ops = []
    for command, family, size, n in [("count", "path", 3, 8), ("reduce-demo", "path", 1, 5),
                                     ("count", "cycle", 3, 8), ("count", "grid", (2, 2), 6),
                                     ("reduce-demo", "path", 2, 4), ("count", "path", 2, 6)]:
        op = make(family, size, n)
        cli_ops.append(Op(CLI, f"{command}:{op.label}", argv=files.argv(command, op.query, op.db),
                          oracle=op.oracle if command == "count" else None))
    # Classifying a 4x4 grid or a long path costs about as much as counting
    # it; those are left out so the run still counts over 100 instances.
    expensive = ("grid4x4@", "qfpath100@", "qfpath150@")
    return _pool(count_ops, cli_ops, cli_every=4,
                 classify=lambda op: not op.label.startswith(expensive))


def small_mixed(lib, rng, files, pool_size=3000):
    """Thousands of tiny random instances, a slow brute-force clique, CLI calls."""
    cq, gen = lib.cq, lib.gen
    clique = gen.boolean_clique_query(10)
    clique = cq.ConjunctiveQuery(clique.structure, clique.structure.domain)

    def tiny():
        q, db = gen.random_instance(rng, max_vars=6, max_free=4, max_target=6)
        return Op(COUNT, "random", query=q, db=db,
                  oracle=lambda: cq.count_answers_brute(q, db))

    def clique_op():
        # Complete on three values plus one loop: 111 answers whichever value
        # carries the loop, and a brute-force cost that does not vary.
        values = ("a", "b", "c")
        arcs = {(u, v) for u in values for v in values if u != v}
        arcs.add((rng.choice(values),) * 2)
        db = cq.RelationalStructure(cq.Vocabulary({"E": 2}), values, {"E": arcs})
        return Op(COUNT, "clique10@3", query=clique, db=db,
                  oracle=lambda: oracles.clique_count(10, db))

    count_ops = [clique_op() if i % 75 == 74 else tiny() for i in range(pool_size)]

    def renderable(q, max_free):
        used = {v for ts in q.structure.relations.values() for t in ts for v in t}
        return used and set(q.structure.domain) <= used and 1 <= len(q.free_vars) <= max_free

    cli_ops = []
    # About one file per call in a run, so the CLI median is taken over many
    # different instances and varies little from seed to seed.
    while len(cli_ops) < 150:
        command = "count" if len(cli_ops) % 3 == 0 else "reduce-demo"
        q, db = gen.random_instance(rng, max_vars=5, max_free=3, max_target=4)
        if not renderable(q, 3 if command == "count" else 2):
            continue
        oracle = (lambda q=q, db=db: cq.count_answers_brute(q, db)) if command == "count" else None
        cli_ops.append(Op(CLI, f"{command}:random", argv=files.argv(command, q, db), oracle=oracle))
    return _pool(count_ops, cli_ops, cli_every=10)


WORKLOADS = {
    "projection": projection,
    "free_structure": free_structure,
    "small_mixed": small_mixed,
}


def build(name, seed, lib, workdir: Path):
    rng = random.Random(f"{name}:{seed}")
    return WORKLOADS[name](lib, rng, _Files(lib, workdir))


def digest(ops) -> str:
    """SHA-256 of the generated operations; the same seed gives the same digest."""
    h = hashlib.sha256()

    def structure(s):
        return [list(s.domain), sorted((name, sorted(ts)) for name, ts in s.relations.items())]

    for op in ops:
        item = [op.kind, op.label]
        if op.query is not None:
            item += [structure(op.query.structure), list(op.query.free_vars)]
        if op.db is not None:
            item.append(structure(op.db))
        for arg in op.argv:
            path = Path(arg)
            item.append(path.read_text() if path.suffix in (".json", ".query") else arg)
        h.update(json.dumps(item).encode())
    return h.hexdigest()
