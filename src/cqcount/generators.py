"""Seeded random instances and fixed query families for cross-checking.

Everything here is driven by a caller-supplied random.Random, so test runs
are reproducible. The size caps default to the regime where brute-force
counting stays fast; callers shrink them further when many instances are
needed.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

from .structures import ConjunctiveQuery, RelationalStructure, Vocabulary


def random_vocabulary(rng: random.Random, max_symbols: int = 3,
                      max_arity: int = 3) -> Vocabulary:
    count = rng.randint(1, max_symbols)
    return Vocabulary({f"R{i}": rng.randint(1, max_arity) for i in range(count)})


def random_query(rng: random.Random, vocab: Optional[Vocabulary] = None,
                 max_vars: int = 6, max_free: int = 4, max_atoms: int = 5,
                 max_arity: int = 3) -> ConjunctiveQuery:
    """A random query in natural-model form; may include isolated variables."""
    if vocab is None:
        vocab = random_vocabulary(rng, max_arity=max_arity)
    n = rng.randint(1, max_vars)
    variables = [f"v{i}" for i in range(n)]
    atoms: Dict[str, set] = {name: set() for name in vocab.symbols}
    names = sorted(vocab.symbols)
    for _ in range(rng.randint(1, max_atoms)):
        name = rng.choice(names)
        arity = vocab.arity(name)
        atoms[name].add(tuple(rng.choice(variables) for _ in range(arity)))
    k = rng.randint(0, min(max_free, n))
    free = tuple(rng.sample(variables, k))
    used = sorted({v for ts in atoms.values() for t in ts for v in t})
    domain = tuple(dict.fromkeys(list(free) + used + variables))
    structure = RelationalStructure(vocab, domain, atoms)
    return ConjunctiveQuery(structure, free)


def random_structure(rng: random.Random, vocab: Vocabulary,
                     max_elements: int = 5, density: float = 0.4) -> RelationalStructure:
    """A random target; relations are sampled tuple by tuple."""
    n = rng.randint(1, max_elements)
    elements = [f"b{i}" for i in range(n)]
    relations = {}
    for name in sorted(vocab.symbols):
        arity = vocab.arity(name)
        rows = set()
        for _ in range(int(density * (n ** arity)) + rng.randint(0, 2)):
            rows.add(tuple(rng.choice(elements) for _ in range(arity)))
        relations[name] = rows
    return RelationalStructure(vocab, tuple(elements), relations)


def random_instance(rng: random.Random, max_vars: int = 6, max_free: int = 4,
                    max_atoms: int = 5, max_target: int = 5,
                    max_arity: int = 3) -> Tuple[ConjunctiveQuery, RelationalStructure]:
    vocab = random_vocabulary(rng, max_arity=max_arity)
    q = random_query(rng, vocab, max_vars=max_vars, max_free=max_free,
                     max_atoms=max_atoms, max_arity=max_arity)
    b = random_structure(rng, vocab, max_elements=max_target)
    return q, b


def redundant_variant(rng: random.Random, q: ConjunctiveQuery) -> ConjunctiveQuery:
    """Add redundant atoms without changing the query's core.

    Each added atom clones an existing one with some of its variables
    renamed to fresh quantified variables (consistently per variable), so
    folding the fresh variables back is a homomorphism fixing the free
    tuple: the pinned structures stay homomorphically equivalent and the
    core is unchanged.
    """
    atoms = [(name, t) for name, ts in sorted(q.structure.relations.items())
             for t in sorted(ts)]
    if not atoms:
        return q
    relations = {name: set(ts) for name, ts in q.structure.relations.items()}
    domain = list(q.structure.domain)
    fresh = 0
    for _ in range(rng.randint(1, 2)):
        name, t = rng.choice(atoms)
        renaming = {}
        for v in dict.fromkeys(t):
            if rng.random() < 0.6:
                new = f"w{fresh}"
                fresh += 1
                renaming[v] = new
                domain.append(new)
            else:
                renaming[v] = v
        relations[name].add(tuple(renaming[v] for v in t))
    structure = RelationalStructure(q.structure.vocabulary, tuple(domain), relations)
    return ConjunctiveQuery(structure, q.free_vars)


def quantifier_free_path_query(length: int) -> ConjunctiveQuery:
    """answer(v0..vn) :- E(v0,v1), ..., E(v(n-1),vn)."""
    variables = tuple(f"v{i}" for i in range(length + 1))
    vocab = Vocabulary({"E": 2})
    rels = {"E": {(variables[i], variables[i + 1]) for i in range(length)}}
    return ConjunctiveQuery(RelationalStructure(vocab, variables, rels), variables)


def boolean_clique_query(k: int) -> ConjunctiveQuery:
    """The Boolean k-clique query (all ordered pairs, no free variables)."""
    variables = tuple(f"x{i}" for i in range(k))
    vocab = Vocabulary({"E": 2})
    rels = {"E": {(u, v) for u in variables for v in variables if u != v}}
    return ConjunctiveQuery(RelationalStructure(vocab, variables, rels), ())


def quantified_star_query(leaves: int) -> ConjunctiveQuery:
    """answer(s1..sk) :- E(c,s1), ..., E(c,sk) with the centre quantified."""
    free = tuple(f"s{i}" for i in range(1, leaves + 1))
    variables = free + ("c",)
    vocab = Vocabulary({"E": 2})
    rels = {"E": {("c", s) for s in free}}
    return ConjunctiveQuery(RelationalStructure(vocab, variables, rels), free)


def clique_graph(k: int) -> RelationalStructure:
    """K_k as a structure with both arc directions."""
    elements = tuple(f"n{i}" for i in range(k))
    vocab = Vocabulary({"E": 2})
    rels = {"E": {(u, v) for u in elements for v in elements if u != v}}
    return RelationalStructure(vocab, elements, rels)
