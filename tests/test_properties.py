"""Property-based robustness gate over the library and the CLI.

Hypothesis draws small well-formed instances: arities 0..8, repeated
variables, empty relations, empty target domains, Boolean heads, isolated
variables and paths deep enough to trip a tight search budget. Runs are
derandomized, so every run of the suite checks the same examples.
"""

import contextlib
import io
import json
import os
import warnings
from itertools import product

import pytest
from conftest import naive_answer_set
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cqcount import (
    ConjunctiveQuery,
    CountingConfig,
    HomSearchConfig,
    RelationalStructure,
    ResourceBudgetError,
    Vocabulary,
    core_of_query,
    count_answers,
    induced_substructure,
    is_homomorphism,
    structure_to_dict,
)
from cqcount.cli import BUDGET_ENV, main

VALUES = ("a", "b", "c")
# Searches are cheap here; the cap keeps naive enumeration (|B|^|A|) small.
MAX_VARS = 5


def gate(max_examples):
    return settings(max_examples=max_examples, derandomize=True, database=None,
                    deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def random_queries(draw):
    """Up to three relations of arity 0..8 and up to five atoms on up to five variables."""
    arity = st.one_of(st.just(0), st.integers(1, 3), st.integers(4, 8))
    arities = draw(st.lists(arity, min_size=1, max_size=3))
    names = [f"R{i}" for i in range(len(arities))]
    variables = [f"v{i}" for i in range(draw(st.integers(0, MAX_VARS)))]
    relations = {name: set() for name in names}
    for _ in range(draw(st.integers(0, 5))):
        i = draw(st.integers(0, len(names) - 1))
        if arities[i] and not variables:
            continue
        args = draw(st.lists(st.sampled_from(variables), min_size=arities[i],
                             max_size=arities[i])) if arities[i] else []
        relations[names[i]].add(tuple(args))
    free = draw(st.permutations(variables))[:draw(st.integers(0, min(3, len(variables))))]
    structure = RelationalStructure(Vocabulary(dict(zip(names, arities))),
                                    tuple(variables), relations)
    return ConjunctiveQuery(structure, tuple(free))


@st.composite
def paths(draw):
    """A directed path of one to MAX_VARS - 1 edges; both ends free, one, or none."""
    n = draw(st.integers(2, MAX_VARS))
    variables = [f"p{i}" for i in range(n)]
    structure = RelationalStructure(Vocabulary({"E": 2}), tuple(variables),
                                    {"E": set(zip(variables, variables[1:]))})
    free = draw(st.sampled_from([(), (variables[0],), (variables[0], variables[-1])]))
    return ConjunctiveQuery(structure, free)


queries = st.one_of(random_queries(), paths())


@st.composite
def targets(draw, q):
    """A database over the query's vocabulary on zero to three values."""
    values = VALUES[:draw(st.integers(0, len(VALUES)))]
    relations = {}
    for name, arity in q.structure.vocabulary.symbols.items():
        if arity and not values:
            relations[name] = set()
            continue
        row = st.tuples(*[st.sampled_from(values)] * arity)
        relations[name] = set(draw(st.lists(row, max_size=8)))
    return RelationalStructure(q.structure.vocabulary, values, relations)


instances = queries.flatmap(lambda q: st.tuples(st.just(q), targets(q)))

configs = st.builds(
    lambda mode, nodes, cap: CountingConfig(
        mode=mode, hom=HomSearchConfig(node_budget=nodes, enumeration_cap=cap)),
    st.sampled_from(["auto", "brute", "structural"]),
    st.sampled_from([1, 4, 30, 10_000_000]),
    st.sampled_from([1, 8, 10_000_000]),
)


@gate(250)
@given(instances, configs)
def test_count_answers_is_exact_or_refused(instance, cfg):
    q, b = instance
    try:
        got = count_answers(q, b, cfg)
    except ResourceBudgetError:
        return
    assert got == len(naive_answer_set(q, b))


def maps_fixing_free(q, target):
    """Some map of q into ``target`` fixes every free variable (checked map by map)."""
    fixed = {v: v for v in q.free_vars}
    quantified = q.quantified_vars
    return any(is_homomorphism(q.structure, target, {**fixed, **dict(zip(quantified, combo))})
               for combo in product(target.domain, repeat=len(quantified)))


@gate(200)
@given(queries)
def test_core_is_equivalent_with_free_variables_fixed(q):
    core = core_of_query(q)
    assert core.free_vars == q.free_vars
    assert core.structure == induced_substructure(q.structure, core.structure.domain)
    assert maps_fixing_free(q, core.structure)
    assert maps_fixing_free(core, q.structure)


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


def query_text(q, repeat_first):
    """The query as text; 0-ary atoms have no syntax and are left out."""
    atoms = [f"{name}({','.join(t)})" for name, t in q.structure.atoms() if t]
    if repeat_first and atoms:
        atoms.append(atoms[0])
    return f"answer({','.join(q.free_vars)}) :- {', '.join(atoms)}."


@gate(150)
@given(instances, st.booleans(),
       st.sampled_from([["count"], ["count", "--mode", "brute"], ["count", "--mode", "structural"],
                        ["decide"], ["core"], ["analyze"]]),
       st.sampled_from([None, "1", "40"]))
def test_cli_exits_0_1_or_2_without_a_traceback(cli_dir, instance, repeat_first, command, budget):
    q, b = instance
    query, db = cli_dir / "q.query", cli_dir / "db.json"
    query.write_text(query_text(q, repeat_first))
    data = structure_to_dict(b)  # 0-ary relations have no place in user files
    data["relations"] = {n: r for n, r in data["relations"].items() if r["arity"]}
    db.write_text(json.dumps(data))
    argv = [*command, "--query", str(query)]
    if command[0] in ("count", "decide"):
        argv += ["--db", str(db)]
    saved = os.environ.pop(BUDGET_ENV, None)
    if budget is not None:
        os.environ[BUDGET_ENV] = budget
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(argv)
    finally:
        os.environ.pop(BUDGET_ENV, None)
        if saved is not None:
            os.environ[BUDGET_ENV] = saved
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert bool(out.getvalue()) == (code == 0)
