"""The public surface: what ``cqcount.__all__`` exports and how it fails.

Each public callable gets one valid call. Replacing any one argument of it
with a value of the wrong type or shape raises a ``CQError`` subclass with
a short message, or nothing; never a bare Python exception. So does
replacing one item of a container argument, or one key or value of a
mapping argument. Every public name also has a caller outside ``tests/``,
so names only tests use do not come back.
"""

import inspect
import io
import re
import tokenize
from collections import abc
from dataclasses import fields
from functools import partial
from pathlib import Path

import pytest
from conftest import digraph

import cqcount
from cqcount import (
    CQError,
    CountingConfig,
    HomSearchConfig,
    classify,
    decompose,
    hypergraph_of,
    pair_structure,
    parse_query,
    primal_graph,
    s_components,
    star_structure,
)

ROOT = Path(__file__).resolve().parent.parent
BAD_VALUES = [None, 42, "x", [], 2.5, True, "x" * 100_000]

_Q = parse_query("answer(x) :- E(x,y), E(y,z).")
_QF = parse_query("answer(x,y) :- E(x,y).")
_D = digraph("abc", [("a", "b"), ("b", "c"), ("c", "a")])
_H = hypergraph_of(_Q)
_G = primal_graph(hypergraph_of(_QF))
_TD = decompose(_G)
_STARRED = star_structure(_QF.structure)  # a target over the pinned vocabulary
_PAIR = pair_structure(_QF.structure, _STARRED)
_CFG = CountingConfig(hom=HomSearchConfig(node_budget=10_000, enumeration_cap=10_000))


def _fields_of(instance):
    return {f.name: getattr(instance, f.name) for f in fields(instance) if f.init}


# One valid call per public callable, every parameter given by name.
VALID = {
    "ConjunctiveQuery": _fields_of(_Q),
    "CountingConfig": _fields_of(_CFG),
    "Graph": _fields_of(_G),
    "HomSearchConfig": _fields_of(_CFG.hom),
    "PairDomainStructure": _fields_of(_PAIR),
    "RelationalStructure": _fields_of(_D),
    "SComponent": _fields_of(s_components(_H)[0]),
    "SHypergraph": _fields_of(_H),
    "TreeDecomposition": _fields_of(_TD),
    "TrichotomyReport": _fields_of(classify(_Q)),
    "Vocabulary": _fields_of(_D.vocabulary),
    "augment": {"q": _Q},
    "automorphisms": {"a": _D, "cfg": _CFG.hom},
    "blowup": {"dstruct": _PAIR, "t_subset": ["x"], "copies": 2},
    "classify": {"q": _Q, "k_core": 3, "k_contract": 3, "cfg": _CFG},
    "contract": {"h": _H},
    "contract_instance": {"q": _Q, "dst": _D, "cfg": _CFG},
    "core_of_query": {"q": _Q, "cfg": _CFG.hom},
    "core_of_structure": {"a": _D, "cfg": _CFG.hom},
    "count_answers": {"q": _Q, "dst": _D, "cfg": _CFG},
    "count_answers_brute": {"q": _Q, "dst": _D, "cfg": _CFG.hom},
    "count_quantifier_free_td": {"q": _QF, "dst": _D, "td": _TD, "cfg": _CFG},
    "count_star_via_oracle": {"q": _QF, "b": _STARRED, "oracle": partial(cqcount.count_answers_brute, _QF),
                              "cfg": _CFG.hom},
    "decompose": {"obj": _G, "exact_threshold": 16},
    "enumerate_answers": {"q": _Q, "dst": _D, "cfg": _CFG.hom},
    "free_automorphism_set": {"q": _Q, "cfg": _CFG.hom},
    "hom_exists": {"src": _Q.structure, "dst": _D, "cfg": _CFG.hom},
    "hypergraph_of": {"q": _Q},
    "is_core": {"a": _D, "cfg": _CFG.hom},
    "is_homomorphism": {"src": _QF.structure, "dst": _D, "mapping": {"x": "a", "y": "b"}},
    "lift_to_hypergraph": {"q": _QF, "b": _D, "target": hypergraph_of(_QF), "cfg": _CFG.hom},
    "load_database": {"path": ROOT / "tests" / "data" / "triangle.json"},
    "pair_structure": {"a": _QF.structure, "b": _STARRED},
    "parse_query": {"text": "answer(x) :- E(x,y)."},
    "pin_relation_names": {"a": _D},
    "primal_graph": {"h": _H},
    "render_query": {"q": _Q},
    "s_components": {"h": _H},
    "solve_vandermonde": {"nodes": [1, 2], "rhs": [3, 5]},
    "star_sizes": {"h": _H},
    "star_structure": {"a": _D},
    "structure_from_dict": {"data": cqcount.structure_to_dict(_D)},
    "structure_to_dict": {"a": _D},
    "verify_decomposition": {"obj": _G, "td": _TD},
}


def _public_callables():
    """The public functions and classes, exception classes left out."""
    for name in cqcount.__all__:
        obj = getattr(cqcount, name)
        if inspect.isfunction(obj) or (inspect.isclass(obj) and not issubclass(obj, BaseException)):
            yield name, obj


def test_every_public_callable_has_a_valid_call_naming_each_parameter():
    for name, fn in _public_callables():
        assert name in VALID, name
        assert list(VALID[name]) == list(inspect.signature(fn).parameters), name
    assert set(VALID) == {name for name, _ in _public_callables()}


@pytest.mark.parametrize("name", sorted(VALID))
def test_valid_calls_succeed(name):
    getattr(cqcount, name)(**VALID[name])


def _call_fails_cleanly(fn, kwargs, what):
    """Call ``fn``; a ``CQError`` with a short message or no error passes."""
    try:
        fn(**kwargs)
    except CQError as exc:
        assert len(str(exc)) < 200, (what, str(exc)[:300])
    except Exception as exc:  # any other type is the failure
        pytest.fail(f"{what} raised {type(exc).__name__}: {str(exc)[:200]}")


@pytest.mark.parametrize("name", sorted(VALID))
def test_a_wrong_argument_raises_a_short_library_error(name):
    fn = getattr(cqcount, name)
    for param in inspect.signature(fn).parameters:
        for bad in BAD_VALUES:
            _call_fails_cleanly(fn, {**VALID[name], param: bad}, f"{param}={repr(bad)[:20]}")


def _item_replacements(value):
    """``(where, bad, new value)`` for each bad value put into the container ``value``.

    A mapping gets one key and, separately, that key's value replaced; an
    unhashable bad value cannot be a key and is skipped there. A list or
    tuple gets its first item replaced. A set cannot hold an unhashable
    item, so it is passed as a tuple of its items, the smallest by ``repr``
    replaced. Strings and empty containers have no item to replace.
    """
    if isinstance(value, abc.Mapping) and value:
        key = min(value, key=repr)
        for bad in BAD_VALUES:
            if isinstance(bad, abc.Hashable):
                yield "key", bad, {(bad if k == key else k): v for k, v in value.items()}
            yield "value", bad, {k: (bad if k == key else v) for k, v in value.items()}
    elif isinstance(value, (list, tuple)) and value:
        for bad in BAD_VALUES:
            yield "item", bad, type(value)([bad, *value[1:]])
    elif isinstance(value, (set, frozenset)) and value:
        items = sorted(value, key=repr)
        for bad in BAD_VALUES:
            yield "item", bad, (bad, *items[1:])


@pytest.mark.parametrize("name", sorted(VALID))
def test_a_wrong_item_raises_a_short_library_error(name):
    fn = getattr(cqcount, name)
    replaced = 0
    for param, value in VALID[name].items():
        for where, bad, new in _item_replacements(value):
            replaced += 1
            _call_fails_cleanly(fn, {**VALID[name], param: new}, f"{param} {where}={repr(bad)[:20]}")
    # The sweep reaches the containers it is meant for.
    if name in ("ConjunctiveQuery", "Graph", "SHypergraph", "blowup", "is_homomorphism"):
        assert replaced, name


def _names_used(path):
    """Public names ``path`` uses as code or as a whole string literal, not in
    comments or docstrings, and not where it defines them."""
    tokens = list(tokenize.generate_tokens(io.StringIO(path.read_text()).readline))
    used = set()
    for before, token in zip([None, *tokens], tokens):
        if token.type == tokenize.NAME and not (before and before.string in ("def", "class")):
            used.add(token.string)
        elif token.type == tokenize.STRING and re.fullmatch(r"(['\"])\w+\1", token.string):
            used.add(token.string[1:-1])
    return used


def test_every_public_name_has_a_caller_outside_the_tests():
    paths = [p for p in (ROOT / "src" / "cqcount").glob("*.py") if p.name != "__init__.py"]
    paths += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used = set().union(*map(_names_used, paths))
    assert sorted(set(cqcount.__all__) - used) == []


def test_the_package_and_pyproject_agree_on_the_version():
    text = (ROOT / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]$(.*?)(?=^\[)", text, re.M | re.S).group(1)
    assert re.search(r'^version = "([^"]+)"$', project, re.M).group(1) == cqcount.__version__
