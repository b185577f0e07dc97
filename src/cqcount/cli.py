"""Command line interface.

Commands: count, analyze, core, decide, reduce-demo, selftest. Exit codes:
0 success, 1 input or usage error, 2 resource budget exceeded. The
environment variable CQCOUNT_BUDGET overrides the default search and
enumeration budgets.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import random
import reprlib
import sys

from .cores import core_of_query
from .counting import (
    CountingConfig,
    MODE_AUTO,
    MODE_BRUTE,
    MODE_STRUCTURAL,
    classify,
    count_answers,
)
from .errors import InputError, ResourceBudgetError
from .generators import random_instance
from .homomorphisms import (
    HomSearchConfig,
    check_vocabulary,
    count_answers_brute,
    hom_exists,
)
from .parsing import _read_text, load_database, parse_query, render_query
from .reductions import count_star_via_oracle
from .structures import (
    ConjunctiveQuery,
    RelationalStructure,
    Vocabulary,
    pin_relation_names,
    star_structure,
)

BUDGET_ENV = "CQCOUNT_BUDGET"


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift the int/str digit limit (4300 by default from Python 3.10.7 on) for a block."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda _: None)
    set_limit(0)
    try:
        yield
    finally:
        set_limit(limit)


def _integer(text: str, positive: bool = False) -> int:
    """Every integer the CLI reads, of any size; a rejected text is echoed shortened."""
    try:
        with _unlimited_int_digits():
            value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {reprlib.repr(text)}") from None
    if positive and value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {reprlib.repr(text)}")
    return value


def _configs(mode: str = MODE_AUTO) -> CountingConfig:
    """The counting configuration; CQCOUNT_BUDGET, when set, gives both budgets."""
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return CountingConfig(mode=mode)
    try:
        budget = _integer(raw, positive=True)
    except argparse.ArgumentTypeError as exc:
        raise InputError(f"{BUDGET_ENV} {exc}") from None
    hom = HomSearchConfig(node_budget=budget, enumeration_cap=budget)
    return CountingConfig(mode=mode, hom=hom)


def _load_query(path: str) -> ConjunctiveQuery:
    return parse_query(_read_text(path))


def _cmd_count(args) -> int:
    db = load_database(args.db)
    q = _load_query(args.query)
    count = count_answers(q, db, _configs(args.mode))
    with _unlimited_int_digits():
        print(count)
    return 0


def _cmd_decide(args) -> int:
    db = load_database(args.db)
    q = _load_query(args.query)
    cfg = _configs()
    print("SAT" if hom_exists(q.structure, db, cfg.hom) else "UNSAT")
    return 0


def _cmd_core(args) -> int:
    q = _load_query(args.query)
    print(render_query(core_of_query(q, _configs().hom)))
    return 0


def _cmd_analyze(args) -> int:
    q = _load_query(args.query)
    report = classify(q, args.k_core, args.k_contract, _configs())
    with _unlimited_int_digits():
        print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_reduce_demo(args) -> int:
    db = load_database(args.db)
    q = _load_query(args.query)
    check_vocabulary(q.structure, db)
    cfg = _configs(MODE_STRUCTURAL)
    core = core_of_query(q, cfg.hom)
    # Extend the database with unrestricted pins so the fully pinned query
    # has a well-defined instance over the extended vocabulary.
    pins = pin_relation_names(core.structure)
    symbols = dict(db.vocabulary.symbols)
    relations = {name: set(ts) for name, ts in db.relations.items()}
    for name in pins.values():
        symbols[name] = 1
        relations[name] = {(e,) for e in db.domain}
    extended = RelationalStructure(Vocabulary(symbols), db.domain, relations)
    pipeline = count_star_via_oracle(
        core, extended, lambda right: count_answers(core, right, cfg), cfg.hom
    )
    starred = ConjunctiveQuery(star_structure(core.structure), core.free_vars)
    direct = count_answers_brute(starred, extended, cfg.hom)
    print(f"interpolation pipeline: {pipeline}")
    print(f"direct count:           {direct}")
    print("AGREE" if pipeline == direct else "DISAGREE")
    return 0 if pipeline == direct else 1


def _cmd_selftest(args) -> int:
    rng = random.Random(args.seed)
    cfg = _configs(MODE_STRUCTURAL)
    failures = 0
    for i in range(args.trials):
        q, b = random_instance(rng, max_vars=5, max_free=3, max_target=4)
        expected = count_answers_brute(q, b, cfg.hom)
        got = count_answers(q, b, cfg)
        if got != expected:
            failures += 1
            print(f"MISMATCH on trial {i}: structural {got} != brute {expected}",
                  file=sys.stderr)
    print(f"selftest: {args.trials} structural-vs-brute cross-checks, "
          f"{failures} failure(s)")
    return 0 if failures == 0 else 1


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InputError, so they exit 1 and never 2 (budget)."""

    def error(self, message):
        raise InputError(message)


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing does not modify it."""
    parser = _Parser(
        prog="cqcount",
        description="Count answers to conjunctive queries, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="print the exact answer count")
    count.add_argument("--db", required=True)
    count.add_argument("--query", required=True)
    count.add_argument("--mode", choices=[MODE_AUTO, MODE_BRUTE, MODE_STRUCTURAL],
                       default=MODE_AUTO)
    count.set_defaults(func=_cmd_count)

    analyze = sub.add_parser("analyze", help="print the trichotomy report as JSON")
    analyze.add_argument("--query", required=True)
    analyze.add_argument("--k-core", type=_integer, default=3)
    analyze.add_argument("--k-contract", type=_integer, default=3)
    analyze.set_defaults(func=_cmd_analyze)

    core = sub.add_parser("core", help="print the core of the query")
    core.add_argument("--query", required=True)
    core.set_defaults(func=_cmd_core)

    decide = sub.add_parser("decide", help="print SAT/UNSAT for query existence")
    decide.add_argument("--db", required=True)
    decide.add_argument("--query", required=True)
    decide.set_defaults(func=_cmd_decide)

    reduce_demo = sub.add_parser(
        "reduce-demo",
        help="run the interpolation reduction against the structural counter",
    )
    reduce_demo.add_argument("--db", required=True)
    reduce_demo.add_argument("--query", required=True)
    reduce_demo.set_defaults(func=_cmd_reduce_demo)

    selftest = sub.add_parser("selftest", help="cross-check counters on random instances")
    selftest.add_argument("--trials", type=functools.partial(_integer, positive=True), default=200)
    selftest.add_argument("--seed", type=_integer, default=0)
    selftest.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceBudgetError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
