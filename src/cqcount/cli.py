"""Command line interface.

Commands: count, analyze, core, decide, reduce-demo, selftest. Exit codes:
0 success, 1 input or usage error, 2 resource budget exceeded. The
environment variable CQCOUNT_BUDGET overrides the default search and
enumeration budgets.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from pathlib import Path
from typing import Optional

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
from .parsing import load_database, parse_query, render_query
from .reductions import count_star_via_oracle
from .structures import (
    ConjunctiveQuery,
    RelationalStructure,
    Vocabulary,
    pin_relation_names,
    star_structure,
)

BUDGET_ENV = "CQCOUNT_BUDGET"


def _budget() -> Optional[int]:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise InputError(f"{BUDGET_ENV} must be an integer, got {raw!r}") from None
    if value <= 0:
        raise InputError(f"{BUDGET_ENV} must be positive")
    return value


def _configs(mode: str = MODE_AUTO):
    budget = _budget()
    if budget is None:
        hom = HomSearchConfig()
        return CountingConfig(mode=mode, hom=hom)
    hom = HomSearchConfig(node_budget=budget, enumeration_cap=budget)
    return CountingConfig(mode=mode, brute_cap=budget, hom=hom)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _load_query(path: str) -> ConjunctiveQuery:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    return parse_query(text)


def _cmd_count(args) -> int:
    db = load_database(args.db)
    q = _load_query(args.query)
    print(count_answers(q, db, _configs(args.mode)))
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
    analyze.add_argument("--k-core", type=int, default=3)
    analyze.add_argument("--k-contract", type=int, default=3)
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
    selftest.add_argument("--trials", type=_positive_int, default=200)
    selftest.add_argument("--seed", type=int, default=0)
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
