import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from cqcount import (
    ConjunctiveQuery,
    InputError,
    RelationalStructure,
    Vocabulary,
    load_database,
    parse_query,
    render_query,
    structure_to_dict,
)
from cqcount import cli
from cqcount.cli import _build_parser, main
from cqcount.generators import clique_graph, random_query
from cqcount.parsing import DatabaseWarning, QueryWarning

DATA = Path(__file__).parent / "data"
NINE_ARY = "answer(a) :- R(a,b,c,d,e,f,g,h,i)."


def count_equal(q1, q2):
    """Same free tuple and same atoms (ignoring unused vocabulary symbols)."""
    return (
        q1.free_vars == q2.free_vars
        and set(q1.structure.domain) == set(q2.structure.domain)
        and {(n, t) for n, ts in q1.structure.relations.items() for t in ts}
        == {(n, t) for n, ts in q2.structure.relations.items() for t in ts}
    )


def test_parse_basic_example():
    q = parse_query("answer(x,y) :- E(x,y), E(y,z).")
    assert q.free_vars == ("x", "y")
    assert set(q.structure.domain) == {"x", "y", "z"}
    assert q.structure.tuples("E") == frozenset({("x", "y"), ("y", "z")})


def test_parse_boolean_and_loop():
    q = parse_query("answer() :- E(x,y).")
    assert q.free_vars == ()
    q = parse_query("answer(x) :- R(x,x).")
    assert q.structure.tuples("R") == frozenset({("x", "x")})


def test_parse_whitespace_insensitive():
    a = parse_query("answer(x,y) :- E(x,y), E(y,z).")
    b = parse_query("answer( x , y )\n:-\n  E( x, y ),E(y , z) .")
    assert a == b


def test_parse_syntax_errors_carry_position():
    with pytest.raises(InputError, match=r"line 1, column 7"):
        parse_query("answer[x] :- E(x).")
    with pytest.raises(InputError, match=r"line 2"):
        parse_query("answer(x) :-\n E(x,.")
    with pytest.raises(InputError, match="end of input"):
        parse_query("answer(x) :- E(x,y)")
    with pytest.raises(InputError, match="end of input"):
        parse_query("answer(x) :- E(x,y). extra")


def test_parse_semantic_errors():
    with pytest.raises(InputError, match="arities"):
        parse_query("answer(x) :- E(x,y), E(x).")
    with pytest.raises(InputError, match="repeat"):
        parse_query("answer(x,x) :- E(x,y).")
    with pytest.raises(InputError, match="answer"):
        parse_query("answer(x) :- answer(x).")
    with pytest.raises(InputError, match="must start with 'answer'"):
        parse_query("query(x) :- E(x,y).")
    # names start with a letter, so the reserved "__" prefix cannot parse
    with pytest.raises(InputError, match="unexpected character '_'"):
        parse_query("answer(x) :- __E(x,y).")
    with pytest.raises(InputError):
        parse_query("answer(x) :- E(x), F(y), E(x,y).")
    with pytest.raises(InputError, match=r"arity 9, outside 1\.\.8"):
        parse_query(NINE_ARY)
    assert parse_query(NINE_ARY.replace(",i", "")).structure.vocabulary.arity("R") == 8


def test_isolated_head_variable_warns_but_parses():
    with pytest.warns(QueryWarning):
        q = parse_query("answer(x,lone) :- E(x,y).")
    assert "lone" in q.structure.domain
    assert q.free_vars == ("x", "lone")


def test_render_round_trip():
    texts = [
        "answer(x,y) :- E(x,y), E(y,z).",
        "answer() :- E(x,y).",
        "answer(x) :- R(x,x).",
        "answer(b,a) :- E(a,b), F(b,c,a).",
    ]
    for text in texts:
        q = parse_query(text)
        assert parse_query(render_query(q)) == q
    # only 0-ary atoms, or none: nothing the grammar can write
    bare = RelationalStructure(Vocabulary({"E": 2, "T": 0}), ("x",), {"T": {()}})
    with pytest.raises(InputError, match="without atoms"):
        render_query(ConjunctiveQuery(bare, ("x",)))


@pytest.mark.filterwarnings("ignore::cqcount.parsing.QueryWarning")
def test_render_round_trip_random():
    rng = random.Random(70)
    seen = 0
    while seen < 40:
        q = random_query(rng, max_vars=5, max_free=3)
        if not q.structure.atoms():
            continue
        isolated = set(q.structure.domain) - {
            v for _, t in q.structure.atoms() for v in t} - set(q.free_vars)
        if isolated:
            continue  # quantified variables outside atoms cannot be rendered
        seen += 1
        # canonicalise through one parse: parsed queries carry exactly the
        # symbols they use, which is what rendering can express
        parsed = parse_query(render_query(q))
        assert parse_query(render_query(parsed)) == parsed
        assert count_equal(parsed, q)


def test_load_database_triangle():
    db = load_database(DATA / "triangle.json")
    assert set(db.domain) == {"a", "b", "c"}
    assert len(db.tuples("E")) == 3


def test_load_database_declared_domain_and_empty_relations():
    path = DATA / "tmp_decl.json"
    path.write_text(json.dumps({"domain": ["z", "a"], "relations": {}}))
    try:
        db = load_database(path)
        assert db.domain == ("z", "a")
        assert db.vocabulary.symbols == {}
    finally:
        path.unlink()


def test_load_database_duplicates_warn(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({
        "relations": {"E": {"arity": 2,
                            "tuples": [["a", "b"], ["a", "b"], ["b", "a"]]}}
    }))
    with pytest.warns(DatabaseWarning, match="duplicate"):
        db = load_database(path)
    assert len(db.tuples("E")) == 2


@pytest.mark.parametrize("tuples", [[["a", ["b"]]], [["a", "b"], "xy"]],
                         ids=["nested-list", "string-tuple"])
def test_cli_count_rejects_malformed_tuples(tuples, tmp_path):
    db = tmp_path / "db.json"
    db.write_text(json.dumps({"relations": {"E": {"arity": 2, "tuples": tuples}}}))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "always", "-m", "cqcount.cli", "count",
         "--db", str(db), "--query", str(DATA / "edge.query")],
        capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert "must be lists of strings" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "DatabaseWarning" not in proc.stderr


def test_load_database_rejects_bad_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError, match="JSON"):
        load_database(bad)

    for body in (
        {"relations": {"__x": {"arity": 1, "tuples": []}}},
        {"relations": {"E": {"arity": 0, "tuples": []}}},
        {"relations": {"E": {"arity": 9, "tuples": []}}},
        {"relations": {"E": {"arity": 2, "tuples": [["a"]]}}},
        {"relations": {"E": {"arity": 1, "tuples": [[1]]}}},
        {"relations": []},
    ):
        bad.write_text(json.dumps(body))
        with pytest.raises(InputError):
            load_database(bad)
    missing = tmp_path / "missing.json"
    with pytest.raises(InputError):
        load_database(missing)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_count_golden(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--db", str(DATA / "triangle.json"),
        "--query", str(DATA / "edge.query"))
    assert code == 0
    assert out == "3\n"


def test_cli_count_modes(capsys):
    for mode in ("brute", "structural", "auto"):
        code, out, _ = run_cli(
            capsys, "count", "--db", str(DATA / "triangle.json"),
            "--query", str(DATA / "edge.query"), "--mode", mode)
        assert code == 0
        assert out == "3\n"


def test_cli_decide_golden(capsys):
    code, out, _ = run_cli(
        capsys, "decide", "--db", str(DATA / "undirected_triangle.json"),
        "--query", str(DATA / "clique4.query"))
    assert code == 0
    assert out == "UNSAT\n"
    code, out, _ = run_cli(
        capsys, "decide", "--db", str(DATA / "triangle.json"),
        "--query", str(DATA / "edge.query"))
    assert code == 0
    assert out == "SAT\n"


def test_cli_core(capsys):
    code, out, _ = run_cli(capsys, "core", "--query", str(DATA / "p3.query"))
    assert code == 0
    parsed = parse_query(out.strip())
    assert len(parsed.structure.domain) == 2
    assert len(parsed.structure.tuples("E")) == 2


def test_cli_analyze(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--query", str(DATA / "edge.query"),
        "--k-core", "3", "--k-contract", "3")
    assert code == 0
    report = json.loads(out)
    assert report["case_label"] == "I_tractable"
    assert report["core_treewidth"] == {"width": 1, "exact": True}
    assert report["contract_graph"]["vertices"] == ["x", "y"]
    assert parse_query(report["core_query"]) == parse_query("answer(x,y) :- E(x,y).")


def test_cli_reduce_demo(capsys):
    code, out, _ = run_cli(
        capsys, "reduce-demo", "--db", str(DATA / "triangle.json"),
        "--query", str(DATA / "edge.query"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "interpolation pipeline: 3"
    assert lines[1] == "direct count:           3"
    assert lines[2] == "AGREE"


def test_cli_selftest(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "selftest", "--trials", "25", "--seed", "5")
    assert code == 0
    assert "25 structural-vs-brute cross-checks, 0 failure(s)" in out
    # a counter that is always wrong: every trial mismatches
    monkeypatch.setattr(cli, "count_answers", lambda q, b, cfg: -1)
    code, out, err = run_cli(capsys, "selftest", "--trials", "3", "--seed", "5")
    assert code == 1
    assert "3 structural-vs-brute cross-checks, 3 failure(s)" in out
    assert err.count("MISMATCH on trial") == 3


@pytest.mark.parametrize("trials", ["-3", "0", "x"])
def test_cli_selftest_rejects_non_positive_trials(trials, capsys):
    code, out, err = run_cli(capsys, "selftest", "--trials", trials)
    assert code == 1
    assert err.startswith("error: argument --trials")
    assert "cross-checks" not in out


@pytest.mark.parametrize("bounds", [("-1", "0"), ("0", "3"), ("3", "0")])
def test_cli_analyze_rejects_bounds_below_one(bounds, capsys, tmp_path):
    query = tmp_path / "q.query"
    query.write_text("answer(x) :- E(x,y).")
    code, out, err = run_cli(capsys, "analyze", "--query", str(query),
                             "--k-core", bounds[0], "--k-contract", bounds[1])
    assert (code, out) == (1, "")
    assert err.startswith("error: width bounds must be at least 1")


def test_cli_parser_is_built_once_and_reused(capsys):
    count = ("count", "--db", str(DATA / "triangle.json"), "--query", str(DATA / "edge.query"))
    calls = [
        count,
        ("count", "--db", str(DATA / "triangle.json")),  # usage error: no --query
        ("analyze", "--query", str(DATA / "edge.query")),
        count,
    ]

    def outcome(argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    _build_parser.cache_clear()
    shared = [outcome(argv) for argv in calls]
    assert _build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 1, 0, 0]
    assert shared[0][1] == shared[3][1] == "3\n"
    assert "the following arguments are required: --query" in shared[1][2]
    assert json.loads(shared[2][1])["case_label"] == "I_tractable"


def test_cli_input_error_exit_code(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "count", "--db", str(tmp_path / "nope.json"),
        "--query", str(DATA / "edge.query"))
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("command", ["count", "decide", "reduce-demo"])
def test_cli_exit_codes(command, capsys, monkeypatch, tmp_path):
    def run(query, db=DATA / "triangle.json"):
        code, _, err = run_cli(capsys, command, "--db", str(db), "--query", str(query))
        return code, err

    assert run(DATA / "edge.query") == (0, "")
    unbound = tmp_path / "f.query"
    unbound.write_text("answer(x) :- F(x,x).")
    code, err = run(unbound)
    assert code == 1 and "'F'" in err
    wide = tmp_path / "wide.query"
    wide.write_text(NINE_ARY)
    code, err = run(wide)
    assert code == 1 and "1..8" in err
    code, err = run(tmp_path / "absent.query")
    assert code == 1 and "cannot read" in err
    code, err = run(DATA / "edge.query", db=tmp_path / "absent.json")
    assert code == 1 and "error:" in err
    monkeypatch.setenv("CQCOUNT_BUDGET", "1")
    code, err = run(DATA / "p3.query")
    assert code == 2 and "budget" in err


@pytest.mark.parametrize("bad", ["query", "db"])
def test_cli_non_utf8_input_is_an_input_error(bad, tmp_path):
    files = {"query": DATA / "edge.query", "db": DATA / "triangle.json"}
    text = files[bad].read_text()
    files[bad] = tmp_path / f"latin1.{bad}"
    files[bad].write_bytes(text.replace("E", "\u00c9").encode("latin-1"))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "cqcount.cli", "count",
         "--db", str(files["db"]), "--query", str(files["query"])],
        capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert f"cannot read {files[bad]}: " in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_vocabulary_agreement_checked(capsys, tmp_path):
    query = tmp_path / "f.query"
    query.write_text("answer(x) :- F(x,x).")
    code, _, err = run_cli(
        capsys, "count", "--db", str(DATA / "triangle.json"), "--query", str(query))
    assert code == 1
    assert "F" in err

    arity = tmp_path / "a.query"
    arity.write_text("answer(x) :- E(x,x,x).")
    code, _, err = run_cli(
        capsys, "count", "--db", str(DATA / "triangle.json"), "--query", str(arity))
    assert code == 1
    assert "arity" in err


def test_cli_budget_env_resource_exit(capsys, monkeypatch):
    monkeypatch.setenv("CQCOUNT_BUDGET", "2")
    code, _, err = run_cli(
        capsys, "count", "--db", str(DATA / "triangle.json"),
        "--query", str(DATA / "edge.query"), "--mode", "brute")
    assert code == 2
    assert "budget" in err.lower()

    for raw, message in (("banana", "must be an integer"), ("0", "must be positive")):
        monkeypatch.setenv("CQCOUNT_BUDGET", raw)
        code, out, err = run_cli(
            capsys, "count", "--db", str(DATA / "triangle.json"),
            "--query", str(DATA / "edge.query"))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: CQCOUNT_BUDGET {message}")


@pytest.mark.parametrize("argv", [["decide"], ["count", "--mode", "brute"]])
def test_deep_search_is_a_budget_error(argv, capsys, tmp_path):
    # A 1,500-atom Boolean path into K3 recurses deeper than Python allows.
    atoms = ", ".join(f"E(v{i},v{i + 1})" for i in range(1500))
    query = tmp_path / "path.query"
    query.write_text(f"answer() :- {atoms}.")
    db = tmp_path / "k3.json"
    db.write_text(json.dumps(structure_to_dict(clique_graph(3))))
    args = [*argv, "--db", str(db), "--query", str(query)]
    message = "resource budget exceeded: homomorphism search depth 1501"
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (2, "")
    assert err.startswith(message)
    # The same through a fresh interpreter, whose stack starts shallow.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "cqcount.cli", *args],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(message)
    assert "Traceback" not in proc.stderr
