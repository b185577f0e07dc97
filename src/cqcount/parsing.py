"""Query text parsing, rendering, and database file loading.

Grammar (whitespace insensitive, one query per file):

    query := head ":-" body "."
    head  := "answer" "(" [var ("," var)*] ")"
    body  := atom ("," atom)*
    atom  := NAME "(" var ("," var)* ")"
    var   := [a-zA-Z][a-zA-Z0-9_]*
    NAME  := [A-Za-z][A-Za-z0-9_]*

Databases are JSON: {"domain": [...] (optional), "relations":
{NAME: {"arity": int, "tuples": [[...], ...]}}}. Relation names starting
with "__" are reserved for the library and rejected on load.
"""

from __future__ import annotations

import json
import re
import warnings
from pathlib import Path
from typing import List, Tuple, Union

from .errors import InputError
from .structures import (
    ConjunctiveQuery,
    RelationalStructure,
    RESERVED_PREFIX,
    Vocabulary,
    structure_from_dict,
)

HEAD_NAME = "answer"
# Arities of user relations, in queries and databases alike, lie in 1..8.
DEFAULT_ARITY_CAP = 8


class QueryWarning(UserWarning):
    """Accepted-but-suspicious query constructs (e.g. isolated head variables)."""


class DatabaseWarning(UserWarning):
    """Accepted-but-suspicious database contents (e.g. duplicate tuples)."""


_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*|:-|[(),.]")
_SPACE_RE = re.compile(r"\s+")


def _line_col(text: str, offset: int) -> Tuple[int, int]:
    line = text.count("\n", 0, offset) + 1
    last = text.rfind("\n", 0, offset)
    return line, offset - last


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: List[Tuple[str, int]] = []
        pos = 0
        while pos < len(text):
            space = _SPACE_RE.match(text, pos)
            if space:
                pos = space.end()
                continue
            tok = _TOKEN_RE.match(text, pos)
            if not tok:
                line, col = _line_col(text, pos)
                raise InputError(
                    f"syntax error at line {line}, column {col}: "
                    f"unexpected character {text[pos]!r}"
                )
            self.items.append((tok.group(), pos))
            pos = tok.end()
        self.index = 0

    def peek(self) -> str:
        return self.items[self.index][0] if self.index < len(self.items) else ""

    def _fail(self, expected: str):
        if self.index < len(self.items):
            tok, offset = self.items[self.index]
            line, col = _line_col(self.text, offset)
            raise InputError(
                f"syntax error at line {line}, column {col}: "
                f"expected {expected}, found {tok!r}"
            )
        line, col = _line_col(self.text, len(self.text))
        raise InputError(
            f"syntax error at line {line}, column {col}: expected {expected}, "
            f"found end of input"
        )

    def take(self, expected: str) -> str:
        if self.peek() != expected:
            self._fail(f"{expected!r}")
        self.index += 1
        return expected

    def take_name(self, what: str) -> str:
        tok = self.peek()
        if not tok or not tok[0].isalpha():
            self._fail(what)
        self.index += 1
        return tok

    def done(self) -> bool:
        return self.index >= len(self.items)


def parse_query(text: str) -> ConjunctiveQuery:
    """Parse query text into its natural model plus the ordered head tuple.

    The model's domain lists the head variables first (head order), then the
    remaining body variables sorted, so rendering and re-parsing reproduces
    the value exactly. A head variable absent from the body is accepted but
    flagged with a QueryWarning.
    """
    toks = _Tokens(text)
    head = toks.take_name(f"{HEAD_NAME!r}")
    if head != HEAD_NAME:
        raise InputError(f"queries must start with {HEAD_NAME!r}, found {head!r}")
    toks.take("(")
    head_vars: List[str] = []
    if toks.peek() != ")":
        head_vars.append(toks.take_name("a variable"))
        while toks.peek() == ",":
            toks.take(",")
            head_vars.append(toks.take_name("a variable"))
    toks.take(")")
    toks.take(":-")
    atoms: List[Tuple[str, Tuple[str, ...]]] = []
    while True:
        name = toks.take_name("a relation name")
        if name == HEAD_NAME:
            raise InputError(f"{HEAD_NAME!r} cannot be used as a body relation")
        toks.take("(")
        args = [toks.take_name("a variable")]
        while toks.peek() == ",":
            toks.take(",")
            args.append(toks.take_name("a variable"))
        toks.take(")")
        atoms.append((name, tuple(args)))
        if toks.peek() == ",":
            toks.take(",")
            continue
        break
    toks.take(".")
    if not toks.done():
        toks._fail("end of input")

    arities = {}
    for name, args in atoms:
        if name in arities and arities[name] != len(args):
            raise InputError(
                f"relation {name!r} is used with arities {arities[name]} and {len(args)}"
            )
        if len(args) > DEFAULT_ARITY_CAP:
            raise InputError(f"relation {name!r} has arity {len(args)}, outside 1..{DEFAULT_ARITY_CAP}")
        arities[name] = len(args)
    body_vars = {v for _, args in atoms for v in args}
    for v in head_vars:
        if v not in body_vars:
            warnings.warn(
                f"head variable {v!r} does not occur in the body; it ranges "
                f"freely over the database domain",
                QueryWarning,
                stacklevel=2,
            )
    domain = list(head_vars) + sorted(body_vars - set(head_vars))
    relations = {}
    for name, args in atoms:
        relations.setdefault(name, set()).add(args)
    structure = RelationalStructure(Vocabulary(arities), tuple(domain), relations)
    return ConjunctiveQuery(structure, tuple(head_vars))


def render_query(q: ConjunctiveQuery) -> str:
    """Render a query back to text (atoms in canonical order).

    Only natural models of the grammar render faithfully: a quantified
    variable occurring in no atom has no place in the text.
    """
    atoms = q.structure.atoms()
    atoms = [(name, t) for name, t in atoms if t]
    if not atoms:
        raise InputError("cannot render a query without atoms")
    rendered = ", ".join(f"{name}({','.join(t)})" for name, t in atoms)
    return f"{HEAD_NAME}({','.join(q.free_vars)}) :- {rendered}."


def load_database(path: Union[str, Path]) -> RelationalStructure:
    """Load a database file, enforcing the user-facing restrictions.

    Relation names must not use the reserved prefix, arities must lie in
    1..8 as in queries (structures themselves accept any arity), and
    elements must be strings. Duplicate tuples are collapsed with a warning.
    """
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict) or not isinstance(data.get("relations"), dict):
        raise InputError(f'{path} must be a JSON object with a "relations" object')
    structure = structure_from_dict(data)
    for name, arity in structure.vocabulary.symbols.items():
        if name.startswith(RESERVED_PREFIX):
            raise InputError(f"relation names may not start with {RESERVED_PREFIX!r}")
        if not 1 <= arity <= DEFAULT_ARITY_CAP:
            raise InputError(
                f"relation {name!r} has arity {arity}, outside 1..{DEFAULT_ARITY_CAP}")
    for name, body in data["relations"].items():
        kept = len(structure.tuples(name))
        dupes = len(body["tuples"]) - kept
        if dupes:
            warnings.warn(
                f"relation {name!r}: {dupes} duplicate tuple(s) collapsed, {kept} kept",
                DatabaseWarning,
                stacklevel=2,
            )
    return structure
