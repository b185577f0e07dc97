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
import os
import re
import reprlib
import warnings
from functools import partial
from pathlib import Path
from typing import Callable, List, Tuple, Union

from .errors import InputError, _require
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
                f"expected {expected}, found {reprlib.repr(tok)}"
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

    def comma_list(self, item: Callable[[], object]) -> list:
        """One or more ``item()`` results separated by commas."""
        items = [item()]
        while self.peek() == ",":
            self.take(",")
            items.append(item())
        return items

    def done(self) -> bool:
        return self.index >= len(self.items)


def parse_query(text: str) -> ConjunctiveQuery:
    """Parse query text into its natural model plus the ordered head tuple.

    The model's domain lists the head variables first (head order), then the
    remaining body variables sorted, so rendering and re-parsing reproduces
    the value exactly. A head variable absent from the body is accepted but
    flagged with a QueryWarning.
    """
    toks = _Tokens(_require(text, str))
    head = toks.take_name(f"{HEAD_NAME!r}")
    if head != HEAD_NAME:
        raise InputError(f"queries must start with {HEAD_NAME!r}, found {reprlib.repr(head)}")
    toks.take("(")
    variable = partial(toks.take_name, "a variable")
    head_vars = toks.comma_list(variable) if toks.peek() != ")" else []
    toks.take(")")
    toks.take(":-")

    def atom() -> Tuple[str, Tuple[str, ...]]:
        name = toks.take_name("a relation name")
        if name == HEAD_NAME:
            raise InputError(f"{HEAD_NAME!r} cannot be used as a body relation")
        toks.take("(")
        args = tuple(toks.comma_list(variable))
        toks.take(")")
        return name, args

    atoms = toks.comma_list(atom)
    toks.take(".")
    if not toks.done():
        toks._fail("end of input")

    arities = {}
    for name, args in atoms:
        if name in arities and arities[name] != len(args):
            raise InputError(
                f"relation {reprlib.repr(name)} is used with arities "
                f"{arities[name]} and {len(args)}"
            )
        if len(args) > DEFAULT_ARITY_CAP:
            raise InputError(f"relation {reprlib.repr(name)} has arity {len(args)}, "
                             f"outside 1..{DEFAULT_ARITY_CAP}")
        arities[name] = len(args)
    body_vars = {v for _, args in atoms for v in args}
    for v in head_vars:
        if v not in body_vars:
            warnings.warn(
                f"head variable {reprlib.repr(v)} does not occur in the body; it ranges "
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
    atoms = [(name, t) for name, t in _require(q, ConjunctiveQuery).structure.atoms() if t]
    if not atoms:
        raise InputError("cannot render a query without atoms")
    rendered = ", ".join(f"{name}({','.join(t)})" for name, t in atoms)
    return f"{HEAD_NAME}({','.join(q.free_vars)}) :- {rendered}."


# Longest file path an error message shows in full.
SHOWN_PATH_CAP = 120


def _shown_path(path: Union[str, Path]) -> str:
    """``path`` for an error message: as given, or its two ends past ``SHOWN_PATH_CAP`` characters."""
    text = str(path)
    if len(text) <= SHOWN_PATH_CAP:
        return text
    half = SHOWN_PATH_CAP // 2
    return f"{text[:half]}...{text[-half:]}"


def _read_text(path: Union[str, Path]) -> str:
    """A file's UTF-8 text; InputError naming the path once, and why it cannot be read."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        reason = exc.strerror or type(exc).__name__
    except UnicodeDecodeError as exc:
        reason = f"not UTF-8 ({exc.reason})"
    raise InputError(f"cannot read {_shown_path(path)}: {reason}")


def load_database(path: Union[str, Path]) -> RelationalStructure:
    """Load a database file, enforcing the user-facing restrictions.

    Relation names must not use the reserved prefix, arities must lie in
    1..8 as in queries (structures themselves accept any arity), and
    elements must be strings. Duplicate tuples are collapsed with a warning.
    """
    if not isinstance(path, (str, os.PathLike)):
        raise InputError(f"expected a str or os.PathLike path, got {type(path).__name__}")
    raw = _read_text(path)
    shown = _shown_path(path)
    try:
        data = json.loads(raw)
    except ValueError as exc:
        # Malformed JSON, or a number past Python's int/str digit limit.
        raise InputError(f"cannot read {shown} as JSON: {exc}") from None
    except RecursionError:
        raise InputError(f"{shown} nests deeper than the recursion limit") from None
    if not isinstance(data, dict) or not isinstance(data.get("relations"), dict):
        raise InputError(f'{shown} must be a JSON object with a "relations" object')
    structure = structure_from_dict(data)
    for name, arity in structure.vocabulary.symbols.items():
        if name.startswith(RESERVED_PREFIX):
            raise InputError(f"relation names may not start with {RESERVED_PREFIX!r}")
        if not 1 <= arity <= DEFAULT_ARITY_CAP:
            raise InputError(
                f"relation {reprlib.repr(name)} has arity {arity}, outside 1..{DEFAULT_ARITY_CAP}")
    for name, body in data["relations"].items():
        kept = len(structure.tuples(name))
        dupes = len(body["tuples"]) - kept
        if dupes:
            warnings.warn(
                f"relation {reprlib.repr(name)}: {dupes} duplicate tuple(s) collapsed, {kept} kept",
                DatabaseWarning,
                stacklevel=2,
            )
    return structure
