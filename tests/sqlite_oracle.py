"""Answer counts by SQLite, an engine that shares no code with cqcount.

Nothing here imports ``cqcount``: a query and a database are read through
their plain attributes (``structure.relations``, ``structure.domain``,
``free_vars``, ``relations``, ``domain``), so a count cannot agree with the
library by sharing its bugs. The standard-library ``sqlite3`` module is
imported unconditionally: where it is missing, the tests that use this
helper fail at collection instead of being skipped.

A query becomes one statement over an in-memory database:

- one alias per atom with variables, and an equality for each later
  occurrence of a variable;
- the ``dom`` table cross-joined once per free variable in no atom;
- an ``EXISTS`` on ``dom`` when a quantified variable is in no atom;
- each 0-ary relation as a one-column table, tested by ``EXISTS``;
- ``COUNT(*)`` over the distinct free-variable rows, or over at most one
  row when the query is Boolean, so a Boolean count is 0 or 1.
"""

from __future__ import annotations

import sqlite3
from contextlib import closing

# SQLite joins at most 64 tables in one SELECT.
MAX_TABLES = 64


def count_answers_sql(query, db) -> int:
    """The number of distinct free-variable tuples of all matches of ``query`` in ``db``.

    ValueError for a query that would join more than ``MAX_TABLES`` tables;
    such queries are out of this helper's scope.
    """
    relations = query.structure.relations
    names = sorted(relations)
    table = {name: f"r{i}" for i, name in enumerate(names)}
    atoms = [(name, t) for name in names for t in sorted(relations[name])]
    free = list(query.free_vars)
    column = {}  # variable -> the first column it occurs in
    tables, where = [], []
    for k, (name, t) in enumerate(atoms):
        if not t:
            where.append(f"EXISTS (SELECT 1 FROM {table[name]})")
            continue
        tables.append(f"{table[name]} AS a{k}")
        for i, v in enumerate(t):
            if v in column:
                where.append(f"a{k}.c{i} = {column[v]}")
            else:
                column[v] = f"a{k}.c{i}"
    for k, v in enumerate(v for v in free if v not in column):
        tables.append(f"dom AS d{k}")
        column[v] = f"d{k}.v"
    if any(v not in column for v in query.structure.domain):
        where.append("EXISTS (SELECT 1 FROM dom)")
    if len(tables) > MAX_TABLES:
        raise ValueError(f"query joins {len(tables)} tables; SQLite joins at most {MAX_TABLES}")
    body = ""
    if tables:
        body += " FROM " + ", ".join(tables)
    if where:
        body += " WHERE " + " AND ".join(where)
    if free:
        inner = "SELECT DISTINCT " + ", ".join(column[v] for v in free) + body
    else:
        inner = "SELECT 1" + body + " LIMIT 1"
    with closing(sqlite3.connect(":memory:")) as conn:
        conn.execute("CREATE TABLE dom (v)")
        conn.executemany("INSERT INTO dom VALUES (?)", [(e,) for e in db.domain])
        for name in names:
            rows = db.relations.get(name, ())
            arity = query.structure.vocabulary.symbols[name]
            if arity == 0:
                conn.execute(f"CREATE TABLE {table[name]} (c0)")
                if () in rows:
                    conn.execute(f"INSERT INTO {table[name]} VALUES (1)")
                continue
            columns = ", ".join(f"c{i}" for i in range(arity))
            conn.execute(f"CREATE TABLE {table[name]} ({columns})")
            marks = ", ".join("?" * arity)
            conn.executemany(f"INSERT INTO {table[name]} VALUES ({marks})", rows)
        return conn.execute(f"SELECT COUNT(*) FROM ({inner})").fetchone()[0]
