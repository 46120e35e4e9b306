"""SQL subset parser.

The TPC-W servlets speak SQL to the data tier, so the engine accepts a
pragmatic subset of MySQL's dialect — enough for every query TPC-W issues:

* ``SELECT`` with column lists or ``*``, aggregates (``COUNT(*)``, ``SUM``,
  ``AVG``, ``MIN``, ``MAX``), ``JOIN ... ON a.x = b.y`` chains, ``WHERE``
  conjunctions, ``GROUP BY``, ``ORDER BY ... [ASC|DESC]`` and ``LIMIT``.
* ``INSERT INTO t (cols) VALUES (...)``
* ``UPDATE t SET col = expr [, ...] [WHERE ...]``
* ``DELETE FROM t [WHERE ...]``

Literals are integers, floats, single-quoted strings, ``NULL``, ``TRUE`` /
``FALSE``; ``?`` marks a positional parameter bound at execution time.

The parser produces small AST dataclasses consumed by
:mod:`repro.db.engine`; it performs no name resolution (the executor does).
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple, Union


class SqlSyntaxError(ValueError):
    """Raised when a statement cannot be parsed."""


# --------------------------------------------------------------------------- #
# AST
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ColumnRef:
    """A possibly table-qualified column reference."""

    name: str
    table: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Literal:
    """A literal value."""

    value: Any


@dataclass(frozen=True)
class Parameter:
    """A positional ``?`` parameter; ``index`` is its 0-based position."""

    index: int


@dataclass(frozen=True)
class Aggregate:
    """An aggregate call such as ``SUM(qty)`` or ``COUNT(*)``."""

    function: str                      # COUNT, SUM, AVG, MIN, MAX
    argument: Optional[ColumnRef]      # None means '*'
    alias: Optional[str] = None

    def default_name(self) -> str:
        arg = str(self.argument) if self.argument is not None else "*"
        return f"{self.function}({arg})"


@dataclass(frozen=True)
class SelectItem:
    """One item of the select list."""

    expression: Union[ColumnRef, Aggregate]
    alias: Optional[str] = None


@dataclass(frozen=True)
class Condition:
    """A simple comparison ``lhs op rhs``."""

    lhs: ColumnRef
    op: str                            # =, !=, <, >, <=, >=, LIKE
    rhs: Union[Literal, Parameter, ColumnRef]


@dataclass(frozen=True)
class Join:
    """An inner join clause."""

    table: str
    alias: Optional[str]
    left: ColumnRef
    right: ColumnRef


@dataclass(frozen=True)
class OrderBy:
    """An ORDER BY key."""

    expression: Union[ColumnRef, str]  # str refers to a select-list alias
    descending: bool = False


@dataclass
class SelectStatement:
    """Parsed SELECT statement."""

    items: List[SelectItem]
    star: bool
    table: str
    alias: Optional[str]
    joins: List[Join] = field(default_factory=list)
    where: List[Condition] = field(default_factory=list)
    group_by: List[ColumnRef] = field(default_factory=list)
    order_by: List[OrderBy] = field(default_factory=list)
    limit: Optional[int] = None
    #: The parser's count of ``?`` markers (every statement kind records
    #: it); ``None`` on a hand-built statement, which
    #: :func:`count_parameters` counts instead.
    parameter_count: Optional[int] = field(default=None, compare=False)


@dataclass
class InsertStatement:
    """Parsed INSERT statement."""

    table: str
    columns: List[str]
    values: List[Union[Literal, Parameter]]
    parameter_count: Optional[int] = field(default=None, compare=False)


@dataclass
class UpdateStatement:
    """Parsed UPDATE statement."""

    table: str
    assignments: List[Tuple[str, Union[Literal, Parameter]]]
    where: List[Condition] = field(default_factory=list)
    parameter_count: Optional[int] = field(default=None, compare=False)


@dataclass
class DeleteStatement:
    """Parsed DELETE statement."""

    table: str
    where: List[Condition] = field(default_factory=list)
    parameter_count: Optional[int] = field(default=None, compare=False)


Statement = Union[SelectStatement, InsertStatement, UpdateStatement, DeleteStatement]


def count_parameters(statement: Statement) -> int:
    """Parameters a statement needs: one past its highest ``?`` index.

    For a parsed statement that is its number of ``?`` markers, which the
    parser records as ``parameter_count``; a hand-built one is counted here.
    """
    values: List[Any] = [condition.rhs for condition in getattr(statement, "where", ())]
    if isinstance(statement, InsertStatement):
        values.extend(statement.values)
    elif isinstance(statement, UpdateStatement):
        values.extend(value for _, value in statement.assignments)
    return max((value.index + 1 for value in values if isinstance(value, Parameter)), default=0)


# --------------------------------------------------------------------------- #
# Tokenizer
# --------------------------------------------------------------------------- #
_TOKEN_RE = re.compile(
    r"""
    \s*(?:
        (?P<string>'(?:[^']|'')*')
      | (?P<float>\d+\.\d+)
      | (?P<int>\d+)
      | (?P<op><>|<=|>=|!=|=|<|>)
      | (?P<punct>[(),*?])
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)?)
    )
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "SELECT", "FROM", "WHERE", "AND", "JOIN", "INNER", "ON", "GROUP", "ORDER",
    "BY", "ASC", "DESC", "LIMIT", "INSERT", "INTO", "VALUES", "UPDATE", "SET",
    "DELETE", "AS", "LIKE", "NULL", "TRUE", "FALSE", "COUNT", "SUM", "AVG",
    "MIN", "MAX",
}


@dataclass
class _Token:
    kind: str      # STRING, FLOAT, INT, OP, PUNCT, IDENT, KEYWORD
    text: str
    value: Any = None


def _tokenize(sql: str) -> List[_Token]:
    tokens: List[_Token] = []
    index = 0
    text = sql.strip().rstrip(";")
    while index < len(text):
        match = _TOKEN_RE.match(text, index)
        if match is None or match.end() == index:
            raise SqlSyntaxError(f"cannot tokenize SQL near {text[index:index + 20]!r}")
        index = match.end()
        if match.group("string") is not None:
            raw = match.group("string")[1:-1].replace("''", "'")
            tokens.append(_Token("STRING", match.group("string"), raw))
        elif match.group("float") is not None:
            tokens.append(_Token("FLOAT", match.group("float"), float(match.group("float"))))
        elif match.group("int") is not None:
            tokens.append(_Token("INT", match.group("int"), int(match.group("int"))))
        elif match.group("op") is not None:
            op = match.group("op")
            tokens.append(_Token("OP", "!=" if op == "<>" else op))
        elif match.group("punct") is not None:
            tokens.append(_Token("PUNCT", match.group("punct")))
        elif match.group("ident") is not None:
            ident = match.group("ident")
            if ident.upper() in _KEYWORDS and "." not in ident:
                tokens.append(_Token("KEYWORD", ident.upper()))
            else:
                tokens.append(_Token("IDENT", ident))
    return tokens


# --------------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------------- #
class _SqlParser:
    def __init__(self, sql: str) -> None:
        self.sql = sql
        self.tokens = _tokenize(sql)
        self.position = 0
        self.parameter_count = 0

    # -- token helpers -------------------------------------------------- #
    def _peek(self) -> Optional[_Token]:
        if self.position < len(self.tokens):
            return self.tokens[self.position]
        return None

    def _pop(self) -> _Token:
        token = self._peek()
        if token is None:
            raise SqlSyntaxError(f"unexpected end of statement: {self.sql!r}")
        self.position += 1
        return token

    def _expect_keyword(self, keyword: str) -> None:
        token = self._pop()
        if token.kind != "KEYWORD" or token.text != keyword:
            raise SqlSyntaxError(f"expected {keyword}, got {token.text!r} in {self.sql!r}")

    def _expect_punct(self, punct: str) -> None:
        token = self._pop()
        if token.kind != "PUNCT" or token.text != punct:
            raise SqlSyntaxError(f"expected {punct!r}, got {token.text!r} in {self.sql!r}")

    def _match_keyword(self, *keywords: str) -> Optional[str]:
        token = self._peek()
        if token is not None and token.kind == "KEYWORD" and token.text in keywords:
            self.position += 1
            return token.text
        return None

    def _match_punct(self, punct: str) -> bool:
        token = self._peek()
        if token is not None and token.kind == "PUNCT" and token.text == punct:
            self.position += 1
            return True
        return False

    def _expect_ident(self) -> str:
        token = self._pop()
        if token.kind != "IDENT":
            raise SqlSyntaxError(f"expected identifier, got {token.text!r} in {self.sql!r}")
        return token.text

    # -- expression helpers --------------------------------------------- #
    @staticmethod
    def _column_ref(ident: str) -> ColumnRef:
        if "." in ident:
            table, _, name = ident.partition(".")
            return ColumnRef(name=name, table=table)
        return ColumnRef(name=ident)

    def _parse_value(self) -> Union[Literal, Parameter, ColumnRef]:
        token = self._pop()
        if token.kind in ("STRING", "FLOAT", "INT"):
            return Literal(token.value)
        if token.kind == "PUNCT" and token.text == "?":
            parameter = Parameter(self.parameter_count)
            self.parameter_count += 1
            return parameter
        if token.kind == "KEYWORD" and token.text == "NULL":
            return Literal(None)
        if token.kind == "KEYWORD" and token.text in ("TRUE", "FALSE"):
            return Literal(token.text == "TRUE")
        if token.kind == "IDENT":
            return self._column_ref(token.text)
        raise SqlSyntaxError(f"expected a value, got {token.text!r} in {self.sql!r}")

    def _parse_conditions(self) -> List[Condition]:
        conditions: List[Condition] = []
        while True:
            lhs_token = self._pop()
            if lhs_token.kind != "IDENT":
                raise SqlSyntaxError(
                    f"expected column in WHERE clause, got {lhs_token.text!r}"
                )
            lhs = self._column_ref(lhs_token.text)
            op_token = self._pop()
            if op_token.kind == "OP":
                op = op_token.text
            elif op_token.kind == "KEYWORD" and op_token.text == "LIKE":
                op = "LIKE"
            else:
                raise SqlSyntaxError(
                    f"expected comparison operator, got {op_token.text!r} in {self.sql!r}"
                )
            rhs = self._parse_value()
            conditions.append(Condition(lhs=lhs, op=op, rhs=rhs))
            if self._match_keyword("AND") is None:
                break
        return conditions

    # -- statements ------------------------------------------------------ #
    def parse(self) -> Statement:
        keyword = self._match_keyword("SELECT", "INSERT", "UPDATE", "DELETE")
        if keyword == "SELECT":
            statement = self._parse_select()
        elif keyword == "INSERT":
            statement = self._parse_insert()
        elif keyword == "UPDATE":
            statement = self._parse_update()
        elif keyword == "DELETE":
            statement = self._parse_delete()
        else:
            token = self._peek()
            raise SqlSyntaxError(
                f"statement must start with SELECT/INSERT/UPDATE/DELETE, "
                f"got {(token.text if token else '<empty>')!r}"
            )
        if self._peek() is not None:
            raise SqlSyntaxError(f"trailing tokens after statement: {self.sql!r}")
        statement.parameter_count = self.parameter_count
        return statement

    def _parse_select(self) -> SelectStatement:
        items: List[SelectItem] = []
        star = False
        if self._match_punct("*"):
            star = True
        else:
            while True:
                items.append(self._parse_select_item())
                if not self._match_punct(","):
                    break
        self._expect_keyword("FROM")
        table = self._expect_ident()
        alias = self._parse_optional_alias()

        joins: List[Join] = []
        while True:
            if self._match_keyword("INNER"):
                self._expect_keyword("JOIN")
            elif self._match_keyword("JOIN") is None:
                break
            join_table = self._expect_ident()
            join_alias = self._parse_optional_alias()
            self._expect_keyword("ON")
            left_ident = self._expect_ident()
            op = self._pop()
            if op.kind != "OP" or op.text != "=":
                raise SqlSyntaxError("JOIN ... ON only supports equality conditions")
            right_ident = self._expect_ident()
            joins.append(
                Join(
                    table=join_table,
                    alias=join_alias,
                    left=self._column_ref(left_ident),
                    right=self._column_ref(right_ident),
                )
            )

        where: List[Condition] = []
        if self._match_keyword("WHERE"):
            where = self._parse_conditions()

        group_by: List[ColumnRef] = []
        if self._match_keyword("GROUP"):
            self._expect_keyword("BY")
            while True:
                group_by.append(self._column_ref(self._expect_ident()))
                if not self._match_punct(","):
                    break

        order_by: List[OrderBy] = []
        if self._match_keyword("ORDER"):
            self._expect_keyword("BY")
            while True:
                token = self._pop()
                expression: Union[ColumnRef, str]
                if token.kind == "IDENT":
                    expression = self._column_ref(token.text)
                elif token.kind == "KEYWORD" and token.text in ("COUNT", "SUM", "AVG", "MIN", "MAX"):
                    # ORDER BY SUM(col) style: re-parse as aggregate and refer
                    # to its default name.
                    aggregate = self._parse_aggregate(token.text)
                    expression = aggregate.default_name()
                else:
                    raise SqlSyntaxError(f"invalid ORDER BY expression near {token.text!r}")
                descending = False
                direction = self._match_keyword("ASC", "DESC")
                if direction == "DESC":
                    descending = True
                order_by.append(OrderBy(expression=expression, descending=descending))
                if not self._match_punct(","):
                    break

        limit: Optional[int] = None
        if self._match_keyword("LIMIT"):
            token = self._pop()
            if token.kind != "INT":
                raise SqlSyntaxError(f"LIMIT expects an integer, got {token.text!r}")
            limit = int(token.value)

        return SelectStatement(
            items=items,
            star=star,
            table=table,
            alias=alias,
            joins=joins,
            where=where,
            group_by=group_by,
            order_by=order_by,
            limit=limit,
        )

    def _parse_optional_alias(self) -> Optional[str]:
        if self._match_keyword("AS"):
            return self._expect_ident()
        token = self._peek()
        if token is not None and token.kind == "IDENT":
            self.position += 1
            return token.text
        return None

    def _parse_aggregate(self, function: str) -> Aggregate:
        self._expect_punct("(")
        if self._match_punct("*"):
            argument: Optional[ColumnRef] = None
        else:
            argument = self._column_ref(self._expect_ident())
        self._expect_punct(")")
        return Aggregate(function=function, argument=argument)

    def _parse_select_item(self) -> SelectItem:
        token = self._pop()
        expression: Union[ColumnRef, Aggregate]
        if token.kind == "KEYWORD" and token.text in ("COUNT", "SUM", "AVG", "MIN", "MAX"):
            expression = self._parse_aggregate(token.text)
        elif token.kind == "IDENT":
            expression = self._column_ref(token.text)
        else:
            raise SqlSyntaxError(f"invalid select item near {token.text!r} in {self.sql!r}")
        alias: Optional[str] = None
        if self._match_keyword("AS"):
            alias = self._expect_ident()
        return SelectItem(expression=expression, alias=alias)

    def _parse_insert(self) -> InsertStatement:
        self._expect_keyword("INTO")
        table = self._expect_ident()
        self._expect_punct("(")
        columns: List[str] = []
        while True:
            column = self._expect_ident()
            if column in columns:
                raise SqlSyntaxError(f"column {column!r} specified twice in {self.sql!r}")
            columns.append(column)
            if not self._match_punct(","):
                break
        self._expect_punct(")")
        self._expect_keyword("VALUES")
        self._expect_punct("(")
        values: List[Union[Literal, Parameter]] = []
        while True:
            value = self._parse_value()
            if isinstance(value, ColumnRef):
                raise SqlSyntaxError("INSERT values must be literals or parameters")
            values.append(value)
            if not self._match_punct(","):
                break
        self._expect_punct(")")
        if len(columns) != len(values):
            raise SqlSyntaxError(
                f"INSERT column count {len(columns)} != value count {len(values)}"
            )
        return InsertStatement(table=table, columns=columns, values=values)

    def _parse_update(self) -> UpdateStatement:
        table = self._expect_ident()
        self._expect_keyword("SET")
        assignments: List[Tuple[str, Union[Literal, Parameter]]] = []
        while True:
            column = self._expect_ident()
            op = self._pop()
            if op.kind != "OP" or op.text != "=":
                raise SqlSyntaxError(f"expected '=' in UPDATE SET, got {op.text!r}")
            value = self._parse_value()
            if isinstance(value, ColumnRef):
                raise SqlSyntaxError("UPDATE SET values must be literals or parameters")
            assignments.append((column, value))
            if not self._match_punct(","):
                break
        where: List[Condition] = []
        if self._match_keyword("WHERE"):
            where = self._parse_conditions()
        return UpdateStatement(table=table, assignments=assignments, where=where)

    def _parse_delete(self) -> DeleteStatement:
        self._expect_keyword("FROM")
        table = self._expect_ident()
        where: List[Condition] = []
        if self._match_keyword("WHERE"):
            where = self._parse_conditions()
        return DeleteStatement(table=table, where=where)


@functools.lru_cache(maxsize=1024)
def parse_sql(sql: str) -> Statement:
    """Parse a SQL statement into an AST node (cached per SQL string).

    The servlets issue a fixed repertoire of parameterised statements
    (values travel via ``?`` parameters, never via the SQL text), so the
    same strings are parsed millions of times per experiment; re-tokenising
    them was the single largest interpreter cost of a simulated request.
    Statement ASTs are treated as immutable by the executors, so sharing one
    tree per SQL string is safe.  (Syntax errors are not cached.)

    Raises
    ------
    SqlSyntaxError
        If the statement is outside the supported subset.
    """
    if not sql or not sql.strip():
        raise SqlSyntaxError("empty SQL statement")
    return _SqlParser(sql).parse()
