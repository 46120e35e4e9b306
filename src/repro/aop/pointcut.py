"""Pointcut expression language.

A useful subset of AspectJ's pointcut syntax, enough to express everything
the paper's Aspect Component needs ("every application-component execution")
plus the finer-grained selections the front-end offers (monitor only a set
of components, or only specific methods):

Primitive designators
    ``execution(TYPE_PATTERN.METHOD_PATTERN)``
        Matches method executions whose declaring type matches
        ``TYPE_PATTERN`` and whose method name matches ``METHOD_PATTERN``.
    ``within(TYPE_PATTERN)``
        Matches any method execution inside a matching type.

Patterns
    ``*``   matches any run of characters except the package separator ``.``
    ``..``  (in type patterns) matches any run of characters including dots,
            i.e. any sub-package chain.

Combinators
    ``!expr``, ``expr && expr``, ``expr || expr`` and parentheses, with the
    usual precedence (``!`` > ``&&`` > ``||``).

Examples
--------
``execution(org.tpcw.servlet.*.do*)``
    every ``do...`` method of every TPC-W servlet.
``execution(org.tpcw..*.service) && !within(org.tpcw.servlet.TPCW_admin_*)``
    all ``service`` methods except the admin servlets.
"""

from __future__ import annotations

import functools
import re
from typing import List, Optional

from repro.aop.joinpoint import JoinPoint


class PointcutSyntaxError(ValueError):
    """Raised when a pointcut expression cannot be parsed."""


# --------------------------------------------------------------------------- #
# Pattern compilation
# --------------------------------------------------------------------------- #
# Both compilers are cached per pattern string, as :func:`parse_pointcut` is:
# every deployment's Aspect Components build their pointcuts from the same
# patterns as the last deployment's, and a compiled regex is immutable.
@functools.lru_cache(maxsize=512)
def _compile_type_pattern(pattern: str) -> "re.Pattern[str]":
    """Compile a type pattern (``*`` stays within a segment, ``..`` crosses)."""
    if not pattern:
        raise PointcutSyntaxError("empty type pattern")
    out: List[str] = []
    index = 0
    while index < len(pattern):
        char = pattern[index]
        if pattern.startswith("..", index):
            out.append(r"[A-Za-z0-9_.$]*")
            index += 2
        elif char == "*":
            out.append(r"[A-Za-z0-9_$]*")
            index += 1
        elif char == ".":
            out.append(r"\.")
            index += 1
        elif re.match(r"[A-Za-z0-9_$]", char):
            out.append(re.escape(char))
            index += 1
        else:
            raise PointcutSyntaxError(f"invalid character {char!r} in type pattern {pattern!r}")
    return re.compile("^" + "".join(out) + "$")


@functools.lru_cache(maxsize=512)
def _compile_method_pattern(pattern: str) -> "re.Pattern[str]":
    """Compile a method-name pattern (only ``*`` wildcards)."""
    if not pattern:
        raise PointcutSyntaxError("empty method pattern")
    out: List[str] = []
    for char in pattern:
        if char == "*":
            out.append(r"[A-Za-z0-9_$]*")
        elif re.match(r"[A-Za-z0-9_$]", char):
            out.append(re.escape(char))
        else:
            raise PointcutSyntaxError(f"invalid character {char!r} in method pattern {pattern!r}")
    return re.compile("^" + "".join(out) + "$")


# --------------------------------------------------------------------------- #
# AST nodes
# --------------------------------------------------------------------------- #
class Pointcut:
    """Base class of all pointcut expressions.

    ``matches_signature`` results are memoised per ``(declaring_type,
    method_name)`` pair: the weaver statically matches every candidate method
    of every target against every registered advice, and the same signatures
    recur for each woven instance (one deployment weaves one AC per servlet
    against fourteen servlet classes).  Pointcut trees are immutable after
    construction, so the cache never needs invalidation.
    """

    def __init__(self) -> None:
        self._signature_cache: dict = {}

    def matches(self, join_point: JoinPoint) -> bool:
        """Whether this pointcut selects the given join point."""
        raise NotImplementedError

    def matches_signature(self, declaring_type: str, method_name: str) -> bool:
        """Static matching against a bare signature (used by the weaver)."""
        key = (declaring_type, method_name)
        cached = self._signature_cache.get(key)
        if cached is None:
            cached = self._signature_cache[key] = self._match_signature(
                declaring_type, method_name
            )
        return cached

    def _match_signature(self, declaring_type: str, method_name: str) -> bool:
        """Uncached signature matching implemented by each node type."""
        raise NotImplementedError

    # Operator sugar so pointcuts compose programmatically too.
    def __and__(self, other: "Pointcut") -> "Pointcut":
        return AndPointcut(self, other)

    def __or__(self, other: "Pointcut") -> "Pointcut":
        return OrPointcut(self, other)

    def __invert__(self) -> "Pointcut":
        return NotPointcut(self)


class ExecutionPointcut(Pointcut):
    """``execution(TYPE_PATTERN.METHOD_PATTERN)``"""

    def __init__(self, type_pattern: str, method_pattern: str) -> None:
        super().__init__()
        self.type_pattern = type_pattern
        self.method_pattern = method_pattern
        self._type_re = _compile_type_pattern(type_pattern)
        self._method_re = _compile_method_pattern(method_pattern)

    def _match_signature(self, declaring_type: str, method_name: str) -> bool:
        return bool(
            self._type_re.match(declaring_type) and self._method_re.match(method_name)
        )

    def matches(self, join_point: JoinPoint) -> bool:
        return self.matches_signature(
            join_point.signature.declaring_type, join_point.signature.method_name
        )

    def __repr__(self) -> str:
        return f"execution({self.type_pattern}.{self.method_pattern})"


class WithinPointcut(Pointcut):
    """``within(TYPE_PATTERN)``"""

    def __init__(self, type_pattern: str) -> None:
        super().__init__()
        self.type_pattern = type_pattern
        self._type_re = _compile_type_pattern(type_pattern)

    def _match_signature(self, declaring_type: str, method_name: str) -> bool:
        return bool(self._type_re.match(declaring_type))

    def matches(self, join_point: JoinPoint) -> bool:
        return bool(self._type_re.match(join_point.signature.declaring_type))

    def __repr__(self) -> str:
        return f"within({self.type_pattern})"


class AndPointcut(Pointcut):
    """Conjunction of two pointcuts."""

    def __init__(self, left: Pointcut, right: Pointcut) -> None:
        super().__init__()
        self.left = left
        self.right = right

    def _match_signature(self, declaring_type: str, method_name: str) -> bool:
        return self.left.matches_signature(declaring_type, method_name) and self.right.matches_signature(
            declaring_type, method_name
        )

    def matches(self, join_point: JoinPoint) -> bool:
        return self.left.matches(join_point) and self.right.matches(join_point)

    def __repr__(self) -> str:
        return f"({self.left!r} && {self.right!r})"


class OrPointcut(Pointcut):
    """Disjunction of two pointcuts."""

    def __init__(self, left: Pointcut, right: Pointcut) -> None:
        super().__init__()
        self.left = left
        self.right = right

    def _match_signature(self, declaring_type: str, method_name: str) -> bool:
        return self.left.matches_signature(declaring_type, method_name) or self.right.matches_signature(
            declaring_type, method_name
        )

    def matches(self, join_point: JoinPoint) -> bool:
        return self.left.matches(join_point) or self.right.matches(join_point)

    def __repr__(self) -> str:
        return f"({self.left!r} || {self.right!r})"


class NotPointcut(Pointcut):
    """Negation of a pointcut."""

    def __init__(self, inner: Pointcut) -> None:
        super().__init__()
        self.inner = inner

    def _match_signature(self, declaring_type: str, method_name: str) -> bool:
        return not self.inner.matches_signature(declaring_type, method_name)

    def matches(self, join_point: JoinPoint) -> bool:
        return not self.inner.matches(join_point)

    def __repr__(self) -> str:
        return f"!{self.inner!r}"


# --------------------------------------------------------------------------- #
# Parser (recursive descent over a small token stream)
# --------------------------------------------------------------------------- #
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<and>&&)|(?P<or>\|\|)|(?P<not>!)|(?P<lparen>\()|(?P<rparen>\))"
    # The designator body may itself contain one level of parentheses, for
    # AspectJ-style argument lists: execution(* org.tpcw..*.service(..)).
    r"|(?P<designator>execution|within)\s*\(\s*(?P<body>[^()]*(?:\([^()]*\)[^()]*)*?)\s*\))"
)


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = self._tokenize(text)
        self.position = 0

    @staticmethod
    def _tokenize(text: str) -> List[tuple]:
        tokens: List[tuple] = []
        index = 0
        while index < len(text):
            match = _TOKEN_RE.match(text, index)
            if match is None:
                remainder = text[index:].strip()
                if not remainder:
                    break
                raise PointcutSyntaxError(f"cannot parse pointcut near {remainder!r}")
            if match.lastgroup is None and not match.group(0).strip():
                index = match.end()
                continue
            if match.group("and"):
                tokens.append(("and", None))
            elif match.group("or"):
                tokens.append(("or", None))
            elif match.group("not"):
                tokens.append(("not", None))
            elif match.group("lparen"):
                tokens.append(("lparen", None))
            elif match.group("rparen"):
                tokens.append(("rparen", None))
            elif match.group("designator"):
                tokens.append((match.group("designator"), match.group("body")))
            index = match.end()
        return tokens

    def _peek(self) -> Optional[tuple]:
        if self.position < len(self.tokens):
            return self.tokens[self.position]
        return None

    def _pop(self) -> tuple:
        token = self._peek()
        if token is None:
            raise PointcutSyntaxError(f"unexpected end of pointcut expression: {self.text!r}")
        self.position += 1
        return token

    def parse(self) -> Pointcut:
        expr = self._parse_or()
        if self._peek() is not None:
            raise PointcutSyntaxError(f"trailing tokens in pointcut expression: {self.text!r}")
        return expr

    def _parse_or(self) -> Pointcut:
        left = self._parse_and()
        while self._peek() is not None and self._peek()[0] == "or":
            self._pop()
            right = self._parse_and()
            left = OrPointcut(left, right)
        return left

    def _parse_and(self) -> Pointcut:
        left = self._parse_unary()
        while self._peek() is not None and self._peek()[0] == "and":
            self._pop()
            right = self._parse_unary()
            left = AndPointcut(left, right)
        return left

    def _parse_unary(self) -> Pointcut:
        token = self._peek()
        if token is None:
            raise PointcutSyntaxError(f"unexpected end of pointcut expression: {self.text!r}")
        kind, body = token
        if kind == "not":
            self._pop()
            return NotPointcut(self._parse_unary())
        if kind == "lparen":
            self._pop()
            inner = self._parse_or()
            closing = self._pop()
            if closing[0] != "rparen":
                raise PointcutSyntaxError(f"missing ')' in pointcut expression: {self.text!r}")
            return inner
        if kind == "execution":
            self._pop()
            return self._build_execution(body or "")
        if kind == "within":
            self._pop()
            if not body:
                raise PointcutSyntaxError("within() requires a type pattern")
            return WithinPointcut(body)
        raise PointcutSyntaxError(f"unexpected token {kind!r} in pointcut expression {self.text!r}")

    @staticmethod
    def _build_execution(body: str) -> ExecutionPointcut:
        body = body.strip()
        # Optional AspectJ-style return type / argument list are tolerated and
        # ignored: "* org.tpcw.*.do*(..)" -> "org.tpcw.*.do*".
        if body.endswith("(..)"):
            body = body[: -len("(..)")]
        if body.endswith("()"):
            body = body[: -len("()")]
        parts = body.split()
        if len(parts) == 2 and parts[0] in ("*", "void"):
            body = parts[1]
        elif len(parts) != 1:
            raise PointcutSyntaxError(f"cannot parse execution pattern {body!r}")
        if "." not in body:
            raise PointcutSyntaxError(
                f"execution pattern must be TYPE_PATTERN.METHOD_PATTERN, got {body!r}"
            )
        type_pattern, _, method_pattern = body.rpartition(".")
        if type_pattern.endswith("."):
            # A trailing '..' split: keep the '..' with the type pattern.
            type_pattern = type_pattern + "."
        return ExecutionPointcut(type_pattern, method_pattern)


@functools.lru_cache(maxsize=512)
def parse_pointcut(expression: str) -> Pointcut:
    """Parse a pointcut expression into a :class:`Pointcut` tree.

    Identical expressions return a shared tree: pointcut trees are immutable,
    and every Aspect Component would otherwise re-parse the same handful of
    expressions.  (Parse errors are not cached — ``lru_cache`` only stores
    successful results.)

    Raises
    ------
    PointcutSyntaxError
        If the expression is not valid.
    """
    if not expression or not expression.strip():
        raise PointcutSyntaxError("pointcut expression must be non-empty")
    return _Parser(expression).parse()
