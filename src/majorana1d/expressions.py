"""Small expression language for user-defined scalar potentials.

Grammar (loosest to tightest binding): ``+ -`` < ``* /`` < unary ``-``
< ``^`` (right associative). The single free variable is ``x``; any
other identifier must be either a known function name or a declared
parameter, and a parameter name must be one identifier other than ``x``
and a function's.
Whitespace is ignored.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import PotentialSyntaxError, ReservedNameError

FUNCTIONS = ("sin", "cos", "exp", "tanh", "cosh", "sech")

_FUNC_IMPL = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "tanh": np.tanh,
    "cosh": np.cosh,
    "sech": lambda z: 1.0 / np.cosh(z),
}


@dataclass(frozen=True)
class Literal:
    value: float


@dataclass(frozen=True)
class Variable:
    """The free coordinate x."""


@dataclass(frozen=True)
class Parameter:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # 'neg' or a FUNCTIONS member
    arg: "Node"


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


Node = Union[Literal, Variable, Parameter, Unary, Binary]

_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    rf"|(?P<name>{_NAME})"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            at = pos + (len(src[pos:]) - len(stripped))
            raise PotentialSyntaxError(at, f"unexpected character {src[at]!r}")
        for kind in ("number", "name", "op"):
            text = m.group(kind)
            if text is not None:
                tokens.append((kind, text, m.start(kind)))
                break
        pos = m.end()
    tokens.append(("eof", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str, parameters: frozenset[str]):
        self.src = src
        self.parameters = parameters
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise PotentialSyntaxError(pos, f"expected {op!r}, found {text or 'end of input'!r}")
        return self.advance()

    def parse(self) -> Node:
        node = self.sum()
        kind, text, pos = self.peek()
        if kind != "eof":
            raise PotentialSyntaxError(pos, f"unexpected trailing input {text!r}")
        return node

    def sum(self) -> Node:
        node = self.product()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = Binary(text, node, self.product())
            else:
                return node

    def product(self) -> Node:
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = Binary(text, node, self.unary())
            else:
                return node

    def unary(self) -> Node:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Unary("neg", self.unary())
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            # exponent may itself carry a sign: x^-2
            return Binary("^", node, self.unary())
        return node

    def atom(self) -> Node:
        kind, text, pos = self.advance()
        if kind == "number":
            return Literal(float(text))
        if kind == "name":
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.sum()
                self.expect_op(")")
                return Unary(text, arg)
            if text == "x":
                return Variable()
            if text in self.parameters:
                return Parameter(text)
            raise PotentialSyntaxError(pos, f"unknown identifier {text!r}")
        if kind == "op" and text == "(":
            node = self.sum()
            self.expect_op(")")
            return node
        raise PotentialSyntaxError(pos, f"expected a value, found {text or 'end of input'!r}")


def parse_potential(src: str, parameters: frozenset[str] | tuple[str, ...] = ()) -> Node:
    """Parse ``src`` into an expression tree.

    ``parameters`` lists identifiers that may appear; anything else is
    rejected with its byte offset. A parameter named ``x`` or after one of
    ``FUNCTIONS``, or whose name is not one identifier (``"a b"``,
    ``"2c"``), could never be read, and raises ReservedNameError.
    """
    for name in parameters:
        if name == "x" or name in FUNCTIONS or not re.fullmatch(_NAME, name):
            raise ReservedNameError(name)
    if not src.strip():
        raise PotentialSyntaxError(0, "empty expression")
    return _Parser(src, frozenset(parameters)).parse()


def evaluate(node: Node, x, params: dict[str, float] | None = None):
    """Evaluate the tree at ``x`` (scalar or array) with parameter bindings."""
    params = params or {}
    if isinstance(node, Literal):
        return np.broadcast_to(np.float64(node.value), np.shape(x)).copy() if np.ndim(x) else node.value
    if isinstance(node, Variable):
        return np.asarray(x, dtype=float) if np.ndim(x) else float(x)
    if isinstance(node, Parameter):
        if node.name not in params:
            raise KeyError(f"unbound parameter {node.name!r}")
        v = float(params[node.name])
        return np.broadcast_to(np.float64(v), np.shape(x)).copy() if np.ndim(x) else v
    if isinstance(node, Unary):
        arg = evaluate(node.arg, x, params)
        if node.op == "neg":
            return -arg
        with np.errstate(invalid="ignore", over="ignore"):
            return _FUNC_IMPL[node.op](arg)
    if isinstance(node, Binary):
        left = evaluate(node.left, x, params)
        right = evaluate(node.right, x, params)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            if node.op == "/":
                return np.divide(left, right)
            if node.op == "^":
                return np.power(left, right)
    raise TypeError(f"not an expression node: {node!r}")


# Precedence levels used when re-printing trees with minimal parentheses.
_LEVEL_SUM, _LEVEL_PRODUCT, _LEVEL_UNARY, _LEVEL_POWER, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _render(node: Node, min_level: int) -> str:
    if isinstance(node, Literal):
        return repr(node.value)
    if isinstance(node, Variable):
        return "x"
    if isinstance(node, Parameter):
        return node.name
    if isinstance(node, Unary):
        if node.op == "neg":
            text, level = "-" + _render(node.arg, _LEVEL_POWER), _LEVEL_UNARY
        else:
            text, level = f"{node.op}({_render(node.arg, _LEVEL_SUM)})", _LEVEL_ATOM
    else:
        op = node.op
        if op in "+-":
            level = _LEVEL_SUM
            text = _render(node.left, _LEVEL_SUM) + op + _render(node.right, _LEVEL_PRODUCT)
        elif op in "*/":
            level = _LEVEL_PRODUCT
            text = _render(node.left, _LEVEL_PRODUCT) + op + _render(node.right, _LEVEL_UNARY)
        else:  # '^' binds right; its base must be atomic
            level = _LEVEL_POWER
            text = _render(node.left, _LEVEL_ATOM) + op + _render(node.right, _LEVEL_UNARY)
    if level < min_level:
        return "(" + text + ")"
    return text


def to_source(node: Node) -> str:
    """Render a tree back to parseable source (round-trips structurally)."""
    return _render(node, _LEVEL_SUM)
