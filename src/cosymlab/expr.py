"""Tiny recursive-descent parser for inline energy expressions.

Config files may define Hamiltonians as strings over the chart coordinates,
e.g. ``"0.5*(q^2 + p^2)"`` or ``"sin(theta)"``.  The grammar covers sums,
products, quotients, integer powers and the sine/cosine calls; parsed
expressions evaluate vectorised over coordinate arrays and differentiate
symbolically, which supplies the gradient callbacks the solvers need.

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('-' | '+') unary | power
    power  := atom (('^' | '**') unary)?
    atom   := NUMBER | 'pi' | name | name '(' expr ')' | '(' expr ')'
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


class ExprError(ValueError):
    """Parse or evaluation failure, with source position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN = re.compile(r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
                    r"|\d+(?:[eE][+-]?\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
                    r"|(?P<op>\*\*|[-+*/^()]))")

_FUNCTIONS = {
    "sin": (np.sin, lambda arg: Call("cos", arg)),
    "cos": (np.cos, lambda arg: Neg(Call("sin", arg))),
}


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ExprError(f"unexpected character {text[pos:].strip()[0]!r}", pos)
            break
        if m.group("num"):
            tokens.append(("num", float(m.group("num")), pos))
        elif m.group("name"):
            tokens.append(("name", m.group("name"), pos))
        else:
            tokens.append(("op", m.group("op"), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# -- AST ------------------------------------------------------------------------


class Node:
    """Expression tree node.

    Calling a node evaluates it on a float array of coordinates, shape
    (..., dim).  A subtree that reads no coordinate returns a NumPy scalar,
    which broadcasts where it meets an array; `Expression` gives every
    result the batch shape.
    """

    def diff(self, index: int) -> "Node":
        raise NotImplementedError

    def __call__(self, coords: np.ndarray):
        raise NotImplementedError


@dataclass(frozen=True)
class Num(Node):
    value: float

    def __post_init__(self):
        # a NumPy double, so that constant arithmetic follows IEEE rules
        # (1/0 is inf, not ZeroDivisionError) as array arithmetic does
        object.__setattr__(self, "value", np.float64(self.value))

    def diff(self, index):
        return Num(0.0)

    def __call__(self, coords):
        return self.value

    def __str__(self):
        return f"{self.value:g}"


@dataclass(frozen=True)
class Var(Node):
    index: int
    name: str

    def diff(self, index):
        return Num(1.0 if index == self.index else 0.0)

    def __call__(self, coords):
        return coords[..., self.index]

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Neg(Node):
    arg: Node

    def diff(self, index):
        return Neg(self.arg.diff(index))

    def __call__(self, coords):
        return -self.arg(coords)

    def __str__(self):
        return f"(-{self.arg})"


@dataclass(frozen=True)
class BinOp(Node):
    op: str
    left: Node
    right: Node

    def diff(self, index):
        dl, dr = self.left.diff(index), self.right.diff(index)
        if self.op == "+":
            return _add(dl, dr)
        if self.op == "-":
            return _sub(dl, dr)
        if self.op == "*":
            return _add(_mul(dl, self.right), _mul(self.left, dr))
        # quotient rule
        num = _sub(_mul(dl, self.right), _mul(self.left, dr))
        return BinOp("/", num, BinOp("*", self.right, self.right))

    def __call__(self, coords):
        a, b = self.left(coords), self.right(coords)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        return a / b

    def __str__(self):
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Pow(Node):
    base: Node
    exponent: int

    def diff(self, index):
        if self.exponent == 0:
            return Num(0.0)
        inner = self.base.diff(index)
        outer = _mul(Num(float(self.exponent)),
                     Pow(self.base, self.exponent - 1) if self.exponent != 1 else Num(1.0))
        return _mul(outer, inner)

    def __call__(self, coords):
        return self.base(coords) ** self.exponent

    def __str__(self):
        return f"({self.base}^{self.exponent})"


@dataclass(frozen=True)
class Call(Node):
    fn: str
    arg: Node

    def diff(self, index):
        _, derivative = _FUNCTIONS[self.fn]
        return _mul(derivative(self.arg), self.arg.diff(index))

    def __call__(self, coords):
        fn, _ = _FUNCTIONS[self.fn]
        return fn(self.arg(coords))

    def __str__(self):
        return f"{self.fn}({self.arg})"


def _is_zero(node: Node) -> bool:
    return isinstance(node, Num) and node.value == 0.0


def _is_one(node: Node) -> bool:
    return isinstance(node, Num) and node.value == 1.0


def _add(a: Node, b: Node) -> Node:
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    return BinOp("+", a, b)


def _sub(a: Node, b: Node) -> Node:
    if _is_zero(b):
        return a
    if _is_zero(a):
        return Neg(b)
    return BinOp("-", a, b)


def _mul(a: Node, b: Node) -> Node:
    if _is_zero(a) or _is_zero(b):
        return Num(0.0)
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    return BinOp("*", a, b)


# -- parser -----------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str, names: Sequence[str]):
        self.tokens = _tokenize(text)
        self.names = {name: i for i, name in enumerate(names)}
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ExprError(f"expected {op!r}, found {val!r}", pos)

    def parse(self) -> Node:
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprError(f"unexpected trailing input {val!r}", pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            _, op, _ = self.next()
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            _, op, _ = self.next()
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Node:
        kind, val, _ = self.peek()
        if kind == "op" and val in ("+", "-"):
            self.next()
            node = self.unary()
            return node if val == "+" else Neg(node)
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val in ("^", "**"):
            self.next()
            exponent = self.unary()
            if not isinstance(exponent, Num) or exponent.value != int(exponent.value):
                raise ExprError("exponents must be integer literals", pos)
            return Pow(node, int(exponent.value))
        return node

    def atom(self) -> Node:
        kind, val, pos = self.next()
        if kind == "num":
            return Num(val)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "name":
            if val == "pi":
                return Num(math.pi)
            if val in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(val, arg)
            if val in self.names:
                return Var(self.names[val], val)
            raise ExprError(f"unknown name {val!r} (coordinates: {sorted(self.names)})", pos)
        raise ExprError(f"unexpected token {val!r}", pos)


def _as_batch(coords: np.ndarray) -> np.ndarray:
    """A single point as a batch of one.

    Then every value that depends on the coordinates is an array, and a point
    gets bit for bit the value it gets inside a batch: NumPy's scalar power
    rounds differently from its array power.
    """
    return coords[None] if coords.ndim == 1 else coords


@dataclass(frozen=True)
class Expression:
    """Parsed expression over named coordinates; callable and differentiable."""

    root: Node
    names: tuple[str, ...]

    def __call__(self, coords: np.ndarray) -> np.ndarray:
        """Values at coords (..., dim), shape (...,)."""
        coords = np.asarray(coords, dtype=float)
        x = _as_batch(coords)
        out = np.empty(x.shape[:-1])
        out[...] = self.root(x)
        return out.reshape(coords.shape[:-1])

    def gradient(self) -> Callable[[np.ndarray], np.ndarray]:
        """Callable giving the symbolic gradient at coords (..., dim), shape (..., dim)."""
        partials = [self.root.diff(i) for i in range(len(self.names))]

        def grad(coords: np.ndarray) -> np.ndarray:
            coords = np.asarray(coords, dtype=float)
            x = _as_batch(coords)
            out = np.empty(x.shape)
            for i, p in enumerate(partials):
                out[..., i] = p(x)
            return out.reshape(coords.shape)

        return grad

    def __str__(self):
        return str(self.root)


def parse(text: str, names: Sequence[str]) -> Expression:
    """Parse an expression over the given coordinate names."""
    return Expression(_Parser(text, names).parse(), tuple(names))
