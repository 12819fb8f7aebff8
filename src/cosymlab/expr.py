"""Tiny recursive-descent parser for inline energy expressions.

Config files may define Hamiltonians as strings over the chart coordinates,
e.g. ``"0.5*(q^2 + p^2)"`` or ``"sin(theta)"``.  The grammar covers sums,
products, quotients, integer powers and the sine/cosine calls; parsed
expressions differentiate symbolically, which supplies the gradient callbacks
the solvers need.  Values are computed by generated code: `compile_nodes`
emits one straight-line NumPy function per list of trees, from the validated
tree only, and executes it once in a namespace that holds only ``np``.

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('-' | '+') unary | power
    power  := atom (('^' | '**') unary)?
    atom   := NUMBER | 'pi' | name | name '(' expr ')' | '(' expr ')'
"""
from __future__ import annotations

import functools
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

# function name -> derivative of fn(arg) with respect to arg; the generated code
# calls np.<name>
_FUNCTIONS = {
    "sin": lambda arg: Call("cos", arg),
    "cos": lambda arg: Neg(Call("sin", arg)),
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

    The code `compile_nodes` generates evaluates a node on a float array of
    coordinates, shape (n, dim).  A subtree that reads no coordinate gives a
    NumPy scalar, which broadcasts where it meets an array; the generated
    function writes every result into an output of the batch shape.
    """

    def diff(self, index: int) -> "Node":
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


@dataclass(frozen=True)
class Var(Node):
    index: int
    name: str

    def diff(self, index):
        return Num(1.0 if index == self.index else 0.0)


@dataclass(frozen=True)
class Neg(Node):
    arg: Node

    def diff(self, index):
        return Neg(self.arg.diff(index))


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


@dataclass(frozen=True)
class Call(Node):
    fn: str
    arg: Node

    def diff(self, index):
        return _mul(_FUNCTIONS[self.fn](self.arg), self.arg.diff(index))


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


# -- code generation --------------------------------------------------------------

_BINARY = ("+", "-", "*", "/")


class _Emitter:
    """Straight-line NumPy statements for expression trees: one statement per
    distinct subtree, so a subtree that occurs twice (as in a gradient) is
    computed once, and one default argument per distinct constant."""

    def __init__(self):
        self.lines: list[str] = []
        self.constants: dict[str, str] = {}   # float literal -> parameter name
        self.temps: dict[str, str] = {}       # right-hand side -> temporary name

    def _temp(self, rhs: str) -> str:
        if rhs not in self.temps:
            self.temps[rhs] = f"t{len(self.temps)}"
            self.lines.append(f"    {self.temps[rhs]} = {rhs}")
        return self.temps[rhs]

    def emit(self, node: Node) -> str:
        """Name of the local that holds the node's value."""
        if isinstance(node, Num):
            value = float(node.value)
            literal = repr(value) if math.isfinite(value) else repr(repr(value))
            return self.constants.setdefault(literal, f"c{len(self.constants)}")
        if isinstance(node, Var):
            return self._temp(f"x[..., {int(node.index)}]")
        if isinstance(node, Neg):
            return self._temp(f"-{self.emit(node.arg)}")
        if isinstance(node, BinOp) and node.op in _BINARY:
            left, right = self.emit(node.left), self.emit(node.right)
            return self._temp(f"{left} {node.op} {right}")
        if isinstance(node, Pow):
            base = self.emit(node.base)
            # base ** 1 is base bit for bit, for arrays and NumPy scalars alike
            return base if node.exponent == 1 else self._temp(f"{base} ** {int(node.exponent)}")
        if isinstance(node, Call) and node.fn in _FUNCTIONS:
            return self._temp(f"np.{node.fn}({self.emit(node.arg)})")
        raise TypeError(f"not an expression node: {node!r}")


def compile_nodes(columns: Sequence[Node],
                  scalar: bool = False) -> Callable[[np.ndarray], np.ndarray]:
    """One generated NumPy function of coords (..., dim) that evaluates the
    trees: column i of its result, shape (..., len(columns)), is the value of
    columns[i]; with ``scalar`` the one tree's values, shape (...,).

    The source is emitted from the tree alone (coordinate columns
    ``x[..., i]``, constants ``np.float64(<repr>)``, the four operators,
    integer powers, ``np.sin`` and ``np.cos``) and executed once, in a
    namespace that holds only ``np`` and no builtins.  A constant is a NumPy
    double, so constant arithmetic follows IEEE rules (1/0 is inf) as array
    arithmetic does.  A single point is evaluated as a batch of one: then
    every value that depends on the coordinates is an array, and a point gets
    bit for bit the value it gets inside a batch (NumPy's scalar power rounds
    differently from its array power).
    """
    if scalar and len(columns) != 1:
        raise ValueError("a scalar result needs exactly one tree")
    emitter = _Emitter()
    results = [emitter.emit(node) for node in columns]
    if scalar:
        tail, stores = "()", [f"    out[...] = {results[0]}"]
    else:
        tail = f"({len(columns)},)"
        stores = [f"    out[..., {i}] = {name}" for i, name in enumerate(results)]
    params = "".join(f", {name}=np.float64({literal})"
                     for literal, name in emitter.constants.items())
    source = "\n".join([
        f"def compiled(coords{params}):",
        "    x = np.asarray(coords, dtype=np.float64)",
        "    single = x.ndim == 1",
        "    if single:",
        "        x = x[None]",
        f"    out = np.empty(x.shape[:-1] + {tail})",
        *emitter.lines,
        *stores,
        f"    return out.reshape({tail}) if single else out",
        ""])
    namespace = {"np": np, "__builtins__": {}}
    exec(compile(source, "<cosymlab.expr>", "exec"), namespace)  # noqa: S102 (tree-built source)
    return namespace.pop("compiled")


@dataclass(frozen=True)
class Expression:
    """Parsed expression over named coordinates; callable and differentiable.

    Values and gradients are computed by generated code only (`compile_nodes`).
    """

    root: Node
    names: tuple[str, ...]

    def compile(self) -> Callable[[np.ndarray], np.ndarray]:
        """The values as one generated function of coords (..., dim), shape (...,)."""
        return compile_nodes([self.root], scalar=True)

    @functools.cached_property
    def _values(self) -> Callable[[np.ndarray], np.ndarray]:
        return self.compile()

    def __call__(self, coords: np.ndarray) -> np.ndarray:
        """Values at coords (..., dim), shape (...,)."""
        return self._values(coords)

    def gradient(self) -> Callable[[np.ndarray], np.ndarray]:
        """Generated function giving the symbolic gradient at coords (..., dim),
        shape (..., dim)."""
        return compile_nodes([self.root.diff(i) for i in range(len(self.names))])


def parse(text: str, names: Sequence[str]) -> Expression:
    """Parse an expression over the given coordinate names."""
    return Expression(_Parser(text, names).parse(), tuple(names))
