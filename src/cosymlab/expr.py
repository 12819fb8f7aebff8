"""Inline energy expressions, read by Python's own parser.

Config files may define Hamiltonians as strings over the chart coordinates,
e.g. ``"0.5*(q^2 + p^2)"`` or ``"sin(theta)"``.  `parse` reads them with
``ast.parse``, ``^`` standing for ``**``, and translates Python's tree through
a whitelist: decimal number literals, ``pi``, the coordinates, unary ``+`` and
``-``, ``+ - * /``, integer literal powers, and ``sin`` and ``cos`` of one
argument.  Anything else raises `ExprError`.  Parsed expressions differentiate
symbolically, which supplies the gradient callbacks the solvers need and the
exact exterior derivatives of forms whose coefficients are trees
(`form_of_trees`).  Values are computed by generated code: `compile_nodes`
emits one straight-line NumPy function per list of trees, from the validated
tree only, and executes it once in a namespace that holds only ``np``.
"""
from __future__ import annotations

import ast
import functools
import keyword
import math
import re
import warnings
from typing import Callable, Optional, Sequence

import numpy as np

from .forms import KForm, constant_form, derivative_terms


class ExprError(ValueError):
    """Parse, name or compilation failure, with its position in the text if any."""

    def __init__(self, message: str, pos: Optional[int] = None):
        super().__init__(message if pos is None else f"{message} (at position {pos})")
        self.pos = pos


# the ExprError of a tree too deep for the parser, the derivative or the code generation
_TOO_DEEP = "expression nested too deeply"

# function name -> derivative of fn(arg) with respect to arg; the generated code
# calls np.<name>
_FUNCTIONS = {
    "sin": lambda arg: Call("cos", arg),
    "cos": lambda arg: Neg(Call("sin", arg)),
}


# -- expression trees -----------------------------------------------------------


class Node:
    """Expression tree node.

    The code `compile_nodes` generates evaluates a node on a float array of
    coordinates, shape (n, dim).  A subtree that reads no coordinate gives a
    NumPy scalar, which broadcasts where it meets an array; the generated
    function writes every result into an output of the batch shape.  Two
    trees are equal when they have the same node types and attributes.
    """

    def diff(self, index: int) -> "Node":
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and vars(other) == vars(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"


class Num(Node):
    def __init__(self, value: float):
        # a NumPy double, so that constant arithmetic follows IEEE rules
        # (1/0 is inf, not ZeroDivisionError) as array arithmetic does
        self.value = np.float64(value)

    def diff(self, index):
        return Num(0.0)


class Var(Node):
    def __init__(self, index: int, name: str):
        self.index, self.name = index, name

    def diff(self, index):
        return Num(1.0 if index == self.index else 0.0)


class Neg(Node):
    def __init__(self, arg: Node):
        self.arg = arg

    def diff(self, index):
        return Neg(self.arg.diff(index))


class BinOp(Node):
    def __init__(self, op: str, left: Node, right: Node):
        self.op, self.left, self.right = op, left, right

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


class Pow(Node):
    def __init__(self, base: Node, exponent: int):
        self.base, self.exponent = base, exponent

    def diff(self, index):
        if self.exponent == 0:
            return Num(0.0)
        inner = self.base.diff(index)
        outer = _mul(Num(float(self.exponent)),
                     Pow(self.base, self.exponent - 1) if self.exponent != 1 else Num(1.0))
        return _mul(outer, inner)


class Call(Node):
    def __init__(self, fn: str, arg: Node):
        self.fn, self.arg = fn, arg

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

# a character outside the language, refused before Python reads the text
_OUTSIDE = re.compile(r"[^A-Za-z0-9_.+\-*/^() ]")
_NUMBER = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")
_OPERATORS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}


def coordinate_index(names: Sequence[str]) -> dict:
    """Index of each coordinate name: a distinct ASCII identifier, neither a
    Python keyword nor 'pi', 'sin' or 'cos', else ExprError names it."""
    index = {}
    for i, name in enumerate(names):
        if not (name.isascii() and name.isidentifier()):
            raise ExprError(f"coordinate name {name!r} is not an ASCII identifier")
        if keyword.iskeyword(name) or name == "pi" or name in _FUNCTIONS:
            raise ExprError(f"coordinate name {name!r} is reserved")
        if name in index:
            raise ExprError(f"coordinate name {name!r} is given twice")
        index[name] = i
    return index


def parse(text: str, names: Sequence[str]) -> Expression:
    """Parse an expression over the given coordinate names."""
    index = coordinate_index(names)
    # any whitespace separates tokens, and a leading space is an indent to Python
    spaced = re.sub(r"\s", " ", text).lstrip()
    start = len(text) - len(spaced)
    if bad := _OUTSIDE.search(spaced):
        raise ExprError(f"unexpected character {bad.group()!r}", start + bad.start())
    # Python's source, and origin[j] the position in text of its character j
    source = spaced.replace("^", "**")
    origin = [start + i for i, ch in enumerate(spaced) for _ in range(2 if ch == "^" else 1)]
    origin.append(len(text))

    def translate(node: ast.AST) -> Node:
        if isinstance(node, ast.Constant):
            digits = source[node.col_offset:node.end_col_offset]
            if not _NUMBER.fullmatch(digits):
                raise ExprError(f"not a decimal number: {digits!r}", origin[node.col_offset])
            return Num(float(digits))
        if isinstance(node, ast.Name):
            if node.id == "pi":
                return Num(math.pi)
            if node.id not in index:
                raise ExprError(f"unknown name {node.id!r} (coordinates: {sorted(index)})",
                                origin[node.col_offset])
            return Var(index[node.id], node.id)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            arg = translate(node.operand)
            return arg if isinstance(node.op, ast.UAdd) else Neg(arg)
        if isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
            return BinOp(_OPERATORS[type(node.op)], translate(node.left), translate(node.right))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            exponent = translate(node.right)
            if not (isinstance(exponent, Num) and float(exponent.value).is_integer()):
                raise ExprError("exponents must be integer literals",
                                origin[node.right.col_offset])
            return Pow(translate(node.left), int(exponent.value))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _FUNCTIONS and len(node.args) == 1 and not node.keywords):
            return Call(node.func.id, translate(node.args[0]))
        raise ExprError("unsupported syntax", origin[node.col_offset])

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # so "invalid decimal literal" is a SyntaxError
            tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        # offset 0 (or none) is past the last token: the text ends early
        at = exc.offset - 1 if exc.offset else len(source.rstrip())
        raise ExprError(exc.msg, origin[min(at, len(origin) - 1)])
    except (RecursionError, MemoryError):
        # CPython's parser raises either on a tree too deep for it
        raise ExprError(_TOO_DEEP) from None
    try:
        return Expression(translate(tree.body), tuple(names))
    except RecursionError:
        raise ExprError(_TOO_DEEP) from None


# -- code generation --------------------------------------------------------------

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
        if isinstance(node, BinOp) and node.op in _OPERATORS.values():
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
    try:
        results = [emitter.emit(node) for node in columns]
    except RecursionError:
        raise ExprError(_TOO_DEEP) from None
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


class Expression:
    """Parsed expression over named coordinates; callable and differentiable.

    Values and gradients are computed by generated code only (`compile_nodes`).
    """

    def __init__(self, root: Node, names: tuple[str, ...]):
        self.root, self.names = root, names

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
        try:
            columns = [self.root.diff(i) for i in range(len(self.names))]
        except RecursionError:
            raise ExprError(_TOO_DEEP) from None
        return compile_nodes(columns)


def form_of_trees(dim: int, degree: int, columns: Sequence[Node]) -> KForm:
    """The form whose coefficient r is the tree columns[r], in one generated
    function.  Its d differentiates the trees through `forms.derivative_terms`
    into a form of trees, or a constant form where every one is a number;
    ExprError for trees too deep to compile or to differentiate."""
    def d() -> KForm:
        out: list = [Num(0.0)] * math.comb(dim, degree + 1)
        try:
            for ro, j, ri, sign in derivative_terms(dim, degree):
                term = columns[ri].diff(j)
                out[ro] = _add(out[ro], term) if sign > 0 else _sub(out[ro], term)
        except RecursionError:
            raise ExprError(_TOO_DEEP) from None
        if all(isinstance(c, Num) for c in out):
            return constant_form(dim, degree + 1, [c.value for c in out])
        return form_of_trees(dim, degree + 1, out)

    return KForm(degree, dim, compile_nodes(columns), d=d)
