import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cosymlab import expr as E, forms as F


def test_basic_arithmetic_and_powers():
    e = E.parse("0.5*(q^2 + p^2)", ["q", "p"])
    assert e(np.array([1.0, 0.0])) == pytest.approx(0.5)
    assert e(np.array([0.3, 0.4])) == pytest.approx(0.125)


def test_vectorised_evaluation():
    e = E.parse("sin(theta) + x*y", ["x", "y", "theta"])
    pts = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, math.pi / 2]])
    assert np.allclose(e(pts), [2.0, 1.0])


def test_operator_precedence_and_unary_minus():
    e = E.parse("-2*x + 3*x^2", ["x"])
    assert e(np.array([2.0])) == pytest.approx(8.0)
    assert E.parse("2**3 * x", ["x"])(np.array([1.0])) == pytest.approx(8.0)


def test_division_and_pi():
    e = E.parse("pi / (1 + x^2)", ["x"])
    assert e(np.array([0.0])) == pytest.approx(math.pi)


def test_gradient_matches_finite_differences():
    e = E.parse("q1*p2 - 2*cos(q1)/(1 + p2^2) + sin(q1)^2", ["q1", "p2"])
    grad = e.gradient()
    pt = np.array([0.5, 1.2])
    h = 1e-6
    for i in range(2):
        step = np.zeros(2)
        step[i] = h
        fd = (e(pt + step) - e(pt - step)) / (2 * h)
        assert grad(pt)[..., i] == pytest.approx(fd, abs=1e-8)


def test_gradient_shape_is_full_width():
    e = E.parse("sin(theta)", ["x", "y", "z", "theta"])
    g = e.gradient()(np.zeros((5, 4)))
    assert g.shape == (5, 4)
    assert np.allclose(g[:, :3], 0.0)
    assert np.allclose(g[:, 3], 1.0)


@pytest.mark.parametrize("bad", [
    "q +", "foo(x)", "2 ^^ 3", "sin x", "(x", "x )", "1..2", "x @ y", "", "  ",
    # Python syntax outside the language
    "x // q", "x % q", "x.real", "x if q else 1", "not x", "sin(x)(q)", "sin()", "sin(x, q)",
    "pi(x)", "lambda: x", "x # comment", "x \\\n + q", "1j", "1_0", "0x1f", "True", "x θ",
])
def test_parse_errors(bad):
    with pytest.raises(E.ExprError):
        E.parse(bad, ["x", "q"])


@pytest.mark.parametrize("text, pos", [
    ("x @ y", 2), ("x^2 + (q", 6), ("x ^ 2 + nope", 8), ("q^1e999", 2), ("x // q", 0),
    # a text that ends early, at its end; an unclosed parenthesis, at the parenthesis
    ("x ^ 2 +", 7), ("q +", 3), ("q *", 3), ("q * ", 3), ("(q", 0),
])
def test_errors_point_into_the_text(text, pos):
    # positions are in the text as written, where '^' is one character
    with pytest.raises(E.ExprError) as info:
        E.parse(text, ["x", "q"])
    assert info.value.pos == pos and f"(at position {pos})" in str(info.value)


@pytest.mark.parametrize("text, tree", [
    ("-x^2", E.Neg(E.Pow(E.Var(0, "x"), 2))),
    ("a-b-c", E.BinOp("-", E.BinOp("-", E.Var(1, "a"), E.Var(2, "b")), E.Var(3, "c"))),
    ("x/y*z", E.BinOp("*", E.BinOp("/", E.Var(0, "x"), E.Var(4, "y")), E.Var(5, "z"))),
    ("2^+3", E.Pow(E.Num(2.0), 3)),
    ("\ta *\n-b\u00a0**2 ", E.BinOp("*", E.Var(1, "a"), E.Neg(E.Pow(E.Var(2, "b"), 2)))),
    ("pi - .5e1", E.BinOp("-", E.Num(math.pi), E.Num(5.0))),
])
def test_exact_shapes(text, tree):
    assert E.parse(text, ["x", "a", "b", "c", "y", "z"]).root == tree


def test_non_integer_exponent_rejected():
    with pytest.raises(E.ExprError, match="integer"):
        E.parse("x^1.5", ["x"])


def test_unknown_coordinate_rejected():
    with pytest.raises(E.ExprError, match="unknown name"):
        E.parse("x + nope", ["x"])


@pytest.mark.parametrize("text", ["x^-2", "x^(1 + 1)", "x^pi", "x^q", "x^1e999", "x^2^3"])
def test_exponents_are_integer_literals(text):
    with pytest.raises(E.ExprError, match="integer"):
        E.parse(text, ["x", "q"])


def test_python_refusals_are_parse_errors():
    # Python's parser refuses an integer literal with leading zeros, and a keyword
    # as a coordinate name
    with pytest.raises(E.ExprError, match="leading zeros"):
        E.parse("01 + x", ["x"])
    assert E.parse("00 + 01.5", ["x"]).root == E.BinOp("+", E.Num(0.0), E.Num(1.5))
    with pytest.raises(E.ExprError, match="'lambda' is reserved"):
        E.parse("lambda", ["lambda"])


@pytest.mark.parametrize("names, problem", [
    (["q", "q"], "'q' is given twice"), (["q", "pi"], "'pi' is reserved"),
    (["sin", "p"], "'sin' is reserved"), (["cos"], "'cos' is reserved"),
    (["if"], "'if' is reserved"), (["θ"], "'θ' is not an ASCII identifier"),
    (["x y"], "'x y' is not an ASCII identifier"), (["1x"], "'1x' is not an ASCII identifier"),
    ([""], "'' is not an ASCII identifier"),
])
def test_coordinate_names_are_checked(names, problem):
    # a repeated name would alias one coordinate, and 'pi' would hide one
    with pytest.raises(E.ExprError, match=f"coordinate name {problem}"):
        E.parse("1", names)


def test_deep_expressions_are_expression_errors():
    # past Python's 200 levels of parentheses, past the parser's recursion, and a
    # product too deep to differentiate; a 600-term sum still differentiates
    for text in ["(" * 1000 + "x" + ")" * 1000, "-" * 100000 + "x", "x" + "^x" * 10000]:
        with pytest.raises(E.ExprError):
            E.parse(text, ["x"])
    product = E.parse("*".join(["x"] * 600), ["x"])
    with pytest.raises(E.ExprError, match="nested too deeply"):
        product.gradient()
    deep = E.Var(0, "x")
    for _ in range(10000):
        deep = E.Neg(deep)
    with pytest.raises(E.ExprError, match="nested too deeply"):
        E.compile_nodes([deep])
    total = E.parse(" + ".join(["x"] * 600), ["x"])
    assert total(np.ones(1)) == 600.0 and total.gradient()(np.ones(1)) == [600.0]


# -- batch evaluation ---------------------------------------------------------------

NAMES = ["x", "y", "z"]


def walk(node, coords):
    """The tree walk: the reference evaluation of a node on coordinates (n, dim).
    A subtree that reads no coordinate gives a NumPy scalar."""
    if isinstance(node, E.Num):
        return node.value
    if isinstance(node, E.Var):
        return coords[..., node.index]
    if isinstance(node, E.Neg):
        return -walk(node.arg, coords)
    if isinstance(node, E.BinOp):
        a, b = walk(node.left, coords), walk(node.right, coords)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        return a / b
    if isinstance(node, E.Pow):
        return walk(node.base, coords) ** node.exponent
    if isinstance(node, E.Call):
        return {"sin": np.sin, "cos": np.cos}[node.fn](walk(node.arg, coords))
    raise TypeError(node)


def oracle(e, coords):
    """Values and gradient of e by the tree walk, with the batch-of-one rule."""
    coords = np.asarray(coords, dtype=float)
    x = coords[None] if coords.ndim == 1 else coords
    values, gradient = np.empty(x.shape[:-1]), np.empty(x.shape)
    values[...] = walk(e.root, x)
    for i in range(len(e.names)):
        gradient[..., i] = walk(e.root.diff(i), x)
    return values.reshape(coords.shape[:-1]), gradient.reshape(coords.shape)


def _expressions():
    """Source strings of random grammar trees: numbers, pi, coordinates, the
    four operators, integer powers, sine and cosine."""
    leaves = st.one_of(st.sampled_from(NAMES + ["pi"]),
                       st.integers(0, 9).map(str),
                       st.floats(0.01, 100.0).map(lambda v: f"{v:.6g}"))

    def grow(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(" ".join),
            st.tuples(inner, st.integers(0, 4)).map(lambda t: f"({t[0]})^{t[1]}"),
            st.tuples(st.sampled_from(["sin", "cos", "-"]), inner)
              .map(lambda t: f"{t[0]}({t[1]})"))

    return st.recursive(leaves, grow, max_leaves=12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_expressions(), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
@example("((x)^2)^3", 1, 1)   # NumPy's scalar power rounds this row differently
def test_batch_evaluation_equals_rows_bit_for_bit(text, n, seed):
    # the generated code against the tree walk, on the batch and on each row as a
    # batch of one; equal NaNs compare equal, and -0.0 only equals -0.0
    e = E.parse(text, NAMES)
    grad = e.gradient()
    batch = np.random.default_rng(seed).normal(size=(n, len(NAMES)))
    with np.errstate(all="ignore"):
        values, gradients = e(batch), grad(batch)
        rows = [(e(row), grad(row)) for row in batch]
        expected = oracle(e, batch)
        expected_rows = [oracle(e, row) for row in batch]
    assert values.shape == (n,) and gradients.shape == (n, len(NAMES))
    np.testing.assert_array_equal(values.view(np.int64), expected[0].view(np.int64), strict=True)
    np.testing.assert_array_equal(gradients.view(np.int64), expected[1].view(np.int64),
                                  strict=True)
    for i, (value, gradient) in enumerate(rows):
        assert value.shape == () and gradient.shape == (len(NAMES),)
        np.testing.assert_array_equal(value, values[i], strict=True)
        np.testing.assert_array_equal(gradient, gradients[i], strict=True)
        np.testing.assert_array_equal(value.view(np.int64), expected_rows[i][0].view(np.int64))
        np.testing.assert_array_equal(gradient.view(np.int64),
                                      expected_rows[i][1].view(np.int64))


@pytest.mark.parametrize("text, value", [("2", 2.0), ("pi", math.pi), ("-cos(0)^3", -1.0)])
def test_constant_expressions_take_the_batch_shape(text, value):
    e = E.parse(text, ["x", "y"])
    for shape in [(), (5,), (2, 3)]:
        coords = np.zeros(shape + (2,))
        assert e(coords).shape == shape
        assert np.all(e(coords) == value)
        g = e.gradient()(coords)
        assert g.shape == shape + (2,) and np.all(g == 0.0)


def test_division_by_a_zero_constant_follows_ieee_rules():
    e = E.parse("x / 0 + 1 / (2 - 2)", ["x"])
    with np.errstate(all="ignore"):
        assert np.all(np.isinf(e(np.ones((3, 1)))))
        assert np.all(np.isnan(e.gradient()(np.ones((3, 1)))))


def test_generated_code_reaches_only_numpy():
    # the generated function's globals hold np and no builtins, and its code names
    # nothing but NumPy attributes and array methods
    e = E.parse("0.5*(q^2 + p^2) - cos(q)/(1 + p^4) + pi", ["q", "p"])
    for fn in (e.compile(), e.gradient()):
        assert fn.__globals__.keys() == {"np", "__builtins__"}
        assert fn.__globals__["np"] is np and fn.__globals__["__builtins__"] == {}
        assert set(fn.__code__.co_names) <= {"np", "asarray", "float64", "ndim", "empty",
                                              "shape", "reshape", "sin", "cos"}
        assert fn.__defaults__ and all(type(c) is np.float64 for c in fn.__defaults__)


def test_repeated_subtrees_and_constants_are_emitted_once():
    # d/dx (sin(x)^2 + sin(x)) = 2 sin(x)^1 cos(x) + cos(x): cos(x) occurs twice in
    # the tree, and the coordinate column three times
    emitter = E._Emitter()
    emitter.emit(E.parse("sin(x)^2 + sin(x)", ["x"]).root.diff(0))
    assert sum("np.cos" in line for line in emitter.lines) == 1
    assert sum("x[..., 0]" in line for line in emitter.lines) == 1
    assert list(emitter.constants) == ["2.0"]


def test_hand_built_trees_are_checked_before_emission():
    with pytest.raises(TypeError):
        E.compile_nodes([E.Call("exec", E.Var(0, "x"))])
    with pytest.raises(TypeError):
        E.compile_nodes([E.BinOp("@", E.Var(0, "x"), E.Var(0, "x"))])
    with pytest.raises(ValueError):
        E.compile_nodes([E.Num(1.0), E.Num(2.0)], scalar=True)


def test_non_finite_literals_compile():
    e = E.parse("1e999 * x", ["x"])
    assert np.all(e(np.ones((2, 1))) == np.inf)


# -- round trip -----------------------------------------------------------------

_OPS = {"+": 1, "-": 1, "*": 2, "/": 2}   # binding strength of the binary operators


def _trees():
    """Random trees of the shapes `parse` builds: non-negative literals, pi,
    coordinates, negation, the four operators, integer powers, sine, cosine."""
    leaves = st.one_of(st.floats(0.0, 1e300).map(E.Num), st.just(E.Num(math.pi)),
                       st.sampled_from([E.Var(i, n) for i, n in enumerate(NAMES)]))

    def grow(inner):
        return st.one_of(
            inner.map(E.Neg),
            st.builds(E.BinOp, st.sampled_from(sorted(_OPS)), inner, inner),
            st.builds(E.Pow, inner, st.integers(0, 12)),
            st.builds(E.Call, st.sampled_from(["sin", "cos"]), inner))

    return st.recursive(leaves, grow, max_leaves=16)


def _printed(rnd, node, level=0) -> str:
    """Source of a tree whose parts bind at least as tightly as level (0 any,
    1 a sum, 2 a product, 3 a signed term, 4 an atom), with random whitespace
    between tokens, redundant parentheses, and '^' or '**'."""
    def gap():
        return rnd.choice(["", "", " ", "  ", "\t", "\n", "\u00a0"])

    if isinstance(node, E.Num):
        value = float(node.value)
        text = "pi" if value == math.pi else rnd.choice(
            [repr(value)] + ([str(int(value))] if value.is_integer() and value < 1e6 else []))
        own = 4
    elif isinstance(node, E.Var):
        text, own = node.name, 4
    elif isinstance(node, E.Call):
        text, own = f"{node.fn}{gap()}({gap()}{_printed(rnd, node.arg)}{gap()})", 4
    elif isinstance(node, E.Pow):
        text = (f"{_printed(rnd, node.base, 4)}{gap()}{rnd.choice(['^', '**'])}{gap()}"
                f"{rnd.choice(['', '+'])}{node.exponent}")
        own = 3
    elif isinstance(node, E.Neg):
        text, own = f"-{gap()}{_printed(rnd, node.arg, 3)}", 3
    else:
        strength = _OPS[node.op]
        text = (f"{_printed(rnd, node.left, strength)}{gap()}{node.op}{gap()}"
                f"{_printed(rnd, node.right, strength + 1)}")
        own = strength
    if own < level or rnd.random() < 0.15:
        text = f"({gap()}{text}{gap()})"
    return text


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_trees(), st.randoms(use_true_random=False))
def test_printed_trees_parse_back_to_themselves(tree, rnd):
    # pins precedence and left-associativity: a tree printed with its needed
    # parentheses, and some redundant ones, parses back to the same tree
    text = rnd.choice(["", " ", "\n"]) + _printed(rnd, tree)
    assert E.parse(text, NAMES).root == tree


# -- exact exterior derivatives of forms of trees ------------------------------------


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_trees(), st.integers(0, 2 ** 32 - 1))
def test_d_of_a_function_is_its_gradient_and_d_squared_vanishes(tree, seed):
    # f a 0-form of one tree: df is its compiled gradient bit for bit, and each
    # coefficient of d(df) is a difference of mixed second partials, zero to rounding
    f = E.form_of_trees(3, 0, [tree])
    xs = np.random.default_rng(seed).uniform(-2.0, 2.0, (8, 3))
    with np.errstate(all="ignore"):   # a tree may overflow; such a case is skipped below
        df = F.exterior_derivative(f)
        gradient = E.Expression(tree, tuple(NAMES)).gradient()(xs)
        assert np.array_equal(F.covector_values(df, xs), gradient, equal_nan=True)
        second = E.compile_nodes([tree.diff(i).diff(j) for i in range(3) for j in range(3)])(xs)
        ddf = F.exterior_derivative(df).coeffs(xs)
    assume(np.isfinite(second).all())
    assert np.all(np.abs(ddf) <= 1e-12 * (1.0 + np.max(np.abs(second))))
