import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cosymlab import expr as E


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
    "q +", "foo(x)", "2 ^^ 3", "sin x", "(x", "x )", "1..2", "x @ y",
])
def test_parse_errors(bad):
    with pytest.raises(E.ExprError):
        E.parse(bad, ["x", "q"])


def test_non_integer_exponent_rejected():
    with pytest.raises(E.ExprError, match="integer"):
        E.parse("x^1.5", ["x"])


def test_unknown_coordinate_rejected():
    with pytest.raises(E.ExprError, match="unknown name"):
        E.parse("x + nope", ["x"])


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
