"""System text format: parsing, serialization, and the affine split."""

import ast
import math

import numpy as np
import pytest

from ctrlkit.dsl import (
    AffineSystem,
    ControlSystem,
    DslError,
    NotAffineReport,
    from_linear,
    parse,
    parse_expression,
    render_expression,
    serialize,
    to_affine,
)
from ctrlkit.expr import (
    Add,
    Constant,
    Cos,
    Div,
    Exp,
    InputVar,
    Mul,
    Neg,
    Pow,
    Sin,
    StateVar,
    Sub,
    eval_expr,
)
from ctrlkit.fields import VectorField, eval_vf
from conftest import CUBIC_TEXT, HEADING_TEXT


def test_parse_heading_structure(heading):
    assert heading.name == "heading"
    assert heading.states == ("x1", "x2")
    assert heading.inputs == ("v",)
    assert heading.rhs[0] == Sin(InputVar(0))
    assert heading.rhs[1] == Cos(InputVar(0))


def test_parse_cubic_structure(cubic):
    assert cubic.rhs[0] == InputVar(0)
    assert cubic.rhs[1] == Pow(StateVar(2), 3)
    assert cubic.rhs[2] == Pow(InputVar(0), 3)


def test_parse_accepts_comments_blank_lines_and_any_equation_order():
    text = """# planar vehicle
system demo

states a b
inputs w
db = a * 2  # note the order
da = -b + sin(w)
"""
    s = parse(text)
    assert s.states == ("a", "b")
    assert s.rhs[0] == Add(Neg(StateVar(1)), Sin(InputVar(0)))
    assert s.rhs[1] == Mul(StateVar(0), Constant(2.0))


def test_parse_no_inputs_line():
    s = parse("system auto\nstates x\ndx = -x\n")
    assert s.m == 0
    assert s.rhs[0] == Neg(StateVar(0))


@pytest.mark.parametrize(
    "text,line,frag",
    [
        ("", 1, "missing 'system' header"),
        ("system s\ninputs u\n", 2, "states"),
        ("system s\nstates x\ndx = x\ndx = x\n", 4, "duplicate"),
        ("system s\nstates x y\ndx = x\n", 0, "missing equation"),
        ("system s\nstates x\ndx = x +\n", 3, "unexpected"),
        ("system s\nstates x\ndx = q\n", 3, "undeclared"),
        ("system s\nstates x\ndx = x ^ y\n", 3, "integer"),
        ("system s\nstates x\ndx = x / 0\n", 3, "division by constant zero"),
        ("system s\nstates x\ndx = x + 1e400\n", 3, "col 10: number 1e400 overflows"),
        ("system s\nstates x\ndx = x * -1e400\n", 3, "col 10: number -1e400 overflows"),
        ("system s\nstates x sin\ndsin = x\n", 2, "reserved"),
        ("system s\nstates x x\ndx = x\n", 2, "duplicate"),
        ("system s\nstates x\ninputs x\ndx = x\n", 3, "duplicate"),
        ("system s\nstates 2x\nd2x = 0\n", 2, "bad state name"),
        ("system sin\nstates x\ndx = x\n", 1, "system name 'sin' is reserved"),
        ("system s\n", 1, "missing 'states' declaration"),
        ("system s\nstates\n", 2, "at least one state"),
        ("system s\nstates x\ndz = x\n", 3, "equation for undeclared state 'z'"),
    ],
)
def test_parse_errors(text, line, frag):
    with pytest.raises(DslError) as err:
        parse(text)
    assert frag in str(err.value)
    if line:
        assert err.value.line == line


def test_error_column_points_at_token():
    with pytest.raises(DslError) as err:
        parse("system s\nstates x\ndx = x + qq\n")
    assert err.value.line == 3
    assert err.value.col == 10


def test_serialize_golden(heading):
    assert serialize(heading) == HEADING_TEXT
    assert serialize(parse(CUBIC_TEXT)) == CUBIC_TEXT


def test_serialize_then_parse_is_identity_on_fixtures(heading, cubic):
    for s in (heading, cubic):
        again = parse(serialize(s))
        assert again.structurally_equal(s, match_names=True)


def test_negative_literal_vs_explicit_negation_round_trip():
    s = parse("system s\nstates x\ndx = -2.5 * x\n")
    assert s.rhs[0] == Mul(Constant(-2.5), StateVar(0))
    t = ControlSystem("s", ("x",), (), (Mul(Neg(Constant(2.5)), StateVar(0)),))
    text = serialize(t)
    assert parse(text).structurally_equal(t, match_names=True)
    assert not parse(text).structurally_equal(s, match_names=True)


def _random_expr(rng, n, m, depth):
    if depth == 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.35:
            return Constant(round(float(rng.uniform(-4, 4)), 3))
        if r < 0.75 or m == 0:
            return StateVar(int(rng.integers(n)))
        return InputVar(int(rng.integers(m)))
    op = rng.integers(8)
    a = _random_expr(rng, n, m, depth - 1)
    b = _random_expr(rng, n, m, depth - 1)
    if op == 0:
        return Add(a, b)
    if op == 1:
        return Sub(a, b)
    if op == 2:
        return Mul(a, b)
    if op == 3:
        den = b
        if isinstance(den, Constant) and den.value == 0.0:
            den = Constant(1.0)
        return Div(a, den)
    if op == 4:
        return Pow(a, int(rng.integers(-3, 4)))
    if op == 5:
        return Neg(a)
    if op == 6:
        return Sin(a) if rng.random() < 0.5 else Cos(a)
    return Exp(a)


def test_round_trip_on_200_random_systems():
    rng = np.random.default_rng(0xC0FFEE)
    for case in range(200):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(0, 3))
        states = tuple(f"s{i}" for i in range(n))
        inputs = tuple(f"w{j}" for j in range(m))
        rhs = tuple(_random_expr(rng, n, m, depth=int(rng.integers(1, 5))) for _ in range(n))
        sys_ = ControlSystem(f"rand{case}", states, inputs, rhs)
        again = parse(serialize(sys_))
        assert again.structurally_equal(sys_, match_names=True), f"case {case}"
        assert serialize(again) == serialize(sys_)


_PY_BINARY = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "^"}
_SHAPE_BINARY = {Add: "+", Sub: "-", Mul: "*", Div: "/"}


def _python_shape(node):
    """The tree of a Python expression as nested tuples."""
    if isinstance(node, ast.Constant):
        return ("num", node.value)
    if isinstance(node, ast.Name):
        return ("name", node.id)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return ("-", _python_shape(node.operand))
    if isinstance(node, ast.BinOp):
        return (_PY_BINARY[type(node.op)], _python_shape(node.left), _python_shape(node.right))
    assert isinstance(node, ast.Call) and len(node.args) == 1, ast.dump(node)
    return ("call", node.func.id, _python_shape(node.args[0]))


def _shape(e, names):
    """The tree of an expression as `_python_shape` gives it: a negative
    literal and a negative exponent are '-' of their magnitude."""
    def num(v):
        return ("-", ("num", -v)) if math.copysign(1.0, v) < 0 else ("num", v)

    match e:
        case Constant(v):
            return num(v)
        case StateVar(i) | InputVar(i):
            return ("name", names[type(e)][i])
        case Neg(a):
            return ("-", _shape(a, names))
        case Pow(b, k):
            return ("^", _shape(b, names), num(k))
        case Sin(a) | Cos(a) | Exp(a):
            return ("call", type(e).__name__.lower(), _shape(a, names))
    return (_SHAPE_BINARY[type(e)], _shape(e.left, names), _shape(e.right, names))


def test_dsl_expressions_have_python_s_tree_shape():
    """Python's grammar is the oracle: DSL text with '^' read as '**'
    parses, under `ast`, to the tree that the DSL parser builds, for drawn
    trees rendered as text and for hand-written unary minus and powers."""
    states, inputs = ["x", "y"], ["u"]
    names = {StateVar: states, InputVar: inputs}
    rng = np.random.default_rng(0xA57)
    texts = ["-x^2", "-2^2", "(-x)^2", "-x^2 * y", "x * -y^3", "--x^2", "-(x)^-2", "2 - -x^2", "-sin(x)^2",
             "-(2)^3", "-2.5 * x", "u / -4", "-x^-1 + -3^2"]
    for _ in range(400):
        e = _random_expr(rng, 2, 1, depth=int(rng.integers(1, 6)))
        texts.append(render_expression(e, states, inputs))
        assert parse_expression(texts[-1], states, inputs) == e
    for text in texts:
        want = _python_shape(ast.parse(text.replace("^", "**"), mode="eval").body)
        assert _shape(parse_expression(text, states, inputs), names) == want, text


def test_unary_minus_binds_looser_than_a_power():
    assert eval_expr(parse_expression("-x^2", ["x"], []), [1.0]) == -1.0
    assert eval_expr(parse_expression("-2^2", [], []), []) == -4.0
    assert eval_expr(parse_expression("(-x)^2", ["x"], []), [1.0]) == 1.0
    assert parse_expression("-x^2", ["x"], []) == Neg(Pow(StateVar(0), 2))
    assert render_expression(Pow(Neg(StateVar(0)), 2), ["x"], []) == "(-x)^2"
    assert render_expression(Neg(Pow(StateVar(0), 2)), ["x"], []) == "-x^2"


def test_parse_expression_and_render_expression():
    e = parse_expression("a * sin(w) - 3", ["a"], ["w"])
    assert e == Sub(Mul(StateVar(0), Sin(InputVar(0))), Constant(3.0))
    text = render_expression(e, ["a"], ["w"])
    assert parse_expression(text, ["a"], ["w"]) == e


def test_structurally_equal_name_sensitivity(heading):
    renamed = parse("system other\nstates p q\ninputs z\ndp = sin(z)\ndq = cos(z)\n")
    assert renamed.structurally_equal(heading)
    assert not renamed.structurally_equal(heading, match_names=True)
    different = parse("system other\nstates p q\ninputs z\ndp = sin(z)\ndq = sin(z)\n")
    assert not different.structurally_equal(heading)


# --- affine split ----------------------------------------------------------


def test_to_affine_reports_cubic_offender(cubic):
    rep = to_affine(cubic)
    assert isinstance(rep, NotAffineReport)
    assert rep.pair == ("x3", "u")
    assert "x3" in str(rep) and "u" in str(rep)


def test_to_affine_reports_heading_offender(heading):
    rep = to_affine(heading)
    assert isinstance(rep, NotAffineReport)
    assert rep.pair == ("x1", "v")


def test_to_affine_cross_term_names_both_inputs():
    s = parse("system s\nstates x\ninputs u1 u2\ndx = u1 * u2\n")
    rep = to_affine(s)
    assert isinstance(rep, NotAffineReport)
    assert rep.input != rep.input2


def test_to_affine_chain_split(chain5):
    aff = to_affine(chain5)
    assert not isinstance(aff, NotAffineReport)
    zero = np.zeros(5)
    assert eval_vf(aff.drift, [0.0, 0.0, 0.5, 0.0, 0.0]) == pytest.approx(
        [np.sin(0.5), np.cos(0.5), 0.0, 0.0, 0.0]
    )
    assert eval_vf(aff.channels[0], zero) == pytest.approx([0, 0, 0, 0, 1])


def test_to_affine_state_dependent_channel():
    s = parse("system bilinear\nstates x1 x2\ninputs u\ndx1 = x2 * u + x1\ndx2 = -x2\n")
    aff = to_affine(s)
    assert not isinstance(aff, NotAffineReport)
    pt = [3.0, 2.0]
    assert eval_vf(aff.drift, pt) == pytest.approx([3.0, -2.0])
    assert eval_vf(aff.channels[0], pt) == pytest.approx([2.0, 0.0])


def test_parse_expression_rejects_empty_text():
    with pytest.raises(DslError, match="empty expression"):
        parse_expression("", ["a"], ["w"])


@pytest.mark.parametrize("a, b, words", [
    ([[0.0, 1.0]], [[0.0]], "A must be square"),
    ([1.0, 2.0], [1.0, 2.0], "A must be square"),
    ([[0.0, 1.0], [-2.0, 0.5]], [[1.0], [0.0], [1.0]], "B must have one row per state"),
])
def test_from_linear_checks_shapes(a, b, words):
    with pytest.raises(ValueError, match=words):
        from_linear("lin", a, b)


def test_from_linear_golden():
    a = [[0.0, 1.0], [-2.0, 0.5]]
    b = [[0.0], [1.0]]
    s = from_linear("lin", a, b)
    assert s.n == 2 and s.m == 1
    x = np.array([1.5, -0.5])
    u = np.array([2.0])
    want = np.asarray(a) @ x + np.asarray(b) @ u
    got = [eval_expr(e, x, u) for e in s.rhs]
    assert got == pytest.approx(want)
    # affine split of a linear build recovers constant channels
    aff = to_affine(s)
    assert eval_vf(aff.channels[0], x) == pytest.approx([0.0, 1.0])


def test_every_node_type_renders_to_pinned_text():
    """The generated rhs source decides every sampler output, so its text
    is pinned here, with the DSL text, for a tree that holds every node
    type, a negative power and a negated literal."""
    import ctrlkit.expr as expr_module
    from ctrlkit.expr import OPS, Expr, expr_source

    def concrete(cls):
        for sub in cls.__subclasses__():
            if not sub.__name__.startswith("_"):
                yield sub
            yield from concrete(sub)

    node_types = set(concrete(Expr))
    assert node_types == {getattr(expr_module, name) for name in (
        "Constant", "StateVar", "InputVar", "Neg", "Add", "Sub", "Mul", "Div", "Pow", "Sin", "Cos", "Exp")}
    assert node_types <= set(OPS)

    e = Sub(
        Add(Mul(Constant(2.5), Pow(StateVar(0), -2)), Div(Neg(Constant(3.0)), Mul(Sin(InputVar(0)), StateVar(1)))),
        Sub(Mul(Cos(Sub(StateVar(1), Constant(-1.25))), Exp(Neg(Pow(Add(StateVar(0), InputVar(1)), 3)))),
            Pow(Constant(0.5), 2)),
    )
    assert expr_source(e) == (
        "(((2.5 * ipow(x0, -2)) + (-3.0 / (np.sin(u0) * x1))) - "
        "((np.cos((x1 - -1.25)) * np.exp((-ipow((x0 + u1), 3)))) - 0.25))"
    )
    text = render_expression(e, ["p", "q"], ["a", "b"])
    assert text == "2.5 * p^-2 + -(3.0) / (sin(a) * q) - (cos(q - -1.25) * exp(-(p + b)^3) - (0.5)^2)"
    assert parse_expression(text, ["p", "q"], ["a", "b"]) == e


@pytest.mark.parametrize("fields, error", [
    ({"name": "9lives"}, ValueError),
    ({"name": "system"}, ValueError),
    ({"states": ("x1", "x-2")}, ValueError),
    ({"inputs": ("sin",)}, ValueError),
    ({"states": (), "rhs": ()}, ValueError),
    ({"inputs": ("x1",)}, ValueError),
    ({"rhs": (InputVar(0),)}, ValueError),
    ({"rhs": (StateVar(1), 1.0)}, TypeError),
    ({"rhs": (StateVar(2), InputVar(0))}, ValueError),
    ({"rhs": (StateVar(1), InputVar(1))}, ValueError),
], ids=["bad name", "reserved name", "bad state", "reserved input", "no states", "duplicate",
        "equation count", "not an expression", "undeclared state", "undeclared input"])
def test_control_system_constructor_rejects(fields, error):
    base = {"name": "s", "states": ("x1", "x2"), "inputs": ("u",), "rhs": (StateVar(1), InputVar(0))}
    ControlSystem(**base)
    with pytest.raises(error):
        ControlSystem(**{**base, **fields})


@pytest.mark.parametrize("rhs", [(Add(InputVar(1), StateVar(2)), InputVar(0)),
                                 (StateVar(0), Add(StateVar(2), InputVar(1)))],
                         ids=["input left of the state", "input right of the state"])
def test_an_undeclared_state_is_reported_before_an_undeclared_input(rhs):
    with pytest.raises(ValueError, match="references an undeclared state"):
        ControlSystem("s", ("x1", "x2"), ("u",), rhs)


@pytest.mark.parametrize("fields", [
    {"drift": VectorField((Constant(0.0),), n=1)},
    {"channels": ()},
    {"channels": (VectorField((Constant(1.0),), n=1),)},
], ids=["drift off the state space", "channel count", "channel off the state space"])
def test_affine_system_constructor_rejects(fields):
    field = VectorField((Constant(0.0), Constant(1.0)), n=2)
    base = {"name": "a", "states": ("x1", "x2"), "input_names": ("u",), "drift": field, "channels": (field,)}
    AffineSystem(**base)
    with pytest.raises(ValueError):
        AffineSystem(**{**base, **fields})
