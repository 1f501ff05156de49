"""Expression-tree unit tests.

Derivative correctness is checked against central finite differences,
which is the one oracle here that does not share code with the
implementation under test.
"""

import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import iter_nodes

from ctrlkit.expr import (
    _PROBE_SEED,
    ZERO_TOL,
    Add,
    Constant,
    Cos,
    Div,
    EvalError,
    Exp,
    ExprError,
    InputVar,
    Mul,
    Neg,
    Pow,
    Sin,
    StateVar,
    Sub,
    compile_components,
    diff,
    eval_expr,
    eval_points,
    expr_source,
    fold,
    _exp,
    ipow,
    is_probably_zero,
    leaves,
    probe_block,
    simplify,
    subst,
)

X0, X1 = StateVar(0), StateVar(1)
U0 = InputVar(0)


def test_eval_golden_values():
    e = Add(Mul(Constant(2.0), X0), Sin(X1))
    assert eval_expr(e, [3.0, 0.0]) == pytest.approx(6.0)
    assert eval_expr(e, [0.5, math.pi / 2]) == pytest.approx(2.0)
    assert eval_expr(Pow(X0, 3), [2.0]) == pytest.approx(8.0)
    assert eval_expr(Div(Constant(1.0), X0), [4.0]) == pytest.approx(0.25)
    assert eval_expr(Exp(Neg(X0)), [0.0]) == pytest.approx(1.0)
    assert eval_expr(Sub(U0, X0), [1.0], [5.0]) == pytest.approx(4.0)


def test_eval_errors():
    with pytest.raises(EvalError):
        eval_expr(Div(X0, X1), [1.0, 0.0])
    with pytest.raises(EvalError):
        eval_expr(StateVar(2), [1.0, 2.0])
    with pytest.raises(EvalError):
        eval_expr(U0, [1.0], [])
    with pytest.raises(EvalError):
        eval_expr(Pow(X0, -1), [0.0])


def test_eval_overflow_is_inf_not_crash():
    e = Exp(Mul(Constant(1000.0), X0))
    assert eval_expr(e, [10.0]) == math.inf


def test_constructor_validation():
    with pytest.raises(ExprError):
        Constant(float("nan"))
    with pytest.raises(ExprError):
        Constant(float("inf"))
    with pytest.raises(ExprError):
        Div(X0, Constant(0.0))
    with pytest.raises(ExprError):
        StateVar(-1)
    with pytest.raises(ExprError):
        Pow(X0, 1.5)


def test_operator_overloads_build_trees():
    e = (X0 + 1.0) * X1 - X0 / 2.0
    assert isinstance(e, Sub)
    assert eval_expr(e, [2.0, 3.0]) == pytest.approx(9.0 - 1.0)
    assert isinstance(-X0, Neg)


def test_node_helpers():
    e = Add(Mul(X0, U0), Sin(X1))
    assert leaves(e) == ({0, 1}, {0}, 6)
    assert leaves(Sin(X0)) == ({0}, set(), 2)
    assert leaves(Constant(1.0)) == (set(), set(), 1)
    assert leaves(Add(InputVar(3), Mul(InputVar(1), StateVar(4)))) == ({4}, {1, 3}, 5)
    kinds = {type(t).__name__ for t in iter_nodes(e)}
    assert kinds == {"Add", "Mul", "StateVar", "InputVar", "Sin"}


# one expression per node type, all smooth away from zero denominators
_FD_CASES = [
    Constant(3.5),
    X0,
    U0,
    Neg(Mul(X0, X1)),
    Add(X0, Mul(X1, U0)),
    Sub(Pow(X0, 2), X1),
    Mul(Sin(X0), Cos(X1)),
    Div(X0, Add(Pow(X1, 2), Constant(1.0))),
    Pow(Add(X0, Constant(2.0)), 3),
    Pow(Add(Pow(X0, 2), Constant(1.0)), -2),
    Sin(Mul(X0, X1)),
    Cos(Add(X0, U0)),
    Exp(Mul(Constant(0.5), X0)),
]


@pytest.mark.parametrize("expr", _FD_CASES, ids=lambda e: type(e).__name__ + str(leaves(e)[2]))
def test_diff_matches_finite_differences(expr):
    rng = np.random.default_rng(42)
    h = 1e-6
    for _ in range(10):
        x = rng.uniform(-1.5, 1.5, size=2)
        u = rng.uniform(-1.5, 1.5, size=1)
        for var, bump in [(StateVar(0), "x0"), (StateVar(1), "x1"), (InputVar(0), "u0")]:
            d = diff(expr, var)
            got = eval_expr(d, x, u)
            xp, xm = x.copy(), x.copy()
            up, um = u.copy(), u.copy()
            if bump == "x0":
                xp[0] += h
                xm[0] -= h
            elif bump == "x1":
                xp[1] += h
                xm[1] -= h
            else:
                up[0] += h
                um[0] -= h
            fd = (eval_expr(expr, xp, up) - eval_expr(expr, xm, um)) / (2 * h)
            assert got == pytest.approx(fd, rel=1e-5, abs=1e-5)


def test_only_a_subtree_that_reads_no_variable_differentiates_to_zero():
    assert diff(Neg(X1), X0) == Neg(Constant(0.0))
    assert diff(Mul(X1, Pow(Constant(1e-100), -3)), X1) == Add(Mul(Constant(1.0), Pow(Constant(1e-100), -3)),
                                                             Mul(X1, Constant(0.0)))
    assert diff(Add(X1, Pow(Constant(1e-100), -3)), X0) == Add(Constant(0.0), Constant(0.0))


def test_diff_requires_variable():
    with pytest.raises(ExprError):
        diff(X0, Constant(1.0))


def test_simplify_preserves_value():
    rng = np.random.default_rng(3)
    for expr in _FD_CASES:
        s = simplify(expr)
        for _ in range(100):
            x = rng.uniform(-2, 2, size=2)
            u = rng.uniform(-2, 2, size=1)
            assert eval_expr(s, x, u) == pytest.approx(eval_expr(expr, x, u), rel=1e-12, abs=1e-12)


def test_simplify_structural_goldens():
    assert simplify(Add(X0, Constant(0.0))) == X0
    assert simplify(Mul(Constant(1.0), X1)) == X1
    assert simplify(Mul(X0, Constant(0.0))) == Constant(0.0)
    assert simplify(Sub(X0, X0)) == Constant(0.0)
    assert simplify(Neg(Neg(X0))) == X0
    assert simplify(Pow(X0, 0)) == Constant(1.0)
    assert simplify(Pow(X0, 1)) == X0
    assert simplify(Add(Constant(2.0), Constant(3.0))) == Constant(5.0)
    assert simplify(Sin(Constant(0.0))) == Constant(0.0)
    assert simplify(Neg(Constant(4.0))) == Constant(-4.0)
    # folding may not create a zero denominator
    e = Div(X0, Sub(Constant(1.0), Constant(1.0)))
    s = simplify(e)
    assert isinstance(s, Div)


def test_subst():
    e = Add(Mul(X0, U0), X1)
    swapped = subst(e, state_map={0: X1, 1: X0}, input_map={0: Constant(2.0)})
    assert eval_expr(swapped, [3.0, 5.0]) == pytest.approx(5.0 * 2.0 + 3.0)
    # substituting states for inputs is how extension rewires equations
    wired = subst(e, input_map={0: StateVar(2)})
    assert leaves(wired)[:2] == ({0, 1, 2}, set())


def test_is_probably_zero():
    assert is_probably_zero(Sub(Mul(X0, X1), Mul(X1, X0)), 2, 0)
    assert is_probably_zero(Constant(0.0), 1, 0)
    # sin^2 + cos^2 - 1 is zero only semantically, not structurally
    pyth = Sub(Add(Pow(Sin(X0), 2), Pow(Cos(X0), 2)), Constant(1.0))
    assert is_probably_zero(pyth, 1, 0)
    assert not is_probably_zero(Sub(X0, X1), 2, 0)
    assert not is_probably_zero(Constant(1e-6), 1, 0)
    # a zero-denominator hazard must not crash the probe
    assert not is_probably_zero(Div(Constant(1.0), X0), 1, 0)


def test_compile_components_matches_eval():
    exprs = [Add(Mul(X0, U0), Sin(X1)), Sub(Pow(X0, 3), Div(U0, Constant(2.0)))]
    f = compile_components(exprs, 2, 1)
    rng = np.random.default_rng(11)
    xs = rng.uniform(-2, 2, size=(50, 2))
    us = rng.uniform(-2, 2, size=(50, 1))
    batch = f(xs, us)
    assert batch.shape == (50, 2)
    for i in range(50):
        one = f(xs[i], us[i])
        assert one.shape == (2,)
        for j, e in enumerate(exprs):
            want = eval_expr(e, xs[i], us[i])
            assert batch[i, j] == pytest.approx(want, rel=1e-14, abs=1e-14)
            assert one[j] == pytest.approx(want, rel=1e-14, abs=1e-14)


def test_compile_components_constant_rhs_broadcasts():
    f = compile_components([Constant(2.0), X0], 1, 0)
    out = f(np.zeros((7, 1)), np.zeros((7, 0)))
    assert out.shape == (7, 2)
    assert np.all(out[:, 0] == 2.0)


def test_integer_powers_compile_to_squares_and_products():
    x = np.random.default_rng(5).uniform(-2.0, 2.0, size=(64, 2))
    products = {
        0: lambda b: np.ones_like(b),
        1: lambda b: b,
        2: lambda b: b * b,
        3: lambda b: b * b * b,
        4: lambda b: (b * b) * (b * b),
        5: lambda b: ((b * b) * (b * b)) * b,
        6: lambda b: ((b * b) * b) * ((b * b) * b),
    }
    for k in (-3, -2, -1, 0, 1, 2, 3, 4, 5, 6):
        got = compile_components([Pow(Add(X0, X1), k), Pow(X1, k)], 2, 0)(x, np.zeros((64, 0)))
        for col, base in enumerate((x[:, :1] + x[:, 1:], x[:, 1:])):
            prod = products[abs(k)](base)
            assert np.array_equal(got[:, col:col + 1], prod if k >= 0 else 1.0 / prod), (k, col)
    assert expr_source(Add(Pow(Add(Pow(Sub(X0, X1), 2), X0), 3), Pow(Neg(X1), -2))) == (
        "(ipow((ipow((x0 - x1), 2) + x0), 3) + ipow((-x1), -2))"
    )


@pytest.mark.parametrize("k, want", [
    (5000, [np.inf, 1.0, 0.0, 0.0, 0.0, 1.0, np.inf]),
    (1_000_000_000, [np.inf, 1.0, 0.0, 0.0, 0.0, 1.0, np.inf]),
    (-1_000_000_001, [0.0, -1.0, -np.inf, np.inf, np.inf, 1.0, 0.0]),
])
def test_large_powers_compile_and_evaluate(k, want):
    # about 2 log2(k) products, not k
    x = np.array([[-2.0], [-1.0], [-0.5], [0.0], [0.5], [1.0], [2.0]])
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        got = compile_components([Pow(X0, k)], 1, 0)(x, np.zeros((7, 0)))[:, 0]
    assert np.array_equal(got, want)


@pytest.mark.parametrize("power, words", [
    (Pow(Constant(0.0), -1), "zero raised to a negative power"),
    (Pow(Sub(Constant(1.0), Constant(1.0)), -2), "zero raised to a negative power"),
    (Pow(Constant(2.0), 2000), "non-finite constant"),
    (Pow(Div(Constant(1.0), Sub(Constant(1.0), Constant(1.0))), 2), "division by zero"),
    # every variable-free subtree folds, not only powers
    (Div(Constant(1.0), Sub(Constant(1.0), Constant(1.0))), "division by zero"),
    (Div(X0, Sub(Constant(2.0), Constant(2.0))), "division by syntactic zero"),
    (Exp(Constant(1000.0)), "non-finite constant inf"),
    (Sin(Mul(Constant(1e300), Constant(1e300))), "non-finite constant inf"),
    (Pow(Constant(-1e-200), -3), "non-finite constant -inf"),
])
def test_constant_powers_that_cannot_be_folded_fail_to_compile(power, words):
    with pytest.raises(ExprError, match=words):
        compile_components([Mul(power, X0)], 1, 0)


def test_constant_powers_fold_to_their_value():
    assert expr_source(Mul(Pow(Constant(0.5), -2), X0)) == "(4.0 * x0)"
    assert expr_source(Pow(Add(Constant(1.0), Constant(2.0)), 3)) == "27.0"


def test_compiled_code_folds_every_variable_free_subtree_and_nothing_else():
    assert expr_source(Mul(Div(Constant(1.0), Constant(4.0)), X0)) == "(0.25 * x0)"
    assert expr_source(Add(Exp(Constant(1.0)), X0)) == f"({math.exp(1.0)!r} + x0)"
    assert expr_source(Neg(Sin(Sub(Constant(1.0), Constant(1.0))))) == "-0.0"
    # no unit/zero rule and no equal-children rule: they change signed zeros and NaNs
    assert expr_source(Mul(Constant(1.0), Sub(X0, X0))) == "(1.0 * (x0 - x0))"
    assert expr_source(Add(X0, Mul(Constant(0.0), Constant(-1.0)))) == "(x0 + -0.0)"


def test_powers_are_squares_and_products_everywhere():
    b = 1.268
    product = ((b * b) * (b * b)) * b
    assert ipow(b, 5) == product
    assert simplify(Pow(Constant(b), 5)) == Constant(product)
    assert eval_expr(Pow(X0, 5), [b]) == product
    assert eval_expr(Pow(X0, -5), [b]) == 1.0 / product
    # a product that underflows is an overflow of the power, not 0 to a negative power
    assert eval_expr(Pow(X0, -2), [1e-200]) == math.inf
    assert eval_expr(Pow(X0, -3), [-1e-200]) == -math.inf
    with pytest.raises(ZeroDivisionError):
        ipow(0.0, -1)


_CONSTANT_TREES = st.recursive(
    st.sampled_from([0.0, -0.0, 1.0, -2.5, 3.0, 1e-200, 1e300]).map(Constant),
    lambda kids: st.one_of(
        st.sampled_from([Neg, Sin, Cos, Exp]).flatmap(lambda t: kids.map(t)),
        st.sampled_from([Add, Sub, Mul]).flatmap(lambda t: st.tuples(kids, kids).map(lambda ab: t(*ab))),
        st.tuples(kids, kids).filter(lambda ab: ab[1] != Constant(0.0)).map(lambda ab: Div(*ab)),
        st.tuples(kids, st.integers(-4, 4)).map(lambda bk: Pow(*bk)),
    ),
    max_leaves=8,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_CONSTANT_TREES)
def test_one_fold_for_simplify_evaluation_and_compiled_code(e):
    """`simplify`, `eval_expr` and the compiler give a variable-free tree
    the same value, to the bit, wherever `fold` finds one."""
    try:
        value = fold(e).value
    except ExprError:
        with pytest.raises(ExprError):
            compile_components([Add(e, X0)], 1, 0)
        return
    assert simplify(e).value.hex() == value.hex()
    assert eval_expr(e, []).hex() == value.hex()
    x = np.array([[0.5]])
    assert compile_components([Add(e, X0)], 1, 0)(x, np.zeros((1, 0)))[0, 0] == value + 0.5


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_CONSTANT_TREES)
def test_a_tree_that_reads_no_variable_has_derivative_zero(e):
    """Also where the chain rule's constants, such as (1e-200)^-5, have no finite value."""
    for var in (X0, U0):
        d = diff(e, var)
        assert d == Constant(0.0) and math.copysign(1.0, d.value) == 1.0


def test_simplify_overflowing_fold_raises_expr_error():
    # the folded value is not finite, so the fold is an input error, not an OverflowError
    with pytest.raises(ExprError, match="non-finite"):
        simplify(Pow(Constant(1e200), 2))
    with pytest.raises(ExprError, match="non-finite"):
        simplify(Exp(Constant(1000.0)))
    with pytest.raises(ExprError, match="non-finite"):
        simplify(Mul(Constant(1e200), Constant(1e200)))
    # evaluation still saturates instead of failing
    assert eval_expr(Exp(X0), [1000.0]) == math.inf
    assert eval_expr(Pow(X0, 3), [-1e200]) == -math.inf


def test_is_probably_zero_raises_when_no_probe_evaluates():
    undefined = Div(X0, Sub(X1, X1))
    with pytest.raises(EvalError, match="probe points"):
        is_probably_zero(undefined, 2, 0)


def test_probe_block_rows_match_row_by_row_draws():
    from ctrlkit.expr import probe_block

    for dim, count, seed in ((3, 128, 0x5EED), (4, 8, 0xB0B), (1, 5, 7)):
        rng = np.random.default_rng(seed)
        rows = np.array([rng.uniform(-2.0, 2.0, size=dim) for _ in range(count)])
        assert np.array_equal(probe_block(dim, count, seed), rows)


def test_simplify_equal_children_of_sub_give_positive_zero():
    # x - x is +0 even for -0.0 - 0.0, which a plain fold would give as -0.0;
    # the sign shows in the generated source and in serialized text
    assert repr(simplify(Sub(Constant(-0.0), Constant(0.0)))) == "Constant(value=0.0)"
    assert repr(simplify(Sub(Neg(X0), Neg(X0)))) == "Constant(value=0.0)"
    assert repr(simplify(Mul(Constant(-0.0), Constant(2.0)))) == "Constant(value=-0.0)"


def test_domain_error_is_an_eval_error_at_the_point():
    # exp(x0^400) overflows to inf for |x0| > 1, and math.sin(inf) raises
    # ValueError; that point has no value, like a division by zero
    wild = Sin(Exp(Pow(X0, 400)))
    with pytest.raises(EvalError, match=r"sin\(inf\) is undefined at x=\[2\.0\]"):
        eval_expr(wild, [2.0])
    with pytest.raises(EvalError, match=r"cos\(-inf\)"):
        eval_expr(Cos(Neg(Exp(Pow(X0, 400)))), [-1.5])
    assert eval_expr(wild, [0.5]) == math.sin(math.exp(0.5**400))
    # sin^2 + cos^2 - 1 vanishes wherever it is defined; the probes where
    # it is not are skipped
    one = Add(Pow(Sin(X1), 2), Pow(Cos(X1), 2))
    assert is_probably_zero(Mul(wild, Sub(one, Constant(1.0))), 2, 0)


@pytest.mark.parametrize(
    "e",
    [
        Sub(Constant(0.0), Neg(X0)),
        Neg(Neg(X0)),
        Mul(Constant(0.0), X0),
        Div(X0, Sub(Constant(1.0), Constant(1.0))),
        Pow(X0, 0),
        Pow(Constant(0.0), -1),
        Sub(Constant(0.0), Neg(Neg(Neg(X0)))),
        Sub(Constant(0.0), Sub(Constant(0.0), X1)),
    ],
    ids=["0--x", "--x", "0*x", "x/(1-1)", "x^0", "0^-1", "0----x", "0-(0-y)"],
)
def test_simplify_is_idempotent_on_edge_cases(e):
    once = simplify(e)
    assert simplify(once) == once


def test_simplify_of_zero_minus_negation_is_the_argument():
    assert simplify(Sub(Constant(0.0), Neg(X0))) == X0
    assert simplify(Sub(Constant(0.0), Neg(Neg(X0)))) == Neg(X0)


def test_rewrite_is_one_root_step_over_simplified_children():
    from ctrlkit.expr import rewrite

    # children are taken as they are: nothing below the root is rewritten
    inner = Add(X0, Constant(0.0))
    assert rewrite(Mul(Constant(1.0), inner)) == inner
    assert rewrite(Sub(X0, X0)) == Constant(0.0)
    assert rewrite(Add(Constant(2.0), Constant(3.0))) == Constant(5.0)
    assert rewrite(Pow(Constant(2.0), -1)) == Constant(0.5)
    # a zero denominator stops the fold and keeps the original node
    den = Sub(Constant(1.0), Constant(1.0))
    assert rewrite(Div(X0, den), X0, Constant(0.0)) == Div(X0, den)
    assert rewrite(X1) == X1


@pytest.mark.parametrize(
    "e,message",
    [
        (StateVar(3), "state index 3 out of range at x=[2.0, -0.25], u=[1.0]"),
        (Div(X0, Sub(X1, X1)), "division by zero at x=[2.0, -0.25], u=[1.0]"),
        (Pow(Sub(X1, X1), -2), "zero raised to negative power at x=[2.0, -0.25], u=[1.0]"),
        (Sin(Exp(Pow(X0, 2000))), "sin(inf) is undefined at x=[2.0, -0.25], u=[1.0]"),
    ],
    ids=["index", "division", "power", "domain"],
)
def test_eval_error_prints_numpy_points_as_plain_floats(e, message):
    # numpy 2 reprs a scalar as np.float64(2.0); the message shows 2.0
    with pytest.raises(EvalError) as err:
        eval_expr(e, np.array([2.0, -0.25]), np.array([1.0]))
    assert str(err.value) == message


def _one_point(e, x, u):
    """The recursion over one point that `eval_points` must match bit for
    bit: each node's float function, the denominator checked before the
    numerator is evaluated, and the first failure raised."""
    at = f"x={[float(v) for v in x]}, u={[float(v) for v in u]}"
    t = type(e)
    if t is Constant:
        return e.value
    if t is StateVar or t is InputVar:
        point, kind = (x, "state") if t is StateVar else (u, "input")
        if e.index >= len(point):
            raise EvalError(f"{kind} index {e.index} out of range at {at}")
        return float(point[e.index])
    if t is Div:
        denom = _one_point(e.right, x, u)
        if denom == 0.0:
            raise EvalError(f"division by zero at {at}")
        return _one_point(e.left, x, u) / denom
    if t is Pow:
        try:
            return ipow(_one_point(e.base, x, u), e.exponent)
        except ZeroDivisionError:
            raise EvalError(f"zero raised to negative power at {at}") from None
    fn = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Neg: operator.neg,
          Sin: math.sin, Cos: math.cos, Exp: _exp}[t]
    args = [_one_point(k, x, u) for k in e.children()]
    try:
        return fn(*args)
    except ValueError:
        raise EvalError(f"{t.__name__.lower()}({args[0]}) is undefined at {at}") from None


def _assert_walk_matches_one_point(e, xs, us):
    values, errors = eval_points(e, xs, us)
    assert len(values) == len(errors) == len(xs)
    for value, error, x, u in zip(values, errors, xs, us):
        try:
            want = _one_point(e, x, u)
        except EvalError as exc:
            assert str(error) == str(exc)
            assert math.isnan(value)
            with pytest.raises(EvalError) as err:
                eval_expr(e, x, u)
            assert str(err.value) == str(exc)
        else:
            assert error is None
            assert value.hex() == want.hex() == eval_expr(e, x, u).hex()


# values that make differences vanish, powers underflow and exponentials overflow
_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.5, 1e-200, 1e300, 800.0])
_TREES = st.recursive(
    st.one_of(_VALUES.map(Constant), st.sampled_from([X0, X1, U0, StateVar(2), Sin(Exp(X0)), Cos(Neg(Exp(U0)))])),
    lambda kids: st.one_of(
        st.sampled_from([Neg, Sin, Cos, Exp]).flatmap(lambda t: kids.map(t)),
        st.sampled_from([Add, Sub, Mul]).flatmap(lambda t: st.tuples(kids, kids).map(lambda ab: t(*ab))),
        st.tuples(kids, kids).filter(lambda ab: ab[1] != Constant(0.0)).map(lambda ab: Div(*ab)),
        st.tuples(kids, st.sampled_from([-3, -2, -1, 0, 1, 2, 3, 400])).map(lambda bk: Pow(*bk)),
    ),
    max_leaves=10,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_TREES)
def test_leaves_reads_what_every_node_walk_reads(e):
    nodes = list(iter_nodes(e))
    assert leaves(e) == ({v.index for v in nodes if type(v) is StateVar},
                         {v.index for v in nodes if type(v) is InputVar}, len(nodes))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_TREES, st.lists(st.tuples(_VALUES, _VALUES, _VALUES), min_size=1, max_size=8),
       st.sampled_from([2, 3]))
def test_walk_at_many_points_matches_one_point_evaluation(e, points, n):
    """Each point of one walk reads what evaluation at that point alone
    gives, to the bit, and a point that fails there fails in the walk
    with the same error, whatever the other points do."""
    xs = np.array([p[:n] for p in points])
    us = np.array([p[2:] for p in points])
    _assert_walk_matches_one_point(e, xs, us)


@pytest.mark.parametrize(
    "e",
    [
        Div(X0, Sub(X0, X1)),  # a zero denominator at some points only
        Pow(Sub(X0, X1), -2),  # 0^-k
        Sin(Exp(Pow(X0, 400))),  # sin(inf) where |x0| > 1.0016
        Add(Div(Constant(1.0), Sin(Exp(Pow(X1, 400)))), Div(X0, Sub(X0, X1))),  # the first failure wins
        Pow(Div(Constant(1.0), Sub(X0, X1)), 0),  # NaN^0 is 1.0, yet the point has failed
    ],
    ids=["division", "power", "domain", "first", "zero-power"],
)
def test_walk_fails_at_the_failing_points_alone(e):
    probes = probe_block(2, 16, 7)
    probes[::3, 1] = probes[::3, 0]  # x0 = x1 at every third point
    probes[::4, 1] = 0.5
    values, errors = eval_points(e, probes)
    failed = [err is not None for err in errors]
    assert any(failed) and not all(failed)
    _assert_walk_matches_one_point(e, probes, np.zeros((len(probes), 0)))


def _zero_probe_by_probe(e, n, m):
    """`is_probably_zero` as one probe at a time: stop at the first probe
    that reads non-zero, skip the failing ones, stop after 64 that read zero."""
    s = simplify(e)
    if type(s) is Constant:
        return abs(s.value) < ZERO_TOL
    checked, failure = 0, None
    for p in probe_block(n + m, 128, _PROBE_SEED):
        try:
            v = _one_point(s, p[:n], p[n:])
        except EvalError as exc:
            failure = exc
            continue
        if not math.isfinite(v) or abs(v) >= ZERO_TOL:
            return False
        checked += 1
        if checked == 64:
            break
    if not checked:
        raise EvalError(f"expression is undefined at all 128 probe points ({failure})")
    return True


def _zero_verdict(test, e, n, m):
    try:
        return test(e, n, m)
    except ExprError as exc:  # EvalError, or a constant fold with no finite value
        return f"{type(exc).__name__}: {exc}"


# tiny multiples read zero at some probes and not at others
_ZERO_TEST_TREES = st.one_of(_TREES, st.tuples(st.sampled_from([1e-12, 1e-20]), _TREES).map(lambda ct: Mul(Constant(ct[0]), ct[1])))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_ZERO_TEST_TREES, st.sampled_from([(2, 1), (3, 0), (3, 1)]))
def test_is_probably_zero_reads_as_one_probe_at_a_time(e, nm):
    """The same verdict, or the same error text, as probing one point at a time."""
    assert _zero_verdict(is_probably_zero, e, *nm) == _zero_verdict(_zero_probe_by_probe, e, *nm)


def test_is_probably_zero_reads_past_its_first_probes():
    """An expression that reads zero at the first 8 probes and not at a later one is not zero."""
    x0 = np.abs(probe_block(1, 128, _PROBE_SEED)[:, 0])
    assert x0.max() > x0[:8].max()
    scale = math.sqrt(x0[:8].max() * x0.max())  # (x0 / scale)^20000 underflows at the first 8, not at the largest
    e = Pow(Div(X0, Constant(scale)), 20000)
    assert all(abs(v) < ZERO_TOL for v in eval_points(e, probe_block(1, 8, _PROBE_SEED))[0])
    assert is_probably_zero(e, 1, 0) is _zero_probe_by_probe(e, 1, 0) is False
