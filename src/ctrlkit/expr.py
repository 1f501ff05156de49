"""Symbolic expression trees for control system right-hand sides.

Nodes are immutable dataclasses, so structural equality and hashing come
for free.  State and input variables are referenced by index; name lookup
lives at the system level, not here.

Each node type says once what it is: `children()` and `rebuild()` give
its subtrees, and its entry in `OPS` holds its symbol and precedence in
the DSL, the float function that evaluation and constant folding share,
its numpy name, its derivative rule and its unit/zero rule.  The walkers
below, and the DSL parser and renderer, read those; only Pow and the
three leaves are special cases.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

ZERO_TOL = 1e-10
PROBE_BOX = 2.0
_PROBE_SEED = 0x5EED
_PROBE_POINTS = 64


class ExprError(ValueError):
    pass


class EvalError(ExprError):
    """Evaluation failed at a concrete point (e.g. division by zero)."""


class Expr:
    __slots__ = ()

    def __add__(self, other):
        return Add(self, _coerce(other))

    def __radd__(self, other):
        return Add(_coerce(other), self)

    def __sub__(self, other):
        return Sub(self, _coerce(other))

    def __rsub__(self, other):
        return Sub(_coerce(other), self)

    def __mul__(self, other):
        return Mul(self, _coerce(other))

    def __rmul__(self, other):
        return Mul(_coerce(other), self)

    def __truediv__(self, other):
        return Div(self, _coerce(other))

    def __pow__(self, k):
        return Pow(self, k)

    def __neg__(self):
        return Neg(self)

    def children(self) -> tuple:
        """Direct subexpressions, left to right; none for a leaf."""
        return ()

    def rebuild(self, *kids) -> "Expr":
        """The same node over new children."""
        return type(self)(*kids) if kids else self


def _coerce(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Constant(float(value))
    raise TypeError(f"cannot use {value!r} in an expression")


@dataclass(frozen=True)
class Constant(Expr):
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        if not math.isfinite(self.value):
            raise ExprError(f"non-finite constant {self.value!r}")


@dataclass(frozen=True)
class StateVar(Expr):
    index: int

    def __post_init__(self):
        if not isinstance(self.index, int) or self.index < 0:
            raise ExprError(f"bad state index {self.index!r}")


@dataclass(frozen=True)
class InputVar(Expr):
    index: int

    def __post_init__(self):
        if not isinstance(self.index, int) or self.index < 0:
            raise ExprError(f"bad input index {self.index!r}")


@dataclass(frozen=True)
class _Unary(Expr):
    arg: Expr

    def children(self):
        return (self.arg,)


@dataclass(frozen=True)
class _Binary(Expr):
    left: Expr
    right: Expr

    def children(self):
        return (self.left, self.right)


class Neg(_Unary):
    pass


class Add(_Binary):
    pass


class Sub(_Binary):
    pass


class Mul(_Binary):
    pass


@dataclass(frozen=True)
class Div(_Binary):
    def __post_init__(self):
        if type(self.right) is Constant and self.right.value == 0.0:
            raise ExprError("division by syntactic zero")


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def __post_init__(self):
        if not isinstance(self.exponent, int) or isinstance(self.exponent, bool):
            raise ExprError(f"power exponent must be an integer, got {self.exponent!r}")

    def children(self):
        return (self.base,)

    def rebuild(self, base):
        return Pow(base, self.exponent)


class Sin(_Unary):
    pass


class Cos(_Unary):
    pass


class Exp(_Unary):
    pass


_ZERO = Constant(0.0)
_ONE = Constant(1.0)


def _is(e: Expr, value: float) -> bool:
    return type(e) is Constant and e.value == value


def is_zero(e: Expr) -> bool:
    """An exact zero constant, 0.0 or -0.0: the term the Add and Sub rules drop."""
    return _is(e, 0.0)


def ipow(b, k: int):
    """b ** k for an integer k by squaring and multiplying, 1.0 over that
    for k < 0: O(log |k|) products, which round the same on every numpy
    SIMD path and every libm, where `**` calls pow(), whose bits follow
    them.  Up to |k| = 3 these are the left-to-right products b * b * b."""
    if k == 0:
        return b ** 0
    r = b
    for bit in bin(abs(k))[3:]:
        r = r * r
        if bit == "1":
            r = r * b
    try:
        return r if k > 0 else 1.0 / r
    except ZeroDivisionError:  # a float product that underflowed, unless b is 0
        if b == 0.0:
            raise
        return math.copysign(math.inf, r)


def _exp(a: float) -> float:
    try:
        return math.exp(a)
    except OverflowError:
        return math.inf


# The rules below see the children after folding, so at most one
# child of a binary node is a constant, unless a zero denominator
# stopped the fold.

def _add_rule(e, a, b):
    return b if _is(a, 0.0) else a if _is(b, 0.0) else Add(a, b)


def _sub_rule(e, a, b):
    return a if _is(b, 0.0) else rewrite(Neg(b)) if _is(a, 0.0) else Sub(a, b)


def _mul_rule(e, a, b):
    if _is(a, 0.0) or _is(b, 0.0):
        return _ZERO
    return b if _is(a, 1.0) else a if _is(b, 1.0) else Mul(a, b)


def _div_rule(e, a, b):
    if _is(b, 0.0):
        # folding produced a zero denominator; keep the original shape
        return Div(a, e.right)
    return _ZERO if _is(a, 0.0) else a if _is(b, 1.0) else Div(a, b)


class Op(NamedTuple):
    """What one node type means."""

    symbol: str | None  # DSL operator or function name
    prec: int  # DSL binding: 1 sums, 2 products, 3 prefix '-', 4 powers, 5 atoms and calls
    fn: Callable | None  # float value from the children's values (and Pow's exponent)
    numpy: str | None  # numpy function in generated code
    deriv: Callable | None  # (node, derivatives of its children) -> derivative
    rule: Callable | None = None  # unit/zero rewrite: (node, simplified children) -> node
    # what the float loop of generated code calls for `numpy`: libm's sin and cos,
    # which numpy's float64 loops call too, and numpy's own exp as a Python float,
    # since its SIMD kernels round otherwise than libm's exp
    floats: Callable | None = None


OPS: dict[type, Op] = {
    Constant: Op(None, 5, None, None, None),
    StateVar: Op(None, 5, None, None, None),
    InputVar: Op(None, 5, None, None, None),
    Neg: Op("-", 3, operator.neg, None, lambda e, da: Neg(da),
            lambda e, a: a.arg if type(a) is Neg else Neg(a)),
    Add: Op("+", 1, operator.add, None, lambda e, da, db: Add(da, db), _add_rule),
    Sub: Op("-", 1, operator.sub, None, lambda e, da, db: Sub(da, db), _sub_rule),
    Mul: Op("*", 2, operator.mul, None,
            lambda e, da, db: Add(Mul(da, e.right), Mul(e.left, db)), _mul_rule),
    Div: Op("/", 2, operator.truediv, None,
            lambda e, da, db: Div(Sub(Mul(da, e.right), Mul(e.left, db)), Pow(e.right, 2)), _div_rule),
    Pow: Op("^", 4, ipow, None,
            lambda e, db: _ZERO if e.exponent == 0
            else Mul(Mul(Constant(float(e.exponent)), Pow(e.base, e.exponent - 1)), db),
            lambda e, base: _ONE if e.exponent == 0 else base if e.exponent == 1 else e.rebuild(base)),
    Sin: Op("sin", 5, math.sin, "sin", lambda e, da: Mul(Cos(e.arg), da), floats=math.sin),
    Cos: Op("cos", 5, math.cos, "cos", lambda e, da: Mul(Neg(Sin(e.arg)), da), floats=math.cos),
    Exp: Op("exp", 5, _exp, "exp", lambda e, da: Mul(e, da), floats=lambda a: float(np.exp(a))),
}
# the `np` of the float loop: each numpy name of generated code to the op's `floats`
_FLOAT_CALLS = SimpleNamespace(**{op.numpy: op.floats for op in OPS.values() if op.numpy})


def iter_nodes(e: Expr):
    """Yield every node of the tree, root first."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))


def node_count(e: Expr) -> int:
    # a plain stack: larc counts every candidate against its node budget
    count, stack = 0, [e]
    while stack:
        count += 1
        stack.extend(stack.pop().children())
    return count


def references_input(e: Expr, index: int) -> bool:
    return any(type(node) is InputVar and node.index == index for node in iter_nodes(e))


def max_indices(e: Expr) -> tuple[int, int]:
    """Largest state and largest input index referenced, -1 where none, in one walk."""
    top = {StateVar: -1, InputVar: -1}
    for node in iter_nodes(e):
        if type(node) in top:
            top[type(node)] = max(top[type(node)], node.index)
    return top[StateVar], top[InputVar]


def op_of(e: Expr) -> Op:
    """The entry of a node's type; TypeError for anything else."""
    try:
        return OPS[type(e)]
    except KeyError:
        raise TypeError(f"not an expression node: {e!r}") from None


def eval_expr(e: Expr, x, u=()) -> float:
    """Evaluate at a concrete point.  x and u are indexable sequences."""
    (value,), (error,) = eval_points(e, [x], [u])
    if error is not None:
        raise error
    return value


def eval_points(e: Expr, xs, us=None) -> tuple[list[float], list[EvalError | None]]:
    """`eval_expr` at many points in one walk: xs holds one state per row, us one
    input per row (none by default).  Each node is evaluated once for all points with
    its own float function, so every value has `eval_expr`'s bits.  Returns the values,
    NaN where a point fails, and per point the EvalError `eval_expr` raises there, or None."""
    xs = np.asarray(xs, dtype=float)
    us = xs[:, :0] if us is None else np.asarray(us, dtype=float)
    columns = {StateVar: xs.T.tolist(), InputVar: us.T.tolist()}
    errors = [None] * len(xs)

    def fail(i, what):  # a point keeps its first error, as eval_expr stops there
        errors[i] = errors[i] or EvalError(f"{what} at x={xs[i].tolist()}, u={us[i].tolist()}")
        return math.nan

    def nonzero(values, what):  # `values` with NaN for each zero, whose point fails with `what`
        return [fail(i, what) if v == 0.0 else v for i, v in enumerate(values)] if 0.0 in values else values

    def walk(e):
        t = type(e)
        if t is Constant:
            return [e.value] * len(xs)
        if t is StateVar or t is InputVar:
            if e.index < len(columns[t]):
                return columns[t][e.index]
            what = f"{'state' if t is StateVar else 'input'} index {e.index} out of range"
            return [fail(i, what) for i in range(len(xs))]
        if t is Div:  # the denominator first: eval_expr checks it before the numerator
            denom = nonzero(walk(e.right), "division by zero")
            return list(map(operator.truediv, walk(e.left), denom))
        if t is Pow:  # ipow raises ZeroDivisionError for a zero base, below a negative exponent, alone
            base = nonzero(walk(e.base), "zero raised to negative power") if e.exponent < 0 else walk(e.base)
            return [ipow(b, e.exponent) for b in base]
        op = op_of(e)
        if isinstance(e, _Binary):
            return list(map(op.fn, walk(e.left), walk(e.right)))
        args = walk(e.arg)
        try:
            return list(map(op.fn, args))
        except ValueError:  # math.sin and math.cos of an infinite argument
            return [fail(i, f"{op.symbol}({a}) is undefined") if math.isinf(a) else op.fn(a) for i, a in enumerate(args)]

    # a failed point reads NaN, also where NaN^0 gave 1.0 again
    return [v if err is None else math.nan for v, err in zip(walk(e), errors)], errors


def diff(e: Expr, var: Expr) -> Expr:
    """Exact derivative with respect to one StateVar or InputVar."""
    if type(var) is not StateVar and type(var) is not InputVar:
        raise ExprError(f"can only differentiate with respect to a variable, got {var!r}")
    return _diff(e, var)


def _diff(e: Expr, var: Expr) -> Expr:
    op = op_of(e)
    if op.deriv is None:
        return _ONE if e == var else _ZERO
    return op.deriv(e, *[_diff(k, var) for k in e.children()])


def _constant(e: Expr, args) -> Constant | None:
    """The one constant fold: the Constant that node `e` over the
    constants `args` folds to, or None for a zero denominator or 0 to a
    negative power.  ExprError when the value is not finite."""
    values = [a.value for a in args] + ([e.exponent] if type(e) is Pow else [])
    try:
        return Constant(OPS[type(e)].fn(*values))
    except ZeroDivisionError:
        return None


def rewrite(e: Expr, *args) -> Expr:
    """One rewrite step at the root of `e`, whose children (or `args` in
    their place) are already simplified: the equal-children check of Sub,
    constant folding and the node's unit/zero rule.  Raises ExprError
    when a folded constant overflows."""
    t = type(e)
    op = op_of(e)
    if op.fn is None:
        return e
    args = args or e.children()
    if t is Sub and args[0] == args[1]:
        # before folding, which would give -0.0 for -0.0 - 0.0
        return _ZERO
    # first and last child: all of them, as a node has one or two;
    # None is a zero denominator, whose node the Div and Pow rules keep
    if type(args[0]) is Constant and type(args[-1]) is Constant and (c := _constant(e, args)) is not None:
        return c
    return op.rule(e, *args) if op.rule else e.rebuild(*args)


def simplify(e: Expr) -> Expr:
    """`rewrite` applied bottom-up: constant folding and unit/zero rules.

    Value-preserving wherever the input is defined; no reassociation or
    expansion, so the result stays structurally close to the input.
    Idempotent: a simplified tree is its own simplification.
    """
    return rewrite(e, *map(simplify, e.children()))


def subst(e: Expr, state_map=None, input_map=None) -> Expr:
    """Replace variables by expressions.  Maps are index -> Expr; missing
    indices are left untouched."""
    state_map = state_map or {}
    input_map = input_map or {}

    def go(node: Expr) -> Expr:
        t = type(node)
        if t is StateVar:
            return state_map.get(node.index, node)
        if t is InputVar:
            return input_map.get(node.index, node)
        return node.rebuild(*map(go, node.children()))

    return go(e)


def probe_block(dim: int, count: int, seed: int) -> np.ndarray:
    """`count` deterministic random points in [-2, 2]^dim, one per row.
    Row i is the i-th point a row-by-row draw from the same seed gives."""
    return np.random.default_rng(seed).uniform(-PROBE_BOX, PROBE_BOX, size=(count, dim))


def is_probably_zero(e: Expr, n: int, m: int) -> bool:
    """Probabilistic zero test: simplifies to 0, or vanishes at 64 random
    points in [-2, 2]^(n+m).  Points where evaluation fails are skipped,
    out of at most 128; EvalError when none of them evaluates."""
    s = simplify(e)
    if type(s) is Constant:
        return abs(s.value) < ZERO_TOL
    probes = probe_block(n + m, 2 * _PROBE_POINTS, _PROBE_SEED)
    for block in (probes[:8], probes):  # a non-zero expression mostly reads so at its first probes
        values, errors = eval_points(s, block[:, :n], block[:, n:])
        checked = [v for v, err in zip(values, errors) if err is None][:_PROBE_POINTS]
        if not all(math.isfinite(v) and abs(v) < ZERO_TOL for v in checked):
            return False
    if not checked:
        raise EvalError(f"expression is undefined at all {2 * _PROBE_POINTS} probe points ({errors[-1]})")
    return True


def fold(e: Expr) -> Expr:
    """`e` with each variable-free subtree folded to its Constant by
    `_constant` and nothing else rewritten, so signed zeros and NaNs stay
    as they were.  ExprError where such a subtree has no finite value."""
    args = [fold(k) for k in e.children()]
    if args and all(type(a) is Constant for a in args):
        c = _constant(e, args)
        if c is None:
            raise ExprError("division by zero" if type(e) is Div else "zero raised to a negative power")
        return c
    return e.rebuild(*args)  # Div's constructor rejects a folded zero denominator


def expr_source(e: Expr, state: str = "x") -> str:
    """Render as a numpy-ready Python expression (fully parenthesized);
    state i is named `state` followed by i.  The tree is `fold`ed first,
    so ExprError where a constant has no value.  A power is a call of
    `ipow`, which compiled code finds in its namespace, or for a variable
    to the power 1 to 3 the product that `ipow` computes."""
    return _source(fold(e), state)


def _source(e: Expr, state: str) -> str:
    t = type(e)
    if t is Constant:
        return repr(e.value)
    if t is StateVar:
        return f"{state}{e.index}"
    if t is InputVar:
        return f"u{e.index}"
    args = [_source(k, state) for k in e.children()]
    if t is Pow:
        if type(e.base) in (StateVar, InputVar) and 1 <= e.exponent <= 3:
            return f"({' * '.join(args * e.exponent)})"
        return f"ipow({args[0]}, {e.exponent})"
    op = op_of(e)
    if op.numpy:
        return f"np.{op.numpy}({args[0]})"
    if len(args) == 1:
        return f"({op.symbol}{args[0]})"
    return f"({args[0]} {op.symbol} {args[1]})"


def compile_components(exprs, n: int, m: int):
    """Compile expression components into one vectorized rhs function.

    The returned f(x, u) accepts x of shape (..., n) and u of shape (..., m)
    and returns an array of shape (..., len(exprs)).  With one component
    per state, f.step(x, u, h) is one RK4 step with the four stages inlined
    state by state, bit-identical to `flows.rk4_step(f, x, u, h)`.  It is
    f.advance(x, f.table(u, h)) on states held as columns: f.advance takes
    x (n, ...) and c (columns, ...) and returns new states (n, ...), written
    into `out` where one is given, which must not share memory with x; f.table
    takes u (m, ...) and h (...).  The table holds, one column each, what a
    step reads of u and h alone (h, h2, h6 and the inputs of slopes that
    read state; for a slope that reads no state, its products with h2 and h
    and its whole increment), so a segment computes it once for all its
    substeps.  A slope that reads only such states reuses k2 as k3, and 2k2
    once; a stage point is computed only for a state some slope reads.
    f.floats(x, c, steps, limit, s) performs the advance's operations, in
    its order, on the Python floats of one row: its n states x and its
    table entries c.  It appends each substep's states to the list `s` and
    returns False after the first state outside [-limit, limit] or NaN,
    True after `steps` substeps.  Its `+ - * /` round as numpy's do, sin
    and cos are libm's, as numpy's float64 loops are, and exp is numpy's;
    where numpy gives inf or NaN Python may raise instead, as 1.0 / 0.0 and
    math.sin(inf) do.  f.scalars is the same loop with numpy's calls: given
    states and entries as np.float64, it has f.advance's bits and gives
    inf or NaN where f.floats raises.
    """
    reads = [{node.index for node in iter_nodes(e) if type(node) is StateVar} for e in exprs]
    hoisted = {}  # table column -> its text, for slopes that read no state

    def k(s, i):  # the slope that component i has at stage s
        s = 2 if s == 3 and not any(reads[j] for j in reads[i]) else s
        return f"k{s if reads[i] else 1}_{i}"

    def per_segment(i, name, text):
        """`text` where slope i reads state, else the table column `name` that holds it."""
        if reads[i]:
            return text
        hoisted[name] = text
        return name

    def stage(s, dt=None, rows=range(len(exprs))):
        slopes = [i for i in rows if k(s, i) == f"k{s}_{i}"]
        points = sorted(set().union(*(reads[i] for i in slopes))) if s > 1 else []
        # each stage's point of a state replaces the last one, but for a
        # state whose slope reads no state, its stage-2 point is its stage-3 one
        return [f"    y{j} = x{j} + {per_segment(j, f'{dt}_{k(s - 1, j)}', f'{dt} * {k(s - 1, j)}')}"
                for j in points if s != 3 or reads[j]] + \
               [f"    k{s}_{i} = base + ({expr_source(exprs[i], 'x' if s == 1 else 'y')})" for i in slopes]

    def names(lines):
        return set(re.findall(r"\w+", "\n".join(lines)))

    def define(signature, sources, body, result):
        """def `signature` that binds those `sources` that the rest reads."""
        used = names([*body, result])
        return [f"def {signature}:", *(f"    {name} = {src}" for name, src in sources if name in used),
                *body, f"    return {result}"]

    def join(columns):
        return f"np.concatenate([{', '.join(columns)}], axis=-1)"

    # _rhs reads each column with a trailing axis of 1, which its one join concatenates
    xs = [(f"x{i}", f"x[..., {i}:{i + 1}]") for i in range(n)]
    us = [(f"u{j}", f"u[..., {j}:{j + 1}]") for j in range(m)]
    lines = define("_rhs(x, u)", [("base", "np.zeros(np.shape(x)[:-1] + (1,))"), *xs, *us], stage(1),
                   join(k(1, i) for i in range(len(exprs))))
    namespace = {"np": np, "ipow": ipow}
    if len(exprs) == n:
        body = stage(1, rows=[i for i in range(n) if reads[i]])
        body += stage(2, "h2") + stage(3, "h2") + stage(4, "h")
        # where k3 is k2, rk4_step's k1 + 2k2 + 2k2 + k4 adds one product twice
        twice = [i for i in range(n) if reads[i] and k(3, i) == k(2, i)]
        body += [f"    k2x2_{i} = 2.0 * k2_{i}" for i in twice]
        terms = [(f"k2x2_{i}",) * 2 if i in twice else (f"2.0 * {k(2, i)}", f"2.0 * {k(3, i)}") for i in range(n)]
        incs = [per_segment(i, f"inc_{i}", f"h6 * ({k(1, i)} + {a} + {b} + {k(4, i)})") for i, (a, b) in enumerate(terms)]
        used = names(body + incs)
        columns = [name for name in ("h", "h2", "h6", *(u for u, _ in us), *hoisted) if name in used]
        # the same operations on the Python floats of one row, for `steps` substeps, each
        # appending its states to `s`; False once a state leaves [-limit, limit] or is NaN
        states = ", ".join(f"x{i}" for i in range(n))
        floats = ["def _floats(x, c, steps, limit, s):", "    base = 0.0", f"    [{states}] = x",
                  f"    [{', '.join(columns)}] = c", "    for _ in range(steps):", *(f"    {line}" for line in body),
                  f"        ({states},) = ({', '.join(f'x{i} + {v}' for i, v in enumerate(incs))},)",
                  f"        s += ({states},)",
                  f"        if not ({' and '.join(f'-limit <= x{i} <= limit' for i in range(n))}):",
                  "            return False", "    return True"]
        exec(floats := "\n".join(floats), float_namespace := {"np": _FLOAT_CALLS, "ipow": ipow})
        namespace["_floats"] = float_namespace["_floats"]
        lines.append(floats.replace("def _floats", "def _scalars"))
        # the sums state by state, as rk4_step is matched: where both terms
        # are NaN, numpy's inner loop picks the sign that survives
        body += ["    r = np.empty(np.shape(x)) if out is None else out",
                 *(f"    np.add(x{i}, {v}, out=r[{i}, ...])" for i, v in enumerate(incs))]
        lines += define("_advance(x, c, out=None)", [("base", "0.0"), *((f"x{i}", f"x[{i}]") for i in range(n)),
                                           *((name, f"c[{j}]") for j, name in enumerate(columns))], body, "r")
        # the columns go straight into the table, and h2 and h6 are read back from it
        scaled = {"h2": "h / 2.0", "h6": "h / 6.0"}
        writes = [f"    t = np.empty(({len(columns)},) + shape)"]
        for j, c in enumerate(columns):
            writes += [f"    t[{j}] = {scaled.get(c) or hoisted.get(c) or c}"] + [f"    {c} = t[{j}]"] * (c in scaled)
        lines += define(
            "_table(u, h)",
            # a scalar zero turns a -0.0 slope into +0.0 as well, and the writes broadcast
            [("shape", "np.broadcast_shapes(np.shape(u)[1:], np.shape(h))"), ("base", "0.0"),
             *((f"u{j}", f"u[{j}]") for j in range(m)), *((c, t) for c, t in scaled.items() if c not in columns)],
            stage(1, rows=[i for i in range(n) if not reads[i]]) + writes,
            "t",
        )
        lines += ["def _step(x, u, h):",
                  "    c = _table(np.moveaxis(u, -1, 0), np.reshape(h, np.shape(h)[:-1]))",
                  "    return np.moveaxis(_advance(np.moveaxis(x, -1, 0), c), 0, -1)",
                  "_rhs.step, _rhs.advance, _rhs.table, _rhs.floats, _rhs.scalars = _step, _advance, _table, _floats, _scalars"]
    exec("\n".join(lines), namespace)
    return namespace["_rhs"]
