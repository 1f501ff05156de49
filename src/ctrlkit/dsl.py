"""Line-oriented system description language.

    system <ident>
    states <ident>+
    inputs <ident>*        (line optional when there are no inputs)
    d<state> = <expr>      (one equation per state, any order)

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' integer)?
    base   := number | ident | '(' expr ')'
            | ('sin'|'cos'|'exp') '(' expr ')' | '-' base

'#' starts a comment.  Identifiers are ASCII [a-zA-Z][a-zA-Z0-9_]*.
parse and serialize are exact inverses on valid systems.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import reduce

from .expr import (
    OPS,
    Add,
    Constant,
    Div,
    Expr,
    InputVar,
    Mul,
    Neg,
    Pow,
    StateVar,
    diff,
    is_probably_zero,
    max_indices,
    op_of,
    simplify,
    subst,
)
from .fields import VectorField

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_FUNCS = {op.symbol: t for t, op in OPS.items() if op.numpy}
_RESERVED = {"system", "states", "inputs", *_FUNCS}
# sums (prec 1) and products (prec 2); prefix '-' and '^', which takes
# an integer exponent, are read by `factor`
_BINARY = {(op.symbol, op.prec): t for t, op in OPS.items() if op.prec <= 2}


class DslError(ValueError):
    """Parse or validation failure, with 1-based line/column when known."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None and col is not None:
            message = f"line {line}, col {col}: {message}"
        elif line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _check_name(name: str, kind: str):
    if not _IDENT_RE.fullmatch(name):
        raise ValueError(f"invalid {kind} name {name!r}")
    if name in _RESERVED:
        raise ValueError(f"{kind} name {name!r} is reserved")


@dataclass(frozen=True)
class ControlSystem:
    """Immutable system description: named states/inputs plus one rhs
    expression per state."""

    name: str
    states: tuple[str, ...]
    inputs: tuple[str, ...]
    rhs: tuple[Expr, ...]

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "rhs", tuple(self.rhs))
        _check_name(self.name, "system")
        if not self.states:
            raise ValueError("a system needs at least one state")
        for s in self.states:
            _check_name(s, "state")
        for s in self.inputs:
            _check_name(s, "input")
        seen = set()
        for s in self.states + self.inputs:
            if s in seen:
                raise ValueError(f"duplicate name {s!r}")
            seen.add(s)
        if len(self.rhs) != len(self.states):
            raise ValueError(
                f"{len(self.states)} states but {len(self.rhs)} equations"
            )
        for i, e in enumerate(self.rhs):
            if not isinstance(e, Expr):
                raise TypeError(f"equation {i} is not an expression")
            states, inputs = max_indices(e)
            if states >= self.n:
                raise ValueError(f"equation for {self.states[i]} references an undeclared state")
            if inputs >= self.m:
                raise ValueError(f"equation for {self.states[i]} references an undeclared input")

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def m(self) -> int:
        return len(self.inputs)

    def structurally_equal(self, other: "ControlSystem", match_names: bool = False) -> bool:
        """Equality of shape and equation trees; names optional."""
        if self.n != other.n or self.m != other.m:
            return False
        if match_names and (
            self.name != other.name
            or self.states != other.states
            or self.inputs != other.inputs
        ):
            return False
        return self.rhs == other.rhs


@dataclass(frozen=True)
class AffineSystem:
    """Control-affine form: drift plus one constant-in-u channel field per
    input.  Every field is over the states only."""

    name: str
    states: tuple[str, ...]
    input_names: tuple[str, ...]
    drift: VectorField
    channels: tuple[VectorField, ...]

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "input_names", tuple(self.input_names))
        object.__setattr__(self, "channels", tuple(self.channels))
        n = len(self.states)
        if self.drift.n != n:
            raise ValueError("drift must be a field on the state space")
        if len(self.channels) != len(self.input_names):
            raise ValueError("one channel field per input required")
        if any(g.n != n for g in self.channels):
            raise ValueError("channel fields must be fields on the state space")

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def m(self) -> int:
        return len(self.channels)


@dataclass(frozen=True)
class NotAffineReport:
    """First equation/input pair whose second input-derivative does not
    vanish."""

    system: str
    state: str
    input: str
    input2: str

    @property
    def pair(self) -> tuple[str, str]:
        return (self.state, self.input)

    def __str__(self):
        if self.input == self.input2:
            where = f"input {self.input!r}"
        else:
            where = f"inputs {self.input!r}, {self.input2!r}"
        return f"system {self.system!r} is not control-affine: d{self.state} is nonlinear in {where}"

    def to_json(self) -> dict:
        return {"system": self.system, "verdict": "not-affine", "state": self.state, "input": self.input,
                "detail": str(self)}


# --- tokenizer -------------------------------------------------------------

_OPS = set("+-*/^()=")


def _tokenize(text: str, lineno: int):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        if ch == "#":
            break
        m = _NUMBER_RE.match(text, i)
        if m:
            tokens.append(("number", m.group(), i + 1))
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            tokens.append(("ident", m.group(), i + 1))
            i = m.end()
            continue
        if ch in _OPS:
            tokens.append(("op", ch, i + 1))
            i += 1
            continue
        raise DslError(f"unexpected character {ch!r}", lineno, i + 1)
    return tokens


class _ExprParser:
    """Recursive descent over one line of tokens."""

    def __init__(self, tokens, lineno, names):
        self.tokens = tokens
        self.lineno = lineno
        self.names = names
        self.pos = 0

    def peek(self, ahead: int = 0):
        if self.pos + ahead < len(self.tokens):
            return self.tokens[self.pos + ahead]
        return ("end", "", self.tokens[-1][2] + 1 if self.tokens else 1)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise DslError(message, self.lineno, tok[2])

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, _ = self.peek()
        if kind != "end":
            self.fail(f"unexpected {text!r} after expression")
        return e

    def expr(self, prec: int = 1) -> Expr:
        """A left-associative chain of the binary operators of `prec`,
        over operands that bind tighter."""
        operand = self.factor if prec == 2 else lambda: self.expr(prec + 1)
        e = operand()
        while (t := _BINARY.get((self.peek()[1], prec))) is not None:
            self.next()
            rhs = operand()
            if t is Div and type(rhs) is Constant and rhs.value == 0.0:
                self.fail("division by constant zero")
            e = t(e, rhs)
        return e

    def factor(self) -> Expr:
        """'-' factor, or a base with an optional '^' exponent: as in Python,
        -x^2 is -(x^2) and -2^2 is -4, while `base` folds a bare -2."""
        literal = self.peek(1)[0] == "number" and self.peek(2)[1] != "^"
        if self.peek()[:2] == ("op", "-") and not literal:
            self.next()
            return Neg(self.factor())
        e = self.base()
        if self.peek()[:2] == ("op", "^"):
            self.next()
            e = Pow(e, self.integer())
        return e

    def integer(self) -> int:
        negative = self.peek()[:2] == ("op", "-")
        tok = self.peek(negative)
        if tok[0] != "number" or not re.fullmatch(r"\d+", tok[1]):
            self.fail("power exponent must be an integer", tok)
        self.pos += 2 if negative else 1
        return -int(tok[1]) if negative else int(tok[1])

    def base(self) -> Expr:
        kind, text, col = self.next()
        if kind == "op" and text == "-":
            # fold a directly attached literal so -2 is the constant -2,
            # while -(2) stays an explicit negation
            kind, text = "number", "-" + self.next()[1]
        if kind == "number":
            if not math.isfinite(float(text)):
                raise DslError(f"number {text} overflows", self.lineno, col)
            return Constant(float(text))
        if kind == "op" and text == "(":
            e = self.expr()
            k2, t2, _ = self.next()
            if not (k2 == "op" and t2 == ")"):
                self.fail("expected ')'")
            return e
        if kind == "ident":
            if text in _FUNCS:
                k2, t2, _ = self.next()
                if not (k2 == "op" and t2 == "("):
                    self.fail(f"expected '(' after {text!r}")
                arg = self.expr()
                k3, t3, _ = self.next()
                if not (k3 == "op" and t3 == ")"):
                    self.fail("expected ')'")
                return _FUNCS[text](arg)
            if text in self.names:
                return self.names[text]
            raise DslError(f"undeclared variable {text!r}", self.lineno, col)
        self.fail(f"unexpected {text!r}" if text else "unexpected end of line",
                  (kind, text, col))


def _variables(states, inputs) -> dict[str, Expr]:
    names: dict[str, Expr] = {s: StateVar(i) for i, s in enumerate(states)}
    names.update((s, InputVar(j)) for j, s in enumerate(inputs))
    return names


def _declare(kind: str, lineno: int, tokens, taken: list[str]) -> list[str]:
    """The names a `states` or `inputs` line declares; DslError at the
    first one that is bad, reserved, or already in `taken` or the line."""
    names: list[str] = []
    for tok, text, col in tokens[1:]:
        if tok != "ident":
            raise DslError(f"bad {kind} name {text!r}", lineno, col)
        if text in _RESERVED:
            raise DslError(f"{kind} name {text!r} is reserved", lineno, col)
        if text in taken or text in names:
            raise DslError(f"duplicate name {text!r}", lineno, col)
        names.append(text)
    return names


def parse(text: str) -> ControlSystem:
    """Parse a system description; raises DslError with line/column on
    failure."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw, lineno)
        if tokens:
            lines.append((lineno, tokens))
    if not lines:
        raise DslError("missing 'system' header", 1, 1)

    idx = 0
    lineno, tokens = lines[idx]
    if not (tokens[0][:2] == ("ident", "system") and len(tokens) == 2 and tokens[1][0] == "ident"):
        raise DslError("missing 'system' header", lineno, tokens[0][2])
    name = tokens[1][1]
    if name in _RESERVED:
        raise DslError(f"system name {name!r} is reserved", lineno, tokens[1][2])
    idx += 1

    if idx >= len(lines):
        raise DslError("missing 'states' declaration", lineno)
    lineno, tokens = lines[idx]
    if tokens[0][:2] != ("ident", "states"):
        raise DslError("missing 'states' declaration", lineno, tokens[0][2])
    if len(tokens) < 2:
        raise DslError("at least one state is required", lineno, tokens[0][2])
    states = _declare("state", lineno, tokens, [])
    idx += 1

    inputs: list[str] = []
    if idx < len(lines) and lines[idx][1][0][:2] == ("ident", "inputs"):
        lineno, tokens = lines[idx]
        inputs = _declare("input", lineno, tokens, states)
        idx += 1

    names = _variables(states, inputs)

    equations: dict[str, Expr] = {}
    eq_lines: dict[str, int] = {}
    for lineno, tokens in lines[idx:]:
        kind, text, col = tokens[0]
        if kind != "ident" or not text.startswith("d") or len(text) < 2:
            raise DslError("expected equation 'd<state> = <expr>'", lineno, col)
        target = text[1:]
        if target not in names or not isinstance(names[target], StateVar):
            raise DslError(f"equation for undeclared state {target!r}", lineno, col)
        if target in equations:
            raise DslError(
                f"duplicate equation for state {target!r} (first at line {eq_lines[target]})",
                lineno, col,
            )
        if len(tokens) < 2 or tokens[1][:2] != ("op", "="):
            raise DslError("expected '='", lineno, tokens[1][2] if len(tokens) > 1 else col)
        equations[target] = _ExprParser(tokens[2:], lineno, names).parse()
        eq_lines[target] = lineno

    for s in states:
        if s not in equations:
            raise DslError(f"missing equation for state {s!r}")

    return ControlSystem(name, tuple(states), tuple(inputs), tuple(equations[s] for s in states))


# --- serializer ------------------------------------------------------------

def _render(e: Expr, names: list[str], input_names: list[str], min_prec: int = 1) -> str:
    t = type(e)
    op = op_of(e)
    if t is Constant:
        s = repr(e.value)
    elif t is StateVar:
        s = names[e.index]
    elif t is InputVar:
        s = input_names[e.index]
    elif t is Pow:
        s = f"{_render_operand(e.base, names, input_names, 5)}^{e.exponent}"
    elif t is Neg:
        s = f"-{_render_operand(e.arg, names, input_names, 3)}"
    elif op.numpy:
        s = f"{op.symbol}({_render(e.arg, names, input_names, 1)})"
    else:
        left = _render(e.left, names, input_names, op.prec)
        s = f"{left} {op.symbol} {_render(e.right, names, input_names, op.prec + 1)}"
    return f"({s})" if op.prec < min_prec else s


def _render_operand(e: Expr, names, input_names, min_prec: int) -> str:
    # a '^' base (min_prec 5) fits atoms and calls bare, a '-' operand (3)
    # '-' chains and powers too; a literal in either needs parentheses
    if type(e) is Constant:
        return f"({e.value!r})"
    return _render(e, names, input_names, min_prec)


def serialize(sys: ControlSystem) -> str:
    lines = [f"system {sys.name}", "states " + " ".join(sys.states)]
    if sys.inputs:
        lines.append("inputs " + " ".join(sys.inputs))
    for s, e in zip(sys.states, sys.rhs):
        lines.append(f"d{s} = {_render(e, list(sys.states), list(sys.inputs))}")
    return "\n".join(lines) + "\n"


def parse_expression(text: str, states, inputs) -> Expr:
    """Parse one expression against explicit state/input name lists."""
    tokens = _tokenize(text, 1)
    if not tokens:
        raise DslError("empty expression", 1, 1)
    return _ExprParser(tokens, 1, _variables(states, inputs)).parse()


def render_expression(e: Expr, states, inputs) -> str:
    return _render(e, list(states), list(inputs))


# --- affine extraction -----------------------------------------------------

def to_affine(sys: ControlSystem) -> AffineSystem | NotAffineReport:
    """Split rhs into drift plus input channels, or report the first
    equation whose dependence on the inputs is not affine."""
    n, m = sys.n, sys.m
    for k in range(n):
        for i in range(m):
            for j in range(i, m):
                d2 = diff(diff(sys.rhs[k], InputVar(i)), InputVar(j))
                if not is_probably_zero(d2, n, m):
                    return NotAffineReport(sys.name, sys.states[k], sys.inputs[i], sys.inputs[j])
    zero_inputs = {j: Constant(0.0) for j in range(m)}
    drift = VectorField(tuple(simplify(subst(e, input_map=zero_inputs)) for e in sys.rhs), n)
    channels = tuple(VectorField(tuple(simplify(subst(diff(e, InputVar(i)), input_map=zero_inputs)) for e in sys.rhs), n)
                     for i in range(m))
    return AffineSystem(sys.name, sys.states, sys.inputs, drift, channels)


def from_linear(name: str, a_matrix, b_matrix, state_names=None, input_names=None) -> ControlSystem:
    """Build dx = A x + B u as a ControlSystem."""
    import numpy as np

    a = np.asarray(a_matrix, dtype=float)
    b = np.asarray(b_matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("A must be square")
    n = a.shape[0]
    if b.ndim == 1:
        b = b.reshape(n, 1)
    if b.shape[0] != n:
        raise ValueError("B must have one row per state")
    m = b.shape[1]
    states = tuple(state_names) if state_names else tuple(f"x{i+1}" for i in range(n))
    inputs = tuple(input_names) if input_names else tuple(f"u{i+1}" for i in range(m))
    rhs = []
    for i in range(n):
        terms: list[Expr] = []
        for j in range(n):
            if a[i, j] != 0.0:
                terms.append(Mul(Constant(a[i, j]), StateVar(j)))
        for j in range(m):
            if b[i, j] != 0.0:
                terms.append(Mul(Constant(b[i, j]), InputVar(j)))
        rhs.append(reduce(Add, terms) if terms else Constant(0.0))
    return ControlSystem(name, states, inputs, tuple(rhs))
