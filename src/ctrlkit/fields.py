"""Vector fields over expression trees, their Jacobians and Lie brackets."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .expr import (
    Add,
    Constant,
    Expr,
    Mul,
    StateVar,
    Sub,
    diff,
    eval_expr,
    is_zero,
    leaves,
    rewrite,
    simplify,
)


@dataclass(frozen=True)
class VectorField:
    """A field on R^n: one expression per coordinate, over the states
    only (no component references an input).  Construction walks each
    component once (`expr.leaves`), and keeps per component the set of
    states it reads (`reads`) and its number of nodes (`node_counts`)."""

    components: tuple[Expr, ...]
    n: int
    reads: tuple[frozenset[int], ...] = field(init=False, repr=False, compare=False)
    node_counts: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if len(self.components) != self.n:
            raise ValueError(
                f"field on R^{self.n} needs {self.n} components, got {len(self.components)}"
            )
        reads, counts = [], []
        for i, comp in enumerate(self.components):
            if not isinstance(comp, Expr):
                raise TypeError(f"component {i} is not an expression: {comp!r}")
            states, inputs, count = leaves(comp)
            if max(states, default=-1) >= self.n:
                raise ValueError(f"component {i} references a state beyond index {self.n - 1}")
            if inputs:
                raise ValueError(f"field references an input in component {i}")
            reads.append(frozenset(states))
            counts.append(count)
        object.__setattr__(self, "reads", tuple(reads))
        object.__setattr__(self, "node_counts", tuple(counts))

    @cached_property
    def jacobian(self) -> tuple[tuple[Expr, ...], ...]:
        """Row i holds d component_i / d x_j, simplified, for j < n; computed
        once per field: larc brackets a field in many pairs.  A component is
        differentiated by each state it reads and once more, at the first
        state it does not read: that derivative is the same tree for every
        such state, so they share its entry (0.0 or -0.0, or the ExprError
        that a dense row raises there)."""

        def row(c, reads):
            unread = None
            for j in range(self.n):
                if j in reads:
                    yield simplify(diff(c, StateVar(j)))
                else:
                    if unread is None:
                        unread = simplify(diff(c, StateVar(j)))
                    yield unread

        return tuple(tuple(row(c, reads)) for c, reads in zip(self.components, self.reads))

    @cached_property
    def simplified(self) -> tuple[Expr, ...]:
        return tuple(simplify(c) for c in self.components)


def eval_vf(vf: VectorField, x) -> np.ndarray:
    if len(x) != vf.n:
        raise ValueError(f"point has dimension {len(x)}, field lives on R^{vf.n}")
    return np.array([eval_expr(c, x) for c in vf.components], dtype=float)


def lie_bracket(x_field: VectorField, y_field: VectorField) -> VectorField:
    """Bracket [X, Y] = (dY/dx) X - (dX/dx) Y, components simplified.

    Each product and each sum is one root rewrite of simplified operands.
    A product with an exactly zero Jacobian entry is left out: the dense
    sum differs from this one at most in the sign of a zero sum, and the
    difference of the two rows folds that away."""
    if x_field.n != y_field.n:
        raise ValueError(f"dimension mismatch: {x_field.n} vs {y_field.n}")

    def times(row, values):
        total = Constant(0.0)
        for e, v in zip(row, values):
            if not is_zero(e):
                total = rewrite(Add(total, rewrite(Mul(e, v))))
        return total

    return VectorField(tuple(rewrite(Sub(times(dy, x_field.simplified), times(dx, y_field.simplified)))
                             for dy, dx in zip(y_field.jacobian, x_field.jacobian)), x_field.n)
