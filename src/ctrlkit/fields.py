"""Vector fields over expression trees, their Jacobians and Lie brackets."""

from __future__ import annotations

from dataclasses import dataclass
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
    max_indices,
    rewrite,
    simplify,
)


@dataclass(frozen=True)
class VectorField:
    """A field on R^n: one expression per coordinate, over the states
    only (no component references an input)."""

    components: tuple[Expr, ...]
    n: int

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if len(self.components) != self.n:
            raise ValueError(
                f"field on R^{self.n} needs {self.n} components, got {len(self.components)}"
            )
        for i, comp in enumerate(self.components):
            if not isinstance(comp, Expr):
                raise TypeError(f"component {i} is not an expression: {comp!r}")
            states, inputs = max_indices(comp)
            if states >= self.n:
                raise ValueError(f"component {i} references a state beyond index {self.n - 1}")
            if inputs >= 0:
                raise ValueError(f"field references an input in component {i}")

    @cached_property
    def jacobian(self) -> tuple[tuple[Expr, ...], ...]:
        """Row i holds d component_i / d x_j, simplified, for j < n; computed
        once per field: larc brackets a field in many pairs."""
        return tuple(tuple(simplify(diff(c, StateVar(j))) for j in range(self.n)) for c in self.components)

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
