"""Vector fields and symbolic matrices over expression trees."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .expr import (
    Add,
    Expr,
    Mul,
    StateVar,
    Sub,
    diff,
    eval_expr,
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

    @classmethod
    def _unchecked(cls, components: tuple[Expr, ...], n: int) -> VectorField:
        """A field built without `__post_init__`'s walks, for components known to be valid."""
        field = object.__new__(cls)
        field.__dict__.update(components=components, n=n)
        return field

    @cached_property
    def jacobian(self) -> SymbolicMatrix:
        """d component_i / d x_j, computed once per field: larc brackets a field in many pairs."""
        rows = (tuple(simplify(diff(c, StateVar(j))) for j in range(self.n)) for c in self.components)
        return SymbolicMatrix(tuple(rows))

    @cached_property
    def simplified(self) -> tuple[Expr, ...]:
        return tuple(simplify(c) for c in self.components)


@dataclass(frozen=True)
class SymbolicMatrix:
    rows: tuple[tuple[Expr, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged symbolic matrix")

    @property
    def shape(self) -> tuple[int, int]:
        if not self.rows:
            return (0, 0)
        return (len(self.rows), len(self.rows[0]))


def eval_vf(vf: VectorField, x) -> np.ndarray:
    if len(x) != vf.n:
        raise ValueError(f"point has dimension {len(x)}, field lives on R^{vf.n}")
    return np.array([eval_expr(c, x) for c in vf.components], dtype=float)


def _jacobian_times(jac: SymbolicMatrix, vf: VectorField) -> list[Expr]:
    # row-by-row product over simplified entries, so each product and sum
    # is one root rewrite; the Add rule drops the zero terms
    return [
        reduce(lambda a, b: rewrite(Add(a, b)), (rewrite(Mul(e, c)) for e, c in zip(row, vf.simplified)))
        for row in jac.rows
    ]


def lie_bracket(x_field: VectorField, y_field: VectorField) -> VectorField:
    """Bracket [X, Y] = (dY/dx) X - (dX/dx) Y, components simplified."""
    if x_field.n != y_field.n:
        raise ValueError(f"dimension mismatch: {x_field.n} vs {y_field.n}")
    first = _jacobian_times(y_field.jacobian, x_field)
    second = _jacobian_times(x_field.jacobian, y_field)
    return VectorField._unchecked(  # a bracket of fields on R^n reads no input, no state past n
        tuple(rewrite(Sub(a, b)) for a, b in zip(first, second)), x_field.n)
