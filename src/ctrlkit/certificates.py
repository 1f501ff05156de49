"""Controllability evidence for affine systems.

Two routes: exact linear certificates (Kalman rank, and the 3-to-2
single-channel reduction criterion), and a bracket-generation rank test
at a point.  The bracket route certifies accessibility, not global
controllability; reports say which one they carry.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dsl import AffineSystem
from .expr import (
    Constant, EvalError, Mul, StateVar, Sub, eval_points, is_probably_zero, is_zero, probe_block,
)
from .fields import VectorField, eval_vf, lie_bracket
from . import records

RANK_TOL = 1e-9
NODE_BUDGET = 200_000
_SPAN_PROBES = 8
_SPAN_SEED = 0xB0B


@dataclass(frozen=True)
class NotLinearReport:
    system: str
    reason: str
    where: str

    def __str__(self):
        return f"system {self.system!r} is not linear: {self.reason} ({self.where})"

    def to_json(self) -> dict:
        return {"system": self.system, "verdict": "not-linear", "reason": self.reason, "where": self.where,
                "detail": str(self)}


@dataclass(frozen=True)
class LinearRealization:
    a: np.ndarray
    b: np.ndarray


def linear_of(aff: AffineSystem) -> LinearRealization | NotLinearReport:
    """Extract (A, B) when the drift is exactly Ax and every channel is
    constant; otherwise report what broke."""
    n, m = aff.n, aff.m
    jac = aff.drift.jacobian
    a = np.zeros((n, n))
    for i, row in enumerate(jac):
        # the Jacobian at the origin, NaN where it has no value; the residual check validates the choice
        a[i] = [eval_points(e, np.zeros((1, n)))[0][0] for e in row]
        if not np.isfinite(a[i]).all():
            # a linear drift's derivative is defined everywhere
            return NotLinearReport(aff.name, "drift is not linear in the states", f"d{aff.states[i]}")
    # residual check catches both nonlinearity and constant offsets
    for i, comp in enumerate(aff.drift.components):
        residual = comp
        for j in range(n):
            residual = Sub(residual, Mul(Constant(a[i, j]), StateVar(j)))
        if not is_probably_zero(residual, n, 0):
            # flat residual means a pure offset, anything curved is worse
            flat = all(
                is_probably_zero(Sub(jac[i][j], Constant(a[i, j])), n, 0) for j in range(n)
            )
            if flat:
                return NotLinearReport(aff.name, "drift has a constant offset", f"d{aff.states[i]}")
            return NotLinearReport(aff.name, "drift is not linear in the states", f"d{aff.states[i]}")
    b = np.zeros((n, m))
    for k, g in enumerate(aff.channels):
        for i, row in enumerate(g.jacobian):
            if not all(is_probably_zero(e, n, 0) for e in row):
                return NotLinearReport(
                    aff.name, "input channel depends on the state",
                    f"channel {aff.input_names[k]!r}, d{aff.states[i]}",
                )
        b[:, k] = eval_vf(g, np.zeros(n))
    return LinearRealization(a, b)


def matrix_rank(mat: np.ndarray, tol: float = RANK_TOL) -> int:
    """Rank by singular values with a relative threshold."""
    if mat.size == 0:
        return 0
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.sum(sv > tol * sv[0]))


def kalman_rank(a, b, tol: float = RANK_TOL) -> int:
    """Rank of [B, AB, ..., A^(n-1) B]."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape[0] != n:
        raise ValueError("A must be n x n and B must have n rows")
    blocks = [b]
    for _ in range(n - 1):
        blocks.append(a @ blocks[-1])
    return matrix_rank(np.hstack(blocks), tol)


@dataclass(frozen=True)
class KalmanReduction:
    """3-state single-integrator-channel criterion: with the input driving
    only the third state, controllability of the full system is read off
    one entry of the transformed upper block."""

    abar: np.ndarray | None
    controllable: bool
    degenerate: bool


def kalman_reduce_3to2(a, tol: float = RANK_TOL) -> KalmanReduction:
    a = np.asarray(a, dtype=float)
    if a.shape != (3, 3):
        raise ValueError("expected a 3 x 3 matrix")
    a13, a23 = a[0, 2], a[1, 2]
    d = a13 * a13 + a23 * a23
    scale = np.linalg.norm(a)
    if d <= (tol * max(scale, 1.0)) ** 2:
        return KalmanReduction(None, False, True)
    ahat = a[:2, :2]
    p = np.array([[a23, -a13], [a13, a23]])
    abar = p @ ahat @ np.linalg.inv(p)
    norm = np.linalg.norm(abar)
    criterion = norm > 0.0 and abs(abar[0, 1]) > tol * norm
    return KalmanReduction(abar, bool(criterion), False)


def kalman_report(system: str, lin: LinearRealization) -> dict:
    """The Kalman rank verdict on (A, B), with the 3-to-2 reduction
    criterion when it applies: three states and one input that drives
    only the third."""
    a, b = lin.a, lin.b
    n, m = b.shape
    rank = kalman_rank(a, b)
    report = {"system": system, "n": n, "m": m, "rank": rank, "controllable": rank == n}
    if (n, m) == (3, 1) and abs(b[0, 0]) < 1e-12 and abs(b[1, 0]) < 1e-12 and b[2, 0] != 0.0:
        red = kalman_reduce_3to2(a)
        abar = None if red.abar is None else red.abar.tolist()
        report["reduction"] = {"abar": abar, "criterion": red.controllable, "degenerate": red.degenerate}
    return report


@dataclass(frozen=True)
class LarcReport:
    """Accessibility certificate: bracket ranks at one point.  Full rank
    certifies accessibility there, not global controllability."""

    point: tuple[float, ...]
    depth: int
    rank: int
    full_rank: bool
    formations: tuple[str, ...]
    truncated: bool

    def to_json(self) -> dict:
        return {
            "point": list(self.point),
            "depth": self.depth,
            "rank": self.rank,
            "full_rank": self.full_rank,
            "brackets": list(self.formations),
            "truncated": self.truncated,
            "certifies": "accessibility",
        }


def larc_point(point, max_depth: int, n: int) -> np.ndarray:
    """`point` as an array; ValueError unless max_depth >= 1 and it has n finite entries."""
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    return records.point(point, n, "point")


def larc(aff: AffineSystem, point, max_depth: int, node_budget: int = NODE_BUDGET) -> LarcReport:
    """Breadth-first bracket generation from {drift, channels} up to
    `max_depth` nesting levels, deduplicated by a span test at fixed
    random probes, then ranked at `point`."""
    n = aff.n
    point = larc_point(point, max_depth, n)

    probes = probe_block(n, _SPAN_PROBES, _SPAN_SEED)

    names: list[str] = ["f"] + [f"g{i+1}" for i in range(aff.m)]
    fields: list[VectorField] = [aff.drift] + list(aff.channels)
    depths: list[int] = [1] * len(fields)
    # the kept fields' probe values, (fields, probes, n), and the probes where all are finite
    values = np.array([_probe_values(f, probes) for f in fields])
    shared = np.isfinite(values).all(axis=(0, 2))

    spent = sum(sum(f.node_counts) for f in fields)
    truncated = False

    for level in range(2, max_depth + 1):
        for i, j in itertools.combinations(range(len(fields)), 2):
            if max(depths[i], depths[j]) != level - 1:
                continue
            candidate = lie_bracket(fields[i], fields[j])
            spent += sum(candidate.node_counts)
            if spent > node_budget:
                truncated = True
                break
            if not shared.any():
                raise EvalError(f"no span probe evaluates all of {len(fields)} kept fields")
            # a bracket that simplifies to zero is in every span, and is not probed
            if all(map(is_zero, candidate.components)):
                continue
            vals = _probe_values(candidate, probes)
            if _in_span_everywhere(values, shared, vals):
                continue
            names.append(f"[{names[i]},{names[j]}]")
            fields.append(candidate)
            depths.append(level)
            values = np.concatenate([values, vals[None]])
            shared &= np.isfinite(vals).all(axis=1)
        if truncated:
            break

    rank = matrix_rank(np.array([eval_vf(f, point) for f in fields]))
    return LarcReport(point=tuple(float(v) for v in point), depth=max_depth, rank=rank, full_rank=(rank == n),
                      formations=tuple(names), truncated=truncated)


def _probe_values(field: VectorField, probes: np.ndarray) -> np.ndarray:
    """One row per probe, from one walk per component; NaN where a component does not evaluate."""
    return np.array([eval_points(c, probes)[0] for c in field.components]).T


def _in_span_everywhere(kept: np.ndarray, shared: np.ndarray, candidate: np.ndarray) -> bool:
    """True when one constant coefficient vector reproduces the candidate
    at every probe simultaneously, over the `shared` probes, where the
    `kept` fields are all finite, and where the candidate is.  Also true,
    so the candidate is left out, when it has no finite value at any of
    those.  Fields form a vector space over the reals, so a per-probe fit
    with varying coefficients would discard members that still matter at
    degenerate points."""
    keep = shared & np.isfinite(candidate).all(axis=1)
    if not keep.any():
        return True
    v = candidate[keep].ravel()
    basis = kept[:, keep].reshape(len(kept), -1).T
    coeff, *_ = np.linalg.lstsq(basis, v, rcond=None)
    # hypot scales as it sums, so finite values near 1e300 give finite norms
    resid = math.hypot(*(basis @ coeff - v))
    return resid <= 1e-8 * max(1.0, math.hypot(*v))
