"""Vector-field layer: Jacobians and Lie brackets.

The bracket oracle is finite differencing of the two Jacobians, which
never touches the symbolic diff code path.
"""

from functools import reduce

import numpy as np
import pytest

from conftest import CUBIC_TEXT, HEADING_TEXT, chain_text

from ctrlkit.certificates import larc
from ctrlkit.dsl import parse, to_affine
from ctrlkit.expr import Add, Constant, Cos, InputVar, Mul, Pow, Sin, StateVar, Sub, diff, eval_expr, simplify
from ctrlkit.fields import VectorField, eval_vf, lie_bracket
from ctrlkit.transform import extend

X0, X1, X2 = StateVar(0), StateVar(1), StateVar(2)


def _fd_bracket(X, Y, x, h=1e-4):
    """[X,Y] = DY X - DX Y with forward/backward differenced Jacobians."""
    n = len(x)

    def jac(F):
        J = np.zeros((n, n))
        for j in range(n):
            xp, xm = np.array(x, float), np.array(x, float)
            xp[j] += h
            xm[j] -= h
            J[:, j] = (eval_vf(F, xp) - eval_vf(F, xm)) / (2 * h)
        return J

    return jac(Y) @ eval_vf(X, x) - jac(X) @ eval_vf(Y, x)


def test_vector_field_validation():
    with pytest.raises(ValueError):
        VectorField((X0,), n=2)  # wrong component count
    with pytest.raises(ValueError):
        VectorField((StateVar(3), X0), n=2)
    with pytest.raises(ValueError):
        VectorField((InputVar(0), X0), n=2)  # a field is over the states only


def test_eval_vf_and_zero_field():
    f = VectorField((Mul(X0, X1), Pow(X0, 2)), n=2)
    assert eval_vf(f, [2.0, 3.0]) == pytest.approx([6.0, 4.0])
    z = VectorField((Constant(0.0),) * 3, n=3)
    assert eval_vf(z, [1.0, 2.0, 3.0]) == pytest.approx([0.0, 0.0, 0.0])


def test_jacobian_golden():
    f = VectorField((Mul(X0, X1), Sin(X0)), n=2)
    J = f.jacobian
    assert [len(row) for row in J] == [2, 2]
    x = [0.5, 2.0]
    # rows: d(x0*x1) = (x1, x0); d(sin x0) = (cos x0, 0)
    got = np.array([[eval_expr(e, x) for e in row] for row in J])
    want = np.array([[2.0, 0.5], [np.cos(0.5), 0.0]])
    assert got == pytest.approx(want)


_POLY_FIELDS = [
    VectorField((Mul(X0, X1), Pow(X0, 2)), n=2),
    VectorField((Add(X1, Constant(1.0)), Mul(Constant(2.0), X0)), n=2),
    VectorField((Pow(X1, 3), Mul(X0, Mul(X1, X1))), n=2),
]

_SMOOTH_FIELDS = _POLY_FIELDS + [
    VectorField((Sin(X1), Cos(X0)), n=2),
    VectorField((Constant(1.0), Mul(X0, Sin(X1))), n=2),
    # exact-zero Jacobian entries next to negative constants: a bracket
    # leaves those products out, where the dense formula folds them to -0.0
    VectorField((Constant(-2.0), Mul(Constant(-1.5), X0)), n=2),
    VectorField((Constant(-0.5), Constant(-2.5)), n=2),
]


@pytest.mark.parametrize("i", range(len(_SMOOTH_FIELDS)))
@pytest.mark.parametrize("j", range(len(_SMOOTH_FIELDS)))
def test_bracket_matches_finite_differences(i, j):
    X, Y = _SMOOTH_FIELDS[i], _SMOOTH_FIELDS[j]
    br = lie_bracket(X, Y)
    rng = np.random.default_rng(17)
    for _ in range(5):
        x = rng.uniform(-1.2, 1.2, size=2)
        assert eval_vf(br, x) == pytest.approx(_fd_bracket(X, Y, x), rel=1e-5, abs=1e-5)


def test_bracket_antisymmetry():
    X, Y = _SMOOTH_FIELDS[0], _SMOOTH_FIELDS[3]
    XY = lie_bracket(X, Y)
    YX = lie_bracket(Y, X)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.uniform(-2, 2, size=2)
        assert eval_vf(XY, x) + eval_vf(YX, x) == pytest.approx(np.zeros(2), abs=1e-10)


def test_bracket_with_self_is_structurally_zero():
    X = _SMOOTH_FIELDS[2]
    br = lie_bracket(X, X)
    for comp in br.components:
        assert simplify(comp) == Constant(0.0)


def test_jacobi_identity_on_polynomial_fields():
    X, Y, Z = _POLY_FIELDS
    s1 = lie_bracket(X, lie_bracket(Y, Z))
    s2 = lie_bracket(Y, lie_bracket(Z, X))
    s3 = lie_bracket(Z, lie_bracket(X, Y))
    rng = np.random.default_rng(23)
    for _ in range(20):
        x = rng.uniform(-1.5, 1.5, size=2)
        total = eval_vf(s1, x) + eval_vf(s2, x) + eval_vf(s3, x)
        assert total == pytest.approx(np.zeros(2), abs=1e-8)


def test_linear_brackets_generate_chain_directions():
    # f = Ax for the 3-chain, g = e3: iterated brackets walk the chain
    a = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    comps_f = tuple(
        Add(Mul(Constant(a[i, 0]), X0), Add(Mul(Constant(a[i, 1]), X1), Mul(Constant(a[i, 2]), X2)))
        for i in range(3)
    )
    f = VectorField(comps_f, n=3)
    g = VectorField((Constant(0.0), Constant(0.0), Constant(1.0)), n=3)
    ad1 = lie_bracket(f, g)
    ad2 = lie_bracket(f, ad1)
    zero = np.zeros(3)
    # [Ax, b] = -Ab, [Ax, [Ax, b]] = A^2 b
    assert eval_vf(ad1, zero) == pytest.approx(-a @ [0, 0, 1])
    assert eval_vf(ad2, zero) == pytest.approx(a @ a @ [0, 0, 1])


def test_bracket_rejects_mismatched_dimensions():
    plain = VectorField((X0,), n=1)
    other = VectorField((X0, X1), n=2)
    with pytest.raises(ValueError):
        lie_bracket(plain, other)



def _fixture_systems():
    """The affine fixtures (heading is not affine) and every extension,
    each with its drift and channels and the fields `larc` keeps at
    depth 4."""
    out = []
    for text in (HEADING_TEXT, CUBIC_TEXT, *(chain_text(n) for n in range(3, 8))):
        sys_ = parse(text)
        for s in (sys_, extend(sys_).extended):
            aff = to_affine(s)
            if hasattr(aff, "drift"):
                report = larc(aff, np.zeros(s.n), 4)
                out.append((s, [aff.drift, *aff.channels], _kept_fields(aff, report.formations)))
    return out


def _kept_fields(aff, formations):
    """Rebuild the fields of a larc report from their names, such as
    `[f,[f,g1]]`."""
    by_name = dict(zip(formations, [aff.drift, *aff.channels]))
    for name in formations[len(by_name):]:
        depth = 0
        for k, ch in enumerate(name):
            depth += {"[": 1, "]": -1}.get(ch, 0)
            if ch == "," and depth == 1:
                break
        by_name[name] = lie_bracket(by_name[name[1:k]], by_name[name[k + 1:-1]])
    return [by_name[name] for name in formations]


def test_simplify_is_idempotent_on_fixture_trees():
    # drift, channels, Jacobian entries and brackets are all outputs of
    # simplify, so each must be its own simplification
    raw, simplified = [], []
    for sys_, fields, kept in _fixture_systems():
        raw += sys_.rhs
        for vf in fields + kept:
            simplified += vf.components
            simplified += [e for row in vf.jacobian for e in row]
    assert len(raw) > 50 and len(simplified) > 1000
    for e in raw:
        once = simplify(e)
        assert simplify(once) == once, e
    for e in simplified:
        assert simplify(e) == e, e


def _times(F, G):
    """Row i of DF G, left-nested and not simplified."""
    return [reduce(Add, [Mul(diff(c, StateVar(j)), g) for j, g in enumerate(G.components)]) for c in F.components]


def test_bracket_is_simplify_of_the_unsimplified_formula():
    pairs = [(X, Y) for X in _SMOOTH_FIELDS for Y in _SMOOTH_FIELDS]
    for _, fields, kept in _fixture_systems():
        pairs += [(X, Y) for X in fields for Y in kept[:8]]
    for X, Y in pairs:
        want = tuple(simplify(Sub(a, b)) for a, b in zip(_times(Y, X), _times(X, Y)))
        assert lie_bracket(X, Y).components == want


def test_a_field_keeps_its_jacobian():
    f = VectorField((Mul(X0, X1), Sin(X0)), n=2)
    assert f.jacobian is f.jacobian
    assert f.simplified is f.simplified
    assert f == VectorField((Mul(X0, X1), Sin(X0)), n=2)


def test_larc_differentiates_each_field_at_most_once(monkeypatch):
    # only kept fields are bracketed again, and each one's n x n entries
    # are differentiated on its first bracket only
    import ctrlkit.fields

    calls = []
    real_diff = ctrlkit.fields.diff
    monkeypatch.setattr(ctrlkit.fields, "diff", lambda *args: calls.append(args) or real_diff(*args))
    aff = to_affine(extend(parse(HEADING_TEXT)).extended)
    report = larc(aff, np.zeros(aff.n), 6)
    assert calls
    assert len(calls) <= aff.n ** 2 * len(report.formations)
