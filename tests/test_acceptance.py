"""End-to-end acceptance gate.

Each test covers one release criterion, prints exactly one PASS/FAIL
line (run with -s to see them on success), and asserts both the
substance and its wall-clock budget.  Seeds and grids are frozen; every
expected number was measured against an independent closed form or a
cross-implementation oracle before being locked in.
"""

import hashlib
import math
import time

import numpy as np

from conftest import chain_text

from ctrlkit.certificates import kalman_rank, kalman_reduce_3to2
from ctrlkit.dsl import ControlSystem, NotAffineReport, parse, serialize, to_affine
from ctrlkit.expr import Constant, Mul, Pow, Sin, StateVar, Sub
from ctrlkit.fields import VectorField, eval_vf, lie_bracket
from ctrlkit.flows import (
    Drift,
    FlowPlan,
    Jump,
    PiecewiseControl,
    flow_endpoint,
    ideal_plan_endpoint,
    integrate,
    realize_plan,
)
from ctrlkit.reach import ReachConfig, bounded_reach_check, coverage_compare, sample_reach
from ctrlkit.transform import extend, reduce_integrator, verify_roundtrip


def _verdict(num: int, label: str, ok: bool, elapsed: float, budget: float, detail: str):
    ok = ok and elapsed < budget
    line = f"criterion {num} {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s/{budget:.0f}s) {label}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_chain_reduction(heading):
    start = time.monotonic()
    chain5 = parse(chain_text(5))
    cert = reduce_integrator(chain5)
    steps_ok = cert.count == 3
    core_ok = cert.reduced.structurally_equal(heading)
    replay_ok = verify_roundtrip(cert)
    again = cert.reduced
    for _ in range(cert.count):
        again = extend(again).extended
    rebuilt_ok = again.structurally_equal(chain5)
    elapsed = time.monotonic() - start
    _verdict(
        1, "chain reduction", steps_ok and core_ok and replay_ok and rebuilt_ok, elapsed, 1.0,
        f"steps={cert.count}, core match={core_ok}, replay={replay_ok}, re-extension={rebuilt_ok}",
    )


def test_criterion_2_cubic_extension(cubic):
    start = time.monotonic()
    record = extend(cubic)
    target = parse(
        "system target\nstates x1 x2 x3 x4\ninputs v\n"
        "dx1 = x4\ndx2 = x3^3\ndx3 = x4^3\ndx4 = v\n"
    )
    shape_ok = record.extended.structurally_equal(target)
    ext_affine = to_affine(record.extended)
    affine_ok = not isinstance(ext_affine, NotAffineReport)
    orig_report = to_affine(cubic)
    offender_ok = (
        isinstance(orig_report, NotAffineReport)
        and orig_report.state == "x3"
        and orig_report.input == "u"
    )
    elapsed = time.monotonic() - start
    _verdict(
        2, "integrator extension", shape_ok and affine_ok and offender_ok, elapsed, 1.0,
        f"4-state match={shape_ok}, extension affine={affine_ok}, offender=(dx3, u)={offender_ok}",
    )


def test_criterion_3_reduction_criterion_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(2026)
    b = np.array([0.0, 0.0, 1.0])
    agree = 0
    total = 1000
    for _ in range(total):
        a = rng.uniform(-1.0, 1.0, size=(3, 3))
        criterion = kalman_reduce_3to2(a, tol=1e-9).controllable
        full = kalman_rank(a, b, tol=1e-9) == 3
        agree += criterion == full
    elapsed = time.monotonic() - start
    _verdict(
        3, "2x2 criterion vs full rank", agree == total, elapsed, 5.0,
        f"agreement {agree}/{total}",
    )


def test_criterion_4_realization_convergence(cubic):
    start = time.monotonic()
    record = extend(cubic)
    plan = FlowPlan((
        Jump(0, 1.0),
        Drift(0.5, (1.0,)),
        Jump(0, -1.5),
        Drift(0.4, (-0.5,)),
    ))
    p0 = np.zeros(4)
    ideal = ideal_plan_endpoint(record, plan, p0)
    gains = [10.0, 20.0, 40.0, 80.0]
    errors = []
    for gain in gains:
        ctrl = realize_plan(record, plan, gain)
        end = integrate(record.extended, p0, ctrl).endpoint
        errors.append(float(np.linalg.norm(end - ideal)))
    monotone = all(b < a for a, b in zip(errors, errors[1:]))
    ratios_ok = True
    for i in range(len(errors) - 1):
        if errors[i] < 0.1:
            ratios_ok = ratios_ok and 0.3 <= errors[i + 1] / errors[i] <= 0.7
    elapsed = time.monotonic() - start
    _verdict(
        4, "gain-sweep convergence", monotone and ratios_ok, elapsed, 10.0,
        "errors " + ", ".join(f"{e:.3e}" for e in errors) + f", halving ok={ratios_ok}",
    )


def test_criterion_5_coverage_consistency(heading, cubic):
    start = time.monotonic()
    cfg_h = ReachConfig(
        horizon=3.0, segments=6, input_box=((-10.0, 10.0),), samples=20000,
        window=((-2.0, 2.0), (-2.0, 2.0)), resolution=40, seed=2026, step=2e-2,
    )
    cfg_h_ext = ReachConfig(
        horizon=3.0, segments=6, input_box=((-6.0, 6.0),), samples=20000,
        window=((-2.0, 2.0), (-2.0, 2.0), (-18.0, 18.0)), resolution=(40, 40, 10),
        seed=901, step=2e-2,
    )
    rep_h = coverage_compare(heading, [0.0, 0.0], cfg_h, cfg_h_ext)

    cfg_c = ReachConfig(
        horizon=4.0, segments=8, input_box=((-1.0, 1.0),), samples=20000,
        window=((-1.0, 1.0),) * 3, resolution=16, seed=2026, step=2e-2,
    )
    cfg_c_ext = ReachConfig(
        horizon=4.0, segments=8, input_box=((-2.0, 2.0),), samples=20000,
        window=((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0), (-8.0, 8.0)),
        resolution=(16, 16, 16, 8), seed=901, step=2e-2,
    )
    rep_c = coverage_compare(cubic, [0.0, 0.0, 0.0], cfg_c, cfg_c_ext)
    elapsed = time.monotonic() - start
    _verdict(
        5, "extension coverage consistency",
        rep_h.consistent and rep_c.consistent, elapsed, 60.0,
        f"heading diff {rep_h.difference:.4f}, cubic diff {rep_c.difference:.4f} (threshold 0.05)",
    )


def test_criterion_6_open_disk_coverage(heading):
    start = time.monotonic()
    horizon = 3.0
    cfg = ReachConfig(
        horizon=horizon, segments=3, input_box=((-10.0, 10.0),), samples=20000,
        window=((-3.0, 3.0), (-3.0, 3.0)), resolution=30, seed=2026, step=1e-2,
    )
    est = sample_reach(heading, [0.0, 0.0], cfg)
    res = 30
    width = 6.0 / res
    idx = np.indices((res, res)).reshape(2, -1).T
    centers = -3.0 + (idx + 0.5) * width
    inside = np.linalg.norm(centers, axis=1) <= horizon - 0.2
    covered = float(est.bitmap.reshape(-1)[inside].mean())
    elapsed = time.monotonic() - start
    _verdict(
        6, "reach covers the inner disk", covered > 0.95, elapsed, 30.0,
        f"{covered:.4f} of {int(inside.sum())} disk cells marked",
    )


def test_criterion_7_bounded_inputs_cost_nothing(heading):
    start = time.monotonic()
    cfg = ReachConfig(
        horizon=3.0, segments=6, input_box=((-10.0, 10.0),), samples=20000,
        window=((-2.0, 2.0), (-2.0, 2.0)), resolution=40, seed=2026, step=2e-2,
    )
    unbounded = sample_reach(heading, [0.0, 0.0], cfg)
    # the full-size bitmap that every change to the sampler must keep
    digest = hashlib.sha256(np.packbits(unbounded.bitmap).tobytes()).hexdigest()
    assert digest == "d0f9b20e11b4dee02da0e8da52ebeda2c6f00792f241238819f2b280ad10ba33"
    report = bounded_reach_check(
        heading, [0.0, 0.0], ((-math.pi, math.pi),), cfg, rate_box=((-2.0, 2.0),)
    )
    diff = abs(report.original.coverage - unbounded.coverage)
    elapsed = time.monotonic() - start
    _verdict(
        7, "angle bound is non-restrictive", diff < 0.02, elapsed, 60.0,
        f"bounded {report.original.coverage:.4f} vs unbounded {unbounded.coverage:.4f} "
        f"(diff {diff:.4f}, {report.rejected} extension draws rejected)",
    )


def test_criterion_8_numerical_hygiene(heading):
    from test_dsl import _random_expr
    from test_fields import _fd_bracket

    start = time.monotonic()
    problems = []

    # symbolic brackets vs finite differences
    X = VectorField((Mul(StateVar(0), StateVar(1)), Sin(StateVar(0)), Pow(StateVar(2), 2)), 3)
    Y = VectorField((StateVar(2), Mul(Constant(2.0), StateVar(0)), Mul(StateVar(1), StateVar(2))), 3)
    Z = lie_bracket(X, Y)
    for p in ([0.3, -0.7, 0.5], [1.1, 0.2, -0.4], [-0.6, 0.9, 1.3]):
        got = eval_vf(Z, p)
        want = _fd_bracket(X, Y, p)
        scale = max(1.0, float(np.max(np.abs(want))))
        if np.max(np.abs(got - want)) / scale > 1e-5:
            problems.append(f"bracket mismatch at {p}")

    # integrator order on a closed-form flow
    logistic = VectorField((Sub(StateVar(0), Pow(StateVar(0), 2)),), 1)
    x0, horizon = 0.1, 2.0
    exact = x0 * math.exp(horizon) / (1.0 + x0 * (math.exp(horizon) - 1.0))
    e_coarse = abs(flow_endpoint(logistic, [x0], horizon, step=0.02)[0] - exact)
    e_fine = abs(flow_endpoint(logistic, [x0], horizon, step=0.01)[0] - exact)
    order = math.log2(e_coarse / e_fine)
    if order < 3.5:
        problems.append(f"observed order {order:.2f}")

    # forward-then-backward flow
    pend = VectorField((StateVar(1), Mul(Constant(-1.0), Sin(StateVar(0)))), 2)
    a = np.array([0.4, -0.3])
    back = flow_endpoint(pend, flow_endpoint(pend, a, 0.7), -0.7)
    if np.linalg.norm(back - a) > 1e-7:
        problems.append(f"reversal drift {np.linalg.norm(back - a):.2e}")

    # text round trip on random systems
    rng = np.random.default_rng(0xACCE55)
    for case in range(200):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(0, 3))
        sys_ = ControlSystem(
            f"rt{case}",
            tuple(f"s{i}" for i in range(n)),
            tuple(f"w{j}" for j in range(m)),
            tuple(_random_expr(rng, n, m, depth=int(rng.integers(1, 5))) for _ in range(n)),
        )
        text = serialize(sys_)
        again = parse(text)
        if not again.structurally_equal(sys_, match_names=True) or serialize(again) != text:
            problems.append(f"round trip broke on case {case}")
            break

    # bit-identical resampling
    cfg = ReachConfig(
        horizon=1.0, segments=4, input_box=((-6.0, 6.0),), samples=500,
        window=((-2.0, 2.0), (-2.0, 2.0)), resolution=16, seed=5, step=1e-2,
    )
    one = sample_reach(heading, [0.0, 0.0], cfg)
    two = sample_reach(heading, [0.0, 0.0], cfg)
    if np.packbits(one.bitmap).tobytes() != np.packbits(two.bitmap).tobytes():
        problems.append("rerun bitmaps differ")

    elapsed = time.monotonic() - start
    _verdict(
        8, "numerical hygiene", not problems, elapsed, 30.0,
        "; ".join(problems) if problems else
        f"brackets<=1e-5, order {order:.2f}, reversal<=1e-7, 200 round trips, reruns byte-equal",
    )
