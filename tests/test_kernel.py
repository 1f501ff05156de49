"""Promises of the one RK4 stepping kernel, `flows.rk4_rows`, that
`integrate`, `flow_endpoint`, `ideal_plan_endpoint` and the sampler share."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import CUBIC_TEXT, HEADING_TEXT, chain_text, per_substep

from ctrlkit import expr, flows, parse
from ctrlkit.expr import (
    OPS, Add, Constant, Cos, Div, Exp, InputVar, Mul, Neg, Pow, Sin, StateVar, Sub, compile_components, iter_nodes,
)
from ctrlkit.fields import VectorField
from ctrlkit.flows import BlowUpError, Drift, FlowPlan, Jump, PiecewiseControl, flow_endpoint, integrate
from ctrlkit.reach import ReachConfig, _draw_controls, sample_reach
from ctrlkit.transform import extend

BOOM_TEXT = "system boom\nstates x1\ninputs u\ndx1 = x1^2 + u\n"


def _run(f, x0, durations, values, step):
    """rk4_rows from one start `x0` for every row: (endpoints, dropped)."""
    x, bad_at = flows.rk4_rows(f, np.tile(x0, (len(durations), 1)), durations, values, step)
    return x, bad_at >= 0


def _row_control(durations, values, i):
    return PiecewiseControl(tuple(
        (float(d), tuple(float(v) for v in row)) for d, row in zip(durations[i], values[i])
    ))


@pytest.mark.parametrize("text, x0, box", [
    (HEADING_TEXT, [0.1, -0.2], ((-6.0, 6.0),)),
    (BOOM_TEXT, [0.5], ((-1.5, 1.5),)),
])
def test_run_batch_rows_do_not_depend_on_batch_size(text, x0, box):
    """The first N of 2N rows end where a batch of those N rows ends, and
    drop exactly when they do."""
    sys_ = parse(text)
    f = compile_components(sys_.rhs, sys_.n, sys_.m)
    x0 = np.array(x0)
    small = _run(f, x0, *_draw_controls(4, 60, 3, 3.0, box), 1e-2)
    large = _run(f, x0, *_draw_controls(4, 120, 3, 3.0, box), 1e-2)
    assert np.array_equal(large[0][:60], small[0])
    assert np.array_equal(large[1][:60], small[1])
    if text == BOOM_TEXT:
        assert 0 < small[1].sum() < 60


def test_run_batch_heading_rows_match_integrate():
    """sin and cos in the rhs, segments of unequal length: each row of a
    batch equals `integrate`, which runs the same kernel on one row."""
    heading = parse(HEADING_TEXT)
    durations, values = _draw_controls(11, 25, 5, 2.0, ((-6.0, 6.0),))
    assert len(np.unique(np.ceil(durations / 2e-2))) > 10
    x0 = np.array([0.3, -0.1])
    ends, dead = _run(compile_components(heading.rhs, 2, 1), x0, durations, values, 2e-2)
    assert not dead.any()
    for i in range(25):
        want = integrate(heading, x0, _row_control(durations, values, i), 2e-2).endpoint
        assert np.array_equal(ends[i], want), f"row {i}"


def test_integrate_times_follow_the_schedule():
    traj = integrate(parse(HEADING_TEXT), [0.0, 0.0], PiecewiseControl(((0.25, (1.0,)), (0.1, (2.0,)))), 0.1)
    # ceil(0.25 / 0.1) = 3 substeps of 0.25 / 3, then one of 0.1
    assert np.array_equal(traj.times, [0.0, 0.25 / 3, 2 * (0.25 / 3), 0.25, 0.25 + 0.1])
    assert traj.states.shape == (5, 2)


def _reference_step_times(durations, step):
    """The per-segment loop that `_step_times` replaced: each segment's
    start plus whole substeps, and its end the running sum `t += d`."""
    nsub, hs = flows._schedule(durations, step)
    times, t = [np.zeros(1)], 0.0
    for count, h, d in zip(nsub.tolist(), hs.tolist(), durations.tolist()):
        times.append(t + np.arange(1, count + 1) * h)
        t += d
        times[-1][-1] = t
    return np.concatenate(times)


@pytest.mark.parametrize("seed", range(4))
def test_the_time_of_one_step_is_its_time_in_the_whole_schedule(seed):
    """`_step_times` of one step, segment ends and the steps before them
    included, has the bits of that step's time in the whole schedule, and
    the whole schedule those of the per-segment loop."""
    rng = np.random.default_rng(seed)
    for _ in range(60):
        segments = int(rng.integers(0, 9))
        durations = rng.dirichlet(np.ones(segments)) * rng.uniform(0.01, 9.0) if segments else np.zeros(0)
        step = float(rng.choice([1e-3, 1e-2, 0.07, 0.5]))
        want = _reference_step_times(durations, step)
        assert flows._step_times(durations, step).tobytes() == want.tobytes()
        ends = np.cumsum(flows._schedule(durations, step)[0])
        for k in {0, len(want) - 1, *ends.tolist(), *(ends - 1).tolist(), *rng.integers(0, len(want), 4).tolist()}:
            assert flows._step_times(durations, step, k) == want[k], (durations, step, k)


def test_a_long_flow_that_blows_up_early_holds_no_schedule():
    """x' = x^2 from 1 blows up at t = 1.001 at step 1e-3, whatever the
    flow time: a flow of 1e5 time units raises what a flow of 1.5 raises,
    and its blow-up time is taken without the 1e8 times of its schedule
    (a traced peak of 1.5 GiB when they were all made)."""
    vf = VectorField(parse("system sq\nstates x\ndx = x * x\n").rhs, 1)
    with pytest.raises(BlowUpError) as short:
        flow_endpoint(vf, [1.0], 1.5, step=1e-3)
    tracemalloc.start()
    try:
        with pytest.raises(BlowUpError) as long:
            flow_endpoint(vf, [1.0], 1e5, step=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(long.value) == str(short.value) == "state blew up at t=1.001"
    assert long.value.time == short.value.time
    assert peak < 5 * 2**20


def _reference_turns(nsub):
    """The schedule as one argsort of the turn steps, `np.unique` of every
    segment end and a binary search made it, as (row, src, stops, upto,
    last)."""
    rows = len(nsub)
    seg_end = np.cumsum(nsub, axis=1)
    turns = seg_end[:, :-1]
    order = np.argsort(turns, axis=None, kind="stable")
    stops = np.unique(seg_end)
    upto = np.searchsorted(turns.ravel()[order], stops, side="right")
    row, seg = np.unravel_index(order, turns.shape)
    return row, (seg + 1) * rows + row, stops, upto, seg_end[:, -1]


def _dirichlet_substeps(rows, segments, step, seed):
    rng = np.random.default_rng(seed)
    durations = rng.dirichlet(np.ones(segments), size=rows) * rng.uniform(1.0, 4.0, (rows, 1))
    return flows._schedule(durations, step)[0]


@pytest.mark.parametrize("nsub", [
    _dirichlet_substeps(4096, 8, 2e-2, 1),  # shaped like a chunk of the bench's cubic compare
    _dirichlet_substeps(333, 3, 1e-2, 2),  # past 255 steps: 16-bit ends
    _dirichlet_substeps(50, 6, 0.3, 3),  # many rows turning at each stop
    _dirichlet_substeps(9, 1, 1e-2, 4),  # one segment: no turn at all
    _dirichlet_substeps(0, 4, 1e-2, 5),  # no rows
    np.array([[40000, 30000, 5]]),  # one row past 65535 steps: 32-bit ends
    np.array([[1, 1, 1], [2, 1, 1], [1, 2, 1]]),  # single substeps, and rows turning at once
], ids=["chunk", "16-bit", "dense", "one segment", "no rows", "32-bit", "single substeps"])
def test_turns_equal_the_argsort_unique_searchsorted_schedule(nsub):
    """`_turns` gives the stops, the turns counted up to each and the
    last steps of the reference; at each stop the same rows turn to the
    same table columns (in any order: a row turns at most once a step),
    held in the narrowest unsigned type."""
    row, src, stops, upto, last = flows._turns(nsub)
    ref_row, ref_src, ref_stops, ref_upto, ref_last = _reference_turns(nsub)
    assert stops.tolist() == ref_stops.tolist()
    assert upto.tolist() == ref_upto.tolist()
    assert last.tolist() == ref_last.tolist()
    for lo, hi in zip([0, *upto[:-1].tolist()], upto.tolist()):
        assert sorted(zip(row[lo:hi].tolist(), src[lo:hi].tolist())) == \
            sorted(zip(ref_row[lo:hi].tolist(), ref_src[lo:hi].tolist()))
    assert len(row) == len(ref_row)
    assert row.dtype == src.dtype == np.min_scalar_type(nsub.size)
    assert last.dtype == np.min_scalar_type(int(ref_last.max(initial=0)))


def test_flow_endpoint_is_a_one_segment_run():
    """Same endpoint and same blow-up time as `integrate` on one
    input-free segment."""
    boom = parse("system boom\nstates x\ndx = x^2\n")
    vf = VectorField(boom.rhs, 1)
    assert np.array_equal(
        flow_endpoint(vf, [0.5], 0.7, step=0.01),
        integrate(boom, [0.5], PiecewiseControl(((0.7, ()),)), 0.01).endpoint,
    )
    with pytest.raises(BlowUpError) as from_flow:
        flow_endpoint(vf, [1.0], 2.0)
    with pytest.raises(BlowUpError) as from_integrate:
        integrate(boom, [1.0], PiecewiseControl(((2.0, ()),)))
    assert from_flow.value.time == from_integrate.value.time


def test_ideal_plan_endpoint_compiles_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return compile_components(*args)

    monkeypatch.setattr(flows, "compile_components", counted)
    plan = FlowPlan((Drift(0.3, (1.0,)), Jump(0, -2.0), Drift(0.2, (-1.0,)), Drift(0.1, (-1.0,))))
    flows.ideal_plan_endpoint(extend(parse(CUBIC_TEXT)), plan, np.array([0.0, 0.0, 0.0, 1.0]))
    assert len(calls) == 1


@pytest.mark.parametrize("step", [1e-300, 5e-324])
def test_unrepresentable_substep_count_is_rejected(step):
    """durations / step past the int64 range used to wrap in the cast, and
    the sampler reported a coverage from one substep per segment."""
    cfg = ReachConfig(
        horizon=1.0, segments=4, input_box=((-6.0, 6.0),), samples=10,
        window=((-2.0, 2.0), (-2.0, 2.0)), resolution=16, seed=5, step=step,
    )
    heading = parse(HEADING_TEXT)
    with pytest.raises(ValueError, match="substeps"):
        sample_reach(heading, [0.0, 0.0], cfg)
    with pytest.raises(ValueError, match="substeps"):
        integrate(heading, [0.0, 0.0], PiecewiseControl(((1.0, (0.0,)),)), step)


def test_flow_endpoint_blow_up_on_the_last_substep_reports_the_flow_time():
    # 70 substeps of 0.7 / 70 add up to 0.7000000000000001; the schedule
    # ends the segment at 0.7 itself, as `integrate` always has
    vf = VectorField(parse("system boom\nstates x\ndx = x^2\n").rhs, 1)
    assert 70 * (0.7 / 70) != 0.7
    with pytest.raises(BlowUpError) as exc_info:
        flow_endpoint(vf, [1.4485764298217412], 0.7, step=0.01)
    assert exc_info.value.time == 0.7


def test_rows_raise_for_the_lowest_row_that_blows_up():
    """Row 1 blows up while row 0 still steps, so it raises only when
    row 0 has ended without blowing up, at row 1's own time; a lower row
    that blows up later in steps is the one reported."""
    boom = parse(BOOM_TEXT)
    f = compile_components(boom.rhs, 1, 1)

    def blow_up_time(rows):
        durations = np.array([[d] for d, _ in rows])
        values = np.array([[[u]] for _, u in rows])
        with pytest.raises(BlowUpError) as exc_info:
            flows._run_rows(f, np.full((len(rows), 1), 0.5), durations, values, 1e-2)
        return exc_info.value.time

    def alone(duration, u):
        with pytest.raises(BlowUpError) as exc_info:
            integrate(boom, [0.5], PiecewiseControl(((duration, (u,)),)), 1e-2)
        return exc_info.value.time

    # x' = x^2 - 1 settles at -1; x' = x^2 + u escapes sooner the larger u is
    assert blow_up_time([(3.0, -1.0), (1.5, 1.0)]) == alone(1.5, 1.0)
    assert blow_up_time([(3.0, 1.0), (3.0, 4.0)]) == alone(3.0, 1.0) > alone(3.0, 4.0)


def test_a_row_that_turns_nan_is_dropped():
    # exp(x1^400) overflows once x1 passes 1.0166, and inf - inf is NaN
    # while the state is still near 1, far below BLOWUP_LIMIT
    nan_sys = parse("system nan\nstates x1\ninputs u\ndx1 = exp(x1^400) - exp(x1^400) + u\n")
    durations, values = _draw_controls(2, 30, 3, 3.0, ((0.5, 1.5),))
    f = compile_components(nan_sys.rhs, 1, 1)
    ends, dead = _run(f, np.zeros(1), durations, values, 1e-2)
    assert dead.all()
    assert not ends.any()
    with pytest.raises(BlowUpError) as exc_info:
        integrate(nan_sys, [0.0], PiecewiseControl(((3.0, (1.0,)),)), 1e-2)
    assert 1.0 < exc_info.value.time < 1.1


# --- the generated step ----------------------------------------------------

_X0, _X1, _U0 = StateVar(0), StateVar(1), InputVar(0)
# one tree holding every node type of expr.OPS.  With x0 = -0.0 its first
# term is 1, with x0 = +0.0 it is 0; next to dx0 = -x0, that makes the
# -0.0 row tell `base + (...)` (which turns a -0.0 slope into +0.0) from a
# bare slope at every stage
_EVERY_NODE = Add(
    Div(Constant(1.0), Add(Constant(1.0), Exp(Div(Constant(1.0), _X0)))),
    Mul(Sin(_U0), Sub(Cos(_X1), Neg(Pow(_X1, 3)))),
)
_PENDULUM = VectorField((_X1, Mul(Constant(-1.0), Sin(_X0))), 2)
_STEP_SYSTEMS = {
    "heading": lambda: parse(HEADING_TEXT),
    "heading_ext": lambda: extend(parse(HEADING_TEXT)).extended,
    "cubic": lambda: parse(CUBIC_TEXT),
    "cubic_ext": lambda: extend(parse(CUBIC_TEXT)).extended,
    "constant": lambda: ((Constant(2.0), Constant(2.0)), 2, 0),
    # the field `flow_endpoint` compiles for a negative time
    "negated_flow": lambda: (tuple(Neg(c) for c in _PENDULUM.components), 2, 0),
    "every_node": lambda: ((Neg(_X0), _EVERY_NODE), 2, 1),
    # dx5 = u reads no state, so dx4 = x5 reuses k2 as k3; dx3 = x4 reads
    # the moving x4 and does not
    "chain5": lambda: parse(chain_text(5)),
    # dx1 reads the static x2 and the moving x3, so the stage-3 point of x2
    # is its stage-2 point and that of x3 is not
    "static_and_moving": lambda: parse("system sm\nstates x1 x2 x3\ninputs u\ndx1 = x2 * x3\ndx2 = u\ndx3 = x1\n"),
    # the slope of x2 reads no state and both inputs, so the step's table
    # takes strided input columns; x1 and x3 read an input each as well
    "two_inputs": lambda: parse(
        "system two\nstates x1 x2 x3\ninputs u v\ndx1 = x2 * sin(u)\n"
        "dx2 = exp(u) * sin(v) + sin(u) * exp(v) + u^5 - v^5\ndx3 = x1 * v\n"
    ),
}


def _made(name):
    made = _STEP_SYSTEMS[name]()
    return (made.rhs, made.n, made.m) if hasattr(made, "rhs") else made


def _step_case(name):
    exprs, n, m = _made(name)
    rng = np.random.default_rng(31)
    x = rng.uniform(-2.0, 2.0, size=(2048, n))
    u = rng.uniform(-2.0, 2.0, size=(2048, m))
    h = rng.uniform(1e-3, 0.1, size=(2048, 1))
    x[0], u[0] = -0.0, -0.0
    x[1, 0] = np.nan
    return compile_components(exprs, n, m), x, u, h


def test_every_node_tree_holds_every_node_type():
    assert {type(node) for node in iter_nodes(_EVERY_NODE)} == set(OPS)


@pytest.mark.parametrize("name", sorted(_STEP_SYSTEMS))
@pytest.mark.parametrize("rows", [slice(None), slice(0, 1), slice(1, 2), slice(2, 3)],
                         ids=["2048 rows", "-0.0 row", "NaN row", "1 row"])
def test_generated_step_matches_rk4_step_bit_for_bit(name, rows):
    f, x, u, h = _step_case(name)
    x, u, h = x[rows], u[rows], h[rows]
    with np.errstate(all="ignore"):
        want = flows.rk4_step(f, x, u, h)
        got = f.step(x, u, h)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["every_node", "chain5"])
@pytest.mark.parametrize("rows", [slice(None), slice(0, 1), slice(1, 2)], ids=["2048 rows", "-0.0 row", "NaN row"])
def test_column_held_advance_matches_rk4_step_bit_for_bit(name, rows):
    """`f.advance` as rk4_rows runs it: the states held as an (n, rows)
    array, each state one contiguous row, and the table entries as
    (columns, rows).  every_node tells `base + (...)` from a bare slope
    on the -0.0 row; in chain5, k3 reuses k2 and 2.0 * k2 is taken once."""
    f, x, u, h = _step_case(name)
    x, u, h = x[rows], u[rows], h[rows]
    with np.errstate(all="ignore"):
        want = flows.rk4_step(f, x, u, h)
        got = f.advance(np.ascontiguousarray(x.T), f.table(np.ascontiguousarray(u.T), h[:, 0]))
    assert got.shape == want.T.shape and got.flags.c_contiguous
    assert got.T.tobytes() == want.tobytes()


def test_generated_step_broadcasts_like_rk4_step():
    """A single state of shape (n,) and a scalar step, as `rk4_step`
    takes them."""
    f, x, u, _ = _step_case("heading_ext")
    assert f.step(x[2], u[2], 0.05).tobytes() == flows.rk4_step(f, x[2], u[2], 0.05).tobytes()


def test_step_evaluates_each_slope_only_where_it_can_change(monkeypatch):
    """Per step, a slope that reads no state is evaluated once, one that
    reads only such states three times (k3 is k2), any other four times;
    powers past 3 stay calls of `ipow`, so the calls can be counted."""
    calls = []
    monkeypatch.setattr(expr, "ipow", lambda b, k: calls.append(k) or np.power(b, k))
    sys_ = parse("system count\nstates x1 x2 x3\ninputs u\ndx1 = x2^4\ndx2 = u^5\ndx3 = x1^6\n")
    f = compile_components(sys_.rhs, 3, 1)
    f.step(np.full((4, 3), 0.5), np.full((4, 1), 0.5), 0.1)
    assert sorted(calls) == [4, 4, 4, 5, 6, 6, 6, 6]


@pytest.mark.parametrize("name", sorted(_STEP_SYSTEMS))
def test_rk4_rows_ends_where_a_loop_of_rk4_step_ends(name):
    """A ragged batch ends, state for state, where a plain loop of
    `rk4_step` over each row's `_schedule` ends."""
    exprs, n, m = _made(name)
    f = compile_components(exprs, n, m)
    # short and small enough that no row of any system blows up
    durations = np.array(_RAGGED[3][0]) / 4.0
    rng = np.random.default_rng(19)
    values = rng.uniform(-0.8, 0.8, size=(*durations.shape, m))
    x0 = rng.uniform(-0.5, 0.5, size=(len(durations), n))
    with np.errstate(all="ignore"):
        x, bad_at = flows.rk4_rows(f, x0, durations, values, 1e-2)
        for i in range(len(durations)):
            want = x0[i]
            nsub, hs = flows._schedule(durations[i], 1e-2)
            for count, h, u in zip(nsub.tolist(), hs.tolist(), values[i]):
                for _ in range(count):
                    want = flows.rk4_step(f, want, u, h)
            assert x[i].tobytes() == want.tobytes(), f"row {i}"
    assert (bad_at == -1).all()


def _on_numpy(monkeypatch):
    """Runs of any number of rows step through f.advance, as runs of more
    than `_FLOAT_ROWS` rows do."""
    monkeypatch.setattr(flows, "_FLOAT_ROWS", 0)


def _counting(f, counts):
    """`f` with its float loops and its advance wrapped so that each call
    appends the substeps it computed to `counts`, also where it raises."""
    advance = f.advance

    def counted(loop):
        def run(x, c, steps, limit, s):
            mark = len(s)
            try:
                return loop(x, c, steps, limit, s)
            finally:
                counts.append((len(s) - mark) // len(x))
        return run

    f.floats, f.scalars = counted(f.floats), counted(f.scalars)
    f.advance = lambda *args, **kwargs: counts.append(1) or advance(*args, **kwargs)
    return f


def test_rk4_rows_evaluates_a_slope_that_reads_no_state_once(monkeypatch):
    """Once per `rk4_rows` call, for every segment of every row, however
    many substeps follow; the other slopes once per stage they are read,
    in each `f.advance` call (one per substep, and after a blow-up up to
    one block more).  On numpy's path, where each substep is one call."""
    _on_numpy(monkeypatch)
    calls = []
    monkeypatch.setattr(expr, "ipow", lambda b, k: calls.append(k) or np.power(b, k))
    sys_ = parse("system count\nstates x1 x2 x3\ninputs u\ndx1 = x2^4\ndx2 = u^5\ndx3 = x1^6\n")
    f = compile_components(sys_.rhs, 3, 1)
    advance, advances = f.advance, []
    f.advance = lambda *args, **kwargs: advances.append(1) or advance(*args, **kwargs)
    durations = np.array(_RAGGED[3][0])
    values = np.array(_RAGGED[3][1])[:, :, None]
    steps = []
    flows.rk4_rows(f, np.full((len(durations), 3), 0.5), durations, values, 1e-2, per_substep(lambda k, x: steps.append(k)))
    assert len(steps) > 100 and len(advances) >= len(steps)
    assert calls.count(5) == 1
    assert calls.count(4) == 3 * len(advances) and calls.count(6) == 4 * len(advances)


def test_float_rows_evaluate_a_slope_that_reads_no_state_once(monkeypatch):
    """The float path's count: the slope that reads no state once per
    `rk4_rows` call, in the table; the others once per stage they are read
    in each substep, and each row computes its substeps up to its last step
    or its blow-up step, not one more."""
    calls = []
    monkeypatch.setattr(expr, "ipow", lambda b, k: calls.append(k) or np.power(b, k))
    sys_ = parse("system count\nstates x1 x2 x3\ninputs u\ndx1 = x2^4\ndx2 = u^5\ndx3 = x1^6\n")
    f = _counting(compile_components(sys_.rhs, 3, 1), substeps := [])
    durations = np.array(_RAGGED[3][0])
    values = np.array(_RAGGED[3][1])[:, :, None]
    x, bad_at = flows.rk4_rows(f, np.full((len(durations), 3), 0.5), durations, values, 1e-2)
    assert 0 < (bad_at >= 0).sum() < len(durations)
    ends = np.where(bad_at >= 0, bad_at + 1, flows._schedule(durations, 1e-2)[0].sum(axis=1))
    assert sum(substeps) == ends.sum()
    assert calls.count(5) == 1
    assert calls.count(4) == 3 * sum(substeps) and calls.count(6) == 4 * sum(substeps)


def test_small_powers_of_a_variable_are_the_products_of_ipow():
    x = np.random.default_rng(7).uniform(-3.0, 3.0, size=(1000, 1))
    for k in (1, 2, 3):
        f = compile_components((Pow(_X0, k), Pow(_U0, k)), 1, 1)
        assert f(x, x).tobytes() == np.hstack([expr.ipow(x, k)] * 2).tobytes()
    assert "ipow" in expr.expr_source(Pow(_X0, 4)) and "ipow" in expr.expr_source(Pow(Neg(_X0), 2))


def test_no_step_without_one_component_per_state():
    assert not hasattr(compile_components((Constant(2.0), _X0), 1, 0), "step")


# rows that turn at different steps and end at different steps: row 1
# blows up before its first turn, row 3 blows up on a later segment
_RAGGED = {
    3: ([[0.3, 0.5, 0.2], [1.0, 0.1, 0.4], [0.05, 0.9, 0.33], [0.7, 0.7, 0.9], [0.013, 0.021, 1.4]],
        [[-1.0, 0.0, -1.0], [4.0, 0.0, 0.0], [0.5, -2.0, 1.0], [0.0, 0.2, 3.0], [-0.3, 0.9, -1.2]]),
    1: ([[0.3], [1.0], [0.077], [2.5]], [[-1.0], [4.0], [0.5], [0.0]]),
}


def _visited(f, x0, durations, values):
    """rk4_rows' endpoints and blow-up steps, and the step and states of
    every visit."""
    seen = []
    x, bad_at = flows.rk4_rows(f, x0, durations, values, 1e-2, per_substep(lambda k, x: seen.append((k, x.copy()))))
    return x, bad_at, seen


@pytest.mark.parametrize("segments", sorted(_RAGGED))
def test_ragged_rows_step_as_they_do_alone(segments):
    """Each row's endpoint, states and blow-up step are those of a one-row
    run of that row, which stops at its last step or at its blow-up step;
    after that the row stays as it is."""
    f = compile_components(parse(BOOM_TEXT).rhs, 1, 1)
    durations = np.array(_RAGGED[segments][0])
    values = np.array(_RAGGED[segments][1])[:, :, None]
    x0 = np.full((len(durations), 1), 0.5)
    x, bad_at, seen = _visited(f, x0, durations, values)
    assert [k for k, _ in seen] == list(range(len(seen)))
    if segments == 3:
        assert (bad_at[[1, 3]] >= 0).all() and (bad_at[[0, 2, 4]] == -1).all()
    for i in range(len(durations)):
        x_i, bad_at_i, seen_i = _visited(f, x0[i:i + 1], durations[i:i + 1], values[i:i + 1])
        assert x[i].tobytes() == x_i[0].tobytes(), f"row {i}"
        assert bad_at[i] == bad_at_i[0]
        assert bad_at_i[0] in (-1, len(seen_i) - 1), f"row {i}"
        for k, state in seen:
            want = seen_i[k][1][0] if k < len(seen_i) else x_i[0]
            assert state[i].tobytes() == want.tobytes(), f"row {i} step {k}"


# durations and inputs of boom rows from x1 = 0.5, at step 1e-2
_TURN_ORDER = {
    # rows 0, 1 and 3 turn after step 30, rows 1 and 2 after step 50
    "same step": ([[0.3, 0.5, 0.2], [0.3, 0.2, 0.5], [0.1, 0.4, 0.5], [0.3, 0.4, 0.1]],
                  [[-1.0, 0.0, 0.5], [0.2, -0.3, 0.1], [0.0, 0.1, -1.2], [-0.5, 0.3, 0.0]]),
    # no row turns, so the turn order is empty
    "one segment": ([[0.3], [0.5], [0.3]], [[-1.0], [0.2], [0.0]]),
    # segments of a single substep: rows 0 and 1 turn after steps 1 and 2, row 2 after 20, 21 and 22
    "single substeps": ([[0.004, 0.01, 0.003, 0.2], [0.01, 0.002, 0.3, 0.005], [0.2, 0.006, 0.01, 0.009]],
                        [[3.0, -1.0, 0.5, 0.0], [0.1, 0.2, -0.3, 0.4], [-0.2, 9.0, 0.0, 1.0]]),
    # row 0 blows up (at about t = 0.66) before its turn after step 100,
    # where row 1 turns
    "dead before its turn": ([[1.0, 0.5], [1.0, 0.3], [0.4, 0.2]], [[4.0, -1.0], [0.0, 0.1], [-0.5, 0.2]]),
    # row 0 blows up at about t = 0.66 again: after row 1 turns after step
    # 60 and before it ends after step 80, after row 2 ends and before row 3 does
    "dead while others turn and end": (
        [[0.25, 0.25, 0.25, 0.25], [0.2, 0.2, 0.2, 0.2], [0.1, 0.05, 0.1, 0.05], [0.5, 0.2, 0.1, 0.1]],
        [[4.0, 4.0, 4.0, 4.0], [0.3, -0.2, 0.1, 0.0], [-1.0, 0.5, 0.0, 1.0], [0.2, -0.4, 0.0, 0.3]]),
    # row 0 blows up as before, after every other row has ended, so the
    # run ends after its blow-up step, 33 steps short of its schedule
    "dead after the others end": ([[0.4, 0.3, 0.3], [0.3, 0.1, 0.1], [0.1, 0.1, 0.25]],
                                  [[4.0, 4.0, 4.0], [0.5, -0.5, 0.0], [0.0, 1.0, -1.0]]),
}


@pytest.mark.parametrize("case", sorted(_TURN_ORDER))
def test_turns_in_step_order_match_one_row_runs(case):
    """Rows turn to their next segment from one order of every turn of the
    batch, inside blocks of substeps and at their edges; each row's states
    and blow-up step are those of a one-row run, also where a row blows up
    inside a block in which other rows turn or end."""
    f = compile_components(parse(BOOM_TEXT).rhs, 1, 1)
    durations = np.array(_TURN_ORDER[case][0])
    values = np.array(_TURN_ORDER[case][1])[:, :, None]
    x0 = np.full((len(durations), 1), 0.5)
    x, bad_at, seen = _visited(f, x0, durations, values)
    assert (bad_at >= 0).tolist() == [case.startswith("dead")] + [False] * (len(durations) - 1)
    ends = np.where(bad_at >= 0, bad_at + 1, flows._schedule(durations, 1e-2)[0].sum(axis=1))
    assert [k for k, _ in seen] == list(range(ends.max()))
    for i in range(len(durations)):
        x_i, bad_at_i, seen_i = _visited(f, x0[i:i + 1], durations[i:i + 1], values[i:i + 1])
        assert x[i].tobytes() == x_i[0].tobytes() and bad_at[i] == bad_at_i[0], f"row {i}"
        for k, state in seen[:len(seen_i)]:
            assert state[i].tobytes() == seen_i[k][1][0].tobytes(), f"row {i} step {k}"


def test_each_step_visits_an_array_of_its_own():
    """Within one visit, the states of different substeps never share
    memory, and each is the state of its own step until the visit
    returns; so are the rows of an `integrate` trajectory.  A reused
    output buffer would leave the endpoint right and a kept state wrong."""
    heading = parse(HEADING_TEXT)
    f = compile_components(heading.rhs, 2, 1)
    x0, durations, values = np.array([0.1, -0.2]), np.array([[0.05, 0.03]]), np.array([[[1.0], [-2.0]]])
    states = []

    def visit(k, xs):
        assert k == len(states)
        assert not any(np.shares_memory(xs[:, i], xs[:, j]) for i in range(xs.shape[1]) for j in range(i))
        states.extend(xs[:, j].T.copy() for j in range(xs.shape[1]))

    flows.rk4_rows(f, x0[None], durations, values, 1e-2, visit)
    assert len(states) == 8
    want, x = [x0], x0
    for count, h, u in zip(*flows._schedule(durations[0], 1e-2), values[0]):
        for _ in range(count):
            x = flows.rk4_step(f, x, u, h)
            want.append(x)
    assert np.vstack(states).tobytes() == np.vstack(want[1:]).tobytes()
    traj = integrate(heading, x0, _row_control(durations, values, 0), 1e-2)
    assert traj.states.tobytes() == np.vstack(want).tobytes()


def test_blow_up_keeps_a_row_at_the_limit():
    """The one test of every state against BLOWUP_LIMIT keeps a row at
    |x| = 1e12 exactly and drops the float past it, -inf, inf and NaN at
    the first step; a row that grows drops at the first step where
    `rk4_step` takes it past the limit or to NaN."""
    f = compile_components(parse("system grow\nstates x1 x2\ninputs u\ndx1 = u * x1 * x1\ndx2 = u\n").rhs, 2, 1)
    limit = flows.BLOWUP_LIMIT
    x0 = np.array([[limit, 0.0], [-limit, limit], [np.nextafter(limit, np.inf), 0.0], [0.0, -np.inf],
                   [np.inf, 0.0], [np.nan, 0.0], [0.5, 0.0]])
    values = np.array([0.0] * 6 + [1.0])[:, None, None]
    durations = np.full((7, 1), 2.5)
    x, bad_at, seen = _visited(f, x0, durations, values)
    want, grow = 0, x0[6]
    while (np.abs(grow) <= limit).all():
        grow = flows.rk4_step(f, grow, values[6, 0], 1e-2)
        want += 1
    assert bad_at.tolist() == [-1, -1, 0, 0, 0, 0, want - 1]
    assert x[:2].tobytes() == x0[:2].tobytes()


def test_rows_without_segments_are_returned_alive():
    f = compile_components(parse(BOOM_TEXT).rhs, 1, 1)
    x0 = np.array([[0.5], [np.inf]])
    x, bad_at, seen = _visited(f, x0, np.zeros((2, 0)), np.zeros((2, 0, 1)))
    assert x is x0 and bad_at.tolist() == [-1, -1] and not seen


def test_rows_that_all_blow_up_end_the_run_at_the_later_blow_up_step():
    """Two rows of a 1e5-unit segment that both blow up early: the run
    returns after the later blow-up step, having visited each step up to it
    once, and each row's blow-up step is that of its one-row run."""
    f = compile_components(parse(BOOM_TEXT).rhs, 1, 1)
    x0, durations, values = np.full((2, 1), 0.5), np.full((2, 1), 1e5), np.array([[[4.0]], [[1.0]]])
    x, bad_at, seen = _visited(f, x0, durations, values)
    assert 0 < bad_at[0] < bad_at[1] < 1000
    assert [k for k, _ in seen] == list(range(bad_at[1] + 1))
    assert not x.any()
    for i in range(2):
        assert _visited(f, x0[i:i + 1], durations[i:i + 1], values[i:i + 1])[1][0] == bad_at[i]


def _spiking_f(spike):
    """A hand-built `f` for `rk4_rows`: its table holds the inputs alone,
    and its advance, and its float loop alike, counts substeps in state 0
    and puts the input times 2 * BLOWUP_LIMIT in state 1 at substep `spike`
    alone, 0 at every other."""

    def advance(x, c, out):
        np.add(x[0], 1.0, out=out[0])
        np.multiply(c[0], 2 * flows.BLOWUP_LIMIT * (out[0] == spike + 1), out=out[1])
        return out

    def floats(x, c, steps, limit, s):
        [x0, x1], [u] = x, c
        for _ in range(steps):
            x0 = x0 + 1.0
            x1 = u * (2 * flows.BLOWUP_LIMIT * (x0 == spike + 1))
            s += (x0, x1)
            if not (-limit <= x0 <= limit and -limit <= x1 <= limit):
                return False
        return True

    return SimpleNamespace(table=lambda u, h: u.copy(), advance=advance, floats=floats)


def test_a_spike_past_the_limit_for_one_substep_is_a_blow_up(monkeypatch):
    """A row above BLOWUP_LIMIT at substep 7 alone, in the middle of a
    block of 20 substeps, and back below it from substep 8 on: its blow-up
    step is 7, it is zeroed from there on, and no visit sees the spike.  A
    row beside it that never spikes runs to its end; alone, the spiking row
    ends the run after step 7.  On numpy's path, where the block's one test
    finds the spike."""
    _on_numpy(monkeypatch)
    _spike_run()


def test_a_float_row_spiking_past_the_limit_for_one_substep_is_a_blow_up():
    """The same on the float path, where the float loop stops the row at
    the spike and the block's test then finds it."""
    _spike_run()


def _spike_run():
    f, durations = _spiking_f(7), np.full((2, 1), 0.2)
    seen = []
    x, bad_at = flows.rk4_rows(f, np.zeros((2, 2)), durations, np.array([1.0, 0.0])[:, None, None], 1e-2,
                               per_substep(lambda k, x: seen.append((k, x.copy()))))
    assert bad_at.tolist() == [7, -1]
    assert [k for k, _ in seen] == list(range(20))
    assert all((np.abs(state) <= flows.BLOWUP_LIMIT).all() for _, state in seen)
    for k, state in seen:
        assert state.tolist() == [[k + 1.0, 0.0] if k < 7 else [0.0, 0.0], [k + 1.0, 0.0]], k
    assert x.tolist() == [[0.0, 0.0], [20.0, 0.0]]
    alone = []
    x, bad_at = flows.rk4_rows(f, np.zeros((1, 2)), durations[:1], np.ones((1, 1, 1)), 1e-2,
                               per_substep(lambda k, x: alone.append((k, x.copy()))))
    assert bad_at.tolist() == [7] and not x.any()
    assert [k for k, _ in alone] == list(range(8)) and not alone[7][1].any()


def test_a_one_row_run_longer_than_a_block_visits_each_step_once():
    """One heading row of more substeps than two blocks of _MARK_BLOCK, so
    past a full block: each visit starts at the step after the last one
    seen, and the visited states and the endpoint have the bytes of a loop
    of `rk4_step`."""
    f = compile_components(parse(HEADING_TEXT).rhs, 2, 1)
    x0, durations, values = np.array([0.1, -0.2]), np.array([[20.0, 13.3]]), np.array([[[0.7], [-1.9]]])
    visits = []
    x, bad_at = flows.rk4_rows(f, x0[None], durations, values, 1e-3, lambda k, xs: visits.append((k, xs[..., 0].T.copy())))
    sizes = [len(states) for _, states in visits]
    assert max(sizes) == flows._MARK_BLOCK and bad_at.tolist() == [-1]
    assert [k for k, _ in visits] == np.cumsum([0, *sizes[:-1]]).tolist()
    want, state = [], x0
    for count, h, u in zip(*flows._schedule(durations[0], 1e-3), values[0]):
        for _ in range(count):
            state = flows.rk4_step(f, state, u, h)
            want.append(state)
    assert len(want) > 2 * flows._MARK_BLOCK
    assert np.vstack([states for _, states in visits]).tobytes() == np.vstack(want).tobytes()
    assert x[0].tobytes() == want[-1].tobytes()


def _in_few_substep_blocks(fn):
    """`fn` parametrized over the one-row-run tests of ragged rows, turns
    and blow-ups and over two block sizes."""
    fn = pytest.mark.parametrize("test, args", [
        *((test_ragged_rows_step_as_they_do_alone, (segments,)) for segments in sorted(_RAGGED)),
        *((test_turns_in_step_order_match_one_row_runs, (case,)) for case in sorted(_TURN_ORDER)),
        (test_rows_that_all_blow_up_end_the_run_at_the_later_blow_up_step, ()),
    ], ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else v.__name__[5:])(fn)
    return pytest.mark.parametrize("mark_block", [1, 12], ids=["2-step blocks", "3- to 12-step blocks"])(fn)


@_in_few_substep_blocks
def test_rows_step_alike_in_blocks_of_few_substeps(test, args, mark_block, monkeypatch):
    """The one-row-run tests of ragged rows, turns and blow-ups, with
    blocks of as many substeps as fit `mark_block` row-states of up to 4
    states, but at least 2: 2 substeps a block, where each substep
    overwrites the states that the substep before it read, or a few, so
    rows turn, end and blow up at block edges and in later blocks."""
    monkeypatch.setattr(flows, "_MARK_BLOCK", mark_block)
    test(*args)


@_in_few_substep_blocks
def test_rows_step_alike_on_numpy_in_blocks_of_few_substeps(test, args, mark_block, monkeypatch):
    """The same on numpy's path, where each substep writes its states
    through f.advance into the held block: with 2-step blocks each
    substep reads the states of the other column."""
    _on_numpy(monkeypatch)
    test_rows_step_alike_in_blocks_of_few_substeps(test, args, mark_block, monkeypatch)


def test_an_early_blow_up_on_numpy_costs_at_most_the_rest_of_its_block(monkeypatch):
    """x' = x^2 + u from 0.5 blows up after about 66 of a segment's 1e7
    substeps: the run computes the rest of the block of 16384 substeps
    that holds the blow-up step, and not one block more.  On numpy's
    path, which finds a blow-up once a block."""
    _on_numpy(monkeypatch)
    f = compile_components(parse(BOOM_TEXT).rhs, 1, 1)
    advance, advances = f.advance, []
    f.advance = lambda *args, **kwargs: advances.append(1) or advance(*args, **kwargs)
    x, bad_at = flows.rk4_rows(f, np.full((1, 1), 0.5), np.full((1, 1), 1e5), np.full((1, 1, 1), 4.0), 1e-2)
    assert 0 < bad_at[0] < 100 and not x.any()
    assert len(advances) == flows._MARK_BLOCK


def test_an_early_blow_up_on_floats_costs_no_step_past_it():
    """The same run on the float path computes the steps up to its blow-up
    step and not one more: the float loop tests each substep."""
    f = _counting(compile_components(parse(BOOM_TEXT).rhs, 1, 1), substeps := [])
    x, bad_at = flows.rk4_rows(f, np.full((1, 1), 0.5), np.full((1, 1), 1e5), np.full((1, 1, 1), 4.0), 1e-2)
    assert 0 < bad_at[0] < 100 and not x.any()
    assert sum(substeps) == bad_at[0] + 1


def test_a_float_flow_that_blows_up_computes_no_step_past_it(monkeypatch):
    """`flow_endpoint` of x' = x^2 from 1 at step 1e-3, flown for 1e5 time
    units, blows up at step 1000, inside its first block of 16384
    substeps: it computes exactly that row's blow-up step and the steps
    before it."""
    runs, substeps = [], []
    monkeypatch.setattr(flows, "compile_components", lambda *args: _counting(compile_components(*args), substeps))
    rk4_rows = flows.rk4_rows
    monkeypatch.setattr(flows, "rk4_rows", lambda *args, **kwargs: runs.append(rk4_rows(*args, **kwargs)) or runs[-1])
    with pytest.raises(BlowUpError, match="t=1.001"):
        flow_endpoint(VectorField(parse("system sq\nstates x\ndx = x * x\n").rhs, 1), [1.0], 1e5, step=1e-3)
    (_, bad_at), = runs
    assert bad_at.tolist() == [1000]
    assert sum(substeps) == bad_at[0] + 1


@pytest.mark.parametrize("test, args", [
    *((test_ragged_rows_step_as_they_do_alone, (segments,)) for segments in sorted(_RAGGED)),
    *((test_turns_in_step_order_match_one_row_runs, (case,)) for case in sorted(_TURN_ORDER)),
    (test_rows_that_all_blow_up_end_the_run_at_the_later_blow_up_step, ()),
    (test_blow_up_keeps_a_row_at_the_limit, ()),
], ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else v.__name__[5:])
def test_few_rows_step_alike_on_numpy(test, args, monkeypatch):
    """The one-row-run tests of ragged rows, turns and blow-ups, which take
    the float path at their few rows, on numpy's path as well."""
    _on_numpy(monkeypatch)
    test(*args)


# --- the float loop ------------------------------------------------------------

def test_each_numpy_call_has_a_float_call():
    """Generated code calls `np.<name>` for an op's numpy name; the float
    loop finds the op's own float function under that name."""
    named = [op for op in OPS.values() if op.numpy]
    assert named and all(callable(op.floats) for op in named)
    assert all(getattr(expr._FLOAT_CALLS, op.numpy) is op.floats for op in named)


def _drawn_tree(rng, depth):
    """A random tree over the 12 node types, on states 0 and 1 and input 0."""
    kind = int(rng.integers(3 if depth == 0 else 12))
    if kind == 0:
        return Constant(float(rng.choice([0.0, -0.0, 1.0, 0.5, -2.0, 3.0])))
    if kind == 1:
        return StateVar(int(rng.integers(2)))
    if kind == 2:
        return InputVar(0)
    if kind == 8:
        return Pow(_drawn_tree(rng, depth - 1), int(rng.integers(-3, 6)))
    node = (Neg, Add, Sub, Mul, Div, None, Sin, Cos, Exp)[kind - 3]
    if node in (Add, Sub, Mul):
        return node(_drawn_tree(rng, depth - 1), _drawn_tree(rng, depth - 1))
    if node is Div:
        right = _drawn_tree(rng, depth - 1)
        return Div(_drawn_tree(rng, depth - 1), StateVar(1) if right == Constant(0.0) else right)
    return node(_drawn_tree(rng, depth - 1))


def _drawn_systems(count, seed):
    """`count` drawn two-state systems, compiled; a system whose constant
    parts have no value (`1/(1-1)`, `exp(1000)`) is drawn again."""
    rng, made = np.random.default_rng(seed), []
    while len(made) < count:
        exprs = (_drawn_tree(rng, 4), _drawn_tree(rng, 4))
        try:
            made.append((exprs, compile_components(exprs, 2, 1)))
        except expr.ExprError:
            pass
    return made


# starts where numpy gives -0.0, +-inf and NaN, and, with x1 = 0 or u = 0,
# where a division by a state or an input raises in Python
_STARTS = [(x0, x1) for x0 in (0.0, -0.0, 1.0, -1.5, 1e300, np.inf, -np.inf, np.nan, 5e-324)
           for x1 in (0.0, -0.5, 1e-170)]


def _advance_states(f, x, c, steps):
    """f.advance from the state `x` of one row, up to `steps` substeps and
    up to its first state that fails the blow-up test."""
    states, x = [], np.array(x)[:, None]
    for _ in range(steps):
        x = f.advance(x, c[:, None])
        states.append(x[:, 0])
        if not (np.abs(x) <= flows.BLOWUP_LIMIT).all():
            break
    return np.array(states)


def test_float_loop_matches_advance_bit_for_bit():
    """Over 200 drawn trees, from starts of -0.0, +-inf, NaN, 1e300 and
    subnormals, at u = 0 and u = -1.5, with slopes of -0.0 and states of
    +-inf and NaN among them: the float loop's states are those of
    f.advance, bit for bit, up to the blow-up step, where both stop.  NaN
    is compared as NaN: its sign is the one bit that a sum of two NaNs may
    pick otherwise, and a NaN state is a blow-up, zeroed before any visit.
    Where Python raises (a zero division, sin(inf)), the states before the
    raise are f.advance's, and f.advance has not yet blown up."""
    seen = {"raised": 0, "blown": 0, "-0.0": 0, "inf": 0, "nan": 0}
    nodes = set()
    for exprs, f in _drawn_systems(200, 41):
        nodes |= {type(node) for e in exprs for node in iter_nodes(e)}
        for u in (0.0, -1.5):
            for start in _STARTS:
                with np.errstate(all="ignore"):
                    c = f.table(np.array([[u]]), np.array([0.05]))[:, 0]
                    want = _advance_states(f, start, c, 8)
                    s = []
                    try:
                        alive = f.floats(list(start), c.tolist(), 8, flows.BLOWUP_LIMIT, s)
                    except (ArithmeticError, ValueError):
                        alive = None
                got = np.reshape(s, (-1, 2))
                assert np.array_equal(got, want[:len(got)], equal_nan=True), (exprs, start, u)
                finite = np.isfinite(got)
                assert got[finite].tobytes() == want[:len(got)][finite].tobytes(), (exprs, start, u)
                if alive is None:
                    seen["raised"] += 1
                    assert len(got) < len(want) or (np.abs(want[-1]) <= flows.BLOWUP_LIMIT).all()
                else:
                    assert len(got) == len(want) and alive == (np.abs(want[-1]) <= flows.BLOWUP_LIMIT).all()
                    seen["blown"] += not alive
                slopes = [expr.eval_points(e, [start], [[u]])[0][0] for e in exprs]  # k1 before `base + (...)`
                seen["-0.0"] += any(v == 0.0 and math.copysign(1.0, v) < 0 for v in slopes)
                seen["inf"] += int(np.isinf(want).any())
                seen["nan"] += int(np.isnan(want).any())
    assert nodes == set(OPS)
    assert min(seen.values()) > 500, seen


def test_float_loop_on_numpy_scalars_matches_advance_bit_for_bit():
    """f.scalars, the float loop with numpy's calls, from the states and
    table entries as np.float64, over the same drawn trees, starts and
    inputs: it never raises, also where f.floats does, and its states and
    its verdict are those of f.advance up to the blow-up step, bit for
    bit, NaN compared as NaN."""
    raised = 0
    for exprs, f in _drawn_systems(200, 41):
        for u in (0.0, -1.5):
            for start in _STARTS:
                with np.errstate(all="ignore"):
                    c = f.table(np.array([[u]]), np.array([0.05]))[:, 0]
                    want = _advance_states(f, start, c, 8)
                    s = []
                    alive = f.scalars(np.array(start), c, 8, flows.BLOWUP_LIMIT, s)
                    try:
                        f.floats(list(start), c.tolist(), 8, flows.BLOWUP_LIMIT, [])
                    except (ArithmeticError, ValueError):
                        raised += 1
                got = np.reshape(s, (-1, 2))
                assert alive == (np.abs(want[-1]) <= flows.BLOWUP_LIMIT).all(), (exprs, start, u)
                assert np.array_equal(got, want, equal_nan=True), (exprs, start, u)
                finite = np.isfinite(want)
                assert got[finite].tobytes() == want[finite].tobytes(), (exprs, start, u)
    assert raised > 1000


# finite where Python raises: numpy's 1/0 is inf, inf^0 is 1 and exp(-inf) is 0
_FINITE_AFTER_RAISE = {
    "(1/x1)^0": (Add(Pow(Div(Constant(1.0), _X1), 0), _X0), _U0),
    "exp(-1/x1^2)": (Mul(Exp(Neg(Div(Constant(1.0), Pow(_X1, 2)))), Sin(_X0)), _U0),
}


def _both_paths(f, x0, durations, values, step, monkeypatch):
    """rk4_rows' endpoints, blow-up steps and visited blocks on the float
    path and on numpy's."""
    runs = []
    for cut in (flows._FLOAT_ROWS, 0):
        # the cut-off comes back after each run, so the next call starts on the float path
        with monkeypatch.context() as patch, np.errstate(all="ignore"):
            patch.setattr(flows, "_FLOAT_ROWS", cut)
            seen = []
            x, bad_at = flows.rk4_rows(f, x0, durations, values, step, lambda k, xs: seen.append((k, xs.tobytes())))
        runs.append((x.tobytes(), bad_at.tolist(), seen))
    return runs


@pytest.mark.parametrize("name", sorted(_FINITE_AFTER_RAISE))
def test_a_float_row_that_raises_keeps_numpy_bits(name, monkeypatch):
    """x1 stays 0 for the first segment and starts the second at 0, so
    the float loop raises at the first substep of each and f.scalars steps
    the rest of it; x1 has moved by the third, where the float loop steps
    the row again.  The row never blows up, and its states and endpoint
    are numpy's."""
    f = compile_components(_FINITE_AFTER_RAISE[name], 2, 1)
    c = f.table(np.zeros((1, 1)), np.array([1e-2]))[:, 0]
    with pytest.raises(ZeroDivisionError):
        f.floats([0.5, 0.0], c.tolist(), 1, flows.BLOWUP_LIMIT, [])
    f = _counting(f, substeps := [])
    x0, durations, values = np.array([[0.5, 0.0]]), np.array([[0.1, 0.2, 0.2]]), np.array([[[0.0], [1.0], [-1.0]]])
    floats, numpy = _both_paths(f, x0, durations, values, 1e-2, monkeypatch)
    assert floats == numpy and floats[1] == [-1]
    # the float path's raises and f.scalars substeps, its float loop's 20; then numpy's 50
    assert substeps == [0, 10, 0, 20, 20] + [1] * 50


def test_float_path_runs_as_numpy_path_does(monkeypatch):
    """Ragged runs of 16 rows, the most that take the float path, from the
    special starts: endpoints, blow-up steps and every visited block have
    numpy's bytes, for drawn systems and for those of the step tests."""
    durations = np.array(_RAGGED[3][0] * 3 + [[0.2, 0.3, 0.1]])
    values = np.random.default_rng(8).uniform(-2.0, 2.0, size=(*durations.shape, 1))
    values[:4, 0] = 0.0
    x0 = np.array(_STARTS[:16])
    for exprs, f in _drawn_systems(60, 43):
        floats, numpy = _both_paths(f, x0, durations, values, 1e-2, monkeypatch)
        assert floats == numpy, exprs
    for name in sorted(_STEP_SYSTEMS):
        exprs, n, m = _made(name)
        rng = np.random.default_rng(len(name))
        floats, numpy = _both_paths(compile_components(exprs, n, m), rng.uniform(-1.0, 1.0, (16, n)), durations,
                                    rng.uniform(-1.0, 1.0, (*durations.shape, m)), 1e-2, monkeypatch)
        assert floats == numpy, name
