import json
import math

import numpy as np
import pytest

from conftest import CUBIC_TEXT, HEADING_TEXT

from ctrlkit import flows
from ctrlkit.dsl import parse
from ctrlkit.expr import Constant, Mul, Pow, StateVar, Sub
from ctrlkit.fields import VectorField
from ctrlkit.flows import (
    BlowUpError,
    Drift,
    FlowPlan,
    Jump,
    PiecewiseControl,
    Trajectory,
    control_from_json,
    control_to_json,
    flow_endpoint,
    ideal_plan_endpoint,
    integrate,
    load_control,
    realize_conjugated_drift,
    realize_jump,
    realize_plan,
    realize_sweep,
    rk4_step,
    save_control,
    save_trajectory_csv,
    time_reversal,
    trajectory_to_csv,
)
from ctrlkit.transform import extend


# --- piecewise controls ----------------------------------------------------

def test_control_normalizes_and_totals():
    ctrl = PiecewiseControl(((1, (0.5,)), (0.25, (-1,))))
    assert ctrl.segments == ((1.0, (0.5,)), (0.25, (-1.0,)))
    assert ctrl.total_duration == 1.25


def test_control_rejects_bad_segments():
    with pytest.raises(ValueError):
        PiecewiseControl(((0.0, (1.0,)),))
    with pytest.raises(ValueError):
        PiecewiseControl(((-0.5, (1.0,)),))
    with pytest.raises(ValueError):
        PiecewiseControl(((float("inf"), (1.0,)),))
    with pytest.raises(ValueError):
        PiecewiseControl(((1.0, (float("nan"),)),))
    with pytest.raises(ValueError):
        PiecewiseControl(((1.0, (1.0,)), (1.0, (1.0, 2.0))))


def test_empty_control_is_allowed():
    ctrl = PiecewiseControl(())
    assert ctrl.total_duration == 0.0
    assert ctrl.reversed().segments == ()


def test_control_reversed_flips_segment_order():
    ctrl = PiecewiseControl(((0.5, (1.0,)), (0.3, (2.0,)), (0.2, (3.0,))))
    assert ctrl.reversed().segments == ((0.2, (3.0,)), (0.3, (2.0,)), (0.5, (1.0,)))
    assert ctrl.reversed().reversed() == ctrl


def test_control_json_round_trip(tmp_path):
    ctrl = PiecewiseControl(((0.5, (1.0, -2.0)), (0.125, (0.0, 3.5))))
    data = control_to_json(ctrl)
    assert data == [
        {"duration": 0.5, "values": [1.0, -2.0]},
        {"duration": 0.125, "values": [0.0, 3.5]},
    ]
    assert control_from_json(data) == ctrl
    # and through an actual file
    path = tmp_path / "ctrl.json"
    save_control(ctrl, str(path))
    assert load_control(str(path)) == ctrl
    assert json.loads(path.read_text()) == data


def test_control_from_json_rejects_malformed():
    with pytest.raises(ValueError):
        control_from_json({"duration": 1.0})
    with pytest.raises(ValueError):
        control_from_json([{"values": [1.0]}])
    with pytest.raises(ValueError):
        control_from_json([{"duration": 1.0}])


# --- trajectories ----------------------------------------------------------

def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0, 1.0]), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        Trajectory(np.zeros((2, 2)), np.zeros((2, 2)))
    traj = Trajectory(np.array([0.0, 0.5]), np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(traj.endpoint, [3.0, 4.0])


def test_trajectory_csv_format(tmp_path):
    traj = Trajectory(np.array([0.0, 0.5]), np.array([[1.0, 2.0], [0.1, -4.0]]))
    text = trajectory_to_csv(traj, ["a", "b"])
    lines = text.splitlines()
    assert lines[0] == "t,a,b"
    assert len(lines) == 3
    assert text.endswith("\n")
    first = [float(v) for v in lines[1].split(",")]
    assert first == [0.0, 1.0, 2.0]
    # %.17g keeps doubles exactly
    assert float(lines[2].split(",")[1]) == 0.1
    with pytest.raises(ValueError):
        trajectory_to_csv(traj, ["a"])
    path = tmp_path / "traj.csv"
    save_trajectory_csv(traj, ["a", "b"], str(path))
    assert path.read_text() == text


# --- stepping --------------------------------------------------------------

def test_substep_count():
    nsub, _ = flows._schedule(np.array([1.0, 1.05, 0.01]), 0.1)
    assert nsub.tolist() == [10, 11, 1]


def test_rk4_step_exact_on_constant_field():
    f = lambda x, u: np.array([2.0, -1.0])
    out = rk4_step(f, np.array([0.0, 0.0]), np.zeros(0), 0.25)
    assert np.allclose(out, [0.5, -0.25], atol=1e-15)


def test_integrate_validates_shapes(heading):
    ctrl = PiecewiseControl(((1.0, (0.0,)),))
    with pytest.raises(ValueError):
        integrate(heading, [0.0, 0.0, 0.0], ctrl)
    with pytest.raises(ValueError):
        integrate(heading, [0.0, 0.0], PiecewiseControl(((1.0, (0.0, 0.0)),)))
    with pytest.raises(ValueError):
        integrate(heading, [0.0, 0.0], ctrl, step=0.0)


@pytest.mark.parametrize("step", [float("nan"), float("inf")])
def test_integrate_rejects_non_finite_step(heading, step):
    with pytest.raises(ValueError):
        integrate(heading, [0.0, 0.0], PiecewiseControl(((1.0, (0.0,)),)), step=step)


def test_integrate_empty_control_stays_put(heading):
    traj = integrate(heading, [0.3, -0.4], PiecewiseControl(()))
    assert np.array_equal(traj.times, [0.0])
    assert np.array_equal(traj.states, [[0.3, -0.4]])


def test_integrate_hits_segment_boundaries_exactly(heading):
    ctrl = PiecewiseControl(((0.3, (0.1,)), (0.45, (-0.2,))))
    traj = integrate(heading, [0.0, 0.0], ctrl, step=1e-2)
    assert traj.times[0] == 0.0
    assert 0.3 in traj.times
    assert traj.times[-1] == 0.75


def test_heading_straight_line_endpoint(heading):
    # sin/cos of a frozen input are constants, so motion is linear in t
    ctrl = PiecewiseControl(((1.0, (math.pi / 2.0,)),))
    end = integrate(heading, [0.0, 0.0], ctrl).endpoint
    assert np.allclose(end, [1.0, 0.0], atol=1e-9)


def test_cubic_endpoint_closed_form(cubic):
    # u = 1: x1 = t, x3 = t, x2 = t^4 / 4
    ctrl = PiecewiseControl(((1.0, (1.0,)),))
    end = integrate(cubic, [0.0, 0.0, 0.0], ctrl).endpoint
    assert np.allclose(end, [1.0, 0.25, 1.0], atol=1e-9)


def test_chain_zero_control_endpoint(chain5):
    ctrl = PiecewiseControl(((2.0, (0.0,)),))
    end = integrate(chain5, np.zeros(5), ctrl).endpoint
    assert np.allclose(end, [0.0, 2.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_integrate_semigroup_property(heading):
    whole = PiecewiseControl(((0.7, (0.4,)), (0.5, (-0.3,))))
    end_whole = integrate(heading, [0.1, 0.2], whole, step=1e-3).endpoint
    mid = integrate(heading, [0.1, 0.2], PiecewiseControl(((0.7, (0.4,)),)), step=1e-3).endpoint
    end_split = integrate(heading, mid, PiecewiseControl(((0.5, (-0.3,)),)), step=1e-3).endpoint
    assert np.allclose(end_whole, end_split, atol=1e-12)


def test_integrate_blowup_raises():
    sys = parse("system boom\nstates x\ndx = x^2\n")
    ctrl = PiecewiseControl(((2.0, ()),))
    with pytest.raises(BlowUpError) as exc_info:
        integrate(sys, [1.0], ctrl)
    # x' = x^2 from 1 escapes at t = 1
    assert 0.9 < exc_info.value.time < 1.5


def test_rk4_convergence_order_on_logistic():
    vf = VectorField((Sub(StateVar(0), Pow(StateVar(0), 2)),), 1)
    x0, horizon = 0.1, 2.0
    exact = x0 * math.exp(horizon) / (1.0 + x0 * (math.exp(horizon) - 1.0))
    e_coarse = abs(flow_endpoint(vf, [x0], horizon, step=0.02)[0] - exact)
    e_fine = abs(flow_endpoint(vf, [x0], horizon, step=0.01)[0] - exact)
    assert e_fine < e_coarse
    order = math.log2(e_coarse / e_fine)
    assert order >= 3.5


# --- autonomous flows and reversal -----------------------------------------

def test_flow_endpoint_zero_time_returns_copy():
    vf = VectorField((StateVar(1), Mul(Constant(-1.0), StateVar(0))), 2)
    x0 = np.array([0.3, -0.2])
    out = flow_endpoint(vf, x0, 0.0)
    assert np.array_equal(out, x0)
    out[0] = 99.0
    assert x0[0] == 0.3


def test_flow_endpoint_reversibility():
    """Forward then backward along the same field returns to the start."""
    vf = VectorField((StateVar(1), Mul(Constant(-1.0), StateVar(0))), 2)
    x0 = np.array([0.3, -0.2])
    mid = flow_endpoint(vf, x0, 0.7)
    back = flow_endpoint(vf, mid, -0.7)
    assert np.linalg.norm(back - x0) < 1e-7


def test_time_reversal_is_involution(heading, cubic, chain5):
    for sys in (heading, cubic, chain5):
        rev = time_reversal(sys)
        assert rev.name == sys.name + "_rev"
        assert time_reversal(rev) == sys


def test_time_reversal_retraces_trajectories(heading):
    ctrl = PiecewiseControl(((0.5, (0.4,)), (0.7, (-0.3,))))
    x0 = np.array([0.3, -0.1])
    fwd = integrate(heading, x0, ctrl).endpoint
    back = integrate(time_reversal(heading), fwd, ctrl.reversed()).endpoint
    assert np.linalg.norm(back - x0) < 1e-8


# --- plans ------------------------------------------------------------------

def test_plan_segment_validation():
    with pytest.raises(ValueError):
        Drift(0.0, (1.0,))
    with pytest.raises(ValueError):
        Drift(float("nan"), (1.0,))
    with pytest.raises(ValueError):
        Jump(-1, 0.5)
    with pytest.raises(ValueError):
        Jump(0, float("inf"))
    assert Drift(1, (2,)).u_frozen == (2.0,)


def test_realize_jump_structure(cubic):
    ext = extend(cubic)
    up = realize_jump(ext, 0, 0.8, 4.0)
    assert up.segments == ((0.2, (4.0,)),)
    down = realize_jump(ext, 0, -0.8, 4.0)
    assert down.segments == ((0.2, (-4.0,)),)
    assert realize_jump(ext, 0, 0.0, 4.0).segments == ()
    with pytest.raises(ValueError):
        realize_jump(ext, 1, 0.5, 4.0)
    with pytest.raises(ValueError):
        realize_jump(ext, 0, 0.5, 0.0)


def test_realize_jump_converges_first_order(cubic):
    """Doubling the gain roughly halves the endpoint error."""
    ext = extend(cubic)
    p0 = np.array([0.2, 0.1, 0.3, 0.4])
    ideal = p0.copy()
    ideal[3] += 0.8
    errs = []
    for gain in (4.0, 8.0, 16.0, 32.0):
        ctrl = realize_jump(ext, 0, 0.8, gain)
        end = integrate(ext.extended, p0, ctrl, step=1e-4).endpoint
        errs.append(float(np.linalg.norm(end - ideal)))
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] < 0.05
    for lo, hi in zip(errs[1:], errs):
        if hi < 0.5:
            assert 0.3 < lo / hi < 0.7


def test_conjugated_drift_structure(cubic):
    ext = extend(cubic)
    ctrl = realize_conjugated_drift(ext, [0.9], [0], 0.7, 3.0)
    assert ctrl.segments == (
        (0.3, (-3.0,)),
        (0.7, (0.0,)),
        (0.3, (3.0,)),
    )


def test_conjugated_drift_runs_at_displaced_level(cubic):
    ext = extend(cubic)
    x0 = np.array([0.1, -0.2, 0.3])
    y0, beta, sigma = 0.4, 0.9, 0.7
    ctrl = realize_conjugated_drift(ext, [beta], [0], sigma, 100.0)
    end = integrate(ext.extended, np.append(x0, y0), ctrl, step=1e-4).endpoint
    # base block drifts at the shifted level y0 - beta, integrator returns to y0
    frozen = PiecewiseControl(((sigma, (y0 - beta,)),))
    ideal_x = integrate(cubic, x0, frozen, step=1e-4).endpoint
    assert np.linalg.norm(end[:3] - ideal_x) < 1e-2
    assert abs(end[3] - y0) < 1e-9


def test_conjugated_drift_validation(cubic):
    ext = extend(cubic)
    with pytest.raises(ValueError):
        realize_conjugated_drift(ext, [0.1, 0.2], [0], 1.0, 5.0)
    with pytest.raises(ValueError):
        realize_conjugated_drift(ext, [0.1], [0], 0.0, 5.0)
    with pytest.raises(ValueError):
        realize_conjugated_drift(ext, [0.1], [0], 1.0, -5.0)


def test_realize_plan_structure(cubic):
    ext = extend(cubic)
    plan = FlowPlan((Jump(0, 1.0), Drift(0.5, (1.0,)), Jump(0, -1.5)))
    ctrl = realize_plan(ext, plan, 10.0)
    assert ctrl.segments == (
        (0.1, (10.0,)),
        (0.5, (0.0,)),
        (0.15, (-10.0,)),
    )
    assert math.isclose(ctrl.total_duration, 0.5 + 2.5 / 10.0)
    with pytest.raises(ValueError):
        realize_plan(ext, FlowPlan((Drift(0.5, (1.0, 2.0)),)), 10.0)
    with pytest.raises(TypeError):
        realize_plan(ext, FlowPlan(("drift",)), 10.0)


def test_ideal_plan_endpoint_closed_form(cubic):
    # jump to u=1, drift 0.5, jump to u=-0.5, drift 0.4; every piece
    # integrates in closed form for this system
    ext = extend(cubic)
    plan = FlowPlan((
        Jump(0, 1.0),
        Drift(0.5, (1.0,)),
        Jump(0, -1.5),
        Drift(0.4, (-0.5,)),
    ))
    end = ideal_plan_endpoint(ext, plan, np.zeros(4))
    assert np.allclose(end, [0.3, 0.0586125, 0.45, -0.5], atol=1e-9)


def test_ideal_plan_endpoint_validation(cubic):
    ext = extend(cubic)
    with pytest.raises(ValueError):
        ideal_plan_endpoint(ext, FlowPlan(()), np.zeros(3))
    with pytest.raises(ValueError):
        ideal_plan_endpoint(ext, FlowPlan((Jump(3, 1.0),)), np.zeros(4))
    with pytest.raises(TypeError):
        ideal_plan_endpoint(ext, FlowPlan((0.5,)), np.zeros(4))


def test_ideal_plan_endpoint_drifts_at_the_integrator_level(heading):
    ext = extend(heading)
    jump = Jump(0, 1.0)
    with pytest.raises(ValueError, match="plan segment 1"):
        ideal_plan_endpoint(ext, FlowPlan((jump, Drift(0.5, (0.3,)))), np.zeros(3))
    with pytest.raises(ValueError, match="plan segment 1"):
        ideal_plan_endpoint(ext, FlowPlan((jump, Drift(0.5, (float("nan"),)))), np.zeros(3))
    # 0.1 + 0.2 is 0.30000000000000004: a declared 0.3 is the same level
    summed = FlowPlan((Jump(0, 0.1), Jump(0, 0.2), Drift(0.5, (0.3,))))
    end = ideal_plan_endpoint(ext, summed, np.zeros(3))
    exact = ideal_plan_endpoint(ext, FlowPlan((Jump(0, 0.1 + 0.2), Drift(0.5, (0.1 + 0.2,)))), np.zeros(3))
    assert np.array_equal(end, exact)


def test_realized_plan_approaches_ideal_endpoint(cubic):
    ext = extend(cubic)
    plan = FlowPlan((
        Jump(0, 1.0),
        Drift(0.5, (1.0,)),
        Jump(0, -1.5),
        Drift(0.4, (-0.5,)),
    ))
    ideal = ideal_plan_endpoint(ext, plan, np.zeros(4))
    errs = []
    for gain in (10.0, 40.0):
        ctrl = realize_plan(ext, plan, gain)
        end = integrate(ext.extended, np.zeros(4), ctrl, step=1e-3).endpoint
        errs.append(float(np.linalg.norm(end - ideal)))
    assert errs[1] < errs[0]
    assert errs[1] < 0.05


SWEEP_PLAN = FlowPlan((Jump(0, 1.0), Drift(0.5, (1.0,)), Jump(0, -1.5), Drift(0.4, (-0.5,))))


@pytest.mark.parametrize("text", [HEADING_TEXT, CUBIC_TEXT], ids=["heading", "cubic"])
@pytest.mark.parametrize("plan, gains", [
    (SWEEP_PLAN, [25.0]),
    (SWEEP_PLAN, [80.0, 10.0, 33.3, 12.5]),
    (SWEEP_PLAN, [3.0, 7.5, 11.0, 40.0, 41.0]),
    # a zero jump gives no segment: every row stays at the start
    (FlowPlan((Jump(0, 0.0), Jump(0, -0.0))), [1.0, 4.0, 9.0, 16.0]),
], ids=["1 gain", "4 gains", "5 gains", "zero jumps"])
def test_realize_sweep_rows_equal_integrate(text, plan, gains):
    ext = extend(parse(text))
    start = np.linspace(0.1, 0.4, ext.extended.n)
    ends = realize_sweep(ext, plan, start, gains, step=2e-3)
    assert ends.shape == (len(gains), ext.extended.n)
    for gain, end in zip(gains, ends):
        want = integrate(ext.extended, start, realize_plan(ext, plan, gain), step=2e-3).endpoint
        assert end.tobytes() == want.tobytes(), f"gain {gain}"


@pytest.mark.parametrize("text", [HEADING_TEXT, CUBIC_TEXT], ids=["heading", "cubic"])
def test_realize_sweep_second_block_of_rows(text):
    """ROW_BLOCK + 1 gains run as two blocks of rows; rows on both sides
    of the block edge, and a stride through the rest, equal `integrate`."""
    block = flows.ROW_BLOCK
    ext = extend(parse(text))
    plan = FlowPlan((Jump(0, 0.5), Drift(0.004, (0.5,)), Jump(0, -0.2)))
    gains = np.linspace(300.0, 2000.0, block + 1).tolist()
    start = np.linspace(0.1, 0.4, ext.extended.n)
    ends = realize_sweep(ext, plan, start, gains)
    for i in [*range(0, block + 1, 97), block - 2, block - 1, block]:
        want = integrate(ext.extended, start, realize_plan(ext, plan, gains[i])).endpoint
        assert ends[i].tobytes() == want.tobytes(), f"row {i}"


@pytest.mark.parametrize("step", [float("inf"), float("nan"), 0.0, -1e-3])
def test_flow_endpoint_rejects_bad_step(step):
    # one RK4 step over the whole time would give 2.7083 for dx = x from 1
    growth = VectorField((StateVar(0),), 1)
    with pytest.raises(ValueError, match="step"):
        flow_endpoint(growth, [1.0], 1.0, step=step)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
def test_flow_endpoint_rejects_non_finite_time(t):
    growth = VectorField((StateVar(0),), 1)
    with pytest.raises(ValueError, match="flow time t must be finite"):
        flow_endpoint(growth, [1.0], t)
