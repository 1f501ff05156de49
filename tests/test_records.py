"""The numeric input rules of `ctrlkit.records`, the library entries that
read their start, target or evaluation point with `records.point`, and
the one CSV writer."""

import math

import numpy as np
import pytest

from ctrlkit.certificates import larc
from ctrlkit.dsl import to_affine
from ctrlkit.expr import Neg, StateVar
from ctrlkit.fields import VectorField
from ctrlkit.flows import Drift, FlowPlan, PiecewiseControl, flow_endpoint, ideal_plan_endpoint, integrate
from ctrlkit.reach import ReachConfig, sample_reach, two_point_steer
from ctrlkit.records import csv_text, point
from ctrlkit.transform import extend


def test_point_is_a_fresh_float_array():
    # flow_endpoint returns it at t = 0 and ideal_plan_endpoint writes into
    # it, so neither may share memory with the caller's array
    src = np.array([1.0, 2.0])
    out = point(src, 2, "x0")
    out[0] = 7.0
    assert src.tolist() == [1.0, 2.0]
    assert point([1, 2], 2, "x0").dtype == float


@pytest.mark.parametrize("values, words", [
    ([math.nan, 0.0], "x0 must be finite"),
    ([0.0, -math.inf], "x0 must be finite"),
    ([0.0], "x0 needs 2 entries"),
    ([0.0, 0.0, 0.0], "x0 needs 2 entries"),
    ([[0.0, 0.0]], "x0 must be a list of numbers"),
    (["a", 0.0], "x0 must be a list of numbers"),
    (3.0, "x0 must be a list of numbers"),
])
def test_point_rejects(values, words):
    with pytest.raises(ValueError, match=words):
        point(values, 2, "x0")


ENTRIES = [
    "integrate", "flow_endpoint t=0", "flow_endpoint t=1", "ideal_plan_endpoint",
    "sample_reach", "two_point_steer x0", "two_point_steer x1", "larc",
]


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("bad", ["nan", "inf", "wrong length"])
def test_every_point_entry_rejects_a_bad_point(heading, entry, bad):
    # a NaN start used to blow up as a BlowUpError in integrate and
    # flow_endpoint, came back unchanged from flow_endpoint at t = 0, and
    # failed ideal_plan_endpoint's drift check as an integrator level
    def start(n):
        return {"nan": [math.nan] + [0.0] * (n - 1), "inf": [0.0] * (n - 1) + [math.inf],
                "wrong length": [0.0] * (n + 1)}[bad]

    ext = extend(heading)
    cfg = ReachConfig(horizon=1.0, segments=2, input_box=((-1.0, 1.0),), samples=10,
                      window=((-2.0, 2.0),) * 2, resolution=4, seed=1)
    rotation = VectorField((StateVar(1), Neg(StateVar(0))), n=2)
    calls = {
        "integrate": lambda: integrate(heading, start(2), PiecewiseControl(((1.0, (0.5,)),))),
        "flow_endpoint t=0": lambda: flow_endpoint(rotation, start(2), 0.0),
        "flow_endpoint t=1": lambda: flow_endpoint(rotation, start(2), 1.0),
        "ideal_plan_endpoint": lambda: ideal_plan_endpoint(ext, FlowPlan((Drift(0.5, (0.0,)),)), start(3)),
        "sample_reach": lambda: sample_reach(heading, start(2), cfg),
        "two_point_steer x0": lambda: two_point_steer(heading, start(2), [1.0, 0.0], cfg, 1e-3),
        "two_point_steer x1": lambda: two_point_steer(heading, [0.0, 0.0], start(2), cfg, 1e-3),
        "larc": lambda: larc(to_affine(ext.extended), start(3), 2),
    }
    with pytest.raises(ValueError, match="needs [0-9]+ entries" if bad == "wrong length" else "must be finite"):
        calls[entry]()


def test_csv_text_writes_what_a_per_value_join_writes():
    # the trajectory, cell and gain tables each joined f"{v:.17g}" per value
    # before they shared one writer; rows of numpy scalars write the same
    extremes = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.nan, math.inf, -math.inf, 0.1, 1 / 3, 2.0**53 + 2]
    rows = [extremes[i:] + extremes[:i] for i in range(len(extremes))]
    names = [f"c{j}" for j in range(len(extremes))]
    want = ",".join(names) + "\n" + "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)
    assert csv_text(names, rows) == want
    assert csv_text(names, np.array(rows)) == want
    assert csv_text(["t", "x"], np.empty((0, 2))) == "t,x\n"
