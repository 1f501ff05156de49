"""Each output check of the benchmark accepts a correct output and
rejects the same output with one fault put in.

    PYTHONPATH=src python -m pytest -q bench/test_bench_checks.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from ctrlkit import extend, integrate, parse, reduce_integrator, serialize, to_affine  # noqa: E402
from ctrlkit.fields import eval_vf, lie_bracket  # noqa: E402
from ctrlkit.flows import PiecewiseControl  # noqa: E402

import workloads  # noqa: E402

WINDOW = [[-3.0, 3.0], [-3.0, 3.0]]
RES = [30, 30]
WIDTHS = checks.cell_widths(WINDOW, RES)


def _grid_centers(radius):
    idx = np.indices(tuple(RES)).reshape(2, -1).T
    centers = -3.0 + (idx + 0.5) * WIDTHS
    return centers[np.linalg.norm(centers, axis=1) <= radius]


def test_speed_bound_rejects_a_far_mark():
    good = _grid_centers(3.0)
    assert checks.marks_within_speed_bound(good, [0.0, 0.0], 3.0, WIDTHS) == []
    bad = np.vstack([good, [[2.9, 2.9]]])
    assert checks.marks_within_speed_bound(bad, [0.0, 0.0], 3.0, WIDTHS)


def test_disk_check_rejects_a_holed_disk():
    full = _grid_centers(3.0)
    assert checks.disk_covered(full, WINDOW, RES, 3.0) == []
    holed = full[np.abs(full[:, 0]) > 0.5]
    assert checks.disk_covered(holed, WINDOW, RES, 3.0)


def test_nested_cells_rejects_a_cell_the_larger_run_lacks():
    small, large = {"0.1,0.1", "0.3,0.1"}, {"0.1,0.1", "0.3,0.1", "0.5,0.1"}
    assert checks.nested_cells([small, large]) == []
    assert checks.nested_cells([small | {"0.9,0.9"}, large])


REPORT = {
    "verdict": "consistent", "coverage_original": 1.0, "coverage_extended_projected": 0.984375,
    "difference": 0.015625, "consistent": True, "dropped_original": 0, "dropped_extended": 0,
}


@pytest.mark.parametrize("fault", [
    {"coverage_extended_projected": 0.93, "difference": 0.07},
    {"difference": 0.02},
    {"verdict": "inconsistent", "consistent": False},
    {"dropped_extended": 3},
])
def test_compare_report_rejects(fault):
    assert checks.compare_report(REPORT) == []
    assert checks.compare_report(dict(REPORT, **fault))


def test_bounded_and_dropped_checks():
    assert checks.bounded_matches_unbounded(0.80, 0.81) == []
    assert checks.bounded_matches_unbounded(0.80, 0.83)
    assert checks.none_dropped(0) == []
    assert checks.none_dropped(1)


SEGMENTS = [(0.45, (1.3,)), (0.8, (-2.1,)), (0.3, (0.4,))]


@pytest.mark.parametrize("text, rows_check", [
    (workloads.HEADING, checks.heading_rows),
    (workloads.DOUBLE, checks.double_integrator_rows),
])
def test_trajectory_rows_reject_a_moved_row(text, rows_check):
    x0 = [0.3, -0.2]
    traj = integrate(parse(text), x0, PiecewiseControl(tuple(SEGMENTS)), step=0.01)
    rows = np.column_stack([traj.times, traj.states])
    total = sum(d for d, _ in SEGMENTS)
    assert rows_check(rows, x0, SEGMENTS) == []
    assert checks.trajectory_span(rows, total) == []
    rows[57, 2] += 1e-7
    assert rows_check(rows, x0, SEGMENTS)
    assert checks.trajectory_span(rows[:-1], total)


def test_realize_table_rejects_a_slow_or_rising_error():
    gains = [10.0, 20.0, 40.0, 80.0]
    good = [0.1086, 0.0536, 0.0266, 0.0133]
    assert checks.realize_table(gains, good) == []
    assert checks.realize_table(gains, [0.1086, 0.0536, 0.0466, 0.0133])
    assert checks.realize_table(gains, [0.1086, 0.0536, 0.0266, 0.0600])


def test_steer_check_rejects_a_miss():
    segments = [(0.5, (0.3,)), (0.7, (2.0,))]
    target = checks.heading_endpoint([0.0, 0.0], segments) + [0.005, 0.0]
    assert checks.steer_hits([0.0, 0.0], target, segments, 0.02, True) == []
    assert checks.steer_hits([0.0, 0.0], target, [(0.5, (0.3,)), (0.7, (2.1,))], 0.02, True)
    assert checks.steer_hits([0.0, 0.0], target, segments, 0.02, False)


def test_rank_check_rejects_a_wrong_rank():
    a = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    b = np.array([[0.0], [1.0], [0.0]])  # third state decoupled
    assert checks.kalman_matrix_rank(a, b) == 2
    assert checks.rank_matches(2, a, b) == []
    assert checks.rank_matches(3, a, b)


def test_extension_check_rejects_an_input_outside_its_integrator():
    text = serialize(extend(parse(workloads.CUBIC)).extended)
    assert checks.extension_affine(text, 3, 1) == []
    lines = text.splitlines()
    new_input = lines[2].split()[1]
    bad = "\n".join(lines[:3] + [lines[3] + f" + {new_input}"] + lines[4:]) + "\n"
    assert checks.extension_affine(bad, 3, 1)
    bad_tail = text.replace(f"= {new_input}", f"= 2 * {new_input}")
    assert checks.extension_affine(bad_tail, 3, 1)


def test_core_check_rejects_a_wrong_core():
    core = serialize(reduce_integrator(parse(workloads.chain_text(6))).reduced)
    assert checks.heading_core(core) == []
    assert checks.heading_core(core.replace("sin", "cos", 1))


def test_same_bytes_rejects_a_changed_text():
    assert checks.same_bytes("a\n", "a\n") == []
    assert checks.same_bytes("a\n", "a \n")


LARC = {"method": "larc", "depth": 5, "rank": 4, "full_rank": True, "brackets": ["f", "g1", "[f,g1]", "x"]}


@pytest.mark.parametrize("fault, code", [
    ({"full_rank": False}, 0),
    ({}, 2),
    ({"rank": 5, "full_rank": False}, 2),
    ({"depth": 6}, 0),
])
def test_larc_check_rejects(fault, code):
    assert checks.larc_report(LARC, 4, 5, 0) == []
    assert checks.larc_report(dict(LARC, **fault), 4, 5, code)


def test_bracket_check_rejects_a_wrong_bracket():
    aff = to_affine(extend(parse(workloads.CUBIC)).extended)
    fn = workloads.PAPER["cubic"]

    def f_num(p):
        return np.array(list(fn([], p[:3], p[3])) + [0.0])

    def g_num(p):
        return np.eye(4)[3]

    p = np.array([0.3, -0.4, 0.7, 0.5])
    bracket = lie_bracket(aff.drift, aff.channels[0])
    want = checks.fd_bracket(f_num, g_num, p)
    assert checks.bracket_matches(eval_vf(bracket, p), want) == []
    assert checks.bracket_matches(-eval_vf(bracket, p), want)


def test_per_layer_metrics_match_benchmark_json():
    import json

    import tracing

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == tracing.LAYER_METRICS
