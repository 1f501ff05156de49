"""Output checks of the benchmark.

Each check takes outputs the program wrote, or values read from them,
and returns a list of problems; an empty list means the output passed.
Expected values come from closed forms, from numpy computations made
here, or from properties the method must have, never from stored copies
of earlier outputs.  bench/test_bench_checks.py feeds each check one
corrupted output.
"""

from __future__ import annotations

import math
import re

import numpy as np

COMPARE_THRESHOLD = 0.05  # the paper's equivalence, as `compare` states it
BOUNDED_TOLERANCE = 0.02  # acceptance criterion 7
DISK_SHARE = 0.95  # acceptance criterion 6
DISK_MARGIN = 0.2
FD_STEP = 1e-5
FD_TOLERANCE = 1e-6
ROW_TOLERANCE = 1e-9


# --- coverage ----------------------------------------------------------------


def cell_widths(window, resolution) -> np.ndarray:
    lows = np.array([w[0] for w in window], dtype=float)
    highs = np.array([w[1] for w in window], dtype=float)
    return (highs - lows) / np.asarray(resolution, dtype=float)


def marks_within_speed_bound(centers: np.ndarray, x0, horizon: float, widths) -> list[str]:
    """Heading moves at speed exactly 1, so no marked cell can lie
    farther from x0 than the horizon plus half a cell diagonal."""
    if len(centers) == 0:
        return ["no marked cells"]
    widths = np.asarray(widths, dtype=float)
    reach = float(np.max(np.linalg.norm(centers - np.asarray(x0, dtype=float), axis=1)))
    limit = horizon + 0.5 * float(np.linalg.norm(widths)) + 1e-9
    if reach > limit:
        return [f"a marked cell lies {reach:.4f} from the start, beyond {limit:.4f}"]
    return []


def disk_share(centers: np.ndarray, window, resolution, radius: float) -> float:
    """Share of the grid cells with center inside the disk that are marked."""
    widths = cell_widths(window, resolution)
    lows = np.array([w[0] for w in window], dtype=float)
    idx = np.indices(tuple(resolution)).reshape(len(resolution), -1).T
    all_centers = lows + (idx + 0.5) * widths
    inside = all_centers[np.linalg.norm(all_centers, axis=1) <= radius]
    marked = {tuple(np.round(c, 9)) for c in centers}
    hits = sum(tuple(np.round(c, 9)) in marked for c in inside)
    return hits / len(inside)


def disk_covered(centers: np.ndarray, window, resolution, horizon: float) -> list[str]:
    share = disk_share(centers, window, resolution, horizon - DISK_MARGIN)
    if share < DISK_SHARE:
        return [f"only {share:.4f} of the inner disk is marked, need {DISK_SHARE}"]
    return []


def nested_cells(cell_sets: list[set]) -> list[str]:
    """A larger sample keeps the earlier trajectories, so each run's
    cells are a subset of the next larger run's."""
    problems = []
    for i, (small, large) in enumerate(zip(cell_sets, cell_sets[1:])):
        extra = small - large
        if extra:
            problems.append(f"run {i} marks {len(extra)} cells the larger run {i + 1} misses")
    return problems


def compare_report(report: dict) -> list[str]:
    problems = []
    diff = abs(report["coverage_original"] - report["coverage_extended_projected"])
    if not math.isclose(diff, report["difference"], rel_tol=0, abs_tol=1e-12):
        problems.append(f"difference {report['difference']} is not |{diff}|")
    if not (report["verdict"] == "consistent" and report["consistent"]):
        problems.append(f"verdict {report['verdict']!r}")
    if not diff < COMPARE_THRESHOLD:
        problems.append(f"coverage differs by {diff:.4f}, threshold {COMPARE_THRESHOLD}")
    if report["dropped_original"] or report["dropped_extended"]:
        problems.append("dropped trajectories")
    return problems


def bounded_matches_unbounded(bounded: float, unbounded: float) -> list[str]:
    if abs(bounded - unbounded) >= BOUNDED_TOLERANCE:
        return [f"bounded coverage {bounded:.4f} vs unbounded {unbounded:.4f}"]
    return []


def none_dropped(dropped: int) -> list[str]:
    return [f"{dropped} trajectories dropped"] if dropped else []


# --- trajectory --------------------------------------------------------------


def _segment_index(times: np.ndarray, durations) -> tuple[np.ndarray, np.ndarray]:
    """Segment of each time and the segment's start time.  A time on a
    boundary belongs to the segment it ends, as `integrate` writes it."""
    starts = np.concatenate([[0.0], np.cumsum(durations)])
    seg = np.searchsorted(starts, times, side="left") - 1
    seg = np.clip(seg, 0, len(durations) - 1)
    return seg, starts


def heading_rows(rows: np.ndarray, x0, segments) -> list[str]:
    """dx = (sin v, cos v) is piecewise linear in t; RK4 is exact on it."""
    durations = [d for d, _ in segments]
    vals = np.array([v[0] for _, v in segments])
    seg, starts = _segment_index(rows[:, 0], durations)
    vel = np.stack([np.sin(vals), np.cos(vals)], axis=1)
    base = np.asarray(x0, dtype=float) + np.concatenate(
        [np.zeros((1, 2)), np.cumsum(vel * np.asarray(durations)[:, None], axis=0)]
    )
    tau = (rows[:, 0] - starts[seg])[:, None]
    want = base[seg] + tau * vel[seg]
    return _rows_close(rows[:, 1:], want)


def double_integrator_rows(rows: np.ndarray, x0, segments) -> list[str]:
    """dx1 = x2, dx2 = u: x1 is piecewise quadratic, x2 piecewise linear;
    RK4 is exact on both."""
    durations = np.array([d for d, _ in segments])
    u = np.array([v[0] for _, v in segments])
    p, q = float(x0[0]), float(x0[1])
    p_start, q_start = [], []
    for d, a in zip(durations, u):
        p_start.append(p)
        q_start.append(q)
        p, q = p + q * d + 0.5 * a * d * d, q + a * d
    seg, starts = _segment_index(rows[:, 0], durations)
    tau = rows[:, 0] - starts[seg]
    p0, q0, a = np.array(p_start)[seg], np.array(q_start)[seg], u[seg]
    want = np.stack([p0 + q0 * tau + 0.5 * a * tau * tau, q0 + a * tau], axis=1)
    return _rows_close(rows[:, 1:], want)


def _rows_close(got: np.ndarray, want: np.ndarray) -> list[str]:
    if got.shape != want.shape:
        return [f"trajectory shape {got.shape}, expected {want.shape}"]
    err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    worst = int(np.argmax(np.max(err, axis=1)))
    if err[worst].max() > ROW_TOLERANCE:
        return [f"row {worst} is {err[worst].max():.3e} off the closed form"]
    return []


def trajectory_span(rows: np.ndarray, total: float) -> list[str]:
    if rows[0, 0] != 0.0 or not math.isclose(rows[-1, 0], total, rel_tol=1e-12):
        return [f"trajectory spans [{rows[0, 0]}, {rows[-1, 0]}], control lasts {total}"]
    return []


def realize_table(gains, errors) -> list[str]:
    """The endpoint error falls with the gain like 1/gain: monotone, and
    once it is below 0.1 every doubling of the gain roughly halves it."""
    problems = []
    if any(b >= a for a, b in zip(errors, errors[1:])):
        problems.append(f"errors do not fall monotonically: {errors}")
    for (g0, e0), (g1, e1) in zip(zip(gains, errors), zip(gains[1:], errors[1:])):
        if e0 < 0.1 and math.isclose(g1, 2.0 * g0, rel_tol=1e-9):
            if not 0.3 <= e1 / e0 <= 0.7:
                problems.append(f"gain {g0:g} -> {g1:g}: error ratio {e1 / e0:.3f}")
    return problems


def heading_endpoint(x0, segments) -> np.ndarray:
    return np.asarray(x0, dtype=float) + sum(
        (d * np.array([math.sin(v[0]), math.cos(v[0])]) for d, v in segments), np.zeros(2)
    )


def steer_hits(x0, target, segments, tol: float, success: bool) -> list[str]:
    if not success:
        return ["steering reported failure"]
    miss = float(np.linalg.norm(heading_endpoint(x0, segments) - np.asarray(target)))
    if miss > tol + 1e-9:
        return [f"closed-form endpoint misses the target by {miss:.4g} > {tol}"]
    return []


# --- symbolic ----------------------------------------------------------------


def kalman_matrix_rank(a, b) -> int:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).reshape(a.shape[0], -1)
    blocks = [b]
    for _ in range(a.shape[0] - 1):
        blocks.append(a @ blocks[-1])
    return int(np.linalg.matrix_rank(np.hstack(blocks)))


def rank_matches(reported: int, a, b) -> list[str]:
    want = kalman_matrix_rank(a, b)
    if reported != want:
        return [f"reported rank {reported}, numpy rank of [B, AB, ...] is {want}"]
    return []


_EQUATION = re.compile(r"^d(\w+) = (.*)$")
_NAME = re.compile(r"[A-Za-z_]\w*")


def _declared(text: str, keyword: str) -> list[str]:
    for line in text.splitlines():
        if line.startswith(keyword + " "):
            return line.split()[1:]
    return []


def extension_affine(text: str, n: int, m: int) -> list[str]:
    """An integrator extension appends m states whose equations are the m
    new inputs, bare, and no other equation names a new input; the
    extended system is then affine with constant unit channels."""
    states, inputs = _declared(text, "states"), _declared(text, "inputs")
    if len(states) != n + m or len(inputs) != m:
        return [f"extension has {len(states)} states and {len(inputs)} inputs, expected {n + m} and {m}"]
    problems = []
    equations = [_EQUATION.match(line) for line in text.splitlines() if line.startswith("d")]
    if [e.group(1) if e else None for e in equations] != states:
        return ["equations do not follow the states"]
    for k, match in enumerate(equations):
        rhs = match.group(2)
        if k >= n:
            if rhs.strip() != inputs[k - n]:
                problems.append(f"appended state {states[k]} has rhs {rhs!r}")
        elif set(_NAME.findall(rhs)) & set(inputs):
            problems.append(f"d{states[k]} uses a new input: {rhs!r}")
    return problems


def heading_core(text: str) -> list[str]:
    """A chain on the heading reduces to dx1 = sin(w), dx2 = cos(w)."""
    states, inputs = _declared(text, "states"), _declared(text, "inputs")
    if len(states) != 2 or len(inputs) != 1:
        return [f"core has states {states} and inputs {inputs}"]
    w = inputs[0]
    want = [f"d{states[0]} = sin({w})", f"d{states[1]} = cos({w})"]
    got = [line for line in text.splitlines() if line.startswith("d")]
    return [] if got == want else [f"core equations {got}, expected {want}"]


def same_bytes(first: str, second: str) -> list[str]:
    """Reruns and round trips must reproduce their output byte for byte."""
    return [] if first == second else ["the output differs from the first one"]


def larc_report(report: dict, n: int, depth: int, code: int) -> list[str]:
    problems = []
    if report.get("method") != "larc" or report.get("depth") != depth:
        problems.append(f"report method {report.get('method')!r}, depth {report.get('depth')}")
    rank = report.get("rank", -1)
    if not 0 <= rank <= n:
        problems.append(f"rank {rank} outside [0, {n}]")
    if report.get("full_rank") != (rank == n):
        problems.append(f"full_rank {report.get('full_rank')} with rank {rank} of {n}")
    if code != (0 if rank == n else 2):
        problems.append(f"exit code {code} with rank {rank} of {n}")
    if len(report.get("brackets", [])) < rank:
        problems.append("fewer brackets than the rank")
    return problems


def fd_bracket(fx, fy, point, h: float = FD_STEP) -> np.ndarray:
    """[X, Y] = (dY/dx) X - (dX/dx) Y by central differences."""
    p = np.asarray(point, dtype=float)
    x, y = fx(p), fy(p)
    jx = np.empty((len(p), len(p)))
    jy = np.empty_like(jx)
    for j in range(len(p)):
        e = np.zeros(len(p))
        e[j] = h
        jx[:, j] = (fx(p + e) - fx(p - e)) / (2 * h)
        jy[:, j] = (fy(p + e) - fy(p - e)) / (2 * h)
    return jy @ x - jx @ y


def bracket_matches(symbolic: np.ndarray, numeric: np.ndarray) -> list[str]:
    scale = max(1.0, float(np.max(np.abs(numeric))))
    err = float(np.max(np.abs(np.asarray(symbolic) - numeric))) / scale
    if err > FD_TOLERANCE:
        return [f"bracket differs from finite differences by {err:.3e}"]
    return []
