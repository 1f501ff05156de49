"""Numerical flows: piecewise-constant controls, fixed-step RK4
integration, and large-gain realization of jump/drift plans.

A jump of size sigma on channel i is realized by holding the control at
sign(sigma) * gain on that channel for |sigma| / gain time units; the
commanded integrator state moves by exactly sigma while the base states
drift by O(1/gain).  Plans compose jumps with positive-duration drifts,
and ideal_plan_endpoint gives the zero-cost limit the realizations
converge to as the gain grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dsl import ControlSystem
from .expr import Neg, compile_components
from .fields import VectorField
from .records import BAD_RECORD, csv_text, finite_floats, integer, point, read_json, require_positive, write_json
from .transform import ExtensionRecord

BLOWUP_LIMIT = 1e12
DEFAULT_STEP = 1e-3
ROW_BLOCK = 2048  # rows of one block of the gain sweep and of a sampler's draw
_FLOAT_ROWS = 16  # runs of at most this many rows step on Python floats, row by row
_MARK_BLOCK = 16384  # row-states, and 4 times as many entries, of a block of substeps: more spill out of cache


class BlowUpError(RuntimeError):
    """State left the finite regime during integration."""

    def __init__(self, time: float):
        self.time = time
        super().__init__(f"state blew up at t={time:.6g}")


@dataclass(frozen=True)
class PiecewiseControl:
    """Finitely many constant segments: ((duration, values), ...)."""

    segments: tuple[tuple[float, tuple[float, ...]], ...]

    def __post_init__(self):
        norm = []
        for duration, values in self.segments:
            duration = float(duration)
            require_positive(duration, "segment duration")
            norm.append((duration, tuple(finite_floats(values, "control values"))))
        object.__setattr__(self, "segments", tuple(norm))
        widths = {len(v) for _, v in norm}
        if len(widths) > 1:
            raise ValueError("all segments must have the same number of channels")

    @property
    def total_duration(self) -> float:
        return sum(d for d, _ in self.segments)

    def reversed(self) -> "PiecewiseControl":
        return PiecewiseControl(tuple(self.segments[::-1]))


def control_to_json(ctrl: PiecewiseControl) -> list:
    return [{"duration": d, "values": list(v)} for d, v in ctrl.segments]


def control_from_json(data) -> PiecewiseControl:
    if not isinstance(data, list):
        raise ValueError("control file must hold a JSON list of segments")
    segments = []
    for i, seg in enumerate(data):
        try:
            segments.append((float(seg["duration"]), tuple(float(v) for v in seg["values"])))
        except BAD_RECORD as exc:
            raise ValueError(f"segment {i} must have 'duration' and 'values': {exc}") from exc
    return PiecewiseControl(tuple(segments))


def plan_from_json(data) -> tuple[np.ndarray, FlowPlan]:
    """The start point and plan of a `realize --plan` file."""
    if not isinstance(data, dict) or "start" not in data or "segments" not in data:
        raise ValueError("plan must be a JSON object with 'start' and 'segments'")
    start = np.array(finite_floats(data["start"], "plan start"))
    if not isinstance(data["segments"], list):
        raise ValueError("plan segments must be a JSON list")
    segments = []
    for i, seg in enumerate(data["segments"]):
        kind = seg.get("kind") if isinstance(seg, dict) else None
        if kind not in ("jump", "drift"):
            raise ValueError(f"plan segment {i}: kind must be 'jump' or 'drift'")
        try:
            if kind == "jump":
                segments.append(Jump(integer(seg["channel"]), float(seg["displacement"])))
            else:
                segments.append(Drift(float(seg["duration"]), tuple(seg["values"])))
        except BAD_RECORD as exc:
            raise ValueError(f"plan segment {i}: {exc}") from exc
    return start, FlowPlan(tuple(segments))


def save_control(ctrl: PiecewiseControl, path: str):
    write_json(path, control_to_json(ctrl))


def load_control(path: str) -> PiecewiseControl:
    return control_from_json(read_json(path))


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.times.ndim != 1 or self.states.ndim != 2:
            raise ValueError("trajectory needs 1-d times and 2-d states")
        if len(self.times) != len(self.states):
            raise ValueError("times and states must align")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")

    @property
    def endpoint(self) -> np.ndarray:
        return self.states[-1]


def trajectory_to_csv(traj: Trajectory, state_names) -> str:
    if len(state_names) != traj.states.shape[1]:
        raise ValueError("one column name per state required")
    return csv_text(["t", *state_names], np.column_stack([traj.times, traj.states]))


def save_trajectory_csv(traj: Trajectory, state_names, path: str):
    with open(path, "w") as fh:
        fh.write(trajectory_to_csv(traj, state_names))


def rk4_step(f, x, u, h):
    """One classical step, written out: the reference that the generated
    `f.step` of `compile_components` matches bit for bit."""
    k1 = f(x, u)
    k2 = f(x + (h / 2.0) * k1, u)
    k3 = f(x + (h / 2.0) * k2, u)
    k4 = f(x + h * k3, u)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _schedule(durations, step):
    """ceil(d / step) substeps of h = d / nsub per segment, so each segment
    end is hit exactly; ValueError when a row needs 2^62 or more."""
    with np.errstate(over="ignore"):
        nsub = np.maximum(1.0, np.ceil(durations / step - 1e-12))
    if not np.all(nsub.sum(axis=-1) < 2.0**62):
        raise ValueError(f"step {step:g} makes more substeps than can be counted")
    return nsub.astype(np.int64), durations / nsub


def _step_times(durations, step, k=None):
    """Time after step k of one row's schedule, by default of every step
    from 0 on, and O(segments) memory besides: its segment's start plus
    whole substeps, and at a segment end the running sum of durations."""
    nsub, hs = _schedule(durations, step)
    ends = np.append(0, np.cumsum(nsub))
    starts = np.append(0.0, np.cumsum(durations))  # added in order, as `t += d` adds
    k = np.arange(ends[-1] + 1) if k is None else k
    j = np.searchsorted(ends, k, side="right") - 1  # ends[j] <= k < ends[j + 1]
    return starts[j] + (k - ends[j]) * np.append(hs, 0.0)[j]


def _turns(nsub):
    """The turns of the substep counts `nsub` (rows, segments): after step
    stops[i], rows row[upto[i - 1]:upto[i]] take the table columns
    src[upto[i - 1]:upto[i]] of (columns, segments * rows); row r ends
    after step last[r].  One stable sort of the segment ends in their
    narrowest type (radix up to 16 bits), and no array past rows * segments."""
    rows, segs = nsub.shape
    ends = np.cumsum(nsub.T, axis=0)
    ends = ends.astype(np.min_scalar_type(int(ends[-1].max(initial=0))))
    order = np.argsort(ends, axis=None, kind="stable")
    stop = ends.ravel()[order]
    turn = order < (segs - 1) * rows  # a turn goes to its row of the next segment, `rows` columns on
    src = (order[turn] + rows).astype(np.min_scalar_type(segs * rows))
    edge = np.ones(len(stop), dtype=bool)  # the last end at each step
    np.not_equal(stop[1:], stop[:-1], out=edge[:-1])
    stops = stop[edge]
    # src % rows: numpy divides by a scalar faster than it takes a remainder
    return src - src // rows * rows, src, stops, np.searchsorted(stop[turn], stops, side="right"), ends[-1]


def rk4_rows(f, x, durations, values, step, visit=None):
    """The one RK4 loop: steps each row of `x` (rows, n) through its own
    segments, `durations` (rows, segments) with inputs `values` (rows,
    segments, m), on its `_schedule`, with `f.step` of a compiled rhs
    taken in its two parts: `f.table` once for every segment of every row,
    then `f.advance` with each row's entry per substep.  A run of at most
    `_FLOAT_ROWS` rows, where numpy's calls on a few elements would cost
    more than the arithmetic, steps each row in turn through `f.floats`,
    the advance's operations on Python floats, with the same bits (see
    `_float_span`).  On spans of hundreds of substeps between turns the
    two paths cost alike at about 20 rows; where rows turn every substep
    or two, numpy's path is the cheaper one from about 4 to 12 rows.  The
    states are held as columns in a block of substeps, (n, steps, rows),
    each state of a substep one contiguous row; the table as (columns,
    segments, rows), the entries in use as (columns, rows);
    the rows that turn at a stop of `_turns` gather their next entries as
    one slice.  Rows never depend on each other.  After each block from
    global step k on, visit(k, xs), unless None, sees the states after
    steps k, k + 1, ... as xs (n, steps, rows), valid until it returns.  A
    row that leaves the finite regime at step k, its blow-up step, is
    zeroed from there on and stepped no more.  Visits end at the last step
    of the longest row, a blow-up step included, and the run computes at
    most the rest of that step's block; on the float path a row is tested
    at each substep and takes no step past its blow-up step.  Returns the
    final states (rows, n) and each row's blow-up step or -1."""
    bad_at = np.full(len(x), -1)
    if not durations.size:
        return x, bad_at
    nsub, hs = _schedule(durations, step)
    flat = f.table(values.T, hs.T).reshape(-1, durations.size)
    del hs
    # segment 0's entries: no turn reads them again, so they are the ones in use
    c = flat[:, :len(x)]
    row, src, stops, upto, last = _turns(nsub)
    del nsub
    ends, end = set(last.tolist()), int(stops[-1])
    (rows, n), x = x.shape, x.T.copy()
    # at least 2 substeps a block, unless the run has 1, so no substep writes the states it reads
    steps = min(max(2, 4 * _MARK_BLOCK // (max(n, 4) * rows)), end)
    held = np.empty((n, steps, rows))
    act, every, k, k0, lo = bad_at < 0, True, 0, 0, 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # a row's table entry changes only when it turns at a stop, and the
        # active rows only where some row's schedule ends or a row blows up
        for stop, hi in zip(stops.tolist(), upto.tolist()):
            while k < stop:
                span = held[:, k - k0:min(stop, k0 + steps, end) - k0]
                if rows > _FLOAT_ROWS:
                    for j in range(span.shape[1]):
                        xn = f.advance(x, c, out=span[:, j])
                        if not every:  # rows that no longer step keep their states
                            np.copyto(xn, x, where=~act)
                        x = xn
                else:
                    x = _float_span(f, x, c, span, act)
                k += span.shape[1]
                if k < min(k0 + steps, end):
                    continue
                block = held[:, :k - k0]
                # NaN fails the comparisons too: one test of the block for NaN,
                # inf and overflow, and its rows are looked at only when it fails
                if not (-BLOWUP_LIMIT <= block.min() and block.max() <= BLOWUP_LIMIT):
                    ok = (np.abs(block) <= BLOWUP_LIMIT).all(axis=0)
                    first, bad = ok.argmin(axis=0), ~ok.all(axis=0)
                    bad_at[bad] = k0 + first[bad]
                    block[:, bad & (np.arange(k - k0)[:, None] >= first)] = 0.0
                    act &= ~bad
                    every = False
                    end = int(np.where(bad_at < 0, last, bad_at + 1).max())
                if visit is not None:
                    visit(k0, block[:, :end - k0])
                if k >= end:
                    return held[:, end - k0 - 1].T.copy(), bad_at
                k0 = k
            if k in ends:
                act &= k < last
                every = act.all()
            c[:, row[lo:hi]] = flat[:, src[lo:hi]]
            lo = hi


def _float_span(f, x, c, span, act):
    """Fill `span` (n, steps, rows), the next substeps of a block, from the
    states `x` (n, rows) and entries `c` (columns, rows), and return its
    last states: each row of `act` through f.floats, and from where Python
    raises on an operation that gives numpy inf or NaN, as a division by
    zero or sin(inf) does, through f.scalars on np.float64 from the row's
    last substep on.  A row that blows up stops at its blow-up step and
    leaves `act`; the other rows keep their states.  All rows' states are
    written to `span` at once."""
    n, steps, rows = span.shape
    xs, cs, s = x.T.tolist(), c.T.tolist(), []
    for r, on in enumerate(act.tolist()):
        mark = len(s)
        if on:
            try:
                act[r] = f.floats(xs[r], cs[r], steps, BLOWUP_LIMIT, s)
            except (ArithmeticError, ValueError):
                done = (len(s) - mark) // n
                act[r] = f.scalars(np.array(s[len(s) - n:] if done else xs[r]), c[:, r], steps - done, BLOWUP_LIMIT, s)
        # the rest of the span repeats the row's last states: kept states,
        # or ones that the block test zeroes
        done = (len(s) - mark) // n
        if done < steps:
            s += (s[len(s) - n:] if done else xs[r]) * (steps - done)
    span[:] = np.reshape(s, (rows, steps, n)).T
    return span[:, -1]


def _run_rows(f, x0, durations, values, step, states=None) -> np.ndarray:
    """`rk4_rows` endpoints of the rows of `x0` (rows, n); once all have
    run, the lowest row that blew up raises BlowUpError at its own time.
    Row k + 1 of `states` gets the state of a one-row run after step k."""

    def visit(k, xs):
        states[k + 1:k + 1 + xs.shape[1]] = xs[..., 0].T

    x, bad_at = rk4_rows(f, x0, durations, values, step, None if states is None else visit)
    dead = np.flatnonzero(bad_at >= 0)
    if dead.size:
        raise BlowUpError(float(_step_times(durations[dead[0]], step, bad_at[dead[0]] + 1)))
    return x


def integrate(sys: ControlSystem, x0, ctrl: PiecewiseControl, step: float = DEFAULT_STEP) -> Trajectory:
    """Fixed-step RK4 through every control segment.  Substeps never
    exceed `step` and each segment boundary is hit exactly."""
    require_positive(step, "step")
    x = point(x0, sys.n, "x0")
    # every segment of a PiecewiseControl has the same number of channels
    if ctrl.segments and len(ctrl.segments[0][1]) != sys.m:
        raise ValueError(f"control has {len(ctrl.segments[0][1])} channels, system expects {sys.m}")
    f = compile_components(sys.rhs, sys.n, sys.m)
    durations = np.array([d for d, _ in ctrl.segments], dtype=float)
    values = np.array([v for _, v in ctrl.segments], dtype=float).reshape(len(durations), sys.m)
    times = _step_times(durations, step)
    states = np.repeat(x[None], len(times), axis=0)
    _run_rows(f, x[None], durations[None], values[None], step, states)
    return Trajectory(times, states)


def flow_endpoint(vf: VectorField, x0, t: float, step: float = DEFAULT_STEP) -> np.ndarray:
    """Endpoint of the autonomous flow for a signed time; negative t flows
    the negated field."""
    require_positive(step, "step")
    x = point(x0, vf.n, "x0")
    if not math.isfinite(t):
        raise ValueError(f"flow time t must be finite, got {t}")
    if t == 0.0:
        return x
    comps = vf.components if t > 0 else tuple(Neg(c) for c in vf.components)
    f = compile_components(comps, vf.n, 0)
    return _run_rows(f, x[None], np.array([[abs(t)]]), np.zeros((1, 1, 0)), step)[0]


# --- plans and realization -------------------------------------------------

@dataclass(frozen=True)
class Drift:
    """Flow for `duration` along the system field at the integrator level,
    which `u_frozen` declares."""

    duration: float
    u_frozen: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "u_frozen", tuple(float(v) for v in self.u_frozen))
        require_positive(self.duration, "drift duration")


@dataclass(frozen=True)
class Jump:
    """Instantaneous shift of one integrator channel; either sign."""

    channel: int
    displacement: float

    def __post_init__(self):
        if self.channel < 0:
            raise ValueError("channel must be nonnegative")
        if not math.isfinite(self.displacement):
            raise ValueError("displacement must be finite")


@dataclass(frozen=True)
class FlowPlan:
    segments: tuple


def realize_jump(ext: ExtensionRecord, channel: int, displacement: float, gain: float) -> PiecewiseControl:
    """One saturated segment moving integrator `channel` by exactly
    `displacement` in |displacement|/gain time."""
    m = ext.extended.m
    if not (0 <= channel < m):
        raise ValueError(f"channel {channel} out of range for {m} inputs")
    require_positive(gain, "gain")
    if displacement == 0.0:
        return PiecewiseControl(())
    values = [0.0] * m
    values[channel] = math.copysign(gain, displacement)
    return PiecewiseControl(((abs(displacement) / gain, tuple(values)),))


def realize_conjugated_drift(
    ext: ExtensionRecord, beta, channels, sigma: float, gain: float
) -> PiecewiseControl:
    """Jump out along the reversed channel sequence, drift with zero
    control, jump back: the sandwiched drift runs at the displaced
    integrator level."""
    beta = [float(b) for b in beta]
    channels = [int(c) for c in channels]
    if len(beta) != len(channels):
        raise ValueError("beta and channels must have equal length")
    out = [Jump(ch, -b) for b, ch in zip(beta[::-1], channels[::-1])]
    back = [Jump(ch, b) for b, ch in zip(beta, channels)]
    return realize_plan(ext, FlowPlan((*out, Drift(sigma, (0.0,) * ext.original.m), *back)), gain)


def _walk(ext: ExtensionRecord, plan: FlowPlan):
    """The one checked walk over a plan: (index, segment) for each Jump on
    an input channel and each Drift with one value per input."""
    m = ext.original.m
    for i, seg in enumerate(plan.segments):
        if isinstance(seg, Jump):
            if seg.channel >= m:
                raise ValueError(f"plan segment {i}: channel {seg.channel} out of range for {m} inputs")
        elif isinstance(seg, Drift):
            if len(seg.u_frozen) != m:
                raise ValueError(f"plan segment {i}: drift freezes {len(seg.u_frozen)} inputs, extension has {m}")
        else:
            raise TypeError(f"not a plan segment: {seg!r}")
        yield i, seg


def realize_plan(ext: ExtensionRecord, plan: FlowPlan, gain: float) -> PiecewiseControl:
    """Concatenate jump realizations and drifts with zero rate input, which
    run at the integrator level.  Total duration is the drift time plus
    sum(|displacement|) / gain."""
    require_positive(gain, "gain")
    segments: list[tuple[float, tuple[float, ...]]] = []
    for _, seg in _walk(ext, plan):
        if isinstance(seg, Jump):
            segments.extend(realize_jump(ext, seg.channel, seg.displacement, gain).segments)
        else:  # its values are not read: a drift runs wherever the jumps left the integrators
            segments.append((seg.duration, (0.0,) * ext.extended.m))
    return PiecewiseControl(tuple(segments))


def realize_sweep(ext: ExtensionRecord, plan: FlowPlan, start, gains, step: float = DEFAULT_STEP) -> np.ndarray:
    """One endpoint per gain: row i has the bytes of `integrate` of
    `realize_plan(ext, plan, gains[i])` from `start`, and no states are
    kept.  The gains run as rows of `rk4_rows`, ROW_BLOCK at a time; a
    BlowUpError names the first gain, in order, that blows up, at its own
    time, once the other gains of its block have run to their ends."""
    require_positive(step, "step")
    sys_ = ext.extended
    p = point(start, sys_.n, "extended point")
    f = compile_components(sys_.rhs, sys_.n, sys_.m)
    ends = np.empty((len(gains), sys_.n))
    for lo in range(0, len(gains), ROW_BLOCK):
        # a zero jump gives no segment at any gain, so all rows have as many
        rows = [realize_plan(ext, plan, g).segments for g in gains[lo:lo + ROW_BLOCK]]
        durations = np.array([[d for d, _ in segs] for segs in rows], dtype=float)
        values = np.array([[v for _, v in segs] for segs in rows], dtype=float).reshape(*durations.shape, sys_.m)
        ends[lo:lo + len(rows)] = _run_rows(f, np.tile(p, (len(rows), 1)), durations, values, step)
    return ends


def ideal_plan_endpoint(ext: ExtensionRecord, plan: FlowPlan, p0, step: float = DEFAULT_STEP) -> np.ndarray:
    """Exact-composition endpoint: jumps shift the integrator block
    instantly, drifts flow the base block at the integrator level `y`.  A
    drift's declared values must match `y` to 1e-9 * max(1, |y|), the
    rounding that a sum of displacements can leave."""
    require_positive(step, "step")
    n, m = ext.original.n, ext.original.m
    p = point(p0, n + m, "extended point")
    f = compile_components(ext.original.rhs, n, m)
    for i, seg in _walk(ext, plan):
        y = p[n:]
        if isinstance(seg, Jump):
            y[seg.channel] += seg.displacement
            continue
        # NaN fails the comparison too
        if not np.all(np.abs(np.array(seg.u_frozen) - y) <= 1e-9 * np.maximum(1.0, np.abs(y))):
            raise ValueError(f"plan segment {i}: drift values {list(seg.u_frozen)} are not the integrator level {y.tolist()}")
        p[:n] = _run_rows(f, p[None, :n], np.array([[seg.duration]]), y[None, None], step)[0]
    return p


def time_reversal(sys: ControlSystem) -> ControlSystem:
    """Negate every equation.  Applying it twice restores the original
    tree exactly (an outer negation is peeled, not re-wrapped)."""
    rhs = tuple(e.arg if isinstance(e, Neg) else Neg(e) for e in sys.rhs)
    name = sys.name[:-4] if sys.name.endswith("_rev") else sys.name + "_rev"
    return ControlSystem(name, sys.states, sys.inputs, rhs)
