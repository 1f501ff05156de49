"""Monte-Carlo reachability estimates on a fixed window grid.

Trajectories under random piecewise-constant controls are integrated in
vectorized batches; every substep point marks the grid cell it lands in.
Control draws use one RNG sub-stream per trajectory index, so results are
independent of batch and chunk layout, and bit-identical for a given
seed.  Row i draws the bits of `np.random.default_rng([seed, i])`
(`streams`): a block of rows is drawn as whole PCG64 arrays, and a row
with an exponential off the fast path of numpy's ziggurat draws again
through a per-row Generator.  Bitmap merges are plain ORs, hence
order-insensitive.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .dsl import ControlSystem
from .expr import compile_components, ipow
from .flows import ROW_BLOCK, PiecewiseControl, Trajectory, rk4_rows
from .records import csv_text, integer, point, require_positive
from .streams import draw_rows
from .transform import ExtensionRecord, extend

CONSISTENCY_THRESHOLD = 0.05
DEFAULT_RATE_BOUND = 10.0
MAX_CELLS = 2 ** 24
MAX_WORK = 2 ** 30  # row-substeps of one sampler run
_CHUNK = 2 * ROW_BLOCK
_REFINE_BATCH = 64


def _as_box(box) -> tuple[tuple[float, float], ...]:
    out = []
    for pair in box:
        lo, hi = float(pair[0]), float(pair[1])
        # hi - lo is inf or NaN where lo or hi is, or where the width overflows
        if not (lo < hi and math.isfinite(hi - lo)):
            raise ValueError(f"box axis must satisfy lo < hi with a finite width hi - lo, got ({lo}, {hi})")
        out.append((lo, hi))
    return tuple(out)


def _cast(name: str, cast, value):
    """cast(value); a failed cast names `name` in its message."""
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise type(exc)(f"{name}: {exc}") from None


@dataclass(frozen=True)
class ReachConfig:
    horizon: float
    segments: int
    input_box: tuple[tuple[float, float], ...]
    samples: int
    window: tuple[tuple[float, float], ...]
    resolution: tuple[int, ...]
    seed: int
    step: float = 1e-2

    def __post_init__(self):
        casts = (("horizon", float), ("segments", integer), ("samples", integer), ("seed", integer), ("step", float))
        for name, cast in casts:
            object.__setattr__(self, name, _cast(name, cast, getattr(self, name)))
        require_positive(self.horizon, "horizon")
        if self.segments < 1:
            raise ValueError("need at least one control segment")
        if self.samples < 1:
            raise ValueError("need at least one sample")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        require_positive(self.step, "step")
        object.__setattr__(self, "input_box", _as_box(self.input_box))
        object.__setattr__(self, "window", _as_box(self.window))
        res = self.resolution
        if isinstance(res, int):
            res = tuple(res for _ in self.window)
        res = _cast("resolution", lambda rs: tuple(integer(r) for r in rs), res)
        if len(res) != len(self.window):
            raise ValueError("one resolution per window axis required")
        if any(r < 2 for r in res):
            raise ValueError("resolution must be at least 2 per axis")
        object.__setattr__(self, "resolution", res)


@dataclass
class ReachEstimate:
    window: tuple[tuple[float, float], ...]
    resolution: tuple[int, ...]
    bitmap: np.ndarray
    coverage: float
    samples: int
    retained: int
    dropped: int


def estimate_summary(est: ReachEstimate) -> dict:
    return {"coverage": est.coverage, "samples": est.samples, "dropped": est.dropped}


def cells_to_csv(est: ReachEstimate, names) -> str:
    """Centers of visited cells, row per cell in grid order."""
    if len(names) != len(est.resolution):
        raise ValueError("one column name per grid axis required")
    lows = np.array([w[0] for w in est.window])
    highs = np.array([w[1] for w in est.window])
    res = np.array(est.resolution, dtype=float)
    widths = (highs - lows) / res
    return csv_text(names, lows + (np.argwhere(est.bitmap) + 0.5) * widths)


class _Grid:
    """Half-open uniform grid over the leading state axes, with a visited bitmap."""

    def __init__(self, window, resolution):
        self.window = _as_box(window)
        self.resolution = tuple(int(r) for r in resolution)
        self.axes = tuple((hi - lo, r) for (lo, hi), r in zip(self.window, self.resolution))
        cells = math.prod(self.resolution)  # Python ints: no int64 wrap
        if cells > MAX_CELLS:
            raise ValueError(f"grid has {cells} cells, more than the {MAX_CELLS} allowed")
        self.bitmap = np.zeros(cells, dtype=bool)

    def flat_index(self, x: np.ndarray) -> np.ndarray:
        """Row-major flat cell index of each column of `x` (axes, points),
        the states on the grid's axes; the spare cell `bitmap.size` outside.
        Axis by axis, x - lo is scaled in one buffer to t = ((x - lo) /
        (hi - lo)) * r, so `x` is left as it is.  For an integer r, w < 1
        exactly when fl(w * r) < r, so a point is inside when 0 <= t < r on
        every axis, which NaN fails, in cell int(t).  Outside, what NaN or
        inf cast to is multiplied by 0."""
        flat, cell = np.zeros(x.shape[1], dtype=np.int32), np.empty(x.shape[1], dtype=np.int32)
        ok, test, w = np.ones(x.shape[1], dtype=bool), np.empty(x.shape[1], dtype=bool), np.empty(x.shape[1])
        with np.errstate(invalid="ignore"):
            for xa, (lo, _), (span, r) in zip(x, self.window, self.axes):
                np.multiply(np.divide(np.subtract(xa, lo, out=w), span, out=w), float(r), out=w)
                ok &= np.greater_equal(w, 0.0, out=test)
                ok &= np.less(w, float(r), out=test)
                np.copyto(cell, w, casting="unsafe")
                flat *= r  # MAX_CELLS < 2^31: an inside index fits int32
                flat += cell
        flat -= self.bitmap.size
        return np.add(np.multiply(flat, ok, out=flat), self.bitmap.size, out=flat)

    def commit(self, marks: np.ndarray):
        self.bitmap |= marks

    @property
    def coverage(self) -> float:
        return float(self.bitmap.sum()) / self.bitmap.size

    def shaped_bitmap(self) -> np.ndarray:
        return self.bitmap.reshape(self.resolution)


def _draw_controls(seed: int, count: int, segments: int, horizon: float, box, first: int = 0):
    """Per-trajectory sub-streams: sample i depends only on (seed, i).
    Row i draws what `np.random.default_rng([seed, i])` draws, for i from
    `first` on (`streams.draw_rows`); i < first + count <= samples <=
    MAX_WORK < 2^32, one entropy word."""
    box = np.array(box, dtype=float).reshape(-1, 2)
    lows, spans = box[:, 0], box[:, 1] - box[:, 0]
    gam, raw = np.empty((count, segments)), np.empty((count, segments * len(box)))
    for lo in range(0, count, ROW_BLOCK):  # a chunk's draw needs the temporaries of ROW_BLOCK rows only
        block = slice(lo, lo + ROW_BLOCK)
        gam[block], raw[block] = draw_rows(seed, first + lo, len(gam[block]), segments, raw.shape[1])
    # rng.dirichlet(ones) draws these same exponentials and scales them by
    # the reciprocal of their sum taken in order, as sum() adds the columns;
    # np.sum pairs terms once there are 8 or more.  Both draws are scaled
    # in place, so a chunk holds no second copy of them
    gam *= (1.0 / sum(gam.T))[:, None]
    gam *= horizon
    raw *= np.tile(spans, segments)
    raw += np.tile(lows, segments)
    return gam, raw.reshape(count, segments, len(box))


def _check_run(cfg: ReachConfig, m: int):
    """A run of `cfg` on a system with `m` inputs needs one box axis per
    input, and its row-substeps must fit MAX_WORK (Python floats: horizon
    / step may be inf).  A run checks them before its first draw."""
    if len(cfg.input_box) != m:
        raise ValueError(f"box has {len(cfg.input_box)} axes; input and rate axes need one per input, {m} here")
    work = cfg.samples * (cfg.segments + cfg.horizon / cfg.step)
    if work > MAX_WORK:
        raise ValueError(f"samples * (segments + horizon / step) is {work:.3g} row-substeps, more than {MAX_WORK}")


def _chunks(cfg: ReachConfig, count: int):
    """The controls (durations, values) of rows 0 ... count - 1 of a run of
    `cfg`, _CHUNK rows at a time, each chunk drawn only when it is asked for."""
    for first in range(0, count, _CHUNK):
        yield _draw_controls(cfg.seed, min(_CHUNK, count - first), cfg.segments, cfg.horizon, cfg.input_box, first)


def _run_chunk(f, x0, durations, values, step: float, grid):
    """Integrate the rows of `durations` and `values`, any number of them,
    zero included, marking `grid`; returns (endpoints, dropped).  Each block
    of substeps that `rk4_rows` visits is marked into a chunk-local bitmap
    by one `flat_index` call, so memory does not grow with the steps.  A
    chunk with a dead row is marked to its end, then its marks are thrown
    away and the surviving rows alone run again: they take the same steps
    and cannot drop, so a dropped row marks none."""
    rows, axes = durations.shape[0], len(grid.axes)
    # one spare cell past the grid takes the points outside it
    marks = np.zeros(grid.bitmap.size + 1, dtype=bool)

    def mark(k, xs):  # one row per grid axis, a view of the block, so that `flat_index` reads each axis contiguously
        marks[grid.flat_index(xs[:axes].reshape(axes, -1))] = True

    # every row marks: a finished row stays in a cell it has marked
    x, bad_at = rk4_rows(f, np.broadcast_to(x0, (rows, len(x0))), durations, values, step, mark)
    dead = bad_at >= 0
    if not dead.any():
        if rows:
            mark(None, x0[:, None])  # the start, which no visit sees
        grid.commit(marks[:-1])
    elif not dead.all():
        _run_chunk(f, x0, durations[~dead], values[~dead], step, grid)
    return x, dead


def _cover(sys: ControlSystem, x0, cfg: ReachConfig, runs: ReachConfig, keep=None) -> ReachEstimate:
    """The one sampler run behind every estimate: `sys` from `x0` under the
    rows of `runs`, each chunk drawn just before it runs, marking the window
    grid of `cfg` over the leading state axes.  Rows that `keep(durations,
    values)` refuses are neither retained nor dropped.  The grid is built
    first, so one past the cell limit fails before anything is drawn."""
    grid = _Grid(cfg.window, cfg.resolution)
    _check_run(runs, sys.m)
    f = compile_components(sys.rhs, sys.n, sys.m)
    ran = dropped = 0
    for durations, values in _chunks(runs, runs.samples):
        kept = slice(None) if keep is None else keep(durations, values)
        durations, values = durations[kept], values[kept]  # the whole draw is not held through the run
        dead = _run_chunk(f, x0, durations, values, runs.step, grid)[1]
        ran += len(dead)
        dropped += int(dead.sum())
        del durations, values, kept  # the next chunk is drawn without this one
    return ReachEstimate(
        window=cfg.window, resolution=cfg.resolution, bitmap=grid.shaped_bitmap(), coverage=grid.coverage,
        samples=cfg.samples, retained=ran - dropped, dropped=dropped,
    )


def sample_reach(sys: ControlSystem, x0, cfg: ReachConfig) -> ReachEstimate:
    """Coverage of the window grid by random piecewise-constant controls.
    Deterministic for a given config: same seed, same bitmap."""
    x0 = point(x0, sys.n, "x0")
    if len(cfg.window) != sys.n:
        raise ValueError(f"window needs {sys.n} axes")
    return _cover(sys, x0, cfg, cfg)


def project_x(traj: Trajectory, record: ExtensionRecord) -> Trajectory:
    """Drop the integrator block from an extended trajectory."""
    n_ext = record.extended.n
    if traj.states.shape[1] != n_ext:
        raise ValueError(
            f"trajectory has {traj.states.shape[1]} columns, extension has {n_ext} states"
        )
    return Trajectory(traj.times.copy(), traj.states[:, : record.original.n].copy())


@dataclass
class CompareReport:
    coverage_original: float
    coverage_extended_projected: float
    difference: float
    cell_agreement: float
    threshold: float
    consistent: bool
    samples_original: int
    samples_extended: int
    dropped_original: int
    dropped_extended: int

    @property
    def verdict(self) -> str:
        return "consistent" if self.consistent else "inconsistent"

    def to_json(self) -> dict:
        return {"verdict": self.verdict, **asdict(self)}


def coverage_compare(sys: ControlSystem, x0, cfg: ReachConfig, cfg_ext: ReachConfig) -> CompareReport:
    """Reachable-window coverage of a system against the projection of
    its integrator extension, on the same grid.  The extension starts
    with the integrator block at zero; its integrator axes are not gridded."""
    record = extend(sys)
    n, m = sys.n, sys.m
    if cfg_ext.window[:n] != cfg.window or cfg_ext.resolution[:n] != cfg.resolution:
        raise ValueError("extended window must extend the original window axes unchanged")
    if len(cfg_ext.window) != n + m:
        raise ValueError(f"extended window needs {n + m} axes")
    if cfg_ext.horizon != cfg.horizon:
        raise ValueError("compare runs need a common horizon")
    _check_run(cfg_ext, m)  # the second run's config fails before the first run

    est = sample_reach(sys, x0, cfg)
    x0e = np.concatenate([point(x0, n, "x0"), np.zeros(m)])
    proj = _cover(record.extended, x0e, cfg, cfg_ext)
    difference = abs(est.coverage - proj.coverage)
    return CompareReport(
        coverage_original=est.coverage,
        coverage_extended_projected=proj.coverage,
        difference=difference,
        cell_agreement=float(np.mean(est.bitmap == proj.bitmap)),
        threshold=CONSISTENCY_THRESHOLD,
        consistent=difference < CONSISTENCY_THRESHOLD,
        samples_original=cfg.samples,
        samples_extended=cfg_ext.samples,
        dropped_original=est.dropped,
        dropped_extended=proj.dropped,
    )


@dataclass
class BoundedReachReport:
    original: ReachEstimate
    extended_projected: ReachEstimate
    rejected: int


def bounded_reach_check(
    sys: ControlSystem, x0, bound_box, cfg: ReachConfig, rate_box=None
) -> BoundedReachReport:
    """Coverage with inputs confined to a compact box, on the system and
    on its extension with the integrator block confined to the same box.
    Extension controls whose integrator path would leave the box are
    rejected up front (the path is piecewise linear, so checking segment
    endpoints suffices)."""
    record = extend(sys)
    bounded = replace(cfg, input_box=bound_box)
    if rate_box is None:
        rate_box = tuple((-DEFAULT_RATE_BOUND, DEFAULT_RATE_BOUND) for _ in range(sys.m))
    rates = replace(cfg, input_box=rate_box)
    _check_run(rates, sys.m)  # the extension's config fails before the first run
    est = sample_reach(sys, x0, bounded)

    lows, highs = np.array(bounded.input_box).T
    y0 = (lows + highs) / 2.0

    def inside(durations, values):
        y_path = y0 + np.cumsum(values * durations[:, :, None], axis=1)
        return ~((y_path < lows) | (y_path > highs)).any(axis=(1, 2))

    x0e = np.concatenate([point(x0, sys.n, "x0"), y0])
    proj = _cover(record.extended, x0e, cfg, rates, inside)
    return BoundedReachReport(original=est, extended_projected=proj, rejected=cfg.samples - proj.retained - proj.dropped)


@dataclass
class SteerResult:
    success: bool
    control: PiecewiseControl | None
    distance: float
    evaluations: int


def two_point_steer(sys: ControlSystem, x0, x1, cfg: ReachConfig, tol: float) -> SteerResult:
    """Randomized shooting toward a target point: best-of-N random
    controls, then rounds of shrinking perturbations of the best one, of
    its values in every row and of its durations in every other row.
    The total integration budget is cfg.samples."""
    n, m = sys.n, sys.m
    x0, x1 = point(x0, n, "x0"), point(x1, n, "x1")
    _check_run(cfg, m)  # the config is checked even when there is nothing to steer
    start_dist = float(np.linalg.norm(x1 - x0))
    if start_dist <= tol:
        return SteerResult(True, PiecewiseControl(()), start_dist, 0)

    f = compile_components(sys.rhs, n, m)
    budget = cfg.samples

    def shoot(durations, values):
        """The row whose endpoint lies nearest x1, and its distance; a dropped row is infinitely far."""
        ends, bad_at = rk4_rows(f, np.broadcast_to(x0, (len(durations), n)), durations, values, cfg.step)
        dists = np.linalg.norm(ends - x1, axis=1)
        dists[bad_at >= 0] = np.inf
        best = int(np.argmin(dists))
        return best, float(dists[best])

    evaluations = max(1, budget // 2)
    for i, (durations, values) in enumerate(_chunks(cfg, evaluations)):
        best, dist = shoot(durations, values)
        # strictly nearer, so a tie keeps the lowest row, as argmin does
        if i == 0 or dist < best_dist:
            best_dist, best_durs, best_vals = dist, durations[best].copy(), values[best].copy()
    lows, highs = np.array(cfg.input_box, dtype=float).reshape(-1, 2).T

    scale = 0.25
    round_id = 0
    while best_dist > tol and evaluations + _REFINE_BATCH <= budget:
        rng = np.random.default_rng([cfg.seed, 1 << 20, round_id])
        noise = rng.normal(0.0, 1.0, size=(_REFINE_BATCH, cfg.segments, m))
        cand = np.clip(best_vals[None] + noise * scale * (highs - lows), lows, highs)
        # the odd rows also scale the durations by (1 + scale * z / 64)^64, about
        # exp(scale * z) from products, which round alike on every numpy SIMD path
        # and libm where np.exp does not; summed in order, as the first shot's
        durs = np.tile(best_durs, (_REFINE_BATCH, 1))
        moved = durs[1::2]
        moved *= ipow(1.0 + scale / 64 * rng.normal(0.0, 1.0, size=moved.shape), 64)
        moved *= (1.0 / sum(moved.T))[:, None]
        moved *= cfg.horizon
        idx, dist = shoot(durs, cand)
        evaluations += _REFINE_BATCH
        round_id += 1
        if dist < best_dist:
            best_dist = dist
            best_durs, best_vals = durs[idx].copy(), cand[idx].copy()
        else:
            scale *= 0.6
    control = PiecewiseControl(
        tuple((float(d), tuple(float(v) for v in row)) for d, row in zip(best_durs, best_vals) if d > 0.0)
    )
    return SteerResult(best_dist <= tol, control, best_dist, evaluations)
