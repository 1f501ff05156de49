import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from conftest import HEADING_TEXT, per_substep

from ctrlkit import flows, reach, streams
from ctrlkit.cli import main
from ctrlkit.dsl import parse
from ctrlkit.expr import compile_components
from ctrlkit.flows import BlowUpError, PiecewiseControl, Trajectory, integrate, time_reversal
from ctrlkit.reach import (
    CONSISTENCY_THRESHOLD,
    BoundedReachReport,
    CompareReport,
    ReachConfig,
    ReachEstimate,
    bounded_reach_check,
    cells_to_csv,
    coverage_compare,
    estimate_summary,
    project_x,
    sample_reach,
    two_point_steer,
)
from ctrlkit.transform import extend

BOOM_TEXT = "system boom\nstates x1\ninputs u\ndx1 = x1^2 + u\n"
# from x1 = 0.5, inputs above 1/4 escape in finite time and those below
# settle, so some rows blow up, often after their first segment
BOOM_MIXED_CFG = ReachConfig(
    horizon=3.0, segments=3, input_box=((-1.5, 1.5),), samples=40,
    window=((-2.0, 6.0),), resolution=16, seed=1, step=1e-2,
)


def heading_cfg(**overrides):
    base = dict(
        horizon=1.0,
        segments=4,
        input_box=((-6.0, 6.0),),
        samples=500,
        window=((-2.0, 2.0), (-2.0, 2.0)),
        resolution=16,
        seed=5,
        step=1e-2,
    )
    base.update(overrides)
    return ReachConfig(**base)


# --- configuration ----------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        heading_cfg(horizon=0.0)
    with pytest.raises(ValueError):
        heading_cfg(segments=0)
    with pytest.raises(ValueError):
        heading_cfg(samples=0)
    with pytest.raises(ValueError):
        heading_cfg(seed=-1)
    with pytest.raises(ValueError):
        heading_cfg(step=0.0)
    with pytest.raises(ValueError):
        heading_cfg(input_box=((2.0, -2.0),))
    with pytest.raises(ValueError):
        heading_cfg(window=((0.0, 0.0), (-1.0, 1.0)))
    with pytest.raises(ValueError):
        heading_cfg(resolution=(16,))
    with pytest.raises(ValueError):
        heading_cfg(resolution=1)


@pytest.mark.parametrize("step", [float("nan"), float("inf")])
def test_config_rejects_non_finite_step(step):
    with pytest.raises(ValueError):
        heading_cfg(step=step)


@pytest.mark.parametrize("box", ["window", "input_box", "bound"])
def test_box_axis_whose_width_overflows_is_rejected(heading, box):
    """(-1e308, 1e308) has finite ends, but hi - lo is inf: as a window
    axis it put every point in that axis' cell 0, and as an input axis it
    drew inf and NaN controls."""
    wide = ((-1e308, 1e308),)
    with pytest.raises(ValueError, match="finite width"):
        if box == "window":
            sample_reach(heading, [0.0, 0.0], heading_cfg(window=wide + ((-2.0, 2.0),)))
        elif box == "input_box":
            sample_reach(heading, [0.0, 0.0], heading_cfg(input_box=wide))
        else:
            bounded_reach_check(heading, [0.0, 0.0], wide, heading_cfg(samples=10))


def test_config_broadcasts_scalar_resolution():
    cfg = heading_cfg(resolution=12)
    assert cfg.resolution == (12, 12)
    assert heading_cfg(resolution=(8, 10)).resolution == (8, 10)


# --- sampling ---------------------------------------------------------------

def test_sample_reach_is_deterministic(heading):
    a = sample_reach(heading, [0.0, 0.0], heading_cfg())
    b = sample_reach(heading, [0.0, 0.0], heading_cfg())
    assert np.array_equal(a.bitmap, b.bitmap)
    assert a.coverage == b.coverage
    assert a.retained == b.retained


def test_sample_prefix_grows_monotonically(heading):
    """Each trajectory draws from its own stream, so the first 500 of a
    1000-sample run are the 500-sample run verbatim, and so are the first
    3/4 _CHUNK of a run of 3/2 _CHUNK samples, which runs in two chunks."""
    part = 3 * reach._CHUNK // 4
    assert part < reach._CHUNK < 2 * part
    for samples in (500, part):
        small = sample_reach(heading, [0.0, 0.0], heading_cfg(samples=samples))
        large = sample_reach(heading, [0.0, 0.0], heading_cfg(samples=2 * samples))
        assert np.all(~small.bitmap | large.bitmap)
        assert large.bitmap.sum() >= small.bitmap.sum()


def test_coverage_grows_with_horizon(heading):
    short = sample_reach(heading, [0.0, 0.0], heading_cfg(horizon=0.8, samples=2000, resolution=20, seed=3, segments=5, input_box=((-8.0, 8.0),)))
    long = sample_reach(heading, [0.0, 0.0], heading_cfg(horizon=2.0, samples=2000, resolution=20, seed=3, segments=5, input_box=((-8.0, 8.0),)))
    assert long.coverage > short.coverage + 0.2


def test_unit_speed_reach_is_a_disk(heading):
    # speed is identically one, so time T reaches exactly the radius-T disk
    cfg = heading_cfg(horizon=1.5, segments=5, input_box=((-8.0, 8.0),), samples=4000, resolution=20, seed=11)
    est = sample_reach(heading, [0.0, 0.0], cfg)
    lows = np.array([-2.0, -2.0])
    width = 0.2
    for i in range(20):
        for j in range(20):
            center = lows + (np.array([i, j]) + 0.5) * width
            r = np.linalg.norm(center)
            if r <= 1.2:
                assert est.bitmap[i, j], f"inner cell {center} missed"
            if r >= 1.7:
                assert not est.bitmap[i, j], f"outer cell {center} hit"


def test_reversed_system_reaches_back(heading):
    """Duality: a point we can reach is a point whose reversed-time flow
    reaches us."""
    cfg = heading_cfg(horizon=1.5, segments=5, input_box=((-8.0, 8.0),), samples=4000, resolution=20, seed=11)
    rev = time_reversal(heading)
    origin_cell = (9, 9)  # floor((0 - (-2)) / 0.2) on both axes
    for src in ([1.0, 0.0], [0.0, -0.8], [-0.7, 0.7]):
        back = sample_reach(rev, src, cfg)
        assert back.bitmap[origin_cell]
    # too far away in either direction
    far = sample_reach(rev, [1.8, 1.8], cfg)
    assert not far.bitmap[origin_cell]


def test_frozen_dynamics_mark_one_cell():
    still = parse("system still\nstates x1 x2\ninputs u\ndx1 = 0\ndx2 = 0\n")
    est = sample_reach(still, [0.1, 0.1], heading_cfg(samples=50))
    assert est.bitmap.sum() == 1
    assert est.coverage == 1.0 / (16 * 16)
    assert est.dropped == 0
    assert est.retained == 50


def test_states_outside_window_leave_no_mark():
    runaway = parse("system run\nstates x1\ninputs u\ndx1 = 1\n")
    cfg = ReachConfig(
        horizon=1.0, segments=2, input_box=((-1.0, 1.0),), samples=20,
        window=((5.0, 6.0),), resolution=8, seed=0, step=1e-2,
    )
    est = sample_reach(runaway, [0.0], cfg)
    # trajectories run from 0 to 1, never entering [5, 6]
    assert est.bitmap.sum() == 0
    assert est.coverage == 0.0


def test_sample_reach_counts_blowups():
    boom = parse("system boom\nstates x1\ninputs u\ndx1 = x1^2 + u\n")
    cfg = ReachConfig(
        horizon=4.0, segments=2, input_box=((0.5, 1.5),), samples=40,
        window=((-2.0, 2.0),), resolution=8, seed=1, step=1e-2,
    )
    est = sample_reach(boom, [1.0], cfg)
    # x' >= x^2 + 1/2 from 1 escapes well before t = 4
    assert est.dropped == 40
    assert est.retained == 0
    assert est.bitmap.sum() == 0


@pytest.mark.parametrize("seed,segments,m", [(0, 3, 1), (7, 6, 2), (2026, 8, 1), (901, 12, 2)])
def test_draw_controls_match_per_row_dirichlet(seed, segments, m):
    """The batched normalisation reproduces rng.dirichlet bit for bit."""
    box = ((-2.0, 3.0), (0.5, 4.0))[:m]
    durations, values = reach._draw_controls(seed, 12, segments, 2.5, box)
    lows = np.array([b[0] for b in box])
    spans = np.array([b[1] - b[0] for b in box])
    for i in range(12):
        rng = np.random.default_rng([seed, i])
        assert np.array_equal(durations[i], rng.dirichlet(np.ones(segments)) * 2.5), f"row {i}"
        assert np.array_equal(values[i], lows + rng.random((segments, m)) * spans), f"row {i}"


@pytest.mark.parametrize("seed", [0, 1, 2**31 - 2, 2**32 - 1, 2**32, 2**64 + 5, 2**200 + 3])
@pytest.mark.parametrize("box, count", [(((0.0, 1.0),), 2049), (((0.0, 1.0), (-2.0, 3.0)), 4100)])
def test_draw_controls_equal_per_row_default_rng(seed, box, count):
    """Row i draws what default_rng([seed, i]) draws, exponentials first,
    across the 2048-row blocks and for seeds of one to seven 32-bit words."""
    segments, m = 5, len(box)
    gam = np.empty((count, segments))
    raw = np.empty((count, segments, m))
    for i in range(count):
        rng = np.random.default_rng([seed, i])
        gam[i] = rng.standard_exponential(segments)
        raw[i] = rng.random((segments, m))
    durations, values = reach._draw_controls(seed, count, segments, 2.5, box)
    assert np.array_equal(durations, gam * (1.0 / np.cumsum(gam, axis=1)[:, -1:]) * 2.5)
    assert np.array_equal(values[:, :, 0], raw[:, :, 0])  # lo 0 and span 1 leave raw as it is
    assert np.array_equal(values[:, :, 1:], -2.0 + raw[:, :, 1:] * 5.0)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**64 + 5])
@pytest.mark.parametrize("first", [1, 2047, 2048, 2**31 + 3])
def test_draw_controls_from_a_first_row_equal_per_row_default_rng(seed, first):
    """Rows first, first + 1, ... draw what default_rng([seed, first + i])
    draws, so a chunk drawn just before it runs has the bits that a draw of
    every row before it would give that chunk."""
    segments, box, count = 5, ((0.0, 1.0), (-2.0, 3.0)), 30
    gam = np.empty((count, segments))
    raw = np.empty((count, segments, 2))
    for i in range(count):
        rng = np.random.default_rng([seed, first + i])
        gam[i] = rng.standard_exponential(segments)
        raw[i] = rng.random((segments, 2))
    durations, values = reach._draw_controls(seed, count, segments, 2.5, box, first)
    assert np.array_equal(durations, gam * (1.0 / np.cumsum(gam, axis=1)[:, -1:]) * 2.5)
    assert np.array_equal(values[:, :, 0], raw[:, :, 0])
    assert np.array_equal(values[:, :, 1], -2.0 + raw[:, :, 1] * 5.0)
    if first < 4096:
        whole = reach._draw_controls(seed, first + count, segments, 2.5, box)
        assert np.array_equal(whole[0][first:], durations) and np.array_equal(whole[1][first:], values)


def test_draw_controls_mix_fast_rows_and_fallback_rows_in_one_block():
    """At 12 segments about a quarter of the rows draw an exponential off
    the fast path of numpy's ziggurat, which reads more than one word, and
    go through the per-row Generator: a 2048-row block that mixes both
    kinds draws what default_rng([seed, i]) draws."""
    seed, count, segments, box = 2026, 2048, 12, ((0.0, 1.0), (-2.0, 3.0))
    gam = np.empty((count, segments))
    raw = np.empty((count, segments, 2))
    slow = 0
    for i in range(count):
        rng = np.random.default_rng([seed, i])
        gam[i] = rng.standard_exponential(segments)
        slow += rng.bit_generator.state != np.random.PCG64([seed, i]).advance(segments).state
        raw[i] = rng.random((segments, 2))
    assert 300 < slow < 700
    durations, values = reach._draw_controls(seed, count, segments, 2.5, box)
    assert np.array_equal(durations, gam * (1.0 / np.cumsum(gam, axis=1)[:, -1:]) * 2.5)
    assert np.array_equal(values[:, :, 0], raw[:, :, 0])
    assert np.array_equal(values[:, :, 1], -2.0 + raw[:, :, 1] * 5.0)


def test_draw_controls_tables_give_every_layer_its_fast_path():
    """In every layer idx, a first word with ri = ke[idx] - 1 is the only
    word standard_exponential reads, and it returns ri * we[idx] exactly;
    one with ri = ke[idx] makes it read a second word.  Layer 1 alone has
    no fast path."""
    we, ke = streams.ziggurat()
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    inverse = pow(streams._PCG_MULT, -1, 1 << 128)

    def draw(ri, idx):
        """The exponential drawn from a state whose next word has ri and
        idx, and whether it read that word alone."""
        word = ri << 11 | idx << 3
        start = {"bit_generator": "PCG64", "state": {"state": (word - 1) * inverse % (1 << 128), "inc": 1},
                 "has_uint32": 0, "uinteger": 0}
        bits.state = start
        assert bits.random_raw() == word
        one_word = bits.state
        bits.state = start
        return gen.standard_exponential(), bits.state == one_word

    assert [idx for idx in range(256) if ke[idx] == 0] == [1]
    for idx in range(256):
        ri = int(ke[idx])
        if ri > 0:
            value, one_word = draw(ri - 1, idx)
            assert one_word and value == (ri - 1) * we[idx], f"layer {idx}"
        assert not draw(ri, idx)[1], f"layer {idx}"


def test_import_reads_no_ziggurat_table():
    """`import ctrlkit` makes no PCG64 and no Generator, so it cannot read
    the ziggurat tables; the first draw does make them."""
    code = """if True:
        import numpy as np
        made = []
        for name in ("PCG64", "Generator"):
            real = getattr(np.random, name)
            setattr(np.random, name, lambda *args, real=real: made.append(real) or real(*args))
        import ctrlkit
        from ctrlkit import reach
        assert not made, made
        reach._draw_controls(1, 3, 2, 1.0, ((0.0, 1.0),))
        assert made
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr[-2000:]


def _grid_arrays(grid):
    """The grid's window and resolution as lows, highs and res arrays."""
    lows, highs = np.array(grid.window).T
    return lows, highs, np.array(grid.resolution, dtype=np.int64)


def _whole_row_flat_index(grid, x):
    """The flat index over whole rows at once, with an int64 `@`."""
    lows, highs, res = _grid_arrays(grid)
    w = (x[:, :len(grid.window)] - lows) / (highs - lows)
    strides = np.array([math.prod(grid.resolution[a + 1:]) for a in range(len(grid.resolution))], dtype=np.int64)
    with np.errstate(invalid="ignore"):
        ok = np.all((w >= 0.0) & (w < 1.0), axis=1)
        cells = np.minimum((w * res).astype(np.int64), res - 1)
    return np.where(ok, cells @ strides, -1)


def _flat_index(grid, x):
    """`flat_index` of the states `x` (rows, n), held as the sampler holds
    them: one row per grid axis; the spare cell reads as -1."""
    flat = grid.flat_index(x[:, :len(grid.axes)].T.copy())
    return np.where(flat == grid.bitmap.size, -1, flat)


def test_a_float_below_one_scaled_by_r_stays_below_r():
    """For an integer r >= 1, w < 1 exactly when fl(w * r) < r, and w >= 0
    exactly when fl(w * r) >= 0, so `flat_index` tests the scaled t in
    place of w: checked for the 2000 floats below 1, 1 and the floats
    above it, and the subnormals and zeros about 0, at every r up to 5000
    and every power of two up to 2^24."""
    w = np.concatenate([1.0 - np.arange(1, 2001) * 2.0**-53, 1.0 + np.arange(100) * 2.0**-52,
                        np.arange(-50, 51) * 5e-324, [-0.0]])
    for r in sorted({*range(1, 5001), *(2**k for k in range(25))}):
        t = w * float(r)
        assert np.array_equal(t < r, w < 1.0), r
        assert np.array_equal(t >= 0.0, w >= 0.0), r


@pytest.mark.parametrize("window, resolution", [
    (((-2.0, 2.0), (0.0, 1.0)), (40, 40)),
    (((-2.0, 2.0), (-2.0, 2.0), (-5.0, 5.0)), (40, 40, 10)),
    (((0.0, 1.0), (-1.0, 3.0), (-0.5, 0.25), (-3.0, -1.0)), (16, 16, 16, 8)),
])
def test_flat_index_equals_the_whole_row_formula(window, resolution):
    grid = reach._Grid(window, resolution)
    d = len(window)
    lows, highs, _ = _grid_arrays(grid)
    rng = np.random.default_rng(11)
    inside = rng.uniform(lows, highs, size=(300, d))
    specials = []
    for a, (lo, hi) in enumerate(window):
        for v in (np.nan, np.inf, -np.inf, -0.0, lo, hi, np.nextafter(hi, -np.inf)):
            row = inside[len(specials)].copy()
            row[a] = v
            specials.append(row)
    corners = np.array([[lo for lo, _ in window], [np.nextafter(hi, -np.inf) for _, hi in window]])
    wide = rng.uniform(lows - 1.0, highs + 1.0, size=(300, d))
    x = np.vstack([inside, specials, corners, wide, -0.0 * np.ones((1, d))])
    x = np.hstack([x, rng.uniform(-1.0, 1.0, size=(len(x), 1))])  # a trailing axis the grid does not cover
    want = _whole_row_flat_index(grid, x)
    assert np.array_equal(_flat_index(grid, x), want)
    assert (want == -1).any() and (want >= 0).sum() > 300


def test_flat_index_of_a_whole_block_equals_the_whole_row_formula():
    """One call over a block of `_MARK_BLOCK` points and more, one row per
    axis as the sampler holds them, with NaN, inf, -0.0, hi and the float
    below hi spread across it, and a trailing axis the grid does not
    cover, as `compare` indexes an extension; a block's leading columns,
    as its last part-full index reads them, give their own indices."""
    window = ((-2.0, 2.0), (-1.0, 3.0), (-18.0, 18.0))
    grid = reach._Grid(window, (40, 40, 10))
    lows, highs, _ = _grid_arrays(grid)
    rng = np.random.default_rng(20)
    x = rng.uniform(lows - 0.5, highs + 0.5, size=(flows._MARK_BLOCK + 1000, 3))
    for a, (lo, hi) in enumerate(window):
        for v in (np.nan, np.inf, -np.inf, -0.0, lo, hi, np.nextafter(hi, lo)):
            x[rng.choice(len(x), 40, replace=False), a] = v
    x = np.hstack([x, rng.uniform(-1.0, 1.0, size=(len(x), 1))])
    want = _whole_row_flat_index(grid, x)
    assert np.array_equal(_flat_index(grid, x), want)
    block = np.empty((3, len(x) + 500))
    block[:, :len(x)] = x[:, :3].T
    assert np.array_equal(grid.flat_index(block[:, :len(x)]), np.where(want < 0, grid.bitmap.size, want))
    assert block[:, :len(x)].tobytes() == x[:, :3].T.tobytes()  # the states are left as they were
    assert (want == -1).sum() > 1000 and (want >= 0).sum() > flows._MARK_BLOCK // 2


def _marks_one_substep_at_a_time(f, x0, durations, values, step, grid):
    """The bitmap of every state that the rows which never drop visit, each
    substep's states indexed in a `flat_index` call of their own, and the
    number of visits of that run."""
    keep = flows.rk4_rows(f, np.tile(x0, (len(durations), 1)), durations, values, step)[1] < 0
    marks = np.zeros(grid.bitmap.size + 1, dtype=bool)
    visits = []

    def visit(k, x):
        marks[_flat_index(grid, x)] = True
        visits.append(k)

    x = np.tile(x0, (int(keep.sum()), 1))
    visit(None, x)
    flows.rk4_rows(f, x, durations[keep], values[keep], step, per_substep(visit))
    return marks[:-1], len(visits)


_LAYOUT_CASES = {
    # horizon 0.51 at step 1e-2 makes 52 to 54 visits, none a multiple of
    # the 8, 5 or 4 substeps of a block of 2048, 3000 or 4096 rows
    "heading": (parse(HEADING_TEXT), [0.0, 0.0], heading_cfg(
        horizon=0.51, segments=3, window=((-0.4, 0.4), (-0.2, 0.5)))),
    # a grid over the leading axes only, as `compare` builds on an extension
    "heading_ext": (extend(parse(HEADING_TEXT)).extended, [0.0, 0.0, 0.3], heading_cfg(
        horizon=0.51, segments=3, window=((-0.4, 0.4), (-0.2, 0.5)))),
    "boom": (parse(BOOM_TEXT), [0.5], BOOM_MIXED_CFG),
}


@pytest.mark.parametrize("rows", [1, 7, 3000, 2048, 4096, 0])
@pytest.mark.parametrize("case", sorted(_LAYOUT_CASES))
def test_block_marking_is_layout_free(case, rows):
    """`_run_chunk` indexes the states of several substeps in one call; its
    bitmap is the one that indexing every substep alone gives, however the
    chunk's rows divide the block, with a last block part full, and when a
    row drops and the survivors run again."""
    sys_, x0, cfg = _LAYOUT_CASES[case]
    f = compile_components(sys_.rhs, sys_.n, sys_.m)
    x0 = np.array(x0)
    durations, values = reach._draw_controls(cfg.seed, rows, cfg.segments, cfg.horizon, cfg.input_box)
    grid = reach._Grid(cfg.window, cfg.resolution)
    want, visits = _marks_one_substep_at_a_time(f, x0, durations, values, cfg.step, grid)
    _, dead = reach._run_chunk(f, x0, durations, values, cfg.step, grid)
    assert np.array_equal(grid.bitmap, want)
    assert want.sum() < want.size
    assert want.any() or dead.all()
    if case == "boom" and rows > 1:
        assert dead.any() and not dead.all()
    if case != "boom" and rows >= 2048:
        assert visits % (flows._MARK_BLOCK // rows) != 0


def test_sample_reach_memory_does_not_grow_with_horizon(heading):
    """Cells are marked as the loop steps, so eight times the steps take
    no more traced memory than one."""

    def traced_peak(horizon):
        cfg = heading_cfg(horizon=horizon, samples=256, step=1e-3)
        tracemalloc.start()
        try:
            sample_reach(heading, [0.0, 0.0], cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = traced_peak(0.25), traced_peak(2.0)
    assert long <= short + 2**20


def test_sampler_memory_does_not_grow_with_samples(heading, monkeypatch):
    """Each chunk's controls are drawn just before it runs, and the bounded
    check rejects them chunk by chunk, so ten times the samples take no more
    traced memory than one.  A chunk of 256 rows keeps the traced runs
    short; the chunk bounds the memory whatever its size."""
    monkeypatch.setattr(reach, "_CHUNK", 256)
    runs = {
        "sample": lambda cfg: sample_reach(heading, [0.0, 0.0], cfg),
        "bounded": lambda cfg: bounded_reach_check(heading, [0.0, 0.0], ((-1.0, 1.0),), cfg, rate_box=((-3.0, 3.0),)),
    }

    def traced_peak(run, samples):
        cfg = heading_cfg(horizon=0.05, segments=16, samples=samples, step=0.05)
        tracemalloc.start()
        try:
            run(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for name, run in runs.items():
        run(heading_cfg(samples=10))  # what the first call compiles and caches is not the sampler's
        one, ten = traced_peak(run, 512), traced_peak(run, 5120)
        assert ten <= one + 2**20, name


def test_sampler_peak_memory_at_two_chunks():
    """The traced peak of a `sample_reach` run shaped like the bench's
    compare on the cubic extension: 4 states and 4 grid axes, 8 segments,
    a table of 6 columns and two chunks of _CHUNK rows.  It measured
    3.60 MiB with chunks of 4096 rows, 3.52 MiB since rows that no longer
    step keep their states in the new array, not in a third, and 3.46 MiB
    since the kernel steps into a held block of substeps; the bound leaves
    under 10% of headroom over the first, so a chunk or kernel change that
    holds more per row shows here."""
    cubic_ext = extend(parse("system cubic\nstates x1 x2 x3\ninputs u\ndx1 = u\ndx2 = x3^3\ndx3 = u^3\n")).extended
    cfg = ReachConfig(horizon=4.0, segments=8, input_box=((-2.0, 2.0),), samples=2 * reach._CHUNK,
                      window=((-1.0, 1.0),) * 3 + ((-8.0, 8.0),), resolution=(16, 16, 16, 8), seed=7, step=2e-2)
    sample_reach(cubic_ext, np.zeros(4), replace(cfg, samples=10))  # what the first call compiles and caches
    tracemalloc.start()
    try:
        sample_reach(cubic_ext, np.zeros(4), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.9 * 2**20


def test_readme_cubic_reach_peak_memory(cubic):
    """README's cubic `reach` (horizon 1, 3 segments, step 0.05, input box
    +-2, a 30x30x8 grid over +-1.5, seed 7, 20 000 samples, five chunks):
    its traced peak measured 1.55 MiB with a chunk-local mark block, 1.71
    MiB when each visit subtracted `lo` into a new block of all grid axes,
    and 1.47 MiB since `flat_index` subtracts it axis by axis into one
    buffer of a single axis."""
    cfg = ReachConfig(horizon=1.0, segments=3, input_box=((-2.0, 2.0),), samples=20000,
                      window=((-1.5, 1.5),) * 3, resolution=(30, 30, 8), seed=7, step=0.05)
    sample_reach(cubic, np.zeros(3), replace(cfg, samples=10))  # what the first call compiles and caches
    tracemalloc.start()
    try:
        sample_reach(cubic, np.zeros(3), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.55 * 2**20


def test_bounded_check_holds_one_copy_of_a_chunk(heading):
    """The bounded check runs each chunk's kept rows with no copy of the
    whole draw beside them.  At the config of criterion 7, with two chunks
    of rows, its traced peak measured 2.60 MiB while both were held and
    2.27 MiB since; the bound is 10% above that."""
    cfg = ReachConfig(horizon=3.0, segments=6, input_box=((-10.0, 10.0),), samples=2 * reach._CHUNK,
                      window=((-2.0, 2.0), (-2.0, 2.0)), resolution=40, seed=2026, step=2e-2)

    def run(cfg):
        return bounded_reach_check(heading, [0.0, 0.0], ((-math.pi, math.pi),), cfg, rate_box=((-2.0, 2.0),))

    run(replace(cfg, samples=10))  # what the first call compiles and caches
    tracemalloc.start()
    try:
        report = run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < report.rejected < cfg.samples
    assert peak <= 1.1 * 2.27 * 2**20


def test_marks_of_a_grid_of_20_axes_take_one_byte_per_cell():
    """A grid of 2^20 cells over 20 axes at resolution 2 marks into one
    byte per cell and the spare: its bitmap and marks take 2 MiB and the
    kernel's block of substeps, sized by entries, 0.5 MiB, 2.2 MiB measured
    in all, where a grid padded to r + 2 cells per axis would take 4^20 bytes."""
    states = " ".join(f"x{i}" for i in range(1, 21))
    sys_ = parse(f"system twenty\nstates {states}\ninputs u\n" + "".join(f"dx{i} = u\n" for i in range(1, 21)))
    cfg = ReachConfig(horizon=0.5, segments=2, input_box=((-1.0, 1.0),), samples=64,
                      window=((-1.0, 1.0),) * 20, resolution=2, seed=3, step=0.1)
    sample_reach(sys_, np.zeros(20), replace(cfg, samples=2))  # what the first call compiles and caches
    tracemalloc.start()
    try:
        est = sample_reach(sys_, np.zeros(20), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # every state moves with u alike: the start and the states past it are
    # in the top cell, the states below it in the bottom one
    assert est.bitmap.sum() == 2 and est.bitmap[(0,) * 20] and est.bitmap[(1,) * 20]
    assert peak < 3 * 2**20


def _row_control(durations, values, i):
    return PiecewiseControl(tuple(
        (float(d), tuple(float(v) for v in row)) for d, row in zip(durations[i], values[i])
    ))


def test_larger_sample_keeps_the_earlier_samples(heading):
    """Draw N = 3/4 _CHUNK and 2N trajectories and run each as one
    `_run_chunk` call, which cuts no rows (the chunk edge of a sampler run
    is `test_sample_prefix_grows_monotonically`'s): the first N endpoints
    agree bit for bit, and every cell of the N-sample bitmap is in the 2N
    one."""
    part = 3 * reach._CHUNK // 4
    # a grid fine enough that N samples do not mark every cell 2N can reach
    cfg = heading_cfg(samples=part, resolution=64)
    assert part < reach._CHUNK < 2 * part
    f = compile_components(heading.rhs, 2, 1)
    runs = []
    for samples in (part, 2 * part):
        durations, values = reach._draw_controls(cfg.seed, samples, cfg.segments, cfg.horizon, cfg.input_box)
        grid = reach._Grid(cfg.window, cfg.resolution)
        ends, _ = reach._run_chunk(f, np.zeros(2), durations, values, cfg.step, grid)
        runs.append((ends, grid.shaped_bitmap()))
    (small_ends, small_map), (large_ends, large_map) = runs
    assert np.array_equal(small_ends, large_ends[:part])
    assert np.all(~small_map | large_map)
    assert large_map.sum() > small_map.sum()


@pytest.mark.parametrize("chunk", [1, 7])
def test_sample_reach_ignores_chunk_size(heading, monkeypatch, chunk):
    cases = [(heading, [0.0, 0.0], heading_cfg(samples=60)), (parse(BOOM_TEXT), [0.5], BOOM_MIXED_CFG)]
    wide = [sample_reach(s, x0, cfg) for s, x0, cfg in cases]
    monkeypatch.setattr(reach, "_CHUNK", chunk)
    for (s, x0, cfg), want in zip(cases, wide):
        got = sample_reach(s, x0, cfg)
        assert np.array_equal(got.bitmap, want.bitmap)
        assert got.dropped == want.dropped
    assert wide[1].dropped > 0


def test_run_batch_endpoints_match_integrate(cubic):
    """Each row follows its own segments, substep counts and step sizes,
    exactly as the scalar integrator does."""
    durations, values = reach._draw_controls(3, 20, 5, 2.0, ((-2.0, 2.0),))
    assert len(np.unique(np.ceil(durations / 2e-2))) > 10
    x0 = np.array([0.1, -0.2, 0.3])
    f = compile_components(cubic.rhs, 3, 1)
    ends, bad_at = flows.rk4_rows(f, np.tile(x0, (20, 1)), durations, values, 2e-2)
    assert (bad_at == -1).all()
    for i in range(20):
        want = integrate(cubic, x0, _row_control(durations, values, i), 2e-2).endpoint
        assert np.array_equal(ends[i], want), f"row {i}"


def test_sample_reach_drops_exactly_the_rows_that_blow_up():
    boom = parse(BOOM_TEXT)
    cfg = BOOM_MIXED_CFG
    x0 = np.array([0.5])
    durations, values = reach._draw_controls(cfg.seed, cfg.samples, cfg.segments, cfg.horizon, cfg.input_box)
    f = compile_components(boom.rhs, 1, 1)
    bad_at = flows.rk4_rows(f, np.tile(x0, (cfg.samples, 1)), durations, values, cfg.step)[1]
    grid = reach._Grid(cfg.window, cfg.resolution)
    blew_up = np.zeros(cfg.samples, dtype=bool)
    late = 0
    top = -np.inf
    for i in range(cfg.samples):
        try:
            traj = integrate(boom, x0, _row_control(durations, values, i), cfg.step)
        except BlowUpError as exc:
            blew_up[i] = True
            late += exc.time > durations[i, 0]
            # the blow-up step of row i in the batch is that of its one-row run
            assert exc.time == flows._step_times(durations[i], cfg.step, bad_at[i] + 1)
            continue
        top = max(top, float(traj.states.max()))
        idx = _flat_index(grid, traj.states)
        grid.bitmap[idx[idx >= 0]] = True
    assert 0 < blew_up.sum() < cfg.samples
    assert late > 0
    assert np.array_equal(bad_at >= 0, blew_up)

    est = sample_reach(boom, x0, cfg)
    assert est.dropped == blew_up.sum()
    assert est.retained == cfg.samples - est.dropped
    # the marks are exactly those of the surviving rows: every dropped row
    # crosses [2, 6) on its way out, and no survivor gets there
    assert np.array_equal(est.bitmap, grid.shaped_bitmap())
    assert top < 2.0
    assert not est.bitmap[8:].any()


def test_estimate_summary_and_csv(heading):
    est = sample_reach(heading, [0.0, 0.0], heading_cfg(samples=200))
    summary = estimate_summary(est)
    assert summary == {"coverage": est.coverage, "samples": 200, "dropped": est.dropped}
    text = cells_to_csv(est, ["x1", "x2"])
    lines = text.splitlines()
    assert lines[0] == "x1,x2"
    assert len(lines) == 1 + est.bitmap.sum()
    first = [float(v) for v in lines[1].split(",")]
    # centers of a 16-cell grid over [-2, 2] sit on the 0.125 offsets
    assert all(abs((v + 2.0) / 0.25 - 0.5 - round((v + 2.0) / 0.25 - 0.5)) < 1e-12 for v in first)
    with pytest.raises(ValueError):
        cells_to_csv(est, ["x1"])


# --- projection -------------------------------------------------------------

def test_project_x_drops_integrator_block(cubic):
    record = extend(cubic)
    traj = Trajectory(np.array([0.0, 1.0]), np.arange(8.0).reshape(2, 4))
    proj = project_x(traj, record)
    assert proj.states.shape == (2, 3)
    assert np.array_equal(proj.states, [[0.0, 1.0, 2.0], [4.0, 5.0, 6.0]])
    with pytest.raises(ValueError):
        project_x(proj, record)


def test_projected_integration_matches_original_when_rate_is_zero(cubic):
    # zero rate freezes the integrator, so the base block follows the
    # original system at that constant input
    record = extend(cubic)
    u0 = 0.7
    ctrl = PiecewiseControl(((1.2, (0.0,)),))
    ext_traj = integrate(record.extended, [0.1, 0.2, 0.3, u0], ctrl, step=1e-3)
    proj = project_x(ext_traj, record)
    orig = integrate(cubic, [0.1, 0.2, 0.3], PiecewiseControl(((1.2, (u0,)),)), step=1e-3)
    assert np.allclose(proj.endpoint, orig.endpoint, atol=1e-9)
    assert abs(ext_traj.endpoint[3] - u0) < 1e-15


# --- original vs extension comparison ---------------------------------------

def test_coverage_compare_consistent_on_heading(heading):
    cfg = heading_cfg(horizon=1.5, segments=5, input_box=((-8.0, 8.0),), samples=3000, resolution=20, seed=11)
    cfg_ext = ReachConfig(
        horizon=1.5, segments=5, input_box=((-5.0, 5.0),), samples=3000,
        window=((-2.0, 2.0), (-2.0, 2.0), (-12.0, 12.0)), resolution=(20, 20, 10),
        seed=12, step=1e-2,
    )
    report = coverage_compare(heading, [0.0, 0.0], cfg, cfg_ext)
    assert report.threshold == CONSISTENCY_THRESHOLD
    assert 0.0 <= report.coverage_original <= 1.0
    assert report.difference == pytest.approx(
        abs(report.coverage_original - report.coverage_extended_projected)
    )
    assert 0.0 <= report.cell_agreement <= 1.0
    data = report.to_json()
    assert data["verdict"] == report.verdict
    assert data["consistent"] == report.consistent


def test_coverage_compare_validates_grids(heading):
    from dataclasses import replace

    cfg = heading_cfg()
    good_ext = ReachConfig(
        horizon=1.0, segments=4, input_box=((-5.0, 5.0),), samples=100,
        window=((-2.0, 2.0), (-2.0, 2.0), (-12.0, 12.0)), resolution=(16, 16, 8),
        seed=1, step=1e-2,
    )
    with pytest.raises(ValueError):
        # window prefix mismatch
        bad = ReachConfig(
            horizon=1.0, segments=4, input_box=((-5.0, 5.0),), samples=100,
            window=((-3.0, 3.0), (-2.0, 2.0), (-12.0, 12.0)), resolution=(16, 16, 8),
            seed=1, step=1e-2,
        )
        coverage_compare(heading, [0.0, 0.0], cfg, bad)
    with pytest.raises(ValueError):
        bad = ReachConfig(
            horizon=1.0, segments=4, input_box=((-5.0, 5.0),), samples=100,
            window=((-2.0, 2.0), (-2.0, 2.0)), resolution=(16, 16), seed=1, step=1e-2,
        )
        coverage_compare(heading, [0.0, 0.0], cfg, bad)
    with pytest.raises(ValueError):
        bad = ReachConfig(
            horizon=2.0, segments=4, input_box=((-5.0, 5.0),), samples=100,
            window=((-2.0, 2.0), (-2.0, 2.0), (-12.0, 12.0)), resolution=(16, 16, 8),
            seed=1, step=1e-2,
        )
        coverage_compare(heading, [0.0, 0.0], cfg, bad)
    with pytest.raises(ValueError, match="rate axes"):
        coverage_compare(heading, [0.0, 0.0], cfg, replace(good_ext, input_box=((-5.0, 5.0), (-5.0, 5.0))))
    no_inputs = parse("system plain\nstates x1\ndx1 = x1\n")
    with pytest.raises(ValueError):
        coverage_compare(no_inputs, [0.0], cfg, good_ext)


# --- input bounds -----------------------------------------------------------

def test_bounded_check_original_leg_equals_plain_run(heading):
    from dataclasses import replace

    cfg = heading_cfg(samples=300)
    bounds = ((-1.0, 1.0),)
    report = bounded_reach_check(heading, [0.0, 0.0], bounds, cfg, rate_box=((-3.0, 3.0),))
    direct = sample_reach(heading, [0.0, 0.0], replace(cfg, input_box=bounds))
    assert np.array_equal(report.original.bitmap, direct.bitmap)
    assert report.original.coverage == direct.coverage


def test_bounded_check_rejects_escaping_integrator_paths(heading):
    cfg = heading_cfg(samples=300)
    # wide rates against tight bounds: most integrator paths leave the box
    report = bounded_reach_check(heading, [0.0, 0.0], ((-0.5, 0.5),), cfg, rate_box=((-6.0, 6.0),))
    assert report.rejected > 150
    assert report.extended_projected.samples == 300
    kept = 300 - report.rejected
    assert report.extended_projected.retained <= kept


@pytest.mark.parametrize("chunk", [1, 7])
def test_bounded_check_ignores_chunk_size(heading, monkeypatch, chunk):
    """Rejection and stepping go chunk by chunk, so the chunk size leaves
    both bitmaps and every count as they are, with rows rejected and rows
    dropped on both legs."""
    cases = [
        (heading, [0.0, 0.0], ((-0.5, 0.5),), heading_cfg(samples=60), ((-6.0, 6.0),)),
        (parse(BOOM_TEXT), [0.5], ((-1.5, 1.5),), BOOM_MIXED_CFG, ((-1.0, 1.0),)),
    ]

    def counts(report):
        legs = (report.original, report.extended_projected)
        return [report.rejected] + [(leg.retained, leg.dropped) for leg in legs]

    wide = [bounded_reach_check(s, x0, bounds, cfg, rate_box=rates) for s, x0, bounds, cfg, rates in cases]
    monkeypatch.setattr(reach, "_CHUNK", chunk)
    for (s, x0, bounds, cfg, rates), want in zip(cases, wide):
        got = bounded_reach_check(s, x0, bounds, cfg, rate_box=rates)
        assert np.array_equal(got.original.bitmap, want.original.bitmap)
        assert np.array_equal(got.extended_projected.bitmap, want.extended_projected.bitmap)
        assert counts(got) == counts(want)
    assert all(want.rejected > 0 for want in wide)
    assert wide[1].original.dropped > 0 and wide[1].extended_projected.dropped > 0


def test_bounded_check_validates(heading):
    cfg = heading_cfg()
    with pytest.raises(ValueError):
        bounded_reach_check(heading, [0.0, 0.0], ((-1.0, 1.0), (-1.0, 1.0)), cfg)
    no_inputs = parse("system plain\nstates x1\ndx1 = x1\n")
    with pytest.raises(ValueError):
        bounded_reach_check(no_inputs, [0.0], ((-1.0, 1.0),), cfg)


# --- steering ---------------------------------------------------------------

def test_steer_trivial_when_already_there(heading):
    res = two_point_steer(heading, [0.3, 0.4], [0.3, 0.4], heading_cfg(), 1e-6)
    assert res.success
    assert res.control.segments == ()
    assert res.evaluations == 0


@pytest.mark.parametrize("overrides, words", [({"input_box": ()}, "rate axes"), ({"step": 1e-9}, "row-substeps")])
def test_steer_checks_its_config_when_already_there(heading, overrides, words):
    # the trivial answer used to come before the draw that checks the box
    # and the work budget, so a bad config returned success
    with pytest.raises(ValueError, match=words):
        two_point_steer(heading, [0.3, 0.4], [0.3, 0.4], heading_cfg(**overrides), 1e-6)


def test_steer_scalar_integrator():
    scalar = parse("system scalar\nstates x\ninputs u\ndx = u\n")
    cfg = ReachConfig(
        horizon=1.5, segments=3, input_box=((-2.0, 2.0),), samples=2000,
        window=((-2.0, 2.0),), resolution=4, seed=9, step=1e-2,
    )
    res = two_point_steer(scalar, [0.0], [1.0], cfg, 1e-3)
    assert res.success
    assert res.distance <= 1e-3
    assert res.evaluations <= 2000
    # reported distance is the replayed endpoint's distance
    end = integrate(scalar, [0.0], res.control, cfg.step).endpoint
    assert abs(abs(end[0] - 1.0) - res.distance) < 1e-9


def test_steer_cubic_between_given_points(cubic):
    cfg = ReachConfig(
        horizon=6.0, segments=6, input_box=((-2.0, 2.0),), samples=4000,
        window=((-2.0, 2.0),) * 3, resolution=4, seed=2026, step=1e-2,
    )
    res = two_point_steer(cubic, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], cfg, 1e-2)
    assert res.success
    end = integrate(cubic, [0.0, 0.0, 0.0], res.control, cfg.step).endpoint
    assert abs(np.linalg.norm(end - np.array([1.0, 1.0, 1.0])) - res.distance) < 1e-9


def test_steer_moves_the_durations_of_its_first_shot(heading):
    # the best first-shot row spends 1.123 of the 2.0 horizon on one
    # segment, so at unit speed every endpoint it reaches, whatever its
    # values, lies at radius 0.247 or more, and the target at 0.214;
    # refining the values alone ended 0.0326 away
    cfg = ReachConfig(
        horizon=2.0, segments=4, input_box=((-math.pi, math.pi),), samples=2048,
        window=((-3.0, 3.0), (-3.0, 3.0)), resolution=8, seed=1990598234, step=1e-2,
    )
    target = [-0.024719242699049265, -0.21300504685701213]
    res = two_point_steer(heading, [0.0, 0.0], target, cfg, 2e-2)
    assert res.success and res.evaluations <= cfg.samples
    end = integrate(heading, [0.0, 0.0], res.control, cfg.step).endpoint
    assert abs(np.linalg.norm(end - target) - res.distance) < 1e-9


_STEER_CASES = {
    "heading": (parse(HEADING_TEXT), [0.0, 0.0], [0.6, 0.5], heading_cfg(samples=300), 1e-6),
    "scalar": (parse("system scalar\nstates x\ninputs u\ndx = u\n"), [0.0], [1.0], ReachConfig(
        horizon=1.5, segments=3, input_box=((-2.0, 2.0),), samples=40,
        window=((-2.0, 2.0),), resolution=4, seed=9, step=1e-2), 1e-3),
    # from 1 with inputs of at least 1/2, every row blows up before t = 4
    "boom": (parse(BOOM_TEXT), [1.0], [0.0], ReachConfig(
        horizon=4.0, segments=2, input_box=((0.5, 1.5),), samples=40,
        window=((-2.0, 2.0),), resolution=8, seed=1, step=1e-2), 1e-3),
}


@pytest.mark.parametrize("chunk", [1, 7])
def test_steer_ignores_chunk_size(monkeypatch, chunk):
    """The first shot runs a chunk at a time and keeps a chunk's best row
    only if it is strictly nearer, so it picks the row that one argmin over
    every row picks; where every row drops, that is row 0, at inf."""
    wide = {name: two_point_steer(*case) for name, case in _STEER_CASES.items()}
    monkeypatch.setattr(reach, "_CHUNK", chunk)
    for name, case in _STEER_CASES.items():
        got, want = two_point_steer(*case), wide[name]
        assert (got.control, got.distance, got.evaluations) == (want.control, want.distance, want.evaluations), name
    boom = wide["boom"]
    assert boom.distance == math.inf and not boom.success
    cfg = _STEER_CASES["boom"][3]
    durations, values = reach._draw_controls(cfg.seed, 1, cfg.segments, cfg.horizon, cfg.input_box)
    assert boom.control == _row_control(durations, values, 0)
    assert wide["heading"].evaluations > 150 and wide["scalar"].evaluations == 20


def test_steer_validates_endpoint_shapes(heading):
    with pytest.raises(ValueError):
        two_point_steer(heading, [0.0], [1.0, 0.0], heading_cfg(), 1e-3)


def test_grid_flat_index_matches_ravel_multi_index():
    grid = reach._Grid(((-2.0, 2.0), (-1.0, 3.0), (0.0, 1.0)), (5, 7, 3))
    rng = np.random.default_rng(3)
    x = rng.uniform(-3.0, 4.0, size=(500, 3))
    x[:4] = [[np.nan, 0.0, 0.5], [np.inf, 0.0, 0.5], [0.0, -np.inf, 0.5], [2.0, 0.0, 0.5]]
    lows, highs, res = _grid_arrays(grid)
    inside = np.all((x >= lows) & (x < highs), axis=1)
    cells = np.floor((x[inside] - lows) / (highs - lows) * res).astype(np.int64)
    cells = np.minimum(cells, res - 1)
    want = np.full(len(x), -1)
    want[inside] = np.ravel_multi_index(cells.T, grid.resolution)
    got = _flat_index(grid, x)
    assert np.array_equal(got, want)
    assert np.array_equal(got, _whole_row_flat_index(grid, x))
    assert not inside[:4].any() and 0 < inside.sum() < len(x)
    # a grid over the leading axes reads only those: extra trailing
    # columns, non-finite ones among them, leave the indices as they are
    extra = rng.uniform(-3.0, 4.0, size=(len(x), 2))
    extra[:6] = [[np.nan, 0.0], [np.inf, -np.inf], [0.0, np.nan], [-np.inf, 1.0], [np.nan, np.nan], [1e300, 0.0]]
    assert np.array_equal(_flat_index(grid, np.hstack([x, extra])), want)


@pytest.mark.parametrize("resolution", [(4097, 4096), (2**32, 2**32), 2**12 + 1])
def test_config_rejects_grids_past_the_cell_limit(heading, tmp_path, capsys, resolution):
    """The cells are counted where a grid is built, with Python ints, so
    2^32 x 2^32 cannot wrap to 0 as an int64 product would.  A config
    allocates nothing; its run is refused, and on the CLI that is exit 1
    with no output."""
    cfg = heading_cfg(resolution=resolution, samples=10)
    with pytest.raises(ValueError, match="cells"):
        sample_reach(heading, [0.0, 0.0], cfg)
    system, config = tmp_path / "heading.sys", tmp_path / "cfg.json"
    system.write_text(HEADING_TEXT)
    config.write_text(json.dumps(asdict(cfg)))
    out = tmp_path / "cells.csv"
    assert main(["reach", str(system), "--x0", "0,0", "--config", str(config), "--out", str(out)]) == 1
    assert "cells" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("run", ["sample", "compare", "bounded"])
def test_grid_past_the_cell_limit_fails_before_any_control_is_drawn(heading, monkeypatch, run):
    """A refused grid costs no draw: `_cover` builds the grid before its
    first `_draw_controls` call, and the run checks (`_check_run`) draw
    nothing, so no call with rows comes before the error."""
    draw = reach._draw_controls
    counts = []
    monkeypatch.setattr(reach, "_draw_controls", lambda seed, count, *rest: counts.append(count) or draw(seed, count, *rest))
    cfg = heading_cfg(resolution=(4097, 4096), samples=10)
    with pytest.raises(ValueError, match="cells"):
        if run == "sample":
            sample_reach(heading, [0.0, 0.0], cfg)
        elif run == "compare":
            coverage_compare(heading, [0.0, 0.0], cfg, heading_cfg(
                samples=10, window=((-2.0, 2.0), (-2.0, 2.0), (-18.0, 18.0)), resolution=(4097, 4096, 2)))
        else:
            bounded_reach_check(heading, [0.0, 0.0], ((-1.0, 1.0),), cfg)
    assert not any(counts)


def test_compare_counts_only_the_gridded_axes_against_the_cell_limit(heading, tmp_path):
    """compare grids both runs on the original window, so an extended
    resolution of (4096, 4096, 2), twice the limit over all its axes, is
    accepted: only its 4096 x 4096 projection is built."""
    cfg = heading_cfg(samples=10, resolution=(4096, 4096))
    cfg_ext = heading_cfg(samples=10, window=((-2.0, 2.0), (-2.0, 2.0), (-18.0, 18.0)), resolution=(4096, 4096, 2))
    assert coverage_compare(heading, [0.0, 0.0], cfg, cfg_ext).samples_extended == 10
    paths = [tmp_path / name for name in ("heading.sys", "cfg.json", "cfg_ext.json")]
    for path, text in zip(paths, (HEADING_TEXT, json.dumps(asdict(cfg)), json.dumps(asdict(cfg_ext)))):
        path.write_text(text)
    out = tmp_path / "report.json"
    argv = ["compare", str(paths[0]), "--x0", "0,0", "--config", str(paths[1]), "--config-ext", str(paths[2])]
    assert main([*argv, "--out", str(out)]) in (0, 2)
    assert json.loads(out.read_text())["samples_extended"] == 10


def test_config_accepts_a_grid_at_the_cell_limit():
    assert heading_cfg(resolution=(4096, 4096)).resolution == (4096, 4096)
    assert 4096 * 4096 == reach.MAX_CELLS


@pytest.mark.parametrize("run", ["sample", "compare", "bounded", "steer"])
def test_runs_past_the_work_budget_are_rejected(heading, run):
    # samples * (segments + horizon / step) row-substeps, counted in
    # floats: 10 * (4 + 1 / 1e-9) is past MAX_WORK, 1 / 5e-324 is inf
    for step in (1e-9, 5e-324):
        cfg = heading_cfg(samples=10, step=step)
        ext = heading_cfg(samples=10, step=step, window=((-2.0, 2.0),) * 3, resolution=(16, 16, 4))
        with pytest.raises(ValueError, match="row-substeps"):
            if run == "sample":
                sample_reach(heading, [0.0, 0.0], cfg)
            elif run == "compare":
                coverage_compare(heading, [0.0, 0.0], heading_cfg(samples=10), ext)
            elif run == "bounded":
                bounded_reach_check(heading, [0.0, 0.0], ((-1.0, 1.0),), cfg)
            else:
                two_point_steer(heading, [0.0, 0.0], [1.0, 0.0], cfg, tol=1e-3)


def _ext_cfg(**overrides):
    """A small config for heading's extension."""
    return heading_cfg(samples=10, window=((-2.0, 2.0),) * 3, resolution=(16, 16, 4), **overrides)


@pytest.mark.parametrize("run", ["sample", "compare", "bounded", "steer"])
def test_boxes_need_one_axis_per_input(heading, run):
    # heading has one input: a box with a second column, or with none, is
    # refused, the rate box of the bounded check and the steer box included
    for box in (((-1.0, 1.0), (-50.0, 50.0)), ()):
        with pytest.raises(ValueError, match="rate axes"):
            if run == "sample":
                sample_reach(heading, [0.0, 0.0], heading_cfg(samples=10, input_box=box))
            elif run == "compare":
                coverage_compare(heading, [0.0, 0.0], heading_cfg(samples=10), _ext_cfg(input_box=box))
            elif run == "bounded":
                bounded_reach_check(heading, [0.0, 0.0], ((-1.0, 1.0),), heading_cfg(samples=10), rate_box=box)
            else:
                two_point_steer(heading, [0.0, 0.0], [1.0, 0.0], heading_cfg(samples=10, input_box=box), tol=1e-3)


def test_second_run_config_fails_before_anything_runs(heading, monkeypatch):
    def no_runs(*args):
        raise AssertionError("a run started before every config was checked")

    monkeypatch.setattr(reach, "_run_chunk", no_runs)
    cfg = heading_cfg(samples=10)
    with pytest.raises(ValueError, match="row-substeps"):
        coverage_compare(heading, [0.0, 0.0], cfg, _ext_cfg(step=1e-9))
    with pytest.raises(ValueError, match="rate axes"):
        coverage_compare(heading, [0.0, 0.0], cfg, _ext_cfg(input_box=((-1.0, 1.0),) * 2))
    with pytest.raises(ValueError, match="rate axes"):
        bounded_reach_check(heading, [0.0, 0.0], ((-1.0, 1.0),), cfg, rate_box=((-1.0, 1.0),) * 2)


@pytest.mark.parametrize("run", ["sample", "compare", "bounded", "steer", "steer target"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_start_and_target_are_rejected(heading, run, bad):
    cfg = heading_cfg(samples=10)
    with pytest.raises(ValueError, match="finite"):
        if run == "sample":
            sample_reach(heading, [bad, 0.0], cfg)
        elif run == "compare":
            coverage_compare(heading, [bad, 0.0], cfg, _ext_cfg())
        elif run == "bounded":
            bounded_reach_check(heading, [bad, 0.0], ((-1.0, 1.0),), cfg)
        elif run == "steer":
            two_point_steer(heading, [bad, 0.0], [1.0, 0.0], cfg, tol=1e-3)
        else:
            two_point_steer(heading, [0.0, 0.0], [bad, 0.0], cfg, tol=1e-3)


def test_sample_reach_needs_one_window_axis_per_state(heading):
    with pytest.raises(ValueError, match="window needs 2 axes"):
        sample_reach(heading, [0.0, 0.0], heading_cfg(window=((-2.0, 2.0),) * 3))


def test_config_casts_its_numbers():
    cfg = heading_cfg(horizon=1, samples=500.0, seed=True, resolution=[16.0, 8])
    assert (cfg.horizon, cfg.samples, cfg.seed, cfg.resolution) == (1.0, 500, 1, (16, 8))
    assert type(cfg.horizon) is float and type(cfg.samples) is int
    with pytest.raises(ValueError, match="integer"):
        heading_cfg(segments=2.5)
    with pytest.raises(OverflowError):
        heading_cfg(seed=float("inf"))
    with pytest.raises(ValueError):
        heading_cfg(samples="x")
