"""The benchmark's workloads: inputs made from a seed, the operations of
one round, and the checks on each output.

A workload's set-up writes its input files and returns a `Plan`: the
operations of one round, in the order they run, and a check over the
whole round.  Operations reach ctrlkit through its public entry points,
mostly `ctrlkit.cli.main(argv)` in-process, looked up at call time so
that a traced run sees them.  Every round runs the same operations on
the same inputs.  See README.md for why each workload has the make-up
it has.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

import checks

CLI_STEP = 1e-3  # default step of `simulate` and `realize`


@dataclass
class Outcome:
    code: int
    stdout: str


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    work: float
    # exit code a CLI call must give; None leaves the code to the check,
    # and a library call fails only by raising
    expect_code: int | None = 0


@dataclass
class Plan:
    ops: list[Op]
    round_check: Callable[[dict], list[str]] = field(default=lambda results: [])


def import_ctrlkit(src: Path) -> SimpleNamespace:
    """Import ctrlkit afresh from `src` and return its modules."""
    for name in [n for n in sys.modules if n == "ctrlkit" or n.startswith("ctrlkit.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    names = ("cli", "dsl", "expr", "fields", "flows", "reach", "transform", "certificates")
    mods = {name: importlib.import_module(f"ctrlkit.{name}") for name in names}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"ctrlkit was imported from {mods['cli'].__file__}, not from {src}")
    return SimpleNamespace(**mods)


def _cli(api, argv) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = api.cli.main([str(a) for a in argv])
    return Outcome(code, out.getvalue())


def _write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def _write_json(path: Path, data) -> Path:
    path.write_text(json.dumps(data))
    return path


def _read_json(path: Path):
    return json.loads(path.read_text())


def _csv_rows(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _substeps(duration: float, step: float) -> int:
    return max(1, math.ceil(duration / step - 1e-12))


def _fmt(v: float) -> str:
    return ",".join(f"{float(x)!r}" for x in np.atleast_1d(v))


HEADING = "system heading\nstates x1 x2\ninputs v\ndx1 = sin(v)\ndx2 = cos(v)\n"
HEADING_EXT = "system heading_ext\nstates x1 x2 y\ninputs w\ndx1 = sin(y)\ndx2 = cos(y)\ndy = w\n"
CUBIC = "system cubic\nstates x1 x2 x3\ninputs u\ndx1 = u\ndx2 = x3^3\ndx3 = u^3\n"
DOUBLE = "system double\nstates x1 x2\ninputs u\ndx1 = x2\ndx2 = u\n"
NOT_LINEAR = "system reciprocal\nstates x1 x2\ninputs u\ndx1 = 1/x1 + x2\ndx2 = u\n"


def chain_text(n: int) -> str:
    """Heading behind an integrator chain of depth n - 3."""
    lines = [f"system chain{n}", "states " + " ".join(f"x{i}" for i in range(1, n + 1)), "inputs u"]
    lines += ["dx1 = sin(x3)", "dx2 = cos(x3)"]
    lines += [f"dx{i} = x{i + 1}" for i in range(3, n)]
    lines.append(f"dx{n} = u")
    return "\n".join(lines) + "\n"


def _seeds(rng, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


# --- coverage ----------------------------------------------------------------


def coverage(seed: int, d: Path, api) -> Plan:
    """The paper's equivalence check as users run it: acceptance criteria
    5, 6 and 7, thousands of trajectories per call.  The criterion 6
    `reach` runs at 1/16, 1/8, 1/4, 1/2 and all of its samples, and the
    half-sample run twice more, which must reproduce its bytes.  With the
    `reach` on the heading extension that makes eight `reach` runs
    against three longer calls, so the median of the eleven operations is
    the middle one of the three half-sample runs."""
    d.mkdir(parents=True)
    s = _seeds(np.random.default_rng([seed, 0xC0]), 6)
    heading = _write(d / "heading.sys", HEADING)
    heading_ext = _write(d / "heading_ext.sys", HEADING_EXT)
    cubic = _write(d / "cubic.sys", CUBIC)
    h5 = dict(horizon=3.0, segments=6, input_box=[[-10.0, 10.0]], samples=20000,
              window=[[-2.0, 2.0], [-2.0, 2.0]], resolution=40, seed=s[0], step=2e-2)
    h5e = dict(h5, input_box=[[-6.0, 6.0]], window=h5["window"] + [[-18.0, 18.0]],
               resolution=[40, 40, 10], seed=s[1])
    c5 = dict(horizon=4.0, segments=8, input_box=[[-1.0, 1.0]], samples=20000,
              window=[[-1.0, 1.0]] * 3, resolution=16, seed=s[2], step=2e-2)
    c5e = dict(c5, input_box=[[-2.0, 2.0]], window=c5["window"] + [[-8.0, 8.0]],
               resolution=[16, 16, 16, 8], seed=s[3])
    r6 = dict(horizon=3.0, segments=3, input_box=[[-10.0, 10.0]], samples=20000,
              window=[[-3.0, 3.0], [-3.0, 3.0]], resolution=30, seed=s[4], step=1e-2)
    r6e = dict(r6, input_box=[[-6.0, 6.0]], samples=5000, window=r6["window"] + [[-18.0, 18.0]],
               resolution=[30, 30, 12], seed=s[5])
    paths = {}
    for name, cfg in (("h5", h5), ("h5e", h5e), ("c5", c5), ("c5e", c5e), ("r6e", r6e)):
        paths[name] = _write_json(d / f"{name}.json", cfg)
    ladder = [r6["samples"] // k for k in (16, 8, 4, 2, 1)]
    for n in ladder:
        paths[n] = _write_json(d / f"r6_{n}.json", dict(r6, samples=n))
    widths6 = checks.cell_widths(r6["window"], [r6["resolution"]] * 2)

    def reach(system, x0, cfg_path, out):
        return lambda: _cli(api, ["reach", system, "--x0", x0, "--config", cfg_path, "--out", out])

    def reach_check(out, horizon, widths, disk=False):
        def check(_):
            centers = _csv_rows(out)[:, :2]
            problems = checks.marks_within_speed_bound(centers, [0.0, 0.0], horizon, widths)
            problems += checks.none_dropped(_read_json(Path(f"{out}.summary.json"))["dropped"])
            if disk:
                problems += checks.disk_covered(centers, r6["window"], [r6["resolution"]] * 2, horizon)
            return problems
        return check

    def compare(system, x0, cfg, cfg_ext, out):
        return lambda: _cli(api, ["compare", system, "--x0", x0, "--config", cfg,
                                  "--config-ext", cfg_ext, "--out", out])

    def bounded():
        sys_ = api.dsl.parse(heading.read_text())
        cfg = api.reach.ReachConfig(**h5)
        return api.reach.bounded_reach_check(sys_, [0.0, 0.0], ((-math.pi, math.pi),), cfg,
                                             rate_box=((-2.0, 2.0),))

    def bounded_check(rep):
        return checks.none_dropped(rep.original.dropped) + checks.none_dropped(rep.extended_projected.dropped)

    cells = {n: d / f"cells_{n}.csv" for n in ladder}
    ladder_ops = [
        Op("reach", f"reach_{n}", reach(heading, "0,0", paths[n], cells[n]),
           reach_check(cells[n], r6["horizon"], widths6, disk=(n == r6["samples"])), n)
        for n in ladder
    ]
    half = ladder[3]
    reruns = [d / f"cells_{half}_rerun{k}.csv" for k in (1, 2)]
    rerun_ops = [Op("reach", f"reach_{half}_rerun{k}", reach(heading, "0,0", paths[half], out),
                    reach_check(out, r6["horizon"], widths6), half)
                 for k, out in enumerate(reruns, 1)]
    cmp_h, cmp_c = d / "compare_heading.json", d / "compare_cubic.json"
    ext_cells = d / "cells_ext.csv"
    ops = [
        ladder_ops[0],
        Op("compare", "compare_heading", compare(heading, "0,0", paths["h5"], paths["h5e"], cmp_h),
           lambda _: checks.compare_report(_read_json(cmp_h)), 2 * h5["samples"]),
        ladder_ops[1],
        Op("bounded", "bounded", bounded, bounded_check, 2 * h5["samples"], expect_code=None),
        ladder_ops[2],
        rerun_ops[0],
        Op("compare", "compare_cubic", compare(cubic, "0,0,0", paths["c5"], paths["c5e"], cmp_c),
           lambda _: checks.compare_report(_read_json(cmp_c)), 2 * c5["samples"]),
        ladder_ops[3],
        Op("reach", "reach_extension", reach(heading_ext, "0,0,0", paths["r6e"], ext_cells),
           reach_check(ext_cells, r6["horizon"], widths6), r6e["samples"]),
        rerun_ops[1],
        ladder_ops[4],
    ]

    def round_check(results):
        problems = checks.nested_cells([set(cells[n].read_text().splitlines()[1:]) for n in ladder])
        for out in reruns:
            problems += checks.same_bytes(cells[half].read_text(), out.read_text())
        unbounded = _read_json(cmp_h)["coverage_original"]  # same config as the bounded run
        problems += checks.bounded_matches_unbounded(results["bounded"].original.coverage, unbounded)
        return problems

    return Plan(ops, round_check)


# --- trajectory --------------------------------------------------------------


def _plan(rng, n: int, pairs: int, jump_total: float, drift_total: float):
    """Jump/drift plan on the extension of a 1-input system whose drifts
    freeze the input at the integrator level the jumps leave, so the
    realizations converge to the ideal endpoint.  Total jump size and
    drift time are fixed, so the work does not depend on the seed."""
    jumps = rng.dirichlet(np.full(pairs, 4.0)) * jump_total * rng.choice([-1.0, 1.0], pairs)
    drifts = rng.dirichlet(np.full(pairs, 4.0)) * drift_total
    level, segments, legs = 0.0, [], []
    for jump, duration in zip(jumps.tolist(), drifts.tolist()):
        level += jump
        segments += [{"kind": "jump", "channel": 0, "displacement": jump},
                     {"kind": "drift", "duration": duration, "values": [level]}]
        legs.append((jump, duration))
    return {"start": [0.0] * (n + 1), "segments": segments}, legs


def _realize_work(legs, gains) -> int:
    ideal = sum(_substeps(t, CLI_STEP) for _, t in legs)
    return ideal + sum(
        _substeps(abs(j) / g, CLI_STEP) + _substeps(t, CLI_STEP) for g in gains for j, t in legs
    )


def trajectory(seed: int, d: Path, api) -> Plan:
    """Few rows, many steps: realize gain sweeps, long `simulate` runs,
    two-point steering in 64-row batches and one long fine-step `reach`.
    The four `realize` calls of a round cost alike and lie between four
    faster steering runs and three slower calls, so the median operation
    falls inside the `realize` kind."""
    d.mkdir(parents=True)
    rng = np.random.default_rng([seed, 0x7A])
    files = {name: _write(d / f"{name}.sys", text)
             for name, text in (("heading", HEADING), ("cubic", CUBIC), ("double", DOUBLE))}
    gains = [float(g) for g in np.geomspace(10.0, 80.0, 4)]

    crit4 = {"start": [0.0] * 4, "segments": [
        {"kind": "jump", "channel": 0, "displacement": 1.0},
        {"kind": "drift", "duration": 0.5, "values": [1.0]},
        {"kind": "jump", "channel": 0, "displacement": -1.5},
        {"kind": "drift", "duration": 0.4, "values": [-0.5]}]}
    plans = [("cubic", crit4, [(1.0, 0.5), (-1.5, 0.4)])]
    plans.append(("cubic", *_plan(rng, 3, 2, 2.5, 0.9)))
    # heading steps are cheaper; a longer drift makes all four sweeps cost alike
    plans.append(("heading", *_plan(rng, 2, 3, 2.5, 1.1)))
    plans.append(("heading", *_plan(rng, 2, 3, 2.5, 1.1)))

    def realize(k, system, plan, legs):
        plan_path, table = _write_json(d / f"plan{k}.json", plan), d / f"table{k}.csv"
        run = lambda: _cli(api, ["realize", files[system], "--plan", plan_path,  # noqa: E731
                                 "--gain-sweep", "10:80:4", "--out", table])

        def check(_):
            rows = _csv_rows(table)
            return checks.realize_table(list(rows[:, 0]), list(rows[:, 1]))
        return Op("realize", f"realize{k}", run, check, _realize_work(legs, gains))

    def simulate(system, rows_check):
        durations = rng.dirichlet(np.full(16, 4.0)) * 12.0
        segs = [(float(t), (float(v),)) for t, v in zip(durations, rng.uniform(-3.0, 3.0, 16))]
        x0 = rng.uniform(-1.0, 1.0, 2)
        ctrl = _write_json(d / f"control_{system}.json",
                           [{"duration": t, "values": list(v)} for t, v in segs])
        out = d / f"traj_{system}.csv"
        run = lambda: _cli(api, ["simulate", files[system], f"--x0={_fmt(x0)}",  # noqa: E731
                                 "--control", ctrl, "--out", out])

        def check(_):
            rows = _csv_rows(out)
            return checks.trajectory_span(rows, sum(t for t, _ in segs)) + rows_check(rows, x0, segs)
        return Op("simulate", f"simulate_{system}", run, check, sum(_substeps(t, CLI_STEP) for t, _ in segs))

    steer_cfg = dict(horizon=2.0, segments=4, input_box=((-math.pi, math.pi),), samples=2048,
                     window=((-3.0, 3.0), (-3.0, 3.0)), resolution=8, step=1e-2)
    tol = 2e-2

    def steer(k):
        radius, angle = rng.uniform(0.2, 1.0) * steer_cfg["horizon"] / 2, rng.uniform(0.0, 2 * math.pi)
        target = [radius * math.cos(angle), radius * math.sin(angle)]
        cfg_seed = int(rng.integers(0, 2**31 - 1))

        def run():
            sys_ = api.dsl.parse(files["heading"].read_text())
            cfg = api.reach.ReachConfig(seed=cfg_seed, **steer_cfg)
            return api.reach.two_point_steer(sys_, [0.0, 0.0], target, cfg, tol)

        def check(res):
            segments = res.control.segments if res.control is not None else ()
            return checks.steer_hits([0.0, 0.0], target, segments, tol, res.success)
        work = steer_cfg["samples"] * _substeps(steer_cfg["horizon"], steer_cfg["step"])
        return Op("steer", f"steer{k}", run, check, work, expect_code=None)

    long = dict(horizon=2.5, segments=6, input_box=[[-math.pi, math.pi]], samples=2048,
                window=[[-3.5, 3.5], [-3.5, 3.5]], resolution=56, seed=int(rng.integers(0, 2**31 - 1)),
                step=1e-3)
    long_cfg, long_out = _write_json(d / "long.json", long), d / "long_cells.csv"

    def long_check(_):
        widths = checks.cell_widths(long["window"], [long["resolution"]] * 2)
        return (checks.marks_within_speed_bound(_csv_rows(long_out), [0.0, 0.0], long["horizon"], widths)
                + checks.none_dropped(_read_json(Path(f"{long_out}.summary.json"))["dropped"]))

    realizes = [realize(k, *p) for k, p in enumerate(plans)]
    steers = [steer(k) for k in range(4)]
    ops = [
        steers[0], realizes[0], simulate("heading", checks.heading_rows),
        steers[1], realizes[1],
        Op("reach", "reach_long",
           lambda: _cli(api, ["reach", files["heading"], "--x0", "0,0", "--config", long_cfg, "--out", long_out]),
           long_check, long["samples"] * _substeps(long["horizon"], long["step"])),
        steers[2], realizes[2], simulate("double", checks.double_integrator_rows),
        steers[3], realizes[3],
    ]
    return Plan(ops)


# --- symbolic ----------------------------------------------------------------

# Non-affine one-input systems: text with coefficient slots, and the
# same right-hand side in numpy, f(x, u), for the finite-difference check.
TEMPLATES = (
    ("sa", 2, "dx1 = {0}*sin(u) + {1}*x2\ndx2 = {2}*x1*cos(u)",
     lambda c, x, u: [c[0] * np.sin(u) + c[1] * x[1], c[2] * x[0] * np.cos(u)]),
    ("sb", 3, "dx1 = {0}*u^3 + {1}*x2\ndx2 = {2}*sin(x3)\ndx3 = {3}*x1 + {4}*u^2",
     lambda c, x, u: [c[0] * u**3 + c[1] * x[1], c[2] * np.sin(x[2]), c[3] * x[0] + c[4] * u**2]),
    ("sc", 2, "dx1 = {0}*x2 + {1}*u^2\ndx2 = {2}*sin(x1) + {3}*u^3",
     lambda c, x, u: [c[0] * x[1] + c[1] * u**2, c[2] * np.sin(x[0]) + c[3] * u**3]),
    ("sd", 3, "dx1 = {0}*cos(u)\ndx2 = {1}*sin(u)\ndx3 = {2}*x1*x2 + {3}*u",
     lambda c, x, u: [c[0] * np.cos(u), c[1] * np.sin(u), c[2] * x[0] * x[1] + c[3] * u]),
)
PAPER = {
    "heading": lambda c, x, u: [np.sin(u), np.cos(u)],
    "cubic": lambda c, x, u: [u, x[2] ** 3, u**3],
}


def _random_system(rng, name, n, body) -> tuple[str, list[float]]:
    coeffs = [float(f"{v:.4f}") for v in rng.uniform(0.5, 2.0, 5)]
    states = " ".join(f"x{i}" for i in range(1, n + 1))
    return f"system {name}\nstates {states}\ninputs u\n" + body.format(*coeffs) + "\n", coeffs


def _linear_text(name: str, a: np.ndarray, b: np.ndarray) -> str:
    n, m = b.shape
    lines = [f"system {name}", "states " + " ".join(f"x{i + 1}" for i in range(n)),
             "inputs " + " ".join(f"u{j + 1}" for j in range(m))]
    for i in range(n):
        terms = [(float(a[i, j]), f"x{j + 1}") for j in range(n)]
        terms += [(float(b[i, j]), f"u{j + 1}") for j in range(m)]
        rhs = " ".join(f"{'-' if c < 0 else '+'} {abs(c)!r}*{v}" for c, v in terms if c != 0.0)
        lines.append(f"dx{i + 1} = " + (rhs[2:] if rhs.startswith("+") else "-" + rhs[2:]))
    return "\n".join(lines) + "\n"


def _random_linear(rng, n: int, m: int, controllable_block: int) -> tuple[np.ndarray, np.ndarray]:
    """Entries of size 0.2..1 with random signs; states past
    `controllable_block` are decoupled from the inputs and from the
    first block, so the Kalman rank is at most `controllable_block`."""
    draw = lambda *shape: np.round(rng.uniform(0.2, 1.0, shape) * rng.choice([-1.0, 1.0], shape), 3)  # noqa: E731
    a, b = draw(n, n), draw(n, m)
    k = controllable_block
    a[:k, k:] = 0.0
    a[k:, :k] = 0.0
    b[k:, :] = 0.0
    return a, b


def symbolic(seed: int, d: Path, api) -> Plan:
    """No flows: integrator extension of random non-affine systems and of
    the paper examples, `larc` on each extension at depth 5-6, Kalman and
    `larc` ranks of linear systems, reduction of a chain and text round
    trips.  `larc` at depth 5-6 on the random extensions and on cubic
    takes 0.06-0.15 reference seconds; everything else, `larc` on heading
    and on linear systems included, takes under 0.035 s.  The slow `larc`
    runs are 26 of 43 operations, so the median operation is one of them."""
    d.mkdir(parents=True)
    rng = np.random.default_rng([seed, 0x5B])
    rng_check = np.random.default_rng([seed, 0xFD])
    ops: list[Op] = []

    def check_cmd(path, method, out, extra=()):
        return lambda: _cli(api, ["check", path, "--method", method, "--out", out, *extra])

    # (name, n, text, coefficients, numpy rhs, larc depths, larc points)
    systems = [(name, n, *_random_system(rng, name, n, body), fn, (5,), 5)
               for name, n, body, fn in TEMPLATES]
    systems += [("heading", 2, HEADING, [], PAPER["heading"], (6,), 1),
                ("cubic", 3, CUBIC, [], PAPER["cubic"], (5, 6), 3)]
    for name, n, text, coeffs, fn, depths, points in systems:
        src, ext = _write(d / f"{name}.sys", text), d / f"{name}.ext.sys"

        def extend_check(_, ext=ext, n=n, fn=fn, coeffs=coeffs):
            ext_text = ext.read_text()
            return (checks.extension_affine(ext_text, n, 1)
                    + _bracket_check(api, ext_text, n, fn, coeffs, rng_check))
        ops.append(Op("extend", f"extend_{name}",
                      lambda src=src, ext=ext: _cli(api, ["extend", src, "--out", ext]), extend_check, 1))
        for depth in depths:
            for k in range(points):
                point = rng.uniform(-1.0, 1.0, n + 1)
                out = d / f"{name}.larc{depth}_{k}.json"
                ops.append(Op(
                    "larc", f"larc_{name}_{depth}_{k}",
                    check_cmd(ext, "larc", out, ["--depth", depth, f"--point={_fmt(point)}"]),
                    lambda res, out=out, n=n, depth=depth: checks.larc_report(
                        _read_json(out), n + 1, depth, res.code),
                    1))

    for k, (n, m, block) in enumerate(((4, 1, 4), (5, 2, 5), (5, 1, 3))):
        a, b = _random_linear(rng, n, m, block)
        path = _write(d / f"linear{k}.sys", _linear_text(f"linear{k}", a, b))
        kal, lar = d / f"linear{k}.kalman.json", d / f"linear{k}.larc.json"
        depth = max(5, n)
        ops.append(Op("kalman", f"kalman_linear{k}", check_cmd(path, "kalman", kal),
                      lambda res, kal=kal, a=a, b=b, n=n: _rank_check(_read_json(kal), res.code, n, a, b),
                      1, expect_code=None))
        ops.append(Op("larc", f"larc_linear{k}", check_cmd(path, "larc", lar, ["--depth", depth]),
                      lambda res, lar=lar, a=a, b=b, n=n, depth=depth: (
                          _rank_check(_read_json(lar), res.code, n, a, b)
                          + checks.larc_report(_read_json(lar), n, depth, res.code)),
                      1, expect_code=None))

    # fails today: `_constant_derivative` evaluates 1/x1 at the origin
    bad, bad_out = _write(d / "reciprocal.sys", NOT_LINEAR), d / "reciprocal.kalman.json"
    ops.append(Op("kalman", "kalman_not_linear", check_cmd(bad, "kalman", bad_out),
                  lambda _: [] if _read_json(bad_out).get("verdict") == "not-linear"
                  else ["verdict is not 'not-linear'"], 1, expect_code=2))

    n_chain = 5 + seed % 3
    chain, core = _write(d / "chain.sys", chain_text(n_chain)), d / "chain.core.sys"

    def reduce_check(_):
        cert = api.transform.load_certificate(f"{core}.cert.json")
        problems = checks.heading_core(core.read_text())
        if cert.count != n_chain - 2 or not api.transform.verify_roundtrip(cert):
            problems.append(f"certificate of {cert.count} steps does not replay")
        return problems
    ops.append(Op("reduce", "reduce_chain", lambda: _cli(api, ["reduce", chain, "--out", core]), reduce_check, 1))

    first_src, again = d / "sb.sys", d / "roundtrip.sys"
    first = []

    def keep_first(res):
        first[:] = [res.stdout]
        _write(again, res.stdout)
        return []
    ops.append(Op("parse", "parse", lambda: _cli(api, ["parse", first_src]), keep_first, 1))
    ops.append(Op("parse", "parse_again", lambda: _cli(api, ["parse", again]),
                  lambda res: checks.same_bytes(first[0], res.stdout), 1))
    return Plan(ops)


def _rank_check(report: dict, code: int, n: int, a, b) -> list[str]:
    problems = checks.rank_matches(report.get("rank", -1), a, b)
    if code != (0 if report.get("rank") == n else 2):
        problems.append(f"exit code {code} with rank {report.get('rank')} of {n}")
    return problems


def _bracket_check(api, ext_text: str, n: int, fn, coeffs, rng) -> list[str]:
    """[F, G] and [F, [F, G]] of the extension's drift F and channel G
    against central differences of the numpy right-hand side."""
    aff = api.dsl.to_affine(api.dsl.parse(ext_text))
    drift, channel = aff.drift, aff.channels[0]

    def f_num(p):
        return np.array(list(fn(coeffs, p[:n], p[n])) + [0.0])

    def g_num(p):
        return np.eye(n + 1)[n]

    fg = api.fields.lie_bracket(drift, channel)
    ffg = api.fields.lie_bracket(drift, fg)

    def fg_values(p):
        return api.fields.eval_vf(fg, p)

    problems = []
    for _ in range(2):
        p = rng.uniform(-1.0, 1.0, n + 1)
        problems += checks.bracket_matches(fg_values(p), checks.fd_bracket(f_num, g_num, p))
        problems += checks.bracket_matches(api.fields.eval_vf(ffg, p), checks.fd_bracket(f_num, fg_values, p))
    return problems


WORKLOADS = {"coverage": coverage, "trajectory": trajectory, "symbolic": symbolic}
