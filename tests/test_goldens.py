"""Byte-level goldens of the sampler, the integrator, the symbolic
commands and the CLI outputs built on them.

Each case runs a small version of an acceptance or CLI run and compares
the sha256 of its output bytes (packed bitmaps, endpoint arrays, CSV and
JSON text) with the hash in `GOLDENS`.  A change to the stepping or
rewriting code that is meant to keep results must leave every hash as it
is; a change that moves one must say which and why.

The hashes were taken with numpy `NUMPY_VERSION` on x86-64 Linux.  Another
numpy build may round np.sin and np.cos differently, so on a mismatch
check the numpy version first.  Within one build, np.exp rounds by
numpy's SIMD dispatch level; generated code computes integer powers
with squares and products, so they do not.  The cases here keep their
hashes at both levels of an AVX-512 host, which `tests/test_dispatch.py`
checks by rerunning this file with the AVX-512 paths disabled.
"""

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import CUBIC_TEXT, HEADING_TEXT, chain_text

from ctrlkit import cli, parse, serialize
from ctrlkit.expr import Constant, Mul, Pow, Sin, StateVar, Sub, compile_components
from ctrlkit.fields import VectorField
from ctrlkit.flows import BlowUpError, PiecewiseControl, flow_endpoint, integrate, rk4_rows
from ctrlkit.reach import (
    ReachConfig,
    _draw_controls,
    bounded_reach_check,
    coverage_compare,
    sample_reach,
    two_point_steer,
)
from ctrlkit.transform import extend

NUMPY_VERSION = "2.4.6"

GOLDENS = {
    "compare_heading": "1eb14bc2a540d8640fde027db9b65180f67b9e82958621b8880f4a7c5b6f6f1f",
    "compare_cubic": "cd5e9f413372551e22f84a2f00329f0a02f75ce4f26e21de57323afb509615fe",
    "drop_heavy_reach": "cbaa4ba6da66e8117634a8dbb65abfc74b9b88c07c9e28d35c3762783ebd7e0e",
    "bounded_check": "e07bcd54ea873ac8f9ba46a0c404f96b155bcc8181c74866c24b3ccbd0414871",
    "steer_cubic": "6a7d22c7a68facb73282e7fd7b08ce2050c8b17142717afd3d2e77d151ab005e",
    "simulate_heading": "4c86ea1335a4180b7e8559312ff882c7aeb0cf6c88d7a34cadbdf0d99340f6f7",
    "simulate_double": "3768f1e670227c0a893853054b32168e65e764ddc84d3ed947aeb67418c62ac8",
    "realize_plan": "da0db03ddbf662c402953db16769aef6182100196a86d6d3df23a8a425303eef",
    "flow_endpoint": "a52f8500ac8c103ab4424eb99d22ab1343fce36546e91a6ae6ede64aa29063a8",
    "blowup_time": "958cdf62a5e5de9188ae6eacece19a0d3735032e916cb5a7187128dee56d1aa7",
    "larc_depth6": "e766b22cef8a89d41f1481df69999ce22dfcc860c4c58813dc78738faf517d12",
    "larc_rational": "a1f559244349f157e0daf423f5906538fb0f8493c73acbdab4747ee3d4fa4b9c",
    "kalman_report": "52981190e36bff4c8a573b3b80aaaa7bf632abf06d488b2e234d3986b7126e97",
    "reduce_chain5": "afb4fbc217a8a4f9177c2057de186eda117ec934acdaeeb8d16b2bb52da33c4f",
    "extend_heading": "04745546c82d728fa2f4de7b4b494a4befa71a3bb18f58279055c8d34f44040b",
    "round_trip": "7c1b7e9c022d6f597d6179b406443a0f8425a4c1b2913c4faafb502ca980a6cd",
}

DOUBLE_TEXT = "system double\nstates x1 x2\ninputs u\ndx1 = x2\ndx2 = u\n"
BOOM_TEXT = "system boom\nstates x1\ninputs u\ndx1 = x1^2 + u\n"
TRI_TEXT = "system tri\nstates x1 x2 x3\ninputs u\ndx1 = x2 - 0.5*x3\ndx2 = -x1 + 2*x3\ndx3 = x1 - x3 + u\n"
FIXTURES = (HEADING_TEXT, CUBIC_TEXT, *(chain_text(n) for n in range(3, 8)))
CONTROL = [
    {"duration": 0.7, "values": [1.3]},
    {"duration": 1.15, "values": [-2.0]},
    {"duration": 0.45, "values": [0.2]},
    {"duration": 0.333, "values": [4.5]},
]
PLAN = {
    "start": [0.0, 0.0, 0.0, 0.0],
    "segments": [
        {"kind": "jump", "channel": 0, "displacement": 1.0},
        {"kind": "drift", "duration": 0.5, "values": [1.0]},
        {"kind": "jump", "channel": 0, "displacement": -1.5},
        {"kind": "drift", "duration": 0.4, "values": [-0.5]},
    ],
}


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            part = np.packbits(part).tobytes() if part.dtype == bool else part.tobytes()
        elif isinstance(part, str):
            part = part.encode()
        else:
            part = repr(part).encode()
        h.update(part)
    return h.hexdigest()


def _compare(sys_, x0, cfg, cfg_ext) -> str:
    """Both sampler runs of a compare on their own full grids, and the
    report that compare builds from them."""
    record = extend(sys_)
    x0e = np.concatenate([x0, np.zeros(sys_.m)])
    own = sample_reach(sys_, x0, cfg)
    ext = sample_reach(record.extended, x0e, cfg_ext)
    report = coverage_compare(sys_, x0, cfg, cfg_ext)
    return _sha(own.bitmap, ext.bitmap, json.dumps(report.to_json(), sort_keys=True))


def compare_heading(tmp_path) -> str:
    cfg = ReachConfig(
        horizon=3.0, segments=6, input_box=((-10.0, 10.0),), samples=2000,
        window=((-2.0, 2.0), (-2.0, 2.0)), resolution=40, seed=2026, step=2e-2,
    )
    cfg_ext = ReachConfig(
        horizon=3.0, segments=6, input_box=((-6.0, 6.0),), samples=2000,
        window=((-2.0, 2.0), (-2.0, 2.0), (-18.0, 18.0)), resolution=(40, 40, 10),
        seed=901, step=2e-2,
    )
    return _compare(parse(HEADING_TEXT), np.zeros(2), cfg, cfg_ext)


def compare_cubic(tmp_path) -> str:
    cfg = ReachConfig(
        horizon=4.0, segments=8, input_box=((-1.0, 1.0),), samples=2000,
        window=((-1.0, 1.0),) * 3, resolution=16, seed=2026, step=2e-2,
    )
    cfg_ext = ReachConfig(
        horizon=4.0, segments=8, input_box=((-2.0, 2.0),), samples=2000,
        window=((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0), (-8.0, 8.0)),
        resolution=(16, 16, 16, 8), seed=901, step=2e-2,
    )
    return _compare(parse(CUBIC_TEXT), np.zeros(3), cfg, cfg_ext)


def drop_heavy_reach(tmp_path) -> str:
    """About half the rows of `dx1 = x1^2 + u` from 0.5 escape."""
    boom = parse(BOOM_TEXT)
    cfg = ReachConfig(
        horizon=3.0, segments=3, input_box=((-1.5, 1.5),), samples=2000,
        window=((-2.0, 6.0),), resolution=16, seed=1, step=1e-2,
    )
    x0 = np.array([0.5])
    est = sample_reach(boom, x0, cfg)
    assert 500 < est.dropped < 1500
    durations, values = _draw_controls(cfg.seed, cfg.samples, cfg.segments, cfg.horizon, cfg.input_box)
    f = compile_components(boom.rhs, 1, 1)
    ends, bad_at = rk4_rows(f, np.tile(x0, (cfg.samples, 1)), durations, values, cfg.step)
    return _sha(est.bitmap, est.dropped, ends, bad_at >= 0)


def bounded_check(tmp_path) -> str:
    cfg = ReachConfig(
        horizon=3.0, segments=6, input_box=((-10.0, 10.0),), samples=2000,
        window=((-2.0, 2.0), (-2.0, 2.0)), resolution=40, seed=2026, step=2e-2,
    )
    rep = bounded_reach_check(
        parse(HEADING_TEXT), [0.0, 0.0], ((-math.pi, math.pi),), cfg, rate_box=((-2.0, 2.0),)
    )
    proj = rep.extended_projected
    return _sha(rep.original.bitmap, proj.bitmap, rep.rejected, proj.retained, proj.dropped)


def steer_cubic(tmp_path) -> str:
    cfg = ReachConfig(
        horizon=6.0, segments=6, input_box=((-2.0, 2.0),), samples=2000,
        window=((-2.0, 2.0),) * 3, resolution=4, seed=2026, step=1e-2,
    )
    res = two_point_steer(parse(CUBIC_TEXT), [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], cfg, 1e-2)
    return _sha(res.success, res.control.segments, res.distance, res.evaluations)


def _run_cli(*argv) -> None:
    assert cli.main([str(a) for a in argv]) == 0


def _simulate(tmp_path, text) -> str:
    (tmp_path / "sys.txt").write_text(text)
    (tmp_path / "ctrl.json").write_text(json.dumps(CONTROL))
    out = tmp_path / "traj.csv"
    _run_cli("simulate", tmp_path / "sys.txt", "--x0=-0.25,0.5",
             "--control", tmp_path / "ctrl.json", "--out", out)
    return _sha(out.read_text())


def simulate_heading(tmp_path) -> str:
    return _simulate(tmp_path, HEADING_TEXT)


def simulate_double(tmp_path) -> str:
    return _simulate(tmp_path, DOUBLE_TEXT)


def realize_plan(tmp_path) -> str:
    """The criterion 4 plan on cubic: ideal endpoint and four gains."""
    (tmp_path / "sys.txt").write_text(CUBIC_TEXT)
    (tmp_path / "plan.json").write_text(json.dumps(PLAN))
    out = tmp_path / "table.csv"
    _run_cli("realize", tmp_path / "sys.txt", "--plan", tmp_path / "plan.json", "--out", out)
    return _sha(out.read_text())


def flow_endpoint_case(tmp_path) -> str:
    pend = VectorField((StateVar(1), Mul(Constant(-1.0), Sin(StateVar(0)))), 2)
    fwd = flow_endpoint(pend, [0.4, -0.3], 0.7)
    back = flow_endpoint(pend, fwd, -0.7)
    logistic = VectorField((Sub(StateVar(0), Pow(StateVar(0), 2)),), 1)
    coarse = flow_endpoint(logistic, [0.1], 2.0, step=0.02)
    return _sha(fwd, back, coarse)


def blowup_time(tmp_path) -> str:
    boom = parse("system boom\nstates x\ndx = x^2\n")
    with pytest.raises(BlowUpError) as exc_info:
        integrate(boom, [1.0], PiecewiseControl(((2.0, ()),)))
    return _sha(exc_info.value.time)


def _cli_outputs(tmp_path, text, command, *flags) -> tuple:
    """Exit code and the output files, by name, that the manifest of one
    CLI run on `text` lists: a run that writes no report hashes none, even
    where an earlier run left one."""
    (tmp_path / "sys.txt").write_text(text)
    manifest = tmp_path / "run.manifest.json"
    code = cli.main([str(a) for a in (command, tmp_path / "sys.txt", *flags, "--out", tmp_path / "out",
                                      "--manifest", manifest)])
    outputs = sorted(json.loads(manifest.read_text())["outputs"])
    return (code, *[Path(p).read_text() for p in outputs])


def larc_depth6(tmp_path) -> str:
    """`check --method larc --depth 6` on the extension of each fixture."""
    parts = []
    for text in FIXTURES:
        ext = serialize(extend(parse(text)).extended)
        parts += _cli_outputs(tmp_path, ext, "check", "--method", "larc", "--depth", 6)
    return _sha(*parts)


# one-input systems, not affine in the input, each with a rational term
# whose denominator the span probes never meet exactly
RATIONAL = (
    "dx1 = {0}*x2/(1 + x1^2) + {1}*sin(u)\ndx2 = {2}*u^3 - x1",
    "dx1 = {0}*x2 + u^2/({1} + x1^2)\ndx2 = {2}*x1*cos(u)",
    "dx1 = x2\ndx2 = {0}*x3/(x1 - {1})\ndx3 = {2}*sin(u) + u^3",
)
# no span probe evaluates the drift of its extension, so larc raises
UNDEFINED_TEXT = "system undefined\nstates x1\ninputs u\ndx1 = sin(exp(x1^2 + 1000)) * u^2\n"


def larc_rational(tmp_path) -> str:
    """`check --method larc --depth 5` on the extension of seeded random
    systems from `RATIONAL`, each at a seeded point, on one whose check
    raises, and at depth 7, where the node budget truncates it, on one
    of `RATIONAL`."""
    rng = np.random.default_rng(0x5A7)
    parts = []
    for k, body in enumerate(RATIONAL):
        coeffs = [f"{v:.4f}" for v in rng.uniform(0.5, 2.0, 3)]
        n = body.count("dx")
        states = " ".join(f"x{i}" for i in range(1, n + 1))
        text = f"system rational{k}\nstates {states}\ninputs u\n" + body.format(*coeffs) + "\n"
        ext = serialize(extend(parse(text)).extended)
        point = ",".join(f"{v:.6f}" for v in rng.uniform(-1.0, 1.0, n + 1))
        parts += _cli_outputs(tmp_path, ext, "check", "--method", "larc", "--depth", 5, f"--point={point}")
    # the error message is its report
    with contextlib.redirect_stderr(io.StringIO()) as err:
        parts += _cli_outputs(tmp_path, serialize(extend(parse(UNDEFINED_TEXT)).extended),
                              "check", "--method", "larc", "--depth", 5)
    text = "system truncated\nstates x1 x2\ninputs u\n" + RATIONAL[0].format(1.3, 0.8, 1.7) + "\n"
    parts += _cli_outputs(tmp_path, serialize(extend(parse(text)).extended), "check", "--method", "larc", "--depth", 7)
    assert json.loads(parts[-1])["truncated"]
    return _sha(*parts, err.getvalue())


def kalman_report(tmp_path) -> str:
    return _sha(*_cli_outputs(tmp_path, TRI_TEXT, "check", "--method", "kalman"))


def reduce_chain5(tmp_path) -> str:
    return _sha(*_cli_outputs(tmp_path, chain_text(5), "reduce"))


def extend_heading(tmp_path) -> str:
    return _sha(*_cli_outputs(tmp_path, HEADING_TEXT, "extend"))


def round_trip(tmp_path) -> str:
    return _sha(*[serialize(parse(text)) for text in FIXTURES])


CASES = {
    "compare_heading": compare_heading,
    "compare_cubic": compare_cubic,
    "drop_heavy_reach": drop_heavy_reach,
    "bounded_check": bounded_check,
    "steer_cubic": steer_cubic,
    "simulate_heading": simulate_heading,
    "simulate_double": simulate_double,
    "realize_plan": realize_plan,
    "flow_endpoint": flow_endpoint_case,
    "blowup_time": blowup_time,
    "larc_depth6": larc_depth6,
    "larc_rational": larc_rational,
    "kalman_report": kalman_report,
    "reduce_chain5": reduce_chain5,
    "extend_heading": extend_heading,
    "round_trip": round_trip,
}


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_golden(tmp_path, name):
    got = CASES[name](tmp_path)
    assert got == GOLDENS[name], (
        f"{name}: sha256 {got}, golden {GOLDENS[name]} "
        f"(taken with numpy {NUMPY_VERSION}, running {np.__version__})"
    )
