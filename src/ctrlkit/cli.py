"""Command-line front end.

Every run writes a manifest JSON next to its primary output (or next to
the input when nothing else is written) recording the tool version, the
argv, SHA-256 hashes of the input files, the output paths, and the seed
when one is in play.  Deterministic commands rerun byte-identically from
the same inputs.

Exit codes: 0 success, 1 input error, 2 structured negative verdict
(not controllable, not linear, inconsistent coverage), 3 numerical
blow-up.
"""

from __future__ import annotations

import argparse
import hashlib
import re
import sys
import time
from datetime import datetime, timezone
from functools import cache

import numpy as np

from . import __version__
from .certificates import NotLinearReport, kalman_report, larc, larc_point, linear_of
from .dsl import NotAffineReport, parse, serialize, to_affine
from .expr import fold
from .flows import (
    DEFAULT_STEP,
    BlowUpError,
    ideal_plan_endpoint,
    integrate,
    load_control,
    plan_from_json,
    realize_sweep,
    trajectory_to_csv,
)
from .reach import ReachConfig, cells_to_csv, coverage_compare, estimate_summary, sample_reach
from .records import BAD_RECORD, csv_text, finite_floats, read_json, write_json
from .transform import certificate_to_json, extend, extension_to_json, reduce_integrator


class _InputError(ValueError):
    """User-facing problem with arguments or input files."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 means a negative
    # verdict here, so remap to the input-error code.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _note_input(manifest: dict, path: str):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    manifest["inputs"][path] = h.hexdigest()


def _write_text(manifest: dict, path: str, text: str):
    with open(path, "w") as fh:
        fh.write(text)
    manifest["outputs"].append(path)


def _write_json(manifest: dict, path: str, data):
    write_json(path, data)
    manifest["outputs"].append(path)


def _read_system(args, manifest):
    _note_input(manifest, args.file)
    with open(args.file) as fh:
        sys_ = parse(fh.read())
    for e in sys_.rhs:  # bad input on every subcommand, also on those that compile nothing
        fold(e)
    return sys_


def _load_json(manifest: dict, path: str, what: str):
    _note_input(manifest, path)
    try:
        return read_json(path)
    except ValueError as exc:
        raise _InputError(f"{what} {path}: not valid JSON ({exc})")


def _reach_config(data, what: str) -> ReachConfig:
    if not isinstance(data, dict):
        raise _InputError(f"{what} must be a JSON object")
    try:
        return ReachConfig(**data)
    except BAD_RECORD as exc:
        raise _InputError(f"{what}: {exc}")


def _gain_sweep(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise _InputError(f"gain sweep must be lo:hi:steps, got {text!r}")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise _InputError(f"gain sweep must be lo:hi:steps, got {text!r}")
    if lo <= 0.0 or hi <= 0.0:
        raise _InputError("gains must be positive")
    if hi < lo or steps < 1:
        raise _InputError("gain sweep needs hi >= lo and at least one step")
    if steps == 1:
        return [lo]
    # Python floats round through libm, the same at every numpy SIMD level
    return [lo, *(lo * (hi / lo) ** (k / (steps - 1)) for k in range(1, steps - 1)), hi]


# --- commands --------------------------------------------------------------


def _cmd_parse(args, manifest) -> int:
    sys_ = _read_system(args, manifest)
    print(serialize(sys_), end="")
    return 0


def _cmd_extend(args, manifest) -> int:
    sys_ = _read_system(args, manifest)
    record = extend(sys_)
    _write_text(manifest, args.out, serialize(record.extended))
    cert_path = args.certificate or args.out + ".record.json"
    _write_json(manifest, cert_path, extension_to_json(record))
    print(f"extended {sys_.name!r}: {sys_.n}+{sys_.m} states, inputs {list(record.new_inputs)}")
    return 0


def _cmd_reduce(args, manifest) -> int:
    sys_ = _read_system(args, manifest)
    cert = reduce_integrator(sys_)
    _write_text(manifest, args.out, serialize(cert.reduced))
    _write_json(manifest, args.certificate or args.out + ".cert.json", certificate_to_json(cert))
    print(f"reduced {sys_.name!r} in {cert.count} steps: {sys_.n} -> {cert.reduced.n} states")
    return 0


def _cmd_check(args, manifest) -> int:
    sys_ = _read_system(args, manifest)
    out = args.out or args.file + ".report.json"
    if args.method == "larc":
        # bad input is reported as such before any verdict on the system
        point = [0.0] * sys_.n if args.point is None else finite_floats(args.point.split(","), "--point")
        point = larc_point(point, args.depth, sys_.n)
    model = to_affine(sys_)
    if args.method == "kalman" and not isinstance(model, NotAffineReport):
        model = linear_of(model)
    if isinstance(model, (NotAffineReport, NotLinearReport)):
        _write_json(manifest, out, {"method": args.method, **model.to_json()})
        print(str(model))
        return 2

    if args.method == "kalman":
        report = kalman_report(sys_.name, model)
        _write_json(manifest, out, {"method": "kalman", **report})
        rank, controllable = report["rank"], report["controllable"]
        print(f"{'controllable' if controllable else 'not controllable'} (rank {rank} of {sys_.n})")
        return 0 if controllable else 2

    report = larc(model, point, args.depth)
    _write_json(manifest, out, {"method": "larc", "system": sys_.name, **report.to_json()})
    state = "full rank" if report.full_rank else "rank deficient"
    print(f"{state}: rank {report.rank} of {sys_.n} at depth {report.depth}")
    return 0 if report.full_rank else 2


def _cmd_simulate(args, manifest) -> int:
    sys_ = _read_system(args, manifest)
    x0 = finite_floats(args.x0.split(","), "--x0")
    _note_input(manifest, args.control)
    ctrl = load_control(args.control)
    traj = integrate(sys_, x0, ctrl, step=args.step)
    _write_text(manifest, args.out, trajectory_to_csv(traj, sys_.states))
    end = ", ".join(f"{v:.6g}" for v in traj.endpoint)
    print(f"simulated {traj.times[-1]:.6g}s, {len(traj.times)} points, endpoint ({end})")
    return 0


def _cmd_reach(args, manifest) -> int:
    sys_ = _read_system(args, manifest)
    x0 = finite_floats(args.x0.split(","), "--x0")
    cfg = _reach_config(_load_json(manifest, args.config, "config"), "config")
    manifest["seed"] = cfg.seed
    est = sample_reach(sys_, x0, cfg)
    _write_text(manifest, args.out, cells_to_csv(est, sys_.states))
    summary_path = args.summary or args.out + ".summary.json"
    _write_json(manifest, summary_path, estimate_summary(est))
    print(f"coverage {est.coverage:.4f} ({est.retained} of {est.samples} kept, {est.dropped} dropped)")
    return 0


def _cmd_compare(args, manifest) -> int:
    sys_ = _read_system(args, manifest)
    x0 = finite_floats(args.x0.split(","), "--x0")
    cfg = _reach_config(_load_json(manifest, args.config, "config"), "config")
    cfg_ext = _reach_config(_load_json(manifest, args.config_ext, "extended config"), "extended config")
    manifest["seed"] = cfg.seed
    report = coverage_compare(sys_, x0, cfg, cfg_ext)
    _write_json(manifest, args.out, report.to_json())
    print(
        f"{report.verdict}: coverage {report.coverage_original:.4f} vs "
        f"{report.coverage_extended_projected:.4f} projected (threshold {report.threshold})"
    )
    return 0 if report.consistent else 2


def _cmd_realize(args, manifest) -> int:
    sys_ = _read_system(args, manifest)
    record = extend(sys_)
    start, plan = plan_from_json(_load_json(manifest, args.plan, "plan"))
    gains = _gain_sweep(args.gain_sweep)
    ideal = ideal_plan_endpoint(record, plan, start, step=args.step)

    if not plan.segments:
        _write_text(manifest, args.out, csv_text(["gain", "error"], [(gains[0], 0.0)]))
        print("empty plan, nothing to realize (error 0)")
        return 0

    # a 1-d norm per row: norm(..., axis=1) rounds differently
    errors = [float(np.linalg.norm(end - ideal)) for end in realize_sweep(record, plan, start, gains, step=args.step)]
    _write_text(manifest, args.out, csv_text(["gain", "error"], [*zip(gains, errors)]))
    print(f"{len(gains)} gains, final error {errors[-1]:.3e}")
    return 0


# --- wiring ----------------------------------------------------------------


@cache  # built once, on the first main call: in-process callers run many commands
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ctrlkit", description="Control-system toolkit: parse, transform, certify, simulate, explore.")
    parser.add_argument("--version", action="version", version=f"ctrlkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("file", help="system definition file")
        p.add_argument("--manifest", default=None, help="override manifest path")
        p.set_defaults(func=fn)
        return p

    add("parse", _cmd_parse, "validate a system file and echo its normalized form")

    p = add("extend", _cmd_extend, "append one integrator per input channel")
    p.add_argument("--out", required=True, help="output system file")
    p.add_argument("--certificate", default=None, help="extension record JSON path")

    p = add("reduce", _cmd_reduce, "strip pure-integrator states, with a replayable certificate")
    p.add_argument("--out", required=True, help="output system file")
    p.add_argument("--certificate", default=None, help="certificate JSON path")

    p = add("check", _cmd_check, "controllability / accessibility certificates")
    p.add_argument("--method", choices=("kalman", "larc"), required=True)
    p.add_argument("--point", default=None, help="comma-separated evaluation point (larc)")
    p.add_argument("--depth", type=int, default=4, help="bracket depth budget (larc)")
    p.add_argument("--out", default=None, help="report JSON path")

    p = add("simulate", _cmd_simulate, "integrate under a piecewise-constant control")
    p.add_argument("--x0", required=True, help="comma-separated initial state")
    p.add_argument("--control", required=True, help="control JSON file")
    p.add_argument("--step", type=float, default=DEFAULT_STEP)
    p.add_argument("--out", required=True, help="trajectory CSV path")

    p = add("reach", _cmd_reach, "Monte-Carlo reachable-window coverage")
    p.add_argument("--x0", required=True)
    p.add_argument("--config", required=True, help="sampling config JSON")
    p.add_argument("--out", required=True, help="visited-cell CSV path")
    p.add_argument("--summary", default=None, help="summary JSON path")

    p = add("compare", _cmd_compare, "coverage of a system vs its projected extension")
    p.add_argument("--x0", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--config-ext", dest="config_ext", required=True)
    p.add_argument("--out", required=True, help="report JSON path")

    p = add("realize", _cmd_realize, "realize a jump/drift plan on the extension, sweeping gains")
    p.add_argument("--plan", required=True, help="plan JSON file")
    p.add_argument("--gain-sweep", dest="gain_sweep", default="10:80:4", help="lo:hi:steps, geometric")
    p.add_argument("--step", type=float, default=DEFAULT_STEP)
    p.add_argument("--out", required=True, help="convergence table CSV path")
    return parser


def _glue_negative_vectors(argv: list[str]) -> list[str]:
    """Write `--x0 -0.36,0.5` as `--x0=-0.36,0.5`: argparse takes a value
    that starts with a minus and holds a comma for an option."""
    out = []
    for tok in argv:
        if out and out[-1] in ("--x0", "--point") and re.match(r"-[0-9.]", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _manifest_path(args, manifest) -> str:
    if getattr(args, "manifest", None):
        return args.manifest
    if manifest["outputs"]:
        return manifest["outputs"][0] + ".manifest.json"
    return args.file + ".manifest.json"


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(_glue_negative_vectors(argv))
    except SystemExit as exc:
        return int(exc.code or 0)

    started = time.monotonic()
    manifest = {
        "tool": "ctrlkit",
        "version": __version__,
        "command": args.command,
        "argv": argv,
        "inputs": {},
        "outputs": [],
        "seed": None,
    }
    try:
        code = args.func(args, manifest)
    except BlowUpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 3
    except (OSError, ValueError, OverflowError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    manifest["exit_code"] = code
    manifest["elapsed_seconds"] = time.monotonic() - started
    manifest["timestamp_utc"] = datetime.now(timezone.utc).isoformat()
    try:
        write_json(_manifest_path(args, manifest), manifest)
    except OSError as exc:
        print(f"warning: could not write manifest: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
