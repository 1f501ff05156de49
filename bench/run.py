"""Run one benchmark workload against the ctrlkit sources next to this
directory and print its metrics as one JSON line.

    python3 bench/run.py --workload coverage --seed 1 --seconds 40 --trace 0

The run is one process, one client and a closed loop: each operation
starts when the previous one ends.  Times are reported in reference
seconds: wall time scaled by the host-speed calibration of
calibration.py, sampled around and during each operation.  Set-up (a fresh import of ctrlkit,
input generation, input files) is repeated SETUP_REPEATS times and its
median reported.  Then whole rounds of the workload's operations run
until `--seconds` have passed; every output is checked after its
operation, outside the timed part.  Rounds run while the next one would
still end within `--seconds`, so a run measures about that long.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced rounds and reports the per-layer metrics of the traced ones,
per round, with the tracing overhead.  See README.md.
"""

from __future__ import annotations

import os

# pin BLAS before numpy is imported anywhere
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("coverage", "trajectory", "symbolic"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _run_round(plan, cal, tracer):
    """Run every operation once.  Returns op times in reference seconds,
    works, failures and check problems."""
    times, works, results, problems, failed = [], [], {}, [], 0
    for op in plan.ops:
        with cal.span() as span:
            if tracer is not None:
                tracer.active = True
            try:
                value, error = op.run(), None
            except Exception as exc:  # a failed operation is counted, not fatal
                value, error = None, exc
            if tracer is not None:
                tracer.active = False
        times.append(span.seconds)
        works.append(op.work)
        if error is not None or (op.expect_code is not None and value.code != op.expect_code):
            failed += 1
            continue
        results[op.label] = value
        problems += [f"{op.label}: {p}" for p in op.check(value)]
    problems += plan.round_check(results)
    return times, works, failed, problems


def _measure(plan, seconds: float, cal, tracer=None) -> dict:
    """Whole rounds while the next one, as long as the last, still ends
    within `seconds`; at least one round, and with a tracer at least one
    untraced and one traced round, alternating."""
    rounds = {False: [], True: []}
    op_times, work, attempted, failed, problems = [], 0.0, 0, 0, []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds[False]) > len(rounds[True])
        round_start = time.perf_counter()
        times, works, f, p = _run_round(plan, cal, tracer if traced else None)
        rounds[traced].append(sum(times))
        if not traced:
            op_times += times
            work += sum(works)
        attempted += len(times)
        failed += f
        problems += p
        now = time.perf_counter()
        if (now - start) + (now - round_start) > seconds and (tracer is None or rounds[True]):
            break
    return dict(rounds=rounds, op_times=op_times, work=work,
                attempted=attempted, failed=failed, problems=problems)


def main(argv=None) -> int:
    args = _args(argv)
    src = ROOT / "src"
    if not (src / "ctrlkit" / "__init__.py").is_file():
        print(f"error: no ctrlkit sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import calibration
    import tracing
    import workloads

    out_dir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    try:
        cal = calibration.Calibrator()
        setup_times = []
        for k in range(SETUP_REPEATS):
            with cal.span() as span:
                api = workloads.import_ctrlkit(src)
                plan = workloads.WORKLOADS[args.workload](args.seed, out_dir / f"setup{k}", api)
            setup_times.append(span.seconds)

        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        try:
            m = _measure(plan, args.seconds, cal, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    problems = m["problems"] + cal.problems
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        plain, traced = statistics.median(m["rounds"][False]), statistics.median(m["rounds"][True])
        values = tracer.metrics(len(m["rounds"][True]), statistics.median(cal.factors))
        values["trace.overhead_s"] = traced - plain
        values["trace.overhead_ratio"] = traced / plain - 1.0
        for spec in tracer.missing:
            print(f"trace: {spec} not found, its metric reads 0", file=sys.stderr)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in tracing.LAYER_METRICS.items()}
    else:
        op_total = sum(m["op_times"])
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "run_s": {"value": statistics.median(m["rounds"][False]), "unit": "s"},
            "op_p50_s": {"value": statistics.median(m["op_times"]), "unit": "s"},
            "work_per_s": {"value": m["work"] / op_total, "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"},
        }
    rounds = len(m["rounds"][False]) + len(m["rounds"][True])
    print(f"{args.workload} seed {args.seed}: {rounds} rounds, {m['attempted']} operations, "
          f"{m['failed']} failed, {len(problems)} check problems")
    print(json.dumps({
        "correct": not problems,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
