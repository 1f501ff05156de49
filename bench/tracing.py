"""Per-layer tracing of ctrlkit from outside the package.

Each traced callable is replaced, in every ctrlkit module that holds a
reference to it, by a wrapper that times the call on a span stack.  Code
under src/ stays as it is.  Callables are grouped by layer metric; a
group is timed at its outermost call only.  While that call runs, the
group's original callables are put back in their defining modules, so
recursion (`eval_expr`, `simplify`, `_diff`) and calls inside the group
run unwrapped and cost no tracing overhead.  A target that no longer exists is reported as
missing instead of failing the run.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

import numpy as np

# (group, "module:qualified name").  Groups listed twice sum both
# callables; nested calls inside one group are counted once.
TARGETS = (
    ("reach.draw", "ctrlkit.reach:_draw_controls"),
    ("reach.chunk", "ctrlkit.reach:_run_chunk"),
    ("reach.grid", "ctrlkit.reach:_Grid.flat_index"),
    ("reach.grid", "ctrlkit.reach:_Grid.commit"),
    ("reach.cells_csv", "ctrlkit.reach:cells_to_csv"),
    ("flows.rk4", "ctrlkit.flows:rk4_step"),
    ("flows.integrate", "ctrlkit.flows:integrate"),
    ("flows.csv", "ctrlkit.flows:save_trajectory_csv"),
    ("flows.csv", "ctrlkit.flows:trajectory_to_csv"),
    ("expr.compile", "ctrlkit.expr:compile_components"),
    ("expr.eval", "ctrlkit.expr:eval_expr"),
    ("expr.simplify", "ctrlkit.expr:simplify"),
    ("expr.diff", "ctrlkit.expr:diff"),
    ("expr.diff", "ctrlkit.expr:_diff"),
    ("fields.bracket", "ctrlkit.fields:lie_bracket"),
    ("certificates.larc", "ctrlkit.certificates:larc"),
    ("certificates.linear", "ctrlkit.certificates:linear_of"),
    ("certificates.linear", "ctrlkit.certificates:kalman_rank"),
    ("dsl.parse", "ctrlkit.dsl:parse"),
    ("dsl.serialize", "ctrlkit.dsl:serialize"),
    ("dsl.to_affine", "ctrlkit.dsl:to_affine"),
    ("transform.extend", "ctrlkit.transform:extend"),
    ("transform.reduce", "ctrlkit.transform:reduce_integrator"),
    ("cli", "ctrlkit.cli:main"),
)

# per_layer metric name -> unit; the order is the order of the report
LAYER_METRICS = {
    "reach.draw_s": "s",
    "reach.chunk_self_s": "s",
    "reach.grid_s": "s",
    "reach.rows_stepped": "count",
    "reach.rows_useful": "count",
    "reach.step_useful_ratio": "ratio",
    "reach.cells_csv_s": "s",
    "flows.rk4_s": "s",
    "flows.rk4_calls": "count",
    "flows.integrate_s": "s",
    "flows.integrate_calls": "count",
    "flows.csv_s": "s",
    "expr.compile_s": "s",
    "expr.compile_calls": "count",
    "expr.eval_s": "s",
    "expr.eval_calls": "count",
    "expr.simplify_s": "s",
    "expr.diff_s": "s",
    "fields.bracket_s": "s",
    "fields.bracket_calls": "count",
    "certificates.larc_s": "s",
    "certificates.larc_candidates": "count",
    "certificates.larc_kept": "count",
    "certificates.larc_kept_ratio": "ratio",
    "certificates.linear_s": "s",
    "dsl.parse_s": "s",
    "dsl.serialize_s": "s",
    "dsl.to_affine_s": "s",
    "transform.extend_s": "s",
    "transform.reduce_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.missing": "count",
}


def _resolve(spec: str):
    """(owner, attribute) for "module:name" or "module:Class.name"."""
    module_name, qual = spec.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    if not hasattr(owner, attr):
        raise AttributeError(spec)
    return owner, attr


def _sites(owner, attr, original):
    """Every place the callable is looked up: a class attribute, or each
    ctrlkit module that imported the function by name."""
    if isinstance(owner, type):
        return [(owner, attr)]
    sites = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "ctrlkit" or name.startswith("ctrlkit.")):
            continue
        for key, value in vars(module).items():
            if value is original:
                sites.append((module, key))
    return sites


def _useful_substeps(args) -> int:
    # _run_chunk(f, x0, durations, values, step, grids): each segment
    # needs ceil(d / step) substeps, the count `integrate` takes
    durations, step = np.asarray(args[2]), float(args[4])
    return int(np.maximum(1, np.ceil(durations / step - 1e-12)).sum())


class Tracer:
    """Spans and counters of the ctrlkit layers, recorded while `active`."""

    def __init__(self):
        self.active = False
        self.time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[list] = []  # [group, time covered by child spans]
        self._sites: list[tuple] = []  # (owner, attr, original) of every patched name
        self._groups: dict[str, list] = defaultdict(list)  # group -> [(owner, attr, original, wrapper)]

    def install(self):
        for group, spec in TARGETS:
            try:
                owner, attr = _resolve(spec)
            except (ImportError, AttributeError):
                self.missing.append(spec)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(group, original)
            for site_owner, site_attr in _sites(owner, attr, original):
                setattr(site_owner, site_attr, wrapper)
                self._sites.append((site_owner, site_attr, original))
            # recursion and calls within a group look the name up where
            # it is defined; only that site is unwrapped during a call
            self._groups[group].append((owner, attr, original, wrapper))

    def uninstall(self):
        for owner, attr, original in self._sites:
            setattr(owner, attr, original)
        self._sites.clear()
        self._groups.clear()

    def _wrap(self, group: str, original):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            tracer._before(group, args)
            sites = tracer._groups[group]
            for owner, attr, orig, _ in sites:
                setattr(owner, attr, orig)
            frame = [group, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._stack.pop()
                for owner, attr, _, wrapper in sites:
                    setattr(owner, attr, wrapper)
                tracer.time[group] += elapsed
                tracer.self_time[group] += elapsed - frame[1]
                tracer.calls[group] += 1
                if tracer._stack:
                    tracer._stack[-1][1] += elapsed
            tracer._after(group, args, result)
            return result

        traced.__wrapped__ = original
        return traced

    def _before(self, group, args):
        if group == "reach.chunk":
            self.counts["reach.rows_useful"] += _useful_substeps(args)
        elif group == "flows.rk4" and self._stack and self._stack[-1][0] == "reach.chunk":
            self.counts["reach.rows_stepped"] += int(np.shape(args[1])[0])
        elif group == "fields.bracket" and any(f[0] == "certificates.larc" for f in self._stack):
            self.counts["certificates.larc_candidates"] += 1

    def _after(self, group, args, result):
        if group == "certificates.larc":
            # the report lists the drift and each channel before any bracket
            aff = args[0]
            self.counts["certificates.larc_kept"] += len(result.formations) - 1 - aff.m

    def metrics(self, rounds: int, speed: float) -> dict[str, float]:
        """Per-layer figures per traced round, without the overhead;
        times are scaled by the run's host-speed factor `speed`."""
        t, c = self.time, self.counts
        ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
        raw = {
            "reach.draw_s": t["reach.draw"],
            "reach.chunk_self_s": self.self_time["reach.chunk"],
            "reach.grid_s": t["reach.grid"],
            "reach.rows_stepped": c["reach.rows_stepped"],
            "reach.rows_useful": c["reach.rows_useful"],
            "reach.cells_csv_s": t["reach.cells_csv"],
            "flows.rk4_s": t["flows.rk4"],
            "flows.rk4_calls": self.calls["flows.rk4"],
            "flows.integrate_s": t["flows.integrate"],
            "flows.integrate_calls": self.calls["flows.integrate"],
            "flows.csv_s": t["flows.csv"],
            "expr.compile_s": t["expr.compile"],
            "expr.compile_calls": self.calls["expr.compile"],
            "expr.eval_s": t["expr.eval"],
            "expr.eval_calls": self.calls["expr.eval"],
            "expr.simplify_s": t["expr.simplify"],
            "expr.diff_s": t["expr.diff"],
            "fields.bracket_s": t["fields.bracket"],
            "fields.bracket_calls": self.calls["fields.bracket"],
            "certificates.larc_s": t["certificates.larc"],
            "certificates.larc_candidates": c["certificates.larc_candidates"],
            "certificates.larc_kept": c["certificates.larc_kept"],
            "certificates.linear_s": t["certificates.linear"],
            "dsl.parse_s": t["dsl.parse"],
            "dsl.serialize_s": t["dsl.serialize"],
            "dsl.to_affine_s": t["dsl.to_affine"],
            "transform.extend_s": t["transform.extend"],
            "transform.reduce_s": t["transform.reduce"],
            "cli.self_s": self.self_time["cli"],
        }
        out = {name: value * (speed if name.endswith("_s") else 1.0) / rounds for name, value in raw.items()}
        out["reach.step_useful_ratio"] = ratio(c["reach.rows_useful"], c["reach.rows_stepped"])
        out["certificates.larc_kept_ratio"] = ratio(
            c["certificates.larc_kept"], c["certificates.larc_candidates"]
        )
        out["trace.missing"] = len(self.missing)
        return out
