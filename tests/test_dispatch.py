"""Bytes across numpy SIMD dispatch levels and glibc libm variants.

numpy picks its SIMD kernels per process, and `NPY_DISABLE_CPU_FEATURES`
turns some of them off.  Products and squares round the same on every
path.  np.exp need not, so a golden can hold on one CPU and fail on
another.  np.sin and np.cos keep their bits across numpy's levels
because they call libm, but glibc picks its libm variant per CPU too:
with `GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA,-AVX` it takes the
non-FMA code, and 144 of 200 000 np.sin and 147 np.cos values on
[-30, 30] change bits (110 `**` results and 130 math.exp values do too).
Generated code computes an integer power with squares and products, so
powers round the same everywhere.  These tests run child processes: one
reruns `tests/test_goldens.py` with the AVX-512 features off, one with
glibc's non-FMA libm, and each expects every hash to match; one checks
that the bytes of a generated RK4 step on a polynomial system are the
same at three levels; one checks, at each of these settings, that runs
of few rows on Python floats have the bytes of the same runs on numpy
arrays, which holds only while math.sin and math.cos round as np.sin and
np.cos do in the same process, and while np.exp of a float rounds as
np.exp of an array does.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from conftest import CUBIC_TEXT, HEADING_TEXT

AVX512 = ("AVX512_SPR", "AVX512_ICL", "X86_V4")
NON_FMA = "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX"
# an argument whose np.sin ends in ...505p-3 with FMA and ...506p-3 without
SIN_PROBE = -25.336530751143048
TESTS = Path(__file__).resolve().parent


def _run_goldens(**env):
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(TESTS / "test_goldens.py")],
        cwd=TESTS.parent, env=dict(os.environ, **env), capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]


@pytest.mark.skipif(
    not all(f in __cpu_dispatch__ and __cpu_features__.get(f) for f in AVX512),
    reason="numpy takes no AVX-512 path on this host, so there is nothing to disable",
)
def test_goldens_hold_with_avx512_disabled():
    _run_goldens(NPY_DISABLE_CPU_FEATURES=" ".join(AVX512))


def test_goldens_hold_with_glibc_non_fma_libm():
    probe = subprocess.run(
        [sys.executable, "-c", f"import numpy as np; print(float(np.sin({SIN_PROBE!r})).hex())"],
        env=dict(os.environ, GLIBC_TUNABLES=NON_FMA), capture_output=True, text=True, timeout=60,
    )
    assert probe.returncode == 0, probe.stderr[-2000:]
    if probe.stdout.strip() == float(np.sin(SIN_PROBE)).hex():
        pytest.skip("np.sin rounds the same in the child, so the tunable took no effect")
    _run_goldens(GLIBC_TUNABLES=NON_FMA)


STEP_HASHES = f"""
import hashlib
import numpy as np
from ctrlkit import parse
from ctrlkit.expr import compile_components
from ctrlkit.transform import extend

cubic = parse({CUBIC_TEXT!r})
for sys_ in (cubic, extend(cubic).extended):
    rng = np.random.default_rng(15)
    x = rng.uniform(-2.0, 2.0, size=(4096, sys_.n))
    u = rng.uniform(-2.0, 2.0, size=(4096, sys_.m))
    h = rng.uniform(1e-3, 2e-2, size=(4096, 1))
    step = compile_components(sys_.rhs, sys_.n, sys_.m).step(x, u, h)
    print(sys_.name, hashlib.sha256(step.tobytes()).hexdigest())
"""


@pytest.mark.skipif(
    not all(f in __cpu_dispatch__ for f in (*AVX512, "X86_V3")),
    reason="numpy on this host dispatches to no x86-64 levels above its baseline",
)
def test_cubic_step_bytes_are_the_same_at_three_dispatch_levels():
    """cubic holds x3^3 and u^3, and its extension the same powers of
    states.  Features this host lacks are already off, so naming them
    changes nothing there."""
    outputs = []
    for disabled in (None, AVX512, (*AVX512, "X86_V3")):
        env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
        if disabled:
            env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
        env["PYTHONPATH"] = os.pathsep.join([str(TESTS.parent / "src"), *filter(None, [env.get("PYTHONPATH")])])
        run = subprocess.run(
            [sys.executable, "-c", STEP_HASHES], env=env, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 0, run.stderr[-2000:]
        outputs.append(run.stdout)
    assert outputs[0].count("\n") == 2
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0], outputs


FLOAT_PATH = f"""
import hashlib
import numpy as np
from ctrlkit import flows, parse
from ctrlkit.expr import compile_components
from ctrlkit.reach import _draw_controls
from ctrlkit.transform import extend

cuts = (flows._FLOAT_ROWS, 0)  # each system on the float path, then on numpy's
systems = [extend(parse(text)).extended for text in ({HEADING_TEXT!r}, {CUBIC_TEXT!r})]
systems.append(parse("system grow\\nstates x1 x2\\ninputs u\\ndx1 = exp(x2) * sin(x1)\\ndx2 = u\\n"))
# the float loop raises at x2 = 0, which dx2 keeps, and those rows go on in f.scalars
systems.append(parse("system raises\\nstates x1 x2\\ninputs u\\ndx1 = (1/x2)^0 + sin(x1)\\ndx2 = u * x2\\n"))
for sys_ in systems:
    f = compile_components(sys_.rhs, sys_.n, sys_.m)
    durations, values = _draw_controls(15, 16, 6, 3.0, ((-3.0, 3.0),) * sys_.m)
    x0 = np.random.default_rng(15).uniform(-1.5, 1.5, size=(16, sys_.n))
    scalars, calls = f.scalars, []
    f.scalars = lambda *args: calls.append(1) or scalars(*args)
    if sys_.name == "raises":
        x0[::2, 1] = 0.0
    runs = []
    for cut in cuts:
        flows._FLOAT_ROWS = cut
        h = hashlib.sha256()
        x, bad_at = flows.rk4_rows(f, x0, durations, values, 1e-3, lambda k, xs: h.update(xs.tobytes()))
        runs.append((h.hexdigest(), x.tobytes(), bad_at.tolist()))
    assert runs[0] == runs[1] and bool(calls) == (sys_.name == "raises"), sys_.name
    print(sys_.name, runs[0][0])
"""


@pytest.mark.parametrize("env", [
    {},
    pytest.param({"NPY_DISABLE_CPU_FEATURES": " ".join(AVX512)}, marks=pytest.mark.skipif(
        not all(f in __cpu_dispatch__ for f in AVX512), reason="numpy has no AVX-512 kernels to disable")),
    {"GLIBC_TUNABLES": NON_FMA},
], ids=["default", "avx512 off", "non-FMA libm"])
def test_float_path_has_numpy_bytes_in_a_child(env):
    """heading_ext (sin and cos of a state), cubic_ext (powers), a
    system with exp of a state and one whose float loop raises, 16 rows
    each: the float path's visited blocks, endpoints and blow-up steps
    equal numpy's in the child, also where f.scalars steps a row."""
    env = dict({k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}, **env)
    env["PYTHONPATH"] = os.pathsep.join([str(TESTS.parent / "src"), *filter(None, [env.get("PYTHONPATH")])])
    run = subprocess.run([sys.executable, "-c", FLOAT_PATH], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.count("\n") == 4
