"""The byte goldens at a second numpy SIMD dispatch level.

numpy picks its SIMD kernels per process, and `NPY_DISABLE_CPU_FEATURES`
turns the AVX-512 ones off.  np.sin, np.cos, products and squares round
the same on the AVX2 path, but np.exp, other integer powers and
np.geomspace need not, so a golden can hold on one CPU and fail on
another.  This reruns `tests/test_goldens.py` in a child process with the
AVX-512 features disabled and expects every hash to match.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

AVX512 = ("AVX512_SPR", "AVX512_ICL", "X86_V4")
TESTS = Path(__file__).resolve().parent


@pytest.mark.skipif(
    not all(f in __cpu_dispatch__ and __cpu_features__.get(f) for f in AVX512),
    reason="numpy takes no AVX-512 path on this host, so there is nothing to disable",
)
def test_goldens_hold_with_avx512_disabled():
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(AVX512))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(TESTS / "test_goldens.py")],
        cwd=TESTS.parent, env=env, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]
