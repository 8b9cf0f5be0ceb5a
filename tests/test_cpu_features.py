"""Sweep bytes must not depend on the SIMD code numpy picks at run time.

numpy chooses among compiled kernels by the CPU features it detects, and
some kernels (`np.log` among them) round differently from others. The
log-cost golden sweeps are rerun in a subprocess with every AVX-512 kernel
disabled through `NPY_DISABLE_CPU_FEATURES`; their digests must not move.

OpenBLAS picks its own kernels by CPU as well, and `evaluate` sums latency
with `np.dot`. Under the AVX2 (`Haswell`) kernel, forced through
`OPENBLAS_CORETYPE`, five golden digests move: a known fault, kept as a
strict xfail until latency is summed in a kernel-independent order.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

import aggsim

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as _umath

TESTS = pathlib.Path(__file__).resolve().parent
SRC = pathlib.Path(aggsim.__file__).resolve().parent.parent

# dispatch targets this CPU has that use AVX-512 instructions
AVX512 = [
    name
    for name in _umath.__cpu_dispatch__
    if _umath.__cpu_features__.get(name)
    and (name.startswith("AVX512") or name == "X86_V4")
]
NO_AVX512 = {"NPY_DISABLE_CPU_FEATURES": " ".join(AVX512)}


def _run(*argv: str, **extra_env: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, **extra_env)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(TESTS), env.get("PYTHONPATH", "")]
    )
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True,
        timeout=300,
    )


@pytest.mark.skipif(not AVX512, reason="no AVX-512 dispatch target present")
def test_log_cost_golden_sweeps_without_avx512():
    probe = _run(
        "-c",
        "import sys, numpy\n"
        "try:\n"
        "    from numpy._core import _multiarray_umath as u\n"
        "except ImportError:\n"
        "    from numpy.core import _multiarray_umath as u\n"
        "print(' '.join(n for n in sys.argv[1:] if u.__cpu_features__[n]))",
        *AVX512,
        **NO_AVX512,
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "", "features still enabled"
    golden = _run(
        "-m", "pytest", "-q", "-p", "no:cacheprovider",
        str(TESTS / "test_golden.py"), "-k", "SHL",
        **NO_AVX512,
    )
    assert golden.returncode == 0, golden.stdout + golden.stderr
    assert "4 passed" in golden.stdout


# the bits of np.dot over fixed vectors of lengths 1 to 200
_DOT_BITS = (
    "import numpy as np\n"
    "rng = np.random.default_rng(0)\n"
    "for n in range(1, 201):\n"
    "    print(float(np.dot(rng.uniform(0, 10, n), rng.uniform(0, 1e3, n)))"
    ".hex())"
)


@pytest.mark.xfail(
    strict=True,
    reason="evaluate's np.dot rounds by the OpenBLAS kernel: SPU-full, "
    "SHL-full, SPU-n1, SHL-n1 and SPU-n2 move under the Haswell kernel",
)
def test_golden_sweeps_under_the_openblas_haswell_kernel():
    default = _run("-c", _DOT_BITS)
    haswell = _run("-c", _DOT_BITS, OPENBLAS_CORETYPE="Haswell")
    assert default.returncode == 0, default.stderr
    assert haswell.returncode == 0, haswell.stderr
    if haswell.stdout == default.stdout:
        pytest.skip("the Haswell kernel leaves np.dot's bits as they are")
    golden = _run(
        "-m", "pytest", "-q", "-p", "no:cacheprovider",
        str(TESTS / "test_golden.py"), OPENBLAS_CORETYPE="Haswell",
    )
    assert golden.returncode == 0, golden.stdout + golden.stderr
