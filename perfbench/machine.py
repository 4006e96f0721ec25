"""Machine and software calibration printed with every run, so that a noisy
run can be explained: sgemm throughput at conv2's GEMM shapes, the speed of a
pure-Python loop, the numpy and BLAS build, the BLAS thread count, the core
count, the Python version and the CPU steal over the run (read from
``/proc/stat``).
"""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import time

import numpy as np

# The three batched GEMMs of conv2's second 3x3 conv (64 -> 64 real channels,
# 32x32, batch 60) as im2col runs them: forward, weight grad, input grad.
_BATCH, _F, _K, _HW = 60, 64, 64 * 9, 32 * 32
GEMM_REPEATS = 3


def sgemm_gflop_s(rng: np.random.Generator) -> float:
    """float32 GFLOP/s over conv2's GEMM shapes: total flop over the sum of
    each shape's median time."""
    k2 = rng.standard_normal((_F, _K), dtype=np.float32)
    cols = rng.standard_normal((_BATCH, _K, _HW), dtype=np.float32)
    g2 = rng.standard_normal((_BATCH, _F, _HW), dtype=np.float32)
    shapes = (
        lambda: np.matmul(k2, cols),  # forward
        lambda: np.matmul(g2, cols.transpose(0, 2, 1)),  # kernel gradient
        lambda: np.matmul(k2.T, g2),  # im2col gradient
    )
    seconds = 0.0
    for gemm in shapes:
        gemm()  # warm: first touch of the output and BLAS thread start-up
        times = []
        for _ in range(GEMM_REPEATS):
            start = time.perf_counter()
            gemm()
            times.append(time.perf_counter() - start)
        seconds += statistics.median(times)
    return len(shapes) * 2.0 * _BATCH * _F * _K * _HW / seconds / 1e9


def python_speed(seconds: float = 0.3) -> float:
    """Millions of loop iterations per second of a fixed pure-Python loop:
    the interpreter speed this machine gave the run at that moment."""
    loops = 0
    end = time.perf_counter() + seconds
    start = time.perf_counter()
    while time.perf_counter() < end:
        total = 0
        for i in range(1000):
            total += i * i
        loops += 1
    return loops * 1000 / (time.perf_counter() - start) / 1e6


def _openblas():
    """The OpenBLAS library this process loaded, or None."""
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _blas_call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            fn.argtypes = []
            return fn()
    return None


def software() -> dict:
    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas": None,
        "blas_threads": None,
    }
    lib = _openblas()
    if lib is not None:
        # numpy's wheels prefix the OpenBLAS symbols; a system OpenBLAS does not.
        config = _blas_call(lib, ("scipy_openblas_get_config64_", "openblas_get_config"), ctypes.c_char_p)
        info["blas"] = config.decode() if config else None
        info["blas_threads"] = _blas_call(
            lib, ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"), ctypes.c_int
        )
    return info


def cpu_times() -> list[int] | None:
    """The aggregate ``cpu`` line of ``/proc/stat``, in clock ticks."""
    try:
        with open("/proc/stat") as f:
            return [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before: list[int] | None, after: list[int] | None) -> float | None:
    """Share of all CPU time stolen by the hypervisor between two readings."""
    if not before or not after or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])  # user..steal; guest time is already in user
    return delta[7] / total if total > 0 else None
