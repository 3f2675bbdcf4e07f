"""Run hygiene shared by the benchmark and its set-up probe.

Imports nothing from ``trivolve``, so the probe can time that import.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform

import numpy as np


def warm_blas() -> None:
    """Pay BLAS's lazy start-up (thread pool, kernels) before any timing."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    np.linalg.lstsq(a, a[:, :3], rcond=None)
    np.linalg.svd(a)
    np.linalg.eigvals(a)
    a.real @ a.real


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, when it can be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _cpuinfo() -> dict:
    info = {}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                key, _, value = line.partition(":")
                key = key.strip()
                if key in ("model name", "cache size") and key not in info:
                    info[key] = value.strip()
    except OSError:
        pass
    return info


def machine_info() -> dict:
    cpu = _cpuinfo()
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu.get("model name", platform.processor() or platform.machine()),
        "cache": cpu.get("cache size"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }
