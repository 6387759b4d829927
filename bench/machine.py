"""Machine facts that change the benchmark's numbers, recorded with every result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from importlib import metadata

import numpy as np

_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _l3_size() -> str | None:
    for cache in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(cache, "level")) as f:
                if f.read().strip() != "3":
                    continue
            with open(os.path.join(cache, "size")) as f:
                return f.read().strip()
        except OSError:
            continue
    return None


def _loaded_openblas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS reports, keyed by library file name."""
    libs = set()
    try:
        with open("/proc/self/maps") as f:
            for line in f:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path).lower():
                    libs.add(path)
    except OSError:
        return {}
    out = {}
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _THREAD_QUERIES:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = int(fn())
                break
    return out


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def facts(blas_threads: int) -> dict:
    """nproc, CPU, L3, BLAS library and threads, interpreter and library versions."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l3_cache": _l3_size(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": blas_threads,
        "blas_threads_loaded": _loaded_openblas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
    }
