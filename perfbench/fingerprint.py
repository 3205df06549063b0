"""Host fingerprint recorded with every benchmark result.

The effective BLAS thread count is read at run time through ``ctypes``
from the OpenBLAS builds bundled with numpy (``scipy_openblas64``) and
scipy (``scipy.libs``), so the record shows what the process really ran
with, not what the environment asked for.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform

#: thread variables removed from every workload process's environment,
#: so the benchmark measures the library default users get
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads(package: str, pattern: str, symbol: str):
    """``symbol()`` of the first ``pattern`` library next to ``package``."""
    try:
        module = __import__(package)
    except ImportError:
        return None
    libs = glob.glob(os.path.join(os.path.dirname(module.__file__) + ".libs", pattern))
    for path in sorted(libs):
        try:
            fn = getattr(ctypes.CDLL(path), symbol)
        except (OSError, AttributeError):
            continue
        fn.argtypes = []
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def collect() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_numpy": _blas_threads(
            "numpy", "libscipy_openblas64_*", "scipy_openblas_get_num_threads64_"
        ),
        "blas_threads_scipy": _blas_threads(
            "scipy", "libscipy_openblas-*", "scipy_openblas_get_num_threads"
        ),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }
