"""Host-speed probe: a fixed numpy FFT and matmul loop that never imports fraclap.

Prints one JSON line with the probe time (median of several repetitions)
and the environment the workers run in. The value is recorded beside every
run's metrics so that a slower host can be told apart from a slower
program; it rescales nothing.
"""

import json
import os
import platform
import statistics
import time
from importlib import metadata

import numpy as np


def probe_seconds(repeats=7):
    rng = np.random.default_rng(0)
    signal = rng.standard_normal(1 << 18)
    a = rng.standard_normal((256, 256))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(12):
            spec = np.fft.fft(signal)
            signal = np.real(np.fft.ifft(spec * 0.5)) * 2.0
            a = (a @ a) / np.linalg.norm(a)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "thread_pins": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


if __name__ == "__main__":
    print(json.dumps({"probe_s": probe_seconds(), "env": environment()}))
