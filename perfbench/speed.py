"""Reference kernels: how fast the machine runs at a given moment.

The shared host this benchmark was sized on changes speed within
seconds: identical repetitions take up to 2x as long in slow stretches,
and CPU time follows wall time, so the CPU itself slows (another
tenant).  Timings are therefore scaled to a fixed machine speed: a timed
operation is bracketed by two calls of a reference kernel of the same
kind of work, and its time is multiplied by

    nominal / sqrt(kernel before * kernel after)

so it reads as it would on a machine that runs the kernel in `nominal`
seconds.  Three kernels, because the measured slowdowns depend on the
kind of work and on which vCPUs run it:

- `compute_times` runs in the calling thread, as a workload's
  repetition does: a pure-Python loop (interpreter overhead), small 1-D
  FFTs called one at a time (per-call overhead at N=12-16) and 2-D FFT
  round trips at 130 x 130 (the N=64 grid).  Its wall and CPU times
  scale a repetition's wall and CPU times.
- `fanout_times` runs short Python loops of small FFTs on a thread pool,
  as the CLI's path fan-out does: the threads take turns holding the
  interpreter lock on both vCPUs and wait on hand-offs between them.
- `startup_times` starts a fresh interpreter that imports NumPy, as a
  set-up probe does (process start, dynamic loading, imports).

The kernels use only the standard library, NumPy and fixed data, never
layerqg or SciPy (whose FFT back end and worker settings are global
state a program could change), so a change to the program leaves them
alone and shows in full in the scaled times.  Keep them and the nominal
times unchanged: scaled times of two commits are comparable only under
the same kernels.
"""

import math
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# (wall, CPU) seconds of each kernel at the reference speed
COMPUTE_NOMINAL = (0.07, 0.07)
FANOUT_NOMINAL = (0.05, 0.025)
STARTUP_NOMINAL = (0.2,)

_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal((17, 33))
_GRID = _RNG.standard_normal((130, 130))


def compute_times():
    """Wall and CPU seconds of one fixed call of the compute kernel."""
    cpu_start = time.process_time()
    start = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i % 7
    total = float(acc)
    for _ in range(1_500):
        total += float(np.fft.rfft(_SMALL, axis=1)[0, 0].real)
    for _ in range(40):
        spec = np.fft.rfft2(_GRID)
        total += float(np.fft.irfft2(spec * 0.5, s=_GRID.shape)[0, 0])
    times = (time.perf_counter() - start, time.process_time() - cpu_start)
    if not math.isfinite(total):
        raise RuntimeError("compute kernel produced a non-finite value")
    return times


def _path_like(_):
    total = 0.0
    for _ in range(250):
        total += float(np.fft.rfft(_SMALL, axis=1)[0, 0].real)
        total += sum(range(60))
    return total


def fanout_times(threads):
    """Wall and CPU seconds of eight short loops on `threads` threads."""
    cpu_start = time.process_time()
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        total = sum(pool.map(_path_like, range(8)))
    times = (time.perf_counter() - start, time.process_time() - cpu_start)
    if not math.isfinite(total):
        raise RuntimeError("fan-out kernel produced a non-finite value")
    return times


def startup_times():
    """Wall seconds (a 1-tuple) to start an interpreter importing NumPy."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return (time.perf_counter() - start,)


def factors(nominal, before, after):
    """Factors that turn the times of an operation run between two
    kernel calls into reference-speed seconds.  All three arguments are
    tuples of times in the kernel's order (wall, then CPU)."""
    return tuple(n / math.sqrt(b * a)
                 for n, b, a in zip(nominal, before, after))
