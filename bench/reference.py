"""Host-speed reference for the benchmark: a fixed NumPy workload that
does not use isaclab, timed on a given number of threads at once.

Usage::

    python reference.py THREADS

prints the seconds the kernel took. Its parts mirror the workloads' hot
paths: short FFT pairs with phase ramps (channel and dictionary), small
matrix products (MUSIC) and exponentials over arrays as large as the
particle-BP kernel density's blocks.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np


def kernel_seconds(threads: int) -> float:
    rng = np.random.default_rng(0)
    x = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
    ramp = np.arange(1024)
    a = rng.standard_normal((128, 128))
    big = rng.standard_normal(2_000_000)

    def work():
        for i in range(1200):
            np.fft.ifft(np.fft.fft(x) * np.exp(-2j * np.pi * 1e-3 * i * ramp))
        for _ in range(80):
            a @ a
        for _ in range(4):
            np.exp(-0.5 * big * big).sum()

    pool = [threading.Thread(target=work) for _ in range(threads)]
    t0 = time.perf_counter()
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(repr(kernel_seconds(int(sys.argv[1]))))
