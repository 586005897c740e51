"""Host-speed reference: fixed kernels that belong to the benchmark.

The shared 2-vCPU hosts this benchmark runs on change speed by up to about
1.5x for seconds to minutes at a time, so the median wall time of a 30 s
run lands on whichever speed the host had.  Every timed interval is
therefore bracketed by timings of a reference kernel in the process that
waits on it, and the reported times are scaled to a host on which that
kernel takes its ``REFERENCE_S``:

    scaled time = wall time * (REFERENCE_S / kernel time around it) ** sensitivity

A slower host does not slow every kind of work alike, so each workload
names (``speed`` in workloads.json) the kernel whose work is like its own,
and its sensitivity: the slope of log(median request time) over
log(median kernel time) across 30 s runs on the development host, which
was 0.96 for ``sweep_bell``, 0.72 for ``library_mixed`` and 0.63 for
``evaluate_cold`` (rounded to 1, 0.7 and 0.7).  The kernels:

* ``mixed`` for the warm workers: dict-keyed complex polynomial products
  in the interpreter, and numpy traces ``tr(rho M)`` over an 8 MB set of
  144x144 matrices (the size of the monomial-matrix cache at cutoff 12)
  plus small eigensolves, in about equal time.  The interpreter part
  alone slows more than entcert does when the host slows, the numpy part
  less.
* ``mixed+stream`` for ``evaluate_cold``: the above, then one pass over
  two 32 MB arrays, far beyond the caches.  A cold ``evaluate`` is an
  interpreter launch and imports (a third of a cutoff-20 request, and
  interpreter work like the first kernel's) followed by dense cutoff-20
  or cutoff-30 matrices, like the second part.  Either part alone tracked
  the cold requests worse than the two together.

The kernels run no entcert code, so a change to entcert moves the scaled
request times and leaves the kernel times alone.  The raw wall times stay
in the report.
"""

import functools
import statistics
import time

import numpy as np

# Each kernel's median time on the 2-vCPU Xeon VM the benchmark was written
# on; they only fix the unit, so scaled times read close to wall times there.
REFERENCE_S = {"mixed": 0.009, "mixed+stream": 0.016}
# Kernel samples pooled for one scale factor: those of the interval itself
# and of NEIGHBOURS intervals on each side.
NEIGHBOURS = 2


@functools.cache
def _mixed_data():
    rng = np.random.default_rng(0)
    small = rng.standard_normal((48, 48))
    rho = rng.standard_normal((144, 144)) + 1j * rng.standard_normal((144, 144))
    monomials = [rng.standard_normal((144, 144)) + 1j * rng.standard_normal((144, 144)) for _ in range(24)]
    terms = {(i, j, k % 3, k % 2): complex(i + 1, j) for i in range(4) for j in range(4) for k in range(6)}
    return small + small.T, rho, monomials, terms


@functools.cache
def _stream_data():
    rng = np.random.default_rng(0)
    return rng.standard_normal(2_000_000) + 0j, rng.standard_normal(2_000_000) + 0j


def mixed() -> complex:
    """~70k dict updates with complex arithmetic, 24 traces of 144x144
    matrix products and 4 small eigensolves."""
    small, rho, monomials, terms = _mixed_data()
    sums: dict = {}
    for i in range(6000):
        key = (i % 29, i % 31)
        sums[key] = sums.get(key, 0j) + complex(i, 1.0) * (0.5 - 0.25j)
    product: dict = {}
    for ka, va in terms.items():
        for kb, vb in terms.items():
            key = (ka[0] + kb[0], ka[1] + kb[1], ka[2], kb[3])
            product[key] = product.get(key, 0j) + va * vb
    total = complex(len(sums) + len(product))
    for monomial in monomials:
        total += np.einsum("ij,ji->", rho, monomial)
    for _ in range(4):
        total += np.linalg.eigvalsh(small)[0]
    return total


def mixed_stream() -> complex:
    """``mixed``, then one inner product of two 2M-element complex vectors
    (64 MB read)."""
    a, b = _stream_data()
    return mixed() + np.vdot(a, b)


KERNELS = {"mixed": mixed, "mixed+stream": mixed_stream}


def reference_s(kind: str) -> float:
    """Wall time of one run of kernel ``kind``."""
    run = KERNELS[kind]
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def scaled(times: list[float], samples: list[list[float]], speed: dict) -> list[float]:
    """Scale ``times[i]`` by (REFERENCE_S over the median kernel time of
    ``samples[i - NEIGHBOURS : i + NEIGHBOURS + 1]``) to the power
    ``speed["sensitivity"]``.  ``samples[i]`` are the times of kernel
    ``speed["kernel"]`` taken around interval ``i``; pooling neighbours
    tracks the host's speed at that moment while one disturbed kernel run
    moves it little."""
    out = []
    for i, wall in enumerate(times):
        near = samples[max(0, i - NEIGHBOURS) : i + NEIGHBOURS + 1]
        ref = statistics.median(s for group in near for s in group)
        out.append(wall * (REFERENCE_S[speed["kernel"]] / ref) ** speed["sensitivity"])
    return out
