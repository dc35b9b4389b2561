"""Host speed probe: a fixed computation timed between workload steps.

On a shared virtual machine the CPU's speed is not constant: other
tenants and frequency changes make the same code run up to twice as
fast or as slow for minutes at a time, and process CPU time moves with
wall time, so neither clock removes it.  The benchmark therefore times
this probe — the same Python and numpy work on every run, independent
of the program under test — between the steps of each workload, and
divides each host time by the probe's slowdown against its usual time
on a reference host.  End-to-end times then read as seconds on the
reference host at its usual speed: a change to the program moves them,
a change of the host's speed does not.

The probe has two parts, timed apart, because the host's swings do not
slow all code alike: interpreter work on many small objects (like the
control plane, asyncio, overlay growth and the slot loop) swings about
twice as far as log/exp table lookups and XORs over 4 KiB rows (like
the GF kernels).  A timing is divided by the mix of the two
(``tables_share``) whose swings best matched its own on the reference
host.
"""

from __future__ import annotations

from time import perf_counter
from typing import NamedTuple, Sequence

import numpy as np

#: Median kernel times on the reference host (2-vCPU Intel Xeon VM with
#: avx512 and gfni, Python 3 with numpy) at its usual speed.
INTERP_NOMINAL_S = 0.0021
TABLES_NOMINAL_S = 0.00115

#: Timed repetitions of each kernel in one sample; the sample is their
#: median, so one preemption does not move it.
REPS = 3

_rng = np.random.default_rng(20_050_722)
_LOG = _rng.integers(0, 256, size=256, dtype=np.uint8)
_EXP = _rng.integers(0, 256, size=512, dtype=np.uint8)
_ROWS = _rng.integers(0, 256, size=(32, 4096), dtype=np.uint8)


class _Node:
    __slots__ = ("key", "index", "pair")

    def __init__(self, key: int, index: int) -> None:
        self.key = key
        self.index = index
        self.pair = (key, index)


def _interp() -> int:
    table: dict[int, _Node] = {}
    nodes = []
    for i in range(2_500):
        node = _Node((i * 2_654_435_761) & 0xFFFFF, i)
        nodes.append(node)
        table[node.key] = node
    nodes.sort(key=lambda node: node.key)
    return sum(table[node.key].index for node in nodes)


def _tables() -> int:
    acc = np.zeros(_ROWS.shape[1], dtype=np.uint8)
    for row in _ROWS:
        acc ^= _EXP[_LOG[row].astype(np.uint16) + row]
    return int(acc[0])


def _median_time(kernel) -> float:
    times = []
    for _ in range(REPS):
        started = perf_counter()
        kernel()
        times.append(perf_counter() - started)
    times.sort()
    return times[len(times) // 2]


class Sample(NamedTuple):
    """Seconds each part of the probe took at one moment."""

    interp: float
    tables: float


def sample() -> Sample:
    """Time both parts now, each as the median of :data:`REPS` runs."""
    return Sample(_median_time(_interp), _median_time(_tables))


def slowdown(samples: Sequence[Sample], tables_share: float = 0.0) -> float:
    """How much slower than usual the host ran over ``samples`` for work
    that spends ``tables_share`` of its time in table work."""
    total = 0.0
    for s in samples:
        total += ((1.0 - tables_share) * s.interp / INTERP_NOMINAL_S
                  + tables_share * s.tables / TABLES_NOMINAL_S)
    return total / len(samples)
