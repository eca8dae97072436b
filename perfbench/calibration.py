"""Machine-speed calibration: a fixed kernel of the benchmark's own code.

The VM this benchmark was written on changes speed by up to a factor of
two over minutes, as co-tenants come and go, and every lincore timing in
a run moves with it.  The kernel below mixes the same kinds of work as
lincore: a Y=100 Viterbi over 100 x 100 arrays, a Y=200 forward recursion
over 200 x 200 arrays, enumerated sum losses over 81 x 81 arrays, scalar
Python loops, and Philox generator construction.  Its time therefore moves
with the machine and never with the program.  Timings are reported at nominal
speed: raw time x NOMINAL_MS / (median kernel time in the run).
"""

from __future__ import annotations

import time

import numpy as np

import references as ref

NAME = "calibration_ms"
# Median kernel time on the machine the bounds were set on (2 vCPUs,
# Python 3.11, numpy 2.4), so that scaled values read like raw ones.
NOMINAL_MS = 6.0

_rng = np.random.default_rng(20260417)
_VITERBI = (_rng.normal(size=(100, 20)), _rng.normal(size=(100, 100)), _rng.normal(size=(20, 20)))
_FORWARD = (_rng.normal(size=(200, 20)), _rng.normal(size=(200, 200)), _rng.normal(size=(4, 20)))
_SMALL = (_rng.normal(size=(3, 20)), _rng.normal(size=(3, 3)), _rng.normal(size=(4, 20)), np.array([0, 1, 2, 0]))


def _phi(u):
    return ref.lc_logistic(u, one_sided=True)


def kernel_ms() -> float:
    """Run the calibration kernel once and return its wall time in ms."""
    tick = time.perf_counter()
    ref.viterbi(*_VITERBI)
    ref.log_partition(*_FORWARD)
    for i in range(20):
        np.random.Generator(np.random.Philox(np.random.SeedSequence(7, spawn_key=(3, i, 0))))
    for _ in range(3):
        ref.structured_sum_loss(_phi, *_SMALL)
    for _ in range(30):
        ref.chain_score(*_SMALL)
    return (time.perf_counter() - tick) * 1e3
