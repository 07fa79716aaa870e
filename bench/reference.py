"""Reference work for rescaling timings to the host's current speed.

On a shared host the same code can run 20-40% slower for tens of
seconds at a time, and process start-up slows with it.  Each timing is
therefore taken between two samples of a fixed piece of reference work
that never calls qec422, and reported in seconds at the speed where one
sample takes NOMINAL_S:

    rescaled = measured * NOMINAL_S / mean(sample before, sample after)

A change to the package cannot move the reference, so it moves a
rescaled timing exactly as it moves the raw one; a slow phase of the host
moves both the timing and the reference, and cancels.  The reference
mixes the three kinds of work the package does -- interpreter-bound bit
twiddling, memory-bound array passes, and numpy calls on tiny arrays --
because the host's slow phases do not slow them equally.
"""

from __future__ import annotations

import time

import numpy as np

# Typical duration of one sample on a 2-core shared host; only fixes the unit.
NOMINAL_S = 0.0065

_PAIRS = [(i % 5, (i + 1 + (i // 5) % 4) % 5) for i in range(150)]
_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_SHOTS, _COLUMNS = 25_000, 8


class ReferenceClock:
    def __init__(self):
        self._rng = np.random.default_rng(0)
        self._matrix = np.zeros((_SHOTS, _COLUMNS), dtype=np.int8)
        self._table = np.arange(16, dtype=np.int64)

    def _work(self) -> None:
        # bit-mask propagation through a gate list, like the flip-mask table
        for start in range(0, len(_PAIRS), 2):
            x, z = start & 31, (start >> 1) & 31
            for a, b in _PAIRS[start:]:
                ca, cb = 1 << a, 1 << b
                if x & ca:
                    x ^= cb
                if z & cb:
                    z ^= ca
        # per-column sampling and XOR over a shots x columns matrix
        self._matrix[:] = 0
        for i in range(_COLUMNS):
            self._matrix[self._rng.random(_SHOTS) < 0.05, i] = 1 + i
        mask = np.zeros(_SHOTS, dtype=np.int64)
        for i in range(_COLUMNS):
            mask ^= self._table[self._matrix[:, i]]
        # gate-by-gate updates of a 5-qubit state, like a statevector run
        amp = np.zeros(32, dtype=complex)
        amp[0] = 1.0
        for i in range(75):
            t = np.moveaxis(amp.reshape([2] * 5), i % 5, 0)
            amp = np.moveaxis(np.tensordot(_HADAMARD, t, axes=([1], [0])), 0, i % 5).reshape(-1)

    def sample(self) -> float:
        """Seconds for one unit of reference work (the faster of two tries)."""
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            self._work()
            best = min(best, time.perf_counter() - start)
        return best


def rescale(times: list[float], samples: list[float]) -> list[float]:
    """times[k] was measured between samples[k] and samples[k + 1]."""
    return [t * 2 * NOMINAL_S / (samples[k] + samples[k + 1]) for k, t in enumerate(times)]
