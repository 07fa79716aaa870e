"""Dense statevector simulation for small registers.

Conventions, fixed across the package:

* little-endian indexing: qubit q is bit q of the amplitude index, so
  basis index i encodes the computational state with qubit q in value
  ``(i >> q) & 1``;
* printed bitstrings list measured qubits in measurement order, qubit 0
  (or more precisely ``measured[0]``) leftmost;
* registers are capped at 12 qubits, far above anything the [4,2,2]
  constructions need but enough for small ad-hoc circuits.

Every gate goes through one kernel, _evolve, which loops over raw
amplitude arrays: a gate is a gather plus a scale from index tables.
The tables are cached per (kind, targets, n), angle excluded, so the
cache holds at most one entry per gate placement on a register of at
most MAX_QUBITS qubits and needs no bound; RZ builds its phase vector
per call.  The table build refuses a target outside the register, and
PureState checks width, finiteness and norm once per final_state call,
not once per gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .circuits import Circuit, CircuitError, GateKind

MAX_QUBITS = 12
NORM_TOL = 1e-10
PRUNE_TOL = 1e-12

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


@dataclass
class PureState:
    """Normalized amplitude vector over 2**n_qubits basis states."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise CircuitError(f"n_qubits must be in [1, {MAX_QUBITS}], got {self.n_qubits}")
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if self.amplitudes.shape != (1 << self.n_qubits,):
            raise CircuitError(
                f"expected {1 << self.n_qubits} amplitudes, got {self.amplitudes.shape}"
            )
        if not np.all(np.isfinite(self.amplitudes.view(float))):
            raise CircuitError("non-finite amplitude")
        norm = float(np.sum(np.abs(self.amplitudes) ** 2))
        if abs(norm - 1.0) > NORM_TOL:
            raise CircuitError(f"state norm {norm} deviates from 1 by more than {NORM_TOL}")

    @classmethod
    def zero(cls, n_qubits: int) -> "PureState":
        """|00...0> on n_qubits."""
        amp = np.zeros(1 << n_qubits, dtype=complex)
        amp[0] = 1.0
        return cls(n_qubits, amp)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass
class OutcomeDistribution:
    """Probability map over equal-length bitstrings.

    Support entries below PRUNE_TOL are dropped at construction; the
    remaining mass must still be within NORM_TOL of 1 (pruning is not a
    renormalization).
    """

    probs: dict[str, float]

    def __post_init__(self):
        pruned: dict[str, float] = {}
        width = None
        for key in sorted(self.probs):
            p = float(self.probs[key])
            if width is None:
                width = len(key)
            if len(key) != width or width == 0 or set(key) - {"0", "1"}:
                raise CircuitError(f"bad outcome string {key!r}")
            if not 0.0 <= p <= 1.0 + NORM_TOL:
                raise CircuitError(f"probability {p} for {key!r} outside [0, 1]")
            if p >= PRUNE_TOL:
                pruned[key] = p
        if not pruned:
            raise CircuitError("empty distribution")
        total = sum(pruned.values())
        if abs(total - 1.0) > NORM_TOL:
            raise CircuitError(f"distribution mass {total} deviates from 1")
        self.probs = pruned

    @property
    def n_bits(self) -> int:
        return len(next(iter(self.probs)))

    @property
    def support_size(self) -> int:
        return len(self.probs)

    def get(self, key: str) -> float:
        return self.probs.get(key, 0.0)


@dataclass
class ShotCounts:
    """Integer outcome counts for one run; zero entries are dropped."""

    counts: dict[str, int]

    def __post_init__(self):
        cleaned = {}
        for key in sorted(self.counts):
            c = int(self.counts[key])
            if c < 0:
                raise CircuitError(f"negative count for {key!r}")
            if c:
                cleaned[key] = c
        self.counts = cleaned

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def to_distribution(self) -> OutcomeDistribution:
        """Empirical distribution counts/total."""
        r = self.total
        if r == 0:
            raise CircuitError("no shots to normalize")
        return OutcomeDistribution({k: c / r for k, c in self.counts.items()})


# ---------------------------------------------------------------------------
# Gate application
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _table(kind: GateKind, targets: tuple[int, ...], n: int) -> tuple:
    """Read-only index tables of one gate placement on n qubits.

    H gives (lo, hi, c1): out = amp[lo] / sqrt 2 + c1 * amp[hi].  RZ gives
    (target bit,), its angle being applied per call.  Every other gate is
    monomial and gives (perm, phase): out = amp[perm] * phase, either part
    None when it is the identity.  A target outside the register raises,
    and a raised build is not cached.
    """
    for q in targets:
        if q >= n:
            raise CircuitError(f"gate targets qubit {q} on a {n}-qubit state")
    idx = np.arange(1 << n)
    a = targets[0]
    bit = (idx >> a) & 1
    b = targets[-1]
    bit_b = (idx >> b) & 1
    if kind is GateKind.H:
        out = (idx & ~(1 << a), idx | (1 << a), np.where(bit, -_INV_SQRT2, _INV_SQRT2))
    elif kind is GateKind.RZ:
        out = (bit.astype(bool),)
    elif kind in (GateKind.X, GateKind.Y):
        out = (idx ^ (1 << a), np.where(bit, 1j, -1j) if kind is GateKind.Y else None)
    elif kind is GateKind.Z:
        out = (None, np.where(bit, -1.0, 1.0))
    elif kind is GateKind.S:
        out = (None, np.where(bit, 1j, 1.0))
    elif kind is GateKind.CNOT:  # targets = (control, target): flip b where a is set
        out = (idx ^ (bit << b), None)
    elif kind is GateKind.CZ:
        out = (None, np.where(bit & bit_b, -1.0, 1.0))
    else:  # SWAP
        out = (idx ^ ((bit ^ bit_b) * ((1 << a) | (1 << b))), None)
    for arr in out:
        if arr is not None:
            arr.flags.writeable = False
    return out


def _evolve(amp: np.ndarray, gates, n: int) -> np.ndarray:
    """Amplitudes after applying gates in order to amp on n qubits."""
    for g in gates:
        t = _table(g.kind, g.targets, n)
        if g.kind is GateKind.H:
            amp = _INV_SQRT2 * amp[t[0]] + t[2] * amp[t[1]]
        elif g.kind is GateKind.RZ:
            half = 0.5 * g.angle
            amp = amp * np.where(t[0], np.exp(1j * half), np.exp(-1j * half))
        else:
            if t[0] is not None:
                amp = amp[t[0]]
            if t[1] is not None:
                amp = amp * t[1]
    return amp


def final_state(circuit: Circuit) -> PureState:
    """Run every gate of the circuit from |0...0>."""
    n = circuit.n_qubits
    return PureState(n, _evolve(PureState.zero(n).amplitudes, circuit.gates, n))


def marginal_vector(probs: np.ndarray, n: int, measured: list[int]) -> np.ndarray:
    """Marginal over the measured qubits, indexed little-endian in measured order."""
    idx = np.arange(len(probs))
    j = np.zeros_like(idx)
    for t, q in enumerate(measured):
        j |= ((idx >> q) & 1) << t
    return np.bincount(j, weights=probs, minlength=1 << len(measured))


def bitstring_of(index: int, n_bits: int) -> str:
    """Little-endian render: character k is bit k of index."""
    return "".join(str((index >> k) & 1) for k in range(n_bits))


def index_of(bitstring: str) -> int:
    return sum((c == "1") << k for k, c in enumerate(bitstring))


def outcome_vector(entries: Mapping[str, float], n_bits: int) -> np.ndarray:
    """Dense form of string-keyed counts or probabilities; entry j is the
    outcome bitstring_of(j, n_bits), so index bit k is read-out bit k."""
    vec = np.zeros(1 << n_bits)
    for s, v in entries.items():
        if len(s) != n_bits:
            raise CircuitError(f"expected {n_bits}-bit strings, got {s!r}")
        vec[index_of(s)] = v
    return vec


def distribution_from_vector(vec: np.ndarray, n_bits: int) -> OutcomeDistribution:
    support = np.nonzero(vec >= PRUNE_TOL)[0]
    return OutcomeDistribution({bitstring_of(int(j), n_bits): float(vec[j]) for j in support})


def counts_from_vector(vec: np.ndarray, n_bits: int) -> ShotCounts:
    return ShotCounts({bitstring_of(int(j), n_bits): int(vec[j]) for j in np.flatnonzero(vec)})


def ideal_marginal(circuit: Circuit) -> np.ndarray:
    """Noiseless read-out vector over the circuit's measured qubits,
    indexed as marginal_vector."""
    if not circuit.measured:
        raise CircuitError("circuit measures no qubits")
    return marginal_vector(final_state(circuit).probabilities(), circuit.n_qubits, circuit.measured)


def ideal_distribution(circuit: Circuit) -> OutcomeDistribution:
    """Noiseless outcome distribution over the circuit's measured qubits."""
    return distribution_from_vector(ideal_marginal(circuit), len(circuit.measured))
