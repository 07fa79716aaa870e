"""Dense statevector simulation for small registers.

Conventions, fixed across the package:

* little-endian indexing: qubit q is bit q of the amplitude index, so
  basis index i encodes the computational state with qubit q in value
  ``(i >> q) & 1``;
* printed bitstrings list measured qubits in measurement order, qubit 0
  (or more precisely ``measured[0]``) leftmost;
* registers are capped at 12 qubits, far above anything the [4,2,2]
  constructions need but enough for small ad-hoc circuits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .circuits import Circuit, CircuitError, GateInstance, GateKind

MAX_QUBITS = 12
NORM_TOL = 1e-10
PRUNE_TOL = 1e-12

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

# Single-qubit matrices; RZ is built per-angle as diag(e^{-it/2}, e^{it/2}).
_SINGLE_QUBIT = {
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    GateKind.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    GateKind.H: np.array([[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]], dtype=complex),
    GateKind.S: np.array([[1, 0], [0, 1j]], dtype=complex),
}


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

def _axis(q: int, n: int) -> int:
    # Reshaping a little-endian vector to [2]*n puts qubit q on axis n-1-q.
    return n - 1 - q


def _apply_single(amp: np.ndarray, mat: np.ndarray, q: int, n: int) -> np.ndarray:
    ax = _axis(q, n)
    t = np.moveaxis(amp.reshape([2] * n), ax, 0)
    t = np.tensordot(mat, t, axes=([1], [0]))
    return np.moveaxis(t, 0, ax).reshape(-1)


def apply_gate(state: PureState, gate: GateInstance) -> PureState:
    """Apply one gate, returning a new PureState."""
    n = state.n_qubits
    for q in gate.targets:
        if q >= n:
            raise CircuitError(f"gate targets qubit {q} on a {n}-qubit state")
    amp = state.amplitudes
    kind = gate.kind

    if kind in _SINGLE_QUBIT:
        amp = _apply_single(amp, _SINGLE_QUBIT[kind], gate.targets[0], n)
    elif kind is GateKind.RZ:
        half = 0.5 * gate.angle
        mat = np.array([[np.exp(-1j * half), 0], [0, np.exp(1j * half)]])
        amp = _apply_single(amp, mat, gate.targets[0], n)
    else:
        idx = np.arange(1 << n)
        a, b = gate.targets
        bit_a = (idx >> a) & 1
        bit_b = (idx >> b) & 1
        if kind is GateKind.CNOT:
            # targets = (control, target): flip b where a is set
            amp = amp[idx ^ (bit_a << b)]
        elif kind is GateKind.CZ:
            amp = np.where(bit_a & bit_b, -amp, amp)
        elif kind is GateKind.SWAP:
            diff = bit_a ^ bit_b
            amp = amp[idx ^ ((diff << a) | (diff << b))]
        else:  # pragma: no cover
            raise CircuitError(f"unhandled gate kind {kind}")
    return PureState(n, amp)


def final_state(circuit: Circuit, initial: PureState | None = None) -> PureState:
    """Run every gate of the circuit from |0...0> (or a caller-supplied state)."""
    state = PureState.zero(circuit.n_qubits) if initial is None else initial
    if state.n_qubits != circuit.n_qubits:
        raise CircuitError("initial state width does not match circuit")
    for gate in circuit.gates:
        state = apply_gate(state, gate)
    return state


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


def ideal_distribution(circuit: Circuit) -> OutcomeDistribution:
    """Noiseless outcome distribution over the circuit's measured qubits."""
    if not circuit.measured:
        raise CircuitError("circuit measures no qubits")
    state = final_state(circuit)
    vec = marginal_vector(state.probabilities(), circuit.n_qubits, circuit.measured)
    return distribution_from_vector(vec, len(circuit.measured))


def sample_counts(dist: OutcomeDistribution, shots: int, seed: int) -> ShotCounts:
    """Multinomial draw; deterministic for a fixed seed."""
    if shots < 1:
        raise CircuitError(f"shots must be positive, got {shots}")
    keys = sorted(dist.probs)
    p = np.array([dist.probs[k] for k in keys])
    p = p / p.sum()  # pruning can leave mass short of 1 by < NORM_TOL
    rng = np.random.Generator(np.random.Philox(seed))
    draws = rng.multinomial(shots, p)
    return ShotCounts({k: int(c) for k, c in zip(keys, draws)})
