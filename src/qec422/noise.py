"""Noise model and Monte-Carlo trajectory sampling.

The fault model is the standard circuit-level one: after every gate a
Pauli error fires with probability eps1 (one-qubit gates, uniform over
X/Y/Z) or eps2 (two-qubit gates, uniform over the 15 non-identity pairs,
first letter on ``targets[0]``).  Preparation flips each qubit before
the circuit with probability p_prep, read-out flips each measured bit
with probability p_meas.  A coherent miscalibration is modeled as an
RZ(theta) inserted after the first Hadamard, and xi mixes the final
distribution toward uniform.

noisy_counts samples whole-shot fault configurations.  For circuits
without RZ every gate is Clifford, so each configuration collapses to
an X-type flip mask conjugated to the end of the circuit; a shot is
then (draw from the ideal distribution) XOR (its mask), which is
distribution-identical to simulating the configuration and keeps the
hot path fully vectorized.  Circuits containing RZ are simulated per
unique configuration with the statevector engine.  All randomness comes
from one counter-based Philox stream per call, so a (circuit, params,
shots, seed) tuple always yields identical counts, regardless of how
calls are scheduled around it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, CircuitError, GateInstance, GateKind
from .simulator import (
    PRUNE_TOL,
    OutcomeDistribution,
    PureState,
    ShotCounts,
    apply_gate,
    counts_from_vector,
    distribution_from_vector,
    final_state,
    marginal_vector,
)

ONE_QUBIT_PAULIS = ("X", "Y", "Z")
TWO_QUBIT_PAULIS = tuple(
    a + b for a in "IXYZ" for b in "IXYZ" if a + b != "II"
)  # IX, IY, IZ, XI, ..., ZZ in lexicographic order


@dataclass(frozen=True)
class NoiseParams:
    """All knobs of the error model; zero everywhere means noiseless."""

    eps1: float = 0.0
    eps2: float = 0.0
    p_meas: float = 0.0
    p_prep: float = 0.0
    theta: float = 0.0
    xi: float = 0.0

    def __post_init__(self):
        for name in ("eps1", "eps2", "p_meas", "p_prep", "xi"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise CircuitError(f"{name} must be in [0, 1], got {v}")
        if not np.isfinite(self.theta):
            raise CircuitError(f"theta must be finite, got {self.theta}")

    @property
    def pauli_free(self) -> bool:
        return self.eps1 == 0.0 and self.eps2 == 0.0 and self.p_prep == 0.0


def totally_mixed(d: int) -> OutcomeDistribution:
    """Uniform distribution over d = 2**n_bits outcome strings."""
    if d < 2 or d & (d - 1):
        raise CircuitError(f"d must be a power of two >= 2, got {d}")
    return distribution_from_vector(np.full(d, 1.0 / d), d.bit_length() - 1)


def insert_coherent_rotation(circuit: Circuit, theta: float) -> Circuit:
    """New circuit with RZ(theta) right after the first Hadamard.

    Models a miscalibrated encoder: the rotation rides on the qubit the
    encoder's H just put into superposition.  theta = 0 still inserts
    the (no-op) gate so circuit structure is deterministic.
    """
    if not np.isfinite(theta):
        raise CircuitError(f"theta must be finite, got {theta}")
    for i, g in enumerate(circuit.gates):
        if g.kind is GateKind.H:
            gates = list(circuit.gates)
            gates.insert(i + 1, GateInstance(GateKind.RZ, (g.targets[0],), float(theta)))
            return circuit.with_gates(gates)
    raise CircuitError("no Hadamard to attach the rotation to")


def derive_seed(master_seed: int, *tags: object) -> int:
    """Stable 64-bit child seed from a master seed and a tag tuple."""
    words = [master_seed & 0xFFFFFFFFFFFFFFFF]
    for tag in tags:
        data = str(tag).encode()
        acc = 1469598103934665603  # FNV-1a, stable across platforms and runs
        for byte in data:
            acc = ((acc ^ byte) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
        words.append(acc)
    return int(np.random.SeedSequence(words).generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# Pauli conjugation through Clifford gates
# ---------------------------------------------------------------------------
# A Pauli (up to phase, which no distribution sees) is a pair of bit
# masks (x, z) over the register.  Pushing it forward past a gate G maps
# it to G P Gdagger.

def _push_masks(x: int, z: int, gate: GateInstance) -> tuple[int, int]:
    kind = gate.kind
    if kind is GateKind.H:
        q = 1 << gate.targets[0]
        xq, zq = x & q, z & q
        x = (x & ~q) | (q if zq else 0)
        z = (z & ~q) | (q if xq else 0)
    elif kind is GateKind.S:
        q = 1 << gate.targets[0]
        if x & q:
            z ^= q
    elif kind is GateKind.CNOT:
        c, t = (1 << gate.targets[0]), (1 << gate.targets[1])
        if x & c:
            x ^= t
        if z & t:
            z ^= c
    elif kind is GateKind.CZ:
        a, b = (1 << gate.targets[0]), (1 << gate.targets[1])
        if x & a:
            z ^= b
        if x & b:
            z ^= a
    elif kind is GateKind.SWAP:
        a, b = gate.targets
        x = _swap_bits(x, a, b)
        z = _swap_bits(z, a, b)
    elif kind is GateKind.RZ:
        if x & (1 << gate.targets[0]):
            raise CircuitError("cannot push an X-type Pauli past RZ")
    # X/Y/Z gates commute with any Pauli up to phase
    return x, z


def _swap_bits(mask: int, a: int, b: int) -> int:
    da, db = (mask >> a) & 1, (mask >> b) & 1
    if da != db:
        mask ^= (1 << a) | (1 << b)
    return mask


def _pauli_to_masks(pauli: str, targets: tuple[int, ...]) -> tuple[int, int]:
    x = z = 0
    for letter, q in zip(pauli, targets):
        if letter in "XY":
            x |= 1 << q
        if letter in "YZ":
            z |= 1 << q
    return x, z


def _measured_mask(x: int, measured: list[int]) -> int:
    out = 0
    for t, q in enumerate(measured):
        out |= ((x >> q) & 1) << t
    return out


class _FlipMaskTable:
    """Per-site fault -> final read-out flip mask, for Clifford circuits.

    Entry [site][k] is the flip mask (over measured bits) a fault of
    index k after gate ``site`` produces at the end of the circuit.
    k = 0 is no fault; one-qubit faults use k in 1..3 (X, Y, Z),
    two-qubit faults k in 1..15 indexing TWO_QUBIT_PAULIS.  site = -1
    rows give preparation X flips per qubit.
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        gates = circuit.gates
        measured = circuit.measured

        def end_mask(x: int, z: int, start: int) -> int:
            for g in gates[start:]:
                x, z = _push_masks(x, z, g)
            return _measured_mask(x, measured)

        self.gate_masks: list[np.ndarray] = []
        for i, g in enumerate(gates):
            if g.kind.arity == 1:
                labels = ONE_QUBIT_PAULIS
            else:
                labels = TWO_QUBIT_PAULIS
            row = [0]
            for label in labels:
                x, z = _pauli_to_masks(label, g.targets)
                row.append(end_mask(x, z, i + 1))
            self.gate_masks.append(np.array(row, dtype=np.int64))

        prep_row = [0]
        for q in range(circuit.n_qubits):
            prep_row.append(end_mask(1 << q, 0, 0))
        # prep flips are indexed per qubit, not per Pauli
        self.prep_masks = np.array(prep_row, dtype=np.int64)


def _has_rz(circuit: Circuit) -> bool:
    return any(g.kind is GateKind.RZ for g in circuit.gates)


# ---------------------------------------------------------------------------
# The trajectory sampler
# ---------------------------------------------------------------------------

def _sample_fault_indices(circuit: Circuit, params: NoiseParams, shots: int,
                          rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Per-shot fault index per gate (0 = none) and per-shot prep flip masks."""
    n_gates = len(circuit.gates)
    fault_idx = np.zeros((shots, n_gates), dtype=np.int8)
    for i, g in enumerate(circuit.gates):
        eps = params.eps1 if g.kind.arity == 1 else params.eps2
        if eps <= 0.0:
            continue
        hit = rng.random(shots) < eps
        n_hit = int(hit.sum())
        if n_hit:
            n_paulis = 3 if g.kind.arity == 1 else 15
            fault_idx[hit, i] = rng.integers(1, n_paulis + 1, size=n_hit)
    if params.p_prep > 0.0:
        flips = rng.random((shots, circuit.n_qubits)) < params.p_prep
        prep = flips @ (1 << np.arange(circuit.n_qubits, dtype=np.int64))
    else:
        prep = np.zeros(shots, dtype=np.int64)
    return fault_idx, prep


def _clifford_outcomes(circuit: Circuit, fault_idx: np.ndarray, prep: np.ndarray,
                       base_marginal: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Per-shot outcome indices via flip-mask propagation."""
    shots = fault_idx.shape[0]
    table = _FlipMaskTable(circuit)

    shot_mask = np.zeros(shots, dtype=np.int64)
    if prep.any():
        # per-qubit prep flips: XOR each flipped qubit's end mask
        for q in range(circuit.n_qubits):
            hit = (prep >> q) & 1
            mask = table.prep_masks[q + 1]
            if mask:
                shot_mask ^= hit * mask
    for i in range(fault_idx.shape[1]):
        col = fault_idx[:, i]
        if col.any():
            shot_mask ^= table.gate_masks[i][col]

    n_out = len(base_marginal)
    p = base_marginal / base_marginal.sum()
    ideal_draw = rng.choice(n_out, size=shots, p=p)
    return ideal_draw ^ shot_mask


def _statevector_outcomes(circuit: Circuit, fault_idx: np.ndarray, prep: np.ndarray,
                          rng: np.random.Generator) -> np.ndarray:
    """Per-shot outcomes by simulating each unique fault configuration."""
    shots = fault_idx.shape[0]
    config = np.column_stack([prep.astype(np.int64), fault_idx.astype(np.int64)])
    uniq, inverse = np.unique(config, axis=0, return_inverse=True)

    n_bits = len(circuit.measured)
    outcomes = np.zeros(shots, dtype=np.int64)
    # iterate configurations in np.unique's sorted order for determinism
    for u, row in enumerate(uniq):
        members = np.nonzero(inverse == u)[0]
        vec = _config_marginal(circuit, int(row[0]), row[1:])
        draws = rng.multinomial(len(members), vec / vec.sum())
        pos = 0
        for j in np.nonzero(draws)[0]:
            c = draws[j]
            outcomes[members[pos:pos + c]] = j
            pos += c
    return outcomes


def _config_marginal(circuit: Circuit, prep_mask: int, gate_faults: np.ndarray) -> np.ndarray:
    state = PureState.zero(circuit.n_qubits)
    for q in range(circuit.n_qubits):
        if (prep_mask >> q) & 1:
            state = apply_gate(state, GateInstance(GateKind.X, (q,)))
    for i, g in enumerate(circuit.gates):
        state = apply_gate(state, g)
        k = int(gate_faults[i])
        if k:
            labels = ONE_QUBIT_PAULIS if g.kind.arity == 1 else TWO_QUBIT_PAULIS
            for letter, q in zip(labels[k - 1], g.targets):
                if letter != "I":
                    state = apply_gate(state, GateInstance(GateKind[letter], (q,)))
    return marginal_vector(state.probabilities(), circuit.n_qubits, circuit.measured)


def noisy_counts(circuit: Circuit, params: NoiseParams, shots: int, seed: int) -> ShotCounts:
    """Sample the full noisy process: prep flips, per-gate Pauli faults,
    read-out flips.  Deterministic in (circuit, params, shots, seed)."""
    if not circuit.measured:
        raise CircuitError("circuit measures no qubits")
    if shots < 1:
        raise CircuitError(f"shots must be positive, got {shots}")
    rng = np.random.Generator(np.random.Philox(seed))
    n_bits = len(circuit.measured)

    fault_idx, prep = _sample_fault_indices(circuit, params, shots, rng)
    if _has_rz(circuit):
        outcomes = _statevector_outcomes(circuit, fault_idx, prep, rng)
    else:
        base = marginal_vector(final_state(circuit).probabilities(),
                               circuit.n_qubits, circuit.measured)
        outcomes = _clifford_outcomes(circuit, fault_idx, prep, base, rng)

    if params.p_meas > 0.0:
        flips = rng.random((shots, n_bits)) < params.p_meas
        outcomes = outcomes ^ (flips @ (1 << np.arange(n_bits, dtype=np.int64)))

    if params.xi > 0.0:
        # sampled form of (1 - xi) p + xi / d: resample uniformly w.p. xi
        scrambled = rng.random(shots) < params.xi
        uniform = rng.integers(0, 1 << n_bits, size=shots)
        outcomes = np.where(scrambled, uniform, outcomes)

    return counts_from_vector(np.bincount(outcomes, minlength=1 << n_bits), n_bits)


def noisy_distribution(circuit: Circuit, params: NoiseParams) -> OutcomeDistribution:
    """Exact noisy distribution, Pauli faults excluded: the ideal circuit
    (plus any RZ already inserted) mixed toward uniform by xi.

    This is the analytic path used when sampling noise would only add
    variance, e.g. the depolarizing-bound experiments.
    """
    if not params.pauli_free or params.p_meas != 0.0:
        raise CircuitError("analytic distribution requires eps1 = eps2 = p_prep = p_meas = 0")
    vec = marginal_vector(final_state(circuit).probabilities(),
                          circuit.n_qubits, circuit.measured)
    if params.xi > 0.0:
        # (1 - xi) p + xi / d over the full alphabet, p pruned as in the support
        vec = (1.0 - params.xi) * np.where(vec >= PRUNE_TOL, vec, 0.0) + params.xi / len(vec)
    return distribution_from_vector(vec, len(circuit.measured))
