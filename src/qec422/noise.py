"""Noise model and the exact noisy-outcome sampler.

The fault model is the standard circuit-level one, with one Pauli
channel per fault site whose weights, identity first, _site_weights
gives: after every gate eps1 spread uniformly over X/Y/Z, or eps2 over
the 15 non-identity pairs (first letter on ``targets[0]``), and
(1 - p, p) for an X flip of each qubit before the circuit (p_prep) or
of each measured bit (p_meas).  A coherent miscalibration is modeled as
an RZ(theta) inserted after the first Hadamard, and xi mixes the final
distribution toward uniform.

One engine, noisy_vector, computes a circuit's exact noisy read-out
distribution, a vector in the simulator.marginal_vector layout, and
sample_outcomes draws all the shots of a run from it at once.  One
backward sweep of the signed Pauli frame, simulator.FlipMaskTable
(imported here), carries each measured Z observable from the end of the
circuit back to its last RZ.
A fault after any gate from there on is Clifford-propagated to an
X-type read-out flip mask; the table alone decides which sites it
folds, a None row being one it does not.  The base is the read-out
spectrum before the folded flips, which simulator.frame_spectrum reads
from the frame where the sweep stopped: on |0...0> in a Clifford
circuit, else on the ideal statevector up to the last RZ, or, when an
unfolded channel fires (a preparation flip, or a fault after a gate
ahead of the last RZ), on the exact density matrix at that point, each
gate run as U (U rho)^dagger through the one statevector kernel and
each such site mixing sum_k w_k P_k rho P_k^dagger into it.  Every
folded flip is independent of the base and XORs onto it, and
XOR-convolution is a pointwise product in the Walsh-Hadamard domain, so
the suffix multiplies the base spectrum by each site's: the transform
of its weights binned by flip mask, the channel's eigenvalues (Flammia
& Wallman, arXiv:1907.12976), computed once per (weights, masks).  xi
then mixes toward uniform.  The randomness is one multinomial from a
Philox stream per call, so a (circuit, params, shots, seed) tuple always
yields identical counts, however calls are scheduled around it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from .circuits import MAX_QUBITS, Circuit, CircuitError, GateInstance, GateKind, finite_real
from .simulator import (FlipMaskTable, OutcomeDistribution, ShotCounts, _evolve, _wht,
                        frame_spectrum, spectrum_marginal)

ONE_QUBIT_PAULIS = ("X", "Y", "Z")
TWO_QUBIT_PAULIS = tuple(
    a + b for a in "IXYZ" for b in "IXYZ" if a + b != "II"
)  # IX, IY, IZ, XI, ..., ZZ in lexicographic order
_SITES = {1: ("eps1", 4), 2: ("eps2", 16), "prep": ("p_prep", 2), "meas": ("p_meas", 2)}


@dataclass(frozen=True)
class NoiseParams:
    """All knobs of the error model, stored as floats; zero everywhere means
    noiseless.  Each field's "help" is the help of its CLI flag."""

    eps1: float = field(default=0.0, metadata={"help": "one-qubit gate fault probability"})
    eps2: float = field(default=0.0, metadata={"help": "two-qubit gate fault probability"})
    p_meas: float = field(default=0.0, metadata={"help": "read-out flip probability"})
    p_prep: float = field(default=0.0, metadata={"help": "preparation flip probability"})
    theta: float = field(default=0.0, metadata={"help": "coherent rotation angle"})
    xi: float = field(default=0.0, metadata={"help": "depolarizing mix toward uniform"})

    def __post_init__(self):
        for f in fields(self):
            v = finite_real(getattr(self, f.name), f.name)
            if f.name != "theta" and not 0.0 <= v <= 1.0:
                raise CircuitError(f"{f.name} must be in [0, 1], got {v}")
            object.__setattr__(self, f.name, v)


def _site_weights(params: NoiseParams, site: int | str) -> tuple[float, ...]:
    """Pauli weights of a fault site, identity first, for both halves of the
    engine: eps1 or eps2 after a gate of arity 1 or 2, uniform over the rest
    of ("I",) + ONE_QUBIT_PAULIS or ("II",) + TWO_QUBIT_PAULIS; (1 - p, p)
    for the X flip of a "prep" or "meas" site."""
    name, k = _SITES[site]
    p = getattr(params, name)
    return (1.0 - p,) + (p / (k - 1),) * (k - 1)


def totally_mixed(d: int) -> OutcomeDistribution:
    """Uniform distribution over d = 2**n_bits outcome strings, n_bits >= 1."""
    return OutcomeDistribution(np.full(d, 1.0) / d)


def insert_coherent_rotation(circuit: Circuit, theta: float) -> Circuit:
    """New circuit with RZ(theta) right after the first Hadamard.

    Models a miscalibrated encoder: the rotation rides on the qubit the
    encoder's H just put into superposition.  theta = 0 still inserts
    the (no-op) gate so circuit structure is deterministic.
    """
    for i, g in enumerate(circuit.gates):
        if g.kind is GateKind.H:
            gates = list(circuit.gates)
            gates.insert(i + 1, GateInstance(GateKind.RZ, (g.targets[0],), theta))
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
# The engine: a base spectrum, the folded suffix, the xi mix
# ---------------------------------------------------------------------------

def _clifford_outcomes(circuit: Circuit, params: NoiseParams, table: FlipMaskTable,
                       base: np.ndarray) -> np.ndarray:
    """Exact read-out distribution from base, the read-out spectrum
    before every flip the frame folds.

    Each site the frame folds (a gate fault with a row, a prep flip when
    prep_masks is not None, a read-out flip) XORs in masks[k] with weight
    w[k] of its _site_weights, independently of what came before.  So the
    exact distribution is the inverse transform of base times the sites'
    Walsh-Hadamard spectra, clipped of rounding negatives and
    renormalized; when no site fires it is spectrum_marginal(base).
    Either way it is then mixed toward uniform by xi.  Equal sites are
    folded into one row raised to their count, a gate row counted by the
    row alone (its length says eps1 or eps2) and a prep or read-out flip
    by its weights and mask; each distinct site's spectrum comes from
    _site_spectrum, in the order the sites first fire.
    """
    n_bits = len(circuit.measured)
    gate = {len(w): w for w in (_site_weights(params, 1), _site_weights(params, 2)) if any(w[1:])}
    firing = [(_site_spectrum(gate[len(row)], row, 1 << n_bits), count)
              for row, count in Counter(table.gate_masks).items() if row and len(row) in gate]
    prep, meas = _site_weights(params, "prep"), _site_weights(params, "meas")
    flips = Counter((prep, mask) for mask in table.prep_masks[1:]) if table.prep_masks else Counter()
    flips.update((meas, 1 << t) for t in range(n_bits))
    firing += [(_site_spectrum(w, (0, mask), 1 << n_bits), count)
               for (w, mask), count in flips.items() if w[1]]
    if not firing:
        vec, total = spectrum_marginal(base), 1.0
    else:
        sites, counts = map(np.array, zip(*firing))
        powered = sites ** counts[:, None]
        # a scalar ** 2 is x * x, which an array exponent's pow() can miss by an ulp
        twice = counts == 2
        powered[twice] = sites[twice] * sites[twice]
        # the inverse transform's 1/2^m factor cancels in the renormalization
        vec = np.maximum(_wht(base * np.prod(powered, axis=0)), 0.0)
        total = vec.sum()
    return (1.0 - params.xi) * vec / total + params.xi / len(vec)


@lru_cache(maxsize=256)
def _site_spectrum(weights: tuple[float, ...], masks: tuple[int, ...], d: int) -> np.ndarray:
    """Read-only Walsh-Hadamard transform of one site's weights binned by flip mask."""
    spectrum = _wht(np.bincount(masks, weights, d))
    spectrum.setflags(write=False)  # cached and shared by every caller
    return spectrum


def _conjugate_by(rho: np.ndarray, gate: GateInstance, n: int) -> np.ndarray:
    """U rho U^dagger on vec(rho) of n qubits, rho Hermitian, through the one
    kernel: U on the ket bits, the adjoint, U on the ket bits again, since
    (U rho)^dagger = rho U^dagger."""
    d = 1 << n
    half = _evolve(rho, (gate,), 2 * n)
    return _evolve(np.conjugate(half.reshape(d, d).T, order="C").ravel(), (gate,), 2 * n)


@lru_cache(maxsize=None)
def _pauli_tables(targets: tuple[int, ...], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (gather, sign) with (P_k rho P_k^dagger)[i] = sign[k, i] *
    rho[gather[k, i]] on vec(rho) of n qubits, P_k the k-th of ("I",) +
    ONE_QUBIT_PAULIS or ("II",) + TWO_QUBIT_PAULIS on targets.  P = X^x Z^z
    up to a phase: x flips ket and bra, z signs by popcount(z & (ket ^ bra))."""
    labels = ("I",) + ONE_QUBIT_PAULIS if len(targets) == 1 else ("II",) + TWO_QUBIT_PAULIS
    idx = np.arange(1 << (2 * n))
    gather, sign = np.tile(idx, (len(labels), 1)), np.ones((len(labels), len(idx)))
    for k, label in enumerate(labels):
        for c, q in zip(label, targets):
            if c in "XY":
                gather[k] ^= (1 << q) | (1 << (q + n))
            if c in "YZ":
                sign[k] *= 1 - 2 * (((idx ^ (idx >> n)) >> q) & 1)
    gather.setflags(write=False)  # cached and shared by every caller
    sign.setflags(write=False)
    return gather, sign


def _pauli_channel(rho: np.ndarray, weights: tuple[float, ...], targets: tuple[int, ...],
                   n: int) -> np.ndarray:
    """sum_k weights[k] P_k rho P_k^dagger on vec(rho) of n qubits, P_k as in
    _pauli_tables, so (1 - p, p) on one target is an X flip."""
    if not any(weights[1:]):
        return rho
    gather, sign = _pauli_tables(targets, n)
    return np.asarray(weights) @ (sign[:len(weights)] * rho[gather[:len(weights)]])


def _prefix_state(circuit: Circuit, params: NoiseParams, table: FlipMaskTable) -> np.ndarray:
    """vec(rho) just after the last RZ, with every site table does not fold
    (each None row, and the preparation flips when prep_masks is None)
    mixed in.

    vec(rho) is a state on 2n qubits (entry i | j << n holds rho_ij) that
    _conjugate_by runs through each gate as U (U rho)^dagger, and _pauli_channel
    mixes in each site's channel.  Memory is 16 * 4^n bytes; the register cap,
    MAX_QUBITS // 2, keeps the ket gate tables on 2n bits within MAX_QUBITS.
    """
    n = circuit.n_qubits
    if n > MAX_QUBITS // 2:
        raise CircuitError(f"noise ahead of an RZ is limited to {MAX_QUBITS // 2} qubits "
                           f"(its density matrix), got {n}")
    rho = np.zeros(1 << (2 * n), dtype=complex)
    rho[0] = 1.0
    weights = {site: _site_weights(params, site) for site in ("prep", 1, 2)}
    if table.prep_masks is None:
        for q in range(n):
            rho = _pauli_channel(rho, weights["prep"], (q,), n)
    for g, row in zip(circuit.gates[:table.frame[0] + 1], table.gate_masks):
        rho = _conjugate_by(rho, g, n)
        if row is None:
            rho = _pauli_channel(rho, weights[g.kind.arity], g.targets, n)
    return rho


def noisy_vector(circuit: Circuit, params: NoiseParams, table: FlipMaskTable | None = None,
                 spectrum: np.ndarray | None = None) -> np.ndarray:
    """Exact noisy read-out distribution under every channel, indexed as
    marginal_vector; params.theta is not applied (run_pair inserts it).

    The density-matrix prefix is built only when some channel the frame
    leaves unfolded fires; otherwise the base is the ideal spectrum.  A
    caller that already holds the circuit's table, and the ideal
    spectrum frame_spectrum(circuit, table.frame), passes them.
    """
    if not circuit.measured:
        raise CircuitError("circuit measures no qubits")
    table = FlipMaskTable(circuit) if table is None else table
    if any(any(_site_weights(params, site)[1:]) for site in table.unfolded):
        spectrum = frame_spectrum(circuit, table.frame, _prefix_state(circuit, params, table))
    elif spectrum is None:
        spectrum = frame_spectrum(circuit, table.frame)
    return _clifford_outcomes(circuit, params, table, spectrum)


def sample_outcomes(vec: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Counts of shots drawn from the outcome vector vec with one
    multinomial of a Philox stream; deterministic in (vec, shots, seed)."""
    if not 1 <= shots < 1 << 63:
        raise CircuitError(f"shots must be in [1, 2**63 - 1], got {shots}")
    return np.random.Generator(np.random.Philox(seed)).multinomial(shots, vec)


def noisy_counts(circuit: Circuit, params: NoiseParams, shots: int, seed: int) -> ShotCounts:
    """Shots drawn from the exact noisy process (prep flips, per-gate Pauli
    faults, read-out flips, xi) by sample_outcomes of noisy_vector."""
    return ShotCounts(sample_outcomes(noisy_vector(circuit, params), shots, seed))
