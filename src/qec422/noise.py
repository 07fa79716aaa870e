"""Noise model and the exact noisy-outcome sampler.

The fault model is the standard circuit-level one, one Pauli channel per
fault site, each uniform over its k - 1 non-identity Paulis as _SITES
gives them: after every gate eps1 over X/Y/Z (k = 4) or eps2 over the 15
non-identity pairs (k = 16), and an X flip of each qubit before the
circuit (p_prep) or of each measured bit (p_meas), k = 2.  Such a channel
scales every component that anticommutes with its Paulis by one factor,
1 - rate * k / (k - 1), which _factors gives, and leaves the rest.  A
coherent miscalibration is modeled as an RZ(theta) inserted after the
first Hadamard, and xi mixes the final distribution toward uniform.

One engine computes exact noisy read-out distributions, vectors in the
simulator.marginal_vector layout: one stacked pass, _clifford_outcomes,
for any number of circuits, of which noisy_vector is the one-circuit
call; sample_outcomes draws all the shots of a run from one at once.
One backward sweep of the signed Pauli frame, simulator.FlipMaskTable,
carries each measured Z observable from the end of the circuit to the
start and keeps its frame at the last RZ, the split.  A fault after any
gate from there on is an X-type read-out flip mask, which the suffix
folds; the split alone names the sites left unfolded, every preparation
flip and every gate ahead of it.  The base is the read-out spectrum
before the folded flips, which simulator.frame_spectrum reads from the
frame at the split: on |0...0> in a Clifford circuit, else on the ideal
statevector up to the last RZ, or, when an unfolded channel fires, on
the exact density matrix at that point, each gate run as
U (U rho)^dagger through the one statevector kernel and each such site
averaging rho over X and Z at its factor.  Every folded flip XORs onto
the base independently of it, which is a pointwise product in the
Walsh-Hadamard domain with the site's channel eigenvalues (Flammia &
Wallman, arXiv:1907.12976).  The channel's masks form the image of a
linear map, so at spectral index s its eigenvalue is the factor where a
mask overlaps s in an odd number of bits, else 1: the spectrum is the
base times one factor per kind of _SITES raised to an integer vector
over s, and simulator.spectrum_marginal transforms it back before xi
mixes toward uniform.  The randomness is one multinomial from a Philox
stream per call, so a (circuit, params, shots, seed) tuple always yields
identical counts, however calls are scheduled around it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from .circuits import MAX_QUBITS, Circuit, CircuitError, GateInstance, GateKind, finite_real
from .simulator import (FlipMaskTable, OutcomeDistribution, ShotCounts, _evolve, _xor_index,
                        _zero, frame_spectrum, spectrum_marginal)

ONE_QUBIT_PAULIS = ("X", "Y", "Z")
TWO_QUBIT_PAULIS = tuple(
    a + b for a in "IXYZ" for b in "IXYZ" if a + b != "II"
)  # IX, IY, IZ, XI, ..., ZZ in lexicographic order
_SITES = {1: ("eps1", 4), 2: ("eps2", 16), "prep": ("p_prep", 2), "meas": ("p_meas", 2)}
_KIND = {4: 0, 16: 1}  # a folded gate row's kind, by its length, in _SITES order
_EQUAL_BITS = np.eye(2)[None, :, None, :, None]  # 1 where a qubit's bra and ket bits agree


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


def _factors(params: NoiseParams) -> list[float]:
    """Each kind of _SITES's channel eigenvalue on a Pauli it anticommutes
    with, 1 - rate * k / (k - 1) over its k Paulis, in _SITES order; both
    the prefix and the suffix scale by it."""
    return [1.0 - getattr(params, name) * k / (k - 1) for name, k in _SITES.values()]


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


@lru_cache(maxsize=1024)
def _tag_word(tag: str) -> int:
    """64-bit FNV-1a hash of a tag's UTF-8 bytes, stable across platforms and runs."""
    acc = 1469598103934665603
    for byte in tag.encode():
        acc = ((acc ^ byte) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return acc


def derive_seed(master_seed: int, *tags: object) -> int:
    """Stable 64-bit child seed from a master seed and a tag tuple."""
    words = [master_seed & 0xFFFFFFFFFFFFFFFF, *(_tag_word(str(tag)) for tag in tags)]
    return int(np.random.SeedSequence(words).generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# The engine: a base spectrum, the folded suffix, the xi mix
# ---------------------------------------------------------------------------

def _clifford_outcomes(items: list[tuple]) -> np.ndarray:
    """The engine's suffix: one exact read-out distribution per (base,
    exponents, factors, xi) item of _suffix_item, all of one width, as the
    rows of one array: base * prod(factors ** exponents) back through
    spectrum_marginal, then mixed toward uniform by xi."""
    bases, exponents, factors, xi = map(np.array, zip(*items))
    vec = spectrum_marginal(bases * (factors[:, :, None] ** exponents).prod(axis=1))
    return (1.0 - xi[:, None]) * vec + xi[:, None] / vec.shape[-1]


@lru_cache(maxsize=256)
def _anticommuting(row: tuple[int, ...], m: int) -> np.ndarray:
    """Read-only 0/1 vector over the 2**m spectral indices s: 1 where some
    flip mask of row overlaps s in an odd number of bits, the s at which
    the site's channel has eigenvalue 1 - rate * k / (k - 1), not 1."""
    parity = _xor_index((1,) * m) & 1  # popcount(i) mod 2
    odd = parity[np.array(row)[:, None] & np.arange(1 << m)].any(axis=0).astype(np.int64)
    odd.setflags(write=False)  # cached and shared by every caller
    return odd


def _conjugate_by(rho: np.ndarray, gate: GateInstance, n: int) -> np.ndarray:
    """U rho U^dagger on vec(rho) of n qubits, rho Hermitian, through the one
    kernel: U on the ket bits, the adjoint, U on the ket bits again, since
    (U rho)^dagger = rho U^dagger."""
    d = 1 << n
    half = _evolve(rho, (gate,), 2 * n)
    return _evolve(np.conjugate(half.reshape(d, d).T, order="C").ravel(), (gate,), 2 * n)


def _pauli_channel(rho: np.ndarray, factor: float, targets: tuple[int, ...], n: int) -> np.ndarray:
    """factor * rho + (1 - factor) * (rho averaged over X and Z on each
    target) on vec(rho) of n qubits: averaging over X adds the entry with
    the qubit's ket and bra bits both flipped and halves, over Z zeroes
    the entries where they differ.  So every component anticommuting with
    a Pauli on the targets is scaled by factor, the suffix's rule: at a
    gate factor of _factors a gate site, at the prep factor a preparation
    flip, since that acts on the diagonal rho of |0...0>, where the Z
    average changes no bit."""
    if factor == 1.0:
        return rho
    mixed = rho
    for q in targets:
        # axes 1 and 3 are the bra and the ket bit of q
        mixed = mixed.reshape(1 << (n - 1 - q), 2, 1 << (n - 1), 2, 1 << q)
        mixed = 0.5 * (mixed + mixed[:, ::-1, :, ::-1]) * _EQUAL_BITS
    return factor * rho + (1.0 - factor) * mixed.ravel()


def _prefix_state(circuit: Circuit, params: NoiseParams, split: int) -> np.ndarray:
    """vec(rho) just after the RZ at gate split, the last, with every site
    ahead of it mixed in: a preparation flip on each qubit, then each gate
    followed by its site's channel, then the RZ.

    vec(rho) is a state on 2n qubits (entry i | j << n holds rho_ij) that
    _conjugate_by runs through each gate as U (U rho)^dagger, and _pauli_channel
    mixes in each site's channel at its factor from _factors.  Memory is
    16 * 4^n bytes; the register cap, MAX_QUBITS // 2, keeps the ket gate
    tables on 2n bits within MAX_QUBITS.
    """
    n = circuit.n_qubits
    if n > MAX_QUBITS // 2:
        raise CircuitError(f"noise ahead of an RZ is limited to {MAX_QUBITS // 2} qubits "
                           f"(its density matrix), got {n}")
    rho = _zero(2 * n)
    factors = dict(zip(_SITES, _factors(params)))
    for q in range(n):
        rho = _pauli_channel(rho, factors["prep"], (q,), n)
    for g in circuit.gates[:split]:
        rho = _pauli_channel(_conjugate_by(rho, g, n), factors[g.kind.arity], g.targets, n)
    return _conjugate_by(rho, circuit.gates[split], n)


def _suffix_item(circuit: Circuit, params: NoiseParams, table: FlipMaskTable
                 ) -> tuple[np.ndarray, np.ndarray, list[float], float]:
    """(base, exponents, factors, xi), all _clifford_outcomes needs of one
    circuit, from its FlipMaskTable.  The base is the read-out spectrum
    before every folded flip: the ideal one, always so in a Clifford
    circuit, or the density-matrix prefix's when a channel the frame
    leaves unfolded fires (p_prep, or the rate of a gate ahead of the
    last RZ).
    Row i of the (4, 2**m) exponents counts, at each s, the folded sites of
    the i-th kind of _SITES (eps1 and eps2 gates, prep and read-out flips)
    whose channel anticommutes with Q_s; factors[i] is that kind's
    eigenvalue there, from _factors.  The folded sites are the gates from
    the split on, and the prep flips when there is no RZ."""
    if not circuit.measured:
        raise CircuitError("circuit measures no qubits")
    split = table.frame[0]
    fires = split >= 0 and (params.p_prep > 0.0 or any(
        getattr(params, _SITES[g.kind.arity][0]) for g in circuit.gates[:split]))
    spectrum = frame_spectrum(circuit, table.frame,
                              _prefix_state(circuit, params, split) if fires else None)
    m = len(circuit.measured)
    flips = [(2, mask) for mask in table.start[2]] if split < 0 else []
    exponents = _exponents(Counter(table.gate_masks[max(split, 0):]), m,
                           flips + [(3, 1 << t) for t in range(m)])
    return spectrum, exponents, _factors(params), params.xi


def _exponents(gates: Counter, m: int, flips: list[tuple[int, int]] = ()) -> np.ndarray:
    """(4, 2**m) exponents, as _suffix_item's, of the gate rows that gates
    counts and the flip sites (kind of _SITES, mask) that flips lists."""
    kinds = [_KIND[len(row)] for row in gates] + [kind for kind, _ in flips]
    counts = (np.arange(4)[:, None] == kinds) * [*gates.values(), *[1] * len(flips)]
    return counts @ np.array([_anticommuting(row, m)
                              for row in [*gates, *((0, mask) for _, mask in flips)]])


def noisy_vector(circuit: Circuit, params: NoiseParams) -> np.ndarray:
    """Exact noisy read-out distribution under every channel, indexed as
    marginal_vector; params.theta is not applied (experiments.run_pairs
    inserts it).  The one-item call of the suffix run_pairs stacks."""
    return _clifford_outcomes([_suffix_item(circuit, params, FlipMaskTable(circuit))])[0]


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
