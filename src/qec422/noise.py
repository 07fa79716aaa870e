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
start, and each RZ's Z from just after it, so every fault site has one
flip mask over the m read-out bits and the k RZs.  A fault after any
gate from the last RZ, the split, on reverses no RZ: it is an X-type
read-out flip, which the suffix folds.  Every folded flip XORs onto the
base independently of it, which is a pointwise product in the
Walsh-Hadamard domain with the site's channel eigenvalues (Flammia &
Wallman, arXiv:1907.12976).  The channel's masks form the image of a
linear map, so at spectral index s its eigenvalue is the factor where a
mask overlaps s in an odd number of bits, else 1: the spectrum is the
base times one factor per kind of _SITES raised to an integer vector
over s, and simulator.spectrum_marginal transforms it back before xi
mixes toward uniform.  The base is the read-out spectrum before the
folded flips.  In a Clifford circuit it is the frame's read on
|0...0>.  Past an RZ, simulator.frame_spectrum reads the start frame's
2**(m + k) products on |0...0>, the sites ahead of the split scale it
by the same closed form over m + k bits, and each RZ, earliest first,
is pulled down a column, RZ(a)^dagger P RZ(a) = cos a P - i sin a P Z
where P anticommutes with Z, so no statevector and no density matrix
runs; m + k is capped at 16.

The randomness is one multinomial per call from the process's one Philox
stream, re-keyed under a lock to the state a fresh Philox(seed) starts
in: Philox is counter-based (Salmon et al., SC'11), so its key and a zero
counter fix every number it gives.  The key is numpy's SeedSequence hash
of the seed, computed by _seed_state with Python ints, which derive_seed
uses too, so a (circuit, params, shots, seed) tuple always yields the
counts np.random.Generator(np.random.Philox(seed)) would draw, however
calls are scheduled around it.
"""

from __future__ import annotations

import operator
import threading
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from .circuits import Circuit, CircuitError, GateInstance, GateKind, finite_real
from .simulator import (MAX_ENTRIES, FlipMaskTable, OutcomeDistribution, ShotCounts, _xor_index,
                        block_rows, frame_spectrum, spectrum_marginal)

ONE_QUBIT_PAULIS = ("X", "Y", "Z")
TWO_QUBIT_PAULIS = tuple(
    a + b for a in "IXYZ" for b in "IXYZ" if a + b != "II"
)  # IX, IY, IZ, XI, ..., ZZ in lexicographic order
_SITES = {1: ("eps1", 4), 2: ("eps2", 16), "prep": ("p_prep", 2), "meas": ("p_meas", 2)}
_KIND = {4: 0, 16: 1}  # a folded gate row's kind, by its length, in _SITES order


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
    with, 1 - rate * k / (k - 1) over its k Paulis, in _SITES order; the
    sites ahead of the last RZ and the folded suffix both scale by it."""
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


# numpy's SeedSequence constants: a pool of four 32-bit words, each hashmix
# step multiplying its hash constant by MULT_A (or, for the output, MULT_B)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(count: int) -> list[tuple[int, int]]:
    """(constant xored in, constant multiplied by) of the first count
    hashmix steps of the pool: INIT_A, then times MULT_A per step."""
    out, h = [], _INIT_A
    for _ in range(count):
        out.append((h, h := h * _MULT_A & _MASK32))
    return out


# the pool's four fill steps, then its twelve cross-mix steps as (src, dst, x, y)
_STEPS = _hash_constants(16)
_FILL = _STEPS[:4]
_CROSS = [(src, dst, *step) for (src, dst), step in zip(
    ((src, dst) for src in range(4) for dst in range(4) if src != dst), _STEPS[4:])]


def _words(n: int) -> list[int]:
    """A non-negative int as little-endian 32-bit words, zero as [0], as
    numpy splits seed entropy."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _seed_state(words: list[int], n: int) -> list[int]:
    """np.random.SeedSequence(words).generate_state(n, np.uint32) as a list
    of ints: the four-word pool is filled by hashmix and cross-mixed,
    every word past the fourth is mixed into each pool word, and the
    output hashes the pool words in turn."""
    pool = []
    for word, (x, y) in zip((*words[:4], 0, 0, 0, 0), _FILL):
        v = (word ^ x) * y & _MASK32
        pool.append(v ^ v >> 16)
    for src, dst, x, y in _CROSS:
        v = (pool[src] ^ x) * y & _MASK32
        r = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * (v ^ v >> 16)) & _MASK32
        pool[dst] = r ^ r >> 16
    h = _STEPS[-1][1]
    for word in words[4:]:
        for dst in range(4):
            v = (word ^ h) * (h := h * _MULT_A & _MASK32) & _MASK32
            r = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * (v ^ v >> 16)) & _MASK32
            pool[dst] = r ^ r >> 16
    out, h = [], _INIT_B
    for i in range(n):
        v = (pool[i & 3] ^ h) * (h := h * _MULT_B & _MASK32) & _MASK32
        out.append(v ^ v >> 16)
    return out


@lru_cache(maxsize=1024)
def _tag_words(tag: str) -> tuple[int, ...]:
    """32-bit words of the 64-bit FNV-1a hash of a tag's UTF-8 bytes,
    stable across platforms and runs."""
    acc = 1469598103934665603
    for byte in tag.encode():
        acc = ((acc ^ byte) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return tuple(_words(acc))


def derive_seed(master_seed: int, *tags: object) -> int:
    """Stable 64-bit child seed from a master seed and a tag tuple."""
    words = _words(operator.index(master_seed) & 0xFFFFFFFFFFFFFFFF)
    for tag in tags:
        words += _tag_words(str(tag))
    lo, hi = _seed_state(words, 2)
    return lo | hi << 32


_LOCK = threading.Lock()  # held from each re-key to the end of its draw
_STREAM: list = []  # the process's one (Philox, Generator), built on its first draw
_EMPTY = (0, 0, 0, 0)


def _keyed(seed: int) -> np.random.Generator:
    """The process's one Generator, set to the state np.random.Philox(seed)
    starts in: key words 0-3 of the seed's SeedSequence state, counter 0,
    nothing buffered.  seed=None draws 128 bits of OS entropy, as
    SeedSequence(None) does.  The caller holds _LOCK until its draw ends."""
    if seed is None:
        from secrets import randbits
        seed = randbits(128)
    elif not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be a non-negative int, got {seed!r}")
    elif seed < 0:
        raise ValueError(f"seed must be a non-negative int, got {seed}")
    w0, w1, w2, w3 = _seed_state(_words(int(seed)), 4)
    if not _STREAM:
        bitgen = np.random.Philox(0)
        _STREAM.extend((bitgen, np.random.Generator(bitgen)))
    bitgen, rng = _STREAM
    bitgen.state = {"bit_generator": "Philox", "state": {"counter": _EMPTY, "key": (
        w0 | w1 << 32, w2 | w3 << 32)}, "buffer": _EMPTY, "buffer_pos": 4, "has_uint32": 0,
        "uinteger": 0}
    return rng


def _draw(seed: int, method: str, *args):
    """One call of a Generator method on the stream a fresh
    np.random.Generator(np.random.Philox(seed)) gives, as that would draw
    it.  Generator methods take the bit generator's own lock, so the
    re-key and the draw share _LOCK instead."""
    with _LOCK:
        return getattr(_keyed(seed), method)(*args)


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
    the site's channel has eigenvalue 1 - rate * k / (k - 1), not 1.  A
    row is the image of a linear map, row[i ^ j] = row[i] ^ row[j], and
    parity is linear, so some mask overlaps s oddly exactly when one of
    the generators row[1], row[2], row[4], ... does.  One byte per entry,
    so the cache holds at most 256 * MAX_ENTRIES bytes."""
    parity = _xor_index((1,) * m) & 1  # popcount(i) mod 2
    generators = [row[1 << b] for b in range(len(row).bit_length() - 1)]
    odd = parity[np.array(generators)[:, None] & np.arange(1 << m)].any(axis=0).astype(np.int8)
    odd.setflags(write=False)  # cached and shared by every caller
    return odd


def _suffix_item(circuit: Circuit, params: NoiseParams, table: FlipMaskTable
                 ) -> tuple[np.ndarray, np.ndarray, list[float], float]:
    """(base, exponents, factors, xi), all _clifford_outcomes needs of one
    circuit, from its FlipMaskTable.  The base is the read-out spectrum
    before every folded flip: in a Clifford circuit the ideal one, else
    the start frame's spectrum over its m + k columns, scaled by the sites
    ahead of the last RZ, each prep flip among them, with the RZs pulled
    down into its first 2**m entries.
    Row i of the (4, 2**m) exponents counts, at each s, the folded sites of
    the i-th kind of _SITES (eps1 and eps2 gates, prep and read-out flips)
    whose channel anticommutes with Q_s; factors[i] is that kind's
    eigenvalue there, from _factors.  The folded sites are the gates from
    the split on, and the prep flips when there is no RZ."""
    if not circuit.measured:
        raise CircuitError("circuit measures no qubits")
    split, m, k = table.frame[0], len(circuit.measured), len(table.rz)
    if 1 << (m + k) > MAX_ENTRIES:
        raise CircuitError(f"a spectrum over m + k = {m + k} read-out bits and RZs "
                           f"exceeds {MAX_ENTRIES.bit_length() - 1}")
    factors = _factors(params)
    flips = [(2, mask) for mask in table.start[2]]
    if split < 0:
        spectrum = frame_spectrum(circuit, table.start)
    else:
        ahead = _exponents(Counter(table.gate_masks[:split]), m + k, flips)
        spectrum = frame_spectrum(circuit, table.start, m + k) * (
            np.array(factors)[:, None] ** ahead).prod(axis=0)
        for j in reversed(range(k)):  # earliest first: RZ(a)^dagger P RZ(a) = cos a P - i sin a P Z_q
            angle, half = circuit.gates[table.rz[j]].angle, 1 << (m + j)
            odd = _anticommuting((0, table.gate_masks[table.rz[j]][3]), m + j)
            low = spectrum[:half]
            spectrum = np.where(odd, np.cos(angle) * low - 1j * np.sin(angle) * spectrum[half:], low)
        spectrum, flips = spectrum.real, []
    exponents = _exponents(Counter(table.gate_masks[max(split, 0):]), m,
                           flips + [(3, 1 << t) for t in range(m)])
    return spectrum, exponents, factors, params.xi


def _exponents(gates: Counter, m: int, flips: list[tuple[int, int]] = ()) -> np.ndarray:
    """(4, 2**m) exponents, as _suffix_item's, of the gate rows that gates
    counts and the flip sites (kind of _SITES, mask) that flips lists,
    summed over stacks of block_rows(2**m) rows."""
    kinds = [_KIND[len(row)] for row in gates] + [kind for kind, _ in flips]
    counts = (np.arange(4)[:, None] == kinds) * [*gates.values(), *[1] * len(flips)]
    rows, step = [*gates, *((0, mask) for _, mask in flips)], block_rows(1 << m)
    return sum(counts[:, k:k + step] @ np.array([_anticommuting(row, m) for row in rows[k:k + step]])
               for k in range(0, len(rows), step))


def noisy_vector(circuit: Circuit, params: NoiseParams) -> np.ndarray:
    """Exact noisy read-out distribution under every channel, indexed as
    marginal_vector; params.theta is not applied (experiments.run_pairs
    inserts it).  The one-item call of the suffix run_pairs stacks."""
    return _clifford_outcomes([_suffix_item(circuit, params, FlipMaskTable(circuit))])[0]


def sample_outcomes(vec: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Counts of shots drawn from the outcome vector vec with one
    multinomial of the Philox stream of seed; deterministic in (vec,
    shots, seed)."""
    if not 1 <= shots < 1 << 63:
        raise CircuitError(f"shots must be in [1, 2**63 - 1], got {shots}")
    return _draw(seed, "multinomial", shots, vec)


def noisy_counts(circuit: Circuit, params: NoiseParams, shots: int, seed: int) -> ShotCounts:
    """Shots drawn from the exact noisy process (prep flips, per-gate Pauli
    faults, read-out flips, xi) by sample_outcomes of noisy_vector."""
    return ShotCounts._trusted(sample_outcomes(noisy_vector(circuit, params), shots, seed))
