"""Exact reference results that the benchmark checks the program against.

The checks must survive any legitimate change to how the program draws
its random numbers, so they compare against exact values with binomial
tolerances instead of against golden samples.

For a circuit whose gates after some point are all Clifford, a Pauli
fault in that part only XORs a fixed mask into the read-out.  The mask
comes from one backward (Heisenberg) sweep: carry each measured Z back
through the gates; a fault flips bit t exactly when it anticommutes with
the t-th carried observable.  The exact noisy distribution is then the
ideal one mixed with every site's shifted copies, independently per
site.  Faults before the last RZ cannot be folded that way, so each
configuration of them is simulated with the package's statevector and
the results are mixed by probability.  This is independent of the
package's own forward fault propagation and of its sampling.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from qec422.circuits import Circuit, GateInstance, GateKind
from qec422.simulator import final_state, marginal_vector

ONE_QUBIT = ("X", "Y", "Z")
TWO_QUBIT = tuple(a + b for a in "IXYZ" for b in "IXYZ" if a + b != "II")

# Bins may deviate by Z_SIGMA binomial standard deviations plus Z_SIGMA
# counts; at 6 sigma a false alarm over a whole benchmark campaign
# (~10^6 bin checks) is far below one in a thousand.
Z_SIGMA = 6.0
DATA_BITS = 4


def _pauli(label: str, targets: tuple[int, ...]) -> tuple[int, int]:
    x = z = 0
    for letter, q in zip(label, targets):
        if letter in "XY":
            x |= 1 << q
        if letter in "YZ":
            z |= 1 << q
    return x, z


def _conjugate(x: int, z: int, gate: GateInstance) -> tuple[int, int]:
    """Conjugate a Pauli (phase dropped) by a Clifford gate.

    Every supported gate maps masks the same way as its inverse, so the
    same map serves the backward sweep.
    """
    kind, t = gate.kind, gate.targets
    if kind is GateKind.H:
        q = 1 << t[0]
        if bool(x & q) != bool(z & q):
            x, z = x ^ q, z ^ q
    elif kind is GateKind.S:
        if x & (1 << t[0]):
            z ^= 1 << t[0]
    elif kind is GateKind.CNOT:
        c, u = 1 << t[0], 1 << t[1]
        if x & c:
            x ^= u
        if z & u:
            z ^= c
    elif kind is GateKind.CZ:
        a, b = 1 << t[0], 1 << t[1]
        if x & a:
            z ^= b
        if x & b:
            z ^= a
    elif kind is GateKind.SWAP:
        a, b = 1 << t[0], 1 << t[1]
        if bool(x & a) != bool(x & b):
            x ^= a | b
        if bool(z & a) != bool(z & b):
            z ^= a | b
    elif kind is GateKind.RZ:
        raise ValueError("RZ is not Clifford")
    return x, z


def _flip_masks(circuit: Circuit, first: int) -> tuple[dict[int, list[int]], list[int]]:
    """Read-out flip mask per Pauli label for every site after gate i >= first,
    and (first == 0 only) per qubit for an X before the circuit."""
    gates = circuit.gates
    obs = [(0, 1 << q) for q in circuit.measured]

    def mask(px: int, pz: int) -> int:
        out = 0
        for t, (ox, oz) in enumerate(obs):
            out |= (bin((px & oz) ^ (pz & ox)).count("1") & 1) << t
        return out

    sites: dict[int, list[int]] = {}
    for i in range(len(gates) - 1, first - 1, -1):
        g = gates[i]
        labels = ONE_QUBIT if g.kind.arity == 1 else TWO_QUBIT
        sites[i] = [mask(*_pauli(label, g.targets)) for label in labels]
        if i > first or first == 0:
            obs = [_conjugate(ox, oz, g) for ox, oz in obs]
    prep = [mask(1 << q, 0) for q in range(circuit.n_qubits)] if first == 0 else []
    return sites, prep


def _mix(vec: np.ndarray, masks: list[int], p: float) -> np.ndarray:
    """With probability p, XOR one of masks (uniformly) into the outcome."""
    if p == 0.0:
        return vec
    idx = np.arange(len(vec))
    shifted = sum(vec[idx ^ m] for m in masks) / len(masks)
    return (1.0 - p) * vec + p * shifted


def _ideal(circuit: Circuit) -> np.ndarray:
    return marginal_vector(final_state(circuit).probabilities(),
                           circuit.n_qubits, circuit.measured)


def exact_distribution(circuit: Circuit, params) -> np.ndarray:
    """Exact read-out distribution, indexed like the package's outcomes
    (bit t of the index is the t-th measured qubit)."""
    gates = circuit.gates
    rz = [i for i, g in enumerate(gates) if g.kind is GateKind.RZ]
    first = rz[-1] if rz else 0
    if (first and params.p_prep) or params.xi:
        raise ValueError("no exact reference for preparation flips ahead of an RZ, or for xi")

    def eps(g: GateInstance) -> float:
        return params.eps1 if g.kind.arity == 1 else params.eps2

    # faults after gates before the last RZ: simulate each configuration
    choices = []
    for i in range(first):
        labels = ONE_QUBIT if gates[i].kind.arity == 1 else TWO_QUBIT
        e = eps(gates[i])
        choices.append([(1.0 - e, i, None)] + [(e / len(labels), i, lab) for lab in labels])
    if math.prod(len(c) for c in choices) > 4096:
        raise ValueError("too many fault configurations ahead of the last RZ")
    vec = np.zeros(1 << len(circuit.measured))
    for combo in itertools.product(*choices):
        prob = math.prod(c[0] for c in combo)
        if prob == 0.0:
            continue
        faulted = []
        for i, g in enumerate(gates):
            faulted.append(g)
            label = combo[i][2] if i < first else None
            if label:
                faulted += [GateInstance(GateKind[ch], (q,))
                            for ch, q in zip(label, g.targets) if ch != "I"]
        vec += prob * _ideal(circuit.with_gates(faulted))

    sites, prep = _flip_masks(circuit, first)
    for i, masks in sites.items():
        vec = _mix(vec, masks, eps(gates[i]))
    for m in prep:
        vec = _mix(vec, [m], params.p_prep)
    for t in range(len(circuit.measured)):
        vec = _mix(vec, [1 << t], params.p_meas)
    return vec


def even_parity(n: int) -> np.ndarray:
    """Which outcome indices have even data parity."""
    return np.array([bin(j & ((1 << DATA_BITS) - 1)).count("1") % 2 == 0
                     for j in range(n)])


def post_selected(vec: np.ndarray) -> tuple[np.ndarray, float]:
    """(renormalised even-parity part, retention) of a 4-bit distribution."""
    kept = np.where(even_parity(len(vec)), vec, 0.0)
    r = float(kept.sum())
    return kept / r, r


def decoded(vec: np.ndarray) -> np.ndarray:
    """Logical distribution: Q0 = q0 ^ q1, Q1 = q0 ^ q2, index Q0 + 2 Q1."""
    out = np.zeros(4)
    for j, p in enumerate(vec):
        b = [(j >> k) & 1 for k in range(3)]
        out[(b[0] ^ b[1]) | ((b[0] ^ b[2]) << 1)] += p
    return out


def tv(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(p - q).sum())


def tv_tolerance(p: np.ndarray, n: int) -> float:
    """Largest |TV(empirical, q) - TV(p, q)| when every bin of n draws
    from p lies within its binomial tolerance (triangle inequality)."""
    return 0.5 * float(np.sum(Z_SIGMA * np.sqrt(p * (1.0 - p) / n) + Z_SIGMA / n))


def within_binomial(count: float, n: int, p: float) -> bool:
    return abs(count - n * p) <= Z_SIGMA * math.sqrt(n * p * (1.0 - p)) + Z_SIGMA


def counts_vector(counts: dict[str, int], n_bits: int) -> np.ndarray:
    """Package outcome strings (character k is bit k) to an index vector."""
    vec = np.zeros(1 << n_bits)
    for s, c in counts.items():
        vec[sum(1 << k for k, ch in enumerate(s) if ch == "1")] += c
    return vec


def classify_sites(circuit: Circuit) -> tuple[dict[tuple[int, str], str], str]:
    """Expected verify-ft verdict per (gate_index, pauli) site under parity
    post-selection, and the undetected-weight text.

    Valid for Clifford circuits whose ideal read-out has even data parity:
    an odd mask moves all mass to rejected strings; an even mask either
    leaves the ideal distribution invariant or changes what is retained.
    """
    ideal = _ideal(circuit)
    idx = np.arange(len(ideal))
    if ideal[~even_parity(len(ideal))].sum() > 1e-9:
        raise ValueError("ideal read-out has odd-parity mass")
    sites, _ = _flip_masks(circuit, 0)
    verdicts: dict[tuple[int, str], str] = {}
    undetected = {1: 0, 2: 0}
    for i, masks in sites.items():
        g = circuit.gates[i]
        labels = ONE_QUBIT if g.kind.arity == 1 else TWO_QUBIT
        for label, m in zip(labels, masks):
            if bin(m & ((1 << DATA_BITS) - 1)).count("1") % 2:
                verdict = "DetectedPostSelection"
            elif np.max(np.abs(ideal[idx ^ m] - ideal)) <= 1e-9:
                verdict = "Harmless"
            else:
                verdict = "UndetectedLogicalError"
                undetected[g.kind.arity] += 1
            verdicts[(i, label)] = verdict
    parts = []
    if undetected[1]:
        parts.append(f"{undetected[1]}/3 * eps1")
    if undetected[2]:
        parts.append(f"{undetected[2]}/15 * eps2")
    return verdicts, " + ".join(parts) if parts else "0"
