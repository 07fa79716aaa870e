"""Shared test fixtures."""

import numpy as np
import pytest

from qec422.circuits import Circuit, GateInstance, GateKind

CLIFFORD_KINDS = [k for k in GateKind if k is not GateKind.RZ]


@pytest.fixture
def random_clifford():
    """Builder of seeded random Clifford circuits: every gate kind but RZ
    at least once, then n_extra more drawn uniformly, shuffled; a random
    subset of the qubits (all of them when measure_all) is measured in
    random order."""

    def build(seed: int, n_qubits: int, n_extra: int, measure_all: bool = False) -> Circuit:
        rng = np.random.default_rng(seed)
        kinds = CLIFFORD_KINDS + [CLIFFORD_KINDS[j] for j in
                                  rng.integers(0, len(CLIFFORD_KINDS), n_extra)]
        gates = [GateInstance(k, tuple(int(q) for q in rng.choice(n_qubits, k.arity, replace=False)))
                 for k in kinds]
        rng.shuffle(gates)
        n_measured = n_qubits if measure_all else int(rng.integers(1, n_qubits + 1))
        measured = [int(q) for q in rng.permutation(n_qubits)[:n_measured]]
        return Circuit(n_qubits, gates, measured)

    return build
