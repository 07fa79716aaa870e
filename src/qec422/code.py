"""The [[4,2,2]] error-detecting code: states, encoders, gates, decoding.

Two logical qubits live in four physical qubits; every codeword is an
even-parity 4-bit string, so a single bit flip anywhere is caught by
discarding odd-parity outcomes.  Logical operators act transversally
(single-qubit gates only), which is what makes the coded circuits
cheap enough to beat their uncoded versions under two-qubit-dominated
noise.

Every gate block and encoder is data: _GATE_BLOCKS holds each logical
gate's coded and uncoded realization and _ENCODERS each label's encoder,
as frozen tuples built at import, and the block functions and
build_encoder hand out fresh lists of them.

Post-selection and decoding read the .vec of ShotCounts and
OutcomeDistribution: entry j holds the counts or probability of the
read-out string whose k-th bit is bit k of j, the layout of
simulator.marginal_vector.  selection_split is the one implementation of
the discard rule and DECODE_INDEX the one decode table, a 16-entry map
from data index to logical index:

    0000, 1111 -> 00      1010, 0101 -> 10
    1100, 0011 -> 01      0110, 1001 -> 11

equivalently Q0 = q0 xor q1, Q1 = q0 xor q2.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .circuits import Circuit, CircuitError, GateInstance, GateKind
from .simulator import OutcomeDistribution, ShotCounts, bitstring_of, index_of, ordered_sum

DATA_QUBITS = 4


class LogicalStateLabel(Enum):
    L00 = "L00"
    L01 = "L01"
    L10 = "L10"
    L11 = "L11"
    L0PLUS = "L0plus"          # |0>|+> : superposition over logical 00 and 01
    LPHIPLUS = "LPhiPlus"      # Bell state over the two logical qubits


class EncoderVariant(Enum):
    NON_FAULT_TOLERANT = "NonFaultTolerant"
    ANCILLA_CHECKED = "AncillaChecked"


class LogicalGate(Enum):
    X0 = "X0"
    X1 = "X1"
    Z0 = "Z0"
    Z1 = "Z1"
    CZZZ = "CZZZ"              # controlled-Z followed by Z on both qubits
    HHSWAP = "HHSWAP"          # Hadamard on both qubits followed by SWAP
    __hash__ = object.__hash__  # members are singletons, so identity is equality


CODEWORD_STRINGS: dict[LogicalStateLabel, tuple[str, ...]] = {
    LogicalStateLabel.L00: ("0000", "1111"),
    LogicalStateLabel.L01: ("1100", "0011"),
    LogicalStateLabel.L10: ("1010", "0101"),
    LogicalStateLabel.L11: ("0110", "1001"),
    LogicalStateLabel.L0PLUS: ("0000", "1111", "1100", "0011"),
    LogicalStateLabel.LPHIPLUS: ("0000", "1111", "0110", "1001"),
}


def codeword_distribution(label: LogicalStateLabel) -> OutcomeDistribution:
    """Ideal measurement distribution of the encoded state."""
    strings = CODEWORD_STRINGS[label]
    return OutcomeDistribution({s: 1.0 / len(strings) for s in strings})


# ---------------------------------------------------------------------------
# Logical gate blocks and encoders
# ---------------------------------------------------------------------------

def _block(*specs: str) -> tuple[GateInstance, ...]:
    """Gates from specs such as "CNOT 0 1"."""
    return tuple(GateInstance(GateKind[k], tuple(map(int, q))) for k, *q in map(str.split, specs))


# (transversal block on the four data qubits, bare block on two qubits)
# of every logical gate; the bare SWAP is three CNOTs
_GATE_BLOCKS: dict[LogicalGate, tuple[tuple[GateInstance, ...], tuple[GateInstance, ...]]] = {
    LogicalGate.X0: (_block("X 0", "X 2"), _block("X 0")),
    LogicalGate.X1: (_block("X 0", "X 1"), _block("X 1")),
    LogicalGate.Z0: (_block("Z 0", "Z 1"), _block("Z 0")),
    LogicalGate.Z1: (_block("Z 0", "Z 2"), _block("Z 1")),
    LogicalGate.CZZZ: (_block("S 0", "S 1", "S 2", "S 3"), _block("CZ 0 1", "Z 0", "Z 1")),
    LogicalGate.HHSWAP: (_block("H 0", "H 1", "H 2", "H 3"),
                         _block("H 0", "H 1", "CNOT 0 1", "CNOT 1 0", "CNOT 0 1")),
}

for _coded, _bare in _GATE_BLOCKS.values():  # checked once here, so build_pair need not
    Circuit(4, list(_coded)), Circuit(2, list(_bare))

# The NonFaultTolerant encoder of every label on the four data qubits:
# basis labels other than L00 are the L00 encoder followed by transversal
# logical X blocks, and each superposition label is two Bell pairs.
_L00_CORE = _block("H 1", "CNOT 1 0", "CNOT 1 2", "CNOT 2 3")
_X0, _X1 = _GATE_BLOCKS[LogicalGate.X0][0], _GATE_BLOCKS[LogicalGate.X1][0]
_ENCODERS: dict[LogicalStateLabel, tuple[GateInstance, ...]] = {
    LogicalStateLabel.L00: _L00_CORE,
    LogicalStateLabel.L01: _L00_CORE + _X1,
    LogicalStateLabel.L10: _L00_CORE + _X0,
    LogicalStateLabel.L11: _L00_CORE + _X1 + _X0,
    LogicalStateLabel.L0PLUS: _block("H 0", "CNOT 0 1", "H 2", "CNOT 2 3"),    # (q0,q1), (q2,q3)
    LogicalStateLabel.LPHIPLUS: _block("H 0", "CNOT 0 3", "H 1", "CNOT 1 2"),  # (q0,q3), (q1,q2)
}


def build_encoder(label: LogicalStateLabel, variant: EncoderVariant) -> Circuit:
    """Preparation circuit whose ideal distribution is codeword_distribution(label).

    The AncillaChecked variant exists only for L00: a fifth qubit checks
    q0 xor q3 (0 on every codeword), turning the one fault class the
    plain encoder misses into a flagged event.
    """
    if label not in _ENCODERS:
        raise CircuitError(f"unknown encoder label {label!r}")
    if variant is EncoderVariant.NON_FAULT_TOLERANT:
        return Circuit(4, list(_ENCODERS[label]), [0, 1, 2, 3])
    if label is not LogicalStateLabel.L00:
        raise CircuitError(f"AncillaChecked encoder is only defined for L00, got {label.value}")
    return Circuit(5, list(_L00_CORE + _block("CNOT 0 4", "CNOT 3 4")), [0, 1, 2, 3, 4])


def _gate_blocks(gate: LogicalGate) -> tuple[tuple[GateInstance, ...], tuple[GateInstance, ...]]:
    if not isinstance(gate, LogicalGate):
        raise CircuitError(f"unknown logical gate {gate}")
    return _GATE_BLOCKS[gate]


def coded_gate_circuit(gate: LogicalGate) -> list[GateInstance]:
    """Transversal realization on the four data qubits, as a fresh list."""
    return list(_gate_blocks(gate)[0])


def uncoded_gate_circuit(gate: LogicalGate) -> list[GateInstance]:
    """Bare two-qubit realization, as a fresh list; SWAP is expanded into three CNOTs."""
    return list(_gate_blocks(gate)[1])


# ---------------------------------------------------------------------------
# Decoding and post-selection
# ---------------------------------------------------------------------------

# Logical index (Q0 in bit 0, Q1 in bit 1) of every 4-bit data index;
# ODD, one past the four logical outcomes, marks odd parity.
ODD = 4
DECODE_INDEX = np.array([0, ODD, ODD, 2, ODD, 1, 3, ODD, ODD, 3, 1, ODD, 2, ODD, ODD, 0])
_PARITY_BIN, _ANCILLA_BIN = 16, 17


@lru_cache(maxsize=None)
def _selection_bins(n_bits: int, ancilla_bit: int | None) -> np.ndarray:
    """Bin of every read-out index: its data index, _PARITY_BIN or _ANCILLA_BIN."""
    j = np.arange(1 << n_bits)
    data = j & ((1 << DATA_QUBITS) - 1)
    bins = np.where(DECODE_INDEX[data] == ODD, _PARITY_BIN, data)
    if ancilla_bit is not None:
        bins[((j >> ancilla_bit) & 1).astype(bool) & (bins != _PARITY_BIN)] = _ANCILLA_BIN
    bins.setflags(write=False)  # cached and shared by every caller
    return bins


def selection_split(vec: np.ndarray, ancilla_bit: int | None = None) -> tuple:
    """Split an outcome vector of counts or probabilities into (retained
    16-entry data vector, parity-rejected mass, ancilla-rejected mass).

    The data are the first DATA_QUBITS read-out bits.  Odd data parity
    rejects; otherwise a set read-out bit ancilla_bit rejects, so an
    outcome failing both counts as a parity rejection.  A stack of vectors,
    one per row, is split by one bincount into one part or mass per row.
    """
    split = binned(vec, _selection_bins(vec.shape[-1].bit_length() - 1, ancilla_bit),
                   _ANCILLA_BIN + 1)
    if vec.ndim == 1:
        return split[:_PARITY_BIN], float(split[_PARITY_BIN]), float(split[_ANCILLA_BIN])
    return split[:, :_PARITY_BIN], split[:, _PARITY_BIN], split[:, _ANCILLA_BIN]


def binned(vec: np.ndarray, bins: np.ndarray, n: int) -> np.ndarray:
    """np.bincount(bins, vec, n) of a vector, or of each row of a stack by one bincount."""
    if vec.ndim == 1:
        return np.bincount(bins, vec, n)
    flat = (bins + np.arange(0, n * len(vec), n)[:, None]).ravel()
    return np.bincount(flat, vec.ravel(), n * len(vec)).reshape(-1, n)


def decode(bitstring: str) -> str | None:
    """Map a 4-bit data string to its logical value, or None on odd parity."""
    if len(bitstring) != DATA_QUBITS or set(bitstring) - {"0", "1"}:
        raise CircuitError(f"expected a 4-bit string, got {bitstring!r}")
    logical = int(DECODE_INDEX[index_of(bitstring)])
    return None if logical == ODD else bitstring_of(logical, 2)


@dataclass
class PostSelectionResult:
    """Retained data-qubit counts, all even parity."""

    retained: ShotCounts

    @property
    def accepted(self) -> int:
        """gamma, the number of retained shots."""
        return self.retained.total


def _data_vector(outcomes: ShotCounts | OutcomeDistribution) -> np.ndarray:
    """The .vec of 4-bit outcomes; an ancilla read-out goes through selection_split."""
    if outcomes.n_bits != DATA_QUBITS:
        raise CircuitError(f"expected {DATA_QUBITS}-bit outcomes, got {outcomes.n_bits}")
    return outcomes.vec


def post_select(raw: ShotCounts) -> PostSelectionResult:
    """Discard odd-parity strings from 4-bit counts."""
    return PostSelectionResult(ShotCounts(selection_split(_data_vector(raw))[0]))


def retained_distribution(vec: np.ndarray) -> tuple[OutcomeDistribution | None, float]:
    """Post-select a 4-bit vector of counts or probabilities: (retained
    part renormalized, or None when nothing is retained; retained mass)."""
    retained = selection_split(vec)[0]
    kept = ordered_sum(retained)
    if kept <= 0.0:
        return None, 0.0
    return OutcomeDistribution(retained / kept), kept


def post_select_distribution(dist: OutcomeDistribution) -> tuple[OutcomeDistribution | None, float]:
    """Analytic post-selection: (renormalized retained distribution, retention r);
    the distribution is None when nothing is retained."""
    return retained_distribution(_data_vector(dist))


def decode_distribution(dist: OutcomeDistribution) -> OutcomeDistribution:
    """Aggregate a 4-bit distribution with even-parity support into logical outcomes."""
    logical = np.bincount(DECODE_INDEX, weights=_data_vector(dist), minlength=ODD + 1)
    if logical[ODD]:
        raise CircuitError("cannot decode odd-parity strings; post-select first")
    return OutcomeDistribution(logical[:ODD])
