"""The [[4,2,2]] error-detecting code: states, encoders, gates, decoding.

Two logical qubits live in four physical qubits; every codeword is an
even-parity 4-bit string, so a single bit flip anywhere is caught by
discarding odd-parity outcomes.  Logical operators act transversally
(single-qubit gates only), which is what makes the coded circuits
cheap enough to beat their uncoded versions under two-qubit-dominated
noise.

Post-selection and decoding work on dense outcome vectors: entry j
holds the counts or probability of the read-out string whose k-th bit
is bit k of j, the layout of simulator.marginal_vector.  selection_split
is the one implementation of the discard rule and DECODE_INDEX the one
decode table, a 16-entry map from data index to logical index:

    0000, 1111 -> 00      1010, 0101 -> 10
    1100, 0011 -> 01      0110, 1001 -> 11

equivalently Q0 = q0 xor q1, Q1 = q0 xor q2.  The string-keyed functions
convert to a vector once on entry and back once on return.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .circuits import Circuit, CircuitError, GateInstance, GateKind
from .simulator import (
    OutcomeDistribution,
    ShotCounts,
    bitstring_of,
    counts_from_vector,
    distribution_from_vector,
    index_of,
    outcome_vector,
)

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
# Encoders
# ---------------------------------------------------------------------------

def _g(kind: GateKind, *targets: int) -> GateInstance:
    return GateInstance(kind, targets)

def _l00_core() -> list[GateInstance]:
    return [
        _g(GateKind.H, 1),
        _g(GateKind.CNOT, 1, 0),
        _g(GateKind.CNOT, 1, 2),
        _g(GateKind.CNOT, 2, 3),
    ]


def build_encoder(label: LogicalStateLabel, variant: EncoderVariant) -> Circuit:
    """Preparation circuit whose ideal distribution is codeword_distribution(label).

    The AncillaChecked variant exists only for L00: a fifth qubit checks
    q0 xor q3 (0 on every codeword), turning the one fault class the
    plain encoder misses into a flagged event.  Basis-state labels other
    than L00 are prepared as the L00 encoder followed by transversal
    logical X blocks; the two superposition labels have direct two-Bell
    constructions.
    """
    nonft = variant is EncoderVariant.NON_FAULT_TOLERANT
    if not nonft and label is not LogicalStateLabel.L00:
        raise CircuitError(f"AncillaChecked encoder is only defined for L00, got {label.value}")

    if label is LogicalStateLabel.L00:
        if nonft:
            return Circuit(4, _l00_core(), [0, 1, 2, 3])
        gates = _l00_core() + [_g(GateKind.CNOT, 0, 4), _g(GateKind.CNOT, 3, 4)]
        return Circuit(5, gates, [0, 1, 2, 3, 4])
    if label is LogicalStateLabel.L01:
        return Circuit(4, _l00_core() + coded_gate_circuit(LogicalGate.X1), [0, 1, 2, 3])
    if label is LogicalStateLabel.L10:
        return Circuit(4, _l00_core() + coded_gate_circuit(LogicalGate.X0), [0, 1, 2, 3])
    if label is LogicalStateLabel.L11:
        gates = _l00_core() + coded_gate_circuit(LogicalGate.X1) + coded_gate_circuit(LogicalGate.X0)
        return Circuit(4, gates, [0, 1, 2, 3])
    if label is LogicalStateLabel.L0PLUS:
        # Bell pair on (q0,q1) times Bell pair on (q2,q3)
        gates = [_g(GateKind.H, 0), _g(GateKind.CNOT, 0, 1),
                 _g(GateKind.H, 2), _g(GateKind.CNOT, 2, 3)]
        return Circuit(4, gates, [0, 1, 2, 3])
    if label is LogicalStateLabel.LPHIPLUS:
        # Bell pair on (q0,q3) times Bell pair on (q1,q2)
        gates = [_g(GateKind.H, 0), _g(GateKind.CNOT, 0, 3),
                 _g(GateKind.H, 1), _g(GateKind.CNOT, 1, 2)]
        return Circuit(4, gates, [0, 1, 2, 3])
    raise CircuitError(f"unsupported encoder ({label}, {variant})")  # pragma: no cover


# ---------------------------------------------------------------------------
# Logical gate blocks
# ---------------------------------------------------------------------------

def coded_gate_circuit(gate: LogicalGate) -> list[GateInstance]:
    """Transversal realization on the four data qubits."""
    if gate is LogicalGate.X0:
        return [_g(GateKind.X, 0), _g(GateKind.X, 2)]
    if gate is LogicalGate.X1:
        return [_g(GateKind.X, 0), _g(GateKind.X, 1)]
    if gate is LogicalGate.Z0:
        return [_g(GateKind.Z, 0), _g(GateKind.Z, 1)]
    if gate is LogicalGate.Z1:
        return [_g(GateKind.Z, 0), _g(GateKind.Z, 2)]
    if gate is LogicalGate.CZZZ:
        return [_g(GateKind.S, q) for q in range(4)]
    if gate is LogicalGate.HHSWAP:
        return [_g(GateKind.H, q) for q in range(4)]
    raise CircuitError(f"unknown logical gate {gate}")  # pragma: no cover


def uncoded_gate_circuit(gate: LogicalGate) -> list[GateInstance]:
    """Bare two-qubit realization; SWAP is expanded into three CNOTs."""
    if gate is LogicalGate.X0:
        return [_g(GateKind.X, 0)]
    if gate is LogicalGate.X1:
        return [_g(GateKind.X, 1)]
    if gate is LogicalGate.Z0:
        return [_g(GateKind.Z, 0)]
    if gate is LogicalGate.Z1:
        return [_g(GateKind.Z, 1)]
    if gate is LogicalGate.CZZZ:
        return [_g(GateKind.CZ, 0, 1), _g(GateKind.Z, 0), _g(GateKind.Z, 1)]
    if gate is LogicalGate.HHSWAP:
        return [
            _g(GateKind.H, 0), _g(GateKind.H, 1),
            _g(GateKind.CNOT, 0, 1), _g(GateKind.CNOT, 1, 0), _g(GateKind.CNOT, 0, 1),
        ]
    raise CircuitError(f"unknown logical gate {gate}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Decoding and post-selection
# ---------------------------------------------------------------------------

# Logical index (Q0 in bit 0, Q1 in bit 1) of every 4-bit data index;
# ODD, one past the four logical outcomes, marks odd parity.
ODD = 4
DECODE_INDEX = np.array([0, ODD, ODD, 2, ODD, 1, 3, ODD, ODD, 3, 1, ODD, 2, ODD, ODD, 0])
# data index with bits 0 and 1 exchanged, for relabel_swap01
_SWAP01 = np.array([(j & ~3) | ((j & 1) << 1) | ((j >> 1) & 1) for j in range(16)])
# Retention sums the data entries in bitstring order: the order moves the
# last bit, and CSV values must not depend on the vector layout.
_STRING_ORDER = sorted(range(16), key=lambda j: bitstring_of(j, DATA_QUBITS))
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


def selection_split(vec: np.ndarray,
                    ancilla_bit: int | None = None) -> tuple[np.ndarray, float, float]:
    """Split an outcome vector of counts or probabilities into (retained
    16-entry data vector, parity-rejected mass, ancilla-rejected mass).

    The data are the first DATA_QUBITS read-out bits.  Odd data parity
    rejects; otherwise a set read-out bit ancilla_bit rejects, so an
    outcome failing both counts as a parity rejection.
    """
    bins = _selection_bins(len(vec).bit_length() - 1, ancilla_bit)
    split = np.bincount(bins, weights=vec, minlength=_ANCILLA_BIN + 1)
    return split[:_PARITY_BIN], float(split[_PARITY_BIN]), float(split[_ANCILLA_BIN])


def decode(bitstring: str, relabel_swap01: bool = False) -> str | None:
    """Map a 4-bit data string to its logical value, or None on odd parity.

    relabel_swap01 reads the string with physical qubits 0 and 1
    exchanged, the virtual-SWAP trick that turns a wire relabeling into
    a logical CNOT at decode time.  Off by default.
    """
    if len(bitstring) != DATA_QUBITS or set(bitstring) - {"0", "1"}:
        raise CircuitError(f"expected a 4-bit string, got {bitstring!r}")
    j = index_of(bitstring)
    logical = int(DECODE_INDEX[_SWAP01[j] if relabel_swap01 else j])
    return None if logical == ODD else bitstring_of(logical, 2)


@dataclass
class PostSelectionResult:
    """Retained data-qubit counts plus the bookkeeping around the discard."""

    retained: ShotCounts          # 4-bit data strings, all even parity
    raw_total: int                # R
    parity_rejections: int
    ancilla_rejections: int       # 0 unless an ancilla bit was filtered

    @property
    def accepted(self) -> int:
        """gamma, the number of retained shots."""
        return self.retained.total

    @property
    def retention(self) -> float:
        """r = gamma / R."""
        return self.accepted / self.raw_total if self.raw_total else 0.0


def _split_strings(entries: dict, ancilla_present: bool) -> tuple[np.ndarray, float, float]:
    """selection_split on strings; an ancilla read-out is the fifth character."""
    vec = outcome_vector(entries, DATA_QUBITS + (1 if ancilla_present else 0))
    return selection_split(vec, DATA_QUBITS if ancilla_present else None)


def post_select(raw: ShotCounts, ancilla_present: bool = False) -> PostSelectionResult:
    """Discard odd-parity strings and, with ancilla_present, strings whose
    fifth (ancilla) bit is 1.  Retained counts keep only the data bits."""
    retained, parity_rej, ancilla_rej = _split_strings(raw.counts, ancilla_present)
    return PostSelectionResult(counts_from_vector(retained, DATA_QUBITS), raw.total,
                               int(parity_rej), int(ancilla_rej))


def post_select_distribution(dist: OutcomeDistribution, ancilla_present: bool = False
                             ) -> tuple[OutcomeDistribution | None, float]:
    """Analytic post-selection: (renormalized retained distribution, retention r);
    the distribution is None when nothing is retained."""
    retained, _, _ = _split_strings(dist.probs, ancilla_present)
    r = sum(retained[_STRING_ORDER].tolist())
    if r <= 0.0:
        return None, 0.0
    return distribution_from_vector(retained / r, DATA_QUBITS), r


def decode_distribution(dist: OutcomeDistribution,
                        relabel_swap01: bool = False) -> OutcomeDistribution:
    """Aggregate a 4-bit distribution with even-parity support into logical outcomes."""
    data = outcome_vector(dist.probs, DATA_QUBITS)
    logical = np.bincount(DECODE_INDEX, weights=data[_SWAP01] if relabel_swap01 else data,
                          minlength=ODD + 1)
    if logical[ODD]:
        raise CircuitError("cannot decode odd-parity strings; post-select first")
    return distribution_from_vector(logical[:ODD], 2)
