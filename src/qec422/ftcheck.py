"""Exhaustive single-fault verification.

A circuit is fault tolerant in the error-detection sense if no single
gate fault can change the post-selected outcome distribution without
being flagged.  The check enumerates every fault site (3 Paulis after
each one-qubit gate, 15 after each two-qubit gate, optionally an X
before the circuit on each qubit) and works out each faulted outcome
vector exactly.  One backward Pauli-frame sweep (simulator.FlipMaskTable)
gives every fault after the last RZ -- every fault, in a Clifford
circuit -- as a read-out flip mask: the ideal outcome vector with
indices XORed by the mask.  The distinct masks of all folded rows are
classified together, one code.selection_split of their stack, and each
distinct gate row's verdicts are copied to its sites: on m read-out bits
O(min(sites, 2^m) * 2^m) entries are split once, plus O(1) per site.
Faults ahead of the last RZ are simulated, one statevector of the
faulted gates up to that RZ each, read through the table's frame, and
classified by the same rule:

Harmless                  retained distribution and retention both unchanged
DetectedPostSelection     probability mass moved into odd-parity strings
DetectedAncilla           mass flagged only by the ancilla read-out bit
UndetectedLogicalError    retained distribution changed; nothing flagged it

Each one-qubit site fires with probability eps1/3 and each two-qubit
site with eps2/15, so the report totals undetected weight in those
units; the non-fault-tolerant L00 encoder comes out at 8 * eps2 / 15.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from itertools import takewhile
from typing import NamedTuple

import numpy as np

from .circuits import Circuit, CircuitError, GateInstance, GateKind
from .code import DATA_QUBITS, selection_split
from .noise import ONE_QUBIT_PAULIS, TWO_QUBIT_PAULIS
from .simulator import FlipMaskTable, frame_spectrum, spectrum_marginal

DETECTION_MODES = ("postselect", "postselect+ancilla")
# weight unit (FaultSite.weight_units) -> its term in the report, in report order
_WEIGHT_TERMS = {"eps1/3": "{}/3 * eps1", "eps2/15": "{}/15 * eps2", "p_prep": "{} * p_prep"}
_ATOL = 1e-9


class FaultClassification:
    HARMLESS = "Harmless"
    DETECTED_POSTSELECTION = "DetectedPostSelection"
    DETECTED_ANCILLA = "DetectedAncilla"
    UNDETECTED_LOGICAL_ERROR = "UndetectedLogicalError"


# the verdicts in report order, indexed by _classify's codes
_VERDICTS = (FaultClassification.HARMLESS, FaultClassification.DETECTED_POSTSELECTION,
             FaultClassification.DETECTED_ANCILLA, FaultClassification.UNDETECTED_LOGICAL_ERROR)


class FaultSite(NamedTuple):
    """One Pauli fault location: after gate gate_index, or a preparation
    X flip when gate_index is -1."""

    gate_index: int
    targets: tuple[int, ...]
    pauli: str

    @property
    def is_preparation(self) -> bool:
        return self.gate_index == -1

    @property
    def weight_units(self) -> str:
        """Which per-site probability this site carries."""
        if self.is_preparation:
            return "p_prep"
        return "eps1/3" if len(self.pauli) == 1 else "eps2/15"


# FaultSite((gate_index, targets, pauli)) without the Python-level __new__ of a NamedTuple
_site = partial(tuple.__new__, FaultSite)


def enumerate_single_faults(circuit: Circuit, include_preparation: bool = False) -> list[FaultSite]:
    """All single-fault sites, in circuit order."""
    sites = [_site((-1, (q,), "X")) for q in range(circuit.n_qubits)] if include_preparation else []
    for i, g in enumerate(circuit.gates):
        sites += [_site((i, g.targets, pauli))
                  for pauli in (ONE_QUBIT_PAULIS if g.kind.arity == 1 else TWO_QUBIT_PAULIS)]
    return sites


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def _classify(ideal: np.ndarray, vecs: np.ndarray, ancilla_bit: int | None) -> list[str]:
    """Verdict of each row of vecs, a faulted outcome vector, against ideal,
    from one selection_split of the stack [ideal, *vecs]: the rule
    post-selection applies to sampled counts, then the module's four tests."""
    ret, par, _ = selection_split(np.vstack((ideal, vecs)), ancilla_bit)
    mass = ret.sum(axis=1)
    if mass[0] <= _ATOL:
        raise CircuitError("ideal circuit retains no probability mass")
    kept = mass[1:] > _ATOL
    # a changed retained distribution that still reaches the decoder is
    # exactly what detection is supposed to prevent
    moved = np.abs(ret[1:] / np.where(kept, mass[1:], 1.0)[:, None] - ret[0] / mass[0]).max(axis=1)
    code = np.where(kept & (moved > _ATOL), 3, np.where(
        np.abs(mass[1:] - mass[0]) <= _ATOL, 0, np.where(par[1:] > par[0] + _ATOL, 1, 2)))
    return [_VERDICTS[c] for c in code.tolist()]


def verify_single_faults(circuit: Circuit, detection: str | None = None,
                         circuit_id: str = "circuit",
                         include_preparation: bool = False) -> FTReport:
    """Classify every single-fault site of the circuit; the verdict is
    fault_tolerant iff no site is an undetected logical error.

    detection is "postselect" (data-parity discard only) or
    "postselect+ancilla" (also require the ancilla, the last measured
    qubit, to read 0).  None picks it from the read-out: a bit beyond
    the four data bits is the ancilla.
    The flip-mask table is built once, and its frame gives the ideal
    marginal (with no statevector in a Clifford circuit).  A fault the
    Pauli frame folds (after the last RZ, or anywhere in a Clifford
    circuit) permutes the ideal outcomes by its mask, so the distinct
    masks are classified in one split, in blocks of at most 2^16 entries,
    and each gate's sites take its row's verdicts.  Only the sites a None
    row leaves unfolded (ahead of the last RZ) are simulated one by one,
    each read off the table's frame, so a check sweeps the frame once.
    """
    if len(circuit.measured) < DATA_QUBITS:
        raise CircuitError("detection needs at least the four data qubits measured")
    if detection is None:
        detection = "postselect+ancilla" if len(circuit.measured) > DATA_QUBITS else "postselect"
    if detection not in DETECTION_MODES:
        raise CircuitError(f"detection must be one of {DETECTION_MODES}, got {detection!r}")
    ancilla_bit = None
    if detection == "postselect+ancilla":
        ancilla_bit = len(circuit.measured) - 1
        if ancilla_bit < DATA_QUBITS:
            raise CircuitError("ancilla bit cannot be one of the four data bits")

    table = FlipMaskTable(circuit)
    ideal = spectrum_marginal(frame_spectrum(circuit, table.frame))
    # one row per site group, in site order: row[k] is the mask of the group's k-th site
    rows = [table.prep_masks] * include_preparation + table.gate_masks
    folded = set(rows) - {None}
    masks = np.array(sorted(set().union(*folded)))
    step = max(1, (1 << 16) >> len(circuit.measured))
    idx = np.arange(len(ideal))
    by_mask = dict(zip(masks.tolist(), [
        v for k in range(0, len(masks), step)
        for v in _classify(ideal, ideal[idx ^ masks[k:k + step, None]], ancilla_bit)]))
    by_row = {row: [by_mask[m] for m in row[1:]] for row in folded}

    sites = enumerate_single_faults(circuit, include_preparation)
    out = []
    # the unfolded sites, after a gate ahead of the last RZ or before the first gate, lead sites
    split, *frame = table.frame
    gates = circuit.gates
    for i, targets, pauli in takewhile(lambda s: s.gate_index < split, sites):
        # the gates after the RZ are untouched, so the faulted prefix keeps the table's frame
        fault = [GateInstance(GateKind[c], (q,)) for c, q in zip(pauli, targets) if c != "I"]
        prefix = circuit.with_gates(gates[:i + 1] + fault + gates[i + 1:split + 1])
        out += _classify(ideal, spectrum_marginal(frame_spectrum(
            prefix, (split + len(fault), *frame))), ancilla_bit)
    for row in filter(None, rows):
        out += by_row[row]
    return FTReport(circuit_id, detection, list(zip(sites, out)))


# ---------------------------------------------------------------------------
# Whole-circuit report
# ---------------------------------------------------------------------------

@dataclass
class FTReport:
    """Classification of every enumerated site plus the aggregate verdict."""

    circuit_id: str
    detection: str
    classifications: list[tuple[FaultSite, str]]

    @property
    def fault_tolerant(self) -> bool:
        return not self.undetected_sites()

    def undetected_sites(self) -> list[FaultSite]:
        return [s for s, c in self.classifications
                if c == FaultClassification.UNDETECTED_LOGICAL_ERROR]

    def undetected_counts(self) -> dict[str, int]:
        """Undetected site tallies keyed by their weight units, in _WEIGHT_TERMS order."""
        out = dict.fromkeys(_WEIGHT_TERMS, 0)
        for s in self.undetected_sites():
            out[s.weight_units] += 1
        return out

    def undetected_fraction(self, eps1: float, eps2: float, p_prep: float = 0.0) -> float:
        """First-order undetected-error weight at the given fault rates."""
        n = self.undetected_counts()
        return n["eps1/3"] * eps1 / 3.0 + n["eps2/15"] * eps2 / 15.0 + n["p_prep"] * p_prep

    def undetected_fraction_text(self) -> str:
        return " + ".join(_WEIGHT_TERMS[unit].format(k)
                          for unit, k in self.undetected_counts().items() if k) or "0"

    def tally(self) -> dict[str, int]:
        verdicts = [c for _, c in self.classifications]
        return {c: verdicts.count(c) for c in _VERDICTS}

    def to_json(self) -> str:
        """The header through json.dumps, so circuit_id keeps its escaping, then the sites."""
        head = json.dumps({
            "circuit_id": self.circuit_id,
            "detection": self.detection,
            "fault_tolerant": self.fault_tolerant,
            "n_sites": len(self.classifications),
            "tally": self.tally(),
            "undetected_fraction": self.undetected_fraction_text(),
        })
        # each field is an int list or a plain ASCII word, so no escaping is needed
        targets = {t: str(list(t)) for t in {s.targets for s, _ in self.classifications}}
        sites = ", ".join([f'{{"gate_index": {i}, "targets": {targets[t]}, "pauli": "{p}", '
                           f'"classification": "{c}"}}' for (i, t, p), c in self.classifications])
        return f'{head[:-1]}, "sites": [{sites}]}}'

    def format_table(self) -> str:
        lines = [
            f"circuit: {self.circuit_id}   detection: {self.detection}",
            f"{'site':>6} {'gate':>6} {'targets':>9} {'pauli':>5}  classification",
        ]
        for k, (s, c) in enumerate(self.classifications):
            gate = "prep" if s.is_preparation else str(s.gate_index)
            tgt = ",".join(map(str, s.targets))
            lines.append(f"{k:>6} {gate:>6} {tgt:>9} {s.pauli:>5}  {c}")
        t = self.tally()
        lines.append(
            f"total {len(self.classifications)} sites: "
            + ", ".join(f"{v} {k}" for k, v in t.items())
        )
        lines.append(f"undetected weight: {self.undetected_fraction_text()}")
        lines.append(f"fault tolerant: {'yes' if self.fault_tolerant else 'no'}")
        return "\n".join(lines)
