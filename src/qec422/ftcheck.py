"""Exhaustive single-fault verification.

A circuit is fault tolerant in the error-detection sense if no single
gate fault can change the post-selected outcome distribution without
being flagged.  The check enumerates every fault site (3 Paulis after
each one-qubit gate, 15 after each two-qubit gate, optionally an X
before the circuit on each qubit) and works out each faulted outcome
vector exactly.  One backward Pauli-frame sweep (simulator.FlipMaskTable)
gives every fault as a mask: its read-out flip, and the RZs whose angle
it reverses on the way, its sign pattern.  Its faulted outcome vector is
the ideal one of the circuit with those RZs reversed, one statevector per
distinct pattern (none in a Clifford circuit, where the only pattern is
0 and its vector is the ideal), with indices XORed by the flip.  The
distinct masks of all rows are classified together, one
code.selection_split of their stack, and each distinct gate row gets one
verdict list, which its gates share: on m read-out bits O(distinct masks
* 2^m) entries are split once, plus O(1) per gate.  The rule:

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
from typing import NamedTuple

import numpy as np

from .circuits import Circuit, CircuitError, GateInstance, GateKind
from .code import DATA_QUBITS, selection_split
from .noise import ONE_QUBIT_PAULIS, TWO_QUBIT_PAULIS
from .simulator import FlipMaskTable, block_rows, frame_spectrum, spectrum_marginal

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
_UNDETECTED = FaultClassification.UNDETECTED_LOGICAL_ERROR


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
_PAULIS = {1: ONE_QUBIT_PAULIS, 2: TWO_QUBIT_PAULIS}


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
    marginal (with no statevector in a Clifford circuit).  Each distinct
    sign pattern of the masks, the bits from m up, is read once off that
    frame, with its RZs reversed, and a mask's faulted vector is its
    pattern's read with indices XORed by its low m bits, one gather per
    pattern.  The distinct masks are classified in one split, in blocks of
    block_rows, and each gate takes its row's one verdict list.
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
    m = len(circuit.measured)
    # one group per prep flip, then per gate, with its sites' masks: row[k + 1] for paulis[k]
    groups = [(-1, (q,), ("X",), (0, table.start[2][q]))
              for q in range(circuit.n_qubits * include_preparation)]
    groups += [(i, g.targets, _PAULIS[g.kind.arity], row)
               for i, (g, row) in enumerate(zip(circuit.gates, table.gate_masks))]
    rows = {row for *_, row in groups}
    masks = sorted(set().union(*rows))
    step, idx, low = block_rows(len(ideal)), np.arange(len(ideal)), (1 << m) - 1
    reads, verdicts = {0: ideal}, []
    for k in range(0, len(masks), step):
        # sorted masks keep each sign pattern's together: a block keeps its own reads and order
        flips: dict[int, list[int]] = {}
        for x in masks[k:k + step]:
            flips.setdefault(x >> m, []).append(x & low)
        reads = {r: reads[r] if r in reads else _read(circuit, table, r) for r in flips}
        vecs = np.concatenate([reads[r][np.array(f)[:, None] ^ idx] for r, f in flips.items()])
        verdicts += _classify(ideal, vecs, ancilla_bit)
    by_mask = dict(zip(masks, verdicts))
    by_row = {row: [by_mask[x] for x in row[1:]] for row in rows}
    return FTReport(circuit_id, detection, [(i, t, p, by_row[row]) for i, t, p, row in groups])


def _read(circuit: Circuit, table: FlipMaskTable, pattern: int) -> np.ndarray:
    """Ideal read-out vector of the circuit with the angle of RZ j, gate
    table.rz[j], reversed for each set bit j of pattern, read off the
    table's frame: the gates after the last RZ are Clifford and untouched."""
    gates = list(circuit.gates)
    for j, i in enumerate(table.rz):
        if pattern >> j & 1:
            gates[i] = GateInstance(GateKind.RZ, gates[i].targets, -gates[i].angle)
    return spectrum_marginal(frame_spectrum(circuit.with_gates(gates), table.frame))


# ---------------------------------------------------------------------------
# Whole-circuit report
# ---------------------------------------------------------------------------

@dataclass
class FTReport:
    """Every site's verdict as one group per gate (or preparation flip), in
    site order: (gate_index, targets, paulis, verdicts), verdicts[k] that of
    paulis[k].  Gates of one flip-mask row share its verdict list."""

    circuit_id: str
    detection: str
    groups: list[tuple[int, tuple[int, ...], tuple[str, ...], list[str]]]

    @property
    def classifications(self) -> list[tuple[FaultSite, str]]:
        return [(_site((i, t, p)), c) for i, t, paulis, verdicts in self.groups
                for p, c in zip(paulis, verdicts)]

    @property
    def fault_tolerant(self) -> bool:
        return not self.tally()[_UNDETECTED]

    def undetected_sites(self) -> list[FaultSite]:
        return [s for s, c in self.classifications if c == _UNDETECTED]

    def _totals(self) -> tuple[dict[str, int], dict[str, int], str]:
        """(tally, undetected_counts, undetected_fraction_text), each distinct
        verdict list counted once per group holding it."""
        shared = {}
        for group in self.groups:
            shared.setdefault(id(group[3]), [group, 0])[1] += 1
        tally, undetected = dict.fromkeys(_VERDICTS, 0), dict.fromkeys(_WEIGHT_TERMS, 0)
        for (i, t, paulis, verdicts), n in shared.values():
            for c in _VERDICTS:
                tally[c] += n * verdicts.count(c)
            undetected[_site((i, t, paulis[0])).weight_units] += n * verdicts.count(_UNDETECTED)
        text = " + ".join(_WEIGHT_TERMS[unit].format(k) for unit, k in undetected.items() if k)
        return tally, undetected, text or "0"

    def tally(self) -> dict[str, int]:
        return self._totals()[0]

    def undetected_counts(self) -> dict[str, int]:
        """Undetected site tallies keyed by their weight units, in _WEIGHT_TERMS order."""
        return self._totals()[1]

    def undetected_fraction(self, eps1: float, eps2: float, p_prep: float = 0.0) -> float:
        """First-order undetected-error weight at the given fault rates."""
        n = self.undetected_counts()
        return n["eps1/3"] * eps1 / 3.0 + n["eps2/15"] * eps2 / 15.0 + n["p_prep"] * p_prep

    def undetected_fraction_text(self) -> str:
        return self._totals()[2]

    def to_json(self) -> str:
        """The header through json.dumps, so circuit_id keeps its escaping, then each
        distinct (targets, verdicts) run of site objects, written once per call."""
        tally, _, text = self._totals()
        header = json.dumps({
            "circuit_id": self.circuit_id,
            "detection": self.detection,
            "fault_tolerant": not tally[_UNDETECTED],
            "n_sites": sum(tally.values()),
            "tally": tally,
            "undetected_fraction": text,
        })
        # each field is an int list or a plain ASCII word, so no escaping is needed, and none
        # holds the "@" that stands for the gate index; the verdicts fix the group's Paulis
        runs, sites = {}, []
        for i, t, paulis, verdicts in self.groups:
            run = runs.get((t, id(verdicts)))
            if run is None:
                head = f'{{"gate_index": @, "targets": {list(t)}, "pauli": "'
                run = runs[t, id(verdicts)] = ", ".join([f'{head}{p}", "classification": "{c}"}}'
                                                         for p, c in zip(paulis, verdicts)])
            sites.append(run.replace("@", str(i)))
        return f'{header[:-1]}, "sites": [{", ".join(sites)}]}}'

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
            f"total {sum(t.values())} sites: "
            + ", ".join(f"{v} {k}" for k, v in t.items())
        )
        lines.append(f"undetected weight: {self.undetected_fraction_text()}")
        lines.append(f"fault tolerant: {'yes' if self.fault_tolerant else 'no'}")
        return "\n".join(lines)
