"""Paired coded/uncoded experiment runs and their CSV records.

The unit of work is a random logical-gate sequence executed two ways:
bare on two qubits, and encoded on four (encoder + transversal blocks).
Both runs share the sequence and noise parameters but use independent
derived RNG streams, so any D difference is scheme, not luck of a
shared stream.  One run yields three records: uncoded, coded without
post-selection, coded with post-selection.

Everything is reproducible from (gate_set, L, seed): the sequence, both
circuits, and both sets of counts follow deterministically, which is
what makes CSV files regenerable byte-for-byte (timestamps aside).
ExperimentRecord is the CSV schema: its fields, in order, are the
columns, and their annotations say how each is written and read.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from enum import Enum

import numpy as np

from .circuits import Circuit, CircuitError
from .code import (
    DECODE_INDEX,
    ODD,
    EncoderVariant,
    LogicalGate,
    LogicalStateLabel,
    _gate_blocks,
    build_encoder,
    selection_split,
)
from .noise import NoiseParams, derive_seed, insert_coherent_rotation, noisy_vector, sample_outcomes
from .simulator import FlipMaskTable, frame_spectrum, ordered_sum, pruned, spectrum_marginal

DEFAULT_SHOTS = 8192
MAX_SEQUENCE_LENGTH = 1000

SCHEME_UNCODED = "uncoded"
SCHEME_CODED_RAW = "coded_raw"
SCHEME_CODED_PS = "coded_ps"


class GateSetId(Enum):
    """Which logical gates a random sequence draws from."""

    REDUCED = "reduced"              # X0, X1, Z0, Z1, CZZZ
    FULL = "full"                    # all six gates
    SINGLE_HHSWAP = "single_hhswap"  # HHSWAP repeated, nothing random

    @property
    def gates(self) -> tuple[LogicalGate, ...]:
        if self is GateSetId.REDUCED:
            return (LogicalGate.X0, LogicalGate.X1, LogicalGate.Z0,
                    LogicalGate.Z1, LogicalGate.CZZZ)
        if self is GateSetId.FULL:
            return tuple(LogicalGate)
        return (LogicalGate.HHSWAP,)

    @classmethod
    def from_str(cls, name: str) -> "GateSetId":
        for member in cls:
            if member.value == name:
                return member
        raise CircuitError(f"unknown gate set {name!r}; choose from "
                           + ", ".join(m.value for m in cls))


@dataclass(frozen=True)
class SequenceSpec:
    """Everything needed to regenerate one random sequence."""

    gate_set: GateSetId
    length: int
    seed: int

    def __post_init__(self):
        if not 1 <= self.length <= MAX_SEQUENCE_LENGTH:
            raise CircuitError(
                f"sequence length must be in [1, {MAX_SEQUENCE_LENGTH}], got {self.length}"
            )


def random_sequence(spec: SequenceSpec) -> list[LogicalGate]:
    """Uniform i.i.d. draw from the gate set; deterministic in spec.seed."""
    gates = spec.gate_set.gates
    if len(gates) == 1:
        return [gates[0]] * spec.length
    rng = np.random.Generator(np.random.Philox(derive_seed(spec.seed, "sequence")))
    picks = rng.integers(0, len(gates), size=spec.length)
    return [gates[i] for i in picks.tolist()]


def build_pair(sequence: list[LogicalGate]) -> tuple[Circuit, Circuit]:
    """(uncoded 2-qubit circuit, coded 4-qubit circuit) for one sequence."""
    unc_gates = []
    cod_gates = list(build_encoder(LogicalStateLabel.L00,
                                   EncoderVariant.NON_FAULT_TOLERANT).gates)
    for coded, uncoded in map(_gate_blocks, sequence):
        unc_gates += uncoded
        cod_gates += coded
    return (Circuit._trusted(2, unc_gates, [0, 1]), Circuit._trusted(4, cod_gates, [0, 1, 2, 3]))


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

@dataclass
class ExperimentRecord:
    """One CSV row.  The fields, in order, are the CSV columns (CSV_COLUMNS)
    and each annotation is its column's type, so a new column is one
    appended field.  Floats are written with repr so they read back
    bit-exactly; gamma is round(r * shots) on both paths."""

    experiment_id: str
    gate_set: str
    L: int
    seed: int
    scheme: str
    shots: int
    gamma: int
    r: float
    D: float
    D_decoded: float
    output_dimension: int
    eps1: float
    eps2: float
    p_meas: float
    p_prep: float
    theta: float
    timestamp: str

    def to_csv_row(self) -> list[str]:
        return [write(getattr(self, name)) for name, write in _CSV_WRITERS]

    @classmethod
    def from_csv_row(cls, row: dict[str, str]) -> "ExperimentRecord":
        # annotations are strings under postponed evaluation
        return cls(**{f.name: {"int": int, "float": float, "str": str}[f.type](row[f.name])
                      for f in fields(cls)})


CSV_COLUMNS = tuple(f.name for f in fields(ExperimentRecord))
_CSV_WRITERS = tuple((f.name, repr if f.type == "float" else str) for f in fields(ExperimentRecord))


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def write_records_csv(path: str, records: list[ExperimentRecord]) -> None:
    """Write the header and the records, replacing any file at path."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow(rec.to_csv_row())


def read_records_csv(path: str) -> list[ExperimentRecord]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != CSV_COLUMNS:
            raise CircuitError(f"unexpected CSV header in {path}: {reader.fieldnames}")
        return [ExperimentRecord.from_csv_row(row) for row in reader]


# ---------------------------------------------------------------------------
# Running pairs
# ---------------------------------------------------------------------------

def run_pair(sequence: list[LogicalGate], params: NoiseParams, shots: int,
             seed: int, gate_set: str = "custom", analytic_xi: bool = False) -> list[ExperimentRecord]:
    """Execute one sequence both ways; returns [uncoded, coded_raw, coded_ps].

    params.theta != 0 inserts the coherent rotation after the coded
    encoder's Hadamard; the uncoded circuit runs clean of it.  Each
    side's weights are one multinomial draw from its exact noisy vector
    (total shots) or, with analytic_xi, the pruned vector itself (total
    1, so D carries no shot noise); one post-selection serves both, and
    gamma = round(r * shots).  Each unrotated circuit's one frame sweep
    gives both its ideal marginal and the engine's base, so no
    statevector runs for it.  D, r and D_decoded are computed on plain
    vectors, pruned and summed as OutcomeDistribution and trace_distance
    do.  The coded_ps row reports D = 1 only when nothing is retained
    (r = 0, theta = pi).  With analytic_xi, gamma is the rounded expected
    count, so a row with 0 < r < 1 / (2 shots) has gamma = 0 but exact D.
    """
    if shots < 1:
        raise CircuitError(f"shots must be positive, got {shots}")
    L = len(sequence)
    stamp = _utc_now()
    total = 1.0 if analytic_xi else shots

    def side(circuit: Circuit, tag: str, rotate: bool) -> tuple[np.ndarray, np.ndarray, float]:
        """(ideal vector, weights, D) of one side."""
        table = FlipMaskTable(circuit)
        spectrum = frame_spectrum(circuit, table.frame)
        ideal = pruned(spectrum_marginal(spectrum))
        if rotate:
            circuit, table, spectrum = insert_coherent_rotation(circuit, params.theta), None, None
        vec = noisy_vector(circuit, params, table, spectrum)
        w = pruned(vec) if analytic_xi else sample_outcomes(vec, shots, derive_seed(seed, tag))
        return ideal, w, 0.5 * ordered_sum(np.abs(ideal - pruned(w / total)))

    unc, cod = build_pair(sequence)
    ideal_u, _, D_u = side(unc, "uncoded", False)
    ideal_c, w_c, D_raw = side(cod, "coded", params.theta != 0.0)
    retained = selection_split(w_c)[0]
    kept = ordered_sum(retained)
    r = kept / total
    D_ps = D_dec = 1.0
    if kept > 0.0:
        retained = pruned(retained / kept)
        D_ps = 0.5 * ordered_sum(np.abs(ideal_c - retained))
        # decode_distribution's bincount; neither vector has odd-parity support
        logical = [pruned(np.bincount(DECODE_INDEX, v, ODD + 1)[:ODD]) for v in (ideal_c, retained)]
        D_dec = 0.5 * ordered_sum(np.abs(logical[0] - logical[1]))
    dim_u, dim_c = np.count_nonzero(ideal_u), np.count_nonzero(ideal_c)
    return [ExperimentRecord(
        experiment_id=f"{gate_set}-L{L}-s{seed}-{scheme}", gate_set=gate_set, L=L, seed=seed,
        scheme=scheme, shots=shots, gamma=gamma, r=rr, D=D, D_decoded=D_decoded,
        output_dimension=dim, eps1=params.eps1, eps2=params.eps2, p_meas=params.p_meas,
        p_prep=params.p_prep, theta=params.theta, timestamp=stamp)
        for scheme, gamma, rr, D, D_decoded, dim in (
            (SCHEME_UNCODED, shots, 1.0, D_u, D_u, dim_u),
            (SCHEME_CODED_RAW, shots, 1.0, D_raw, D_dec, dim_c),
            (SCHEME_CODED_PS, round(r * shots), r, D_ps, D_dec, dim_c))]


def sweep_L(gate_set: GateSetId, lengths: list[int], params: NoiseParams,
            shots: int = DEFAULT_SHOTS, seeds_per_length: int = 1,
            master_seed: int = 0, analytic_xi: bool = False) -> list[ExperimentRecord]:
    """Run seeds_per_length independent pairs at every L, in (L, k) order.

    Each (L, k) slot gets its own derived seed and its own freshly drawn
    sequence, so the record list (and any CSV written from it) depends
    only on the arguments.  A repeated length would repeat its rows, ids
    and all, so it is refused.  Every slot's spec is built, and its
    length checked, before the first pair runs.
    """
    if not lengths:
        raise CircuitError("no sequence lengths to run")
    repeated = [L for i, L in enumerate(lengths) if L in lengths[:i]]
    if repeated:
        raise CircuitError(f"sequence length {repeated[0]} given twice")
    if seeds_per_length < 1:
        raise CircuitError(f"seeds_per_length must be positive, got {seeds_per_length}")
    specs = [SequenceSpec(gate_set, L, derive_seed(master_seed, gate_set.value, L, k))
             for L in lengths for k in range(seeds_per_length)]
    out: list[ExperimentRecord] = []
    for spec in specs:
        out += run_pair(random_sequence(spec), params, shots, spec.seed, gate_set.value, analytic_xi)
    return out


def sweep_theta(thetas: list[float], params: NoiseParams,
                gate_set: GateSetId = GateSetId.SINGLE_HHSWAP, length: int = 1,
                shots: int = DEFAULT_SHOTS, master_seed: int = 0) -> list[ExperimentRecord]:
    """Coherent-rotation sweep: one pair per theta, retention in the r column.
    Every angle's spec and NoiseParams are built, and so checked, before
    the first pair runs."""
    if not thetas:
        raise CircuitError("no angles to sweep")
    runs = [(SequenceSpec(gate_set, length, derive_seed(master_seed, "theta", i)),
             replace(params, theta=theta)) for i, theta in enumerate(thetas)]
    out: list[ExperimentRecord] = []
    for spec, run_params in runs:
        out += run_pair(random_sequence(spec), run_params, shots, spec.seed, gate_set.value)
    return out


def summarize_records(records: list[ExperimentRecord]) -> list[dict]:
    """Mean D and r per (L, scheme), sorted by L; feeds the CLI table."""
    groups: dict[tuple[int, str], list[ExperimentRecord]] = {}
    for rec in records:
        groups.setdefault((rec.L, rec.scheme), []).append(rec)
    out = []
    for (L, scheme) in sorted(groups, key=lambda k: (k[0], k[1])):
        rs = groups[(L, scheme)]
        out.append({
            "L": L,
            "scheme": scheme,
            "n": len(rs),
            "mean_D": sum(r.D for r in rs) / len(rs),
            "mean_r": sum(r.r for r in rs) / len(rs),
        })
    return out
