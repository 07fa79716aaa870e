"""Paired coded/uncoded experiment runs and their CSV records.

The unit of work is a random logical-gate sequence executed two ways:
bare on two qubits, and encoded on four (encoder + transversal blocks).
Both runs share the sequence and noise parameters but use independent
derived RNG streams, so any D difference is scheme, not luck of a
shared stream.  One run yields three records: uncoded, coded without
post-selection, coded with post-selection.  run_pairs runs a sweep's
pairs as one batch.  A pair builds no circuit: each side's blocks are
walked back from the read-out through a cached table of (signed frame,
block) steps, each swept once by FlipMaskTable, and the tail (encoder,
prep and read-out flips), its base and its ideal marginal are cached per
frame; only a rotated side sweeps its own small tail.  Each block of
pairs turns its visit counts into exponents by one matrix product and
runs its suffixes, distances and post-selection as stacked numpy calls,
one per read-out width, each row bit for bit what a one-pair run gives.

Everything is reproducible from (gate_set, L, seed): the sequence, both
circuits, and both sets of counts follow deterministically, which is
what makes CSV files regenerable byte-for-byte (timestamps aside).
ExperimentRecord is the CSV schema: its fields, in order, are the
columns, and their annotations say how each is written and read.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from enum import Enum
from typing import Iterable

import numpy as np

from .circuits import Circuit, CircuitError
from .code import (
    DECODE_INDEX,
    ODD,
    EncoderVariant,
    LogicalGate,
    LogicalStateLabel,
    _gate_blocks,
    binned,
    build_encoder,
    selection_split,
)
from .noise import (NoiseParams, _clifford_outcomes, _exponents, _factors, _suffix_item,
                    derive_seed, insert_coherent_rotation, sample_outcomes)
from .simulator import FlipMaskTable, block_rows, ordered_sum, pruned, spectrum_marginal

DEFAULT_SHOTS = 8192
MAX_SEQUENCE_LENGTH = 1000
# a pair stacks six rows (ideal, base, exponents) of 4 and of 16 entries
_BLOCK_PAIRS = block_rows(6 * (4 + 16))

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

class _BlockSteps:
    """One side's block-step table, filled as run_pairs meets its entries.
    frames[f] is the signed frame (xcol, zcol, sign) of id f, 0 the
    read-out Z's; steps[f][gate] is (the id of the frame one FlipMaskTable
    sweep carries back through gate's block from f, the row of increments
    holding that block's exponents), so entries are at most frames x
    gates; tails[f] is (ideal marginal, base, exponents) of the tail, the
    encoder or no gate, swept from f."""

    def __init__(self, tail: Circuit, block: int):
        n = tail.n_qubits  # qubit q is read out as bit q; block indexes _gate_blocks' pair
        self.tail, self.block, self.tails, self.steps = tail, block, {}, [{}]
        self.frames = [((0,) * n, tuple(1 << q for q in range(n)), 0)]
        self.increments = np.zeros((0, 4 << n), dtype=np.int64)

    def walk(self, sequence: list[LogicalGate]) -> tuple[int, list[int]]:
        """(id of the frame at the tail's end, visits per entry), walked back from the read-out."""
        f, steps, visits = 0, self.steps, [0] * len(self.increments)
        for gate in reversed(sequence):
            try:
                f, e = steps[f][gate]
            except KeyError:  # an entry first met: its block is swept once, here
                f, e = self._step(f, gate)
                visits.append(0)
            visits[e] += 1
        return f, visits

    def _step(self, f: int, gate: LogicalGate) -> tuple[int, int]:
        block = Circuit._trusted(self.tail.n_qubits, list(_gate_blocks(gate)[self.block]),
                                 self.tail.measured)
        table = FlipMaskTable(block, self.frames[f])
        start = (tuple(table.start[1]), tuple(table.start[2]), table.start[3])
        if start not in self.frames:
            self.frames.append(start)
            self.steps.append({})
        row = _exponents(Counter(table.gate_masks), len(block.measured)).ravel()
        self.increments = np.vstack((self.increments, row))
        step = self.steps[f][gate] = (self.frames.index(start), len(self.increments) - 1)
        return step

    def tail_of(self, f: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if f not in self.tails:
            table = FlipMaskTable(self.tail, self.frames[f])
            base, exponents, _, _ = _suffix_item(self.tail, NoiseParams(), table)
            self.tails[f] = (pruned(spectrum_marginal(base)), base, exponents)
        return self.tails[f]


# uncoded, coded: build_pair's circuits are these tails followed by the blocks
_SIDES = (_BlockSteps(Circuit(2, [], [0, 1]), 1),
          _BlockSteps(build_encoder(LogicalStateLabel.L00, EncoderVariant.NON_FAULT_TOLERANT), 0))


def run_pairs(runs: Iterable[tuple[list[LogicalGate], NoiseParams, int]], shots: int,
              gate_set: str = "custom", analytic_xi: bool = False) -> list[ExperimentRecord]:
    """Execute each (sequence, params, seed) of runs both ways; returns
    [uncoded, coded_raw, coded_ps] for each, in order.

    params.theta != 0 inserts the coherent rotation after the coded
    encoder's Hadamard; the uncoded circuit runs clean of it.  Each
    side's weights are one multinomial draw from its exact noisy vector
    (total shots) or, with analytic_xi, the pruned vector itself (total
    1, so D carries no shot noise); one post-selection serves both, and
    gamma = round(r * shots).  No circuit is built for a Clifford side:
    its blocks are walked in the side's _BlockSteps, and its tail's
    cached base is both the ideal spectrum and the engine's base.  A
    rotated side sweeps its tail with the RZ from the walk's frame.  D,
    r and D_decoded are computed on plain vectors, pruned and summed as
    OutcomeDistribution and trace_distance do.  The coded_ps row reports
    D = 1 only when nothing is retained (r = 0, theta = pi).  With
    analytic_xi, gamma is the rounded expected count, so a row with
    0 < r < 1 / (2 shots) has gamma = 0 but exact D.  A pair keeps
    O(2^m + entries) data, and a block holds at most _BLOCK_PAIRS pairs.
    """
    if shots < 1:
        raise CircuitError(f"shots must be positive, got {shots}")
    total = 1.0 if analytic_xi else shots

    def finish(block: list) -> list[ExperimentRecord]:
        ideal, weights, D, n = [], [], [], len(block)
        for k, tag, side in ((1, "uncoded", _SIDES[0]), (2, "coded", _SIDES[1])):
            width = len(side.increments)  # entries first met after a pair's walk: 0 visits
            visits = [p[k][2] + [0] * (width - len(p[k][2])) for p in block]
            walked = (np.array(visits, dtype=np.int64) @ side.increments).reshape(n, 4, -1)
            ideal.append(np.array([p[k][0] for p in block]))
            rows = _clifford_outcomes([(b, e + w, f, x) for (b, e, f, x), w in zip(
                (p[k][1] for p in block), walked)])
            weights.append(pruned(rows) if analytic_xi else np.array(
                [sample_outcomes(v, shots, derive_seed(p[0][2], tag))
                 for v, p in zip(rows, block)]))
            D.append(ordered_sum(np.abs(ideal[-1] - pruned(weights[-1] / total))))
        retained = selection_split(weights[1])[0]
        kept = ordered_sum(retained)
        # a pair that retains nothing is divided by 1 here and reports D = 1 below
        retained = pruned(retained / np.array([x if x > 0.0 else 1.0 for x in kept])[:, None])
        # decode_distribution's bincount of both; neither has odd-parity support
        logical = pruned(binned(np.concatenate((ideal[1], retained)), DECODE_INDEX, ODD + 1))
        records = []
        for ((L, params, seed, stamp), *_), D_u, D_raw, x, D_ps, D_dec, dim_u, dim_c in zip(
                block, *D, kept, ordered_sum(np.abs(ideal[1] - retained)),
                ordered_sum(np.abs(logical[:n, :ODD] - logical[n:, :ODD])),
                *((v != 0.0).sum(axis=1).tolist() for v in ideal)):
            D_ps, D_dec = (0.5 * D_ps, 0.5 * D_dec) if x > 0.0 else (1.0, 1.0)
            records += [ExperimentRecord(
                experiment_id=f"{gate_set}-L{L}-s{seed}-{scheme}", gate_set=gate_set, L=L,
                seed=seed, scheme=scheme, shots=shots, gamma=gamma, r=r, D=Dv,
                D_decoded=D_decoded, output_dimension=dim, eps1=params.eps1, eps2=params.eps2,
                p_meas=params.p_meas, p_prep=params.p_prep, theta=params.theta, timestamp=stamp)
                for scheme, gamma, r, Dv, D_decoded, dim in (
                    (SCHEME_UNCODED, shots, 1.0, 0.5 * D_u, 0.5 * D_u, dim_u),
                    (SCHEME_CODED_RAW, shots, 1.0, 0.5 * D_raw, D_dec, dim_c),
                    (SCHEME_CODED_PS, round(x / total * shots), x / total, D_ps, D_dec, dim_c))]
        return records

    out, block = [], []
    for sequence, params, seed in runs:
        sides = []  # per side, its ideal marginal, its tail's suffix item and its block visits
        for side, rotate in zip(_SIDES, (False, params.theta != 0.0)):
            f, visits = side.walk(sequence)
            # an RZ leaves the read-out bits of the frame it is swept through as they are,
            # so the unrotated tail's cached base is the ideal spectrum either way
            ideal, base, exponents = side.tail_of(f)
            if rotate:
                tail = insert_coherent_rotation(side.tail, params.theta)
                item = _suffix_item(tail, params, FlipMaskTable(tail, side.frames[f]))
            else:
                item = (base, exponents, _factors(params), params.xi)
            sides.append((ideal, item, visits))
        block.append(((len(sequence), params, seed, _utc_now()), *sides))
        if len(block) == _BLOCK_PAIRS:
            out += finish(block)
            block = []
    return out + finish(block) if block else out


def run_pair(sequence: list[LogicalGate], params: NoiseParams, shots: int,
             seed: int, gate_set: str = "custom", analytic_xi: bool = False) -> list[ExperimentRecord]:
    """Execute one sequence both ways, the one-pair call of run_pairs."""
    return run_pairs([(sequence, params, seed)], shots, gate_set, analytic_xi)


def sweep_L(gate_set: GateSetId, lengths: list[int], params: NoiseParams,
            shots: int = DEFAULT_SHOTS, seeds_per_length: int = 1,
            master_seed: int = 0, analytic_xi: bool = False) -> list[ExperimentRecord]:
    """Run seeds_per_length independent pairs at every L, in (L, k) order.

    Each (L, k) slot gets its own derived seed and its own freshly drawn
    sequence, so the record list (and any CSV written from it) depends
    only on the arguments.  A repeated length would repeat its rows, ids
    and all, so it is refused.  Every slot's spec is built, and its
    length checked, before the first pair runs; the sequences are drawn
    as run_pairs reaches them.
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
    return run_pairs(((random_sequence(spec), params, spec.seed) for spec in specs),
                     shots, gate_set.value, analytic_xi)


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
    return run_pairs(((random_sequence(spec), run_params, spec.seed) for spec, run_params in runs),
                     shots, gate_set.value)


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
