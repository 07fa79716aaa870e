"""Exhaustive single-fault verification of the encoder family."""

import json

import numpy as np
import pytest

from qec422 import ftcheck, simulator
from qec422.circuits import Circuit, CircuitError, GateInstance, GateKind, parse_circuit
from qec422.code import (
    EncoderVariant,
    LogicalGate,
    LogicalStateLabel,
    build_encoder,
    coded_gate_circuit,
    selection_split,
)
from qec422.experiments import GateSetId, SequenceSpec, build_pair, random_sequence
from qec422.ftcheck import (
    DETECTION_MODES,
    FaultClassification,
    FaultSite,
    enumerate_single_faults,
    verify_single_faults,
)
from qec422.noise import FlipMaskTable, insert_coherent_rotation
from qec422.simulator import ideal_distribution, ideal_marginal

HARMLESS = FaultClassification.HARMLESS
DETECTED_POSTSELECTION = FaultClassification.DETECTED_POSTSELECTION
DETECTED_ANCILLA = FaultClassification.DETECTED_ANCILLA
UNDETECTED_LOGICAL_ERROR = FaultClassification.UNDETECTED_LOGICAL_ERROR

ENCODER = build_encoder(LogicalStateLabel.L00, EncoderVariant.NON_FAULT_TOLERANT)
CHECKED = build_encoder(LogicalStateLabel.L00, EncoderVariant.ANCILLA_CHECKED)


def _verdicts(circuit: Circuit, detection: str) -> dict:
    """Classification of every site, preparation flips included, by site."""
    return dict(verify_single_faults(circuit, detection, include_preparation=True).classifications)


class TestEnumeration:
    def test_site_count_is_three_per_single_fifteen_per_pair(self):
        sites = enumerate_single_faults(ENCODER)
        # 1 Hadamard, 3 CNOTs
        assert len(sites) == 1 * 3 + 3 * 15

    def test_checked_encoder_site_count(self):
        sites = enumerate_single_faults(CHECKED)
        assert len(sites) == 1 * 3 + 5 * 15

    def test_preparation_sites_prepended(self):
        sites = enumerate_single_faults(ENCODER, include_preparation=True)
        assert len(sites) == 4 + 48
        for s in sites[:4]:
            assert s.is_preparation and s.pauli == "X"
        assert sites[0].weight_units == "p_prep"

    def test_weight_units(self):
        sites = enumerate_single_faults(ENCODER)
        assert sites[0].weight_units == "eps1/3"
        assert sites[-1].weight_units == "eps2/15"


class TestEncoderClassification:
    def test_bare_encoder_undetected_sites(self):
        """Exactly eight malignant faults, four on each of the last
        two CNOTs, all with weight eps2/15."""
        report = verify_single_faults(ENCODER, "postselect")
        assert not report.fault_tolerant
        bad = report.undetected_sites()
        assert len(bad) == 8
        by_gate = {}
        for s in bad:
            by_gate.setdefault(s.gate_index, set()).add(s.pauli)
        assert by_gate == {
            2: {"IX", "IY", "ZX", "ZY"},
            3: {"XX", "XY", "YX", "YY"},
        }

    def test_undetected_fraction(self):
        report = verify_single_faults(ENCODER, "postselect")
        assert report.undetected_fraction_text() == "8/15 * eps2"
        assert abs(report.undetected_fraction(0.0, 0.03) - 8 * 0.03 / 15) < 1e-15

    def test_hadamard_faults_all_harmless(self):
        """A flip after the seed Hadamard copies through every CNOT and
        lands on all four qubits, which maps the codeword set to itself;
        the phase flip sits on a control line and never shows up."""
        verdicts = _verdicts(ENCODER, "postselect")
        for pauli in ("X", "Y", "Z"):
            assert verdicts[FaultSite(0, (1,), pauli)] == HARMLESS

    def test_tally_partition(self):
        report = verify_single_faults(ENCODER, "postselect")
        t = report.tally()
        assert t[UNDETECTED_LOGICAL_ERROR] == 8
        assert t[HARMLESS] == 16
        assert t[DETECTED_POSTSELECTION] == 24
        assert sum(t.values()) == 48

    def test_checked_encoder_is_fault_tolerant(self):
        report = verify_single_faults(CHECKED, "postselect+ancilla",
                                      include_preparation=True)
        assert report.fault_tolerant
        assert all(v == 0 for v in report.undetected_counts().values())
        assert report.undetected_fraction(0.1, 0.1, p_prep=0.1) == 0.0
        assert report.undetected_fraction_text() == "0"

    @pytest.mark.parametrize("circuit, detection, text", [
        (ENCODER, "postselect", "8/15 * eps2 + 1 * p_prep"),
        (CHECKED, "postselect+ancilla", "0"),
    ])
    def test_detection_defaults_from_the_read_out(self, circuit, detection, text):
        """A read-out bit beyond the four data bits is the ancilla, so a
        five-bit read-out is checked with it unasked and a four-bit one is not."""
        report = verify_single_faults(circuit, include_preparation=True)
        assert report.detection == detection
        assert report.undetected_fraction_text() == text
        explicit = verify_single_faults(circuit, detection, include_preparation=True)
        assert report.classifications == explicit.classifications

    def test_checked_encoder_needs_its_ancilla(self):
        """Same circuit, parity detection only: the check qubit's own
        faults leak through."""
        report = verify_single_faults(CHECKED, "postselect")
        assert not report.fault_tolerant

    def test_ancilla_downgrades_nothing(self):
        """Adding the ancilla test can only move faults out of the
        undetected class, never into it."""
        plain = verify_single_faults(CHECKED, "postselect")
        strict = verify_single_faults(CHECKED, "postselect+ancilla")
        plain_bad = {(s.gate_index, s.targets, s.pauli) for s in plain.undetected_sites()}
        strict_bad = {(s.gate_index, s.targets, s.pauli) for s in strict.undetected_sites()}
        assert strict_bad <= plain_bad


class TestPreparationFaults:
    def test_third_qubit_flip_defeats_parity_alone(self):
        """|0> -> |1> on the qubit feeding the last CNOT makes a clean
        codeword of the wrong logical state."""
        verdicts = _verdicts(ENCODER, "postselect")
        assert verdicts[FaultSite(-1, (2,), "X")] == UNDETECTED_LOGICAL_ERROR
        for q in (0, 1, 3):
            assert verdicts[FaultSite(-1, (q,), "X")] != UNDETECTED_LOGICAL_ERROR

    def test_ancilla_catches_it(self):
        verdicts = _verdicts(CHECKED, "postselect+ancilla")
        assert verdicts[FaultSite(-1, (2,), "X")] == DETECTED_ANCILLA


class TestOtherPreparations:
    @pytest.mark.parametrize("label", [LogicalStateLabel.L0PLUS, LogicalStateLabel.LPHIPLUS])
    def test_bell_pair_encoders_are_fault_tolerant(self, label):
        report = verify_single_faults(build_encoder(label, EncoderVariant.NON_FAULT_TOLERANT), "postselect",
                                      include_preparation=True)
        assert report.fault_tolerant

    def test_transversal_block_is_fault_tolerant(self):
        """Single faults inside an appended logical-gate round stay
        detectable: no undetected site sits on the appended gates."""
        enc = build_encoder(LogicalStateLabel.L00, EncoderVariant.NON_FAULT_TOLERANT)
        block = coded_gate_circuit(LogicalGate.HHSWAP)
        circ = enc.with_gates(list(enc.gates) + list(block))
        start = len(enc.gates)
        report = verify_single_faults(circ, "postselect")
        assert not [s for s in report.undetected_sites() if s.gate_index >= start]


class TestInputValidation:
    def test_unknown_detection_mode(self):
        with pytest.raises(ValueError, match="detection"):
            verify_single_faults(ENCODER, "majority-vote")

    def test_ancilla_mode_requires_ancilla_bit(self):
        with pytest.raises(CircuitError, match="cannot be one of the four data bits"):
            verify_single_faults(ENCODER, "postselect+ancilla")

    def test_too_few_data_bits_rejected(self):
        circ = Circuit(1, [GateInstance(GateKind.RZ, (0,), 0.3)], [0])
        with pytest.raises(CircuitError, match="four data qubits"):
            verify_single_faults(circ, "postselect")

    def test_rotated_encoder_keeps_its_undetected_sites(self):
        """RZ circuits are verified, not refused: the rotation adds three
        sites and the bare encoder's eight undetected eps2 sites remain."""
        report = verify_single_faults(insert_coherent_rotation(ENCODER, 0.3), "postselect")
        assert len(report.classifications) == 51
        assert len(report.undetected_sites()) == 8
        assert report.undetected_fraction_text() == "8/15 * eps2"


class TestReporting:
    def test_json_round_trip(self):
        report = verify_single_faults(ENCODER, "postselect", circuit_id="bare-encoder")
        d = json.loads(report.to_json())
        assert d["circuit_id"] == "bare-encoder"
        assert d["detection"] == "postselect"
        assert d["fault_tolerant"] is False
        assert d["n_sites"] == 48
        assert len(d["sites"]) == 48
        assert d["tally"][UNDETECTED_LOGICAL_ERROR] == 8
        assert d["undetected_fraction"] == "8/15 * eps2"

    def test_table_mentions_verdict_and_sites(self):
        text = verify_single_faults(ENCODER, "postselect").format_table()
        assert "fault tolerant: no" in text
        assert "8/15 * eps2" in text
        assert "ZY" in text

    def test_fault_tolerant_table(self):
        text = verify_single_faults(CHECKED, "postselect+ancilla").format_table()
        assert "fault tolerant: yes" in text

    def test_one_qubit_term_in_the_fraction(self):
        """An X or Y fault after the X gate flips q0 and q1 through the CNOT,
        as do XX, XY, YX and YY after it: 2 of 3 and 4 of 15 undetected."""
        circ = parse_circuit("qubits 4\nX 0\nCNOT 0 1\nMEASURE 0 1 2 3\n")
        report = verify_single_faults(circ, "postselect")
        assert len(report.classifications) == 18
        assert report.undetected_fraction_text() == "2/3 * eps1 + 4/15 * eps2"
        assert report.undetected_fraction(0.3, 0.15) == pytest.approx(0.2 + 0.04)

    def test_all_three_units_in_the_fraction(self):
        """A preparation flip of q0 cancels the X gate, so the same circuit
        with preparation sites adds one p_prep term, printed last."""
        circ = parse_circuit("qubits 4\nX 0\nCNOT 0 1\nMEASURE 0 1 2 3\n")
        report = verify_single_faults(circ, "postselect", include_preparation=True)
        assert report.undetected_counts() == {"eps1/3": 2, "eps2/15": 4, "p_prep": 1}
        assert report.undetected_fraction_text() == "2/3 * eps1 + 4/15 * eps2 + 1 * p_prep"
        assert report.undetected_fraction(0.3, 0.15, p_prep=0.1) == pytest.approx(0.34)

    def test_trivial_circuit(self):
        """No gates, no sites; preparation flips are all caught by parity."""
        circ = parse_circuit("qubits 4\nMEASURE 0 1 2 3\n")
        report = verify_single_faults(circ, "postselect", include_preparation=True)
        assert report.fault_tolerant
        assert len(report.classifications) == 4
        assert all(c == DETECTED_POSTSELECTION for _, c in report.classifications)


def _reference_split(dist: dict, ancilla: bool) -> tuple[dict, float, float]:
    """(retained distribution over the data bits, its mass, odd-parity mass)
    of a bitstring distribution: the first four characters are the data
    bits, the last is the ancilla."""
    odd = {s for s in dist if s[:4].count("1") % 2}
    kept = {}
    for s, p in dist.items():
        if s not in odd and not (ancilla and s[-1] == "1"):
            kept[s[:4]] = kept.get(s[:4], 0.0) + p
    return kept, sum(kept.values()), sum(dist[s] for s in odd)


def _reference_verdict(ideal: dict, faulted: dict, ancilla: bool) -> str:
    ideal_kept, ideal_mass, ideal_odd = _reference_split(ideal, ancilla)
    kept, mass, odd = _reference_split(faulted, ancilla)
    if mass > 1e-9 and any(abs(kept.get(s, 0.0) / mass - ideal_kept.get(s, 0.0) / ideal_mass) > 1e-9
                           for s in set(kept) | set(ideal_kept)):
        return UNDETECTED_LOGICAL_ERROR
    if abs(mass - ideal_mass) <= 1e-9:
        return HARMLESS
    return DETECTED_POSTSELECTION if odd > ideal_odd + 1e-9 else DETECTED_ANCILLA


def _brute_force(circuit: Circuit, detection: str, include_preparation: bool) -> list[str] | None:
    """One statevector per site: the fault written into the circuit as
    gates.  None when the ideal circuit retains nothing."""
    ideal = ideal_distribution(circuit).probs
    ancilla = detection == "postselect+ancilla"
    if _reference_split(ideal, ancilla)[1] <= 1e-9:
        return None
    out = []
    for s in enumerate_single_faults(circuit, include_preparation):
        paulis = [GateInstance(GateKind[ch], (q,)) for ch, q in zip(s.pauli, s.targets) if ch != "I"]
        gates = list(circuit.gates)
        gates[s.gate_index + 1:s.gate_index + 1] = paulis
        faulted = ideal_distribution(circuit.with_gates(gates)).probs
        out.append(_reference_verdict(ideal, faulted, ancilla))
    return out


def _rz(q, angle=0.6):
    return GateInstance(GateKind.RZ, (q,), angle)


_HHSWAP = coded_gate_circuit(LogicalGate.HHSWAP)
_RZ_CIRCUITS = {
    "rz_first": CHECKED.with_gates([_rz(1)] + CHECKED.gates + _HHSWAP),
    "rz_last": CHECKED.with_gates(CHECKED.gates + _HHSWAP + [_rz(2)]),
    "two_rz": insert_coherent_rotation(
        CHECKED.with_gates(CHECKED.gates + [_rz(3, 1.3)] + _HHSWAP), 0.6),
    "rotated_L00": insert_coherent_rotation(ENCODER, 0.3),
}
# the benchmark's ftcheck size: 21 two-gate and 9 four-gate blocks, 282 sites
_L30 = build_pair([LogicalGate.X0, LogicalGate.X1, LogicalGate.Z0, LogicalGate.Z1, LogicalGate.X0,
                   LogicalGate.Z1, LogicalGate.Z0, LogicalGate.CZZZ, LogicalGate.HHSWAP,
                   LogicalGate.CZZZ] * 3)[1]
_L100 = build_pair(random_sequence(SequenceSpec(GateSetId.FULL, 100, 0)))[1]


class TestAgainstBruteForce:
    """verify_single_faults against one statevector per site."""

    def _check(self, circuit, seen):
        modes = DETECTION_MODES if len(circuit.measured) > 4 else ("postselect",)
        for detection in modes:
            for prep in (False, True):
                want = _brute_force(circuit, detection, prep)
                if want is None:
                    with pytest.raises(CircuitError, match="retains no"):
                        verify_single_faults(circuit, detection, include_preparation=prep)
                    continue
                report = verify_single_faults(circuit, detection, include_preparation=prep)
                got = [c for _, c in report.classifications]
                assert got == want, (detection, prep)
                seen.update(got)

    def test_random_clifford_circuits(self, random_clifford):
        seen = set()
        for seed in range(10):
            circuit = random_clifford(seed, n_qubits=5, n_extra=seed % 6, measure_all=True)
            self._check(circuit, seen)
        assert seen == {HARMLESS, DETECTED_POSTSELECTION, DETECTED_ANCILLA,
                        UNDETECTED_LOGICAL_ERROR}

    def test_rz_circuits(self):
        seen = set()
        for name, circuit in _RZ_CIRCUITS.items():
            self._check(circuit, seen)
        assert seen == {HARMLESS, DETECTED_POSTSELECTION, DETECTED_ANCILLA,
                        UNDETECTED_LOGICAL_ERROR}

    def test_full_set_length_30_coded_circuit(self):
        assert len(enumerate_single_faults(_L30)) == 282
        self._check(_L30, set())

    def test_one_statevector_per_clifford_check(self, monkeypatch):
        """Every fault in a Clifford circuit is read off the ideal outcome
        vector, which the table's signed frame gives on |0...0>, so the
        whole check runs no statevector at all."""
        runs = []
        original = simulator._evolve
        monkeypatch.setattr(simulator, "_evolve", lambda *a: runs.append(a) or original(*a))
        report = verify_single_faults(CHECKED, "postselect+ancilla", include_preparation=True)
        assert len(report.classifications) == 5 + 3 + 5 * 15
        assert len(runs) == 0

    def test_one_frame_sweep_per_check(self, monkeypatch):
        """Every preparation flip of rz_first sits ahead of its RZ, and each
        is read off the table's frame: the check conjugates the frame
        exactly as often as one FlipMaskTable build does."""
        circuit = _RZ_CIRCUITS["rz_first"]
        calls = []
        original = simulator.conjugate_frame
        monkeypatch.setattr(simulator, "conjugate_frame", lambda *a: calls.append(a) or original(*a))
        FlipMaskTable(circuit)
        one_sweep = len(calls)
        calls.clear()
        report = verify_single_faults(circuit, include_preparation=True)
        assert sum(s.gate_index < 0 for s, _ in report.classifications) == 5
        assert one_sweep == len(calls) == 10


class TestPerMaskCost:
    """On five read-out bits all distinct folded flip masks fit one block,
    so they take one split in all; only sites ahead of the last RZ are
    split one by one."""

    @pytest.mark.parametrize("circuit, detection", [
        (CHECKED, "postselect+ancilla"),
        (_L100, "postselect"),
        (_RZ_CIRCUITS["two_rz"], "postselect+ancilla"),
    ], ids=["checked", "full_L100", "two_rz"])
    def test_splits_per_distinct_mask(self, monkeypatch, circuit, detection):
        calls = []
        original = ftcheck.selection_split
        monkeypatch.setattr(ftcheck, "selection_split",
                            lambda *a, **kw: calls.append(1) or original(*a, **kw))
        report = verify_single_faults(circuit, detection, include_preparation=True)
        table = FlipMaskTable(circuit)
        rows = [table.prep_masks, *table.gate_masks]  # site gate_index i reads rows[i + 1]
        masks = {m for row in filter(None, rows) for m in row[1:]}
        ahead = sum(rows[s.gate_index + 1] is None for s, _ in report.classifications)
        assert len(calls) == 1 + ahead
        assert len(masks) <= 2 ** len(circuit.measured)


def _per_vector_rule(ideal, vec, ancilla_bit):
    """The classification rule applied to one faulted vector at a time."""
    ideal_ret, ideal_par, _ = selection_split(ideal, ancilla_bit)
    ideal_mass = ideal_ret.sum()
    ret, par, _ = selection_split(vec, ancilla_bit)
    mass = ret.sum()
    if mass > 1e-9 and np.max(np.abs(ret / mass - ideal_ret / ideal_mass)) > 1e-9:
        return UNDETECTED_LOGICAL_ERROR
    if abs(mass - ideal_mass) <= 1e-9:
        return HARMLESS
    return DETECTED_POSTSELECTION if par > ideal_par + 1e-9 else DETECTED_ANCILLA


class TestBatchedClassifier:
    """The batched split and its four row-wise tests against the rule
    applied one vector at a time."""

    def test_every_mask_of_random_circuits(self, random_clifford):
        circuits = [random_clifford(seed, n_qubits=5, n_extra=seed % 7, measure_all=True)
                    for seed in range(12)] + list(_RZ_CIRCUITS.values())
        seen, zero_mass, compared = set(), 0, 0
        for circuit in circuits:
            ideal = ideal_marginal(circuit)
            idx = np.arange(len(ideal))
            # every flip mask of the read-out, then a vector with no mass at all
            vecs = np.vstack((ideal[idx ^ idx[:, None]], np.zeros(len(ideal))))
            for ancilla_bit in (None, len(circuit.measured) - 1):
                if ancilla_bit == 3 or selection_split(ideal, ancilla_bit)[0].sum() <= 1e-9:
                    continue
                got = ftcheck._classify(ideal, vecs, ancilla_bit)
                want = [_per_vector_rule(ideal, v, ancilla_bit) for v in vecs]
                assert got == want
                seen.update(got)
                compared += 1
                zero_mass += sum(selection_split(v, ancilla_bit)[0].sum() == 0 for v in vecs[:-1])
        assert compared >= 20
        assert zero_mass > 0
        assert seen == {HARMLESS, DETECTED_POSTSELECTION, DETECTED_ANCILLA,
                        UNDETECTED_LOGICAL_ERROR}

    def test_many_blocks_on_twelve_read_out_bits(self, monkeypatch, random_clifford):
        """On 12 read-out bits a block holds 16 masks, so the masks are
        split over many blocks of at most 2^16 entries plus the ideal's;
        each site still gets its own mask's verdict."""
        sizes = []
        original = ftcheck.selection_split
        monkeypatch.setattr(ftcheck, "selection_split",
                            lambda vec, *a: sizes.append(vec.size) or original(vec, *a))
        checked = 0
        for seed in range(6):
            circuit = random_clifford(seed, n_qubits=12, n_extra=40, measure_all=True)
            ideal = ideal_marginal(circuit)
            idx = np.arange(len(ideal))
            table = FlipMaskTable(circuit)
            # Clifford, so every row folds: the sites' masks in site order
            masks = [m for row in [table.prep_masks, *table.gate_masks] for m in row[1:]]
            assert len(set(masks)) > 16
            for detection, ancilla_bit in zip(DETECTION_MODES, (None, 11)):
                if selection_split(ideal, ancilla_bit)[0].sum() <= 1e-9:
                    continue
                report = verify_single_faults(circuit, detection, include_preparation=True)
                want = [_per_vector_rule(ideal, ideal[idx ^ m], ancilla_bit) for m in masks]
                assert [c for _, c in report.classifications] == want
                checked += 1
        assert checked >= 3
        assert len(sizes) > 2 * checked and max(sizes) == (1 << 16) + (1 << 12)


def _dict_json(report) -> str:
    """The report through json.dumps, one dict per site: the writer's oracle."""
    return json.dumps({
        "circuit_id": report.circuit_id,
        "detection": report.detection,
        "fault_tolerant": report.fault_tolerant,
        "n_sites": len(report.classifications),
        "tally": report.tally(),
        "undetected_fraction": report.undetected_fraction_text(),
        "sites": [{"gate_index": s.gate_index, "targets": list(s.targets), "pauli": s.pauli,
                   "classification": c} for s, c in report.classifications],
    })


class TestJsonWriter:
    @pytest.mark.parametrize("circuit_id", ['plain.txt', 'a "quoted" \\ dir/ünïcødé ✓.txt'])
    def test_equals_json_dumps_of_the_dict_layout(self, random_clifford, circuit_id):
        rng = np.random.default_rng(5)
        circuits = [random_clifford(seed, n_qubits=5, n_extra=seed, measure_all=True)
                    for seed in range(8)]
        circuits += [CHECKED, ENCODER, *_RZ_CIRCUITS.values()]
        circuits += [insert_coherent_rotation(build_pair(random_sequence(
            SequenceSpec(GateSetId.FULL, L, L)))[1], float(rng.normal())) for L in (1, 7, 30)]
        written = 0
        for circuit in circuits:
            for prep in (False, True):
                try:
                    report = verify_single_faults(circuit, circuit_id=circuit_id,
                                                  include_preparation=prep)
                except CircuitError:  # the ideal circuit retains nothing
                    continue
                assert report.to_json() == _dict_json(report)
                written += 1
        assert written >= 24
