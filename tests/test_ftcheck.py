"""Exhaustive single-fault verification of the encoder family."""

import json
from collections import Counter

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
    verify_single_faults,
)
from qec422.noise import ONE_QUBIT_PAULIS, TWO_QUBIT_PAULIS, FlipMaskTable, insert_coherent_rotation
from qec422.simulator import (
    OutcomeDistribution,
    block_rows,
    final_state,
    ideal_marginal,
    marginal_vector,
)

HARMLESS = FaultClassification.HARMLESS
DETECTED_POSTSELECTION = FaultClassification.DETECTED_POSTSELECTION
DETECTED_ANCILLA = FaultClassification.DETECTED_ANCILLA
UNDETECTED_LOGICAL_ERROR = FaultClassification.UNDETECTED_LOGICAL_ERROR

ENCODER = build_encoder(LogicalStateLabel.L00, EncoderVariant.NON_FAULT_TOLERANT)
CHECKED = build_encoder(LogicalStateLabel.L00, EncoderVariant.ANCILLA_CHECKED)


def _verdicts(circuit: Circuit, detection: str) -> dict:
    """Classification of every site, preparation flips included, by site."""
    return dict(verify_single_faults(circuit, detection, include_preparation=True).classifications)


def _sites(circuit: Circuit, include_preparation: bool) -> list[FaultSite]:
    """Every single-fault site in circuit order: an X on each qubit before
    the circuit, then each Pauli after each gate."""
    sites = [FaultSite(-1, (q,), "X") for q in range(circuit.n_qubits)] if include_preparation else []
    for i, g in enumerate(circuit.gates):
        sites += [FaultSite(i, g.targets, p)
                  for p in (ONE_QUBIT_PAULIS if g.kind.arity == 1 else TWO_QUBIT_PAULIS)]
    return sites


def _report_sites(circuit: Circuit, include_preparation: bool = False) -> list[FaultSite]:
    report = verify_single_faults(circuit, include_preparation=include_preparation)
    return [s for s, _ in report.classifications]


class TestEnumeration:
    def test_site_count_is_three_per_single_fifteen_per_pair(self):
        sites = _report_sites(ENCODER)
        # 1 Hadamard, 3 CNOTs
        assert len(sites) == 1 * 3 + 3 * 15

    def test_checked_encoder_site_count(self):
        sites = _report_sites(CHECKED)
        assert len(sites) == 1 * 3 + 5 * 15

    def test_preparation_sites_prepended(self):
        sites = _report_sites(ENCODER, include_preparation=True)
        assert len(sites) == 4 + 48
        for s in sites[:4]:
            assert s.is_preparation and s.pauli == "X"
        assert sites[0].weight_units == "p_prep"

    def test_weight_units(self):
        sites = _report_sites(ENCODER)
        assert sites[0].weight_units == "eps1/3"
        assert sites[-1].weight_units == "eps2/15"

    @pytest.mark.parametrize("prep", [False, True])
    def test_site_order(self, prep):
        """Prep flips by qubit, then each gate's Paulis in the order of
        noise's Pauli tables, gate by gate, RZ circuits included."""
        for circuit in (ENCODER, CHECKED, *_RZ_CIRCUITS.values()):
            assert _report_sites(circuit, prep) == _sites(circuit, prep)


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


def _run(circuit: Circuit) -> dict:
    """Outcome probabilities of the whole circuit's statevector, with no frame."""
    probs = final_state(circuit).probabilities()
    return OutcomeDistribution(marginal_vector(probs, circuit.n_qubits, circuit.measured)).probs


def _brute_force(circuit: Circuit, detection: str, include_preparation: bool) -> list[str] | None:
    """One statevector of the whole circuit per site: the fault written
    into the circuit as gates.  None when the ideal circuit retains nothing."""
    ideal = _run(circuit)
    ancilla = detection == "postselect+ancilla"
    if _reference_split(ideal, ancilla)[1] <= 1e-9:
        return None
    out = []
    for s in _sites(circuit, include_preparation):
        paulis = [GateInstance(GateKind[ch], (q,)) for ch, q in zip(s.pauli, s.targets) if ch != "I"]
        gates = list(circuit.gates)
        gates[s.gate_index + 1:s.gate_index + 1] = paulis
        faulted = _run(circuit.with_gates(gates))
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
        assert _report_sites(_L30) == _sites(_L30, False)
        assert len(_sites(_L30, False)) == 282
        self._check(_L30, set())

    def test_multi_rz_circuits(self, random_clifford):
        """One to four RZs at 0, +-pi/2, pi or a random angle, two of them
        on one qubit in some circuits, with and without prep sites and in
        both detection modes: in random circuits on 4 to 6 qubits, and in
        the ancilla-checked encoder and an HHSWAP block."""
        seen, two_on_one = set(), 0
        for seed in range(16):
            rng = np.random.default_rng(seed)
            n = 4 + seed % 3 if seed % 2 else CHECKED.n_qubits
            circuit = (random_clifford(seed, n_qubits=n, n_extra=seed % 8, measure_all=True)
                       if seed % 2 else CHECKED.with_gates(CHECKED.gates + _HHSWAP))
            gates = list(circuit.gates)
            for j in range(1 + seed % 4):
                angle = (0.0, np.pi / 2, -np.pi / 2, np.pi, float(rng.uniform(-3, 3)))[(seed + j) % 5]
                gates.insert(int(rng.integers(len(gates) + 1)), _rz(int(rng.integers(n)), angle))
            circuit = circuit.with_gates(gates)
            self._check(circuit, seen)
            rz = [g.targets for g in gates if g.kind is GateKind.RZ]
            two_on_one += len(set(rz)) < len(rz)
        assert two_on_one >= 3
        assert seen == {HARMLESS, DETECTED_POSTSELECTION, DETECTED_ANCILLA,
                        UNDETECTED_LOGICAL_ERROR}

    def test_many_blocks_of_sign_patterns(self, monkeypatch):
        """With three rows to a block, the distinct masks, of every RZ sign
        pattern, are split over many blocks, one split each, and every site
        still gets its brute-force verdict.  Each sign pattern's read runs
        one statevector, the ideal's included, however many blocks its
        masks span."""
        calls, runs = [], []
        original, evolve = ftcheck.selection_split, simulator._evolve
        monkeypatch.setattr(ftcheck, "selection_split",
                            lambda *a, **kw: calls.append(1) or original(*a, **kw))
        monkeypatch.setattr(simulator, "_evolve", lambda *a: runs.append(1) or evolve(*a))
        monkeypatch.setattr(ftcheck, "block_rows", lambda width: 3)
        for circuit in _RZ_CIRCUITS.values():
            masks, patterns = _distinct_masks(circuit)
            want = _brute_force(circuit, "postselect", True)
            calls.clear()
            runs.clear()
            report = verify_single_faults(circuit, "postselect", include_preparation=True)
            assert [c for _, c in report.classifications] == want
            assert len(patterns) > 1
            assert len(runs) == len(patterns)  # the ideal, then one per nonzero pattern
            assert len(calls) == -(-len(masks) // 3)

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
        takes its mask from the table's start frame: the check conjugates
        the frame exactly as often as one FlipMaskTable build does."""
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


def _distinct_masks(circuit: Circuit) -> tuple[set[int], set[int]]:
    """Every distinct mask of the circuit's sites, prep flips and the
    no-fault 0 included, and their RZ sign patterns, the bits from m up."""
    table = FlipMaskTable(circuit)
    masks = {0, *table.start[2]}.union(*table.gate_masks)
    return masks, {x >> len(circuit.measured) for x in masks}


class TestPerMaskCost:
    """On five read-out bits all distinct masks fit one block, whatever
    their RZ sign patterns, so they take one split in all.  With an RZ,
    the ideal and each nonzero sign pattern run one statevector; a
    Clifford check runs none."""

    @pytest.mark.parametrize("circuit, detection", [
        (CHECKED, "postselect+ancilla"),
        (_L100, "postselect"),
        (_RZ_CIRCUITS["two_rz"], "postselect+ancilla"),
    ], ids=["checked", "full_L100", "two_rz"])
    def test_splits_per_distinct_mask(self, monkeypatch, circuit, detection):
        calls, runs = [], []
        original, evolve = ftcheck.selection_split, simulator._evolve
        monkeypatch.setattr(ftcheck, "selection_split",
                            lambda *a, **kw: calls.append(1) or original(*a, **kw))
        monkeypatch.setattr(simulator, "_evolve", lambda *a: runs.append(1) or evolve(*a))
        verify_single_faults(circuit, detection, include_preparation=True)
        masks, patterns = _distinct_masks(circuit)
        n_rz = sum(g.kind is GateKind.RZ for g in circuit.gates)
        assert len(calls) == 1 == -(-len(masks) // block_rows(2 ** len(circuit.measured)))
        assert len(runs) == (len(patterns) if n_rz else 0)
        assert len(patterns) <= 2 ** n_rz and (len(patterns) > 1) == (n_rz > 0)


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
            masks = [*table.start[2], *(m for row in table.gate_masks for m in row[1:])]
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


    def test_rz_circuit_on_twelve_read_out_bits(self, random_clifford):
        """Twelve qubits, all measured, with three RZs, two of them on one
        qubit: 16 masks to a block, several sign patterns, and every site's
        verdict, prep flips included, is the rule applied to the statevector
        of the circuit with the fault written in."""
        circuit = random_clifford(7, n_qubits=12, n_extra=16, measure_all=True)
        gates = list(circuit.gates)
        for at, q, angle in ((3, 5, 0.7), (12, 5, np.pi), (20, 11, -1.2)):
            gates.insert(at, _rz(q, angle))
        circuit = circuit.with_gates(gates)
        masks, patterns = _distinct_masks(circuit)
        assert len(masks) > 16 and len(patterns) > 2
        n = circuit.n_qubits

        def vector(gates):
            probs = final_state(circuit.with_gates(gates)).probabilities()
            return marginal_vector(probs, n, circuit.measured)

        ideal, faulted = vector(gates), []
        for s in _sites(circuit, True):
            paulis = [GateInstance(GateKind[ch], (q,)) for ch, q in zip(s.pauli, s.targets) if ch != "I"]
            faulted.append(vector(gates[:s.gate_index + 1] + paulis + gates[s.gate_index + 1:]))
        seen = set()
        for detection, ancilla_bit in zip(DETECTION_MODES, (None, 11)):
            report = verify_single_faults(circuit, detection, include_preparation=True)
            want = [_per_vector_rule(ideal, v, ancilla_bit) for v in faulted]
            assert [c for _, c in report.classifications] == want, detection
            seen.update(want)
        assert len(seen) >= 3


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


def _coded_circuits(n: int):
    """Seeded random coded circuits from build_pair, as they come, with the
    rotation after the encoder's H, or with an RZ at a random position;
    each also behind the ancilla-checked encoder, whose last read-out bit
    is the ancilla."""
    rng = np.random.default_rng(29)
    for k in range(n):
        coded = build_pair(random_sequence(SequenceSpec(GateSetId.FULL, int(rng.integers(1, 12)), k)))[1]
        blocks = coded.gates[len(ENCODER.gates):]
        q, pos, angle = int(rng.integers(4)), int(rng.integers(len(blocks) + 1)), float(rng.normal())
        for encoder in (ENCODER, CHECKED):
            gates = encoder.gates + blocks
            if k % 3 == 1:
                yield insert_coherent_rotation(encoder.with_gates(gates), angle)
            elif k % 3 == 2:
                at = len(encoder.gates) + pos
                yield encoder.with_gates(gates[:at] + [_rz(q, angle)] + gates[at:])
            else:
                yield encoder.with_gates(gates)


# weight unit -> its term in the undetected weight, in print order
_TERMS = {"eps1/3": "{}/3 * eps1", "eps2/15": "{}/15 * eps2", "p_prep": "{} * p_prep"}
_ORDER = (HARMLESS, DETECTED_POSTSELECTION, DETECTED_ANCILLA, UNDETECTED_LOGICAL_ERROR)


def _per_site_totals(report) -> tuple[dict, str]:
    """(tally, undetected weight text), counted site by site."""
    sites = report.classifications
    tally = Counter(c for _, c in sites)
    undetected = Counter(s.weight_units for s, c in sites if c == UNDETECTED_LOGICAL_ERROR)
    text = " + ".join(_TERMS[u].format(undetected[u]) for u in _TERMS if undetected[u]) or "0"
    return {c: tally[c] for c in _ORDER}, text


def _per_site_table(report) -> str:
    tally, text = _per_site_totals(report)
    sites = report.classifications
    lines = [f"circuit: {report.circuit_id}   detection: {report.detection}",
             "  site   gate   targets pauli  classification"]
    lines += [f"{k:>6} {'prep' if s.gate_index < 0 else s.gate_index:>6} "
              f"{','.join(map(str, s.targets)):>9} {s.pauli:>5}  {c}" for k, (s, c) in enumerate(sites)]
    lines.append(f"total {len(sites)} sites: " + ", ".join(f"{n} {c}" for c, n in tally.items()))
    lines.append(f"undetected weight: {text}")
    lines.append(f"fault tolerant: {'no' if tally[UNDETECTED_LOGICAL_ERROR] else 'yes'}")
    return "\n".join(lines)


class TestGroupedReport:
    """The report keeps one verdict list per gate, shared by the gates of
    one flip-mask row; every total and rendering equals its count or
    rendering site by site."""

    def test_against_per_site_references(self):
        checked, seen = 0, set()
        for circuit in _coded_circuits(12):
            modes = DETECTION_MODES if len(circuit.measured) > 4 else ("postselect",)
            for detection in modes:
                for prep in (False, True):
                    report = verify_single_faults(circuit, detection, "coded.txt", prep)
                    sites = report.classifications
                    tally, text = _per_site_totals(report)
                    assert report.tally() == tally
                    assert report.undetected_fraction_text() == text
                    assert report.fault_tolerant == (text == "0")
                    assert json.loads(report.to_json()) == {
                        "circuit_id": "coded.txt", "detection": detection,
                        "fault_tolerant": text == "0", "n_sites": len(sites),
                        "tally": tally, "undetected_fraction": text,
                        "sites": [{"gate_index": s.gate_index, "targets": list(s.targets),
                                   "pauli": s.pauli, "classification": c} for s, c in sites]}
                    assert report.format_table() == _per_site_table(report)
                    seen.update(c for c, n in tally.items() if n)
                    checked += 1
        assert checked == 12 * 2 + 12 * 4
        assert seen == set(_ORDER)

    def test_a_shared_undetected_list_counts_for_each_gate(self):
        """A Pauli gate leaves the frame as it is, so two X's on q0 share a
        row, and each carries the X and Y faults that flip q0 and q1."""
        circ = parse_circuit("qubits 4\nX 0\nX 0\nCNOT 0 1\nMEASURE 0 1 2 3\n")
        report = verify_single_faults(circ, "postselect")
        assert report.groups[0][3] is report.groups[1][3]
        assert report.undetected_counts() == {"eps1/3": 4, "eps2/15": 4, "p_prep": 0}
        assert report.undetected_fraction_text() == "4/3 * eps1 + 4/15 * eps2"
        assert report.tally() == _per_site_totals(report)[0]
        assert sum(report.tally().values()) == 3 + 3 + 15

    def test_gates_sharing_a_row_share_its_verdicts(self):
        report = verify_single_faults(_L30)
        rows = FlipMaskTable(_L30).gate_masks
        assert len(report.groups) == len(rows) == 82
        by_row = {}
        for (*_, verdicts), row in zip(report.groups, rows):
            assert by_row.setdefault(row, verdicts) is verdicts
        assert len({id(v) for *_, v in report.groups}) == len(by_row) < 82
