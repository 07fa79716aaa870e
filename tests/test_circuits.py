"""Circuit types and the text format."""

import pickle
import re

import numpy as np
import pytest

from qec422 import simulator
from qec422.circuits import (
    Circuit,
    CircuitError,
    CircuitParseError,
    GateInstance,
    GateKind,
    parse_circuit,
    serialize_circuit,
)
from qec422.code import LogicalGate
from qec422.experiments import GateSetId, SequenceSpec, build_pair, random_sequence
from qec422.noise import NoiseParams, insert_coherent_rotation


class TestGateInstance:
    def test_arities(self):
        assert GateKind.H.arity == 1
        assert GateKind.RZ.arity == 1
        assert GateKind.CNOT.arity == 2
        assert GateKind.SWAP.arity == 2

    def test_kind_attributes_and_lookup(self):
        """arity and takes_angle are attributes set once per member."""
        assert {k.value: (k.arity, k.takes_angle) for k in GateKind} == {
            "X": (1, False), "Y": (1, False), "Z": (1, False), "H": (1, False), "S": (1, False),
            "RZ": (1, True), "CNOT": (2, False), "CZ": (2, False), "SWAP": (2, False)}
        assert GateKind("CNOT") is GateKind.CNOT and "arity" in vars(GateKind.CNOT)

    def test_wrong_arity_rejected(self):
        with pytest.raises(CircuitError):
            GateInstance(GateKind.CNOT, (0,))
        with pytest.raises(CircuitError):
            GateInstance(GateKind.X, (0, 1))

    def test_duplicate_targets_rejected(self):
        with pytest.raises(CircuitError):
            GateInstance(GateKind.CNOT, (2, 2))

    def test_rz_angle_required(self):
        with pytest.raises(CircuitError):
            GateInstance(GateKind.RZ, (0,))
        with pytest.raises(CircuitError):
            GateInstance(GateKind.RZ, (0,), float("nan"))
        GateInstance(GateKind.RZ, (0,), 0.25)

    @pytest.mark.parametrize("angle", ["0.5", 0.3 + 0.5j, 0.5 + 0j, float("nan"), float("inf"),
                                       -np.inf, np.float32("nan")])
    def test_rz_angle_must_be_a_finite_real(self, angle):
        """The RZ angle and NoiseParams.theta share one rule and its message."""
        for name, build in (("RZ angle", lambda: GateInstance(GateKind.RZ, (0,), angle)),
                            ("theta", lambda: NoiseParams(theta=angle))):
            with pytest.raises(CircuitError,
                               match=re.escape(f"{name} must be a finite real number, got {angle!r}")):
                build()

    def test_angle_on_non_rz_rejected(self):
        with pytest.raises(CircuitError):
            GateInstance(GateKind.H, (0,), 1.0)


class TestCircuit:
    def test_target_out_of_range(self):
        with pytest.raises(CircuitError):
            Circuit(2, [GateInstance(GateKind.X, (2,))], [0])

    def test_register_cap(self):
        for n in (0, 13):
            with pytest.raises(CircuitError, match=r"n_qubits must be in \[1, 12\]"):
                Circuit(n, [], [0])
        assert Circuit(12, [], [11]).n_qubits == 12

    def test_measured_validation(self):
        with pytest.raises(CircuitError):
            Circuit(2, [], [0, 0])
        with pytest.raises(CircuitError):
            Circuit(2, [], [2])


class TestParser:
    def test_minimal_file(self):
        text = "qubits 5\nH 1\nCNOT 1 0\nMEASURE 0 1 2 3 4\n"
        c = parse_circuit(text)
        assert c.n_qubits == 5
        assert [g.kind for g in c.gates] == [GateKind.H, GateKind.CNOT]
        assert c.measured == [0, 1, 2, 3, 4]

    def test_comments_and_blank_lines(self):
        text = "# header comment\n\nqubits 2\nX 0  # trailing\n\nMEASURE 0 1\n"
        c = parse_circuit(text)
        assert len(c.gates) == 1

    def test_rz_angle(self):
        c = parse_circuit("qubits 1\nRZ 0 -0.75\nMEASURE 0\n")
        assert c.gates[0].angle == -0.75

    def test_missing_header(self):
        with pytest.raises(CircuitParseError) as err:
            parse_circuit("H 0\nMEASURE 0\n")
        assert err.value.line_no == 1

    @pytest.mark.parametrize("n", [0, 13, 40])
    def test_header_outside_the_register_cap(self, n):
        with pytest.raises(CircuitParseError, match=rf"qubits must be in \[1, 12\], got {n}") as err:
            parse_circuit(f"qubits {n}\nX 0\nMEASURE 0\n")
        assert err.value.line_no == 1

    def test_unknown_gate_names_line(self):
        with pytest.raises(CircuitParseError) as err:
            parse_circuit("qubits 2\nH 0\nCX 0 1\nMEASURE 0\n")
        assert err.value.line_no == 3
        assert "CX" in str(err.value)

    def test_index_out_of_range(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("qubits 2\nX 2\nMEASURE 0\n")

    def test_bad_angle(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("qubits 1\nRZ 0 abc\nMEASURE 0\n")

    def test_wrong_argument_count(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("qubits 2\nCNOT 0\nMEASURE 0\n")

    def test_gate_after_measure_rejected(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("qubits 2\nMEASURE 0 1\nX 0\n")

    def test_missing_measure_rejected(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("qubits 2\nX 0\n")

    @pytest.mark.parametrize("text, line_no, message", [
        ("qubits 4 5\nMEASURE 0\n", 1, "'qubits' takes exactly one integer"),
        ("qubits four\nMEASURE 0\n", 1, "expected integer, got 'four'"),
        ("qubits 2\nMEASURE\n", 2, "MEASURE needs at least one qubit index"),
        ("qubits 2\nMEASURE 0 0\n", 2, "duplicate measured qubit in [0, 0]"),
        ("qubits 2\nCNOT 0 0\nMEASURE 0 1\n", 2, "CNOT targets must be distinct: (0, 0)"),
        ("# comments only\n\n# nothing else\n", 1, "empty circuit: missing 'qubits N' header"),
    ])
    def test_refusal_names_its_line(self, text, line_no, message):
        with pytest.raises(CircuitParseError) as err:
            parse_circuit(text)
        assert err.value.line_no == line_no
        assert str(err.value) == f"line {line_no}: {message}"


class TestRepeatedLines:
    """A gate line is parsed once; every later copy reuses its gate."""

    def test_repeated_lines_equal_a_parse_that_shares_nothing(self):
        lines = ["H 1", "CNOT 1 0", "RZ 2 0.25", "H 1", "CZ 0 2  # c", "CNOT 1 0", "RZ 2 0.25",
                 "  H 1", "CZ 0 2  # c", "RZ 2 0.250", "H 1"]
        shared = parse_circuit("qubits 3\n" + "\n".join(lines) + "\nMEASURE 0 1 2\n")
        alone = [parse_circuit(f"qubits 3\n{line}\nMEASURE 0\n").gates[0] for line in lines]
        assert shared.gates == alone
        assert len({id(g) for g in shared.gates}) < len(lines)

    @pytest.mark.parametrize("bad, message", [
        ("CNOT 0 0", "CNOT targets must be distinct: (0, 0)"),
        ("X 3", "qubit index 3 out of range [0, 2)"),
        ("RZ 0 nan", "RZ angle must be a finite real number, got nan"),
    ])
    def test_a_repeated_bad_line_names_its_first_copy(self, bad, message):
        text = f"qubits 2\nH 0\n{bad}\nH 0\n{bad}\n{bad}\nMEASURE 0 1\n"
        with pytest.raises(CircuitParseError) as err:
            parse_circuit(text)
        assert str(err.value) == f"line 3: {message}"

    def test_a_repeated_gate_line_after_measure_is_refused(self):
        with pytest.raises(CircuitParseError) as err:
            parse_circuit("qubits 2\nX 0\nCNOT 0 1\nMEASURE 0 1\nCNOT 0 1\n")
        assert str(err.value) == "line 5: MEASURE must be the final line"

    def test_full_set_circuits_with_rz_round_trip(self):
        rng = np.random.default_rng(31)
        for seed in range(20):
            coded = build_pair(random_sequence(SequenceSpec(GateSetId.FULL, 1 + 5 * seed, seed)))[1]
            for theta in rng.normal(size=2) * 3:
                coded = insert_coherent_rotation(coded, float(theta))
            assert sum(g.kind is GateKind.RZ for g in coded.gates) == 2
            text = serialize_circuit(coded)
            assert parse_circuit(text) == coded
            assert serialize_circuit(parse_circuit(text)) == text


def _random_circuit(rng: np.random.Generator) -> Circuit:
    n = int(rng.integers(1, 7))
    gates = []
    for _ in range(int(rng.integers(0, 31))):
        kind = list(GateKind)[int(rng.integers(0, len(GateKind)))]
        if kind.arity == 2 and n == 1:
            kind = GateKind.X
        targets = tuple(int(q) for q in rng.choice(n, size=kind.arity, replace=False))
        angle = float(rng.normal() * 4) if kind.takes_angle else None
        gates.append(GateInstance(kind, targets, angle))
    k = int(rng.integers(1, n + 1))
    measured = [int(q) for q in rng.choice(n, size=k, replace=False)]
    return Circuit(n, gates, measured)


class TestRoundTrip:
    def test_serialize_parse_identity(self):
        """serialize -> parse reproduces the circuit, including angles."""
        rng = np.random.default_rng(2024)
        for _ in range(100):
            c = _random_circuit(rng)
            text = serialize_circuit(c)
            back = parse_circuit(text)
            assert back == c
            assert serialize_circuit(back) == text

    @pytest.mark.parametrize("angle", [np.float64(0.3), np.float32(0.3), 2, np.int64(-3), True])
    def test_numpy_and_int_angles_round_trip(self, angle):
        """Any finite real angle is stored as a Python float, so its text
        is a float literal that parse_circuit reads back exactly."""
        g = GateInstance(GateKind.RZ, (0,), angle)
        assert type(g.angle) is float and g.angle == float(angle)
        c = Circuit(1, [g], [0])
        text = serialize_circuit(c)
        assert text.splitlines()[1] == f"RZ 0 {float(angle)!r}"
        assert parse_circuit(text) == c


class TestIdentityHashing:
    """GateKind and LogicalGate hash by identity: each member is a singleton."""

    @pytest.mark.parametrize("enum", [GateKind, LogicalGate])
    def test_members_are_dict_keys_and_survive_pickle(self, enum):
        table = {member: member.value for member in enum}
        for member in enum:
            clone = pickle.loads(pickle.dumps(member))
            assert clone is member and table[clone] == member.value
            assert hash(member) == object.__hash__(member)
            assert enum(member.value) is enum[member.name] is member
        assert GateKind("CNOT") is GateKind["CNOT"]

    def test_gate_table_cache_hits_for_a_repeated_placement(self):
        before = simulator._table.cache_info().hits
        first = simulator._table(GateKind.CNOT, (0, 2), 3)
        again = simulator._table(pickle.loads(pickle.dumps(GateKind["CNOT"])), (0, 2), 3)
        assert again is first
        assert simulator._table.cache_info().hits >= before + 1
