"""Codewords, encoders, transversal gates, decoding, post-selection."""

import numpy as np
import pytest

from qec422.circuits import Circuit, CircuitError, GateInstance, GateKind
from qec422.code import (
    CODEWORD_STRINGS,
    EncoderVariant,
    LogicalGate,
    LogicalStateLabel,
    build_encoder,
    coded_gate_circuit,
    codeword_distribution,
    decode,
    decode_distribution,
    post_select,
    post_select_distribution,
    retained_distribution,
    selection_split,
    uncoded_gate_circuit,
)
from qec422.simulator import OutcomeDistribution, ShotCounts, ideal_distribution, outcome_vector
from qec422.analytics import trace_distance


def _coded_circuit(gates: list[LogicalGate]) -> Circuit:
    enc = build_encoder(LogicalStateLabel.L00, EncoderVariant.NON_FAULT_TOLERANT)
    body = list(enc.gates)
    for g in gates:
        body += coded_gate_circuit(g)
    return Circuit(4, body, [0, 1, 2, 3])


def _uncoded_circuit(gates: list[LogicalGate]) -> Circuit:
    body = []
    for g in gates:
        body += uncoded_gate_circuit(g)
    return Circuit(2, body, [0, 1])


class TestCodewords:
    def test_all_codewords_even_parity(self):
        for strings in CODEWORD_STRINGS.values():
            for s in strings:
                assert s.count("1") % 2 == 0

    def test_basis_codewords_half_half(self):
        d = codeword_distribution(LogicalStateLabel.L01)
        assert d.probs == {"1100": 0.5, "0011": 0.5}

    def test_superposition_codewords_quarter_each(self):
        d = codeword_distribution(LogicalStateLabel.LPHIPLUS)
        assert d.probs == {"0000": 0.25, "1111": 0.25, "0110": 0.25, "1001": 0.25}


class TestEncoders:
    @pytest.mark.parametrize("label", list(LogicalStateLabel))
    def test_encoder_prepares_its_codeword(self, label):
        c = build_encoder(label, EncoderVariant.NON_FAULT_TOLERANT)
        assert c.n_qubits == 4
        got = ideal_distribution(c)
        want = codeword_distribution(label)
        assert trace_distance(got, want) < 1e-12

    def test_ancilla_variant_shape(self):
        c = build_encoder(LogicalStateLabel.L00, EncoderVariant.ANCILLA_CHECKED)
        assert c.n_qubits == 5
        assert c.measured == [0, 1, 2, 3, 4]
        d = ideal_distribution(c)
        # ancilla bit (last) reads 0 on both codeword strings
        assert set(d.probs) == {"00000", "11110"}

    def test_ancilla_variant_only_for_l00(self):
        with pytest.raises(CircuitError):
            build_encoder(LogicalStateLabel.L01, EncoderVariant.ANCILLA_CHECKED)

    @pytest.mark.parametrize("variant", list(EncoderVariant))
    def test_unknown_label_refused(self, variant):
        with pytest.raises(CircuitError, match="unknown encoder label 'L00'"):
            build_encoder("L00", variant)


class TestLogicalGates:
    @pytest.mark.parametrize("gate,expect", [
        (LogicalGate.X0, LogicalStateLabel.L10),
        (LogicalGate.X1, LogicalStateLabel.L01),
        (LogicalGate.Z0, LogicalStateLabel.L00),
        (LogicalGate.Z1, LogicalStateLabel.L00),
        (LogicalGate.CZZZ, LogicalStateLabel.L00),
    ])
    def test_action_on_l00(self, gate, expect):
        d = ideal_distribution(_coded_circuit([gate]))
        assert trace_distance(d, codeword_distribution(expect)) < 1e-12

    def test_hhswap_spreads_over_even_strings(self):
        d = ideal_distribution(_coded_circuit([LogicalGate.HHSWAP]))
        assert d.support_size == 8
        for s, p in d.probs.items():
            assert s.count("1") % 2 == 0
            np.testing.assert_allclose(p, 0.125, atol=1e-12)

    def test_gate_set_closure(self):
        """Coded blocks keep the state inside the even-parity subspace."""
        rng = np.random.default_rng(21)
        gates = list(LogicalGate)
        for _ in range(40):
            seq = [gates[i] for i in rng.integers(0, len(gates), size=6)]
            d = ideal_distribution(_coded_circuit(seq))
            assert all(s.count("1") % 2 == 0 for s in d.probs)

    def test_logical_equivalence_random_sequences(self):
        """Decoded coded ideal = uncoded ideal for random sequences."""
        rng = np.random.default_rng(22)
        gates = list(LogicalGate)
        for _ in range(60):
            seq = [gates[i] for i in rng.integers(0, len(gates), size=int(rng.integers(1, 7)))]
            coded = decode_distribution(ideal_distribution(_coded_circuit(seq)))
            uncoded = ideal_distribution(_uncoded_circuit(seq))
            assert trace_distance(coded, uncoded) < 1e-12

    def test_uncoded_swap_is_three_cnots(self):
        gates = uncoded_gate_circuit(LogicalGate.HHSWAP)
        assert [g.kind for g in gates] == [GateKind.H, GateKind.H,
                                           GateKind.CNOT, GateKind.CNOT, GateKind.CNOT]

    @pytest.mark.parametrize("build", [coded_gate_circuit, uncoded_gate_circuit])
    def test_non_logical_gate_refused(self, build):
        for bad in ("X0", None, [LogicalGate.X0]):
            with pytest.raises(CircuitError, match="unknown logical gate"):
                build(bad)

    def test_cz_only_variant_is_logical_cz(self):
        """S on all four qubits then Z1 Z2 = controlled-Z without the extra Zs."""
        enc = build_encoder(LogicalStateLabel.L00, EncoderVariant.NON_FAULT_TOLERANT)
        for prep in ([], [LogicalGate.HHSWAP], [LogicalGate.X1, LogicalGate.HHSWAP]):
            unc = _uncoded_circuit(prep)
            unc = Circuit(2, unc.gates + [GateInstance(GateKind.CZ, (0, 1))], [0, 1])
            body = list(enc.gates)
            for g in prep:
                body += coded_gate_circuit(g)
            cz_only = [GateInstance(GateKind.S, (q,)) for q in range(4)] + [
                GateInstance(GateKind.Z, (1,)), GateInstance(GateKind.Z, (2,))]
            cod = Circuit(4, body + cz_only, [0, 1, 2, 3])
            got = decode_distribution(ideal_distribution(cod))
            want = ideal_distribution(unc)
            assert trace_distance(got, want) < 1e-12


class TestDecode:
    def test_table(self):
        assert decode("0000") == "00"
        assert decode("1111") == "00"
        assert decode("1100") == "01"
        assert decode("0101") == "10"
        assert decode("1001") == "11"
        for j in range(16):  # every string against Q0 = q0 ^ q1, Q1 = q0 ^ q2
            s = format(j, "04b")
            q = [int(c) for c in s]
            assert decode(s) == (None if sum(q) % 2 else f"{q[0] ^ q[1]}{q[0] ^ q[2]}")

    def test_odd_parity_rejected(self):
        assert decode("1000") is None
        assert decode("0111") is None

    def test_bad_input(self):
        with pytest.raises(CircuitError):
            decode("00")
        with pytest.raises(CircuitError):
            decode("00a0")


class TestPostSelect:
    def test_parity_filter(self):
        raw = ShotCounts({"0000": 70, "1111": 20, "1000": 7, "1110": 3})
        ps = post_select(raw)
        _, parity, ancilla = selection_split(raw.vec)
        assert ps.retained.counts == {"0000": 70, "1111": 20}
        assert raw.total == 100
        assert ps.accepted == 90
        assert parity == 10
        assert ancilla == 0
        assert ps.accepted / raw.total == 0.9

    def test_ancilla_filter_runs_after_parity(self):
        raw = ShotCounts({"00000": 50, "00001": 30, "10001": 20})
        retained, parity, ancilla = selection_split(raw.vec, 4)
        assert ShotCounts(retained).counts == {"0000": 50}
        assert ancilla == 30
        assert parity == 20  # odd data parity wins the tally

    def test_width_mismatch_rejected(self):
        with pytest.raises(CircuitError, match="expected 4-bit"):
            post_select(ShotCounts({"00000": 1}))
        with pytest.raises(CircuitError, match="expected 4-bit"):
            post_select_distribution(OutcomeDistribution({"00000": 1.0}))
        with pytest.raises(CircuitError, match="expected 4-bit"):
            decode_distribution(OutcomeDistribution({"00": 1.0}))

    def test_empty_retention(self):
        raw = ShotCounts({"1000": 5})
        ps = post_select(raw)
        assert ps.accepted == 0
        assert ps.accepted / raw.total == 0.0

    def test_distribution_version(self):
        d = OutcomeDistribution({"0000": 0.4, "1110": 0.2, "1111": 0.4})
        retained, r = post_select_distribution(d)
        np.testing.assert_allclose(r, 0.8)
        np.testing.assert_allclose(retained.probs["0000"], 0.5)
        np.testing.assert_allclose(retained.probs["1111"], 0.5)


def _reference_split(entries: dict, ancilla: bool):
    """The selection rule written out on strings."""
    retained, parity, anc = {}, 0, 0
    for s, v in entries.items():
        if s[:4].count("1") % 2:
            parity += v
        elif ancilla and s[4] == "1":
            anc += v
        else:
            retained[s[:4]] = retained.get(s[:4], 0) + v
    return retained, parity, anc


def _split(entries: dict, width: int):
    """selection_split of a 4-bit vector, or of a 5-bit one whose bit 4 is the ancilla."""
    return selection_split(outcome_vector(entries, width), 4 if width == 5 else None)


class TestSelectionSplit:
    @pytest.mark.parametrize("width", [4, 5])
    def test_every_string_alone(self, width):
        ancilla = width == 5
        for j in range(1 << width):
            s = format(j, f"0{width}b")
            ret, par, anc = _reference_split({s: 3}, ancilla)
            if ancilla and s[:4].count("1") % 2 and s[4] == "1":
                assert (par, anc) == (3, 0)  # failing both is a parity rejection
            vec_ret, vec_par, vec_anc = _split({s: 3}, width)
            assert ShotCounts(vec_ret).counts == ret
            assert (vec_par, vec_anc) == (par, anc)
            if not ancilla:
                assert post_select(ShotCounts({s: 3})).retained.counts == ret

            kept = {k: 1.0 for k in ret}
            vec_ret, vec_par, vec_anc = _split({s: 1.0}, width)
            np.testing.assert_array_equal(vec_ret, outcome_vector(kept, 4))
            assert (vec_par, vec_anc) == (par / 3, anc / 3)
            retained, r = (retained_distribution(vec_ret) if ancilla
                           else post_select_distribution(OutcomeDistribution({s: 1.0})))
            assert r == (1.0 if kept else 0.0)
            assert (retained.probs if retained else {}) == kept

    @pytest.mark.parametrize("width", [4, 5])
    def test_all_strings_together(self, width):
        ancilla = width == 5
        counts = {format(j, f"0{width}b"): 1 + (7 * j) % 11 for j in range(1 << width)}
        ret, par, anc = _reference_split(counts, ancilla)
        vec_ret, vec_par, vec_anc = _split(counts, width)
        assert ShotCounts(vec_ret).counts == ret
        assert (vec_par, vec_anc) == (par, anc)
        assert ShotCounts(counts).total == sum(counts.values())
        if not ancilla:
            assert post_select(ShotCounts(counts)).retained.counts == ret

        total = sum(counts.values())
        probs = {s: c / total for s, c in counts.items()}
        ret_p, par_p, anc_p = _reference_split(probs, ancilla)
        vec_ret, vec_par, vec_anc = _split(probs, width)
        retained, r = (retained_distribution(vec_ret) if ancilla
                       else post_select_distribution(OutcomeDistribution(probs)))
        np.testing.assert_allclose(r, sum(ret_p.values()), rtol=1e-14)
        assert set(retained.probs) == set(ret_p)
        for s, p in ret_p.items():
            np.testing.assert_allclose(retained.probs[s], p / r, rtol=1e-14)
        np.testing.assert_allclose([vec_par, vec_anc], [par_p, anc_p], rtol=1e-14)

    @pytest.mark.parametrize("n_bits, ancilla_bit", [(4, None), (5, None), (5, 4), (7, 6)])
    def test_a_stack_splits_row_by_row(self, n_bits, ancilla_bit):
        """Each row of a stacked split is bit for bit the split of that row alone."""
        vecs = np.random.default_rng(n_bits).random((9, 1 << n_bits))
        vecs[3] = 0.0
        ret, par, anc = selection_split(vecs, ancilla_bit)
        assert ret.shape == (9, 16) and par.shape == anc.shape == (9,)
        for k, vec in enumerate(vecs):
            one_ret, one_par, one_anc = selection_split(vec, ancilla_bit)
            np.testing.assert_array_equal(ret[k], one_ret)
            assert (par[k], anc[k]) == (one_par, one_anc)
