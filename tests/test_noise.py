"""Fault model and trajectory sampler."""

import dataclasses
import hashlib
import itertools
import math
import random
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from qec422 import noise, simulator
from qec422.circuits import Circuit, CircuitError, GateInstance, GateKind, parse_circuit
from qec422.code import (
    EncoderVariant,
    LogicalGate,
    LogicalStateLabel,
    build_encoder,
    coded_gate_circuit,
    decode,
    post_select,
    selection_split,
)
from qec422.experiments import (MAX_SEQUENCE_LENGTH, GateSetId, SequenceSpec, build_pair, random_sequence,
                                run_pairs)
from qec422.noise import (
    ONE_QUBIT_PAULIS,
    TWO_QUBIT_PAULIS,
    NoiseParams,
    FlipMaskTable,
    derive_seed,
    insert_coherent_rotation,
    noisy_counts,
    noisy_vector,
    totally_mixed,
)
from qec422.simulator import (
    OutcomeDistribution,
    ShotCounts,
    _evolve,
    bitstring_of,
    final_state,
    ideal_distribution,
    ideal_marginal,
    marginal_vector,
    outcome_vector,
    spectrum_marginal,
)
from qec422.analytics import trace_distance


def _g(kind, *targets, angle=None):
    return GateInstance(kind, targets, angle)


ENCODER = build_encoder(LogicalStateLabel.L00, EncoderVariant.NON_FAULT_TOLERANT)


class TestNoiseParams:
    def test_defaults_noiseless(self):
        p = NoiseParams()
        assert (p.eps1, p.eps2, p.p_meas, p.p_prep, p.theta, p.xi) == (0.0,) * 6

    def test_probability_range_checked(self):
        with pytest.raises(CircuitError):
            NoiseParams(eps1=1.5)
        with pytest.raises(CircuitError):
            NoiseParams(p_meas=-0.1)

    def test_pauli_alphabets(self):
        assert ONE_QUBIT_PAULIS == ("X", "Y", "Z")
        assert len(TWO_QUBIT_PAULIS) == 15
        assert "II" not in TWO_QUBIT_PAULIS
        assert len(set(TWO_QUBIT_PAULIS)) == 15


def _within_3_sigma(hits: int, n: int, p: float) -> bool:
    return abs(hits / n - p) < 3 * np.sqrt(p * (1 - p) / n)


def _bit_ones(counts, k: int) -> int:
    return sum(c for s, c in counts.counts.items() if s[k] == "1")


class TestElementarySamplers:
    """Each elementary fault channel, sampled alone through noisy_counts."""

    BARE4 = Circuit(4, [], [0, 1, 2, 3])

    def test_gate_fault_rates(self):
        """X and Y faults flip a one-qubit read-out (2/3 eps1); 12 of the 15
        two-qubit Paulis move a CNOT's 00 read-out (12/15 eps2)."""
        n = 100_000
        one = noisy_counts(Circuit(1, [_g(GateKind.X, 0)], [0]), NoiseParams(eps1=0.3), n, 31)
        assert _within_3_sigma(one.counts.get("0", 0), n, 2 / 3 * 0.3)
        cnot = Circuit(2, [_g(GateKind.CNOT, 0, 1)], [0, 1])
        two = noisy_counts(cnot, NoiseParams(eps2=0.2), n, 32)
        assert _within_3_sigma(n - two.counts.get("00", 0), n, 12 / 15 * 0.2)

    def test_fault_labels_uniform(self):
        """With eps2 = 1 every Pauli pair is equally likely: each flip
        pattern covers four pairs, the no-flip pattern the other three."""
        n = 60_000
        cnot = Circuit(2, [_g(GateKind.CNOT, 0, 1)], [0, 1])
        counts = noisy_counts(cnot, NoiseParams(eps2=1.0), n, 33)
        for s, p in (("00", 3 / 15), ("10", 4 / 15), ("01", 4 / 15), ("11", 4 / 15)):
            assert _within_3_sigma(counts.counts.get(s, 0), n, p)

    def test_preparation_flips(self):
        n = 20_000
        counts = noisy_counts(self.BARE4, NoiseParams(p_prep=0.25), n, 34)
        for k in range(4):
            assert _within_3_sigma(_bit_ones(counts, k), n, 0.25)

    def test_measurement_flips(self):
        n = 20_000
        counts = noisy_counts(self.BARE4, NoiseParams(p_meas=0.1), n, 35)
        for k in range(4):
            assert _within_3_sigma(_bit_ones(counts, k), n, 0.1)
        assert noisy_counts(self.BARE4, NoiseParams(), n, 35).counts == {"0000": n}


class TestCoherentInsertion:
    def test_inserted_after_first_hadamard(self):
        c = insert_coherent_rotation(ENCODER, 0.5)
        assert c.gates[0].kind is GateKind.H
        assert c.gates[1].kind is GateKind.RZ
        assert c.gates[1].targets == (1,)
        assert c.gates[1].angle == 0.5
        assert len(c.gates) == len(ENCODER.gates) + 1

    def test_zero_angle_still_inserts(self):
        c = insert_coherent_rotation(ENCODER, 0.0)
        assert c.gates[1].kind is GateKind.RZ

    def test_no_hadamard_is_an_error(self):
        with pytest.raises(CircuitError):
            insert_coherent_rotation(Circuit(2, [_g(GateKind.X, 0)], [0, 1]), 0.3)

    def test_encoder_distribution_theta_invariant(self):
        """The rotation commutes with what the encoder measures."""
        for theta in (0.4, 1.2, np.pi):
            d = ideal_distribution(insert_coherent_rotation(ENCODER, theta))
            assert trace_distance(d, ideal_distribution(ENCODER)) < 1e-12


class TestMixing:
    def test_totally_mixed(self):
        d = totally_mixed(4)
        assert d.probs == {"00": 0.25, "01": 0.25, "10": 0.25, "11": 0.25}
        with pytest.raises(CircuitError):
            totally_mixed(3)

    def test_depolarize_limits(self):
        bare = Circuit(2, [], [0, 1])
        assert OutcomeDistribution(noisy_vector(bare, NoiseParams(xi=0.0))).probs == {"00": 1.0}
        full = OutcomeDistribution(noisy_vector(bare, NoiseParams(xi=1.0)))
        assert full.probs == totally_mixed(4).probs

    def test_depolarizing_spec_validation(self):
        with pytest.raises(CircuitError):
            totally_mixed(5)
        with pytest.raises(CircuitError):
            NoiseParams(xi=1.5)


class TestNoisyCounts:
    def test_noiseless_reduces_to_ideal_sampling(self):
        counts = noisy_counts(ENCODER, NoiseParams(), 40_000, 1)
        assert set(counts.counts) == {"0000", "1111"}
        assert abs(counts.counts["0000"] / 40_000 - 0.5) < 3 * np.sqrt(0.25 / 40_000)

    def test_deterministic_in_seed(self):
        params = NoiseParams(eps1=0.02, eps2=0.05, p_meas=0.01, p_prep=0.005)
        a = noisy_counts(ENCODER, params, 20_000, 77)
        b = noisy_counts(ENCODER, params, 20_000, 77)
        c = noisy_counts(ENCODER, params, 20_000, 78)
        assert a.counts == b.counts
        assert a.counts != c.counts

    def test_total_preserved(self):
        counts = noisy_counts(ENCODER, NoiseParams(eps2=0.3, p_meas=0.2), 12_345, 5)
        assert counts.total == 12_345

    def test_shots_must_fit_int64(self):
        """2**63 shots used to reach numpy's multinomial and raise
        OverflowError; the largest int64 still samples."""
        with pytest.raises(CircuitError, match=r"shots must be in \[1, 2\*\*63 - 1\]"):
            noisy_counts(ENCODER, NoiseParams(), 2**63, 0)
        with pytest.raises(CircuitError):
            noisy_counts(ENCODER, NoiseParams(), 0, 0)
        assert noisy_counts(ENCODER, NoiseParams(), 2**63 - 1, 0).total == 2**63 - 1

    def test_measurement_flip_rate(self):
        """p_meas alone on an empty 2-qubit circuit: P(any flip) = 2p - p^2."""
        empty = Circuit(2, [], [0, 1])
        p = 0.05
        counts = noisy_counts(empty, NoiseParams(p_meas=p), 200_000, 6)
        wrong = sum(c for s, c in counts.counts.items() if s != "00")
        want = 2 * p - p * p
        assert abs(wrong / 200_000 - want) < 3 * np.sqrt(want * (1 - want) / 200_000)

    def test_clifford_and_statevector_paths_agree(self):
        """Appending RZ(0) puts every fault and preparation flip ahead of
        the last RZ, so they fold into the start frame's spectrum over the
        RZ's column too, where the Clifford path folds them into the
        read-out bits alone; same fault physics."""
        params = NoiseParams(eps1=0.01, eps2=0.04, p_prep=0.01)
        rz = Circuit(4, ENCODER.gates + [_g(GateKind.RZ, 3, angle=0.0)], [0, 1, 2, 3])
        fast = noisy_counts(ENCODER, params, 150_000, 8).to_distribution()
        slow = noisy_counts(rz, params, 150_000, 8).to_distribution()
        assert trace_distance(fast, slow) < 0.01

    def test_pauli_symmetry_on_plus_state(self):
        """On H|0>, X and Z faults hit symmetric outcomes: P(0) stays 1/2."""
        plus = Circuit(1, [_g(GateKind.H, 0)], [0])
        counts = noisy_counts(plus, NoiseParams(eps1=0.5), 100_000, 9)
        assert abs(counts.counts["0"] / 100_000 - 0.5) < 3 * np.sqrt(0.25 / 100_000)

    def test_xi_sampling_matches_analytic(self):
        xi = 0.6
        counts = noisy_counts(ENCODER, NoiseParams(xi=xi), 200_000, 10)
        want = OutcomeDistribution(noisy_vector(ENCODER, NoiseParams(xi=xi)))
        assert trace_distance(counts.to_distribution(), want) < 0.01

    def test_depolarizing_limit_hits_worst_case(self):
        """xi = 1 erases everything: D from a 1-string ideal reaches 3/4."""
        fixed = Circuit(2, [], [0, 1])
        counts = noisy_counts(fixed, NoiseParams(xi=1.0), 400_000, 11)
        D = trace_distance(counts.to_distribution(), ideal_distribution(fixed))
        assert abs(D - 0.75) < 0.01

    def test_encoder_undetected_floor(self):
        """eps2-only encoder noise leaves ~8/15 eps2 wrong-but-retained."""
        eps2 = 0.02
        counts = noisy_counts(ENCODER, NoiseParams(eps2=eps2), 300_000, 12)
        ps = post_select(counts)
        wrong = sum(c for s, c in ps.retained.counts.items() if decode(s) != "00")
        frac = wrong / ps.accepted
        want = 8 * eps2 / 15
        assert abs(frac - want) < 3e-4

    def test_encoder_first_order_undetected_mass(self):
        """The exact vector's undetected mass is verify-ft's 8/15 eps2 to
        first order: at eps2 = 1e-6, the post-selected mass that decodes
        to anything but 00, over eps2."""
        eps2 = 1e-6
        retained = selection_split(noisy_vector(ENCODER, NoiseParams(eps2=eps2)))[0]
        wrong = sum(p for j, p in enumerate(retained.tolist())
                    if p and decode(bitstring_of(j, 4)) != "00")
        assert abs(wrong / eps2 - 8 / 15) < 1e-7

    def test_ancilla_check_suppresses_to_second_order(self):
        """The checked encoder's wrong fraction drops to O(eps2^2)."""
        eps2 = 0.02
        anc = build_encoder(LogicalStateLabel.L00, EncoderVariant.ANCILLA_CHECKED)
        counts = noisy_counts(anc, NoiseParams(eps2=eps2), 300_000, 13)
        vec, _, ancilla_rejections = selection_split(counts.vec, 4)
        retained = ShotCounts(vec)
        wrong = sum(c for s, c in retained.counts.items() if decode(s) != "00")
        frac = wrong / retained.total
        assert ancilla_rejections > 0
        assert frac < 10 * eps2 ** 2          # second order, generous constant
        assert frac < (8 * eps2 / 15) / 2     # clearly below the unchecked floor

    def test_coherent_retention_law(self):
        """r = cos^2(theta/2) for encoder + one HHSWAP block."""
        base = Circuit(4, ENCODER.gates + coded_gate_circuit(LogicalGate.HHSWAP),
                       [0, 1, 2, 3])
        for theta in (0.0, 0.9, np.pi / 2, np.pi):
            circ = insert_coherent_rotation(base, theta)
            raw = noisy_counts(circ, NoiseParams(theta=theta), 60_000, 14)
            want = np.cos(theta / 2) ** 2
            sigma = np.sqrt(max(want * (1 - want), 1e-12) / 60_000)
            assert abs(post_select(raw).accepted / raw.total - want) < max(3 * sigma, 1e-9)

    def test_even_hhswap_count_theta_invariant(self):
        base = Circuit(4, ENCODER.gates + coded_gate_circuit(LogicalGate.HHSWAP) * 2,
                       [0, 1, 2, 3])
        circ = insert_coherent_rotation(base, 2.2)
        raw = noisy_counts(circ, NoiseParams(theta=2.2), 20_000, 15)
        assert post_select(raw).accepted / raw.total == 1.0


class TestSeedDerivation:
    def test_stable_and_tag_sensitive(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
        assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
        assert derive_seed(1, "a") != derive_seed(2, "a")
        assert derive_seed(1, "uncoded") != derive_seed(1, "coded")

    def test_pinned_values(self):
        """The 64-bit values themselves are frozen, so a faster derivation
        must give the same seeds: 10^4 inputs with negative masters,
        masters past 2**64, and int and str tags."""
        rng = random.Random(2026)
        words = ("sequence", "uncoded", "coded", "theta", "full", "", "\u00e9")
        digest = hashlib.sha256()
        for k in range(10_000):
            master = (rng.randrange(1 << 20), -rng.randrange(1, 1 << 70),
                      rng.randrange(1 << 64, 1 << 90))[k % 3]
            tags = [rng.choice(words) if rng.random() < 0.5 else rng.randrange(-(1 << 40), 1 << 40)
                    for _ in range(k % 4)]
            digest.update(derive_seed(master, *tags).to_bytes(8, "little"))
        assert digest.hexdigest() == "762880e971dc275bd5293e1330190c487543760723dd6e4cde345f74b36543bd"

    def test_derived_streams_differ(self):
        uniform = Circuit(2, [], [0, 1])
        a = noisy_counts(uniform, NoiseParams(xi=1.0), 1000, derive_seed(5, "x"))
        b = noisy_counts(uniform, NoiseParams(xi=1.0), 1000, derive_seed(5, "y"))
        assert a.counts != b.counts


class TestStream:
    """noise's seeding kernel and its one re-keyed Philox stream, against
    numpy's SeedSequence and a fresh Generator(Philox(seed)) as oracles."""

    SEEDS = (0, 1, 2**32, 2**64 - 1, 2**64 + 5)

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_seed_state_is_seed_sequences(self, n):
        rng = random.Random(n)
        for count in range(10):
            for _ in range(5):
                words = [rng.choice((0, 2**32 - 1, rng.randrange(2**32))) for _ in range(count)]
                want = np.random.SeedSequence(words).generate_state(n, np.uint32).tolist()
                assert noise._seed_state(words, n) == want, words

    def test_words_split_as_numpy_does(self):
        """Zero is one word; wider ints are little-endian 32-bit words."""
        assert noise._words(0) == [0]
        assert noise._words(2**32) == [0, 1]
        assert noise._words(2**64 + 5) == [5, 0, 1]
        for seed in self.SEEDS:
            want = np.random.SeedSequence(seed).generate_state(4, np.uint32).tolist()
            assert noise._seed_state(noise._words(seed), 4) == want

    @pytest.mark.parametrize("seed", SEEDS)
    def test_draws_are_a_fresh_philoxs(self, seed):
        """integers and multinomial, each after draws of other seeds that
        leave the stream mid-buffer, equal a fresh Generator(Philox(seed))'s;
        so do float32 draws, which read a buffered half word first."""
        p = np.random.default_rng(seed % 97).dirichlet(np.ones(16))
        for k, size in ((2, 1), (5, 7), (6, 1000), (2**40, 3)):
            noise._draw(seed + 1, "random", 3, np.float32)  # leaves a half word, buffer half used
            want = np.random.Generator(np.random.Philox(seed)).integers(0, k, size)
            assert np.array_equal(noise._draw(seed, "integers", 0, k, size), want)
            noise._draw(seed + 1, "random", 3, np.float32)
            want = np.random.Generator(np.random.Philox(seed)).random(size, np.float32)
            assert np.array_equal(noise._draw(seed, "random", size, np.float32), want)
        for shots in (1, 8192, 250_000):
            noise._draw(seed + 1, "random", 3, np.float32)  # leaves a half word, buffer half used
            want = np.random.Generator(np.random.Philox(seed)).multinomial(shots, p)
            assert np.array_equal(noise.sample_outcomes(p, shots, seed), want)

    @pytest.mark.parametrize("seed", [True, np.int64(5), np.uint64(2**64 - 1), 2**64 + 5, 2**200 + 3])
    def test_seeds_philox_accepts(self, seed):
        want = np.random.Generator(np.random.Philox(seed)).integers(0, 2**62, 4)
        assert np.array_equal(noise._draw(seed, "integers", 0, 2**62, 4), want)

    @pytest.mark.parametrize("seed, error", [(-1, ValueError), (-(2**70), ValueError),
                                             (1.5, TypeError), ("7", TypeError),
                                             (np.float64(2.0), TypeError), (np.True_, TypeError)])
    def test_seeds_philox_refuses(self, seed, error):
        with pytest.raises(error):
            np.random.Philox(seed)
        with pytest.raises(error):
            noise.sample_outcomes(np.full(4, 0.25), 10, seed)

    def test_none_draws_os_entropy(self):
        """seed=None draws fresh entropy per call, as Philox(None) does."""
        draws = {tuple(noise._draw(None, "integers", 0, 2**62, 4).tolist()) for _ in range(3)}
        assert len(draws) == 3

    def test_threads_draw_as_serial_calls(self):
        """Draws interleaved on three threads, more than this suite's cores,
        equal the same draws made one after another: each re-key and its
        draw hold the lock together.  A short switch interval makes the
        threads swap often."""
        p = np.full(16, 1 / 16)
        jobs = [[(1000 * t + j, j % 2) for j in range(300)] for t in range(3)]

        def draw(seed, kind):
            return (noise.sample_outcomes(p, 5000, seed) if kind
                    else noise._draw(seed, "integers", 0, 1000, 50)).tolist()

        serial = [[draw(*job) for job in thread] for thread in jobs]
        got, start = [[] for _ in jobs], threading.Barrier(len(jobs))

        def run(t):
            start.wait(timeout=60)
            got[t].extend(draw(*job) for job in jobs[t])

        threads = [threading.Thread(target=run, args=(t,)) for t in range(len(jobs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert got == serial

    def test_no_generator_is_built_per_draw(self, monkeypatch):
        """After the first draw the stream is reused: no Philox, Generator
        or SeedSequence is built by noisy_counts, run_pairs or
        random_sequence."""
        noise._draw(0, "random")
        built = []
        for name in ("Philox", "Generator", "SeedSequence"):
            real = getattr(np.random, name)
            monkeypatch.setattr(np.random, name, lambda *a, real=real, name=name: built.append(name) or real(*a))
        noisy_counts(Circuit(2, [GateInstance(GateKind.H, (0,))], [0, 1]), NoiseParams(eps1=0.1), 100, 3)
        random_sequence(SequenceSpec(GateSetId.FULL, 20, 4))
        run_pairs([([LogicalGate.X0, LogicalGate.CZZZ], NoiseParams(eps2=0.1), 5)], 64)
        assert derive_seed(7, "a", 3) == derive_seed(7, "a", 3)
        assert built == []


def _forward_push(x: list[int], z: list[int], gate: GateInstance) -> None:
    """Conjugate a Pauli, as per-qubit X and Z bits, forward past one gate;
    a Pauli gate or an RZ leaves the bits as they are."""
    kind, t = gate.kind, gate.targets
    if kind is GateKind.H:
        x[t[0]], z[t[0]] = z[t[0]], x[t[0]]
    elif kind is GateKind.S:
        z[t[0]] ^= x[t[0]]
    elif kind is GateKind.CNOT:
        x[t[1]] ^= x[t[0]]
        z[t[0]] ^= z[t[1]]
    elif kind is GateKind.CZ:
        z[t[0]] ^= x[t[1]]
        z[t[1]] ^= x[t[0]]
    elif kind is GateKind.SWAP:
        for bits in (x, z):
            bits[t[0]], bits[t[1]] = bits[t[1]], bits[t[0]]


def _forward_mask(circuit: Circuit, paulis, start: int) -> int:
    """Flip mask of the (letter, qubit) Paulis inserted before gate start:
    the read-out flip in the bits below m, and bit m + j where the pushed
    Pauli has an X part on the qubit of the j-th RZ from the end, an RZ it
    reverses.  Every RZ is pushed past as the identity."""
    x = [0] * circuit.n_qubits
    z = [0] * circuit.n_qubits
    for letter, q in paulis:
        x[q] = int(letter in "XY")
        z[q] = int(letter in "YZ")
    m = len(circuit.measured)
    rz = [i for i, g in enumerate(circuit.gates) if g.kind is GateKind.RZ][::-1]
    mask = 0
    for i, g in enumerate(circuit.gates[start:], start):
        if g.kind is GateKind.RZ:
            mask |= x[g.targets[0]] << (m + rz.index(i))
        _forward_push(x, z, g)
    return mask | sum(x[q] << t for t, q in enumerate(circuit.measured))


class TestFlipMaskTable:
    def test_backward_masks_equal_forward_push(self, random_clifford):
        """Every row of the backward sweep equals pushing the fault forward
        to the end, RZ bits included, and so does the start frame's zcol,
        the prep flips' masks, with 0 to 3 RZs inserted.  The frame at the
        last RZ is the start frame of the Clifford gates after it, and the
        start frame's read-out bits are the frame of the circuit with its
        RZs removed.  The coded L = 100 circuits run long stretches of
        Pauli gates, which leave the frame where it is, between its moves."""
        cases = [(seed, random_clifford(seed, n_qubits=2 + seed % 4, n_extra=seed % 25))
                 for seed in range(60)]
        cases += [(gate_set, build_pair(random_sequence(SequenceSpec(gate_set, 100, seed)))[1])
                  for seed, gate_set in enumerate([GateSetId.FULL] * 2 + [GateSetId.REDUCED] * 2)]
        two_on_one = 0
        for k, (tag, c) in enumerate(cases):
            c = _with_rzs(c, k % 4, k)
            table = FlipMaskTable(c)
            rz = [i for i, g in enumerate(c.gates) if g.kind is GateKind.RZ]
            assert table.rz == rz[::-1], tag
            for i, g in enumerate(c.gates):
                labels = ONE_QUBIT_PAULIS if g.kind.arity == 1 else TWO_QUBIT_PAULIS
                want = [0] + [_forward_mask(c, zip(label, g.targets), i + 1) for label in labels]
                assert list(table.gate_masks[i]) == want, (tag, i)
            split, *frame = table.frame
            start = table.start
            assert start[0] == -1
            assert start[2] == [_forward_mask(c, [("X", q)], 0) for q in range(c.n_qubits)], tag
            assert split == (rz[-1] if rz else -1), tag
            assert frame == list(FlipMaskTable(c.with_gates(c.gates[split + 1:])).start[1:]), tag
            low = (1 << len(c.measured)) - 1
            bare = FlipMaskTable(c.with_gates([g for g in c.gates if g.kind is not GateKind.RZ])).start
            assert [[v & low for v in col] for col in start[1:3]] == list(bare[1:3]), tag
            assert start[3] & low == bare[3], tag
            two_on_one += len({c.gates[i].targets for i in rz}) < len(rz)
        assert two_on_one > 3

    def test_rows_through_gates_that_leave_the_frame(self):
        """Circuits built back from the read-out, so that most gates leave
        the carried columns as they are: S on an X-free column, CZ or CNOT
        on columns that do not interact, SWAP of equal columns.  The sweep
        may pass such a gate by, and every row must still equal the
        forward push."""
        kinds = [GateKind.H, GateKind.S, GateKind.CNOT, GateKind.CZ, GateKind.SWAP]
        fixed: Counter = Counter()
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = 2 + seed % 4
            measured = [int(q) for q in rng.permutation(n)[:1 + seed % n]]
            # the backward frame as bit columns, carried with the forward map (each is self-inverse)
            cols = ([0] * n, [sum(1 << t for t, m in enumerate(measured) if m == q) for q in range(n)])
            gates: list[GateInstance] = []
            while len(gates) < 60:
                kind = kinds[int(rng.integers(len(kinds)))]
                g = GateInstance(kind, tuple(int(q) for q in rng.choice(n, kind.arity, replace=False)))
                moved = (list(cols[0]), list(cols[1]))
                _forward_push(*moved, g)
                if moved == cols:
                    fixed[kind] += 1
                elif rng.random() < 0.8:
                    continue
                cols = moved
                gates.insert(0, g)
            c = Circuit(n, gates, measured)
            table = FlipMaskTable(c)
            for i, g in enumerate(gates):
                labels = ONE_QUBIT_PAULIS if g.kind.arity == 1 else TWO_QUBIT_PAULIS
                want = [0] + [_forward_mask(c, zip(label, g.targets), i + 1) for label in labels]
                assert list(table.gate_masks[i]) == want, (seed, i)
            assert table.start[2] == [_forward_mask(c, [("X", q)], 0) for q in range(n)]
        assert min(fixed[k] for k in (GateKind.S, GateKind.CNOT, GateKind.CZ, GateKind.SWAP)) > 100


def _wht_1d(vec: np.ndarray) -> np.ndarray:
    h = 1
    while h < len(vec):
        a = vec.reshape(-1, 2, h)
        vec = np.stack((a[:, 0] + a[:, 1], a[:, 0] - a[:, 1]), axis=1).reshape(-1)
        h *= 2
    return vec


@pytest.mark.parametrize("m", range(1, 13))
def test_batched_transform_equals_the_butterfly(m):
    """_wht on a (k, 2^m) batch is the one-vector butterfly on each row,
    bit for bit, through zeros, negatives, subnormals and a wide range."""
    rng = np.random.default_rng(m)
    vec = rng.standard_normal((4, 1 << m)) * 10.0 ** rng.integers(-300, 290, (4, 1 << m))
    vec[0, ::3] = 0.0
    vec[1] = rng.integers(-3, 4, 1 << m) * 5e-324  # subnormal multiples of the least one
    vec[2] *= 1e-310  # mostly subnormal
    want = np.array([_wht_1d(row) for row in vec])
    assert np.array_equal(simulator._wht(vec), want)
    assert np.array_equal(simulator._wht(vec[3]), want[3])
    assert np.isfinite(want).all() and (want[1] != 0.0).any()


def _per_site_outcomes(circuit: Circuit, params: NoiseParams, table: FlipMaskTable,
                       base: np.ndarray) -> np.ndarray:
    """Reference suffix on the base spectrum: one bincount, one transform
    and one power per unique folded site, multiplied in site order."""
    n_bits = len(circuit.measured)
    sites: Counter = Counter()
    split = table.frame[0]
    for row in table.gate_masks[max(split, 0):]:  # the gates ahead of the split are in the base
        sites[(params.eps1 if len(row) == 4 else params.eps2, tuple(row))] += 1
    if split < 0:
        sites.update((params.p_prep, (0, mask)) for mask in table.start[2])
    sites.update((params.p_meas, (0, 1 << t)) for t in range(n_bits))
    firing = [(p, masks, count) for (p, masks), count in sites.items() if p > 0.0]
    vec, total = spectrum_marginal(base), 1.0
    if firing:
        spec = np.ones(1 << n_bits)
        for p, masks, count in firing:
            w = [1.0 - p] + [p / (len(masks) - 1)] * (len(masks) - 1)
            spec *= _wht_1d(np.bincount(masks, w, minlength=len(spec))) ** count
        vec = np.maximum(_wht_1d(base * spec), 0.0)
        total = vec.sum()
    return (1.0 - params.xi) * vec / total + params.xi / len(vec)


class TestBatchedSuffix:
    """_clifford_outcomes raises four factors to their exponent vectors; it
    must give the per-site loop's vector, each site's spectrum a transform
    of its weights, to 1e-13."""

    @staticmethod
    def _params(seed: int) -> NoiseParams:
        """Odd seeds go up to 0.9, where a site's spectrum turns negative;
        even seeds stay below 0.05 with no xi, where spectra stay near 1
        and an ulp in one of them survives into the vector."""
        eps1, eps2, p_prep, p_meas, xi = np.random.default_rng(seed).uniform(
            0.0, 0.9 if seed % 2 else 0.05, 5)
        return NoiseParams(eps1=eps1, eps2=eps2, p_prep=p_prep, p_meas=p_meas,
                           xi=xi / 3 if seed % 2 else 0.0)

    def _check(self, c: Circuit, params: NoiseParams) -> FlipMaskTable:
        table = FlipMaskTable(c)
        item = noise._suffix_item(c, params, table)  # the base holds the sites ahead of an RZ
        np.testing.assert_allclose(noise._clifford_outcomes([item])[0],
                                   _per_site_outcomes(c, params, table, item[0]), rtol=0, atol=1e-13)
        return table

    def test_random_circuits(self, random_clifford):
        """Every channel on, with and without an RZ, 1 to 6 read-out bits;
        prep rows whenever there is no RZ."""
        widths = set()
        for seed in range(120):
            c = random_clifford(seed, n_qubits=2 + seed % 5, n_extra=seed % 30,
                                measure_all=seed % 3 == 0)
            c = _with_rzs(c, int(seed % 4 == 1), seed)
            table = self._check(c, self._params(seed))
            assert (table.frame[0] >= 0) == any(g.kind is GateKind.RZ for g in c.gates), seed
            widths.add(len(c.measured))
        assert widths == {1, 2, 3, 4, 5, 6}

    def test_sites_repeated_twice(self, random_clifford):
        """Equal sites counted twice in one exponent.  An X, Y or Z gate
        commutes with the frame, so doubling each one gives two equal rows."""
        doubled = 0
        for seed in range(150):
            c = random_clifford(seed, n_qubits=2 + seed % 5, n_extra=10 + seed % 20, measure_all=True)
            twice = [[g, g] if g.kind in (GateKind.X, GateKind.Y, GateKind.Z) else [g] for g in c.gates]
            table = self._check(c.with_gates([g for gs in twice for g in gs]), self._params(seed))
            doubled += 2 in Counter(table.gate_masks).values()
        assert doubled > 100

    def test_equal_prep_and_read_out_weights(self, random_clifford):
        """p_prep == p_meas: a prep flip and a read-out flip of one mask are
        one site of count 2 in the reference, and one row in each of two
        exponents here."""
        merged = 0
        for seed in range(60):
            c = random_clifford(seed, n_qubits=2 + seed % 4, n_extra=seed % 20, measure_all=True)
            p = self._params(seed)
            table = self._check(c, dataclasses.replace(p, p_prep=p.p_meas))
            merged += bool(set(table.start[2]) & {1 << t for t in range(len(c.measured))})
        assert merged > 20

    @pytest.mark.parametrize("gate_set", [GateSetId.FULL, GateSetId.REDUCED])
    def test_coded_circuits(self, gate_set):
        for L in (1, 20, 100):
            for k in range(3):
                for c in build_pair(random_sequence(SequenceSpec(gate_set, L, 40 + k))):
                    for params in (self._params(L + k), NoiseParams(eps1=4e-3, eps2=0.16, p_meas=0.02)):
                        self._check(c, params)
                        if c.n_qubits == 4:  # the coded side, with its encoder's H
                            self._check(insert_coherent_rotation(c, 0.7), params)


def _all_masks_odd(row: tuple[int, ...], m: int) -> np.ndarray:
    """_anticommuting by its definition: one parity gather per mask."""
    parity = np.array([bin(i).count("1") % 2 for i in range(1 << m)])
    return parity[np.array(row)[:, None] & np.arange(1 << m)].any(axis=0).astype(np.int8)


class TestAnticommuting:
    @pytest.mark.parametrize("m", [1, 2, 4, 5])
    def test_odd_overlap_of_some_mask(self, m):
        """1 at s exactly when some mask of the row overlaps s in an odd
        number of bits, on random rows closed under XOR (the image of a
        random linear map, as every row the package builds is), generators
        zero or repeated included."""
        rng = np.random.default_rng(m)
        for k in rng.choice([2, 4, 16], 40):
            row = [0]
            for g in rng.integers(0, 1 << m, int(k).bit_length() - 1).tolist():
                row += [mask ^ g for mask in row]
            row = tuple(row)
            want = [float(any(bin(mask & s).count("1") % 2 for mask in row)) for s in range(1 << m)]
            assert noise._anticommuting(row, m).tolist() == want

    def test_every_table_row_is_linear_and_matches_all_masks(self, random_clifford):
        """Every gate row, start-frame flip row and RZ row that the engine
        reads off random circuits' tables, RZ columns included, satisfies
        row[i ^ j] = row[i] ^ row[j], and the generator gather gives the
        all-masks vector."""
        for seed in range(12):
            c = _with_rzs(random_clifford(seed, n_qubits=2 + seed % 3, n_extra=10 + seed), seed % 3, seed)
            table = FlipMaskTable(c)
            width = len(c.measured) + len(table.rz)
            rows = {*table.gate_masks, *((0, mask) for mask in table.start[2]),
                    *((0, table.gate_masks[i][3]) for i in table.rz)}
            for row in rows:
                assert all(row[i ^ j] == row[i] ^ row[j] for i in range(len(row)) for j in range(len(row)))
                assert np.array_equal(noise._anticommuting(row, width), _all_masks_odd(row, width)), row

    def test_read_only_and_cached(self):
        info = noise._anticommuting.cache_info()
        assert info.maxsize is not None and info.maxsize > 0
        row = noise._anticommuting((0, 2), 3)
        assert row is noise._anticommuting((0, 2), 3)
        assert noise._anticommuting.cache_info().hits > info.hits
        with pytest.raises(ValueError):
            row[0] = 1.0


def _merge(branches: dict, amp: np.ndarray, weight: float) -> None:
    """Add weight to the branch holding amp up to a global phase."""
    lead = amp[np.argmax(np.abs(amp) > 1e-9)]
    key = (np.round(amp * (abs(lead) / lead), 9) + 0.0).tobytes()  # + 0.0 folds -0.0 into 0.0
    held = branches.get(key)
    branches[key] = (amp, weight + (held[1] if held else 0.0))


def _exact_mixture(circuit: Circuit, params: NoiseParams) -> dict[str, float]:
    """Every preparation-flip and gate-fault configuration simulated on its
    own and mixed by its probability.  Configurations are enumerated gate
    by gate and branches that reach the same state up to a global phase
    are merged, so a Clifford circuit never holds more than 2**n."""
    n = circuit.n_qubits
    branches: dict = {}
    for flips in itertools.product((0, 1), repeat=n):
        amp = final_state(Circuit(n, [_g(GateKind.X, q) for q, f in enumerate(flips) if f], [])).amplitudes
        _merge(branches, amp, math.prod(params.p_prep if f else 1.0 - params.p_prep for f in flips))
    for g in circuit.gates:
        eps = params.eps1 if g.kind.arity == 1 else params.eps2
        labels = ONE_QUBIT_PAULIS if g.kind.arity == 1 else TWO_QUBIT_PAULIS
        after: dict = {}
        for amp, weight in branches.values():
            amp = _evolve(amp, [g], n)
            _merge(after, amp, weight * (1.0 - eps))
            for label in labels if eps else ():
                fault = [_g(GateKind[ch], q) for ch, q in zip(label, g.targets) if ch != "I"]
                _merge(after, _evolve(amp, fault, n), weight * eps / len(labels))
        branches = after
    vec = sum(w * marginal_vector(np.abs(amp) ** 2, n, circuit.measured)
              for amp, w in branches.values())
    return {bitstring_of(j, len(circuit.measured)): float(vec[j]) for j in np.flatnonzero(vec)}


def _read_out_and_xi(vec: np.ndarray, params: NoiseParams) -> np.ndarray:
    """Flip each read-out bit with p_meas, then mix toward uniform by xi."""
    idx = np.arange(len(vec))
    for t in range(len(vec).bit_length() - 1):
        vec = (1.0 - params.p_meas) * vec + params.p_meas * vec[idx ^ (1 << t)]
    return (1.0 - params.xi) * vec + params.xi / len(vec)


def _drawn_vector(monkeypatch, circuit: Circuit, params: NoiseParams, shots: int = 1000) -> np.ndarray:
    """The one vector a noisy_counts call hands to its one multinomial,
    recorded on the keyed stream that noise._keyed hands out."""
    draws, keyed = [], noise._keyed

    class Recording:
        def __init__(self, seed):
            self._rng = keyed(seed)

        def multinomial(self, n, p):
            draws.append(np.array(p))
            return self._rng.multinomial(n, p)

    with monkeypatch.context() as m:
        m.setattr(noise, "_keyed", Recording)
        counts = noisy_counts(circuit, params, shots, 0)
    [p] = draws
    assert counts.total == shots
    return p


def _with_rzs(c: Circuit, count: int, seed: int) -> Circuit:
    """c with count RZs of random angle inserted at random places."""
    rng = np.random.default_rng(1000 + seed)
    gates = list(c.gates)
    for _ in range(count):
        rz = _g(GateKind.RZ, int(rng.integers(c.n_qubits)), angle=float(rng.uniform(-3, 3)))
        gates.insert(int(rng.integers(0, len(gates) + 1)), rz)
    return c.with_gates(gates)


class TestFrameSplit:
    @pytest.mark.parametrize("text", [
        "qubits 1\nRZ 0 0.7\nH 0\nMEASURE 0\n",
        "qubits 2\nRZ 0 0.7\nH 0\nCNOT 0 1\nMEASURE 0 1\n",
    ])
    def test_rz_as_first_gate(self, text):
        """The last RZ is gate 0: faults after it fold into the frame, which
        must not be carried past the RZ, and preparation flips ahead of it
        are simulated."""
        c = parse_circuit(text)
        params = NoiseParams(eps1=0.2, eps2=0.3, p_prep=0.25)
        n = 50_000
        counts = noisy_counts(c, params, n, 21).counts
        exact = _exact_mixture(c, params)
        assert set(counts) <= set(exact)
        for s, p in exact.items():
            assert abs(counts.get(s, 0) - n * p) <= 5 * math.sqrt(n * p * (1 - p)) + 1, s


class TestEngineCost:
    """Deterministic pins on how many spectra noisy_counts reads and how
    many statevectors it runs."""

    @staticmethod
    def _record_sims(monkeypatch) -> tuple[list, list]:
        """(circuit, columns) of every spectrum read, and the gate count of
        every statevector run."""
        reads, runs = [], []
        read, evolve = noise.frame_spectrum, simulator._evolve

        def record(c, frame, columns=None):
            reads.append((c, columns))
            return read(c, frame, columns)

        monkeypatch.setattr(noise, "frame_spectrum", record)
        monkeypatch.setattr(simulator, "_evolve",
                            lambda amp, gates, n: runs.append(len(gates)) or evolve(amp, gates, n))
        return reads, runs

    def test_clifford_circuit_simulates_once(self, monkeypatch):
        reads, runs = self._record_sims(monkeypatch)
        noisy_counts(ENCODER, NoiseParams(eps1=0.05, eps2=0.1, p_meas=0.02, p_prep=0.05), 20_000, 3)
        assert (reads, runs) == ([(ENCODER, None)], [])

    def test_rz_path_simulates_no_configuration(self, monkeypatch):
        """RZ after the encoder's first gate: one read of the start frame
        over the 4 read-out bits and the RZ's column, no statevector run,
        and the only random call of the whole noisy_counts call is one
        multinomial."""
        base = Circuit(4, ENCODER.gates + coded_gate_circuit(LogicalGate.HHSWAP) * 6, [0, 1, 2, 3])
        circ = insert_coherent_rotation(base, 1.1)
        assert circ.gates[1].kind is GateKind.RZ
        reads, runs = self._record_sims(monkeypatch)
        generators = []
        keyed = noise._keyed

        class Counting:
            def __init__(self, seed):
                self.names = []
                self._gen = keyed(seed)
                generators.append(self)

            def __getattr__(self, name):
                self.names.append(name)
                return getattr(self._gen, name)

        monkeypatch.setattr(noise, "_keyed", Counting)
        params = NoiseParams(eps1=4e-3, eps2=0.16, p_meas=0.02, p_prep=0.01, theta=1.1)
        assert noisy_counts(circ, params, 8192, 4).total == 8192
        assert (reads, runs) == ([(circ, 5)], [])
        assert [g.names for g in generators] == [["multinomial"]]

    def test_sites_ahead_of_the_rz_fold_into_the_start_read(self, monkeypatch):
        """With the RZ as gate 0 only preparation flips sit ahead of it.
        With or without them the base is one read of the start frame over
        the 2 read-out bits and the RZ's column, and no statevector runs;
        the flips change the vector."""
        c = parse_circuit("qubits 2\nRZ 0 0.7\nH 0\nCNOT 0 1\nMEASURE 0 1\n")
        reads, runs = self._record_sims(monkeypatch)
        quiet = noisy_vector(c, NoiseParams(eps1=0.2, eps2=0.3, p_meas=0.1, xi=0.1))
        assert (reads, runs) == ([(c, 3)], [])
        flipped = noisy_vector(c, NoiseParams(eps1=0.2, eps2=0.3, p_meas=0.1, xi=0.1, p_prep=0.1))
        assert (reads, runs) == ([(c, 3)] * 2, [])
        assert np.abs(quiet - flipped).max() > 1e-3

    def test_no_firing_site_leaves_the_base_untouched(self, random_clifford):
        """Without a folded flip the vector is the ideal marginal itself,
        bit for bit, mixed by xi; no transform round trip."""
        for seed in range(10):
            c = _with_rzs(random_clifford(seed, n_qubits=2 + seed % 3, n_extra=seed), seed % 2, seed)
            ideal = ideal_marginal(c)
            assert np.array_equal(noise.noisy_vector(c, NoiseParams(theta=0.3)), ideal)
            mixed = noise.noisy_vector(c, NoiseParams(xi=0.25))
            assert np.array_equal(mixed, 0.75 * ideal + 0.25 / len(ideal))


class TestSpectrumDraw:
    """The one multinomial per call against exact mixtures."""

    @staticmethod
    def _params(seed: int) -> NoiseParams:
        eps1, eps2, p_prep, p_meas, xi = np.random.default_rng(seed).uniform(0.01, 0.3, 5)
        return NoiseParams(eps1=eps1, eps2=eps2, p_prep=p_prep, p_meas=p_meas, xi=xi / 3)

    def test_clifford_draw_vector_is_exact(self, monkeypatch, random_clifford):
        """A Clifford circuit's one multinomial draws from exactly the
        noisy distribution, every channel on at once."""
        for seed in range(30):
            c = random_clifford(seed, n_qubits=2 + seed % 3, n_extra=seed % 7)
            params = self._params(seed)
            p = _drawn_vector(monkeypatch, c, params)
            exact = outcome_vector(_exact_mixture(c, params), len(c.measured))
            assert np.max(np.abs(p - _read_out_and_xi(exact, params))) < 1e-12, seed

    def test_rz_draw_vector_is_exact(self, monkeypatch, random_clifford):
        """With one or two RZs anywhere, the one vector the multinomial
        draws from is the exact noisy distribution, every channel on."""
        for seed in range(40):
            c = _with_rzs(random_clifford(seed, n_qubits=2 + seed % 3, n_extra=seed % 6), 1 + seed % 2, seed)
            params = self._params(seed)
            assert FlipMaskTable(c).frame[0] >= 0
            p = _drawn_vector(monkeypatch, c, params)
            exact = outcome_vector(_exact_mixture(c, params), len(c.measured))
            assert np.max(np.abs(p - _read_out_and_xi(exact, params))) < 1e-12, seed

    def test_analytic_distribution_is_the_drawn_vector(self, monkeypatch, random_clifford):
        """noisy_vector is exact under every channel at once, with 0, 1 or
        2 RZs, and is the very vector noisy_counts draws from."""
        for seed in range(30):
            c = _with_rzs(random_clifford(seed, n_qubits=2 + seed % 3, n_extra=seed % 6), seed % 3, seed)
            params = self._params(seed)
            got = noisy_vector(c, params)
            exact = outcome_vector(_exact_mixture(c, params), len(c.measured))
            assert np.max(np.abs(got - _read_out_and_xi(exact, params))) < 1e-12, seed
            assert np.array_equal(got, _drawn_vector(monkeypatch, c, params)), seed

    @pytest.mark.parametrize("params", [
        NoiseParams(eps1=0.75, eps2=15 / 16, p_prep=0.5, p_meas=0.5),  # every factor 0
        NoiseParams(eps1=1.0, eps2=1.0, p_prep=1.0, p_meas=1.0, xi=0.1),  # every factor negative
    ], ids=["zero factors", "negative factors"])
    @pytest.mark.parametrize("rzs", [0, 1])
    def test_edge_factors_are_exact(self, params, rzs, random_clifford):
        """A factor of 0 must leave 0 ** 0 = 1 where a site commutes with
        Q_s, and negative factors must keep their signs, with and without
        an RZ ahead of the folded sites."""
        for seed in range(12):
            c = _with_rzs(random_clifford(seed, n_qubits=2 + seed % 3, n_extra=seed % 6), rzs, seed)
            exact = outcome_vector(_exact_mixture(c, params), len(c.measured))
            np.testing.assert_allclose(noisy_vector(c, params), _read_out_and_xi(exact, params),
                                       rtol=0, atol=1e-12, err_msg=str(seed))

    def test_rz_path_refuses_wide_registers(self):
        """The base holds 2**(m + k) entries for m read-out bits and k RZs,
        so m + k > 16 is refused before any of them is built; a 7-qubit
        circuit with an RZ runs with every channel on."""
        gates = [_g(GateKind.H, q) for q in range(7)]
        clifford = Circuit(7, gates, list(range(7)))
        assert noisy_counts(clifford, self._params(0), 500, 1).total == 500
        rz = insert_coherent_rotation(clifford, 0.4)
        for params in (NoiseParams(p_meas=0.1, xi=0.2), NoiseParams(eps1=0.01),
                       NoiseParams(p_prep=0.01), self._params(0)):
            assert noisy_counts(rz, params, 500, 1).total == 500
        four = Circuit(4, [_g(GateKind.H, q) for q in range(4)] + [_g(GateKind.CNOT, 0, 1)], [0, 1, 2, 3])
        twelve = _with_rzs(four, 12, 0)
        assert noisy_counts(twelve, self._params(1), 500, 1).total == 500
        thirteen = _with_rzs(four, 13, 0)
        tracemalloc.start()
        try:
            with pytest.raises(CircuitError, match=r"m \+ k = 17 .* exceeds 16"):
                noisy_counts(thirteen, self._params(1), 500, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_clifford_call_samples_no_faults(self, monkeypatch, random_clifford):
        def refuse(*args):
            raise AssertionError("a Clifford circuit ran a statevector")

        monkeypatch.setattr(simulator, "_evolve", refuse)
        for seed in range(10):
            c = random_clifford(seed, n_qubits=2 + seed % 4, n_extra=seed)
            for shots in (1, 7, 10_000):
                assert noisy_counts(c, self._params(seed), shots, seed).total == shots

    def test_prefix_without_a_suffix_stays_a_distribution(self):
        """A fault ahead of the RZ and none after it: the base is the whole
        vector, and its rounding on q0's true zero must not reach the
        multinomial as a negative probability."""
        gates = [_g(GateKind.CNOT, 1, 2), _g(GateKind.H, 0)]
        for theta in np.linspace(0.1, 3.0, 60):
            c = Circuit(3, gates + [_g(GateKind.RZ, 0, angle=float(theta)), _g(GateKind.S, 0),
                                    _g(GateKind.RZ, 0, angle=-float(theta)), _g(GateKind.Z, 0),
                                    _g(GateKind.S, 0), _g(GateKind.H, 0), _g(GateKind.RZ, 0, angle=0.3)], [0])
            assert noise.noisy_vector(c, NoiseParams(eps2=0.2)).min() >= 0.0, theta
            assert noisy_counts(c, NoiseParams(eps2=0.2), 100, 1).counts == {"0": 100}

    def test_counts_sum_to_shots_on_the_rz_path(self):
        circ = insert_coherent_rotation(ENCODER, 0.8)
        params = NoiseParams(eps1=0.05, eps2=0.2, p_meas=0.1, p_prep=0.1, xi=0.1, theta=0.8)
        for shots in (1, 2, 999, 50_000):
            assert noisy_counts(circ, params, shots, shots).total == shots


_PAULI_MATRICES = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
                   "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1, -1])}


def _pauli_on(label: str, targets: tuple[int, ...], n: int) -> np.ndarray:
    """Matrix of a Pauli label over targets on n qubits, qubit q at index
    bit q: the Kronecker product by its definition, the identity on every
    qubit off the targets times each target's 2 x 2 factor at its bits of
    the row and the column."""
    i, j = np.arange(1 << n)[:, None], np.arange(1 << n)[None, :]
    off = sum(1 << q for q in range(n) if q not in targets)
    out = ((i ^ j) & off == 0).astype(complex)
    for c, q in zip(label, targets):
        out *= _PAULI_MATRICES[c][i >> q & 1, j >> q & 1]
    return out


# each gate kind as a sum of (coefficient, Pauli label on its targets), RZ aside
_AS_PAULIS = {
    GateKind.X: [(1, "X")], GateKind.Y: [(1, "Y")], GateKind.Z: [(1, "Z")],
    GateKind.H: [(2 ** -0.5, "X"), (2 ** -0.5, "Z")],
    GateKind.S: [((1 + 1j) / 2, "I"), ((1 - 1j) / 2, "Z")],
    GateKind.CNOT: [(0.5, "II"), (0.5, "ZI"), (0.5, "IX"), (-0.5, "ZX")],
    GateKind.CZ: [(0.5, "II"), (0.5, "ZI"), (0.5, "IZ"), (-0.5, "ZZ")],
    GateKind.SWAP: [(0.5, "II"), (0.5, "XX"), (0.5, "YY"), (0.5, "ZZ")],
}


def _dense(gate: GateInstance, n: int) -> np.ndarray:
    """The gate's matrix on n qubits, built from Pauli matrices alone."""
    terms = _AS_PAULIS.get(gate.kind) or [(np.cos(gate.angle / 2), "I"),
                                          (-1j * np.sin(gate.angle / 2), "Z")]
    return sum(c * _pauli_on(label, gate.targets, n) for c, label in terms)


def _every_gate_reference(circuit: Circuit, params: NoiseParams) -> np.ndarray:
    """Reference on the dense 2^n x 2^n rho: every gate as U rho U^dagger
    with U from _dense, each preparation flip and the fault after each
    gate as its explicit Kraus sum, and the marginal read off the
    diagonal, with no frame and no engine function."""
    n = circuit.n_qubits

    def conjugated(rho, U):
        """U rho U^dagger, by matrix products for an H, else for U whose row i
        holds one entry, v_i at column c_i: entry (i, j) is v_i rho[c_i, c_j] conj(v_j)."""
        if np.count_nonzero(U) > len(U):
            return U @ rho @ U.conj().T
        c = np.abs(U).argmax(axis=1)
        v = U[np.arange(len(c)), c]
        return np.outer(v, v.conj()) * rho[np.ix_(c, c)]

    def kraus(rho, p, labels, targets):
        return (1 - p) * rho + p / len(labels) * sum(conjugated(rho, _pauli_on(label, targets, n))
                                                      for label in labels)

    labels = {1: ONE_QUBIT_PAULIS, 2: TWO_QUBIT_PAULIS}
    rho = np.zeros((1 << n,) * 2, dtype=complex)
    rho[0, 0] = 1.0
    for q in range(n):
        rho = kraus(rho, params.p_prep, ["X"], (q,))
    for g in circuit.gates:
        p = params.eps1 if g.kind.arity == 1 else params.eps2
        rho = kraus(conjugated(rho, _dense(g, n)), p, labels[g.kind.arity], g.targets)
    return np.maximum(marginal_vector(rho.diagonal().real, n, circuit.measured), 0.0)


class TestPrefixTail:
    """The engine against two independent references: the dense Kraus
    run of every gate, and the statevector of the noiseless circuit."""

    def test_prefix_matches_every_gate_reference(self, random_clifford):
        """With preparation flips and a gate fault after every gate, one
        or two RZs anywhere, noisy_vector equals the marginal of a dense
        density matrix run through every gate, to 1e-13, up to 7 qubits,
        where two-qubit sites sit ahead of an RZ."""
        wide = 0  # 7-qubit circuits with a two-qubit site ahead of an RZ
        for seed in range(300):
            rng = np.random.default_rng(seed)
            n = 7 if seed % 10 == 9 else 2 + seed % 4
            c = random_clifford(seed, n_qubits=n, n_extra=seed % 25)
            gates = [g for g in c.gates if seed % 3 or g.kind is not GateKind.H]
            for _ in range(1 + seed % 2):
                gates.insert(int(rng.integers(0, len(gates) + 1)),
                             _g(GateKind.RZ, int(rng.integers(c.n_qubits)), angle=float(rng.uniform(-3, 3))))
            c = c.with_gates(gates)
            params = NoiseParams(*rng.uniform(0.01, 0.2, 2), p_prep=float(rng.uniform(0.01, 0.2)))
            np.testing.assert_allclose(noisy_vector(c, params), _every_gate_reference(c, params),
                                       rtol=0, atol=1e-13, err_msg=str(seed))
            split = FlipMaskTable(c).frame[0]
            wide += c.n_qubits == 7 and any(g.kind.arity == 2 for g in c.gates[:split])
        assert wide > 20

    def test_pull_down_matches_the_statevector(self, random_clifford):
        """Without noise the RZs pulled down into the start frame's
        spectrum give the ideal marginal that ideal_marginal reads off
        the statevector, to 1e-13, with up to 5 RZs."""
        for seed in range(200):
            c = random_clifford(seed, n_qubits=2 + seed % 5, n_extra=seed % 30)
            c = _with_rzs(c, 1 + seed % 5, seed)
            np.testing.assert_allclose(noisy_vector(c, NoiseParams()), ideal_marginal(c),
                                       rtol=0, atol=1e-13, err_msg=str(seed))


class TestSuffixAgainstPrefix:
    """Appending Z 0 leaves every site to the suffix; appending RZ(0) on
    qubit 0 folds every earlier site, prep flips included, into the start
    frame's spectrum ahead of the RZ.  The two circuits are the same
    state, so the vectors agree."""

    @pytest.mark.parametrize("gate_set", [GateSetId.FULL, GateSetId.REDUCED])
    @pytest.mark.parametrize("length", [1, 5, 20, 50])
    def test_biased_weights(self, gate_set, length):
        """At random uniform rates, every channel on."""
        for seed in range(2):
            eps1, eps2, p_meas, p_prep = np.random.default_rng([seed, length]).uniform(0.05, 0.3, 4)
            params = NoiseParams(eps1=eps1, eps2=eps2, p_meas=p_meas, p_prep=p_prep, xi=0.05)
            for c in build_pair(random_sequence(SequenceSpec(gate_set, length, seed))):
                suffix = c.with_gates([*c.gates, _g(GateKind.Z, 0)])
                prefix = c.with_gates([*c.gates, _g(GateKind.RZ, 0, angle=0.0)])
                assert FlipMaskTable(prefix).frame[0] == len(c.gates)  # every earlier site is folded ahead
                np.testing.assert_allclose(noisy_vector(prefix, params), noisy_vector(suffix, params),
                                           rtol=0, atol=1e-14)


class TestBoundedMemory:
    def test_longest_sequence_million_shots(self):
        """No per-shot array on either path: 10^6 shots through the
        2,656-gate coded circuit of a FULL-set L = 1000 sequence, as it is
        and with an RZ before its last gate, which folds 2,655 gates'
        faults into the start frame's spectrum ahead of the RZ."""
        coded = build_pair(random_sequence(SequenceSpec(GateSetId.FULL, MAX_SEQUENCE_LENGTH, 3)))[1]
        assert len(coded.gates) == 2656
        gates = list(coded.gates)
        gates.insert(len(gates) - 1, _g(GateKind.RZ, 1, angle=0.7))
        params = NoiseParams(eps1=4e-3, eps2=0.16, p_meas=0.02, p_prep=0.01)
        for circuit in (coded, coded.with_gates(gates)):
            tracemalloc.start()
            try:
                counts = noisy_counts(circuit, params, 10 ** 6, 1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert counts.total == 10 ** 6
            assert peak < 16 * 2 ** 20
