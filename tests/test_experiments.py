"""Sequence generation, paired runs, sweeps, CSV persistence."""

import dataclasses
import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from qec422 import experiments, noise, simulator
from qec422.analytics import trace_distance
from qec422.circuits import Circuit, CircuitError, GateInstance, GateKind
from qec422.code import (
    EncoderVariant,
    LogicalGate,
    LogicalStateLabel,
    build_encoder,
    decode_distribution,
    post_select,
    post_select_distribution,
)
from qec422.experiments import (
    CSV_COLUMNS,
    MAX_SEQUENCE_LENGTH,
    GateSetId,
    SCHEME_CODED_PS,
    SCHEME_CODED_RAW,
    SCHEME_UNCODED,
    SequenceSpec,
    build_pair,
    random_sequence,
    read_records_csv,
    run_pair,
    summarize_records,
    sweep_L,
    sweep_theta,
    write_records_csv,
)
from qec422.noise import (
    NoiseParams,
    derive_seed,
    insert_coherent_rotation,
    noisy_counts,
    noisy_vector,
)
from qec422.simulator import OutcomeDistribution, ideal_distribution

PARAMS = NoiseParams(eps1=4e-3, eps2=0.16, p_meas=0.02)


def _strip_stamp(rec):
    return dataclasses.replace(rec, timestamp="")


class TestSequences:
    def test_deterministic_in_seed(self):
        spec = SequenceSpec(GateSetId.FULL, 50, 7)
        assert random_sequence(spec) == random_sequence(spec)
        other = SequenceSpec(GateSetId.FULL, 50, 8)
        assert random_sequence(spec) != random_sequence(other)

    def test_draws_only_from_the_set(self):
        seq = random_sequence(SequenceSpec(GateSetId.REDUCED, 200, 3))
        assert len(seq) == 200
        assert set(seq) <= set(GateSetId.REDUCED.gates)

    def test_single_gate_set_is_constant(self):
        seq = random_sequence(SequenceSpec(GateSetId.SINGLE_HHSWAP, 9, 1))
        assert seq == [LogicalGate.HHSWAP] * 9

    def test_length_bounds(self):
        with pytest.raises(ValueError):
            SequenceSpec(GateSetId.FULL, 0, 1)
        with pytest.raises(ValueError):
            SequenceSpec(GateSetId.FULL, 1001, 1)
        SequenceSpec(GateSetId.FULL, 1000, 1)

    def test_gate_set_from_str(self):
        assert GateSetId.from_str("reduced") is GateSetId.REDUCED
        with pytest.raises(ValueError):
            GateSetId.from_str("everything")


class TestBuildPair:
    def test_shapes(self):
        seq = [LogicalGate.HHSWAP, LogicalGate.X0]
        unc, cod = build_pair(seq)
        assert (unc.n_qubits, unc.measured) == (2, [0, 1])
        assert (cod.n_qubits, cod.measured) == (4, [0, 1, 2, 3])

    def test_coded_side_starts_with_encoder(self):
        enc = build_encoder(LogicalStateLabel.L00, EncoderVariant.NON_FAULT_TOLERANT)
        _, cod = build_pair([LogicalGate.Z0])
        assert list(cod.gates[:len(enc.gates)]) == list(enc.gates)

    def test_uncoded_side_has_no_encoder(self):
        unc, _ = build_pair([LogicalGate.Z0])
        assert all(g.kind is GateKind.Z for g in unc.gates)

    def test_blocks_are_not_checked_again(self, monkeypatch):
        """build_pair trusts the blocks checked at import: only the encoder's
        Circuit runs __post_init__, and the pair equals checked Circuits.
        A user-built Circuit with the coded gates on two qubits still raises."""
        sequence = random_sequence(SequenceSpec(GateSetId.FULL, 100, 2))
        checks = []
        check = Circuit.__post_init__
        monkeypatch.setattr(Circuit, "__post_init__", lambda self: checks.append(self) or check(self))
        unc, cod = build_pair(sequence)
        assert len(checks) == 1 and len(cod.gates) > 200
        assert unc == Circuit(2, unc.gates, [0, 1]) and cod == Circuit(4, cod.gates, [0, 1, 2, 3])
        with pytest.raises(CircuitError, match="targets qubit 2 on a 2-qubit register"):
            Circuit(2, cod.gates, [0, 1])


class TestRunPair:
    def test_three_records(self):
        seq = random_sequence(SequenceSpec(GateSetId.REDUCED, 4, 11))
        recs = run_pair(seq, PARAMS, 2048, 11, gate_set="reduced")
        assert [r.scheme for r in recs] == [SCHEME_UNCODED, SCHEME_CODED_RAW,
                                            SCHEME_CODED_PS]
        unc, raw, ps = recs
        assert unc.experiment_id == "reduced-L4-s11-uncoded"
        assert (unc.gamma, unc.r) == (2048, 1.0)
        assert (raw.gamma, raw.r) == (2048, 1.0)
        assert 0 < ps.gamma < 2048 and ps.r == ps.gamma / 2048
        # the code carries two logical qubits in twice the physical space
        assert raw.output_dimension == 2 * unc.output_dimension
        assert raw.D_decoded == ps.D_decoded
        assert unc.D_decoded == unc.D
        for r in recs:
            assert (r.L, r.seed, r.shots) == (4, 11, 2048)
            assert 0.0 <= r.D <= 1.0

    def test_deterministic(self):
        seq = random_sequence(SequenceSpec(GateSetId.FULL, 6, 2))
        a = run_pair(seq, PARAMS, 1024, 5)
        b = run_pair(seq, PARAMS, 1024, 5)
        assert [_strip_stamp(r) for r in a] == [_strip_stamp(r) for r in b]

    def test_post_selection_helps_at_strong_two_qubit_noise(self):
        seq = random_sequence(SequenceSpec(GateSetId.REDUCED, 30, 19))
        unc, raw, ps = run_pair(seq, PARAMS, 8192, 19)
        assert ps.D < raw.D
        assert ps.D < unc.D

    def test_full_retention_when_quiet(self):
        quiet = NoiseParams()
        seq = [LogicalGate.X1]
        unc, raw, ps = run_pair(seq, quiet, 512, 0)
        assert ps.r == 1.0 and ps.gamma == 512
        # uncoded output is a single deterministic string; the coded one
        # spreads over two strings, so D picks up only shot noise there
        assert unc.D == 0.0
        assert ps.D < 0.07

    def test_worst_case_only_when_nothing_is_retained(self):
        """Noiseless HHSWAP, RZ just short of pi: r = sin^2(0.005) rounds to
        gamma = 0 on both paths.  The exact path still holds the retained
        distribution, which is the ideal one, while no sampled shot
        survives; at pi nothing is retained on either path."""
        sequence = random_sequence(SequenceSpec(GateSetId.SINGLE_HHSWAP, 1, 0))
        exact = run_pair(sequence, NoiseParams(theta=math.pi - 0.01), 8192, 0, analytic_xi=True)[2]
        assert exact.gamma == 0 and abs(exact.r - math.sin(0.005) ** 2) < 1e-12
        assert exact.D < 1e-12 and exact.D_decoded < 1e-12
        sampled = run_pair(sequence, NoiseParams(theta=math.pi - 0.01), 8192, 0)[2]
        assert (sampled.gamma, sampled.r, sampled.D, sampled.D_decoded) == (0, 0.0, 1.0, 1.0)
        for analytic in (False, True):
            ps = run_pair(sequence, NoiseParams(theta=math.pi), 8192, 0, analytic_xi=analytic)[2]
            assert (ps.gamma, ps.r, ps.D, ps.D_decoded) == (0, 0.0, 1.0, 1.0), analytic


def _string_pipeline(sequence, params, shots, seed, analytic):
    """(scheme, gamma, r, D, D_decoded, output_dimension) of the three rows,
    through the public string-keyed API: per-path post-selection, a
    distribution per count set, and a second simulation of each ideal."""
    unc, cod = build_pair(sequence)
    ideal_u, ideal_c = ideal_distribution(unc), ideal_distribution(cod)
    decoded_ideal = decode_distribution(ideal_c)
    if params.theta != 0.0:
        cod = insert_coherent_rotation(cod, params.theta)
    if analytic:
        dist_u = OutcomeDistribution(noisy_vector(unc, params))
        dist_c = OutcomeDistribution(noisy_vector(cod, params))
        retained, r = post_select_distribution(dist_c)
        gamma = round(r * shots)
    else:
        counts_u = noisy_counts(unc, params, shots, derive_seed(seed, "uncoded"))
        counts_c = noisy_counts(cod, params, shots, derive_seed(seed, "coded"))
        dist_u, dist_c = counts_u.to_distribution(), counts_c.to_distribution()
        ps = post_select(counts_c)
        r, gamma = ps.accepted / counts_c.total, ps.accepted
        retained = ps.retained.to_distribution() if gamma else None
    D_u = trace_distance(ideal_u, dist_u)
    D_raw = trace_distance(ideal_c, dist_c)
    if retained is None:
        D_ps = D_dec = 1.0
    else:
        D_ps = trace_distance(ideal_c, retained)
        D_dec = trace_distance(decoded_ideal, decode_distribution(retained))
    return [(SCHEME_UNCODED, shots, 1.0, D_u, D_u, ideal_u.support_size),
            (SCHEME_CODED_RAW, shots, 1.0, D_raw, D_dec, ideal_c.support_size),
            (SCHEME_CODED_PS, gamma, r, D_ps, D_dec, ideal_c.support_size)]


class TestOnePipeline:
    """run_pair's one vector pipeline against the string-keyed pipeline."""

    @pytest.mark.parametrize("analytic", [False, True])
    @pytest.mark.parametrize("shots", [777, 8192])
    def test_records_equal_the_string_pipeline(self, analytic, shots):
        noises = (NoiseParams(), PARAMS, dataclasses.replace(PARAMS, p_prep=0.01))
        cases = itertools.product((GateSetId.FULL, GateSetId.REDUCED), (0.0, 0.9, math.pi), noises)
        for k, (gate_set, theta, params) in enumerate(cases):
            params = dataclasses.replace(params, theta=theta)
            seed = derive_seed(shots, k)
            sequence = random_sequence(SequenceSpec(gate_set, 1 + k % 23, seed))
            recs = run_pair(sequence, params, shots, seed, gate_set.value, analytic)
            got = [(r.scheme, r.gamma, r.r, r.D, r.D_decoded, r.output_dimension) for r in recs]
            assert got == _string_pipeline(sequence, params, shots, seed, analytic), (k, params)

    @pytest.mark.parametrize("analytic", [False, True])
    @pytest.mark.parametrize("length", [20, 50, 100])
    def test_sweep_lengths_equal_the_string_pipeline(self, analytic, length):
        """The criterion-5 sweep's lengths on the reduced set, with and
        without preparation flips."""
        for k, params in enumerate((PARAMS, dataclasses.replace(PARAMS, p_prep=0.01))):
            seed = derive_seed(length, k)
            sequence = random_sequence(SequenceSpec(GateSetId.REDUCED, length, seed))
            recs = run_pair(sequence, params, 8192, seed, "reduced", analytic)
            got = [(r.scheme, r.gamma, r.r, r.D, r.D_decoded, r.output_dimension) for r in recs]
            assert got == _string_pipeline(sequence, params, 8192, seed, analytic), (k, params)

    @pytest.mark.parametrize("analytic", [False, True])
    def test_each_circuit_simulated_once(self, monkeypatch, analytic):
        """No statevector runs, at any theta: each ideal circuit is
        Clifford, and its frame gives both its ideal marginal and the
        engine's base; the rotated coded side pulls its RZ down into the
        start frame's spectrum, with or without a channel firing ahead of
        it."""
        calls = []
        original = simulator._evolve
        monkeypatch.setattr(simulator, "_evolve", lambda amp, gates, n: calls.append(len(gates))
                            or original(amp, gates, n))
        sequence = random_sequence(SequenceSpec(GateSetId.FULL, 12, 4))
        for params in (PARAMS, dataclasses.replace(PARAMS, p_prep=0.01), NoiseParams(p_meas=0.02, xi=0.1)):
            for theta in (0.0, 0.9, math.pi):
                run_pair(sequence, dataclasses.replace(params, theta=theta), 1000, 4,
                         analytic_xi=analytic)
                assert calls == [], (params, theta)

    def test_decoded_coded_ideal_equals_uncoded_exactly(self):
        """Criterion 8's suite with no tolerance: every Clifford ideal
        marginal is exact, so decoding the coded one gives the uncoded one
        bit for bit, and the worst distance is 0."""
        worst = 0.0
        for i in range(200):
            seq = random_sequence(SequenceSpec(GateSetId.FULL, 1 + i % 8, derive_seed(8, i)))
            unc, cod = build_pair(seq)
            decoded = decode_distribution(ideal_distribution(cod))
            assert np.array_equal(decoded.vec, ideal_distribution(unc).vec), i
            worst = max(worst, trace_distance(decoded, ideal_distribution(unc)))
        assert worst == 0.0


class TestSweeps:
    def test_sweep_is_deterministic_and_ordered(self):
        a = sweep_L(GateSetId.REDUCED, [2, 5], PARAMS, shots=512,
                    seeds_per_length=2, master_seed=1)
        b = sweep_L(GateSetId.REDUCED, [2, 5], PARAMS, shots=512,
                    seeds_per_length=2, master_seed=1)
        assert [_strip_stamp(r) for r in a] == [_strip_stamp(r) for r in b]
        assert [r.L for r in a] == [2] * 6 + [5] * 6
        # distinct slots draw distinct seeds
        assert len({r.seed for r in a}) == 4

    def test_uncoded_error_grows_with_length(self):
        recs = sweep_L(GateSetId.REDUCED, [5, 25, 50], PARAMS, shots=2048,
                       seeds_per_length=8, master_seed=3)
        means = {row["L"]: row["mean_D"] for row in summarize_records(recs)
                 if row["scheme"] == SCHEME_UNCODED}
        assert means[5] < means[25] < means[50]

    def test_summarize_counts(self):
        recs = sweep_L(GateSetId.REDUCED, [2], PARAMS, shots=256,
                       seeds_per_length=3, master_seed=9)
        rows = summarize_records(recs)
        assert len(rows) == 3
        assert all(row["n"] == 3 for row in rows)

    @pytest.mark.parametrize("lengths", [[1, 1], (2, 5, 2)])
    def test_repeated_length_refused_before_any_run(self, monkeypatch, lengths):
        """A repeated length used to repeat its rows, experiment ids and all."""
        calls = []
        monkeypatch.setattr(experiments, "run_pairs", lambda *a, **k: calls.append(a) or [])
        with pytest.raises(CircuitError, match=f"^sequence length {lengths[0]} given twice$"):
            sweep_L(GateSetId.REDUCED, lengths, PARAMS, shots=64)
        assert calls == []

    @pytest.mark.parametrize("sweep, message", [
        (lambda: sweep_L(GateSetId.REDUCED, [1000, 1001], NoiseParams(), 64, 3),
         r"^sequence length must be in \[1, 1000\], got 1001$"),
        (lambda: sweep_theta([0.3, math.nan], NoiseParams(), shots=64),
         "^theta must be a finite real number, got nan$"),
    ], ids=["length", "theta"])
    def test_bad_slot_refused_before_any_run(self, monkeypatch, sweep, message):
        """A bad length or angle used to be refused only once every slot
        ahead of it had run."""
        calls = []
        monkeypatch.setattr(experiments, "run_pairs", lambda *a, **k: calls.append(a) or [])
        with pytest.raises(CircuitError, match=message):
            sweep()
        assert calls == []

    def test_theta_sweep_tracks_cosine_law(self):
        import math
        thetas = [0.0, math.pi / 3, math.pi / 2]
        recs = sweep_theta(thetas, NoiseParams(), shots=20000, master_seed=4)
        ps = [r for r in recs if r.scheme == SCHEME_CODED_PS]
        assert [r.theta for r in ps] == thetas
        for rec in ps:
            want = math.cos(rec.theta / 2) ** 2
            assert abs(rec.r - want) < 0.02


def _rows(records):
    """CSV rows without the timestamp column, as written."""
    return [rec.to_csv_row()[:-1] for rec in records]


def _one_pair_sweep_L(gate_set, lengths, params, shots, seeds_per_length, master_seed, analytic):
    """sweep_L as the concatenation of one-pair run_pair calls."""
    out = []
    for L in lengths:
        for k in range(seeds_per_length):
            spec = SequenceSpec(gate_set, L, derive_seed(master_seed, gate_set.value, L, k))
            out += run_pair(random_sequence(spec), params, shots, spec.seed, gate_set.value, analytic)
    return out


def _one_pair_sweep_theta(thetas, params, gate_set, length, shots, master_seed):
    """sweep_theta as the concatenation of one-pair run_pair calls."""
    out = []
    for i, theta in enumerate(thetas):
        spec = SequenceSpec(gate_set, length, derive_seed(master_seed, "theta", i))
        out += run_pair(random_sequence(spec), dataclasses.replace(params, theta=theta), shots,
                        spec.seed, gate_set.value)
    return out


class TestBatch:
    """sweep_L and sweep_theta run all their pairs through one batched
    pipeline; every CSV byte must be the one-pair runs' bytes."""

    @staticmethod
    def _config(k: int) -> tuple[str, NoiseParams, bool, int]:
        """(case, params, analytic_xi, shots) of configuration k.  k cycles
        through the cases a batch could get wrong; the rest is random."""
        rng = np.random.default_rng([31, k])
        eps1, eps2, p_meas, p_prep = (float(x) * (rng.random() < 0.75)
                                      for x in rng.uniform(0.0, (0.05, 0.3, 0.1, 0.1)))
        xi, theta = float(rng.uniform(0.0, 0.3)) * (rng.random() < 0.5), 0.0
        if rng.random() < 0.5:
            theta = float(rng.choice([0.3, 0.9, math.pi, rng.uniform(-4.0, 4.0)]))
        case = ("rotated exact", "silent", "equal flips", "mixed firing", "random")[k % 5]
        analytic, shots = bool(rng.random() < 0.5), int(rng.choice([1, 777, 8192]))
        if case == "rotated exact":  # theta != 0, exact, a single shot, xi > 0
            theta, analytic, shots, xi = 0.3 + k % 7 / 10, True, 1, 0.05 + xi
        elif case == "silent":  # no site fires anywhere
            eps1 = eps2 = p_meas = p_prep = 0.0
        elif case == "equal flips":  # a prep flip and a read-out flip merge into one count-2 site
            p_prep = p_meas = 0.01 + p_meas
            theta = 0.0
        elif case == "mixed firing":  # only eps2: no site fires on X0, X1, Z0 or Z1 uncoded
            eps1 = p_meas = p_prep = xi = theta = 0.0
            eps2 = 0.02 + eps2
        return case, NoiseParams(eps1=eps1, eps2=eps2, p_meas=p_meas, p_prep=p_prep,
                                 theta=theta, xi=xi), analytic, shots

    def test_sweeps_equal_one_pair_runs(self):
        """300 random configurations, one in five a sweep_theta."""
        cases = Counter()
        for k in range(300):
            case, params, analytic, shots = self._config(k)
            rng = np.random.default_rng([32, k])
            gate_set = (GateSetId.REDUCED if case == "mixed firing"
                        else list(GateSetId)[k % 3])
            seed = int(rng.integers(0, 1000))
            if k % 4 == 3 and case != "mixed firing":
                thetas = rng.uniform(-4.0, 4.0, 1 + k % 4).tolist()
                length = int(rng.integers(1, 25))
                got = sweep_theta(thetas, params, gate_set, length, shots, seed)
                want = _one_pair_sweep_theta(thetas, params, gate_set, length, shots, seed)
                cases["theta sweep"] += 1
            else:
                lengths = [1] if case == "mixed firing" else sorted(
                    set(rng.integers(1, 40, 1 + k % 3).tolist()))
                spl = 2 + k % 4 if case == "mixed firing" else 1 + k % 3
                got = sweep_L(gate_set, lengths, params, shots, spl, seed, analytic)
                want = _one_pair_sweep_L(gate_set, lengths, params, shots, spl, seed, analytic)
            assert _rows(got) == _rows(want), (k, case, params)
            cases[case] += 1
        assert min(cases.values()) >= 20, cases

    def test_firing_and_silent_rows_share_a_batch(self, monkeypatch):
        """With eps2 only, a reduced-set L = 1 uncoded circuit of one
        one-qubit gate has no firing site, while CZZZ's CZ and every coded
        encoder do: 'no site fires' must be decided per row.  With eps1
        only, every such circuit fires."""
        calls = []
        original = noise._clifford_outcomes
        monkeypatch.setattr(experiments, "_clifford_outcomes", lambda items: calls.append(
            [bool((np.array(f) != 1.0) @ e.any(axis=1)) for _, e, f, _ in items]) or original(items))
        for params, silent in ((NoiseParams(eps2=0.1), True), (NoiseParams(eps1=0.1), False)):
            calls.clear()
            got = sweep_L(GateSetId.REDUCED, [1], params, 4096, 30, 5)
            assert _rows(got) == _rows(_one_pair_sweep_L(GateSetId.REDUCED, [1], params, 4096,
                                                         30, 5, False))
            assert (not all(calls[0]) and any(calls[0])) is silent, params
            assert all(calls[1])

    def test_equal_prep_and_read_out_flips_merge(self):
        """p_prep == p_meas: a prep flip whose mask is a read-out flip's
        has the same exponent and factor, in the batch as in one call."""
        params = NoiseParams(eps1=0.01, eps2=0.05, p_meas=0.02, p_prep=0.02, xi=0.01)
        c = Circuit(2, [], [0, 1])
        _, exponents, factors, _ = noise._suffix_item(c, params, simulator.FlipMaskTable(c))
        assert exponents.tolist() == [[0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 1, 2], [0, 1, 1, 2]]
        assert factors[2] == factors[3] == 0.96
        for analytic in (False, True):
            got = sweep_L(GateSetId.REDUCED, [1, 3, 20], params, 8192, 4, 2, analytic)
            want = _one_pair_sweep_L(GateSetId.REDUCED, [1, 3, 20], params, 8192, 4, 2, analytic)
            assert _rows(got) == _rows(want)

    def test_blocks_equal_one_pair_runs(self, monkeypatch):
        """A sweep whose stacks pass 2^16 entries runs in several blocks."""
        calls = []
        original = noise._clifford_outcomes
        monkeypatch.setattr(experiments, "_clifford_outcomes",
                            lambda items: calls.append(len(items)) or original(items))
        params = NoiseParams(eps1=4e-3, eps2=0.16, p_meas=0.02, p_prep=0.01)
        got = sweep_L(GateSetId.FULL, [5, 50], params, 1000, 600, 3)
        assert len(calls) >= 6 and sum(calls) == 2 * 1200
        assert _rows(got) == _rows(_one_pair_sweep_L(GateSetId.FULL, [5, 50], params, 1000,
                                                     600, 3, False))

    def test_noisy_vector_is_its_batched_row(self, random_clifford):
        """noisy_vector is the one-item call: each result equals its row of
        one suffix over every circuit of the same width, bit for bit."""
        by_width: dict = {}
        for seed in range(60):
            c = random_clifford(seed, n_qubits=2 + seed % 3, n_extra=seed % 25, measure_all=True)
            if seed % 4 == 1:
                c = insert_coherent_rotation(c.with_gates([GateInstance(GateKind.H, (0,))]
                                                          + c.gates), 0.4 + seed / 50)
            params = self._config(seed)[1]
            by_width.setdefault(len(c.measured), []).append((c, params))
        for pairs in by_width.values():
            rows = noise._clifford_outcomes([noise._suffix_item(c, p, simulator.FlipMaskTable(c))
                                             for c, p in pairs])
            for (c, p), row in zip(pairs, rows):
                assert np.array_equal(noise.noisy_vector(c, p), row)

    def test_memory_stays_bounded(self):
        """Each pair keeps O(2^m) data, never its circuits or tables, and
        the stacks are cut at 2^16 entries: ten times the pairs of the
        longest sequences stays within a few MB of the same peak."""
        peaks = []
        for seeds in (20, 20, 200):
            tracemalloc.start()
            sweep_L(GateSetId.FULL, [MAX_SEQUENCE_LENGTH], PARAMS, 64, seeds)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[2] - peaks[1] < 4e6, peaks



def _fresh_tables(monkeypatch) -> tuple:
    """Empty block-step tables in place of the module's, for this test only."""
    sides = tuple(experiments._BlockSteps(s.tail, s.block) for s in experiments._SIDES)
    monkeypatch.setattr(experiments, "_SIDES", sides)
    return sides


class TestBlockSteps:
    """run_pairs walks each sequence's blocks in a cached (frame, block)
    table; every frame, base and exponent must be the one sweep of the
    whole circuit gives, exactly."""

    @staticmethod
    def _swept(sequence, params):
        """Per side, (circuit, FlipMaskTable, suffix item) the per-circuit
        way: build_pair, the rotation on the coded side when theta != 0,
        one sweep of each whole circuit."""
        out = []
        for circuit, rotate in zip(build_pair(sequence), (False, params.theta != 0.0)):
            if rotate:
                circuit = insert_coherent_rotation(circuit, params.theta)
            table = simulator.FlipMaskTable(circuit)
            out.append((circuit, table, noise._suffix_item(circuit, params, table)))
        return out

    def test_walk_equals_the_whole_circuit_sweep(self, monkeypatch):
        """Random sequences of all three gate sets at L = 1, 1000 and in
        between, theta = 0 and not, p_prep = 0 and not (so prep flips
        fold ahead of the coded RZ), in more pairs than one block holds."""
        rng = np.random.default_rng(31)
        runs = []
        for k in range(experiments._BLOCK_PAIRS + 25):
            gate_set = list(GateSetId)[k % 3]
            L = 1 if k % 7 == 0 else MAX_SEQUENCE_LENGTH if k % 53 == 1 else int(rng.integers(2, 40))
            params = NoiseParams(eps1=0.004, eps2=0.05, p_meas=0.02, p_prep=0.01 * (k % 2),
                                 theta=(0.0, 0.9, -2.3)[k % 5 % 3], xi=0.01 * (k % 4 == 3))
            runs.append((random_sequence(SequenceSpec(gate_set, L, k)), params, k))
        items = {2: [], 4: []}
        original = noise._clifford_outcomes
        monkeypatch.setattr(experiments, "_clifford_outcomes", lambda block: items[
            len(block[0][0]).bit_length() - 1].extend(block) or original(block))
        sides = _fresh_tables(monkeypatch)
        records = experiments.run_pairs(runs, 256, analytic_xi=True)
        assert len(records) == 3 * len(runs)
        assert len(items[2]) == len(items[4]) == len(runs)
        for i, (sequence, params, _) in enumerate(runs):
            for side, got, (circuit, table, want) in zip(sides, (items[2][i], items[4][i]),
                                                       self._swept(sequence, params)):
                assert np.array_equal(got[0], want[0]), (i, side.block)
                assert got[1].dtype == want[1].dtype and np.array_equal(got[1], want[1])
                assert (got[2], got[3]) == (want[2], want[3])
                f, _ = side.walk(sequence)
                blocks = circuit.gates[len(circuit.gates) - sum(
                    len(experiments._gate_blocks(g)[side.block]) for g in sequence):]
                bare = simulator.FlipMaskTable(circuit.with_gates(blocks)).start
                assert side.frames[f] == (tuple(bare[1]), tuple(bare[2]), bare[3])
                ideal = simulator.pruned(simulator.spectrum_marginal(
                    simulator.frame_spectrum(circuit, table.start)))
                assert np.array_equal(side.tail_of(f)[0], ideal)

    def test_a_cold_table_gives_the_warm_tables_records(self, monkeypatch):
        """The table's entry order depends on what ran before; the records
        must not.  A warm-up on other sequences numbers the entries
        differently from a cold run."""
        params = NoiseParams(eps1=4e-3, eps2=0.16, p_meas=0.02, p_prep=0.01, xi=0.01)
        for gate_set, theta, analytic in ((GateSetId.FULL, 0.0, False),
                                          (GateSetId.FULL, 0.9, True),
                                          (GateSetId.REDUCED, 0.0, True)):
            run = dataclasses.replace(params, theta=theta)
            warm = _fresh_tables(monkeypatch)
            sweep_L(GateSetId.FULL, [3, 40], params, 64, 5, 99)
            got_warm = sweep_L(gate_set, [1, 7, 60], run, 4096, 3, 5, analytic)
            cold = _fresh_tables(monkeypatch)
            got_cold = sweep_L(gate_set, [1, 7, 60], run, 4096, 3, 5, analytic)
            assert _rows(got_cold) == _rows(got_warm)
            assert [s.frames for s in cold] != [s.frames for s in warm]

    def test_table_is_bounded_by_frames_times_gates(self, monkeypatch):
        """A full-set L = 1000 sweep reaches 12 uncoded and 24 coded frames,
        at most 216 entries, and more pairs add none."""
        sides = _fresh_tables(monkeypatch)
        sizes = []
        for seeds in (2, 20):
            sweep_L(GateSetId.FULL, [MAX_SEQUENCE_LENGTH], PARAMS, 64, seeds)
            sizes.append([(len(s.frames), len(s.increments)) for s in sides])
            assert all(len(s.tails) <= len(s.frames) for s in sides)
        assert sizes[0] == sizes[1]
        assert sum(n for _, n in sizes[1]) <= 216
        assert all(n <= 6 * frames for frames, n in sizes[1])


class TestCsv:
    def test_round_trip(self, tmp_path):
        recs = sweep_L(GateSetId.FULL, [1, 3], PARAMS, shots=256, master_seed=2)
        path = tmp_path / "runs.csv"
        write_records_csv(path, recs)
        assert read_records_csv(path) == recs

    def test_row_is_each_field_by_its_annotation(self):
        """repr for a float field, str otherwise, in field order."""
        for rec in sweep_L(GateSetId.FULL, [1, 4], dataclasses.replace(PARAMS, theta=0.9),
                           shots=100, master_seed=6):
            assert rec.to_csv_row() == [(repr if f.type == "float" else str)(getattr(rec, f.name))
                                        for f in dataclasses.fields(rec)]

    def test_second_write_replaces_the_file(self, tmp_path):
        recs = sweep_L(GateSetId.FULL, [2], PARAMS, shots=128, master_seed=5)
        path = tmp_path / "runs.csv"
        write_records_csv(path, recs + recs)
        write_records_csv(path, recs)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(recs)
        assert read_records_csv(path) == recs

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(NoiseParams)])
    @pytest.mark.parametrize("value", [True, 1, np.int64(0), np.float32(0.01), np.float64(0.2)],
                             ids=repr)
    def test_numeric_noise_values_round_trip(self, tmp_path, field, value):
        """Each is stored as a float, so the CSV holds a float literal that reads back."""
        params = NoiseParams(**{field: value})
        assert type(getattr(params, field)) is float and getattr(params, field) == float(value)
        recs = sweep_L(GateSetId.REDUCED, [1], params, shots=16)
        path = tmp_path / "runs.csv"
        write_records_csv(path, recs)
        assert read_records_csv(path) == recs

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(NoiseParams)])
    @pytest.mark.parametrize("value", [0.3 + 0j, 0.3 + 0.5j, "0.1", float("nan")], ids=repr)
    def test_non_real_noise_values_refused(self, field, value):
        """A CircuitError, where complex and str rates used to raise TypeError or pass."""
        with pytest.raises(CircuitError, match=f"{field} must be a finite real number"):
            NoiseParams(**{field: value})

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_records_csv(path)
