"""Acceptance suite: nine numbered criteria, one test (and one PASS line) each.

Every expected number here is either exact arithmetic or was re-derived
from an independent computation before being frozen; Monte-Carlo checks
state their tolerance as 3 sigma of the binomial at the stated shot
count.  Runtime ceilings are asserted so a regression into a slow path
fails loudly instead of quietly eating minutes.
"""

import math
import time

import numpy as np

from qec422.analytics import (
    measurement_error_coded_ps,
    measurement_error_uncoded,
    predict_coded_ps,
    predict_uncoded,
    trace_distance,
)
from qec422.circuits import (
    Circuit,
    GateInstance,
    GateKind,
    parse_circuit,
    serialize_circuit,
)
from qec422.code import (
    EncoderVariant,
    LogicalGate,
    LogicalStateLabel,
    build_encoder,
    codeword_distribution,
    decode,
    decode_distribution,
    post_select,
    post_select_distribution,
)
from qec422.experiments import (
    ExperimentRecord,
    GateSetId,
    SequenceSpec,
    build_pair,
    random_sequence,
    read_records_csv,
    run_pair,
    summarize_records,
    sweep_L,
    write_records_csv,
)
from qec422.ftcheck import FaultClassification, verify_single_faults
from qec422.noise import NoiseParams, derive_seed, noisy_counts, totally_mixed
from qec422.simulator import ideal_distribution

EXACT = 1e-12


def test_criterion_01_worst_case_bounds():
    """Uniform ideals of support 1/2/4 vs the 4-outcome uniform read-out,
    then the 16-outcome coded analog under post-selection."""
    t0 = time.perf_counter()
    mixed4 = totally_mixed(4)
    assert abs(trace_distance({"00": 1.0}, mixed4) - 0.75) < EXACT
    assert abs(trace_distance({"00": 0.5, "11": 0.5}, mixed4) - 0.5) < EXACT
    assert trace_distance(mixed4, mixed4) < EXACT

    retained, r = post_select_distribution(totally_mixed(16))
    assert abs(r - 0.5) < EXACT
    ideal = codeword_distribution(LogicalStateLabel.L00)
    assert abs(trace_distance(ideal, retained) - 0.75) < EXACT

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\ncriterion 1 PASS: worst-case bounds 0.75 / 0.5 / 0 and coded 0.75 exact "
          f"({elapsed:.2f}s)")


def test_criterion_02_encoder_residual_floor():
    """The bare encoder leaks exactly eight two-qubit faults past parity
    post-selection, total weight 8 eps2 / 15; a million-shot Monte-Carlo
    run lands on that floor within 3 sigma."""
    t0 = time.perf_counter()
    enc = build_encoder(LogicalStateLabel.L00, EncoderVariant.NON_FAULT_TOLERANT)
    report = verify_single_faults(enc, "postselect")
    bad = report.undetected_sites()
    assert len(bad) == 8
    by_gate = {}
    for s in bad:
        by_gate.setdefault(s.gate_index, set()).add(s.pauli)
    assert by_gate == {2: {"IX", "IY", "ZX", "ZY"},
                        3: {"XX", "XY", "YX", "YY"}}
    assert report.undetected_fraction_text() == "8/15 * eps2"

    eps2, shots = 0.01, 10**6
    want = report.undetected_fraction(0.0, eps2)
    assert abs(want - 8 * eps2 / 15) < EXACT
    counts = noisy_counts(enc, NoiseParams(eps2=eps2), shots, 42)
    ps = post_select(counts)
    wrong = sum(n for s, n in ps.retained.counts.items() if decode(s) != "00")
    # 3 sigma of a binomial at the floor rate: 2.2e-4 for these numbers
    sigma3 = 3 * math.sqrt(want * (1 - want) / shots)
    assert sigma3 < 2.2e-4
    assert abs(wrong / shots - want) < 2.2e-4

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\ncriterion 2 PASS: 8 undetected sites, floor 8/15*eps2, "
          f"MC dev {wrong / shots - want:+.1e} within 2.2e-4 ({elapsed:.2f}s)")


def test_criterion_03_checked_encoder_fault_tolerant():
    t0 = time.perf_counter()
    enc = build_encoder(LogicalStateLabel.L00, EncoderVariant.ANCILLA_CHECKED)
    report = verify_single_faults(enc, "postselect+ancilla", include_preparation=True)
    assert report.fault_tolerant
    assert report.tally()[FaultClassification.UNDETECTED_LOGICAL_ERROR] == 0

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\ncriterion 3 PASS: ancilla-checked encoder has 0 undetected sites "
          f"({elapsed:.2f}s)")


def test_criterion_04_measurement_error_laws():
    """Read-out-flip-only runs at P_m = 0.02: the uncoded pair of bits is
    wrong with probability 2P - P^2, the post-selected coded block decodes
    wrong with probability 6 P^2 (1-P)^2 (the quadruple flip maps the
    codeword to its partner and decodes clean)."""
    t0 = time.perf_counter()
    P, shots, seed = 0.02, 10**6, 7
    params = NoiseParams(p_meas=P)

    unc = Circuit(2, [], [0, 1])
    cu = noisy_counts(unc, params, shots, derive_seed(seed, "m-unc"))
    wrong_u = 1.0 - cu.counts.get("00", 0) / shots
    want_u = measurement_error_uncoded(P)
    assert abs(want_u - (2 * P - P * P)) < EXACT
    sig_u = math.sqrt(want_u * (1 - want_u) / shots)
    assert abs(wrong_u - want_u) < 3 * sig_u

    cod = Circuit(4, [], [0, 1, 2, 3])
    cc = noisy_counts(cod, params, shots, derive_seed(seed, "m-cod"))
    ps = post_select(cc)
    wrong_c = sum(n for s, n in ps.retained.counts.items() if decode(s) != "00") / shots
    want_c = measurement_error_coded_ps(P)
    assert abs(want_c - 6 * P**2 * (1 - P) ** 2) < EXACT
    sig_c = math.sqrt(want_c * (1 - want_c) / shots)
    assert abs(wrong_c - want_c) < 3 * sig_c

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\ncriterion 4 PASS: uncoded dev {wrong_u - want_u:+.1e}, "
          f"coded dev {wrong_c - want_c:+.1e}, both within 3 sigma ({elapsed:.2f}s)")


def test_criterion_05_fault_tolerance_criterion_regime():
    """Reduced-set sweep at the strong-two-qubit operating point
    (eps2 = 40 eps1): the coded, post-selected scheme beats the uncoded
    one at every measured length, and the closed forms say it keeps
    winning for every supported length from 10 up."""
    t0 = time.perf_counter()
    e1, e2, pm = 4e-3, 0.16, 0.02
    recs = sweep_L(GateSetId.REDUCED, [20, 50, 100],
                   NoiseParams(eps1=e1, eps2=e2, p_meas=pm),
                   shots=8192, seeds_per_length=20, master_seed=0)
    means = {(row["L"], row["scheme"]): row["mean_D"]
             for row in summarize_records(recs)}
    for L in (20, 50, 100):
        assert means[(L, "coded_ps")] < means[(L, "uncoded")], f"L={L}"

    for L in range(10, 1001):
        assert predict_coded_ps(L, e1, e2, pm) < predict_uncoded(L, e1, e2, pm)

    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    gaps = ", ".join(
        f"L={L}: {means[(L, 'coded_ps')]:.3f} < {means[(L, 'uncoded')]:.3f}"
        for L in (20, 50, 100)
    )
    print(f"\ncriterion 5 PASS: {gaps}; predictions ordered for all L in 10..1000 "
          f"({elapsed:.2f}s)")


def test_criterion_06_output_dimension_anomaly():
    """Depolarizing the uncoded side toward uniform costs nothing when the
    ideal output is already uniform (odd HHSWAP count) and the full 0.75
    when it is a single string (even count); mixing is linear in xi."""
    t0 = time.perf_counter()

    def unc_D(length: int, xi: float) -> float:
        seq = [LogicalGate.HHSWAP] * length
        recs = run_pair(seq, NoiseParams(xi=xi), 1024, 0, analytic_xi=True)
        return recs[0].D

    assert abs(unc_D(2, 1.0) - 0.75) < EXACT
    assert unc_D(3, 1.0) < EXACT
    assert abs(unc_D(2, 0.5) - 0.375) < EXACT
    assert unc_D(3, 0.5) < EXACT

    grid = [unc_D(2, xi) for xi in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert all(b > a for a, b in zip(grid, grid[1:]))

    elapsed = time.perf_counter() - t0
    print(f"\ncriterion 6 PASS: even-L D = 0.75 xi, odd-L D = 0, monotone grid "
          f"({elapsed:.2f}s)")


def test_criterion_07_coherent_insertion():
    """RZ(theta) slipped in after the encoder's Hadamard: retention follows
    cos^2(theta/2), and whatever survives post-selection is still the ideal
    codeword distribution up to sampling noise."""
    t0 = time.perf_counter()
    shots, seed = 10**5, 5
    seq = [LogicalGate.HHSWAP]
    _, cod = build_pair(seq)
    ideal_c = ideal_distribution(cod)

    for theta in (0.0, math.pi / 2, math.pi):
        recs = run_pair(seq, NoiseParams(theta=theta), shots, seed)
        ps = recs[2]
        want_r = math.cos(theta / 2) ** 2
        if theta in (0.0, math.pi):
            # retention draw is deterministic at the endpoints; want_r
            # only misses 0 by cos(pi/2)^2 rounding
            assert abs(ps.r - want_r) < EXACT
        else:
            sig = math.sqrt(want_r * (1 - want_r) / shots)
            assert abs(ps.r - want_r) < 3 * sig
        if ps.gamma > 0:
            bound = 1.5 * sum(
                math.sqrt(p * (1 - p) / ps.gamma) for p in ideal_c.probs.values()
            )
            assert ps.D < bound

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\ncriterion 7 PASS: r = cos^2(theta/2) at 0, pi/2, pi; retained "
          f"distribution ideal within sampling bound ({elapsed:.2f}s)")


def test_criterion_08_logical_equivalence_suite():
    """200 random Full-set sequences, L <= 8: decoding the coded ideal
    output reproduces the uncoded ideal output."""
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(200):
        L = 1 + i % 8
        seq = random_sequence(SequenceSpec(GateSetId.FULL, L, derive_seed(8, i)))
        unc, cod = build_pair(seq)
        decoded = decode_distribution(ideal_distribution(cod))
        D = trace_distance(decoded, ideal_distribution(unc))
        worst = max(worst, D)
    assert worst < EXACT

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\ncriterion 8 PASS: 200 sequences, worst decoded-vs-uncoded distance "
          f"{worst:.1e} ({elapsed:.2f}s)")


def test_criterion_09_round_trips(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    kinds_1q = [GateKind.X, GateKind.Y, GateKind.Z, GateKind.H, GateKind.S]
    kinds_2q = [GateKind.CNOT, GateKind.CZ, GateKind.SWAP]
    for _ in range(100):
        n = int(rng.integers(1, 7))
        gates = []
        for _ in range(int(rng.integers(0, 25))):
            roll = rng.random()
            if roll < 0.2:
                gates.append(GateInstance(GateKind.RZ, (int(rng.integers(n)),),
                                          float(rng.normal())))
            elif roll < 0.6 or n == 1:
                k = kinds_1q[int(rng.integers(len(kinds_1q)))]
                gates.append(GateInstance(k, (int(rng.integers(n)),)))
            else:
                a, b = rng.choice(n, size=2, replace=False)
                k = kinds_2q[int(rng.integers(len(kinds_2q)))]
                gates.append(GateInstance(k, (int(a), int(b))))
        m = 1 + int(rng.integers(n))
        measured = [int(q) for q in rng.choice(n, size=m, replace=False)]
        circ = Circuit(n, gates, measured)
        assert parse_circuit(serialize_circuit(circ)) == circ

    records = []
    for i in range(1000):
        records.append(ExperimentRecord(
            experiment_id=f"rt-{i}", gate_set="full", L=int(rng.integers(1, 1001)),
            seed=int(rng.integers(2**63)), scheme="coded_ps",
            shots=int(rng.integers(1, 10**6)), gamma=int(rng.integers(10**6)),
            r=float(rng.random()), D=float(rng.random()),
            D_decoded=float(rng.random()), output_dimension=int(rng.integers(1, 17)),
            eps1=float(rng.random() * 1e-3), eps2=float(rng.random() * 0.2),
            p_meas=float(rng.random() * 0.1), p_prep=float(rng.random() * 0.1),
            theta=float(rng.normal()),
            timestamp="2026-08-22T00:00:00+00:00",
        ))
    path = tmp_path / "roundtrip.csv"
    write_records_csv(path, records)
    assert read_records_csv(path) == records

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\ncriterion 9 PASS: 100 circuit and 1000 record round-trips exact "
          f"({elapsed:.2f}s)")
