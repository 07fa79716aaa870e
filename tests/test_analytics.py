"""Closed-form models: distances, laws, predictors, bounds."""

from math import comb

import numpy as np
import pytest

from qec422.analytics import (
    measurement_error_coded_ps,
    measurement_error_uncoded,
    predict_coded_ps,
    predict_coded_raw,
    predict_uncoded,
    trace_distance,
    worst_case_bound,
)
from qec422.circuits import Circuit, CircuitError
from qec422.code import LogicalGate, coded_gate_circuit, uncoded_gate_circuit
from qec422.experiments import GateSetId
from qec422.noise import NoiseParams, noisy_vector, totally_mixed
from qec422.simulator import OutcomeDistribution


def _rand_dist(rng: np.random.Generator, n_bits: int) -> OutcomeDistribution:
    v = rng.random(1 << n_bits) + 1e-3
    v /= v.sum()
    return OutcomeDistribution({format(i, f"0{n_bits}b"): float(p) for i, p in enumerate(v)})


class TestTraceDistance:
    def test_metric_properties(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            p, q, s = (_rand_dist(rng, 3) for _ in range(3))
            assert trace_distance(p, p) < 1e-15
            assert abs(trace_distance(p, q) - trace_distance(q, p)) < 1e-15
            assert trace_distance(p, s) <= trace_distance(p, q) + trace_distance(q, s) + 1e-12
            assert 0.0 <= trace_distance(p, q) <= 1.0

    def test_disjoint_supports(self):
        assert trace_distance({"00": 1.0}, {"11": 1.0}) == 1.0

    def test_known_value(self):
        assert abs(trace_distance({"0": 0.5, "1": 0.5}, {"0": 1.0}) - 0.5) < 1e-15

    def test_accepts_raw_mappings_and_distributions(self):
        d = OutcomeDistribution({"0": 0.5, "1": 0.5})
        assert trace_distance(d, {"0": 0.5, "1": 0.5}) < 1e-15

    def test_refuses_different_widths(self):
        with pytest.raises(CircuitError, match="1-bit and 2-bit"):
            trace_distance({"0": 1.0}, {"00": 1.0})
        with pytest.raises(CircuitError):
            trace_distance(totally_mixed(16), totally_mixed(8))

    def test_equals_the_sorted_union_formula_bit_for_bit(self):
        """The vector form sums in sorted-bitstring order, which is what
        keeps CSV values byte-stable; the string formula is the reference."""
        def sorted_union(pp, qq):
            keys = sorted(set(pp) | set(qq))
            return 0.5 * sum(abs(pp.get(k, 0.0) - qq.get(k, 0.0)) for k in keys)

        def rand_dict(rng, n_bits):
            size = int(rng.integers(1, (1 << n_bits) + 1))
            support = rng.choice(1 << n_bits, size, replace=False)
            v = rng.random(len(support)) + 1e-3
            v /= v.sum()
            return {format(int(j), f"0{n_bits}b"): float(p) for j, p in zip(support, v)}

        rng = np.random.default_rng(43)
        for trial in range(300):
            n_bits = 1 + trial % 6
            p, q = rand_dict(rng, n_bits), rand_dict(rng, n_bits)
            assert trace_distance(p, q) == sorted_union(p, q), (p, q)
            assert trace_distance(OutcomeDistribution(p), q) == sorted_union(p, q)


class TestMeasurementLaws:
    def test_uncoded_two_bit_law(self):
        p = 0.02
        assert abs(measurement_error_uncoded(p) - (2 * p - p * p)) < 1e-15

    def test_coded_double_flip_law(self):
        p = 0.02
        want = 6 * p ** 2 * (1 - p) ** 2
        assert abs(measurement_error_coded_ps(p) - want) < 1e-15

    def test_coded_quadratically_suppressed(self):
        for p in (0.001, 0.01, 0.05):
            assert measurement_error_coded_ps(p) < measurement_error_uncoded(p)


class TestGateCounts:
    """The gate blocks whose counts the predictors' coefficients rest on."""

    @pytest.mark.parametrize("gate", list(LogicalGate))
    def test_tables_match_circuit_constructions(self, gate):
        """Each block construction hands out a fresh list of its fixed
        table: equal on every call, and a caller's edit does not leak."""
        for build in (coded_gate_circuit, uncoded_gate_circuit):
            first = build(gate)
            first.append(first[0])
            assert build(gate) == first[:-1] and build(gate) is not build(gate)

    def test_coded_blocks_are_transversal(self):
        for gate in LogicalGate:
            assert all(g.kind.arity == 1 for g in coded_gate_circuit(gate))


class TestPredictors:
    def test_per_gate_coefficients_match_the_reduced_set_circuits(self):
        """The per-L slope of predict_uncoded, (6 eps1 + eps2) / 5, and of
        predict_coded_raw, 12/5 eps1 + 2 eps1^2, are the mean first-order
        fault weight of one block drawn from the reduced set: mean n1
        eps1 + mean n2 eps2, plus mean C(n1, 2) eps1^2 for the coded
        blocks, counted off the circuits themselves."""
        gates = GateSetId.REDUCED.gates

        def means(build):
            arities = [[g.kind.arity for g in build(gate)] for gate in gates]
            n1 = [a.count(1) for a in arities]
            return (np.mean(n1), np.mean([a.count(2) for a in arities]),
                    np.mean([comb(k, 2) for k in n1]))

        e1, e2 = 3e-4, 1.2e-2
        n1, n2, _ = means(uncoded_gate_circuit)
        slope = (predict_uncoded(20, e1, e2, 0.0) - predict_uncoded(10, e1, e2, 0.0)) / 10
        assert abs(slope - (n1 * e1 + n2 * e2)) < 1e-15
        n1, n2, pairs = means(coded_gate_circuit)
        assert n2 == 0.0
        slope = (predict_coded_raw(20, e1, e2, 0.0) - predict_coded_raw(10, e1, e2, 0.0)) / 10
        assert abs(slope - (n1 * e1 + pairs * e1 ** 2)) < 1e-15

    def test_uncoded_spot_value(self):
        # L/5 (6 eps1 + eps2) + 2 pm - pm^2
        got = predict_uncoded(10, 4e-3, 0.16, 0.02)
        assert abs(got - (2 * (0.024 + 0.16) + 0.0396)) < 1e-12

    def test_coded_ps_spot_value(self):
        got = predict_coded_ps(10, 4e-3, 0.16, 0.02)
        want = 8 * 0.16 / 15 + 2 * 10 * (4e-3) ** 2 + 6 * 0.02 ** 2
        assert abs(got - want) < 1e-12

    def test_coded_raw_spot_value(self):
        got = predict_coded_raw(10, 4e-3, 0.16, 0.02)
        want = 4e-3 + 3 * 0.16 + 10 * (12 / 5 * 4e-3 + 2 * (4e-3) ** 2) \
            + 4 * 0.02 - 6 * 0.02 ** 2
        assert abs(got - want) < 1e-12

    def test_clamped_to_unit_interval(self):
        assert predict_uncoded(1000, 0.01, 0.4, 0.02) == 1.0
        assert predict_coded_ps(0, 0.0, 0.0, 0.0) == 0.0

    def test_crossover_for_all_lengths_past_ten(self):
        """At the strong-two-qubit operating point the coded scheme wins
        from L = 10 on, for the whole supported length range."""
        for e1 in (3e-3, 4e-3, 5.5e-3):
            e2 = 40 * e1
            for L in range(10, 1001):
                assert predict_coded_ps(L, e1, e2, 0.02) < predict_uncoded(L, e1, e2, 0.02)


class TestWorstCase:
    def test_bound_values(self):
        assert abs(worst_case_bound({"00": 1.0}) - 0.75) < 1e-12
        assert abs(worst_case_bound({"00": 0.5, "11": 0.5}) - 0.5) < 1e-12
        assert worst_case_bound(totally_mixed(4)) < 1e-12

    def test_mixing_reaches_bound_linearly(self):
        """D(depolarized, ideal) = xi * bound, monotone up to xi = 1."""
        ideal = OutcomeDistribution({"00": 1.0})
        bound = worst_case_bound(ideal)
        prev = -1.0
        for xi in (0.0, 0.25, 0.5, 0.75, 1.0):
            mixed = OutcomeDistribution(noisy_vector(Circuit(2, [], [0, 1]), NoiseParams(xi=xi)))
            D = trace_distance(mixed, ideal)
            assert abs(D - xi * bound) < 1e-12
            assert D > prev or xi == 0.0
            prev = D
