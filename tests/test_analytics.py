"""Closed-form models: distances, laws, predictors, bounds."""

from math import comb

import numpy as np
import pytest

from qec422.analytics import (
    GATE_COUNTS_CODED,
    GATE_COUNTS_UNCODED,
    average_block_error,
    block_error,
    measurement_error_coded_ps,
    measurement_error_uncoded,
    predict_coded_ps,
    predict_coded_raw,
    predict_uncoded,
    sequence_error,
    trace_distance,
    worst_case_bound,
)
from qec422.circuits import Circuit
from qec422.code import LogicalGate, coded_gate_circuit, uncoded_gate_circuit
from qec422.experiments import GateSetId
from qec422.noise import NoiseParams, noisy_distribution, totally_mixed
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


class TestBlockAndSequence:
    def test_binomial_expansion(self):
        """eps_total is exactly sum_i C(n,i) eps^i = (1+eps)^n - 1."""
        be = block_error(3, 2, 0.1, 0.05)
        assert abs(be.eps1_total - ((1.1) ** 3 - 1)) < 1e-12
        assert abs(be.eps2_total - ((1.05) ** 2 - 1)) < 1e-12
        want = be.eps1_total + be.eps2_total + be.eps1_total * be.eps2_total
        assert abs(be.any_fault - want) < 1e-12

    def test_empty_block(self):
        assert block_error(0, 0, 0.5, 0.5).any_fault == 0.0

    def test_sequence_limits(self):
        assert sequence_error(0.3, 0) == 0.0
        assert abs(sequence_error(0.3, 1) - 0.3) < 1e-15
        assert sequence_error(1.0, 5) == 1.0

    def test_first_order_is_l_times_p(self):
        """1 - (1-P)^L = L P + O((LP)^2) for small P."""
        p = 1e-3
        for L in (2, 5, 10, 20):
            assert abs(sequence_error(p, L) - L * p) < (L * p) ** 2


class TestGateCounts:
    @pytest.mark.parametrize("gate", list(LogicalGate))
    def test_tables_match_circuit_constructions(self, gate):
        """The count tables are exactly what the builders emit."""
        unc = uncoded_gate_circuit(gate)
        n1 = sum(g.kind.arity == 1 for g in unc)
        n2 = sum(g.kind.arity == 2 for g in unc)
        assert GATE_COUNTS_UNCODED[gate] == (n1, n2)

        cod = coded_gate_circuit(gate)
        n1 = sum(g.kind.arity == 1 for g in cod)
        n2 = sum(g.kind.arity == 2 for g in cod)
        assert GATE_COUNTS_CODED[gate] == (n1, n2)

    def test_coded_blocks_are_transversal(self):
        for gate in LogicalGate:
            assert GATE_COUNTS_CODED[gate][1] == 0


class TestAverageBlockError:
    def test_reduced_set_truncated_constants(self):
        e1, e2 = 3e-3, 0.12
        gates = GateSetId.REDUCED.gates
        unc = average_block_error(gates, "uncoded", e1, e2)
        assert abs(unc - (6 * e1 + e2) / 5) < 1e-15
        cod = average_block_error(gates, "coded", e1, e2)
        assert abs(cod - (12 * e1 / 5 + 2 * e1 ** 2)) < 1e-15

    def test_full_set_truncated_constants(self):
        e1, e2 = 2e-3, 0.08
        gates = GateSetId.FULL.gates
        unc = average_block_error(gates, "uncoded", e1, e2)
        assert abs(unc - (8 * e1 + 4 * e2) / 6) < 1e-15
        cod = average_block_error(gates, "coded", e1, e2)
        assert abs(cod - (16 * e1 + 16 * e1 ** 2) / 6) < 1e-15

    def test_single_hhswap_constants(self):
        e1, e2 = 1e-3, 0.04
        gates = GateSetId.SINGLE_HHSWAP.gates
        assert abs(average_block_error(gates, "uncoded", e1, e2) - (2 * e1 + 3 * e2)) < 1e-15
        assert abs(average_block_error(gates, "coded", e1, e2)
                   - (4 * e1 + comb(4, 2) * e1 ** 2)) < 1e-15

    def test_untruncated_close_at_small_rates(self):
        gates = GateSetId.REDUCED.gates
        t = average_block_error(gates, "uncoded", 1e-4, 4e-3, truncated=True)
        f = average_block_error(gates, "uncoded", 1e-4, 4e-3, truncated=False)
        assert abs(t - f) < 1e-5


class TestPredictors:
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
            mixed = noisy_distribution(Circuit(2, [], [0, 1]), NoiseParams(xi=xi))
            D = trace_distance(mixed, ideal)
            assert abs(D - xi * bound) < 1e-12
            assert D > prev or xi == 0.0
            prev = D
