"""Desk-scale toolkit for [4,2,2] error-detection experiments.

Simulate small circuits exactly, inject circuit-level noise, post-select
on the code's parity check, and compare measured trace distances against
closed-form error models and worst-case bounds.
"""

from .analytics import (
    measurement_error_coded_ps,
    measurement_error_uncoded,
    predict_coded_ps,
    predict_coded_raw,
    predict_uncoded,
    trace_distance,
    worst_case_bound,
)
from .circuits import Circuit, CircuitError, CircuitParseError, GateInstance, GateKind, parse_circuit, serialize_circuit
from .code import (
    EncoderVariant,
    LogicalGate,
    LogicalStateLabel,
    build_encoder,
    codeword_distribution,
    coded_gate_circuit,
    decode,
    post_select,
    uncoded_gate_circuit,
)
from .experiments import (
    ExperimentRecord,
    GateSetId,
    SequenceSpec,
    build_pair,
    random_sequence,
    run_pair,
    run_pairs,
    sweep_L,
    sweep_theta,
)
from .ftcheck import FaultClassification, FaultSite, FTReport, verify_single_faults
from .noise import NoiseParams, insert_coherent_rotation, noisy_counts, totally_mixed
from .simulator import (
    OutcomeDistribution,
    PureState,
    ShotCounts,
    ideal_distribution,
)

__version__ = "0.1.0"

__all__ = [
    "Circuit", "CircuitError", "CircuitParseError", "GateInstance", "GateKind",
    "parse_circuit", "serialize_circuit",
    "PureState", "OutcomeDistribution", "ShotCounts",
    "ideal_distribution",
    "LogicalStateLabel", "EncoderVariant", "LogicalGate",
    "build_encoder", "codeword_distribution", "coded_gate_circuit",
    "uncoded_gate_circuit", "decode", "post_select",
    "NoiseParams", "noisy_counts", "insert_coherent_rotation", "totally_mixed",
    "trace_distance", "worst_case_bound",
    "measurement_error_uncoded", "measurement_error_coded_ps",
    "predict_uncoded", "predict_coded_raw", "predict_coded_ps",
    "FaultSite", "FaultClassification", "FTReport", "verify_single_faults",
    "GateSetId", "SequenceSpec", "ExperimentRecord",
    "random_sequence", "build_pair", "run_pair", "run_pairs", "sweep_L", "sweep_theta",
]
