"""Closed-form error models and distance measures.

Everything here is algebra over the noise parameters, no sampling:
measurement-error laws for bare and post-selected registers, per-block
and per-sequence error accumulation, the truncated first-order
predictors for the three schemes, and the worst-case trace-distance
bound set by the output dimension.

Gate counting convention: a block is one logical gate's realization.
n1/n2 are its one-/two-qubit gate counts, eps1/eps2 the per-gate fault
probabilities.  Transversal coded blocks have n2 = 0, which is the
entire mechanism by which the coded scheme wins once two-qubit faults
dominate.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Mapping

from .circuits import CircuitError
from .code import LogicalGate
from .noise import totally_mixed
from .simulator import OutcomeDistribution

DistributionLike = OutcomeDistribution | Mapping[str, float]


def _probs(d: DistributionLike) -> Mapping[str, float]:
    return d.probs if isinstance(d, OutcomeDistribution) else d


def trace_distance(p: DistributionLike, q: DistributionLike) -> float:
    """D = half the L1 distance over the union of supports."""
    pp, qq = _probs(p), _probs(q)
    # sorted union: summation order must not depend on hash salting, or
    # reruns in fresh processes drift by an ulp and break bit-exact CSVs
    keys = sorted(set(pp) | set(qq))
    return 0.5 * sum(abs(pp.get(k, 0.0) - qq.get(k, 0.0)) for k in keys)


def _clamp(x: float) -> float:
    return min(1.0, max(0.0, x))


# ---------------------------------------------------------------------------
# Measurement-only error laws
# ---------------------------------------------------------------------------

def measurement_error_uncoded(p_meas: float) -> float:
    """P(either of two read-out bits flips) = 2p - p^2."""
    return _clamp(2.0 * p_meas - p_meas ** 2)


def measurement_error_coded_ps(p_meas: float) -> float:
    """Retained-but-wrong probability after parity post-selection.

    Single flips are discarded; double flips pass and decode wrongly,
    6 p^2 (1-p)^2.  Quadruple flips map a codeword string to its
    partner, which decodes correctly, so they do not enter.
    """
    return _clamp(6.0 * p_meas ** 2 * (1.0 - p_meas) ** 2)


# ---------------------------------------------------------------------------
# Block and sequence error accumulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockError:
    """Fault probability of one gate block, split by gate arity."""

    eps1_total: float   # 1 - (1 - eps1)^n1 expanded: sum_i C(n1,i) eps1^i
    eps2_total: float
    any_fault: float    # probability at least one gate in the block faults


def block_error(n1: int, n2: int, eps1: float, eps2: float) -> BlockError:
    """Exact union of independent per-gate faults within a block."""
    if n1 < 0 or n2 < 0:
        raise CircuitError("gate counts must be non-negative")
    e1 = sum(comb(n1, i) * eps1 ** i for i in range(1, n1 + 1))
    e2 = sum(comb(n2, i) * eps2 ** i for i in range(1, n2 + 1))
    return BlockError(e1, e2, _clamp(e1 + e2 + e1 * e2))


def sequence_error(p_block: float, length: int) -> float:
    """P(at least one faulty block in a length-L sequence) = 1 - (1-P)^L."""
    if length < 0:
        raise CircuitError("sequence length must be non-negative")
    return _clamp(1.0 - (1.0 - _clamp(p_block)) ** length)


# Per-logical-gate counts (n1, n2) for each scheme.  The uncoded CZZZ is
# CZ + two Z; uncoded HHSWAP is two H + a SWAP done as three CNOTs; every
# coded block is transversal.
GATE_COUNTS_UNCODED: dict[LogicalGate, tuple[int, int]] = {
    LogicalGate.X0: (1, 0),
    LogicalGate.X1: (1, 0),
    LogicalGate.Z0: (1, 0),
    LogicalGate.Z1: (1, 0),
    LogicalGate.CZZZ: (2, 1),
    LogicalGate.HHSWAP: (2, 3),
}

GATE_COUNTS_CODED: dict[LogicalGate, tuple[int, int]] = {g: (4, 0) if g in (LogicalGate.CZZZ, LogicalGate.HHSWAP) else (2, 0) for g in LogicalGate}


def average_block_error(gates: tuple[LogicalGate, ...], scheme: str,
                        eps1: float, eps2: float, truncated: bool = True) -> float:
    """Mean per-block fault probability over a uniformly drawn gate set.

    truncated keeps terms to first order in each block (the form the
    closed-form predictors use); truncated=False averages the exact
    union probabilities.
    """
    counts = {"uncoded": GATE_COUNTS_UNCODED, "coded": GATE_COUNTS_CODED}[scheme]
    total = 0.0
    for g in gates:
        n1, n2 = counts[g]
        if truncated:
            # first order per arity, plus the n1=4 blocks' C(4,2) eps1^2 term
            # that the coded predictors keep (4 eps1 + 6 eps1^2)
            total += n1 * eps1 + n2 * eps2 + (comb(n1, 2) * eps1 ** 2 if n2 == 0 else 0.0)
        else:
            total += block_error(n1, n2, eps1, eps2).any_fault
    return total / len(gates)


# ---------------------------------------------------------------------------
# Scheme-level predictors
# ---------------------------------------------------------------------------

def predict_uncoded(length: int, eps1: float, eps2: float, p_meas: float) -> float:
    """First-order expected distance for the bare scheme on the reduced set.

    (L/5)(6 eps1 + eps2) from gate faults plus 2 p_m - p_m^2 from read-out.
    """
    return _clamp(length / 5.0 * (6.0 * eps1 + eps2) + measurement_error_uncoded(p_meas))


def predict_coded_raw(length: int, eps1: float, eps2: float, p_meas: float) -> float:
    """Coded scheme, no post-selection, reduced set.

    eps1 + 3 eps2 from the encoder, L(12/5 eps1 + 2 eps1^2) from the
    transversal blocks, 4 p_m - 6 p_m^2 from four read-out bits.
    """
    return _clamp(
        eps1 + 3.0 * eps2
        + length * (12.0 / 5.0 * eps1 + 2.0 * eps1 ** 2)
        + 4.0 * p_meas - 6.0 * p_meas ** 2
    )


def predict_coded_ps(length: int, eps1: float, eps2: float, p_meas: float) -> float:
    """Coded scheme with parity post-selection, reduced set.

    Only parity-even residuals survive: 8/15 eps2 from the encoder's
    CNOTs, 2 L eps1^2 from double faults inside transversal blocks, and
    6 p_m^2 (1 - p_m)^2 ~ 6 p_m^2 from double read-out flips.
    """
    return _clamp(8.0 / 15.0 * eps2 + 2.0 * length * eps1 ** 2 + 6.0 * p_meas ** 2)


# ---------------------------------------------------------------------------
# Worst-case bounds
# ---------------------------------------------------------------------------

def worst_case_bound(ideal: DistributionLike, n_bits: int | None = None) -> float:
    """Largest distance any noise process can reach: D(ideal, uniform).

    For an ideal distribution uniform over k of d outcomes this is
    1 - k/d: 0.75 for a single 4-outcome string, 0.5 for a 2-string
    superposition, 0 when the ideal is already flat.
    """
    pp = _probs(ideal)
    if n_bits is None:
        n_bits = len(next(iter(pp)))
    return trace_distance(pp, totally_mixed(1 << n_bits))
