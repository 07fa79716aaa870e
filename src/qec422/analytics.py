"""Closed-form error models and distance measures.

Everything here is algebra over the noise parameters, no sampling:
measurement-error laws for bare and post-selected registers, the
truncated first-order predictors for the three schemes, and the
worst-case trace-distance bound set by the output dimension.

Gate counting convention: a block is one logical gate's realization.
n1/n2 are its one-/two-qubit gate counts, eps1/eps2 the per-gate fault
probabilities.  Transversal coded blocks have n2 = 0, which is the
entire mechanism by which the coded scheme wins once two-qubit faults
dominate.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .circuits import CircuitError
from .noise import totally_mixed
from .simulator import OutcomeDistribution, ordered_sum

DistributionLike = OutcomeDistribution | Mapping[str, float]


def _dist(d: DistributionLike) -> OutcomeDistribution:
    return d if isinstance(d, OutcomeDistribution) else OutcomeDistribution(d)


def trace_distance(p: DistributionLike, q: DistributionLike) -> float:
    """D = half the L1 distance between two distributions of one width."""
    p, q = _dist(p), _dist(q)
    if p.n_bits != q.n_bits:
        raise CircuitError(f"cannot compare {p.n_bits}-bit and {q.n_bits}-bit distributions")
    return 0.5 * ordered_sum(np.abs(p.vec - q.vec))


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

def worst_case_bound(ideal: DistributionLike) -> float:
    """Largest distance any noise process can reach: D(ideal, uniform).

    For an ideal distribution uniform over k of d outcomes this is
    1 - k/d: 0.75 for a single 4-outcome string, 0.5 for a 2-string
    superposition, 0 when the ideal is already flat.
    """
    ideal = _dist(ideal)
    return trace_distance(ideal, totally_mixed(len(ideal.vec)))
