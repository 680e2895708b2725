"""Outcome distributions and reproducible measurement records.

Sampling uses numpy's PCG64 generator seeded directly from the given 64-bit
integer, with one uniform draw per shot mapped through the inverse CDF, so
identical (distribution, shots, seed) yield identical counts on every
platform.  The draws are taken in fixed chunks of CHUNK_SHOTS from that one
stream into a reused buffer, so memory stays bounded and the counts do not
depend on the chunk size; each chunk is counted against the distinct CDF
thresholds (#(outcome >= k) = #(draw >= cdf[k-1])) rather than by locating
each draw.
Parallel shot generation, if ever needed, must derive sub-stream seeds via
``numpy.random.SeedSequence(seed).spawn(k)`` to stay reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discriminator import Povm, outcome_probabilities
from .tensor_algebra import frozen

CLAMP_TOL = 1e-12
RESIDUAL_TOL = 1e-9
CHUNK_SHOTS = 2**16


@dataclass(frozen=True)
class OutcomeDistribution:
    """Outcome labels and their probabilities, a read-only float array.  What
    distribution_from_probs never makes is refused here (ValueError): a label count
    other than the outcome count, a NaN or an infinity, a negative entry, or a sum
    more than RESIDUAL_TOL from 1."""

    labels: tuple[str, ...]
    probabilities: np.ndarray

    def __post_init__(self):
        p = frozen(self.probabilities, float)
        if p.ndim != 1:
            raise ValueError(f"probabilities of shape {p.shape}, expected one per outcome")
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "probabilities", p)
        if len(self.labels) != len(p):
            raise ValueError(f"{len(self.labels)} labels for {len(p)} probabilities")
        _refuse_non_finite(p)
        if np.any(p < 0):
            raise ValueError(f"negative probability {float(p.min())}")
        if abs(1.0 - float(p.sum())) > RESIDUAL_TOL:
            raise ValueError(f"probabilities sum to {float(p.sum())}, residual exceeds tolerance")

    @property
    def size(self) -> int:
        return len(self.labels)


def _refuse_non_finite(p: np.ndarray) -> None:
    """Refuse a NaN or an infinity, naming its outcome (ValueError)."""
    if not np.isfinite(p).all():
        k = int(np.argmin(np.isfinite(p)))
        raise ValueError(f"probability of outcome {k} is {float(p[k])}, not finite")


def distribution_from_probs(probs, labels=None) -> OutcomeDistribution:
    """Clamp negatives down to −CLAMP_TOL to zero and fold the unit-sum residual, when
    within RESIDUAL_TOL, into outcome 0.  A NaN or an infinity (named by its outcome)
    and a lower entry are refused first; the rest is OutcomeDistribution's to refuse:
    labels of another count and a sum off 1."""
    p = np.asarray(probs, dtype=float).copy()
    labels = tuple(str(k) for k in range(len(p))) if labels is None else tuple(labels)
    _refuse_non_finite(p)  # before outcome 0 takes the residual
    if np.any(p < -CLAMP_TOL):
        raise ValueError(f"probability {float(p.min())} below the clamping tolerance")
    p[p < 0] = 0.0
    residual = 1.0 - float(p.sum())
    if abs(residual) <= RESIDUAL_TOL:
        p[0] = max(p[0] + residual, 0.0)
    return OutcomeDistribution(labels=labels, probabilities=p)


def outcome_distribution(povm: Povm, inp) -> OutcomeDistribution:
    """Probabilities Tr(Π_k ρ_in) for a ProgramInput, a state vector or a density matrix."""
    return distribution_from_probs(outcome_probabilities(povm, inp))


@dataclass(frozen=True)
class SampleRecord:
    seed: int
    shots: int
    counts: tuple[int, ...]
    frequencies: tuple[float, ...]

    def standard_errors(self, dist: OutcomeDistribution) -> tuple[float, ...]:
        p = dist.probabilities
        return tuple(float(np.sqrt(q * (1 - q) / self.shots)) for q in p)


def _check_run(shots: int, seed: int) -> None:
    """Refuse a shot count below 1 or a negative seed (ValueError naming the option)."""
    if shots < 1:
        raise ValueError("shots must be at least 1")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


def sample(dist: OutcomeDistribution, shots: int, seed: int) -> SampleRecord:
    """Inverse-CDF sampling with a PCG64 stream; deterministic in (dist, shots, seed)."""
    _check_run(shots, seed)
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    cdf = np.cumsum(dist.probabilities)
    cdf[-1] = 1.0
    # outcomes of probability 0 repeat a threshold: count each distinct one once
    thresholds, which = np.unique(cdf[:-1], return_inverse=True)
    above = np.zeros(len(thresholds), dtype=np.int64)  # above[j] = #(draw >= thresholds[j])
    shots = int(shots)
    buf = np.empty(min(shots, CHUNK_SHOTS))
    for start in range(0, shots, CHUNK_SHOTS):
        draws = buf[: min(CHUNK_SHOTS, shots - start)]
        rng.random(out=draws)
        for j, threshold in enumerate(thresholds):
            above[j] += np.count_nonzero(draws >= threshold)
    at_least = np.concatenate(([shots], above[which]))  # at_least[k] = #(outcome >= k)
    counts = at_least - np.append(at_least[1:], 0)
    return SampleRecord(
        seed=int(seed),
        shots=shots,
        counts=tuple(int(c) for c in counts),
        frequencies=tuple(float(c) / shots for c in counts),
    )
