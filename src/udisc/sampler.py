"""Outcome distributions and reproducible measurement records.

Sampling uses numpy's PCG64 generator seeded directly from the given 64-bit
integer, with one uniform draw per shot mapped through the inverse CDF, so
identical (distribution, shots, seed) yield identical counts on every
platform.  The draws are taken in fixed chunks of CHUNK_SHOTS from that one
stream into a reused buffer, so memory stays bounded and the counts do not
depend on the chunk size; each chunk is counted against the CDF thresholds
(#(outcome >= k) = #(draw >= cdf[k-1])) rather than by locating each draw.
Parallel shot generation, if ever needed, must derive sub-stream seeds via
``numpy.random.SeedSequence(seed).spawn(k)`` to stay reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discriminator import Povm, outcome_probabilities

CLAMP_TOL = 1e-12
RESIDUAL_TOL = 1e-9
CHUNK_SHOTS = 2**16


@dataclass(frozen=True)
class OutcomeDistribution:
    labels: tuple[str, ...]
    probabilities: np.ndarray

    @property
    def size(self) -> int:
        return len(self.labels)


def distribution_from_probs(probs, labels=None) -> OutcomeDistribution:
    """Validate, clamp tiny negatives to zero, fold the unit-sum residual into outcome 0."""
    p = np.asarray(probs, dtype=float).copy()
    if np.any(p < -CLAMP_TOL):
        raise ValueError(f"probability {p.min()!r} below the clamping tolerance")
    p[p < 0] = 0.0
    residual = 1.0 - float(p.sum())
    if abs(residual) > RESIDUAL_TOL:
        raise ValueError(f"probabilities sum to {p.sum()!r}, residual exceeds tolerance")
    p[0] += residual
    if p[0] < 0:
        p[0] = 0.0
    if labels is None:
        labels = tuple(str(k) for k in range(len(p)))
    return OutcomeDistribution(labels=tuple(labels), probabilities=p)


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


def sample(dist: OutcomeDistribution, shots: int, seed: int) -> SampleRecord:
    """Inverse-CDF sampling with a PCG64 stream; deterministic in (dist, shots, seed)."""
    if shots < 1:
        raise ValueError("shots must be at least 1")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    cdf = np.cumsum(dist.probabilities)
    cdf[-1] = 1.0
    shots = int(shots)
    at_least = np.zeros(dist.size, dtype=np.int64)  # at_least[k] = #(outcome >= k)
    buf = np.empty(min(shots, CHUNK_SHOTS))
    for start in range(0, shots, CHUNK_SHOTS):
        draws = buf[: min(CHUNK_SHOTS, shots - start)]
        rng.random(out=draws)
        for k in range(1, dist.size):
            at_least[k] += np.count_nonzero(draws >= cdf[k - 1])
    at_least[0] = shots
    counts = at_least - np.append(at_least[1:], 0)
    return SampleRecord(
        seed=int(seed),
        shots=shots,
        counts=tuple(int(c) for c in counts),
        frequencies=tuple(float(c) / shots for c in counts),
    )
