import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_independent_states
from udisc.discriminator import build_optimal_equal, build_universal, program_input
from udisc.errors import LayoutMismatch
from udisc.sampler import CHUNK_SHOTS, distribution_from_probs, outcome_distribution, sample


class TestDistribution:
    def test_from_povm_orthonormal_pair_equal(self):
        povm = build_optimal_equal(2)
        dist = outcome_distribution(povm, program_input(np.eye(2, dtype=complex), 1))
        assert np.allclose(dist.probabilities, [2 / 3, 1 / 3, 0.0], atol=1e-12)

    def test_from_povm_orthonormal_pair_universal(self):
        povm = build_universal(3, 2)
        states = np.eye(3, dtype=complex)[:2]
        dist = outcome_distribution(povm, program_input(states, 2))
        assert np.allclose(dist.probabilities, [3 / 4, 0.0, 1 / 4], atol=1e-12)

    def test_identical_pair_all_inconclusive(self):
        povm = build_universal(3, 2)
        state = np.zeros(3, dtype=complex)
        state[0] = 1.0
        dist = outcome_distribution(povm, program_input(np.array([state, state]), 1))
        assert np.allclose(dist.probabilities, [1.0, 0.0, 0.0], atol=1e-12)

    def test_accepts_density_input(self):
        povm = build_universal(3, 2)
        vec = program_input(np.eye(3, dtype=complex)[:2], 1).vector
        rho = np.outer(vec, vec.conj())
        dist = outcome_distribution(povm, rho)
        assert np.allclose(dist.probabilities, [3 / 4, 1 / 4, 0.0], atol=1e-10)

    def test_dimension_mismatch(self):
        povm = build_universal(3, 2)
        with pytest.raises(LayoutMismatch):
            outcome_distribution(povm, np.zeros(8, dtype=complex))

    def test_clamping_and_residual_fold(self):
        dist = distribution_from_probs([0.5 - 2e-10, 0.5, -5e-13])
        assert dist.probabilities[2] == 0.0
        assert abs(dist.probabilities.sum() - 1.0) < 1e-15

    def test_rejects_genuine_negative(self):
        with pytest.raises(ValueError):
            distribution_from_probs([1.0, -1e-6])

    def test_rejects_broken_normalization(self):
        with pytest.raises(ValueError):
            distribution_from_probs([0.5, 0.4])


class TestSample:
    def test_deterministic_distribution(self):
        dist = distribution_from_probs([1.0, 0.0, 0.0])
        record = sample(dist, 1000, seed=9)
        assert record.counts == (1000, 0, 0)

    def test_binomial_error_band(self):
        dist = distribution_from_probs([2 / 3, 1 / 3, 0.0])
        shots = 100000
        record = sample(dist, shots, seed=10)
        se = np.sqrt((1 / 3) * (2 / 3) / shots)
        assert abs(record.frequencies[1] - 1 / 3) <= 3 * se
        assert record.counts[2] == 0

    def test_seed_reproducibility(self):
        dist = distribution_from_probs([0.3, 0.45, 0.25])
        a = sample(dist, 50000, seed=123)
        b = sample(dist, 50000, seed=123)
        assert a.counts == b.counts
        c = sample(dist, 50000, seed=124)
        assert c.counts != a.counts

    def test_counts_sum_to_shots(self):
        dist = distribution_from_probs([0.2, 0.5, 0.3])
        record = sample(dist, 12345, seed=5)
        assert sum(record.counts) == 12345

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            sample(distribution_from_probs([1.0]), 0, seed=1)

    def test_rejects_a_negative_seed_naming_it(self):
        with pytest.raises(ValueError, match=r"^seed must be non-negative, got -1$"):
            sample(distribution_from_probs([1.0]), 10, seed=-1)
        assert sample(distribution_from_probs([1.0]), 10, seed=0).counts == (10,)


def one_shot_counts(dist, shots, seed):
    """Reference sampler: all draws at once, each located in the CDF by searchsorted."""
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    cdf = np.cumsum(dist.probabilities)
    cdf[-1] = 1.0
    idx = np.searchsorted(cdf, rng.random(shots), side="right")
    return tuple(int(c) for c in np.bincount(idx, minlength=dist.size))


@st.composite
def distributions_with_zeros(draw):
    weights = draw(st.lists(st.floats(0.001, 1.0), min_size=1, max_size=7))
    for _ in range(draw(st.integers(1, 3))):
        weights.insert(draw(st.integers(0, len(weights))), 0.0)
    return distribution_from_probs(np.array(weights) / sum(weights))


class TestChunkedSampling:
    @pytest.mark.parametrize(
        "shots", [1, CHUNK_SHOTS - 1, CHUNK_SHOTS, CHUNK_SHOTS + 1, 3 * CHUNK_SHOTS + 7]
    )
    @settings(max_examples=20, deadline=None)
    @given(dist=distributions_with_zeros(), seed=st.integers(0, 2**64 - 1))
    def test_counts_equal_one_shot_reference(self, shots, dist, seed):
        assert sample(dist, shots, seed).counts == one_shot_counts(dist, shots, seed)


class TestEndToEndFrequencies:
    @pytest.mark.parametrize(
        "factory,m,n",
        [(lambda: build_optimal_equal(2), 2, 2), (lambda: build_universal(3, 2), 3, 2)],
    )
    def test_empirical_matches_analytic(self, factory, m, n):
        povm = factory()
        rng = np.random.default_rng(80 + m)
        shots = 100000
        for trial in range(10):
            states = rand_independent_states(n, m, rng)
            j = int(rng.integers(1, n + 1))
            dist = outcome_distribution(povm, program_input(states, j))
            record = sample(dist, shots, seed=1000 + trial)
            for k, p in enumerate(dist.probabilities):
                se = np.sqrt(p * (1 - p) / shots)
                assert abs(record.frequencies[k] - p) <= 4 * se + 1e-12
            # unambiguity at the sample level: wrong-state outcomes never fire
            for k in range(1, n + 1):
                if k != j:
                    assert record.counts[k] == 0
