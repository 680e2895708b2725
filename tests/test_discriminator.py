import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udisc.antisym import Permutation, all_permutations, permutation_operator
from udisc.discriminator import (
    PERMUTATION_COV_TOL,
    Povm,
    build_optimal_equal,
    build_trivial_antisym,
    build_universal,
    check_covariance,
    cross_term,
    efficiency_bounds,
    family_povm,
    known_state_optimum,
    outcome_probabilities,
    product_probabilities,
    program_input,
    success_prob_analytic,
    success_prob_operational,
    verify_unambiguous,
)
from udisc.errors import CapExceeded, IndexOutOfRange, InvalidPovm, LayoutMismatch, WrongRegime
from udisc.random_states import rand_independent_states, rand_states
from udisc.tensor_algebra import kron_chain, max_abs


def ket(index, dim):
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def pair_with_overlap(s, m=3):
    states = np.zeros((2, m), dtype=complex)
    states[0, 0] = 1.0
    states[1, 0] = s
    states[1, 1] = np.sqrt(1 - s * s)
    return states


def leaky_counterexample():
    """A valid POVM on m = n = 2 whose element 1 ignores the program registers."""
    dim = 8
    eye = np.eye(dim, dtype=complex)
    return Povm(
        m=2,
        n=2,
        elements=(eye / 2, eye / 2, np.zeros((dim, dim), dtype=complex)),
    )


def assert_valid(povm):
    """POVM validity at verify's thresholds: each element PSD and the sum I, within 1e-9."""
    mins, completeness = povm.residuals()
    assert min(mins) >= -1e-9
    assert completeness <= 1e-9


class TestProgramInput:
    def test_first_index(self):
        states = np.eye(2, dtype=complex)
        out = program_input(states, 1)
        assert np.array_equal(out.vector, kron_chain([ket(0, 2), ket(1, 2), ket(0, 2)]))

    def test_second_index(self):
        states = np.eye(2, dtype=complex)
        out = program_input(states, 2)
        assert np.array_equal(out.vector, kron_chain([ket(0, 2), ket(1, 2), ket(1, 2)]))

    def test_unit_norm(self):
        rng = np.random.default_rng(50)
        states = rand_independent_states(3, 4, rng)
        assert abs(np.linalg.norm(program_input(states, 2).vector) - 1) < 1e-12

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            program_input(np.eye(2, dtype=complex), 3)


class TestBuilders:
    def test_optimal_equal_orthonormal_pair(self):
        povm = build_optimal_equal(2)
        assert_valid(povm)
        p = success_prob_operational(povm, np.eye(2, dtype=complex), 1)
        assert abs(p - 1 / 3) < 1e-12

    def test_optimal_equal_cross_term_zero(self):
        povm = build_optimal_equal(2)
        rng = np.random.default_rng(51)
        states = rand_independent_states(2, 2, rng)
        assert cross_term(povm, states, 1, 2) <= 1e-10

    def test_optimal_equal_positivity_boundary_n3(self):
        povm = build_optimal_equal(3)
        assert min(povm.residuals()[0]) >= -1e-9
        # restore the unscaled blocks and inflate the coefficient
        blocks_sum = sum(povm.elements[1:]) / povm.c
        inflated = np.eye(povm.dim) - (3 / 4 + 0.01) * blocks_sum
        assert np.linalg.eigvalsh(inflated)[0] <= -1e-3

    def test_universal_orthonormal_pair(self):
        povm = build_universal(3, 2)
        assert_valid(povm)
        states = np.eye(3, dtype=complex)[:2]
        assert abs(success_prob_operational(povm, states, 1) - 0.25) < 1e-12

    def test_universal_dependent_pair_gives_zero(self):
        povm = build_universal(3, 2)
        state = ket(0, 3)
        states = np.array([state, state])
        assert success_prob_operational(povm, states, 1) <= 1e-12

    def test_universal_dimension_independence(self):
        povm = build_universal(4, 2)
        states = np.eye(4, dtype=complex)[:2]
        assert abs(success_prob_operational(povm, states, 1) - 0.25) < 1e-12

    def test_universal_wrong_regime(self):
        with pytest.raises(WrongRegime):
            build_universal(2, 3)
        with pytest.raises(WrongRegime):
            build_universal(2, 2)

    def test_trivial_verifies_and_never_succeeds(self):
        povm = build_trivial_antisym(3, 2)
        assert_valid(povm)
        assert verify_unambiguous(povm).passed
        rng = np.random.default_rng(52)
        for _ in range(5):
            states = rand_independent_states(2, 3, rng)
            for i in (1, 2):
                assert success_prob_operational(povm, states, i) <= 1e-12

    def test_trivial_degenerates_at_m_equals_n(self):
        povm = build_trivial_antisym(2, 2)
        assert max_abs(povm.elements[1]) == 0.0
        assert max_abs(povm.elements[0] - np.eye(8)) == 0.0

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (3, 2), (4, 3)])
    def test_positivity_boundary_relative(self, m, n):
        povm = build_optimal_equal(n) if m == n else build_universal(m, n)
        blocks_sum = sum(povm.elements[1:]) / povm.c
        inflated = np.eye(povm.dim) - povm.c * 1.01 * blocks_sum
        assert np.linalg.eigvalsh(inflated)[0] <= -1e-3


class TestVerifier:
    @pytest.mark.parametrize(
        "factory", [lambda: build_optimal_equal(2), lambda: build_universal(3, 2),
                    lambda: build_trivial_antisym(3, 2)]
    )
    def test_passes_on_builders(self, factory):
        report = verify_unambiguous(factory())
        assert report.passed
        assert report.max_leakage() <= 1e-9

    def test_fails_on_leaky_counterexample(self):
        report = verify_unambiguous(leaky_counterexample())
        assert not report.passed
        assert report.leakages[0] > 1e-3
        # the counterexample is still a valid POVM, only the criterion fails
        assert min(report.psd_mins) >= -1e-9
        assert report.completeness_residual <= 1e-9

    def test_structural_defects_raise(self):
        povm = build_universal(3, 2)
        broken = Povm(m=3, n=2, elements=povm.elements[:2])
        with pytest.raises(InvalidPovm):
            verify_unambiguous(broken)
        skew = np.zeros((27, 27), dtype=complex)
        skew[0, 1] = 1.0
        broken = Povm(m=3, n=2, elements=(povm.elements[0], povm.elements[1], skew))
        with pytest.raises(InvalidPovm):
            verify_unambiguous(broken)


class TestSuccessProbabilities:
    def test_analytic_values(self):
        assert abs(success_prob_analytic(np.eye(2, dtype=complex), "optimal") - 1 / 3) < 1e-12
        states = np.eye(3, dtype=complex)[:2]
        assert abs(success_prob_analytic(states, "universal") - 0.25) < 1e-12
        assert abs(success_prob_analytic(pair_with_overlap(0.6), "universal") - 0.16) < 1e-12

    @pytest.mark.parametrize(
        "m,n,regime",
        [(2, 2, "optimal"), (3, 3, "optimal"), (3, 2, "universal"), (4, 3, "universal")],
    )
    def test_operational_matches_analytic(self, m, n, regime):
        povm = build_optimal_equal(n) if regime == "optimal" else build_universal(m, n)
        rng = np.random.default_rng(53 + m + 10 * n)
        for _ in range(10):
            states = rand_independent_states(n, m, rng)
            expected = success_prob_analytic(states, regime)
            for i in range(1, n + 1):
                assert abs(success_prob_operational(povm, states, i) - expected) < 1e-10

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (4, 3)])
    def test_cross_terms_vanish(self, m, n):
        povm = build_optimal_equal(n) if m == n else build_universal(m, n)
        rng = np.random.default_rng(54 + m + 10 * n)
        for _ in range(10):
            states = rand_independent_states(n, m, rng)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i != j:
                        assert cross_term(povm, states, i, j) <= 1e-10


    def test_cross_term_rejects_outcome_outside_1_to_n(self):
        povm = build_universal(3, 2)
        states = np.eye(3, dtype=complex)[:2]
        for i in (0, -1, 3):
            with pytest.raises(IndexOutOfRange):
                cross_term(povm, states, i, 1)
            with pytest.raises(IndexOutOfRange):
                success_prob_operational(povm, states, i)

    def test_state_set_of_wrong_dimension_rejected(self):
        povm = build_universal(3, 2)
        states = np.eye(4, dtype=complex)[:2]
        with pytest.raises(LayoutMismatch):
            cross_term(povm, states, 1, 2)
        with pytest.raises(LayoutMismatch):
            success_prob_operational(povm, states, 1)


def _families_at(m, n):
    return [f for f, ok in (("optimal", m == n), ("universal", m > n), ("trivial", m >= n)) if ok]


CLOSED_FORM_CASES = [
    (family, m, n)
    for m, n in ((2, 2), (3, 2), (3, 3), (4, 3), (5, 3), (4, 4))
    for family in _families_at(m, n)
]


class TestClosedForm:
    """The Gram-determinant outcome probabilities against the dense quadratic form."""

    @pytest.mark.parametrize("family,m,n", CLOSED_FORM_CASES)
    def test_random_product_factors_match_dense(self, family, m, n):
        povm = family_povm(family, m, n)
        rng = np.random.default_rng(56 + 7 * m + n)
        for _ in range(4):
            # unnormalised factors exercise the ‖φ_i‖² terms and Π_0 = ‖v‖² - Σ p_i
            factors = rand_states(n + 1, m, rng) * rng.uniform(0.5, 1.5, size=(n + 1, 1))
            vec = kron_chain(list(factors))
            dense = [float((vec.conj() @ e @ vec).real) for e in povm.elements]
            assert np.max(np.abs(product_probabilities(povm, factors) - dense)) <= 1e-12

    @pytest.mark.parametrize("family,m,n", [(f, m, n) for f, m, n in CLOSED_FORM_CASES if m < 5])
    def test_program_input_routes_match_explicit_copy(self, family, m, n):
        built = family_povm(family, m, n)
        explicit = Povm(m=m, n=n, elements=built.elements)
        rng = np.random.default_rng(57 + 7 * m + n)
        states = rand_independent_states(n, m, rng)
        for j in range(1, n + 1):
            inp = program_input(states, j)
            closed = outcome_probabilities(built, inp)
            dense = outcome_probabilities(explicit, inp)
            assert np.max(np.abs(closed - dense)) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(case=st.sampled_from(CLOSED_FORM_CASES), seed=st.integers(0, 2**32 - 1))
    def test_haar_outcomes_sum_to_one_and_never_cross(self, case, seed):
        family, m, n = case
        povm = family_povm(family, m, n)
        states = rand_states(n, m, np.random.default_rng(seed))
        for j in range(1, n + 1):
            assert abs(outcome_probabilities(povm, program_input(states, j)).sum() - 1.0) <= 1e-12
            for i in range(1, n + 1):
                if i != j:
                    assert abs(cross_term(povm, states, i, j)) <= 1e-12

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_trivial_is_exactly_zero_when_m_equals_n(self, m):
        # the dense elements are exact zeros here (m < n+1 registers)
        povm = family_povm("trivial", m, m)
        rng = np.random.default_rng(59 + m)
        for _ in range(10):
            assert np.all(product_probabilities(povm, rand_states(m + 1, m, rng))[1:] == 0.0)

    def test_factors_of_wrong_shape_rejected(self):
        with pytest.raises(LayoutMismatch):
            product_probabilities(build_universal(3, 2), np.eye(4, dtype=complex)[:3])

    def test_explicit_povm_has_no_closed_form(self):
        with pytest.raises(ValueError):
            product_probabilities(leaky_counterexample(), np.eye(2, dtype=complex)[[0, 1, 0]])


class TestStructuredPovm:
    def test_built_records_structure(self):
        povm = build_universal(4, 3)
        assert (povm.family, povm.m, povm.n, povm.c) == ("universal", 4, 3, 1 / 3)
        assert povm.dim == 256

    def test_explicit_has_no_structure(self):
        povm = leaky_counterexample()
        assert povm.c is None and povm.family is None

    def test_elements_and_family_are_exclusive(self):
        with pytest.raises(ValueError):
            Povm(m=2, n=2, elements=leaky_counterexample().elements, family="optimal")
        with pytest.raises(ValueError):
            Povm(m=2, n=2)

    def test_cap_applies_on_first_element_access(self):
        povm = build_universal(100, 10)
        rng = np.random.default_rng(58)
        states = rand_independent_states(10, 100, rng)
        expected = success_prob_analytic(states, "universal")
        assert abs(success_prob_operational(povm, states, 3) - expected) <= 1e-12
        with pytest.raises(CapExceeded):
            povm.elements
        with pytest.raises(CapExceeded):
            program_input(states, 1).vector

    def test_environment_cap_applies_to_library_calls(self, monkeypatch):
        monkeypatch.setenv("UDISC_CAP", "256")
        with pytest.raises(CapExceeded):
            build_universal(3, 2).elements  # 27 x 27 = 729 entries


class TestKnownStateOptimum:
    def test_orthonormal(self):
        assert abs(known_state_optimum(np.eye(2, dtype=complex)) - 1.0) < 1e-12

    def test_identical(self):
        states = np.array([ket(0, 2), ket(0, 2)])
        assert known_state_optimum(states) < 1e-12

    def test_real_overlap_closed_form(self):
        # oracle: 2x2 Gram eigenvalues are 1 ± s
        for s in (0.1, 0.5, 0.9):
            assert abs(known_state_optimum(pair_with_overlap(s)) - (1 - s)) < 1e-12


class TestEfficiencyBounds:
    def test_endpoints(self):
        assert efficiency_bounds(1.0, 2) == (0.25, 0.25)
        assert efficiency_bounds(0.0, 2) == (0.0, 0.0)
        lo, hi = efficiency_bounds(0.5, 2)
        assert abs(lo - 0.0625) < 1e-15 and abs(hi - 0.1875) < 1e-15  # 0.5·1.5/4

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            efficiency_bounds(1.5, 2)

    @pytest.mark.parametrize("n,m", [(2, 3), (3, 4)])
    def test_lower_bound_holds_and_orthonormal_saturates(self, n, m):
        # both ends are theorems: det X >= λ_min^n, and AM–GM on the other
        # n - 1 eigenvalues (sum n - λ_min) bounds det X from above
        povm = build_universal(m, n)
        rng = np.random.default_rng(55 + n)
        for _ in range(30):
            states = rand_independent_states(n, m, rng)
            p = success_prob_operational(povm, states, 1)
            lo, hi = efficiency_bounds(known_state_optimum(states), n)
            assert p >= lo - 1e-10
            assert p <= hi + 1e-10
        ortho = np.eye(m, dtype=complex)[:n]
        p = success_prob_operational(povm, ortho, 1)
        lo, hi = efficiency_bounds(known_state_optimum(ortho), n)
        assert abs(p - lo) < 1e-10 and abs(p - hi) < 1e-10

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("s", [-0.9, -0.5, -0.1, 0.0])
    def test_upper_end_attained_by_equal_negative_overlap(self, n, s):
        # Gram matrix (1-s)I + sJ: λ_min = 1 + (n-1)s, the other n-1 equal 1 - s
        s = s / (n - 1)
        gram_matrix = (1 - s) * np.eye(n) + s * np.ones((n, n))
        states = np.zeros((n, n + 1), dtype=complex)
        states[:, :n] = np.linalg.cholesky(gram_matrix)
        p = success_prob_operational(build_universal(n + 1, n), states, 1)
        _, hi = efficiency_bounds(known_state_optimum(states), n)
        assert abs(p - hi) < 1e-12

    def test_single_state_has_no_division_by_zero(self):
        assert efficiency_bounds(0.5, 1) == (0.5, 0.5)


class TestCovariance:
    @pytest.mark.parametrize(
        "factory",
        [lambda: build_universal(3, 2), lambda: build_optimal_equal(3),
         lambda: build_universal(4, 3)],
    )
    def test_builders_pass(self, factory):
        report = check_covariance(factory())
        assert report.passed
        assert report.unitary_residual <= 1e-9
        assert report.permutation_residual <= 1e-10
        assert report.reduction_residual <= 1e-9
        assert report.reduction_spread <= 1e-10

    def test_reduction_constant_value(self):
        # Tr of each element spreads over the register dimension
        povm = build_optimal_equal(3)
        report = check_covariance(povm)
        expected = float(np.trace(povm.elements[1]).real) / 3
        assert abs(report.reduction_constants[0] - expected) < 1e-10

    def test_mismatched_coefficients_fail_permutation_check(self):
        base = build_universal(3, 2)
        blocks = [e / base.c for e in base.elements[1:]]
        elements = [0.4 * blocks[0], 0.5 * blocks[1]]
        pi0 = np.eye(base.dim, dtype=complex) - sum(elements)
        lopsided = Povm(m=3, n=2, elements=(pi0, *elements))
        assert_valid(lopsided)
        report = check_covariance(lopsided)
        assert not report.permutation_ok
        assert not report.passed

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (3, 3), (4, 3)])
    def test_permutation_residual_matches_operator_conjugation(self, m, n):
        # oracle: (σ_P^{-1} ⊗ I) Π_i (σ_P ⊗ I) with the dense permutation operator; the residual
        # is taken over the adjacent transpositions, the verdict also over all of S_n
        def residual(elements, sigmas):
            worst = 0.0
            for sigma in sigmas:
                lifted = np.kron(permutation_operator(sigma, m), np.eye(m))
                for i in range(1, n + 1):
                    conjugated = lifted.conj().T @ elements[i] @ lifted
                    worst = max(worst, max_abs(conjugated - elements[sigma(i)]))
            return worst

        transpositions = [Permutation(tuple(range(1, k)) + (k + 1, k) + tuple(range(k + 2, n + 1)))
                          for k in range(1, n)]
        base = build_optimal_equal(n) if m == n else build_universal(m, n)
        rng = np.random.default_rng(59 + m + 10 * n)
        elements = [e.copy() for e in base.elements]
        for i in range(1, n + 1):
            a = rng.normal(size=(base.dim, base.dim)) + 1j * rng.normal(size=(base.dim, base.dim))
            elements[i] = elements[i] + 1e-3 * (a @ a.conj().T) / base.dim
        perturbed = Povm(m=m, n=n, elements=elements)
        for povm, covariant in ((base, True), (perturbed, False)):
            report = check_covariance(povm)
            assert report.permutation_residual == residual(povm.elements, transpositions)
            everything = residual(povm.elements, all_permutations(n))
            assert report.permutation_ok == (everything <= PERMUTATION_COV_TOL) == covariant
        assert report.permutation_residual > 1e-6
