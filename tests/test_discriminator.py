import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import permutation_operator, rand_independent_states, rand_states
from udisc.antisym import Permutation, _WeightSectors, _sign_entries, _weight_sectors, all_permutations
from udisc.discriminator import (
    FAMILIES,
    PERMUTATION_COV_TOL,
    Povm,
    ProgramInput,
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
    success_factor,
    success_prob_operational,
    verify_unambiguous,
)
from udisc.errors import CapExceeded, IndexOutOfRange, InvalidPovm, LayoutMismatch, WrongRegime
from udisc.io import read_povm, write_povm
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

    @pytest.mark.parametrize("make", [lambda s: program_input(s, 1), lambda s: ProgramInput(s, 1)],
                             ids=["program_input", "direct"])
    def test_keeps_a_read_only_copy_of_its_states(self, make):
        states = np.eye(3, dtype=complex)[:2].copy()
        inp = make(states)
        povm = build_universal(3, 2)
        sector = Povm(3, 2, sectors=povm._sectors)
        outcome_probabilities(sector, inp)  # the sector form reads, and keeps, inp.vector
        states[1] = np.array([1, 1, 0]) / np.sqrt(2)
        assert np.allclose(outcome_probabilities(povm, inp), [0.75, 0.25, 0], atol=1e-15)
        assert np.allclose(outcome_probabilities(sector, inp), [0.75, 0.25, 0], atol=1e-15)
        for array in (inp.states, inp.factors, inp.vector):
            with pytest.raises(ValueError):
                array[0] = 0.0


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
        with pytest.raises(InvalidPovm):  # a wrong count is refused when the Povm is made
            Povm(m=3, n=2, elements=povm.elements[:2])
        skew = np.zeros((27, 27), dtype=complex)
        skew[0, 1] = 1.0
        broken = Povm(m=3, n=2, elements=(povm.elements[0], povm.elements[1], skew))
        with pytest.raises(InvalidPovm):
            verify_unambiguous(broken)

    @pytest.mark.parametrize("case,message", [
        ("count", "expected 3 elements, got 2"),
        ("smaller", r"element 1 has shape \(9, 9\), expected \(27, 27\)"),
        ("larger", r"element 1 has shape \(81, 81\), expected \(27, 27\)"),
        ("one-d", r"element 1 has shape \(27,\), expected \(27, 27\)"),
    ], ids=["count", "smaller", "larger", "one-d"])
    def test_malformed_povm_refused_alike(self, case, message):
        # refused when the Povm is made, so verify_unambiguous and check_covariance never see it
        elements = list(build_universal(3, 2).elements)
        if case == "count":
            del elements[2]
        else:
            elements[1] = {"smaller": np.eye(9), "larger": np.eye(81),
                           "one-d": np.ones(27)}[case].astype(complex)
        with pytest.raises(InvalidPovm, match=f"^{message}$"):
            Povm(m=3, n=2, elements=elements)


    @pytest.mark.parametrize("check", [verify_unambiguous, check_covariance])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_element_is_refused(self, check, value):
        # refused when the Povm is made, so neither check is reached
        elements = [e.copy() for e in build_universal(3, 2).elements]
        elements[2][4, 4] = value  # a sector-diagonal entry, so no residual would flag it alone
        with pytest.raises(InvalidPovm, match=r"^element 2 holds a NaN or an infinity$"):
            check(Povm(m=3, n=2, elements=elements))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize("form", ["explicit", "sector"])
    def test_constructor_refuses_non_finite_entries_naming_the_element(self, form, part, value):
        built = build_universal(3, 2)
        entry = complex(value, 0) if part == "real" else complex(0, value)
        for k in range(3):
            if form == "explicit":
                entries = [e.copy() for e in built.elements]
                entries[k][5, 7] = entry  # outside the sectors: a dense-route element
            else:
                entries = [d.copy() for d in built._sectors]
                entries[k][-1] = entry
            with pytest.raises(InvalidPovm, match=f"^element {k} holds a NaN or an infinity$"):
                Povm(3, 2, **{"elements" if form == "explicit" else "sectors": entries})

    def test_constructor_checks_finiteness_without_a_temporary(self):
        # the least and largest parts are read in place: no bool or complex copy of an element
        elements = [np.asarray(e) for e in build_universal(4, 3).elements]
        tracemalloc.start()
        try:
            Povm(4, 3, elements=elements)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < elements[0].size

    @pytest.mark.parametrize("m,n", [(3, 2), (4, 3)])
    def test_sector_gather_is_counted_once_per_element(self, m, n, monkeypatch, tmp_path):
        """An explicit dense POVM is gathered once per element; a built POVM and a file
        read on the sector route hold their sector entries, so verify and covariance
        gather and scatter nothing."""
        explicit = Povm(m=m, n=n, elements=family_povm("universal", m, n).elements)
        path = tmp_path / "u.povm"
        write_povm(path, family_povm("universal", m, n))
        built, read = family_povm("universal", m, n), read_povm(path)
        gathers, scatters = [], []
        real_gather, real_scatter = _WeightSectors.gather, _WeightSectors.scatter
        monkeypatch.setattr(_WeightSectors, "gather",
                            lambda index, e: gathers.append(e) or real_gather(index, e))
        monkeypatch.setattr(_WeightSectors, "scatter",
                            lambda index, d: scatters.append(d) or real_scatter(index, d))
        assert verify_unambiguous(explicit).passed and check_covariance(explicit).passed
        assert [id(e) for e in gathers] == [id(e) for e in explicit.elements]
        assert scatters == []
        gathers.clear()
        for povm in (built, read):
            assert verify_unambiguous(povm).passed and check_covariance(povm).passed
            assert gathers == [] and scatters == []
        assert built._elements is None and read._elements is None


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


def rotated(povm, rng):
    """The explicit POVM V·Π_k·V† for a random unitary V: complex entries off every sector."""
    v, _ = np.linalg.qr(rng.normal(size=(povm.dim, povm.dim, 2)) @ [1, 1j])
    return Povm(povm.m, povm.n, elements=[v @ e @ v.conj().T for e in povm.elements])


# built and sector POVMs, and an explicit one zero outside its sectors, read d_k; the
# explicit rotated one has entries off every sector and takes the dense forms
PROBABILITY_POVMS = [build_universal(3, 2), rotated(build_universal(3, 2), np.random.default_rng(30)),
                     Povm(3, 2, sectors=build_universal(3, 2)._sectors),
                     Povm(3, 2, elements=build_universal(3, 2).elements)]
PROBABILITY_IDS = ["built", "explicit", "sector", "explicit-in-sectors"]


@pytest.mark.parametrize("povm", PROBABILITY_POVMS, ids=PROBABILITY_IDS)
def test_density_probabilities_match_the_product_trace(povm):
    # oracle: Tr(Π_k ρ) from the dim x dim product, on a random full-rank ρ
    a = np.random.default_rng(31).normal(size=(povm.dim, povm.dim, 2)) @ [1, 1j]
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    expected = [np.trace(e @ rho).real for e in povm.elements]
    assert max_abs(outcome_probabilities(povm, rho) - expected) <= 1e-12


@pytest.mark.parametrize("povm", PROBABILITY_POVMS, ids=PROBABILITY_IDS)
def test_vector_probabilities_match_the_quadratic_form(povm):
    # oracle: <v|Π_k|v> on the dense elements, for a random unit vector
    v = np.random.default_rng(33).normal(size=(povm.dim, 2)) @ [1, 1j]
    v /= np.linalg.norm(v)
    expected = [(v.conj() @ e @ v).real for e in povm.elements]
    assert max_abs(outcome_probabilities(povm, v) - expected) <= 1e-12


def test_sector_probabilities_scatter_no_dense_element():
    p = build_universal(4, 3)
    rng = np.random.default_rng(34)
    v, a = rng.normal(size=(256, 2)) @ [1, 1j], rng.normal(size=(256, 256, 2)) @ [1, 1j]
    explicit = Povm(4, 3, elements=build_universal(4, 3).elements)
    for inp in (v / np.linalg.norm(v), a @ a.conj().T / np.trace(a @ a.conj().T).real, np.eye(256) / 256):
        assert max_abs(outcome_probabilities(p, inp) - outcome_probabilities(explicit, inp)) <= 1e-12
    assert p._elements is None
    # a ProgramInput on a sector POVM goes through its vector, against the built closed form
    sector = Povm(4, 3, sectors=p._sectors)
    states = rand_independent_states(3, 4, np.random.default_rng(35))
    for j in range(1, 4):
        inp = program_input(states, j)
        assert max_abs(outcome_probabilities(sector, inp) - outcome_probabilities(p, inp)) <= 1e-12
    assert sector._elements is None and p._elements is None


class TestFamilyTable:
    """Π_i = a·Φ + b·(I_i ⊗ Φ_rest − Φ): the region of (a, b) and the built families' rows."""

    @staticmethod
    def weighted(m, n, a, b):
        """Sector POVM with Π_i = b·(I_i ⊗ Φ_rest) + (a − b)·Φ and Π_0 = I − Σ_i Π_i."""
        parts = [b * _sign_entries(m, n + 1, own=i) + (a - b) * _sign_entries(m, n + 1) for i in range(1, n + 1)]
        return Povm(m, n, sectors=[_weight_sectors(m, n + 1).identity - sum(parts), *parts])

    @pytest.mark.parametrize("m,n", [(4, 2), (4, 3), (5, 2), (5, 3), (6, 3)])
    def test_verify_passes_exactly_inside_the_region(self, m, n):
        # 0 ≤ a ≤ 1/n and 0 ≤ b ≤ n/(n+1) when m > n; every point is covariant
        for a in (-0.01, 0.0, 1 / (2 * n), 1 / n, 1 / n + 0.01):
            for b in (-0.01, 0.0, n / (2 * (n + 1)), n / (n + 1), n / (n + 1) + 0.01):
                povm = self.weighted(m, n, a, b)
                inside = 0 <= a <= 1 / n and 0 <= b <= n / (n + 1)
                assert verify_unambiguous(povm).passed == inside, (a, b)
                assert check_covariance(povm).passed, (a, b)

    @pytest.mark.parametrize("family", list(FAMILIES))
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_row_lies_inside_the_region(self, family, n):
        row = FAMILIES[family]
        a, b = row.weights(n)
        assert 0 <= b <= n / (n + 1)
        # a weighs Φ on all n+1 registers, which is 0 unless m > n
        if any(row.admits(m, n) for m in range(n + 1, n + 4)):
            assert 0 <= a <= 1 / n
        m = next(m for m in range(n, n + 4) if row.admits(m, n))
        assert family_povm(family, m, n).c == max(a, b)
        assert success_factor(family, n) == b / math.factorial(n)

    @pytest.mark.parametrize("family,m,n", [("optimal", 3, 3), ("universal", 4, 3), ("trivial", 4, 3),
                                            ("trivial", 3, 3), ("universal", 5, 2)])
    def test_rows_build_the_weighted_entries(self, family, m, n):
        a, b = FAMILIES[family].weights(n)
        for built, weighted in zip(family_povm(family, m, n)._sectors, self.weighted(m, n, a, b)._sectors):
            assert max_abs(built - weighted) <= 1e-15


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
        with pytest.raises(ValueError, match="^a POVM with no built family has no closed-form outcome probabilities$"):
            product_probabilities(leaky_counterexample(), np.eye(2, dtype=complex)[[0, 1, 0]])

    def test_sector_povm_has_no_closed_form(self):
        # what read_povm gives for a file written by udisc build
        povm = Povm(3, 2, sectors=build_universal(3, 2)._sectors)
        with pytest.raises(ValueError, match="^a POVM with no built family has no closed-form outcome probabilities$"):
            product_probabilities(povm, np.eye(3, dtype=complex))


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

    @pytest.mark.parametrize("elements", [[np.eye(27)] * 2, [np.eye(4)] * 3, [np.eye(27)] * 4])
    def test_residuals_cannot_be_reached_on_a_malformed_povm(self, elements):
        with pytest.raises(InvalidPovm):
            Povm(3, 2, elements=elements).residuals()

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

    @pytest.mark.parametrize("call", [
        lambda: efficiency_bounds(0.5, 0),
        lambda: efficiency_bounds(0.5, -1),
        lambda: success_factor("universal", 0),
        lambda: success_factor("trivial", 0),
        lambda: success_prob_analytic(np.zeros((0, 3), dtype=complex), "optimal"),
    ], ids=["bounds-0", "bounds-negative", "factor-0", "factor-trivial-0", "analytic-empty"])
    def test_fewer_than_one_state_is_refused_naming_n(self, call):
        with pytest.raises(ValueError, match=r"^need at least one state, got n=-?\d+$"):
            call()


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
        # is taken over the 2n−3 conjugations Π_i = (1 i)·Π_1 and (k k+1)·Π_1 = Π_1, the
        # verdict also over all of S_n, whose residual the documented bound caps
        def residual(elements, pairs):
            worst = 0.0
            for sigma, i in pairs:
                lifted = np.kron(permutation_operator(sigma, m), np.eye(m))
                conjugated = lifted.conj().T @ elements[i] @ lifted
                worst = max(worst, max_abs(conjugated - elements[sigma(i)]))
            return worst

        def transposition(a, b):
            images = list(range(1, n + 1))
            images[a - 1], images[b - 1] = b, a
            return Permutation(tuple(images))

        # (1 i)·Π_1 is compared with Π_{(1 i)(1)} = Π_i, (k k+1)·Π_1 with Π_1
        checks = ([(transposition(1, i), 1) for i in range(2, n + 1)]
                  + [(transposition(k, k + 1), 1) for k in range(2, n)])
        assert len(checks) == 2 * n - 3
        every = [(sigma, i) for sigma in all_permutations(n) for i in range(1, n + 1)]
        base = build_optimal_equal(n) if m == n else build_universal(m, n)
        rng = np.random.default_rng(59 + m + 10 * n)
        elements = [e.copy() for e in base.elements]
        for i in range(1, n + 1):
            a = rng.normal(size=(base.dim, base.dim)) + 1j * rng.normal(size=(base.dim, base.dim))
            elements[i] = elements[i] + 1e-3 * (a @ a.conj().T) / base.dim
        perturbed = Povm(m=m, n=n, elements=elements)
        for povm, covariant in ((base, True), (perturbed, False)):
            report = check_covariance(povm)
            assert report.permutation_residual == residual(povm.elements, checks)
            everything = residual(povm.elements, every)
            assert report.permutation_ok == (everything <= PERMUTATION_COV_TOL) == covariant
            assert everything <= (2 + (n - 1) * (n - 2) / 2) * report.permutation_residual
        assert report.permutation_residual > 1e-6


@pytest.mark.parametrize("call,error,message", [
    (lambda: Povm(2, 2, sectors=[np.zeros(3)] * 3), InvalidPovm,
     r"^element 0 has shape \(3,\), expected \(20,\)$"),
    (lambda: family_povm("best", 3, 2), ValueError, "unknown family 'best'"),
    (lambda: family_povm("universal", 3, 1), WrongRegime, "need at least two states, got n=1"),
    (lambda: family_povm("trivial", 2, 3), WrongRegime, "no discriminator is defined for m=2 < n=3"),
    (lambda: outcome_probabilities(build_universal(3, 2), np.eye(9)), LayoutMismatch,
     r"input matrix of shape \(9, 9\), POVM dimension 27"),
    (lambda: outcome_probabilities(build_universal(3, 2), np.zeros((3, 3, 3))), ValueError,
     "input must be a vector or a square matrix"),
    (lambda: success_factor("best", 2), ValueError, "unknown family 'best'"),
    # every rule a POVM value obeys is checked when the Povm is made
    (lambda: Povm(3, 2, family="bogus"), ValueError, r"^unknown family 'bogus'$"),
    (lambda: Povm(3, 2, family="optimal"), WrongRegime, r"^family 'optimal' needs m = n, got m=3, n=2$"),
    (lambda: Povm(2, 3, family="universal"), WrongRegime, r"^universal family needs m > n, got m=2, n=3"),
    (lambda: Povm(3, 1, family="trivial"), WrongRegime, r"^need at least two states, got n=1$"),
    (lambda: Povm(3, 2, elements=[np.eye(27)] * 2), InvalidPovm, r"^expected 3 elements, got 2$"),
    (lambda: Povm(3, 2, elements=[np.eye(4)] * 3), InvalidPovm,
     r"^element 0 has shape \(4, 4\), expected \(27, 27\)$"),
    (lambda: Povm(2, 0, elements=[np.eye(2)]), InvalidPovm, r"^m and n must be positive, got m=2, n=0$"),
    (lambda: Povm(-2, 1, elements=[np.eye(4)] * 2), InvalidPovm, r"^m and n must be positive, got m=-2, n=1$"),
    (lambda: Povm(0, 2, sectors=[np.zeros(1)] * 3), InvalidPovm, r"^m and n must be positive, got m=0, n=2$"),
    (lambda: Povm(2, -1, sectors=[]), InvalidPovm, r"^m and n must be positive, got m=2, n=-1$"),
], ids=["sector-count", "unknown-family", "one-state", "trivial-m<n", "input-shape", "input-rank",
        "success-factor-family", "povm-unknown-family", "povm-optimal-m!=n", "povm-universal-m<=n",
        "povm-trivial-one-state", "povm-count", "povm-shape", "povm-n=0", "povm-m<0", "povm-sector-m=0",
        "povm-sector-n<0"])
def test_refusals_name_the_defect(call, error, message):
    with pytest.raises(error, match=message):
        call()
