import math
import time

import numpy as np
import pytest

from conftest import permutation_operator, permutation_sum_projector, rand_state, rand_states, validate
from udisc.antisym import (
    Permutation,
    all_permutations,
    antisym_basis_vector,
    antisym_projector,
    antisym_projector_from_basis,
    increasing_tuples,
    wedge,
)
from udisc.config import entry_cap
from udisc.errors import CapExceeded
from udisc.tensor_algebra import gram_det, kron_chain, max_abs


def ket(index, dim):
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))

    @pytest.mark.parametrize(
        "images,sign",
        [((1, 2, 3), 1), ((2, 1, 3), -1), ((2, 3, 1), 1), ((3, 2, 1), -1), ((1, 2), 1)],
    )
    def test_sign(self, images, sign):
        assert Permutation(images).sign == sign

    @pytest.mark.parametrize("n", range(1, 7))
    def test_sign_is_the_determinant_of_the_permutation_matrix(self, n):
        # an oracle apart from both parity rules: det of the matrix taking e_k to e_images[k]
        for sigma in all_permutations(n):
            matrix = np.zeros((n, n))
            matrix[np.array(sigma.images) - 1, np.arange(n)] = 1.0
            assert sigma.sign == round(np.linalg.det(matrix))

    def test_inverse(self):
        p = Permutation((2, 3, 1))
        q = p.inverse()
        ident = Permutation.identity(3)
        assert p.compose(q) == ident and q.compose(p) == ident

    def test_identity_operator(self):
        assert np.array_equal(permutation_operator(Permutation.identity(2), 3), np.eye(9))

    def test_swap_moves_basis_vector(self):
        swap = Permutation((2, 1))
        op = permutation_operator(swap, 2)
        v01 = kron_chain([ket(0, 2), ket(1, 2)])
        v10 = kron_chain([ket(1, 2), ket(0, 2)])
        assert np.array_equal(op @ v01, v10)

    def test_unitary_exactly(self):
        for sigma in all_permutations(3):
            op = permutation_operator(sigma, 2)
            assert np.array_equal(op @ op.conj().T, np.eye(8))

    def test_representation_property(self):
        # oracle: matrix product of the two operators
        for a in all_permutations(3):
            for b in all_permutations(3):
                lhs = permutation_operator(a.compose(b), 2)
                rhs = permutation_operator(a, 2) @ permutation_operator(b, 2)
                assert np.array_equal(lhs, rhs)


class TestWedge:
    def test_two_basis_states(self):
        v = wedge(np.eye(2))
        v01, v10 = kron_chain([ket(0, 2), ket(1, 2)]), kron_chain([ket(1, 2), ket(0, 2)])
        expected = (v01 - v10) / np.sqrt(2)
        assert np.allclose(v, expected, atol=1e-12)

    def test_repeated_state_vanishes(self):
        v = wedge(np.array([ket(0, 2), ket(0, 2)]))
        assert max_abs(v) < 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_norm_squared_equals_gram_det(self, n):
        rng = np.random.default_rng(30 + n)
        for m in range(n, 6):
            for _ in range(25):
                states = rand_states(n, m, rng)
                v = wedge(states)
                assert abs(np.vdot(v, v).real - gram_det(states)) < 1e-10

    def test_antisymmetry_under_exchange(self):
        rng = np.random.default_rng(33)
        states = rand_states(2, 4, rng)
        swapped = states[::-1]
        assert max_abs(wedge(states) + wedge(swapped)) < 1e-12

    def test_three_states_in_dim_four(self):
        rng = np.random.default_rng(34)
        states = rand_states(3, 4, rng)
        v = wedge(states)
        assert abs(np.vdot(v, v).real - gram_det(states)) < 1e-10


class TestIncreasingTuples:
    def test_enumeration_3_2(self):
        assert increasing_tuples(3, 2) == [(1, 2), (1, 3), (2, 3)]

    def test_count_4_2(self):
        assert len(increasing_tuples(4, 2)) == 6

    def test_count_5_3(self):
        assert len(increasing_tuples(5, 3)) == 10

    def test_empty_when_n_exceeds_m(self):
        assert increasing_tuples(2, 3) == []


class TestBasisVectors:
    def test_smallest_case(self):
        v = antisym_basis_vector((1, 2), 2)
        v01, v10 = kron_chain([ket(0, 2), ket(1, 2)]), kron_chain([ket(1, 2), ket(0, 2)])
        expected = (v01 - v10) / np.sqrt(2)
        assert np.allclose(v, expected, atol=1e-12)

    def test_orthonormal_family(self):
        tuples = increasing_tuples(4, 2)
        vs = np.array([antisym_basis_vector(t, 4) for t in tuples])
        assert max_abs(vs.conj() @ vs.T - np.eye(len(tuples))) < 1e-12

    def test_sum_of_projectors_equals_permutation_route(self):
        tuples = increasing_tuples(3, 2)
        vs = [antisym_basis_vector(t, 3) for t in tuples]
        summed = sum(np.outer(v, v.conj()) for v in vs)
        assert max_abs(summed - antisym_projector(3, 2).matrix) < 1e-10

    def test_rejects_bad_tuple(self):
        with pytest.raises(ValueError):
            antisym_basis_vector((2, 1), 3)


class TestAntisymProjector:
    def test_two_qubit_singlet(self):
        proj = antisym_projector(2, 2)
        v = wedge(np.eye(2))
        assert max_abs(proj.matrix - np.outer(v, v.conj())) < 1e-12

    def test_trace_4_2(self):
        assert abs(np.trace(antisym_projector(4, 2).matrix).real - 6) < 1e-9

    def test_zero_when_n_exceeds_m(self):
        assert max_abs(antisym_projector(2, 3).matrix) == 0.0

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (4, 2), (3, 3), (4, 3), (4, 4)])
    def test_invariants(self, m, n):
        validate(antisym_projector(m, n))

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2), (3, 2), (2, 3), (3, 3), (4, 3), (4, 4),
                                     (5, 3), (3, 5)])
    def test_bits_of_the_permutation_sum(self, m, n):
        # oracle: (1/n!) Σ_σ sgn(σ)·σ accumulated over all n! permutations
        got = antisym_projector(m, n).matrix
        assert np.array_equal(got.view(np.int64), permutation_sum_projector(m, n).view(np.int64))

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3)])
    def test_routes_agree(self, m, n):
        a = antisym_projector(m, n).matrix
        b = antisym_projector_from_basis(m, n).matrix
        assert max_abs(a - b) < 1e-10


def antisym_overlap(states) -> float:
    """Oracle: <ψ_1…ψ_n| Φ(n) |ψ_1…ψ_n> from the dense projector, cross-checked
    against det(X)/n!.  Zero exactly when the states are linearly dependent."""
    s = np.asarray(states, dtype=complex)
    n, m = s.shape
    vec = kron_chain(s)
    value = float((vec.conj() @ antisym_projector(m, n).matrix @ vec).real)
    expected = gram_det(s) / math.factorial(n)
    assert abs(value - expected) <= 1e-10 * max(1.0, abs(expected))
    return value


class TestAntisymOverlap:
    def test_orthonormal_pair(self):
        assert abs(antisym_overlap(np.eye(2)) - 0.5) < 1e-12

    def test_dependent_triple(self):
        states = np.array(
            [[1, 0, 0], [0, 1, 0], [1 / np.sqrt(2), 1 / np.sqrt(2), 0]], dtype=complex
        )
        assert antisym_overlap(states) < 1e-12

    def test_pair_with_overlap(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            a, b = rand_state(3, rng), rand_state(3, rng)
            s = complex(np.vdot(a, b))
            expected = (1 - abs(s) ** 2) / 2
            assert abs(antisym_overlap(np.array([a, b])) - expected) < 1e-10


@pytest.mark.parametrize("build", [antisym_projector, antisym_projector_from_basis])
class TestProjectorSizing:
    def test_dimension_past_the_text_limit_is_refused(self, build):
        # 10^4301 has more digits than Python converts to text
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match=r"10\^4301x10\^4301 antisymmetric projector"):
            build(10, 4301)
        assert time.perf_counter() - start < 1.0

    def test_numpy_integers_are_sized_as_python_integers(self, build):
        # np.int64(2) ** 40 squared wraps to 0 in int64
        with pytest.raises(CapExceeded):
            build(np.int64(2), np.int64(40))
        with entry_cap(256):
            assert build(np.int64(2), np.int64(4)).matrix.shape == (16, 16)


@pytest.mark.parametrize("call,message", [
    (lambda: Permutation((2, 1)).compose(Permutation((1, 2, 3))), "cannot compose permutations of different degree"),
    (lambda: increasing_tuples(3, 0), "tuple length must be at least 1"),
    (lambda: antisym_projector(2, 0), "need at least one register"),
], ids=["compose-degrees", "empty-tuple", "no-register"])
def test_refusals_name_the_defect(call, message):
    with pytest.raises(ValueError, match=message):
        call()
