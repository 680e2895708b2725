import numpy as np
import pytest

from conftest import (
    Subspace,
    rand_density,
    rand_psd,
    rand_state,
    subspace_from_vectors,
    subspace_intersection,
    subspace_preimage,
    subspace_sum,
    support_projector,
)
from udisc.config import entry_cap
from udisc.errors import CapExceeded, IndexOutOfRange, LayoutMismatch, NotHermitian, NotPositive
from udisc import tensor_algebra
from udisc.tensor_algebra import (
    all_finite,
    as_state_set,
    eig_hermitian,
    fidelity,
    gram,
    gram_det,
    kron_chain,
    max_abs,
    partial_trace,
    psd_sqrt,
    reorder_factors,
    require_conjugate_pairs,
    require_hermitian,
    require_normalized,
)


def ket(index, dim):
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


class TestKron:
    def test_identity_case(self):
        assert np.array_equal(kron_chain([np.eye(2), np.eye(2)]), np.eye(4))

    def test_diagonal_case(self):
        out = kron_chain([np.diag([1.0, 2.0]), np.diag([3.0, 4.0])])
        assert np.allclose(out, np.diag([3.0, 4.0, 6.0, 8.0]))

    def test_spectrum_is_product_of_spectra(self):
        # oracle: eigendecompose both factors and the product independently
        rng = np.random.default_rng(3)
        a = rand_psd(2, rng)
        b = rand_psd(2, rng)
        wa = np.linalg.eigvalsh(a)
        wb = np.linalg.eigvalsh(b)
        expected = np.sort(np.outer(wa, wb).reshape(-1))
        actual = np.linalg.eigvalsh(kron_chain([a, b]))
        assert np.allclose(actual, expected, atol=1e-10)

    def test_first_factor_slowest(self):
        v = kron_chain([ket(1, 2), ket(0, 2)])
        assert np.array_equal(v, ket(2, 4))  # |10> sits at index 2

    def test_associativity_exact_in_index_layout(self):
        # small-integer entries keep every float product exact, so any
        # index-convention slip would show up as a hard mismatch
        rng = np.random.default_rng(4)
        a, b, c = (
            rng.integers(-3, 4, size=(2, 2)) + 1j * rng.integers(-3, 4, size=(2, 2))
            for _ in range(3)
        )
        left, right = kron_chain([kron_chain([a, b]), c]), kron_chain([a, kron_chain([b, c])])
        assert np.array_equal(left, right)

    def test_associativity_generic(self):
        rng = np.random.default_rng(41)
        a, b, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3))
        left, right = kron_chain([kron_chain([a, b]), c]), kron_chain([a, kron_chain([b, c])])
        assert max_abs(left - right) < 1e-12

    def test_cap(self):
        with entry_cap(2**10):
            with pytest.raises(CapExceeded):
                kron_chain([np.eye(64), np.eye(64)])
            with pytest.raises(CapExceeded):
                kron_chain([np.eye(8)] * 5)

    def test_budget_is_restored_when_the_block_exits(self):
        # 64 x 64 = 4096 entries: over 2**10, under the default
        with entry_cap(2**10):
            with pytest.raises(CapExceeded):
                kron_chain([np.eye(8), np.eye(8)])
        assert kron_chain([np.eye(8), np.eye(8)]).shape == (64, 64)
        with pytest.raises(CapExceeded):
            with entry_cap(2**10):
                kron_chain([np.eye(8), np.eye(8)])
        assert kron_chain([np.eye(8), np.eye(8)]).shape == (64, 64)


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(5)
        rho_a = rand_density(2, rng)
        rho_b = rand_density(2, rng)
        out = partial_trace(kron_chain([rho_a, rho_b]), (2, 2), {2})
        assert np.allclose(out, rho_a, atol=1e-12)
        out = partial_trace(kron_chain([rho_a, rho_b]), (2, 2), {1})
        assert np.allclose(out, rho_b, atol=1e-12)

    def test_maximally_entangled(self):
        bell = (ket(0, 4) + ket(3, 4)) / np.sqrt(2)
        rho = np.outer(bell, bell.conj())
        out = partial_trace(rho, (2, 2), {1})
        assert np.allclose(out, np.eye(2) / 2, atol=1e-12)

    @pytest.mark.parametrize("factors,traced", [((2, 2), {1}), ((2, 3), {2}), ((2, 2, 2), {1, 3})])
    def test_trace_preserved_and_positive(self, factors, traced):
        rng = np.random.default_rng(6)
        for _ in range(20):
            omega = rand_psd(int(np.prod(factors)), rng)
            reduced = partial_trace(omega, factors, traced)
            assert abs(np.trace(reduced) - np.trace(omega)) < 1e-10 * max(1, abs(np.trace(omega)))
            assert np.linalg.eigvalsh(reduced)[0] >= -1e-10

    def test_any_square_operator(self):
        # hermiticity is the caller's check: Tr_1(A ⊗ B) = Tr(A)·B for any A, B
        a = np.array([[1.0, 2.0], [0.0, 3j]])
        b = np.array([[0.0, 1.0], [-4.0, 2.0]])
        assert np.allclose(partial_trace(kron_chain([a, b]), (2, 2), {1}), (1 + 3j) * b, atol=1e-15)

    def test_finiteness_is_the_callers_check(self):
        # a Povm refuses a NaN once per element when it is made, before any check reaches this
        reduced = partial_trace(np.full((4, 4), np.nan), (2, 2), {1})
        assert reduced.shape == (2, 2) and np.isnan(reduced).all()

    def test_errors(self):
        with pytest.raises(LayoutMismatch):
            partial_trace(np.eye(4), (2, 3), {1})
        with pytest.raises(LayoutMismatch):
            partial_trace(np.ones(16), (2, 2), {1})
        with pytest.raises(IndexOutOfRange):
            partial_trace(np.eye(4), (2, 2), set())
        with pytest.raises(IndexOutOfRange):
            partial_trace(np.eye(4), (2, 2), {3})


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_all_finite_agrees_with_isfinite(value):
    rng = np.random.default_rng(5)
    for a in (rng.normal(size=(6, 6)), rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)),
              np.asfortranarray(np.eye(6, dtype=complex))[::2, 1::2]):
        assert all_finite(a)
        for at in ((0, 0), (-1, -1)):
            for imag in (False, True) if np.iscomplexobj(a) else (False,):
                bad = a.copy()
                bad[at] = complex(bad[at].real, value) if imag else value
                assert not all_finite(bad) and not np.isfinite(bad).all()
    assert all_finite(np.arange(4)) and all_finite(np.zeros(0)) and all_finite([[1.0, 2j]])


class TestReorderFactors:
    def test_round_trip_and_swap(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        ab = kron_chain([a, b])
        swapped = reorder_factors(ab, (2, 3), (2, 1))
        assert np.allclose(swapped, kron_chain([b, a]), atol=1e-13)
        assert np.allclose(reorder_factors(swapped, (3, 2), (2, 1)), ab, atol=1e-13)

    def test_vectors_and_operators_follow_one_rule(self):
        # a product vector's factors move like the factors of its projector;
        # reordering only moves entries, so the projector comparison is exact
        rng = np.random.default_rng(71)
        factors = (2, 3, 2)
        parts = [rand_state(d, rng) for d in factors]
        order = (3, 1, 2)
        product = kron_chain(parts)
        vec = reorder_factors(product, factors, order)
        assert max_abs(vec - kron_chain([parts[o - 1] for o in order])) < 1e-15
        op = reorder_factors(np.outer(product, product.conj()), factors, order)
        assert np.array_equal(op, np.outer(vec, vec.conj()))


class TestEigHermitian:
    def test_sorted_diag(self):
        w, _ = eig_hermitian(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [1.0, 2.0, 3.0])

    def test_flip(self):
        w, _ = eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [-1.0, 1.0])

    @pytest.mark.parametrize("dim", [2, 8, 64])
    def test_reconstruction(self, dim):
        rng = np.random.default_rng(dim)
        op = rand_psd(dim, rng) - rand_psd(dim, rng)
        w, v = eig_hermitian(op)
        rebuilt = (v * w) @ v.conj().T
        assert max_abs(rebuilt - op) <= 1e-10 * dim * max(1.0, max_abs(op))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestRequireHermitian:
    @pytest.mark.parametrize("dim", [4, 7, 64, 256])
    def test_deviation_is_the_direct_expression_bit_for_bit(self, dim, monkeypatch):
        rng = np.random.default_rng(dim)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        direct = max_abs(a - a.conj().T)
        with pytest.raises(NotHermitian) as refused:
            require_hermitian(a)
        assert str(refused.value) == f"hermiticity deviation {direct:.3e} exceeds tolerance"
        monkeypatch.setattr(tensor_algebra, "HERM_TOL", np.inf)
        assert require_conjugate_pairs(a, a.T.copy()) == direct

    def test_input_is_left_as_it_was(self):
        # a Fortran-ordered complex input is its own as_complex_matrix, and its
        # transpose is C-contiguous: the check must still work on a copy
        rng = np.random.default_rng(5)
        h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        a = np.asfortranarray(h + h.conj().T)
        assert a.T.flags.c_contiguous
        before = a.copy()
        assert require_hermitian(a) is a
        assert np.array_equal(a, before)


class TestGram:
    def test_orthonormal_pair(self):
        assert np.allclose(gram(np.eye(2)), np.eye(2))

    def test_pair_with_overlap(self):
        s = 0.6
        states = np.array([[1, 0], [s, np.sqrt(1 - s * s)]], dtype=complex)
        assert np.allclose(gram(states), [[1, s], [s, 1]], atol=1e-12)

    def test_dependent_triple_has_zero_det(self):
        states = np.array(
            [[1, 0, 0], [0, 1, 0], [1 / np.sqrt(2), 1 / np.sqrt(2), 0]], dtype=complex
        )
        assert gram_det(states) <= 1e-10

    def test_psd_and_rank_criterion(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            states = np.array([rand_state(3, rng) for _ in range(3)])
            x = gram(states)
            evals = np.linalg.eigvalsh(x)
            assert evals[0] >= -1e-10
            full_rank = np.sum(evals > 1e-10) == 3
            assert (gram_det(states) > 1e-10) == full_rank


class TestSupportAndSubspaces:
    """The subspace algebra of conftest, the oracle that core_decompose is compared against."""

    def test_rank_one_support(self):
        sub = support_projector(np.diag([1.0, 0.0]))
        assert sub.dim == 1
        assert sub.contains(ket(0, 2))

    def test_identity_support_is_full(self):
        assert support_projector(np.eye(3)).dim == 3

    def test_zero_operator(self):
        assert support_projector(np.zeros((3, 3))).dim == 0

    def test_rejects_negative(self):
        with pytest.raises(NotPositive):
            support_projector(np.diag([1.0, -0.5]))

    def test_projector_leaves_operator_invariant(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = rand_psd(4, rng, rank=rng.integers(1, 5))
            p = support_projector(a).projector()
            assert max_abs(p @ a @ p - a) <= 1e-9 * max(1.0, max_abs(a))

    def test_intersection_of_disjoint_spans(self):
        a = subspace_from_vectors(ket(0, 2))
        b = subspace_from_vectors(ket(1, 2))
        assert subspace_intersection(a, b).dim == 0

    def test_sum_of_spans(self):
        a = subspace_from_vectors(ket(0, 2))
        b = subspace_from_vectors(ket(1, 2))
        s = subspace_sum(a, b)
        assert s.dim == 2
        assert max_abs(s.projector() - np.eye(2)) < 1e-12

    def test_intersection_generic(self):
        # two 2-d subspaces of a 3-d space sharing exactly one direction
        a = subspace_from_vectors([ket(0, 3), ket(1, 3)])
        b = subspace_from_vectors([ket(1, 3), ket(2, 3)])
        inter = subspace_intersection(a, b)
        assert inter.dim == 1
        assert inter.contains(ket(1, 3))

    def test_preimage_under_scaled_identity(self):
        # oracle: null space of (I - |0><0|) I/sqrt(2) is span{|0>}
        target = subspace_from_vectors(ket(0, 2))
        pre = subspace_preimage(target, np.eye(2) / np.sqrt(2))
        assert pre.dim == 1
        assert pre.contains(ket(0, 2))

    def test_orthonormality_enforced(self):
        with pytest.raises(ValueError):
            Subspace(2, np.array([[1.0], [1.0]], dtype=complex))


class TestFidelity:
    def test_self_fidelity_is_one(self):
        rng = np.random.default_rng(10)
        rho = rand_density(3, rng)
        assert abs(fidelity(rho, rho) - 1.0) < 1e-10

    def test_orthogonal_supports(self):
        assert fidelity(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) < 1e-12

    def test_pure_sigma_matches_quadratic_form(self):
        rng = np.random.default_rng(11)
        rho = rand_density(2, rng)
        phi = rand_state(2, rng)
        sigma = np.outer(phi, phi.conj())
        assert abs(fidelity(rho, sigma) ** 2 - float((phi.conj() @ rho @ phi).real)) < 1e-10

    def test_rejects_negative(self):
        with pytest.raises(NotPositive):
            fidelity(np.diag([1.5, -0.5]), np.eye(2) / 2)

    def test_psd_sqrt_squares_back(self):
        rng = np.random.default_rng(12)
        rho = rand_psd(4, rng, rank=2)
        root = psd_sqrt(rho)
        assert max_abs(root @ root - rho) < 1e-10 * max(1.0, max_abs(rho))


class TestPositiveOperatorInequalities:
    """Marginal inequalities for a PSD operator on a bipartite system.

    For PSD Ω and a product unit vector φ = φ_a ⊗ φ_b, positivity gives
    <φ|Ω|φ> <= <φ_a|Tr_B(Ω)|φ_a> and symmetrically in b, hence
    <φ|Ω|φ>² <= <φ_a|Tr_B(Ω)|φ_a>·<φ_b|Tr_A(Ω)|φ_b>.  (The <φ|Ω|φ>·Tr(Ω)
    variant of the left side is not a theorem; acceptance criterion 11 checks
    the statements above on its own draws and keeps the 2x2 counterexample
    to that variant.)
    """

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_marginal_inequalities(self, dims):
        da, db = dims
        rng = np.random.default_rng(da * 10 + db)
        for _ in range(200):
            omega = rand_psd(da * db, rng, rank=int(rng.integers(1, da * db + 1)))
            va, vb = rand_state(da, rng), rand_state(db, rng)
            v = kron_chain([va, vb])
            q = float((v.conj() @ omega @ v).real)
            qa = float((va.conj() @ partial_trace(omega, dims, {2}) @ va).real)
            qb = float((vb.conj() @ partial_trace(omega, dims, {1}) @ vb).real)
            assert q <= qa + 1e-10
            assert q <= qb + 1e-10
            assert q * q <= qa * qb + 1e-10

    def test_zero_operator_is_trivially_fine(self):
        dims = (2, 2)
        omega = np.zeros((4, 4))
        v = kron_chain([ket(0, 2), ket(1, 2)])
        assert float((v.conj() @ omega @ v).real) == 0.0
        assert max_abs(partial_trace(omega, dims, {1})) == 0.0

    def test_vanishing_marginal_forces_vanishing_overlap(self):
        # the load-bearing corollary: <φa|Tr_B(Ω)|φa> = 0 forces <φ|Ω|φ> = 0
        rng = np.random.default_rng(21)
        p1 = np.diag([0.0, 1.0]).astype(complex)  # kills |0> on A
        omega = kron_chain([p1, rand_psd(2, rng)])
        dims = (2, 2)
        va = ket(0, 2)
        assert float((va.conj() @ partial_trace(omega, dims, {2}) @ va).real) < 1e-12
        vb = rand_state(2, rng)
        v = kron_chain([va, vb])
        assert float((v.conj() @ omega @ v).real) < 1e-12


def _line(ambient):
    return Subspace(ambient, np.eye(ambient, 1, dtype=complex))


@pytest.mark.parametrize("call,error,message", [
    (lambda: require_hermitian(np.zeros(3)), ValueError, r"expected a matrix, got array of shape \(3,\)"),
    (lambda: as_state_set(np.zeros((2, 2, 2))), ValueError,
     r"expected a set of state vectors, got shape \(2, 2, 2\)"),
    (lambda: require_normalized([[2.0, 0.0]]), ValueError, "state vectors must be normalized"),
    (lambda: require_hermitian(np.zeros((2, 3))), NotHermitian, r"matrix of shape \(2, 3\) is not square"),
    (lambda: kron_chain([]), ValueError, "kron_chain needs at least one factor"),
    (lambda: reorder_factors(np.zeros(4), [2, 2], [1, 1]), ValueError,
     r"order \[1, 1\] is not a permutation of 1\.\.2"),
    (lambda: Subspace(3, np.zeros((2, 1))), ValueError, r"basis shape \(2, 1\) does not match ambient 3"),
    (lambda: _line(2).contains(np.zeros(3)), LayoutMismatch,
     "vector dimension does not match ambient dimension"),
    (lambda: subspace_preimage(_line(2), np.eye(3)), LayoutMismatch,
     "map dimension does not match subspace ambient dimension"),
    (lambda: subspace_sum(_line(2), _line(3)), LayoutMismatch,
     r"subspaces live in different ambient dimensions \(2 vs 3\)"),
    (lambda: fidelity(np.eye(2) / 2, np.eye(3) / 3), LayoutMismatch, "fidelity arguments must share a dimension"),
    (lambda: fidelity(np.eye(2), np.eye(2) / 2), ValueError, r"rho has trace 2\.0 > 1"),
    (lambda: fidelity(np.eye(2) / 2, np.eye(2)), ValueError, r"sigma has trace 2\.0 > 1"),
], ids=["not-a-matrix", "not-a-state-set", "unnormalized", "not-square", "empty-chain", "bad-order",
        "basis-shape", "contains-dimension", "preimage-dimension", "sum-dimensions",
        "fidelity-dimensions", "rho-trace", "sigma-trace"])
def test_refusals_name_the_defect(call, error, message):
    with pytest.raises(error, match=message):
        call()
