import itertools
import re
import time

import numpy as np
import pytest

from udisc import gram_spectra
from udisc.antisym import antisym_basis_vector
from udisc.config import entry_cap
from udisc.discriminator import auto_family, build_optimal_equal, build_universal, family_povm
from udisc.errors import CapExceeded, WrongRegime
from udisc.gram_spectra import (
    build_basis_vectors,
    c_optimal,
    extremal_eigenvalues,
    gamma_block_matrix,
    gram_closed_form,
    gram_numeric,
    lambda_block_matrix,
)
from udisc.tensor_algebra import max_abs, reorder_factors

ALL_REGIMES = [(2, 2), (3, 3), (3, 2), (4, 2), (5, 2), (4, 3), (5, 3)]


class TestBasisVectors:
    def test_label_count_equal_regime(self):
        lv = build_basis_vectors(2, 2)
        assert len(lv.labels) == 4  # i in {1,2}, k in {1,2}, single tuple

    def test_label_count_universal_regime(self):
        lv = build_basis_vectors(3, 2)
        assert len(lv.labels) == 18  # 2 registers x 3 levels x 3 tuples

    def test_unit_norms(self):
        lv = build_basis_vectors(3, 2)
        norms = np.linalg.norm(lv.vectors, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_wrong_regime(self):
        with pytest.raises(WrongRegime):
            build_basis_vectors(2, 3)

    def test_canonical_order(self):
        lv = build_basis_vectors(3, 2)
        assert lv.labels[:4] == ((1, 1, (1, 2)), (1, 2, (1, 2)), (1, 3, (1, 2)), (1, 1, (1, 3)))


class TestGramNumeric:
    def test_equal_regime_blocks(self):
        g = gram_numeric(build_basis_vectors(2, 2)).matrix
        assert np.allclose(g[:2, :2], np.eye(2), atol=1e-12)  # diagonal block
        assert np.allclose(g[:2, 2:], np.eye(2) / 2, atol=1e-12)  # off-diagonal +I/2

    def test_unshared_levels_vanish(self):
        gs = gram_numeric(build_basis_vectors(3, 2))
        labels = gs.labels
        for a, (i, k, s) in enumerate(labels):
            for b, (j, l, t) in enumerate(labels):
                if i != j and k != l and tuple(sorted(s + (k,))) != tuple(sorted(t + (l,))):
                    assert abs(gs.matrix[a, b]) < 1e-12


class TestClosedForm:
    @pytest.mark.parametrize("m,n", ALL_REGIMES)
    def test_matches_numeric(self, m, n):
        gn = gram_numeric(build_basis_vectors(m, n))
        gc = gram_closed_form(m, n)
        assert gn.labels == gc.labels
        assert max_abs(gn.matrix - gc.matrix) < 1e-10

    def test_lambda_block_structure(self):
        # oracle: Gram of the six vectors |k>_i |φ_{ξ-k}>, built directly,
        # ordered (register, position of k in ξ)
        m, n = 3, 2
        xi = (1, 2, 3)
        dims = [m] * (n + 1)
        eye = np.eye(m, dtype=complex)
        vectors = []
        for i in (1, 2):
            slot_labels = [i] + [r for r in range(1, n + 2) if r != i]
            order = [slot_labels.index(j) + 1 for j in range(1, n + 2)]
            for k in xi:
                rest = tuple(x for x in xi if x != k)
                vec = np.kron(eye[k - 1], antisym_basis_vector(rest, m))
                vectors.append(reorder_factors(vec, dims, order))
        vectors = np.array(vectors)
        direct = vectors.conj() @ vectors.T
        assert max_abs(direct - lambda_block_matrix(2)) < 1e-12

    def test_block_counts_4_2(self):
        parts = gram_closed_form(4, 2).block_partition()
        kinds = [k for k, _ in parts]
        assert kinds.count("gamma") == 6  # C(4,2)
        assert kinds.count("lambda") == 4  # C(4,3)

    def test_spectrum_invariant_under_label_shuffle(self):
        gs = gram_closed_form(3, 2)
        rng = np.random.default_rng(61)
        perm = rng.permutation(gs.matrix.shape[0])
        shuffled = gs.matrix[np.ix_(perm, perm)]
        assert np.allclose(
            np.linalg.eigvalsh(shuffled), np.linalg.eigvalsh(gs.matrix), atol=1e-10
        )


class TestExtremalEigenvalues:
    def test_equal_regime_values(self):
        summary = extremal_eigenvalues(gram_closed_form(2, 2))
        assert abs(summary.lambda_max - 1.5) < 1e-9
        summary = extremal_eigenvalues(gram_closed_form(3, 3))
        assert abs(summary.lambda_max - 4 / 3) < 1e-9

    def test_universal_regime_blocks(self):
        summary = extremal_eigenvalues(gram_closed_form(3, 2))
        assert abs(summary.max_over("gamma") - 1.5) < 1e-9
        assert abs(summary.max_over("lambda") - 2.0) < 1e-9
        assert abs(summary.lambda_max - 2.0) < 1e-9

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_standalone_block_maxima(self, n):
        assert abs(np.linalg.eigvalsh(gamma_block_matrix(n))[-1] - (n + 1) / n) < 1e-9
        assert abs(np.linalg.eigvalsh(lambda_block_matrix(n))[-1] - n) < 1e-9

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2)])
    def test_operator_spectrum_matches_gram(self, m, n):
        # nonzero spectrum of Σ |v><v| equals the spectrum of the Gram matrix
        lv = build_basis_vectors(m, n)
        op = lv.vectors.T @ lv.vectors.conj()
        op_evals = np.linalg.eigvalsh(op)
        g_evals = np.linalg.eigvalsh(gram_numeric(lv).matrix)
        dim = op.shape[0]
        padded = np.sort(np.concatenate([g_evals, np.zeros(dim - len(g_evals))])) \
            if dim > len(g_evals) else np.sort(g_evals)[-dim:]
        assert np.allclose(np.sort(op_evals), padded, atol=1e-9)


class TestCOptimal:
    @pytest.mark.parametrize("m,n,expected", [(2, 2, 2 / 3), (3, 2, 1 / 2), (4, 3, 1 / 3)])
    def test_values(self, m, n, expected):
        c = c_optimal(m, n)
        assert abs(c - expected) < 1e-9
        assert abs(c * (1 / c) - 1.0) < 1e-15
        # oracle: the largest eigenvalue of the Gram matrix of the explicit vectors
        lam = np.linalg.eigvalsh(gram_numeric(build_basis_vectors(m, n)).matrix)[-1]
        assert abs(c - 1 / lam) < 1e-12

    def test_blocks_need_no_basis_vectors(self):
        # 8400 vectors of length 10^5 would exceed the default dense budget
        assert abs(c_optimal(10, 4) - 1 / 4) < 1e-12
        with pytest.raises(WrongRegime):
            c_optimal(3, 4)

    @pytest.mark.parametrize("m,n", [(1, 1), (3, 1)])
    def test_needs_two_states(self, m, n):
        with pytest.raises(WrongRegime, match="at least two states"):
            c_optimal(m, n)

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (4, 3)])
    def test_builders_at_c_optimal_stay_positive(self, m, n):
        povm = build_optimal_equal(n) if m == n else build_universal(m, n)
        assert abs(povm.c - c_optimal(m, n)) < 1e-9
        assert min(povm.residuals()[0]) >= -1e-9

    @pytest.mark.parametrize("m,n", [(3, 4), (2, 5)])
    def test_regime_refusal_is_family_povms(self, m, n):
        with pytest.raises(WrongRegime) as refused:
            family_povm(auto_family(m, n), m, n)
        with pytest.raises(WrongRegime, match=re.escape(str(refused.value))):
            c_optimal(m, n)


def entrywise_gamma(n):
    """Γ block from its entry rule, one entry at a time."""
    g = np.zeros((n * n, n * n))
    for i, j in itertools.product(range(n), repeat=2):
        sub = np.eye(n) if i == j else (-1.0 if (i - j + 1) % 2 else 1.0) / n * np.eye(n)
        g[i * n:(i + 1) * n, j * n:(j + 1) * n] = sub
    return g.astype(complex)


def entrywise_lambda(n):
    """Λ block from its entry rule, one entry at a time."""
    width = n + 1
    g = np.zeros((n * width, n * width))
    for i, k, j, l in itertools.product(range(n), range(width), range(n), range(width)):
        if i == j and k == l:
            g[i * width + k, j * width + l] = 1.0
        elif i != j and k != l:
            g[i * width + k, j * width + l] = (-1.0 if (i - j + k - l) % 2 else 1.0) / n
    return g.astype(complex)


class TestSizedFromMN:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_blocks_match_the_entry_rules_bit_for_bit(self, n):
        # the Γ block's zeros off the sub-block diagonals carry the sign of their coefficient
        assert np.array_equal(gamma_block_matrix(n).view(np.int64), entrywise_gamma(n).view(np.int64))
        assert np.array_equal(lambda_block_matrix(n).view(np.int64), entrywise_lambda(n).view(np.int64))

    @pytest.mark.parametrize("build,args,entries", [
        (gamma_block_matrix, (5,), 625),
        (lambda_block_matrix, (4,), 400),
        (gram_closed_form, (3, 2), 324),
    ])
    def test_refused_over_a_small_cap(self, build, args, entries):
        with entry_cap(256), pytest.raises(CapExceeded, match=f"with {entries} complex entries"):
            build(*args)

    def test_equal_regime_forms_no_lambda_block(self):
        # (4, 4): 16 labels, a 256-entry Gram matrix; the 400-entry Λ block is not needed
        with entry_cap(256):
            assert gram_closed_form(4, 4).matrix.shape == (16, 16)

    def test_nothing_is_listed_to_size_or_to_decide_the_regime(self, monkeypatch):
        def unlisted(m, n):
            raise AssertionError(f"increasing_tuples({m}, {n}) called")

        monkeypatch.setattr(gram_spectra, "increasing_tuples", unlisted)
        with pytest.raises(CapExceeded):
            build_basis_vectors(40, 3)  # 1,185,600 labels
        assert abs(c_optimal(24, 12) - 1 / 12) < 1e-9  # C(24, 12) = 2,704,156 tuples

    @pytest.mark.parametrize("build", [build_basis_vectors, gram_closed_form])
    @pytest.mark.parametrize("m,n", [(10**6, 10**6 - 1), (10**6, 5 * 10**5)])
    def test_huge_m_is_refused_by_bit_length(self, build, m, n):
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match=r"at least 2\^"):
            build(m, n)
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("call,error,message", [
    (lambda: extremal_eigenvalues(gram_closed_form(2, 2)).max_over("lambda"), KeyError,
     "no 'lambda' blocks present"),
], ids=["no-lambda-block"])
def test_refusals_name_the_defect(call, error, message):
    with pytest.raises(error, match=message):
        call()
