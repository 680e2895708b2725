"""The verify routes against their dense oracles.

``verify`` reads minimum eigenvalues from weight-sector blocks and checks
unitary invariance exactly on the sector support: the off-sector mass of
each element, its change under the level permutations (0 1) and
(0 1 … m−1) on every register, and its commutator with dΓ(E) = Σ_r E_r for
E = |0><1|, taken as gathers from the element.  Each element zero outside
its sectors is checked for hermiticity on its sector entries, and when every
element is, completeness and permutation covariance are read from the sector
entries too.  The dense routes live
here: the same residual with the sector mask built from level_multiset and
P^⊗(n+1) and dΓ(E) lifted by kron_chain (matched within 1e-14), the
earlier criterion's commutator with dΓ(C) for the cyclic shift C, the
2(m−1) raising and lowering generators lifted by kron_chain, the
Haar-random U^⊗(n+1) lifted by kron_chain (these three on pass/fail), one
eigvalsh per element, and the whole dense verify and covariance check
(dense_verify, dense_covariance: a dense hermiticity and finiteness pass,
ΣΠ − I, and reorder_factors conjugations).  The routes take the dense
fallback when an element leaves its sectors, give the dense verdicts,
errors and residuals (within 1e-14), and fail the same perturbed POVMs.
"""

import contextlib
import dataclasses
import importlib
import io
import itertools
import pkgutil
import tracemalloc
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import permutation_operator, rand_psd, rand_unitary, sector_columns
import udisc
from udisc import tensor_algebra
from udisc import discriminator
from udisc.antisym import Permutation, _weight_sectors, all_permutations, antisym_projector
from udisc.config import HERM_TOL
from udisc.discriminator import (
    LEAKAGE_TOL,
    PERMUTATION_COV_TOL,
    PSD_RESIDUAL_TOL,
    UNITARY_COV_TOL,
    CovarianceReport,
    Povm,
    VerificationReport,
    _unitary_residual,
    check_covariance,
    family_povm,
    outcome_probabilities,
    verify_unambiguous,
)
from udisc.cli import main
from udisc.errors import InvalidPovm
from udisc.io import read_povm, write_povm
from udisc.tensor_algebra import as_complex_matrix, kron_chain, max_abs, partial_trace, reorder_factors

ROUTE_TOL = 1e-14
CASES = [("universal", 3, 2), ("optimal", 3, 3), ("universal", 5, 2),
         ("universal", 4, 3), ("trivial", 4, 3)]


def haar_lift_residual(povm, trials, seed):
    """Oracle: conjugate every element by the lifted kron_chain([u] * (n+1))."""
    rng = np.random.default_rng(seed)
    residual = 0.0
    for _ in range(trials):
        u = rand_unitary(povm.m, rng)
        lifted = kron_chain([u] * (povm.n + 1))
        for e in povm.elements:
            residual = max(residual, max_abs(lifted @ e @ lifted.conj().T - e))
    return residual


def matrix_unit(m, row, col):
    unit = np.zeros((m, m), dtype=complex)
    unit[row, col] = 1.0
    return unit


def raising_and_lowering(m):
    return [matrix_unit(m, a, b) for low in range(m - 1)
            for a, b in ((low, low + 1), (low + 1, low))]


def lift(g, count):
    """dΓ(g) = Σ_r kron_chain of I and g on register r, over count registers."""
    eye = np.eye(len(g))
    return sum(kron_chain([eye] * r + [g] + [eye] * (count - 1 - r)) for r in range(count))


def generator_lift_residual(povm, generators):
    """Oracle: max_abs(dΓ(E)Π − ΠdΓ(E)) with dΓ(E) lifted by kron_chain."""
    residual = 0.0
    for g in generators:
        lifted = lift(g, povm.n + 1)
        for e in povm.elements:
            residual = max(residual, max_abs(lifted @ e - e @ lifted))
    return residual


def dense_psd_mins(povm):
    """Oracle: one dense eigensolve per element."""
    return [float(np.linalg.eigvalsh(e)[0]) for e in povm.elements]


def level_multiset(index, m, count):
    return sorted(index // m**k % m for k in range(count))


@cache
def same_sector(m, count):
    """Mask of the basis pairs (i, j) that share a multiset of levels."""
    labels = [tuple(level_multiset(i, m, count)) for i in range(m**count)]
    return np.array([[a == b for b in labels] for a in labels])


def cyclic_shift(m):
    """C = Σ_a |a+1 mod m><a|."""
    return np.roll(np.eye(m), 1, axis=0)


def sector_cyclic_residual(povm):
    """Verdict oracle for unitary_residual: max over k of the off-sector mass δ_k and
    max_abs([dΓ(C), D_k]), with D_k masked by level_multiset and dΓ(C) lifted by kron_chain."""
    mask = same_sector(povm.m, povm.n + 1)
    lifted = lift(cyclic_shift(povm.m), povm.n + 1)
    residual = 0.0
    for e in povm.elements:
        d = np.where(mask, e, 0)
        residual = max(residual, max_abs(e - d), max_abs(lifted @ d - d @ lifted))
    return residual


def level_permutations(m):
    """The level permutations (0 1) and (0 1 … m−1) as matrices P|a> = |p(a)>."""
    levels = list(range(m))
    return [np.eye(m)[:, p] for p in (levels[1::-1] + levels[2:], levels[1:] + levels[:1])]


def sector_generator_residual(povm):
    """Oracle for unitary_residual: max over k of the off-sector mass δ_k,
    max_abs(P^⊗N D_k P^⊗N† − D_k) over level_permutations and max_abs([dΓ(E), D_k]) for
    E = |0><1|, with D_k masked by level_multiset and P^⊗N and dΓ(E) lifted by kron_chain."""
    count = povm.n + 1
    mask = same_sector(povm.m, count)
    moves = [kron_chain([p] * count) for p in level_permutations(povm.m)]
    lifted = lift(matrix_unit(povm.m, 0, 1), count)
    residual = 0.0
    for e in povm.elements:
        d = np.where(mask, e, 0)
        residual = max(residual, max_abs(e - d), max_abs(lifted @ d - d @ lifted),
                       *(max_abs(q @ d @ q.T - d) for q in moves))
    return residual


def dense_verify(povm):
    """Oracle: verify_unambiguous on dense passes only (hermiticity by A − A†, ΣΠ − I,
    one eigvalsh per element)."""
    m, n, dim = povm.m, povm.n, povm.dim
    for idx, e in enumerate(povm.elements):
        if e.shape != (dim, dim):
            raise InvalidPovm(f"element {idx} has shape {e.shape}, expected {(dim, dim)}")
        a = as_complex_matrix(e)
        dev = max_abs(a - a.conj().T)
        if dev > HERM_TOL * max(1.0, max_abs(a)):
            raise InvalidPovm(f"element {idx} is not Hermitian: "
                              f"hermiticity deviation {dev:.3e} exceeds tolerance")
    complement = np.eye(m**n) - antisym_projector(m, n).matrix
    leakages = [max_abs(complement @ partial_trace(povm.elements[i], povm.dims, {i}) @ complement)
                for i in range(1, n + 1)]
    return VerificationReport(
        leakages=tuple(leakages),
        psd_mins=tuple(dense_psd_mins(povm)),
        completeness_residual=max_abs(sum(povm.elements) - np.eye(dim)),
    )


def dense_covariance(povm):
    """Oracle: check_covariance on dense passes only (a finiteness pass per element,
    sector_generator_residual, reorder_factors conjugations, partial traces)."""
    m, n = povm.m, povm.n
    for e in povm.elements:
        as_complex_matrix(e)
    checks = [((1, i), i) for i in range(2, n + 1)] + [((k, k + 1), 1) for k in range(2, n)]
    permutation = 0.0
    for (a, b), target in checks:
        order = list(range(1, n + 2))
        order[a - 1], order[b - 1] = b, a
        conjugated = reorder_factors(povm.elements[1], povm.dims, order)
        permutation = max(permutation, max_abs(conjugated - povm.elements[target]))
    reduced = [partial_trace(povm.elements[i], povm.dims, set(range(1, n + 2)) - {i})
               for i in range(1, n + 1)]
    constants = [float(np.trace(r).real) / m for r in reduced]
    return CovarianceReport(
        unitary_residual=sector_generator_residual(povm),
        permutation_residual=permutation,
        reduction_residual=max((max_abs(r - c * np.eye(m)) for r, c in zip(reduced, constants)),
                               default=0.0),
        reduction_constants=tuple(constants),
        reduction_spread=max(constants) - min(constants) if constants else 0.0,
    )


def outcome(check, povm):
    """check(povm), or the type and message of what it raises."""
    try:
        return check(povm)
    except (InvalidPovm, ValueError) as exc:
        return type(exc), str(exc)


def assert_routes_agree(povm):
    """verify_unambiguous and check_covariance give their oracles' verdicts and errors,
    and every residual within ROUTE_TOL."""
    for fast, oracle in ((outcome(verify_unambiguous, povm), outcome(dense_verify, povm)),
                         (outcome(check_covariance, povm), outcome(dense_covariance, povm))):
        if isinstance(oracle, tuple):
            assert fast == oracle
            continue
        assert fast.passed == oracle.passed
        for field in dataclasses.fields(oracle):
            got, expected = getattr(fast, field.name), getattr(oracle, field.name)
            assert np.max(np.abs(np.subtract(got, expected)), initial=0.0) <= ROUTE_TOL, field.name


class EigvalshSpy:
    """Records the shape of every matrix np.linalg.eigvalsh is asked to solve."""

    def __init__(self, monkeypatch):
        self.shapes = []
        real = np.linalg.eigvalsh

        def spy(a, *args, **kwargs):
            self.shapes.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)

    def dense_calls(self, dim):
        return [s for s in self.shapes if s[-2:] == (dim, dim)]


@pytest.mark.parametrize("family,m,n", CASES + [("optimal", 2, 2)])
def test_unitary_residual_matches_dense(family, m, n):
    povm = family_povm(family, m, n)
    fast = check_covariance(povm).unitary_residual
    assert abs(fast - sector_generator_residual(povm)) <= ROUTE_TOL
    assert fast <= UNITARY_COV_TOL
    assert sector_cyclic_residual(povm) <= UNITARY_COV_TOL
    assert generator_lift_residual(povm, raising_and_lowering(m)) <= UNITARY_COV_TOL
    assert haar_lift_residual(povm, 3, 11) <= UNITARY_COV_TOL


@pytest.mark.parametrize("which", range(4))
def test_non_hermitian_element_needs_both_directions(which):
    # dΓ(E) commutes with itself but not with dΓ(E^T), so a check of only the
    # raising (or only the lowering) generators would pass this element; it
    # moves weight between sectors, so the off-sector mass alone fails it
    m, n = 3, 2
    generators = raising_and_lowering(m)
    element = lift(generators[which], n + 1)
    zero = np.zeros_like(element)
    povm = Povm(m=m, n=n, elements=[np.eye(m ** (n + 1)) - element, element, zero])
    assert generator_lift_residual(povm, [generators[which]]) == 0.0
    cov = check_covariance(povm)
    assert not cov.unitary_ok
    assert generator_lift_residual(povm, generators) > UNITARY_COV_TOL
    assert haar_lift_residual(povm, 2, 5) > UNITARY_COV_TOL
    assert sector_cyclic_residual(povm) > UNITARY_COV_TOL
    assert abs(cov.unitary_residual - sector_generator_residual(povm)) <= ROUTE_TOL


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(CASES[:3] + [("optimal", 2, 2)]),
       kind=st.sampled_from(["sector_diagonal", "off_sector", "non_hermitian", "covariant"]),
       data=st.data())
def test_unitary_residual_property(case, kind, data):
    """On sector-diagonal, off-sector, non-Hermitian and covariant perturbations, the fast
    residual matches the dense oracle and gives the verdicts of the lifted generators and
    of the cyclic criterion."""
    family, m, n = case
    povm = family_povm(family, m, n)
    count = n + 1
    mask = same_sector(m, count)
    value = data.draw(st.sampled_from([1e-6, 1e-3, 0.25, -0.5]), label="value")
    k = data.draw(st.integers(0, n), label="element")
    elements = [e.copy() for e in povm.elements]
    if kind == "covariant":
        # a register swap commutes with every U^⊗(n+1)
        swap = Permutation((2, 1) + tuple(range(3, count + 1)))
        elements[k] += value * permutation_operator(swap, m)
    else:
        i = data.draw(st.integers(0, povm.dim - 1), label="row")
        if kind == "non_hermitian":  # one entry, inside or outside the sectors
            j = data.draw(st.integers(0, povm.dim - 1), label="column")
            elements[k][i, j] += value * (1 + 1j)
        else:
            inside = kind == "sector_diagonal"
            j = data.draw(st.sampled_from(np.flatnonzero(mask[i] == inside).tolist()),
                          label="column")
            elements[k][i, j] += value
            if i != j:
                elements[k][j, i] += value
    explicit = Povm(m=m, n=n, elements=elements)
    fast = check_covariance(explicit).unitary_residual
    assert abs(fast - sector_generator_residual(explicit)) <= ROUTE_TOL
    generators = generator_lift_residual(explicit, raising_and_lowering(m))
    assert (fast <= UNITARY_COV_TOL) == (generators <= UNITARY_COV_TOL)
    assert (fast <= UNITARY_COV_TOL) == (sector_cyclic_residual(explicit) <= UNITARY_COV_TOL)
    if kind == "covariant":
        assert fast <= UNITARY_COV_TOL
    elif kind == "off_sector":
        assert fast >= abs(value)


def register_permutation_entries(m, count):
    """Sector entries of each register permutation P_σ of count registers, as rows."""
    same = _weight_sectors(m, count).same
    return np.array([np.ravel(permutation_operator(sigma, m))[same] for sigma in all_permutations(count)])


def type_representative_constraints(index):
    """Rows of the linear conditions 'the block of each sector equals its type's
    representative' on sector entries: a level relabelling by (multiplicity descending,
    level) takes each pair (x, y) to the representative's pair, whose entry must match."""
    m, count = index.m, index.digits.shape[1]
    relabelled = np.empty_like(index.digits)
    for x, levels in enumerate(index.digits):
        counts = np.bincount(levels, minlength=m)
        order = sorted(set(levels.tolist()), key=lambda a: (-counts[a], a))
        relabelled[x] = [order.index(a) for a in levels]
    states = relabelled @ m ** np.arange(count - 1, -1, -1)
    position = {flat: p for p, flat in enumerate(index.same.tolist())}
    rows = []
    for p, (x, y) in enumerate(zip(index.rows, index.cols)):
        q = position[int(states[x]) * len(index.digits) + int(states[y])]
        if q != p:
            row = np.zeros(len(index.same))
            row[p], row[q] = 1.0, -1.0
            rows.append(row)
    return np.array(rows)


def test_type_blocks_and_one_lowering_generator_do_not_prove_covariance():
    """Counterexample to the criterion 'every sector block equals its type's
    representative and [dΓ(E_12), D] = 0': at (m, n) = (3, 2) the sector-diagonal
    operators meeting it form a 14-dimensional space, the span of the register
    permutations P_σ, which commute with every U^⊗3, only a 6-dimensional one.  A
    solution outside that span fails check_covariance and every oracle."""
    m, n = 3, 2
    count = n + 1
    index = _weight_sectors(m, count)
    assert len(index.same) == 93
    lifted = lift(matrix_unit(m, 0, 1), count)
    commutator = np.array([np.ravel(lifted @ unit - unit @ lifted)
                           for unit in (index.scatter(e) for e in np.eye(len(index.same)))]).T
    conditions = np.vstack([type_representative_constraints(index), commutator.real, commutator.imag])
    _, singular, vh = np.linalg.svd(conditions)
    rank = int(np.sum(singular > 1e-10))
    solutions = vh[rank:].T
    assert solutions.shape[1] == 14
    permutations = register_permutation_entries(m, count).real.T
    assert np.linalg.matrix_rank(permutations) == 6
    assert np.linalg.matrix_rank(np.hstack([solutions, permutations])) == 14  # the P_σ solve it too
    span = np.linalg.qr(permutations)[0]
    outside = solutions - span @ (span.T @ solutions)
    v = outside[:, np.argmax(np.linalg.norm(outside, axis=0))]
    v /= np.abs(v).max()
    assert max_abs(conditions @ v) <= 1e-12
    povm = Povm(m, n, sectors=[v] * count)
    assert not check_covariance(povm).unitary_ok
    assert sector_cyclic_residual(povm) > UNITARY_COV_TOL
    assert generator_lift_residual(povm, raising_and_lowering(m)) > UNITARY_COV_TOL
    assert haar_lift_residual(povm, 2, 5) > UNITARY_COV_TOL


@settings(max_examples=60, deadline=None)
@given(size=st.sampled_from([(2, 2), (3, 2), (2, 3), (3, 3), (4, 3), (5, 2)]),
       kind=st.sampled_from(["covariant", "random", "sparse"]), seed=st.integers(0, 2**32 - 1))
def test_covariance_verdict_matches_the_cyclic_criterion_on_sector_entries(size, kind, seed):
    """Complex combinations of the register permutations P_σ pass check_covariance; random
    sector entries and sparsely perturbed combinations get the cyclic criterion's verdict."""
    m, n = size
    rng = np.random.default_rng(seed)
    permutations = register_permutation_entries(m, n + 1)
    weights = rng.standard_normal(len(permutations)) + 1j * rng.standard_normal(len(permutations))
    d = weights @ permutations
    if kind == "random":
        d = rng.standard_normal(len(d)) + 1j * rng.standard_normal(len(d))
    elif kind == "sparse":
        at = rng.choice(len(d), size=rng.integers(1, 4), replace=False)
        scale = rng.choice([1e-6, 0.25, -1.0])
        d[at] += scale * (rng.standard_normal(len(at)) + 1j * rng.standard_normal(len(at)))
    povm = Povm(m, n, sectors=[d] * (n + 1))
    fast = check_covariance(povm).unitary_ok
    assert fast == (sector_cyclic_residual(povm) <= UNITARY_COV_TOL)
    if kind == "covariant":
        assert fast


def test_unitary_residual_allocates_no_element_sized_temporary():
    povm = family_povm("universal", 4, 3)
    povm.elements
    _unitary_residual(povm)  # builds the index maps, once per process
    tracemalloc.start()
    try:
        assert _unitary_residual(povm) <= UNITARY_COV_TOL
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < povm.elements[0].nbytes


def test_unitary_residual_peak_is_under_an_eighth_of_an_element():
    """At (optimal,4,4) the commutator is summed in chunks and subtracted and taken in
    magnitude in place, so the peak stays far below the |T|-sized accumulators."""
    povm = Povm(m=4, n=4, elements=family_povm("optimal", 4, 4).elements)
    _unitary_residual(povm)  # gathers the sector entries and builds the index maps
    tracemalloc.start()
    try:
        assert _unitary_residual(povm) <= UNITARY_COV_TOL
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < povm.elements[0].nbytes / 8


def test_weight_sector_index_is_built_once_and_read_only():
    index = _weight_sectors(3, 3)
    assert _weight_sectors(3, 3) is index
    assert index.permuted((2, 1, 3), (1, 0, 2)) is index.permuted((2, 1, 3), (1, 0, 2))
    assert index.traced(2) is index.traced(2)
    for name in ("transposed", "lowered", "identity", "rows", "cols", "digits", "same",
                 "row_bounds", "run_positions"):
        assert getattr(index, name) is getattr(index, name), name
    complement = discriminator._complement_entries(3, 2)
    assert discriminator._complement_entries(3, 2) is complement
    for a in (index.transposed, index.permuted((2, 1, 3), (1, 0, 2)), *index.lowered, index.identity, index.rows,
              index.cols, index.digits, index.same, index.row_bounds, *index.run_positions,
              *index.traced(2), complement):
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1


def oracle_sectors(m, count):
    """Each weight sector of count registers of dimension m, its basis states ascending,
    grouped by the sorted levels of itertools.product."""
    sectors = {}
    for x, levels in enumerate(itertools.product(range(m), repeat=count)):
        sectors.setdefault(tuple(sorted(levels)), []).append(x)
    return list(sectors.values())


@pytest.mark.parametrize("m, count", [(2, 5), (5, 2), (3, 4)])
def test_same_is_every_same_sector_pair_in_the_file_row_order(m, count):
    """same is strictly ascending and holds exactly the pairs of one sector; row_bounds
    is twice where each row starts in it."""
    index = _weight_sectors(m, count)
    dim = m**count
    mask = np.zeros((dim, dim), dtype=bool)
    for members in oracle_sectors(m, count):
        mask[np.ix_(members, members)] = True
    assert (np.diff(index.same) > 0).all()
    assert np.array_equal(index.same, np.flatnonzero(mask))
    assert np.array_equal(index.row_bounds, 2 * np.concatenate([[0], np.cumsum(mask.sum(axis=1))]))


@pytest.mark.parametrize("m, count", [(2, 5), (5, 2), (3, 4)])
def test_runs_are_the_dense_sector_blocks(m, count):
    """runs(d) stacks, size after size ascending, blocks that are each one sector's
    ix_ block of the dense operator, every sector once, its states ascending."""
    index = _weight_sectors(m, count)
    rng = np.random.default_rng(count)
    d = rng.standard_normal(len(index.same)) + 1j * rng.standard_normal(len(index.same))
    dense = index.scatter(d)
    runs = index.runs(d)
    assert [blocks.shape[1] for blocks in runs] == sorted({blocks.shape[1] for blocks in runs})
    seen = []
    for blocks, positions in zip(runs, index.run_positions, strict=True):
        assert blocks.shape == positions.shape and blocks.shape[1] == blocks.shape[2]
        for block, at in zip(blocks, positions):
            members = index.rows[at[:, 0]].tolist()
            seen.append(members)
            assert np.array_equal(block, dense[np.ix_(members, members)])
    assert sorted(seen) == sorted(oracle_sectors(m, count))


@settings(max_examples=30, deadline=None)
@given(size=st.sampled_from([(2, 5), (5, 2), (3, 4)]), seed=st.integers(0, 2**32 - 1))
def test_weight_sector_maps_are_the_dense_operations_they_stand_for(size, seed):
    """For D the scatter of random Hermitian sector entries d: d[transposed] is D^T's,
    d[permuted(order, identity)] is the reorder_factors conjugation's for every register
    permutation, d[permuted(identity, p)] is P^⊗count† D P^⊗count's for every level
    permutation p and d[permuted(order, p)] the two composed, and identity marks the
    identity's entries and d[identity] is D's diagonal, all exactly; traced(i) scatter-adds d
    onto the entries of partial_trace(D) over register i."""
    m, count = size
    index = _weight_sectors(m, count)
    rng = np.random.default_rng(seed)
    raw = index.scatter(rng.standard_normal(len(index.same)) + 1j * rng.standard_normal(len(index.same)))
    dense = raw + raw.conj().T
    d = np.ravel(dense)[index.same]
    assert np.array_equal(d[index.transposed], np.ravel(dense.T)[index.same])
    registers = tuple(range(1, count + 1))
    for p in itertools.permutations(range(m)):
        lifted = kron_chain([np.eye(m)[:, p]] * count)
        relabelled = lifted.T @ dense @ lifted  # a 0/1 permutation: every entry moved exactly
        assert np.array_equal(d[index.permuted(registers, p)], np.ravel(relabelled)[index.same])
        order = tuple(rng.permutation(registers).tolist())
        conjugated = reorder_factors(relabelled, (m,) * count, order)
        assert np.array_equal(d[index.permuted(order, p)], np.ravel(conjugated)[index.same])
    for order in itertools.permutations(registers):
        conjugated = reorder_factors(dense, (m,) * count, order)
        assert np.array_equal(d[index.permuted(order, tuple(range(m)))], np.ravel(conjugated)[index.same])
    assert np.array_equal(index.identity, np.ravel(np.eye(m**count))[index.same] == 1)
    assert np.array_equal(d[index.identity], np.diagonal(dense))
    lower = _weight_sectors(m, count - 1)
    for i in range(1, count + 1):
        source, target = index.traced(i)
        reduced = np.zeros(len(lower.same), dtype=complex)
        np.add.at(reduced, target, d[source])
        expected = partial_trace(dense, (m,) * count, {i})
        assert max_abs(lower.scatter(reduced) - expected) <= ROUTE_TOL * max(1.0, max_abs(expected))


def unique_lowered(index):
    """Oracle for _WeightSectors.lowered: the pairs reached by lowering a 1 to 0 on either
    side of a same-sector pair, by np.unique, and each read's position in same by a
    searchsorted through the argsort of same, the zero's for a masked read."""
    m, dim, none = index.m, len(index.digits), len(index.same)
    by_flat = np.argsort(index.same)

    def position(flat, read):
        at = by_flat[np.minimum(np.searchsorted(index.same, flat, sorter=by_flat), none - 1)]
        return np.where(read & (index.same[at] == flat), at, none)

    digits = index.digits[:, ::-1]
    powers = m ** np.arange(digits.shape[1])
    down = np.arange(dim)[:, None] - powers  # column r: the state with register count − r lowered
    row_side = (down[index.rows] * dim + index.cols[:, None])[digits[index.rows] == 1]
    raised = index.rows[:, None] * dim + index.cols[:, None] + powers  # a 0 of the column raised
    column_side = raised[(digits[index.cols] == 0) & (m > 1)]
    reached = np.unique(np.concatenate([row_side, column_side]))
    rows, cols = np.divmod(reached, dim)
    zero, one = digits[rows].T == 0, digits[cols].T == 1
    return (position((rows + powers[:, None]) * dim + cols, zero),
            position(rows * dim + cols - powers[:, None], one))


@pytest.mark.parametrize("m,count", [(1, 3), (2, 3), (5, 3), (3, 4), (4, 4), (2, 5)])
def test_lowered_matches_the_unique_construction(m, count):
    left, right = _weight_sectors(m, count).lowered
    oracle_left, oracle_right = unique_lowered(_weight_sectors(m, count))
    assert np.array_equal(left, oracle_left) and np.array_equal(right, oracle_right)


def with_off_sector_mass(povm, value=1e-3):
    """An explicit copy of povm with a Hermitian pair of entries between |0…0> and
    |0…01>, which lie in different weight sectors, moved from Π_0 to Π_1."""
    elements = [e.copy() for e in povm.elements]
    for i, j in ((0, 1), (1, 0)):
        elements[0][i, j] -= value
        elements[1][i, j] += value
    return Povm(m=povm.m, n=povm.n, elements=elements)


class TestStorageRule:
    """Every array a Povm holds or hands out is a complex, read-only ndarray, so each form
    of the same operator takes the same route to the same bits."""

    @pytest.mark.parametrize("m,n", [(3, 2), (4, 3)])
    def test_complex_real_and_nested_list_elements_agree_bit_for_bit(self, m, n, tmp_path):
        elements = with_off_sector_mass(family_povm("universal", m, n)).elements
        forms = [elements, [e.real.copy() for e in elements], [e.real.tolist() for e in elements]]
        rng = np.random.default_rng(m * 10 + n)
        vector = rng.normal(size=m ** (n + 1)) + 1j * rng.normal(size=m ** (n + 1))
        density = np.outer(vector, vector.conj()) / np.vdot(vector, vector).real
        seen = set()
        for k, form in enumerate(forms):
            povm = Povm(m, n, elements=form)
            assert povm._sectors is None  # the dense route
            write_povm(tmp_path / f"{k}.povm", povm)
            seen.add((repr(verify_unambiguous(povm)), repr(check_covariance(povm)),
                      outcome_probabilities(povm, vector).tobytes(),
                      outcome_probabilities(povm, density).tobytes(), (tmp_path / f"{k}.povm").read_bytes()))
        assert len(seen) == 1

    def test_a_complex_input_is_shared_and_other_input_copied(self):
        elements = [e.copy() for e in with_off_sector_mass(family_povm("universal", 3, 2)).elements]
        shared, copied = Povm(3, 2, elements=elements), Povm(3, 2, elements=[e.real for e in elements])
        for original, e, f in zip(elements, shared.elements, copied.elements, strict=True):
            assert np.shares_memory(original, e) and original.flags.writeable
            assert f.dtype == complex and not np.shares_memory(original, f)

    @pytest.mark.parametrize("form", ["explicit", "real", "built", "sector", "read"])
    def test_writes_into_held_arrays_are_refused(self, form, tmp_path):
        built = family_povm("universal", 3, 2)
        write_povm(tmp_path / "u.povm", built)
        povm = {"explicit": lambda: Povm(3, 2, elements=[e.copy() for e in built.elements]),
                "real": lambda: Povm(3, 2, elements=[e.real.copy() for e in built.elements]),
                "built": lambda: built, "sector": lambda: Povm(3, 2, sectors=built._sectors),
                "read": lambda: read_povm(tmp_path / "u.povm")}[form]()
        for k in range(3):
            with pytest.raises(ValueError):
                povm.elements[k][1, 1] += 0.5
            with pytest.raises(ValueError):
                povm._sectors[k][0] = np.nan
        write_povm(tmp_path / "again.povm", built)
        assert (tmp_path / "again.povm").read_bytes() == (tmp_path / "u.povm").read_bytes()


@pytest.mark.parametrize("form", ["dense", "sector", "sector-form"])
def test_residuals_refuses_a_non_hermitian_element(form):
    """Povm.residuals checks hermiticity before it reads an eigenvalue, with dense_verify's
    message: 0.5 added at [0, 1] of Π_1 (|000> and |001> lie in different sectors) takes
    the dense check, 0.5 added at [1, 3] (|001> and |010>, one sector) the sector check,
    on an explicit POVM and on its sector form.  eigvalsh alone would read only the
    lower triangle and report nothing."""
    built = family_povm("universal", 3, 2)
    elements = [e.copy() for e in built.elements]
    elements[1][(0, 1) if form == "dense" else (1, 3)] += 0.5
    explicit = Povm(m=3, n=2, elements=elements)
    assert explicit._sector_split[1][1] == (form != "dense")
    povm = Povm(m=3, n=2, sectors=[d for d, _ in explicit._sector_split]) if form == "sector-form" else explicit
    with pytest.raises(InvalidPovm) as got:
        povm.residuals()
    message = "element 1 is not Hermitian: hermiticity deviation 5.000e-01 exceeds tolerance"
    assert str(got.value) == message
    assert outcome(dense_verify, explicit) == outcome(verify_unambiguous, povm) == (InvalidPovm, message)


@pytest.mark.parametrize("family,m,n", [("universal", 3, 2), ("optimal", 3, 3), ("universal", 4, 3)])
@pytest.mark.parametrize("value", [1e-6, 0.25])
def test_hermiticity_route_per_element_matches_dense_on_leaky_povms(family, m, n, value):
    """With off-sector mass in Π_0 and Π_1, those two are checked densely and the others on
    their sector entries; a non-Hermitian same-sector entry in any element gives
    dense_verify's error bit for bit."""
    leaky = with_off_sector_mass(family_povm(family, m, n))
    routes = [diagonal for _, diagonal in leaky._sector_split]
    assert routes == [False, False] + [True] * (n - 1)
    i, j = (int(a) for a in np.argwhere(same_sector(m, n + 1) & ~np.eye(leaky.dim, dtype=bool))[-1])
    for k in range(n + 1):
        elements = [e.copy() for e in leaky.elements]
        elements[k][i, j] += value * 1j
        povm = Povm(m=m, n=n, elements=elements)
        assert [diagonal for _, diagonal in povm._sector_split] == routes
        got = outcome(verify_unambiguous, povm)
        assert got == outcome(dense_verify, povm)
        assert got[0] is InvalidPovm and got[1].startswith(f"element {k} is not Hermitian: ")


@pytest.mark.parametrize("family,m,n", [("universal", 3, 2), ("optimal", 3, 3),
                                        ("universal", 4, 3), ("optimal", 4, 4)])
def test_check_covariance_reorders_2n_minus_3_times(family, m, n, monkeypatch):
    """A sector-diagonal POVM takes no reorder_factors conjugation; one with off-sector
    mass takes the dense route's 2n−3."""
    povm = family_povm(family, m, n)
    povm.elements  # assembly reorders too; count only the check
    leaky = with_off_sector_mass(povm)
    calls = []
    real = discriminator.reorder_factors

    def spy(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(discriminator, "reorder_factors", spy)
    assert check_covariance(povm).passed
    assert calls == []
    assert not check_covariance(leaky).unitary_ok
    assert len(calls) == 2 * n - 3


@pytest.mark.parametrize("family,m,n", CASES)
def test_sector_minima_match_dense(family, m, n, monkeypatch):
    povm = family_povm(family, m, n)
    povm.elements  # assemble outside the spy
    spy = EigvalshSpy(monkeypatch)
    mins, _ = povm.residuals()
    assert spy.dense_calls(povm.dim) == []
    assert np.max(np.abs(np.subtract(mins, dense_psd_mins(povm)))) <= ROUTE_TOL


@settings(max_examples=20, deadline=None)
@given(case=st.sampled_from(CASES[:3]), data=st.data())
def test_off_sector_entry_takes_the_dense_route(case, data):
    family, m, n = case
    povm = family_povm(family, m, n)
    dim = povm.dim
    i = data.draw(st.integers(0, dim - 1), label="row")
    j = data.draw(st.integers(0, dim - 1).filter(
        lambda j: level_multiset(j, m, n + 1) != level_multiset(i, m, n + 1)), label="column")
    value = data.draw(st.sampled_from([1e-300, 1e-3, 0.25, -0.5]), label="value")
    k = data.draw(st.integers(0, n), label="element")
    elements = [e.copy() for e in povm.elements]
    elements[k][i, j] += value
    elements[k][j, i] += value
    explicit = Povm(m=m, n=n, elements=elements)
    with pytest.MonkeyPatch.context() as mp:
        spy = EigvalshSpy(mp)
        mins, _ = explicit.residuals()
    assert len(spy.dense_calls(dim)) == 1
    assert abs(mins[k] - dense_psd_mins(explicit)[k]) <= ROUTE_TOL


def perturb(povm, kind, rng):
    """Move ε·H from Π_0 to Π_1 for a Hermitian H of the named kind (completeness stays)."""
    m, n, dim = povm.m, povm.n, povm.dim
    if kind == "leakage":
        # I on register 1 ⊗ (I - Φ) on the rest: covariant and sector-diagonal, outside the support
        h = np.kron(np.eye(m), np.eye(m**n) - antisym_projector(m, n).matrix)
    elif kind == "non_covariant":
        h = rand_psd(dim, rng) / dim
    elif kind == "sector_diagonal":
        # ε|0…0><0…0| is its own weight sector, so it commutes with every diagonal dΓ(E_aa)
        h = np.diag(np.eye(dim)[0]).astype(complex)
    else:
        # Π_1 annihilates |0…0>, so taking ε|0…0><0…0| away from it leaves eigenvalue -ε
        h = -np.diag(np.eye(dim)[0]).astype(complex)
    elements = [e.copy() for e in povm.elements]
    elements[1] = elements[1] + 1e-3 * h
    elements[0] = elements[0] - 1e-3 * h
    return Povm(m=m, n=n, elements=elements)


@pytest.mark.parametrize("family,m,n", [("universal", 3, 2), ("universal", 4, 3)])
@pytest.mark.parametrize("kind", ["leakage", "non_covariant", "negative", "sector_diagonal"])
def test_perturbations_fail_on_both_routes(family, m, n, kind):
    povm = perturb(family_povm(family, m, n), kind, np.random.default_rng(3))
    report = verify_unambiguous(povm)
    cov = check_covariance(povm)
    oracle_report = dataclasses.replace(report, psd_mins=tuple(dense_psd_mins(povm)))
    oracle_cov = dataclasses.replace(cov, unitary_residual=sector_generator_residual(povm))
    cyclic_cov = dataclasses.replace(cov, unitary_residual=sector_cyclic_residual(povm))
    generator_cov = dataclasses.replace(
        cov, unitary_residual=generator_lift_residual(povm, raising_and_lowering(m)))
    haar_cov = dataclasses.replace(cov, unitary_residual=haar_lift_residual(povm, 2, 5))
    assert cyclic_cov.unitary_ok == generator_cov.unitary_ok == haar_cov.unitary_ok == cov.unitary_ok
    for r, c in ((report, cov), (oracle_report, oracle_cov), (oracle_report, cyclic_cov),
                 (oracle_report, generator_cov), (oracle_report, haar_cov)):
        assert not (r.passed and c.passed)
        if kind == "leakage":
            assert r.max_leakage() > LEAKAGE_TOL and not r.passed
        elif kind in ("non_covariant", "sector_diagonal"):
            assert c.unitary_residual > UNITARY_COV_TOL and not c.passed
        else:
            assert min(r.psd_mins) < -PSD_RESIDUAL_TOL and not r.passed
    if kind == "sector_diagonal":
        # the diagonal generators alone would pass it: raising and lowering are needed
        diagonal = [matrix_unit(m, a, a) for a in range(m)]
        assert generator_lift_residual(povm, diagonal) <= ROUTE_TOL
    assert np.max(np.abs(np.subtract(report.psd_mins, oracle_report.psd_mins))) <= ROUTE_TOL
    assert abs(cov.unitary_residual - oracle_cov.unitary_residual) <= ROUTE_TOL


@pytest.mark.parametrize("family", ["universal", "trivial"])
def test_verify_forms_no_lift_and_checks_hermiticity_once(family, monkeypatch):
    """Guards the fast routes: a built (4,3) POVM is verified without an (n+1)-fold
    kron_chain, without a dense 256 x 256 eigensolve, and with no dense hermiticity
    check or reorder_factors conjugation; with off-sector mass in Π_0 and Π_1 it takes
    one dense hermiticity check for each of those two, a sector check for the others,
    and 2n−3 conjugations."""
    povm = family_povm(family, 4, 3)
    povm.elements
    leaky = with_off_sector_mass(povm)
    kron_factors, hermitian_checks, reorders = [], [], []
    real_kron, real_herm = tensor_algebra.kron_chain, tensor_algebra.require_conjugate_pairs
    real_reorder = tensor_algebra.reorder_factors

    def kron_spy(factors):
        factors = list(factors)
        kron_factors.append(len(factors))
        return real_kron(factors)

    def herm_spy(entries, mirrored):
        hermitian_checks.append(np.shape(entries))
        return real_herm(entries, mirrored)

    def reorder_spy(*args):
        reorders.append(args[2])
        return real_reorder(*args)

    for info in pkgutil.iter_modules(udisc.__path__):
        module = importlib.import_module(f"udisc.{info.name}")
        if getattr(module, "kron_chain", None) is real_kron:
            monkeypatch.setattr(module, "kron_chain", kron_spy)
        if getattr(module, "require_conjugate_pairs", None) is real_herm:
            monkeypatch.setattr(module, "require_conjugate_pairs", herm_spy)
        if getattr(module, "reorder_factors", None) is real_reorder:
            monkeypatch.setattr(module, "reorder_factors", reorder_spy)
    spy = EigvalshSpy(monkeypatch)
    assert verify_unambiguous(povm).passed
    assert check_covariance(povm).passed
    assert max(kron_factors, default=0) < povm.n + 1
    assert spy.shapes and spy.dense_calls(povm.dim) == []
    sector = (len(povm._sectors[0]),)
    assert hermitian_checks == [sector] * (povm.n + 1) and reorders == []
    hermitian_checks.clear()
    verify_unambiguous(leaky)
    check_covariance(leaky)
    assert hermitian_checks == [(povm.dim, povm.dim)] * 2 + [sector] * (povm.n - 1)
    assert len(reorders) == 2 * povm.n - 3


@pytest.mark.parametrize("family,m,n", CASES + [("optimal", 2, 2)])
def test_routes_agree_on_built_povms(family, m, n):
    povm = family_povm(family, m, n)
    assert povm._sectors is not None
    assert verify_unambiguous(povm).passed and check_covariance(povm).passed
    assert_routes_agree(povm)
    leaky = with_off_sector_mass(povm)
    assert leaky._sectors is None
    assert_routes_agree(leaky)


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(CASES[:3] + [("optimal", 2, 2)]),
       kind=st.sampled_from(["non_hermitian", "completeness", "swap", "non_finite"]),
       data=st.data())
def test_routes_agree_on_perturbations(case, kind, data):
    """A non-Hermitian sector entry, a completeness break on the diagonal and a swap of one
    sector block between Π_1 and Π_2 give the dense verdicts, errors and residuals on both
    verify_unambiguous and check_covariance; a NaN or ±inf inside or outside the sectors
    is refused when the Povm is made, naming its element."""
    family, m, n = case
    povm = family_povm(family, m, n)
    count, dim = n + 1, povm.dim
    mask = same_sector(m, count)
    elements = [e.copy() for e in povm.elements]
    k = data.draw(st.integers(0, n), label="element")
    i = data.draw(st.integers(0, dim - 1), label="row")
    if kind == "non_hermitian":
        j = data.draw(st.sampled_from(np.flatnonzero(mask[i]).tolist()), label="column")
        value = data.draw(st.sampled_from([1e-13, 1e-6, 0.25]), label="value")
        elements[k][i, j] += value * (1 + 1j)
    elif kind == "completeness":
        elements[k][i, i] += data.draw(st.sampled_from([1e-12, 1e-6, -0.5]), label="value")
    elif kind == "swap":
        j = data.draw(st.sampled_from(np.flatnonzero(mask[i]).tolist()), label="column")
        swap_entries(elements, i, j)
    else:
        inside = data.draw(st.booleans(), label="inside")
        j = data.draw(st.sampled_from(np.flatnonzero(mask[i] == inside).tolist() or [i]),
                      label="column")
        elements[k][i, j] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]), label="value")
    if kind == "non_finite":  # refused when the Povm is made, so no check can read it
        with pytest.raises(InvalidPovm, match=f"^element {k} holds a NaN or an infinity$"):
            Povm(m=m, n=n, elements=elements)
        return
    assert_routes_agree(Povm(m=m, n=n, elements=elements))


def swap_entries(elements, i, j):
    """Exchange the (i, j) and (j, i) entries of Π_1 and Π_2 (Hermiticity and completeness stay)."""
    for a, b in {(i, j), (j, i)}:
        elements[1][a, b], elements[2][a, b] = elements[2][a, b], elements[1][a, b]


@pytest.mark.parametrize("family,m,n", [("universal", 3, 2), ("universal", 4, 3)])
def test_swap_inside_a_sector_breaks_permutation_covariance(family, m, n):
    povm = family_povm(family, m, n)
    p1, p2 = povm.elements[1], povm.elements[2]
    # a same-sector pair where Π_1 and Π_2 differ, and whose two indices differ on register 1
    i, j = next((i, j) for i, j in zip(*np.nonzero(same_sector(m, n + 1) & (p1 != p2)))
                if i // m**n != j // m**n)
    elements = [e.copy() for e in povm.elements]
    swap_entries(elements, i, j)
    explicit = Povm(m=m, n=n, elements=elements)
    assert explicit._sectors is not None
    assert check_covariance(explicit).permutation_residual > PERMUTATION_COV_TOL
    assert dense_covariance(explicit).permutation_residual > PERMUTATION_COV_TOL
    assert_routes_agree(explicit)


@pytest.mark.parametrize("family,m,n", [("universal", 4, 3), ("optimal", 4, 4)])
def test_sector_route_allocates_less_than_one_element(family, m, n):
    built = family_povm(family, m, n)
    verify_unambiguous(built)  # builds the index maps and I − Φ, once per process
    check_covariance(built)
    povm = Povm(m=m, n=n, elements=built.elements)  # its sector entries are gathered inside
    tracemalloc.start()
    try:
        assert verify_unambiguous(povm).passed and check_covariance(povm).passed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert povm._sectors is not None
    assert peak < povm.elements[0].nbytes


def built_file(tmp_path, family, m, n, layout="sector"):
    """The file udisc build writes (the commutant layout) for layout "commutant", or its POVM
    written again as a sector-row file ("sector", Povm(m, n, sectors=...)) or a dense one
    ("dense", Povm(m, n, elements=...))."""
    path = tmp_path / f"{family}_{m}_{n}.povm"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["build", "--m", str(m), "--n", str(n), "--family", family, "--out", str(path)]) == 0
    if layout == "sector":
        write_povm(path, Povm(m=m, n=n, sectors=read_povm(path)._sectors))
    if layout == "dense":
        write_povm(path, Povm(m=m, n=n, elements=read_povm(path).elements))
    return path


@pytest.mark.parametrize("layout", ["dense", "sector", "commutant"])
@pytest.mark.parametrize("family,m,n", CASES)
def test_routes_agree_on_built_files(family, m, n, layout, tmp_path):
    povm = read_povm(built_file(tmp_path, family, m, n, layout))
    assert povm._explicit == (layout == "dense") and povm._sectors is not None
    assert verify_unambiguous(povm).passed and check_covariance(povm).passed
    assert_routes_agree(povm)


def with_token(path, element, row, column, part, value):
    """Edit the token of a POVM file holding the real (part 0) or imaginary (part 1) part of
    pair (row, column) of an element, at its place in either layout, into value."""
    lines = path.read_text().split("\n")
    at = lines.index(f"element {element}") + 1 + row
    if lines[0].startswith("povm-sectors"):
        m, n = (int(f) for f in lines[0].split()[1:3])
        column = list(sector_columns(m, n + 1)[row]).index(column)
    tokens = lines[at].split(" ")
    assert tokens[2 * column + part] == "0"
    tokens[2 * column + part] = value
    lines[at] = " ".join(tokens)
    path.write_text("\n".join(lines))


@pytest.mark.parametrize("family,m,n", CASES)
@pytest.mark.parametrize("last", [True, False], ids=["last_row_of_last_element", "first_row_of_element_0"])
@pytest.mark.parametrize("value", ["1e-300", "0.25"])
def test_routes_agree_on_built_files_with_an_off_sector_token(family, m, n, last, value, tmp_path):
    """One nonzero token between two weight sectors sends a dense file's POVM to the dense
    route of the checks, in its first row or in its last block."""
    path = built_file(tmp_path, family, m, n, "dense")
    k, row = (n, m ** (n + 1) - 1) if last else (0, 0)
    column = int(np.flatnonzero(~same_sector(m, n + 1)[row])[0])
    with_token(path, k, row, column, 0, value)
    povm = read_povm(path)
    assert povm._explicit and povm._sectors is None
    expected = [e.copy() for e in family_povm(family, m, n).elements]
    expected[k][row, column] = float(value)
    for got, want in zip(povm.elements, expected, strict=True):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert_routes_agree(povm)


@pytest.mark.parametrize("layout", ["dense", "sector"])
@pytest.mark.parametrize("family,m,n", CASES)
@pytest.mark.parametrize("last", [True, False], ids=["last_row_of_last_element", "first_row_of_element_0"])
@pytest.mark.parametrize("value", ["1e-300", "0.25"])
def test_routes_agree_on_built_files_with_an_in_sector_token(family, m, n, last, value, layout, tmp_path):
    """One token inside a weight sector, the imaginary part of the row's first same-sector
    pair, keeps either layout on the sector route, at its first row or in its last block;
    a non-Hermitian element then gives the dense route's error."""
    path = built_file(tmp_path, family, m, n, layout)
    k, row = (n, m ** (n + 1) - 1) if last else (0, 0)
    column = int(np.flatnonzero(same_sector(m, n + 1)[row])[0])
    with_token(path, k, row, column, 1, value)
    povm = read_povm(path)
    assert povm._explicit == (layout == "dense") and povm._sectors is not None
    expected = [e.copy() for e in family_povm(family, m, n).elements]
    expected[k][row, column] += 1j * float(value)
    for got, want in zip(povm.elements, expected, strict=True):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert_routes_agree(povm)
