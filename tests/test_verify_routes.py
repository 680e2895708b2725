"""The verify routes against their dense oracles.

``verify`` reads minimum eigenvalues from weight-sector blocks and checks
unitary invariance exactly on the sector support: the off-sector mass of
each element, and its commutator with dΓ(C) = Σ_r C_r for the cyclic shift
C = Σ_a |a+1 mod m><a|, taken as gathers from the element.  When every
element is zero outside its sectors, finiteness, hermiticity, completeness
and permutation covariance are read from the sector entries too.  The
dense routes live here: the same residual with the sector mask built from
level_multiset and dΓ(C) lifted by kron_chain (matched within 1e-14), the
2(m−1) raising and lowering generators lifted by kron_chain, the
Haar-random U^⊗(n+1) lifted by kron_chain (both on pass/fail), one
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
from udisc.antisym import Permutation, _weight_sectors, antisym_projector
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
    verify_unambiguous,
)
from udisc.cli import main
from udisc.errors import InvalidPovm
from udisc.io import _sector_rows, read_povm, write_povm
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
    """Oracle for unitary_residual: max over k of the off-sector mass δ_k and
    max_abs([dΓ(C), D_k]), with D_k masked by level_multiset and dΓ(C) lifted by kron_chain."""
    mask = same_sector(povm.m, povm.n + 1)
    lifted = lift(cyclic_shift(povm.m), povm.n + 1)
    residual = 0.0
    for e in povm.elements:
        d = np.where(mask, e, 0)
        residual = max(residual, max_abs(e - d), max_abs(lifted @ d - d @ lifted))
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
    sector_cyclic_residual, reorder_factors conjugations, partial traces)."""
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
        unitary_residual=sector_cyclic_residual(povm),
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
    assert abs(fast - sector_cyclic_residual(povm)) <= ROUTE_TOL
    assert fast <= UNITARY_COV_TOL
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
    assert abs(cov.unitary_residual - sector_cyclic_residual(povm)) <= ROUTE_TOL


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(CASES[:3] + [("optimal", 2, 2)]),
       kind=st.sampled_from(["sector_diagonal", "off_sector", "non_hermitian", "covariant"]),
       data=st.data())
def test_unitary_residual_property(case, kind, data):
    """On sector-diagonal, off-sector, non-Hermitian and covariant perturbations, the fast
    residual matches the dense oracle and gives the verdict of the lifted generators."""
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
    assert abs(fast - sector_cyclic_residual(explicit)) <= ROUTE_TOL
    generators = generator_lift_residual(explicit, raising_and_lowering(m))
    assert (fast <= UNITARY_COV_TOL) == (generators <= UNITARY_COV_TOL)
    if kind == "covariant":
        assert fast <= UNITARY_COV_TOL
    elif kind == "off_sector":
        assert fast >= abs(value)


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
    assert index.swapped(1, 2) is index.swapped(1, 2)
    assert index.traced(2) is index.traced(2)
    for name in ("transposed", "shifted", "identity", "rows", "cols", "digits", "same", "diagonal"):
        assert getattr(index, name) is getattr(index, name), name
    sector_rows = _sector_rows(3, 3)
    assert _sector_rows(3, 3) is sector_rows
    complement = discriminator._complement_entries(3, 2)
    assert discriminator._complement_entries(3, 2) is complement
    for a in (index.transposed, index.swapped(1, 2), *index.shifted, index.identity, index.rows,
              index.cols, index.digits, index.same, index.diagonal, *sector_rows,
              *index.traced(2), complement):
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1


@settings(max_examples=30, deadline=None)
@given(size=st.sampled_from([(2, 5), (5, 2), (3, 4)]), seed=st.integers(0, 2**32 - 1))
def test_weight_sector_maps_are_the_dense_operations_they_stand_for(size, seed):
    """For D the scatter of random Hermitian sector entries d: d[transposed] is D^T's,
    d[swapped(a, b)] is the reorder_factors conjugation's for every register pair, and
    identity and diagonal mark the identity's entries and D's diagonal, all exactly;
    traced(i) scatter-adds d onto the entries of partial_trace(D) over register i."""
    m, count = size
    index = _weight_sectors(m, count)
    rng = np.random.default_rng(seed)
    raw = index.scatter(rng.standard_normal(len(index.same)) + 1j * rng.standard_normal(len(index.same)))
    dense = raw + raw.conj().T
    d = np.ravel(dense)[index.same]
    assert np.array_equal(d[index.transposed], np.ravel(dense.T)[index.same])
    for a in range(1, count + 1):
        for b in range(a + 1, count + 1):
            order = list(range(1, count + 1))
            order[a - 1], order[b - 1] = b, a
            conjugated = reorder_factors(dense, (m,) * count, order)
            assert np.array_equal(d[index.swapped(a, b)], np.ravel(conjugated)[index.same])
    assert np.array_equal(index.identity, np.ravel(np.eye(m**count))[index.same] == 1)
    assert np.array_equal(d[index.diagonal], np.diagonal(dense))
    lower = _weight_sectors(m, count - 1)
    for i in range(1, count + 1):
        source, target = index.traced(i)
        reduced = np.zeros(len(lower.same), dtype=complex)
        np.add.at(reduced, target, d[source])
        expected = partial_trace(dense, (m,) * count, {i})
        assert max_abs(lower.scatter(reduced) - expected) <= ROUTE_TOL * max(1.0, max_abs(expected))


def unique_shifted(index):
    """Oracle for _WeightSectors.shifted: the reached pairs by np.unique, and each pair's
    position in same by a searchsorted through the argsort of same."""
    m, dim = index.m, len(index.digits)
    by_flat = np.argsort(index.same)

    def position(flat):
        at = by_flat[np.minimum(np.searchsorted(index.same, flat, sorter=by_flat), len(index.same) - 1)]
        return np.where(index.same[at] == flat, at, len(index.same))

    digits = index.digits[:, ::-1]
    powers = m ** np.arange(digits.shape[1])
    up = np.arange(dim)[:, None] + ((digits + 1) % m - digits) * powers
    down = np.arange(dim)[:, None] + ((digits - 1) % m - digits) * powers
    reached = np.unique(np.concatenate([(up[index.rows] * dim + index.cols[:, None]).ravel(),
                                        (index.rows[:, None] * dim + down[index.cols]).ravel()]))
    rows, cols = np.divmod(reached, dim)
    return position(down[rows].T * dim + cols), position(rows * dim + up[cols].T)


@pytest.mark.parametrize("m,count", [(1, 3), (2, 3), (5, 3), (3, 4), (4, 4), (2, 5)])
def test_shifted_matches_the_unique_construction(m, count):
    raised, lowered = _weight_sectors(m, count).shifted
    oracle_raised, oracle_lowered = unique_shifted(_weight_sectors(m, count))
    assert np.array_equal(raised, oracle_raised) and np.array_equal(lowered, oracle_lowered)


def with_off_sector_mass(povm, value=1e-3):
    """An explicit copy of povm with a Hermitian pair of entries between |0…0> and
    |0…01>, which lie in different weight sectors, moved from Π_0 to Π_1."""
    elements = [e.copy() for e in povm.elements]
    for i, j in ((0, 1), (1, 0)):
        elements[0][i, j] -= value
        elements[1][i, j] += value
    return Povm(m=povm.m, n=povm.n, elements=elements)


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
    oracle_cov = dataclasses.replace(cov, unitary_residual=sector_cyclic_residual(povm))
    generator_cov = dataclasses.replace(
        cov, unitary_residual=generator_lift_residual(povm, raising_and_lowering(m)))
    haar_cov = dataclasses.replace(cov, unitary_residual=haar_lift_residual(povm, 2, 5))
    assert generator_cov.unitary_ok == haar_cov.unitary_ok == cov.unitary_ok
    for r, c in ((report, cov), (oracle_report, oracle_cov), (oracle_report, generator_cov),
                 (oracle_report, haar_cov)):
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
    check or reorder_factors conjugation; with off-sector mass it takes one dense
    hermiticity check per element and 2n−3 conjugations."""
    povm = family_povm(family, 4, 3)
    povm.elements
    leaky = with_off_sector_mass(povm)
    kron_factors, hermitian_checks, reorders = [], [], []
    real_kron, real_herm = tensor_algebra.kron_chain, tensor_algebra.require_hermitian
    real_reorder = tensor_algebra.reorder_factors

    def kron_spy(factors):
        factors = list(factors)
        kron_factors.append(len(factors))
        return real_kron(factors)

    def herm_spy(a):
        hermitian_checks.append(np.shape(a))
        return real_herm(a)

    def reorder_spy(*args):
        reorders.append(args[2])
        return real_reorder(*args)

    for info in pkgutil.iter_modules(udisc.__path__):
        module = importlib.import_module(f"udisc.{info.name}")
        if getattr(module, "kron_chain", None) is real_kron:
            monkeypatch.setattr(module, "kron_chain", kron_spy)
        if getattr(module, "require_hermitian", None) is real_herm:
            monkeypatch.setattr(module, "require_hermitian", herm_spy)
        if getattr(module, "reorder_factors", None) is real_reorder:
            monkeypatch.setattr(module, "reorder_factors", reorder_spy)
    spy = EigvalshSpy(monkeypatch)
    assert verify_unambiguous(povm).passed
    assert check_covariance(povm).passed
    assert max(kron_factors, default=0) < povm.n + 1
    assert spy.shapes and spy.dense_calls(povm.dim) == []
    assert hermitian_checks == [] and reorders == []
    verify_unambiguous(leaky)
    check_covariance(leaky)
    assert hermitian_checks == [(povm.dim, povm.dim)] * (povm.n + 1)
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
    """A non-Hermitian sector entry, a completeness break on the diagonal, a swap of one
    sector block between Π_1 and Π_2, and NaN or ±inf inside or outside the sectors
    give the dense verdicts, errors and residuals on both verify_unambiguous and
    check_covariance."""
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
    explicit = Povm(m=m, n=n, elements=elements)
    assert_routes_agree(explicit)
    if kind == "non_finite":
        for check in (verify_unambiguous, check_covariance):
            with pytest.raises(ValueError, match="NaN or Inf"):
                check(explicit)


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
    """The file udisc build writes (the sector-row layout), or for layout "dense" its POVM
    written again explicitly, as Povm(m, n, elements=...)."""
    path = tmp_path / f"{family}_{m}_{n}.povm"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["build", "--m", str(m), "--n", str(n), "--family", family, "--out", str(path)]) == 0
    if layout == "dense":
        write_povm(path, Povm(m=m, n=n, elements=read_povm(path).elements))
    return path


@pytest.mark.parametrize("layout", ["dense", "sector"])
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
