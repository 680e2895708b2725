"""The verify routes against their dense oracles.

``verify`` reads minimum eigenvalues from weight-sector blocks and checks
unitary invariance exactly, as the commutators of each element with
dΓ(E) = Σ_r E_r for the 2(m−1) generators E = E_{a,a+1}, E_{a+1,a}, each
term an index shift on one register axis.  The dense routes live here:
dΓ(E) lifted by kron_chain, the Haar-random U^⊗(n+1) lifted by kron_chain,
and one eigvalsh per element.  The routes must agree within 1e-14 (the
Haar lift on pass/fail), take the dense fallback when an element leaves its
sectors, and fail the same perturbed POVMs.
"""

import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import udisc
from udisc import tensor_algebra
from udisc.antisym import antisym_projector
from udisc.discriminator import (
    LEAKAGE_TOL,
    PSD_RESIDUAL_TOL,
    UNITARY_COV_TOL,
    Povm,
    check_covariance,
    family_povm,
    verify_unambiguous,
)
from udisc.random_states import rand_psd, rand_unitary
from udisc.tensor_algebra import kron_chain, max_abs

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
    assert abs(fast - generator_lift_residual(povm, raising_and_lowering(m))) <= ROUTE_TOL
    assert fast <= UNITARY_COV_TOL and haar_lift_residual(povm, 3, 11) <= UNITARY_COV_TOL


@pytest.mark.parametrize("which", range(4))
def test_non_hermitian_element_needs_both_directions(which):
    # dΓ(E) commutes with itself but not with dΓ(E^T), so a check of only the
    # raising (or only the lowering) generators would pass this element
    m, n = 3, 2
    generators = raising_and_lowering(m)
    element = lift(generators[which], n + 1)
    zero = np.zeros_like(element)
    povm = Povm(m=m, n=n, elements=[np.eye(m ** (n + 1)) - element, element, zero])
    assert generator_lift_residual(povm, [generators[which]]) == 0.0
    cov = check_covariance(povm)
    assert not cov.unitary_ok
    assert abs(cov.unitary_residual - generator_lift_residual(povm, generators)) <= ROUTE_TOL


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
    oracle_cov = dataclasses.replace(
        cov, unitary_residual=generator_lift_residual(povm, raising_and_lowering(m)))
    haar_cov = dataclasses.replace(cov, unitary_residual=haar_lift_residual(povm, 2, 5))
    assert haar_cov.unitary_ok == cov.unitary_ok
    for r, c in ((report, cov), (oracle_report, oracle_cov), (oracle_report, haar_cov)):
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
    kron_chain, without a dense 256 x 256 eigensolve, and with one hermiticity
    check per element."""
    povm = family_povm(family, 4, 3)
    povm.elements
    kron_factors, hermitian_checks = [], []
    real_kron, real_herm = tensor_algebra.kron_chain, tensor_algebra.require_hermitian

    def kron_spy(factors):
        factors = list(factors)
        kron_factors.append(len(factors))
        return real_kron(factors)

    def herm_spy(a):
        hermitian_checks.append(np.shape(a))
        return real_herm(a)

    for info in pkgutil.iter_modules(udisc.__path__):
        module = importlib.import_module(f"udisc.{info.name}")
        if getattr(module, "kron_chain", None) is real_kron:
            monkeypatch.setattr(module, "kron_chain", kron_spy)
        if getattr(module, "require_hermitian", None) is real_herm:
            monkeypatch.setattr(module, "require_hermitian", herm_spy)
    spy = EigvalshSpy(monkeypatch)
    assert verify_unambiguous(povm).passed
    assert check_covariance(povm).passed
    assert max(kron_factors, default=0) < povm.n + 1
    assert spy.shapes and spy.dense_calls(povm.dim) == []
    assert hermitian_checks == [(povm.dim, povm.dim)] * (povm.n + 1)
