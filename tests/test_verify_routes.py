"""The verify routes against their dense oracles.

``verify`` reads minimum eigenvalues from weight-sector blocks and applies
each Haar-random U^⊗(n+1) as two Kronecker factors.  The dense routes they
replace live here: the lifted unitary from kron_chain conjugating each
element, and one eigvalsh per element.  Both routes must agree within
1e-14, take the dense fallback when an element leaves its sectors, and fail
the same perturbed POVMs.
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


def dense_unitary_residual(povm, trials, seed):
    """Oracle: conjugate every element by the lifted kron_chain([u] * (n+1))."""
    rng = np.random.default_rng(seed)
    residual = 0.0
    for _ in range(trials):
        u = rand_unitary(povm.m, rng)
        lifted = kron_chain([u] * (povm.n + 1))
        for e in povm.elements:
            residual = max(residual, max_abs(lifted @ e @ lifted.conj().T - e))
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


@pytest.mark.parametrize("family,m,n", CASES)
def test_unitary_residual_matches_dense(family, m, n):
    povm = family_povm(family, m, n)
    fast = check_covariance(povm, trials=3, seed=11).unitary_residual
    assert abs(fast - dense_unitary_residual(povm, 3, 11)) <= ROUTE_TOL


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
    else:
        # Π_1 annihilates |0…0>, so taking ε|0…0><0…0| away from it leaves eigenvalue -ε
        h = -np.diag(np.eye(dim)[0]).astype(complex)
    elements = [e.copy() for e in povm.elements]
    elements[1] = elements[1] + 1e-3 * h
    elements[0] = elements[0] - 1e-3 * h
    return Povm(m=m, n=n, elements=elements)


@pytest.mark.parametrize("family,m,n", [("universal", 3, 2), ("universal", 4, 3)])
@pytest.mark.parametrize("kind", ["leakage", "non_covariant", "negative"])
def test_perturbations_fail_on_both_routes(family, m, n, kind):
    povm = perturb(family_povm(family, m, n), kind, np.random.default_rng(3))
    report = verify_unambiguous(povm)
    cov = check_covariance(povm, trials=2, seed=5)
    oracle_report = dataclasses.replace(report, psd_mins=tuple(dense_psd_mins(povm)))
    oracle_cov = dataclasses.replace(cov, unitary_residual=dense_unitary_residual(povm, 2, 5))
    for r, c in ((report, cov), (oracle_report, oracle_cov)):
        assert not (r.passed and c.passed)
        if kind == "leakage":
            assert r.max_leakage() > LEAKAGE_TOL and not r.passed
        elif kind == "non_covariant":
            assert c.unitary_residual > UNITARY_COV_TOL and not c.passed
        else:
            assert min(r.psd_mins) < -PSD_RESIDUAL_TOL and not r.passed
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
    assert check_covariance(povm, trials=2, seed=1).passed
    assert kron_factors and max(kron_factors) < povm.n + 1
    assert spy.shapes and spy.dense_calls(povm.dim) == []
    assert hermitian_checks == [(povm.dim, povm.dim)] * (povm.n + 1)
