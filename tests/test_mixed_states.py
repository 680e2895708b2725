import itertools
import math

import numpy as np
import pytest

from conftest import (
    core_residuals,
    ket,
    rand_density,
    rand_unitary,
    random_ensemble,
    subspace_cores,
    support_projector,
)
from udisc.discriminator import build_optimal_equal, build_universal
from udisc.errors import LayoutMismatch, NotPositive, ProgramNotIndependent, WrongRegime
from udisc.mixed_states import (
    bounds_check,
    build_program,
    core_decompose,
    part_probabilities,
    require_density,
)
from udisc.tensor_algebra import kron_chain, max_abs


def proj(vec):
    return np.outer(vec, vec.conj())


class TestRequireDensity:
    def test_accepts_density(self):
        require_density(np.eye(2) / 2)

    def test_rejects_negative(self):
        with pytest.raises(NotPositive):
            require_density(np.diag([1.5, -0.5]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            require_density(np.eye(2))


class TestCoreDecompose:
    def test_disjoint_supports(self):
        rhos = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        cores = core_decompose(rhos)
        for i in range(2):
            assert max_abs(cores.tildes[i] - rhos[i]) < 1e-12
            assert max_abs(cores.hats[i]) < 1e-12
        assert max_abs(cores.tilde0) < 1e-12

    def test_identical_maximally_mixed(self):
        rhos = [np.eye(2) / 2, np.eye(2) / 2]
        cores = core_decompose(rhos)
        assert max_abs(cores.tildes[0]) < 1e-12
        assert max_abs(cores.tildes[1]) < 1e-12
        assert max_abs(cores.tilde0 - np.eye(2)) < 1e-12

    def test_half_mixed_against_pure(self):
        rhos = [np.eye(2) / 2, np.diag([1.0, 0.0]).astype(complex)]
        cores = core_decompose(rhos)
        assert max_abs(cores.hats[0] - np.diag([0.5, 0.0])) < 1e-10
        assert max_abs(cores.tildes[0] - np.diag([0.0, 0.5])) < 1e-10
        assert max_abs(cores.hats[1] - rhos[1]) < 1e-10
        assert max_abs(cores.tildes[1]) < 1e-10
        # support of the surviving core is exactly span{|1>}
        sub = support_projector(cores.tildes[0])
        assert sub.dim == 1 and sub.contains(ket(1, 2))

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(LayoutMismatch):
            core_decompose([np.eye(2) / 2, np.eye(3) / 3])

    def test_residuals_on_random_ensembles(self):
        rng = np.random.default_rng(70)
        for _ in range(100):
            rhos = random_ensemble(rng)
            cores = core_decompose(rhos)
            res = core_residuals(cores, rhos)
            assert res["split"] <= 1e-10
            assert res["containment"] <= 1e-9
            assert res["intersection_dim"] == 0
            for op in (*cores.tildes, *cores.hats, cores.tilde0):
                assert np.linalg.eigvalsh(op)[0] >= -1e-9

    def test_basis_independence(self):
        # conjugating the inputs by one unitary and undoing it afterwards
        # reproduces the same decomposition
        rng = np.random.default_rng(71)
        for _ in range(20):
            rhos = random_ensemble(rng)
            dim = rhos[0].shape[0]
            u = rand_unitary(dim, rng)
            direct = core_decompose(rhos)
            rotated = core_decompose([u @ r @ u.conj().T for r in rhos])
            for a, b in zip(direct.tildes, rotated.tildes):
                assert max_abs(a - u.conj().T @ b @ u) < 1e-8


def _every_rank(rng):
    """One draw of each rank tuple over d in {2, 3, 4} and 2 or 3 states."""
    for dim in (2, 3, 4):
        for n_states in (2, 3):
            for ranks in itertools.product(range(1, dim + 1), repeat=n_states):
                yield [rand_density(dim, rng, rank=r) for r in ranks]


def _program_total(cores):
    try:
        return build_program(cores).total
    except ProgramNotIndependent:
        return None


class TestCoreDecomposeOracle:
    def test_matches_the_subspace_route(self):
        """core_decompose against conftest.subspace_cores, the preimage and intersection
        route of its docstring: the same matrices within 1e-12, the same verdict and the
        same program size, on random ensembles and on one draw of every rank tuple."""
        rng = np.random.default_rng(79)
        for rhos in itertools.chain((random_ensemble(rng) for _ in range(300)), _every_rank(rng)):
            cores, oracle = core_decompose(rhos), subspace_cores(rhos)
            for a, b in zip((*cores.tildes, *cores.hats, cores.tilde0),
                            (*oracle.tildes, *oracle.hats, oracle.tilde0)):
                assert max_abs(a - b) <= 1e-12
            assert cores.discriminable == oracle.discriminable
            assert _program_total(cores) == _program_total(oracle)

    def test_states_of_one_eigenbasis_keep_their_unshared_weight(self):
        """States diagonal in one random basis, over random sets of its vectors, so that
        supports coincide, nest or overlap in part: ρ̃_i is ρ_i's weight on the basis
        vectors no other state uses.  The subspace route misses this on 22 of these 200
        draws (12 with the wrong verdict), where psd_sqrt turns an eigenvalue of order
        1e-17 into a component of order 1e-9 outside the support, above NULL_TOL."""
        rng = np.random.default_rng(80)
        for _ in range(200):
            dim, n_states = int(rng.choice((2, 3, 4))), int(rng.integers(2, 4))
            u = rand_unitary(dim, rng)
            weights = rng.random((n_states, dim)) * (rng.random((n_states, dim)) < 0.6)
            weights[np.arange(n_states), rng.integers(dim, size=n_states)] += 0.1
            weights /= weights.sum(axis=1, keepdims=True)
            cores = core_decompose([(u * w) @ u.conj().T for w in weights])
            kept = [w * ~np.delete(weights, i, axis=0).any(axis=0) for i, w in enumerate(weights)]
            for tilde, w in zip(cores.tildes, kept):
                assert max_abs(tilde - (u * w) @ u.conj().T) <= 1e-12
            assert cores.discriminable == all(w.any() for w in kept)


class TestDiscriminable:
    def test_orthogonal_pure_pair(self):
        assert core_decompose([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).discriminable

    def test_identical_states(self):
        assert not core_decompose([np.eye(2) / 2, np.eye(2) / 2]).discriminable

    def test_half_mixed_against_pure(self):
        assert not core_decompose([np.eye(2) / 2, np.diag([1.0, 0.0])]).discriminable


class TestBuildProgram:
    def test_orthogonal_pure_pair(self):
        cores = core_decompose([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        program = build_program(cores)
        assert program.total == 2
        assert program.part_registers == ((), (1,), (2,))
        assert np.allclose(np.abs(program.part_states[1]), [[1, 0]])
        assert np.allclose(np.abs(program.part_states[2]), [[0, 1]])

    def test_qutrit_example(self):
        rho1 = np.diag([0.5, 0.5, 0.0]).astype(complex)
        rho2 = np.diag([0.0, 0.0, 1.0]).astype(complex)
        program = build_program(core_decompose([rho1, rho2]))
        assert program.total == 3
        assert np.allclose(program.part_weights[1], [0.5, 0.5])
        assert np.allclose(program.part_weights[2], [1.0])
        assert program.part_registers == ((), (1, 2), (3,))

    def test_weights_sum_to_core_traces(self):
        rng = np.random.default_rng(72)
        for _ in range(20):
            rhos = random_ensemble(rng)
            cores = core_decompose(rhos)
            program = build_program(cores)
            for i in range(len(rhos)):
                assert abs(program.part_trace(i + 1) - cores.tilde_traces()[i]) < 1e-10
            assert abs(program.part_trace(0) - float(np.trace(cores.tilde0).real)) < 1e-10

    def test_nested_support_core_traces_are_never_negative(self):
        """A rank-1 ρ_1 inside supp ρ_2 has a vanishing core, whose computed trace is
        rounding of either sign; the traces are clamped at 0, as ρ̃_i and ρ̃_0 are PSD."""
        rng = np.random.default_rng(74)
        rho2 = np.diag([0.5, 0.5, 0.0]).astype(complex)
        clamped = 0
        for _ in range(50):
            v = np.zeros(3, dtype=complex)
            v[:2] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v /= np.linalg.norm(v)
            cores = core_decompose([np.outer(v, v.conj()), rho2])
            raw = [float(np.trace(t).real) for t in cores.tildes]
            assert cores.tilde_traces() == [max(0.0, t) for t in raw]
            assert cores.tilde0_trace() == max(0.0, float(np.trace(cores.tilde0).real))
            assert abs(raw[0]) < 1e-15 and not cores.discriminable
            clamped += raw[0] < 0
        assert clamped  # the rounding the clamp is for occurs

    def test_parts_reconstruct_cores(self):
        rng = np.random.default_rng(73)
        rhos = random_ensemble(rng, n_states=2, dim=3)
        cores = core_decompose(rhos)
        program = build_program(cores)
        for part, (states, weights) in enumerate(zip(program.part_states, program.part_weights)):
            target = cores.tilde0 if part == 0 else cores.tildes[part - 1]
            rebuilt = sum(
                (w * proj(s) for w, s in zip(weights, states)),
                np.zeros((program.dim, program.dim), dtype=complex),
            )
            assert max_abs(rebuilt - target) < 1e-9

    def test_near_degenerate_ensemble_raises(self):
        eps = 1e-7
        a = ket(0, 2)
        b = np.array([np.cos(eps), np.sin(eps)], dtype=complex)
        cores = core_decompose([proj(a), proj(b)])
        with pytest.raises(ProgramNotIndependent):
            build_program(cores)


class TestPartProbabilities:
    def test_orthogonal_pure_pair_equal_regime(self):
        cores = core_decompose([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        program = build_program(cores)
        probs = part_probabilities(program, np.diag([1.0, 0.0]).astype(complex))
        assert probs.family == "optimal"
        assert probs.parts[1] > 0
        assert probs.parts[2] <= 1e-10
        assert abs(probs.parts[1] - 1 / 3) < 1e-10
        assert abs(probs.total - 1.0) < 1e-9

    def test_orthogonal_pure_pair_universal_regime(self):
        # same pair embedded in a qutrit leaves room for the universal device
        rhos = [np.diag([1.0, 0.0, 0.0]).astype(complex), np.diag([0.0, 1.0, 0.0]).astype(complex)]
        program = build_program(core_decompose(rhos))
        probs = part_probabilities(program, rhos[1])
        assert probs.family == "universal"
        assert abs(probs.parts[2] - 0.25) < 1e-10  # Tr(core)/(N·N!)·det = 1/4
        assert probs.parts[1] <= 1e-10

    def test_pure_core_data_attains_exact_value(self):
        # data with no hat part: p_i = δ_is · Tr(core_s)/(N·N!) · det, universal device
        rho1 = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        rho2 = np.diag([0.0, 0.0, 1.0, 0.0]).astype(complex)
        program = build_program(core_decompose([rho1, rho2]))
        probs = part_probabilities(program, rho1)
        n_states = program.total
        assert probs.family == "universal"
        expected = 1.0 * program.det_gram / (n_states * math.factorial(n_states))
        assert abs(probs.parts[1] - expected) < 1e-10
        assert probs.parts[2] <= 1e-10

    def test_off_parts_vanish(self):
        rng = np.random.default_rng(74)
        count = 0
        while count < 10:
            rhos = random_ensemble(rng, n_states=2, dim=3)
            cores = core_decompose(rhos)
            program = build_program(cores)
            if not 2 <= program.total <= 3 or program.dim <= program.total:
                continue
            count += 1
            for s in (1, 2):
                probs = part_probabilities(program, rhos[s - 1])
                for i, p in enumerate(probs.parts):
                    if i not in (0, s):
                        assert p <= 1e-10

    def test_single_state_program_rejected(self):
        cores = core_decompose([np.diag([1.0, 0.0]), np.diag([1.0, 0.0])])
        program = build_program(cores)  # only the pooled part survives
        assert program.total == 1
        with pytest.raises(WrongRegime):
            part_probabilities(program, np.diag([1.0, 0.0]).astype(complex))

    def test_discriminable_iff_all_own_parts_positive(self):
        rng = np.random.default_rng(75)
        checked = 0
        while checked < 12:
            rhos = random_ensemble(rng, n_states=2)
            cores = core_decompose(rhos)
            program = build_program(cores)
            if not 2 <= program.total <= 4 or program.dim < program.total:
                continue
            checked += 1
            verdict = cores.discriminable
            own = []
            for s in (1, 2):
                probs = part_probabilities(program, rhos[s - 1])
                own.append(probs.parts[s])
            assert verdict == all(p > 1e-12 for p in own)


def dense_outcome_probs(program, rho, devices):
    """Oracle: the dense N-state device measured on each eigenvector of ρ in turn."""
    n_states = program.total
    key = (program.dim, n_states)
    if key not in devices:
        if program.dim == n_states:
            devices[key] = build_optimal_equal(n_states).elements
        else:
            devices[key] = build_universal(program.dim, n_states).elements
    vector = kron_chain(list(program.states))
    w, v = np.linalg.eigh(rho)
    outcomes = np.zeros(n_states + 1)
    for weight, column in zip(w, v.T):
        if weight <= 1e-14:
            continue
        full = np.kron(vector, column)
        for idx, element in enumerate(devices[key]):
            outcomes[idx] += weight * float((full.conj() @ element @ full).real)
    return outcomes


class TestPartProbabilitiesOracle:
    def test_matches_dense_device_on_random_ensembles(self):
        rng = np.random.default_rng(77)
        devices = {}
        checked = 0
        while checked < 20:
            rhos = random_ensemble(rng)
            try:
                program = build_program(core_decompose(rhos))
            except ProgramNotIndependent:
                continue
            if program.total < 2:
                continue
            checked += 1
            for rho in rhos:
                probs = part_probabilities(program, rho)
                dense = dense_outcome_probs(program, rho, devices)
                assert max_abs(np.array(probs.outcome_probs) - dense) <= 1e-12


class TestBoundsCheck:
    def test_orthogonal_pure_pair_tight(self):
        cores = core_decompose([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        program = build_program(cores)
        probs = part_probabilities(program, np.diag([1.0, 0.0]).astype(complex))
        report = bounds_check(program, 1, probs)
        assert report.passed
        assert abs(report.lower_bound - probs.parts[1]) < 1e-10
        assert abs(report.upper_bounds[1] - probs.parts[1]) < 1e-10

    def test_vanishing_pool_collapses_bounds(self):
        rho1 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        rho2 = np.diag([0.0, 0.5, 0.5]).astype(complex)
        program = build_program(core_decompose([rho1, rho2]))
        probs = part_probabilities(program, rho2)
        report = bounds_check(program, 2, probs)
        assert report.passed
        assert report.upper_bounds[0] == 0.0  # no pooled part
        assert abs(probs.parts[2] - report.lower_bound) < 1e-10

    def test_random_ensembles_with_hats(self):
        rng = np.random.default_rng(76)
        checked = 0
        while checked < 20:
            rhos = random_ensemble(rng, n_states=2, dim=3)
            cores = core_decompose(rhos)
            program = build_program(cores)
            if not 2 <= program.total <= 3 or program.dim < program.total:
                continue
            if program.dim == program.total and program.part_trace(0) > 0:
                pass  # equal-regime draws with pooled parts are fine too
            checked += 1
            s = int(rng.integers(1, 3))
            probs = part_probabilities(program, rhos[s - 1])
            report = bounds_check(program, s, probs)
            assert report.passed, f"violation {report.worst_violation():.3e}"


def _orthogonal_pair_program():
    rhos = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    program = build_program(core_decompose(rhos))
    return program, part_probabilities(program, rhos[0])


@pytest.mark.parametrize("call,error,message", [
    (lambda program, _: part_probabilities(program, np.eye(3) / 3), LayoutMismatch,
     r"data state of shape \(3, 3\) does not match dimension 2"),
    (lambda program, probs: bounds_check(program, 3, probs), ValueError, r"data index 3 outside 1\.\.2"),
    (lambda program, probs: bounds_check(program, 0, probs), ValueError, r"data index 0 outside 1\.\.2"),
], ids=["data-dimension", "data-index-past", "data-index-zero"])
def test_refusals_name_the_defect(call, error, message):
    with pytest.raises(error, match=message):
        call(*_orthogonal_pair_program())
