"""Acceptance suite: one test per acceptance criterion, at pinned tolerances.

Each test prints a single [PASS]/[FAIL] line (run pytest with -s to see them
all; by default pytest shows the printed line for failing tests only).

Criteria 9 and 11 once asserted claims that are false for generic inputs:
the upper end p <= p_s/(n·n!) of the efficiency sandwich, and
<φ|Ω|φ>·Tr Ω <= <φa|Tr_B Ω|φa>·<φb|Tr_A Ω|φb>.  They now assert the proven,
tight statements, and each keeps its counterexample as a passing check: for
n = 2 the attained p is (2 - p_s) times the old upper end, and the
maximally entangled projector on 2x2 with φ = |00> gives 1/2 > 1/4.
"""

import math

import numpy as np

from conftest import core_residuals, rand_independent_states, rand_psd, rand_state, rand_states, random_ensemble
from udisc.antisym import antisym_projector
from udisc.discriminator import (
    Povm,
    build_optimal_equal,
    build_trivial_antisym,
    build_universal,
    check_covariance,
    cross_term,
    efficiency_bounds,
    known_state_optimum,
    program_input,
    success_prob_analytic,
    success_prob_operational,
    verify_unambiguous,
)
from udisc.config import DEFAULT_ENTRY_CAP
from udisc.gram_spectra import c_optimal, extremal_eigenvalues, gram_closed_form, gram_numeric, build_basis_vectors
from udisc.mixed_states import bounds_check, build_program, core_decompose, part_probabilities
from udisc.sampler import outcome_distribution, sample
from udisc.tensor_algebra import gram_det, kron_chain, max_abs, partial_trace


def report(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:02d}: {detail}")


def test_criterion_01_antisym_dimension():
    worst = 0.0
    covered = []
    for m in range(2, 7):
        for n in range(2, m + 1):
            if (m**n) ** 2 > DEFAULT_ENTRY_CAP:
                continue
            covered.append((m, n))
            tr = float(np.trace(antisym_projector(m, n).matrix).real)
            worst = max(worst, abs(tr - math.comb(m, n)))
    ok = worst <= 1e-9
    report(1, ok, f"Tr of the antisymmetric projector equals C(m,n) on {covered}, "
                  f"max deviation {worst:.2e} (tol 1e-9)")
    assert ok


def test_criterion_02_gram_determinant_identity():
    rng = np.random.default_rng(202)
    worst = 0.0
    for n in (2, 3):
        for m in range(n, 6):
            phi = antisym_projector(m, n).matrix
            for _ in range(100):
                states = rand_states(n, m, rng)
                vec = kron_chain(list(states))
                value = float((vec.conj() @ phi @ vec).real)
                worst = max(worst, abs(value - gram_det(states) / math.factorial(n)))
    ok = worst <= 1e-10
    report(2, ok, f"quadratic form vs det(X)/n! over 100 draws per regime, "
                  f"max deviation {worst:.2e} (tol 1e-10)")
    assert ok


def test_criterion_03_spectral_constants():
    worst = 0.0
    for n in (2, 3, 4):
        summary = extremal_eigenvalues(gram_closed_form(n, n))
        worst = max(worst, abs(summary.lambda_max - (n + 1) / n))
        worst = max(worst, abs(c_optimal(n, n) - n / (n + 1)))
    for m, n in ((3, 2), (4, 2), (4, 3), (5, 3)):
        summary = extremal_eigenvalues(gram_numeric(build_basis_vectors(m, n)))
        worst = max(worst, abs(summary.max_over("gamma") - (n + 1) / n))
        worst = max(worst, abs(summary.max_over("lambda") - n))
        worst = max(worst, abs(c_optimal(m, n) - 1 / n))
    ok = worst <= 1e-9
    report(3, ok, f"largest eigenvalues (n+1)/n and n fix c = n/(n+1), 1/n; "
                  f"max deviation {worst:.2e} (tol 1e-9)")
    assert ok


def test_criterion_04_closed_form_vs_brute_force():
    worst = 0.0
    regimes = [(m, n) for n in (2, 3) for m in range(n, 6)]
    for m, n in regimes:
        gn = gram_numeric(build_basis_vectors(m, n))
        gc = gram_closed_form(m, n)
        worst = max(worst, max_abs(gn.matrix - gc.matrix))
    ok = worst <= 1e-10
    report(4, ok, f"closed-form Gram equals brute force on {regimes}, "
                  f"max entry deviation {worst:.2e} (tol 1e-10)")
    assert ok


def _builders_for(n):
    yield build_optimal_equal(n)
    yield build_universal(n + 1, n)


def test_criterion_05_povm_validity_and_maximality():
    worst_validity = 0.0
    worst_boundary = -np.inf  # most positive min-eigenvalue after inflating c
    for n in (2, 3):
        for povm in _builders_for(n):
            mins, completeness = povm.residuals()
            worst_validity = max(worst_validity, -min(mins), completeness)
            blocks = sum(povm.elements[1:]) / povm.c
            inflated = np.eye(povm.dim) - povm.c * 1.01 * blocks
            worst_boundary = max(worst_boundary, float(np.linalg.eigvalsh(inflated)[0]))
    ok = worst_validity <= 1e-9 and worst_boundary <= -1e-3
    report(5, ok, f"PSD/completeness residual {worst_validity:.2e} (tol 1e-9); "
                  f"inflating c by 1% drives an eigenvalue to {worst_boundary:.2e} (<= -1e-3)")
    assert ok


def test_criterion_06_unambiguity_verifier():
    builders = [build_optimal_equal(2), build_universal(3, 2), build_trivial_antisym(3, 2)]
    all_pass = all(verify_unambiguous(p).passed for p in builders)
    dim = 8
    eye = np.eye(dim, dtype=complex)
    counterexample = Povm(m=2, n=2,
                          elements=(eye / 2, eye / 2, np.zeros((dim, dim), dtype=complex)))
    bad_report = verify_unambiguous(counterexample)
    ok = all_pass and (not bad_report.passed) and bad_report.max_leakage() > 1e-3
    report(6, ok, f"all three builders verify; counterexample leaks "
                  f"{bad_report.max_leakage():.2e} (> 1e-3) and fails")
    assert ok


def test_criterion_07_unambiguity_zeros():
    rng = np.random.default_rng(207)
    worst = 0.0
    for m, n, povm in ((2, 2, build_optimal_equal(2)), (3, 2, build_universal(3, 2))):
        for _ in range(100):
            states = rand_independent_states(n, m, rng)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i != j:
                        worst = max(worst, cross_term(povm, states, i, j))
    ok = worst <= 1e-10
    report(7, ok, f"wrong-state outcome probabilities over 100 sets per regime, "
                  f"max {worst:.2e} (tol 1e-10)")
    assert ok


def test_criterion_08_success_probabilities():
    rng = np.random.default_rng(208)
    worst = 0.0
    for m, n, regime, povm in (
        (2, 2, "optimal", build_optimal_equal(2)),
        (3, 3, "optimal", build_optimal_equal(3)),
        (3, 2, "universal", build_universal(3, 2)),
        (4, 2, "universal", build_universal(4, 2)),
    ):
        for _ in range(25):
            states = rand_independent_states(n, m, rng)
            expected = success_prob_analytic(states, regime)
            for i in range(1, n + 1):
                worst = max(worst, abs(success_prob_operational(povm, states, i) - expected))
    pinned = (
        abs(success_prob_operational(build_optimal_equal(2), np.eye(2, dtype=complex), 1) - 1 / 3),
        abs(success_prob_operational(build_universal(3, 2), np.eye(3, dtype=complex)[:2], 1) - 1 / 4),
        abs(success_prob_operational(build_universal(4, 2), np.eye(4, dtype=complex)[:2], 1) - 1 / 4),
    )
    ok = worst <= 1e-10 and max(pinned) <= 1e-10
    report(8, ok, f"operational equals analytic (max dev {worst:.2e}, tol 1e-10); "
                  f"orthonormal-pair values 1/3 and 1/4, m-independent (dev {max(pinned):.2e})")
    assert ok


def test_criterion_09_efficiency_sandwich():
    # p = det(X)/(n·n!) for the universal device; with p_s = λ_min(X) the proven
    # sandwich is p_s^n/(n·n!) <= p <= p_s·((n-p_s)/(n-1))^(n-1)/(n·n!), and the
    # upper end is exact for n = 2, where det(X) = λ_min·(2 - λ_min).
    rng = np.random.default_rng(209)
    worst_low = -np.inf  # max of lo - p
    worst_high = -np.inf  # max of p - hi
    worst_tight = 0.0  # max |p - hi| at n = 2
    worst_ratio = 0.0  # max |p/(p_s/(n·n!)) - (2 - p_s)| at n = 2
    old_violations = 0
    total = 0
    for n in (2, 3):
        m = n + 1
        povm = build_universal(m, n)
        denom = n * math.factorial(n)
        for _ in range(100):
            total += 1
            states = rand_independent_states(n, m, rng)
            p = success_prob_operational(povm, states, 1)
            p_s = known_state_optimum(states)
            lo, hi = efficiency_bounds(p_s, n)
            worst_low = max(worst_low, lo - p)
            worst_high = max(worst_high, p - hi)
            # the earlier claimed upper end p <= p_s/(n·n!), kept as a record
            old_hi = p_s / denom
            if p > old_hi + 1e-10:
                old_violations += 1
            if n == 2:
                worst_tight = max(worst_tight, abs(p - hi))
                worst_ratio = max(worst_ratio, abs(p / old_hi - (2 - p_s)))
    # equality at both ends for orthonormal sets (p_s = 1)
    eq_dev = 0.0
    for n in (2, 3):
        povm = build_universal(n + 1, n)
        ortho = np.eye(n + 1, dtype=complex)[:n]
        p = success_prob_operational(povm, ortho, 1)
        lo, hi = efficiency_bounds(known_state_optimum(ortho), n)
        eq_dev = max(eq_dev, abs(p - lo), abs(p - hi))
    ok = (worst_low <= 1e-10 and worst_high <= 1e-10 and worst_tight <= 1e-10
          and worst_ratio <= 1e-10 and eq_dev <= 1e-10)
    report(9, ok, f"lo - p max {worst_low:.2e}, p - hi max {worst_high:.2e} (tol 1e-10); "
                  f"n=2 tightness {worst_tight:.2e}; p_s=1 equality {eq_dev:.2e}; "
                  f"old end p_s/(n*n!) exceeded on {old_violations}/{total} sets, "
                  f"n=2 ratio 2 - p_s to {worst_ratio:.2e}")
    assert ok, (
        f"sandwich p_s^n/(n*n!) <= p <= p_s*((n-p_s)/(n-1))^(n-1)/(n*n!) broken: lower "
        f"excess {worst_low:.3e}, upper excess {worst_high:.3e}, n=2 tightness "
        f"{worst_tight:.3e}, ratio to the old end off 2 - p_s by {worst_ratio:.3e}, "
        f"p_s=1 equality off by {eq_dev:.3e}"
    )


def test_criterion_10_covariance_invariants():
    reports = [
        check_covariance(build_universal(3, 2)),
        check_covariance(build_optimal_equal(3)),
        check_covariance(build_universal(4, 3)),
    ]
    unitary = max(r.unitary_residual for r in reports)
    permutation = max(r.permutation_residual for r in reports)
    reduction = max(r.reduction_residual for r in reports)
    spread = max(r.reduction_spread for r in reports)
    ok = unitary <= 1e-9 and permutation <= 1e-10 and reduction <= 1e-9 and spread <= 1e-10
    report(10, ok, f"generator commutator residual {unitary:.2e} (tol 1e-9); permutation "
                   f"residual {permutation:.2e} (tol 1e-10); constant reduction "
                   f"residual {reduction:.2e}, spread {spread:.2e}")
    assert ok


def _overlap_and_marginals(omega, dims, va, vb):
    v = kron_chain([va, vb])
    q = float((v.conj() @ omega @ v).real)
    qa = float((va.conj() @ partial_trace(omega, dims, {2}) @ va).real)
    qb = float((vb.conj() @ partial_trace(omega, dims, {1}) @ vb).real)
    return q, qa, qb


def test_criterion_11_positive_operator_inequality():
    # For PSD Ω and product φ = φa ⊗ φb, positivity gives <φ|Ω|φ> <= each
    # marginal <φa|Tr_B Ω|φa>, <φb|Tr_A Ω|φb>, hence <φ|Ω|φ>² <= their product,
    # and a vanishing marginal forces <φ|Ω|φ> = 0.
    rng = np.random.default_rng(211)
    worst = -np.inf  # max excess over the three inequalities
    worst_vanish = 0.0  # max |marginal|, |<φ|Ω'|φ>| once Ω' kills φa (or φb)
    old_violations = 0
    total = 0
    for da, db in ((2, 2), (2, 3), (3, 3)):
        dims = (da, db)
        for _ in range(67):
            total += 1
            omega = rand_psd(da * db, rng, rank=int(rng.integers(1, da * db + 1)))
            va, vb = rand_state(da, rng), rand_state(db, rng)
            q, qa, qb = _overlap_and_marginals(omega, dims, va, vb)
            worst = max(worst, q - qa, q - qb, q * q - qa * qb)
            # the earlier claimed <φ|Ω|φ>·Tr Ω <= product, kept as a record
            if q * float(np.trace(omega).real) > qa * qb + 1e-10:
                old_violations += 1
            kill_a = kron_chain([np.eye(da) - np.outer(va, va.conj()), np.eye(db)])
            kill_b = kron_chain([np.eye(da), np.eye(db) - np.outer(vb, vb.conj())])
            q_a, qa_a, _ = _overlap_and_marginals(kill_a @ omega @ kill_a, dims, va, vb)
            q_b, _, qb_b = _overlap_and_marginals(kill_b @ omega @ kill_b, dims, va, vb)
            worst_vanish = max(worst_vanish, abs(qa_a), abs(q_a), abs(qb_b), abs(q_b))
    # hand-checkable record of the false claim: Ω = |Φ+><Φ+| on 2x2, φ = |00>
    bell = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    omega = np.outer(bell, bell.conj())
    e0 = np.array([1, 0], dtype=complex)
    q, qa, qb = _overlap_and_marginals(omega, (2, 2), e0, e0)
    lhs = q * float(np.trace(omega).real)
    record = (abs(lhs - 1 / 2) <= 1e-10 and abs(qa * qb - 1 / 4) <= 1e-10
              and q * q <= qa * qb + 1e-10)
    ok = worst <= 1e-10 and worst_vanish <= 1e-10 and record
    report(11, ok, f"<phi|Omega|phi> <= each marginal and its square <= their product on "
                   f"{total} draws (worst excess {worst:.2e}, tol 1e-10); vanishing marginal "
                   f"leaves {worst_vanish:.2e}; Tr(Omega) variant fails on "
                   f"{old_violations}/{total} and by hand (1/2 > 1/4): {record}")
    assert ok, (
        f"marginal inequalities broken by {worst:.3e}, vanishing-marginal overlap "
        f"{worst_vanish:.3e}, Bell-state record holds: {record}"
    )


def test_criterion_12_mixed_pipeline():
    rng = np.random.default_rng(212)
    worst_split = worst_contain = 0.0
    worst_inter = 0
    for _ in range(100):
        rhos = random_ensemble(rng)
        cores = core_decompose(rhos)
        res = core_residuals(cores, rhos)
        worst_split = max(worst_split, res["split"])
        worst_contain = max(worst_contain, res["containment"])
        worst_inter = max(worst_inter, int(res["intersection_dim"]))

    worst_off = 0.0
    worst_bound = -np.inf
    equivalences = 0
    checked = 0
    while checked < 15:
        rhos = random_ensemble(rng, n_states=2, dims=(2, 3))
        cores = core_decompose(rhos)
        program = build_program(cores)
        if not 2 <= program.total <= 4 or program.dim < program.total:
            continue
        checked += 1
        own = []
        for s in (1, 2):
            probs = part_probabilities(program, rhos[s - 1])
            own.append(probs.parts[s])
            for i, p in enumerate(probs.parts):
                if i not in (0, s):
                    worst_off = max(worst_off, p)
            worst_bound = max(worst_bound, bounds_check(program, s, probs).worst_violation())
        if cores.discriminable == all(p > 1e-12 for p in own):
            equivalences += 1
    ok = (worst_split <= 1e-10 and worst_contain <= 1e-9 and worst_inter == 0
          and worst_off <= 1e-10 and worst_bound <= 1e-9 and equivalences == checked)
    report(12, ok, f"core residuals over 100 ensembles: split {worst_split:.2e} (1e-10), "
                   f"containment {worst_contain:.2e} (1e-9), intersections {worst_inter}; "
                   f"off-part probability max {worst_off:.2e} (1e-10); bound violation "
                   f"{worst_bound:.2e} (1e-9); verdict equivalence {equivalences}/{checked}")
    assert ok


def test_criterion_13_sampling():
    rng = np.random.default_rng(213)
    shots = 100000
    worst_sigma = 0.0
    forbidden = 0
    for m, n, povm in ((2, 2, build_optimal_equal(2)), (3, 2, build_universal(3, 2))):
        for trial in range(10):
            states = rand_independent_states(n, m, rng)
            j = int(rng.integers(1, n + 1))
            dist = outcome_distribution(povm, program_input(states, j))
            record = sample(dist, shots, seed=1300 + trial)
            for k, p in enumerate(dist.probabilities):
                se = math.sqrt(p * (1 - p) / shots)
                if se > 0:
                    worst_sigma = max(worst_sigma, abs(record.frequencies[k] - p) / se)
                else:
                    forbidden += 0 if record.frequencies[k] == p else 1
            for k in range(1, n + 1):
                if k != j and record.counts[k] != 0:
                    forbidden += 1
    dist = outcome_distribution(build_universal(3, 2),
                                program_input(np.eye(3, dtype=complex)[:2], 1))
    first = sample(dist, shots, seed=99)
    second = sample(dist, shots, seed=99)
    identical = first.counts == second.counts
    ok = worst_sigma <= 4.0 and forbidden == 0 and identical
    report(13, ok, f"empirical frequencies within {worst_sigma:.2f} standard errors "
                   f"(budget 4); forbidden-outcome counts {forbidden}; identical seeds "
                   f"give identical records: {identical}")
    assert ok
