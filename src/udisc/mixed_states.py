"""Unambiguous discrimination of mixed states via pure-state programs.

Each density operator ρ_i splits uniquely as ρ_i = ρ̃_i + ρ̂_i where ρ̂_i is
supported inside the span of the other states' supports and the support of
ρ̃_i avoids that span entirely.  Each ρ̂_i is computed in ρ_i's own
eigenbasis, from one SVD for the span of the other supports and one for
the null space that fixes ρ̂_i (core_decompose).  The ρ̃_i (plus
ρ̃_0 = Σ ρ̂_i) are realised by linearly independent pure-state parts of a
single product program, which an N-state discriminator then measures;
outcomes grouped by part can only land in the data state's own part or in
part 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import NULL_TOL, SUPPORT_TOL
from .discriminator import auto_family, family_povm, product_probabilities, success_factor
from .errors import LayoutMismatch, ProgramNotIndependent, WrongRegime
from .tensor_algebra import frozen, gram_det, hermitize, require_psd

PART_EIGENVALUE_TOL = 1e-9
DISCRIMINABLE_TRACE_TOL = 1e-9
PROGRAM_DET_TOL = 1e-12

# Slack allowed on either side of the bounds_check envelope.
BOUNDS_TOL = 1e-9
# require_density: largest deviation of the trace from 1.
DENSITY_TRACE_TOL = 1e-10


def require_density(rho) -> np.ndarray:
    """Validate a density operator: PSD within tolerance, unit trace within DENSITY_TRACE_TOL."""
    rho = require_psd(rho)
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > DENSITY_TRACE_TOL:
        raise ValueError(f"density operator has trace {tr!r}, expected 1")
    return rho


@dataclass(frozen=True)
class CoreDecomposition:
    """Per-state splits ρ_i = ρ̃_i + ρ̂_i plus the pooled remainder ρ̃_0 = Σ ρ̂_i, as
    read-only arrays (tensor_algebra.frozen)."""

    tildes: tuple[np.ndarray, ...]
    hats: tuple[np.ndarray, ...]
    tilde0: np.ndarray

    def __post_init__(self):
        for name in ("tildes", "hats"):
            object.__setattr__(self, name, tuple(map(frozen, getattr(self, name))))
        object.__setattr__(self, "tilde0", frozen(self.tilde0))

    @property
    def n(self) -> int:
        return len(self.tildes)

    @property
    def dim(self) -> int:
        return self.tilde0.shape[0]

    def tilde_traces(self) -> list[float]:
        """Tr ρ̃_i per state, clamped at 0 as is tilde0_trace: ρ̃_i = √ρ_i (I − Q) √ρ_i and
        ρ̂_i = √ρ_i Q √ρ_i, Q a projector, are PSD, and so is ρ̃_0 = Σ ρ̂_i, so each
        trace is ≥ 0 exactly and a negative computed one is rounding."""
        return [max(0.0, float(np.trace(t).real)) for t in self.tildes]

    def tilde0_trace(self) -> float:
        """Tr ρ̃_0, clamped at 0 (proof in tilde_traces)."""
        return max(0.0, float(np.trace(self.tilde0).real))

    @property
    def discriminable(self) -> bool:
        """True when every per-state core ρ̃_i keeps positive trace."""
        return all(t > DISCRIMINABLE_TRACE_TOL for t in self.tilde_traces())


def _support(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(W, W diag(√λ)): the eigenvectors of ρ with eigenvalue λ above
    SUPPORT_TOL·max(1, λ_max) as orthonormal columns, and those columns scaled by √λ."""
    w, v = np.linalg.eigh(rho)
    keep = w > SUPPORT_TOL * max(1.0, float(w[-1]))
    basis = v[:, keep]
    return basis, basis * np.sqrt(w[keep])


def _rank(s: np.ndarray) -> int:
    """Number of singular values (descending) above NULL_TOL·max(1, σ_max)."""
    return int(np.sum(s > NULL_TOL * max(1.0, float(s[0]))))


def core_decompose(rhos) -> CoreDecomposition:
    """Split each state against the span of the others.

    With S_i = Σ_{j≠i} supp(ρ_j) and V the part of supp(ρ_i) that √ρ_i maps
    into S_i, the projector Q onto V gives ρ̂_i = √ρ_i Q √ρ_i (supported in
    S_i by construction) and ρ̃_i = ρ_i - ρ̂_i, whose support cannot meet S_i:
    any vector of it pulls back under √ρ_i to V ∩ V^⊥ = {0}.

    Q is found in ρ_i's own eigenbasis.  Write ρ_i = W diag(λ) W† over the
    eigenvalues above SUPPORT_TOL·max(1, λ_max), so W is an orthonormal
    basis of supp ρ_i and √ρ_i W = W diag(√λ).  Let B be an orthonormal
    basis of S_i (one SVD of the other densities' support vectors) and
    M = (I - BB†) W diag(√λ).  A vector x of supp ρ_i is W y, and
    √ρ_i x = W diag(√λ) y lies in S_i exactly when M y = 0: the pull-back of
    S_i under √ρ_i meets supp ρ_i in V = W·null(M).  With K an orthonormal
    basis of null(M), W K is one of V, so Q = W K K† W† and
    ρ̂_i = √ρ_i Q √ρ_i = (W diag(√λ) K)(W diag(√λ) K)†.  Ranks count the
    singular values above NULL_TOL·max(1, σ_max).  √ρ_i itself is never
    formed, so an eigenvalue of rounding size (1e-17), which it would raise
    to a component of about 1e-9 outside supp ρ_i, cannot enter the rank of
    M and drop a direction of V.
    """
    mats = [require_density(r) for r in rhos]
    if len(mats) < 2:
        raise ValueError("need at least two states to decompose")
    dim = mats[0].shape[0]
    if any(r.shape != (dim, dim) for r in mats):
        raise LayoutMismatch("all density operators must share one dimension")

    supports = [_support(r) for r in mats]
    tildes, hats = [], []
    for i, rho in enumerate(mats):
        others = [basis for j, (basis, _) in enumerate(supports) if j != i]
        u, s, _ = np.linalg.svd(np.hstack(others), full_matrices=False)
        b = u[:, :_rank(s)]
        scaled = supports[i][1]
        _, s, vh = np.linalg.svd((np.eye(dim) - b @ b.conj().T) @ scaled)
        a = scaled @ vh[_rank(s):].conj().T
        hat = hermitize(a @ a.conj().T)
        hats.append(hat)
        tildes.append(hermitize(rho - hat))
    return CoreDecomposition(tildes=tuple(tildes), hats=tuple(hats), tilde0=hermitize(sum(hats)))


@dataclass(frozen=True)
class MixedProgram:
    """Pure-state parts realising the cores, assembled into one product program.

    Part 0 carries ρ̃_0, parts 1..n the per-state cores; part i occupies the
    program registers listed in part_registers[i] (1-based, empty when the
    core vanishes).  Every array is read-only (tensor_algebra.frozen).
    """

    dim: int
    part_states: tuple[np.ndarray, ...]  # each (k_i, dim); rows are unit vectors
    part_weights: tuple[np.ndarray, ...]
    part_registers: tuple[tuple[int, ...], ...]
    states: np.ndarray  # all N program states stacked in register order
    det_gram: float

    def __post_init__(self):
        for name in ("part_states", "part_weights"):
            object.__setattr__(self, name, tuple(map(frozen, getattr(self, name))))
        object.__setattr__(self, "states", frozen(self.states))

    @property
    def total(self) -> int:
        return self.states.shape[0]

    def part_trace(self, i: int) -> float:
        return float(np.sum(self.part_weights[i]))


def build_program(cores: CoreDecomposition) -> MixedProgram:
    """Spectral programs: each part holds the eigenvectors of its core.

    Eigenvalues act as the (sub-normalized) mixing weights, so each part
    reproduces its core exactly and is orthonormal within itself.  The union
    of all parts must be linearly independent; otherwise
    ProgramNotIndependent is raised.
    """
    ops = [cores.tilde0] + list(cores.tildes)
    part_states, part_weights = [], []
    for op in ops:
        w, v = np.linalg.eigh(hermitize(op))
        sel = w > PART_EIGENVALUE_TOL
        vecs = v[:, sel][:, ::-1].T  # descending weight order
        part_states.append(vecs)
        part_weights.append(w[sel][::-1])

    all_states = np.vstack([p for p in part_states if p.size] or [np.zeros((0, cores.dim))])
    total = all_states.shape[0]
    if total == 0:
        raise ValueError("all cores vanished; nothing to program")
    det = gram_det(all_states)
    if det <= PROGRAM_DET_TOL:
        raise ProgramNotIndependent(
            f"program states have Gram determinant {det:.3e}; the parts do not form "
            "a linearly independent family"
        )

    registers = []
    next_register = 1
    for p in part_states:
        registers.append(tuple(range(next_register, next_register + p.shape[0])))
        next_register += p.shape[0]

    return MixedProgram(
        dim=cores.dim,
        part_states=tuple(part_states),
        part_weights=tuple(part_weights),
        part_registers=tuple(registers),
        states=all_states,
        det_gram=det,
    )


@dataclass(frozen=True)
class PartProbabilities:
    """Outcome probabilities of the N-state discriminator grouped by part."""

    parts: tuple[float, ...]  # p_0 .. p_n
    inconclusive: float  # POVM outcome 0
    outcome_probs: tuple[float, ...]  # raw POVM outcomes 0..N
    family: str  # discriminator family of the N-state device

    @property
    def total(self) -> float:
        return sum(self.parts) + self.inconclusive


def part_probabilities(program: MixedProgram, rho) -> PartProbabilities:
    """Measure the program with the data register in the mixed state ρ.

    The probability is linear in ρ, so it is the eigenvalue-weighted sum over
    the eigenvectors of ρ of the closed-form probabilities of the product
    program ⊗ eigenvector; no operator is built.  The device is the
    auto_family one: optimal when dim == N, universal otherwise.  Outcome j
    of the N-state device is credited to the part owning register j;
    outcome 0 is the inconclusive answer.
    """
    rho = require_density(rho)
    m = program.dim
    if rho.shape != (m, m):
        raise LayoutMismatch(f"data state of shape {rho.shape} does not match dimension {m}")
    n_states = program.total
    if n_states < 2:
        raise WrongRegime(f"the program holds {n_states} pure state(s); need at least 2")
    povm = family_povm(auto_family(m, n_states), m, n_states)

    w, v = np.linalg.eigh(rho)
    outcomes = sum(
        weight * product_probabilities(povm, np.vstack([program.states, column]))
        for weight, column in zip(w, v.T)
    )
    parts = tuple(
        float(sum(outcomes[r] for r in regs)) for regs in program.part_registers
    )
    return PartProbabilities(
        parts=parts,
        inconclusive=float(outcomes[0]),
        outcome_probs=tuple(float(x) for x in outcomes),
        family=povm.family,
    )


@dataclass(frozen=True)
class BoundsReport:
    """Lower/upper envelope on part probabilities for data state index s."""

    data_index: int
    kappa: float  # per-outcome success probability of the device
    lower_bound: float  # on the part matching the data state
    upper_bounds: tuple[float, ...]  # per part
    parts: tuple[float, ...]

    @property
    def lower_ok(self) -> bool:
        return self.parts[self.data_index] >= self.lower_bound - BOUNDS_TOL

    @property
    def upper_ok(self) -> bool:
        return all(p <= u + BOUNDS_TOL for p, u in zip(self.parts, self.upper_bounds))

    @property
    def passed(self) -> bool:
        return self.lower_ok and self.upper_ok

    def worst_violation(self) -> float:
        low = self.lower_bound - self.parts[self.data_index]
        highs = [p - u for p, u in zip(self.parts, self.upper_bounds)]
        return max([low] + highs)


def bounds_check(program: MixedProgram, data_index: int, probs: PartProbabilities) -> BoundsReport:
    """Envelope: p_s ≥ Tr(ρ̃_s)·κ and p_i ≤ δ_is Tr(ρ̃_s)·κ + δ_i0 Tr(ρ̃_0)·κ.

    κ is the per-outcome success probability of the device actually used,
    success_factor(probs.family, N)·det(X) with X the Gram matrix of the N
    program states.
    """
    n_parts = len(program.part_registers)
    if not 1 <= data_index <= n_parts - 1:
        raise ValueError(f"data index {data_index} outside 1..{n_parts - 1}")
    kappa = success_factor(probs.family, program.total) * program.det_gram
    tr_s = program.part_trace(data_index)
    tr_0 = program.part_trace(0)
    uppers = tuple(
        (tr_s * kappa if i == data_index else 0.0) + (tr_0 * kappa if i == 0 else 0.0)
        for i in range(n_parts)
    )
    return BoundsReport(
        data_index=data_index,
        kappa=kappa,
        lower_bound=tr_s * kappa,
        upper_bounds=uppers,
        parts=probs.parts,
    )
