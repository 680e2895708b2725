"""Built POVM elements against the Kronecker/reorder oracle.

Element i >= 1 of the optimal and universal families is c·(I_i ⊗ Φ_rest);
the trivial family's is Φ/n on all n+1 registers.  The package writes these
entry by entry from the sign identity ⟨x|Φ|y⟩ = S(x)·S(y)/k!.  The oracle
here takes Φ from the increasing-tuple basis, rounds k!·Φ to its integer
signs, lifts it by np.kron with I and reorder_factors, and scales it by c.
The two are equal everywhere and bit-identical except where np.kron leaves
−0.0 (0·(−x)).  The package's elements, and the files ``udisc build``
writes, hold +0.0 there.
"""

import importlib
import math
import pkgutil
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import udisc
from conftest import element_spectra, sector_rows
from udisc import discriminator, tensor_algebra
from udisc.antisym import _WeightSectors, _weight_sectors, antisym_projector_from_basis
from udisc.cli import main
from udisc.discriminator import Povm, _assemble, family_povm, verify_unambiguous
from udisc.io import read_povm, write_povm
from udisc.tensor_algebra import max_abs, own_register_first, reorder_factors

# The five (family, m, n) of the certify benchmark, with the -0 tokens the oracle's file holds.
CERTIFY = {("universal", 3, 2): 72, ("optimal", 3, 3): 324, ("universal", 5, 2): 800,
           ("universal", 4, 3): 2592, ("trivial", 4, 3): 0}
SIZES = [*CERTIFY, ("optimal", 2, 2), ("optimal", 4, 4)]
# Element spectra agree with the closed form (conftest.element_spectra) within this.
SPECTRUM_TOL = 1e-13


def exact_antisym(m, n):
    """Φ from the increasing-tuple basis, with k!·Φ rounded to its integer signs."""
    f = math.factorial(n)
    return (np.rint(antisym_projector_from_basis(m, n).matrix.real * f) / f).astype(complex)


def kron_reorder_elements(family, m, n):
    """Oracle: (Π_0, …, Π_n) with I_i ⊗ Φ_rest lifted by np.kron and reorder_factors."""
    c = family_povm(family, m, n).c
    if family == "trivial":
        elements = [exact_antisym(m, n + 1) / n] * n
    else:
        base = np.kron(np.eye(m, dtype=complex), exact_antisym(m, n))  # registers [i, rest]
        elements = [c * reorder_factors(base, (m,) * (n + 1), own_register_first(i, n + 1))
                    for i in range(1, n + 1)]
    return [np.eye(m ** (n + 1), dtype=complex) - sum(elements)] + elements


def negative_zeros(a):
    """Mask over the (re, im) doubles of a that are −0.0."""
    parts = a.view(np.float64)
    return (parts == 0) & np.signbit(parts)


def assert_matches_oracle(family, m, n):
    built = family_povm(family, m, n).elements
    oracle = kron_reorder_elements(family, m, n)
    assert len(built) == len(oracle) == n + 1
    for got, expected in zip(built, oracle):
        assert got.dtype == expected.dtype and np.array_equal(got, expected)
        differ = got.view(np.int64) != expected.view(np.int64)
        assert not (differ & ~negative_zeros(expected)).any()
        assert not negative_zeros(got).any()


@pytest.mark.parametrize("family,m,n", SIZES)
def test_elements_match_the_kron_reorder_oracle(family, m, n):
    assert_matches_oracle(family, m, n)


@st.composite
def built_sizes(draw):
    n = draw(st.integers(2, 3))
    family = draw(st.sampled_from(["optimal", "universal", "trivial"]))
    top = 5 if n == 2 else 4
    m = {"optimal": n, "universal": draw(st.integers(n + 1, top)),
         "trivial": draw(st.integers(n, top))}[family]
    return family, m, n


@settings(max_examples=20, deadline=None)
@given(size=built_sizes())
def test_drawn_sizes_match_the_kron_reorder_oracle(size):
    assert_matches_oracle(*size)


def oracle_tokens(header, blocks):
    """The tokens of a POVM file: the header's, then per element its label's and one "%.17g"
    per double of its rows."""
    tokens = header.split()
    for i, rows in enumerate(blocks):
        tokens += ["element", str(i)] + ["%.17g" % v for row in rows for v in row.view(np.float64)]
    return np.array(tokens)


@pytest.mark.parametrize("family,m,n", list(CERTIFY))
def test_build_file_differs_from_the_oracle_file_only_at_negative_zeros(family, m, n, tmp_path, capsys):
    """The POVM udisc build writes, written again in the dense layout, against the
    oracle's elements in that layout."""
    built, oracle = tmp_path / "built.povm", tmp_path / "oracle.povm"
    assert main(["build", "--m", str(m), "--n", str(n), "--family", family,
                 "--out", str(built), "--format", "kv"]) == 0
    capsys.readouterr()
    write_povm(built, Povm(m=m, n=n, elements=read_povm(built).elements))
    write_povm(oracle, Povm(m=m, n=n, elements=kron_reorder_elements(family, m, n)))
    got, expected = (np.array(p.read_text().split()) for p in (built, oracle))
    assert got.shape == expected.shape
    assert not (got == "-0").any()
    differ = got != expected
    assert (expected[differ] == "-0").all() and (got[differ] == "0").all()
    assert np.count_nonzero(differ) == np.count_nonzero(expected == "-0") == CERTIFY[family, m, n]


@pytest.mark.parametrize("family,m,n", list(CERTIFY))
def test_sector_row_build_file_is_the_oracle_token_for_token(family, m, n, tmp_path, capsys):
    """The sector-row file udisc build writes against the oracle's elements cut into sector
    rows (conftest.sector_rows) and formatted with "%.17g": every −0.0 np.kron leaves lies
    outside the weight sectors, so the two agree token for token."""
    built = tmp_path / "built.povm"
    assert main(["build", "--m", str(m), "--n", str(n), "--family", family,
                 "--out", str(built), "--format", "kv"]) == 0
    capsys.readouterr()
    expected = oracle_tokens(f"povm-sectors {m} {n} {n + 1}",
                             [sector_rows(m, n + 1, e) for e in kron_reorder_elements(family, m, n)])
    assert np.array_equal(np.array(built.read_text().split()), expected)


@pytest.mark.parametrize("family,m,n", list(CERTIFY))
def test_build_and_verify_form_no_dense_element(family, m, n, tmp_path, capsys, monkeypatch):
    """udisc build writes, and udisc verify reads and checks, the weight-sector entries:
    neither scatters an element nor assembles one, and both count n+1 elements."""
    calls = []
    real_scatter, real_assemble = _WeightSectors.scatter, discriminator._assemble
    monkeypatch.setattr(_WeightSectors, "scatter",
                        lambda index, d: calls.append("scatter") or real_scatter(index, d))
    monkeypatch.setattr(discriminator, "_assemble",
                        lambda *args: calls.append("_assemble") or real_assemble(*args))
    path = str(tmp_path / "b.povm")
    for argv in (["build", "--m", str(m), "--n", str(n), "--family", family, "--out", path],
                 ["verify", path]):
        assert main([*argv, "--format", "kv"]) == 0
        assert f"elements={n + 1}" in capsys.readouterr().out.splitlines()
    assert calls == []


@pytest.mark.parametrize("family,m,n", [("universal", 4, 3), ("optimal", 3, 3), ("trivial", 4, 3)])
def test_assembly_takes_neither_kron_nor_reorder(family, m, n, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("element assembly called np.kron or reorder_factors")

    real_reorder = tensor_algebra.reorder_factors
    monkeypatch.setattr(np, "kron", refuse)
    for info in pkgutil.iter_modules(udisc.__path__):
        module = importlib.import_module(f"udisc.{info.name}")
        if getattr(module, "reorder_factors", None) is real_reorder:
            monkeypatch.setattr(module, "reorder_factors", refuse)
    assert len(family_povm(family, m, n).elements) == n + 1


@pytest.mark.parametrize("family,m,n", [*CERTIFY, ("optimal", 2, 2), ("trivial", 3, 2)])
def test_elements_are_zero_outside_their_weight_sectors_and_hold_no_negative_zero(family, m, n):
    outside = np.ones(m ** (2 * (n + 1)), dtype=bool)
    outside[_weight_sectors(m, n + 1).same] = False
    for e in family_povm(family, m, n).elements:
        assert not negative_zeros(e).any()
        assert np.count_nonzero(np.ravel(e)[outside]) == 0


@pytest.mark.parametrize("family,m,n", [*CERTIFY, ("optimal", 4, 4), ("trivial", 3, 2)])
def test_element_spectra_match_the_closed_form(family, m, n):
    povm = family_povm(family, m, n)
    expected = element_spectra(family, m, n)
    for e, spectrum in zip(povm.elements, expected, strict=True):
        assert max_abs(np.linalg.eigvalsh(e) - spectrum) <= SPECTRUM_TOL
    mins = verify_unambiguous(povm).psd_mins
    assert max_abs(np.array(mins) - [s[0] for s in expected]) <= SPECTRUM_TOL


def test_assembly_peak_beyond_the_elements_is_under_a_quarter_of_an_element():
    """At (optimal,4,4) each element is one complex zero matrix and one scatter of its
    sector entries, so no element-sized temporary is formed."""
    povm = family_povm("optimal", 4, 4)
    povm._sectors  # the index and the sector entries are formed once and kept
    tracemalloc.start()
    try:
        elements = povm.elements
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - sum(e.nbytes for e in elements) < elements[1].nbytes / 4


def test_trivial_outcome_elements_are_one_array():
    povm = family_povm("trivial", 4, 3)
    assert all(d is povm._sectors[1] for d in povm._sectors[2:])
    elements = _assemble(4, 3, povm._sectors)
    assert all(e is elements[1] for e in elements[2:])


def test_build_and_verify_at_universal_8_3_write_a_small_file_and_form_no_dense_element(tmp_path, capsys,
                                                                                        monkeypatch):
    """The north star: udisc build and udisc verify at (universal,8,3), 4096 x 4096
    elements, write and read a sector-row file under 4 MB (270 MB in the dense layout)
    and pass, without scattering or assembling an element."""
    calls = []
    real_scatter, real_assemble = _WeightSectors.scatter, discriminator._assemble
    monkeypatch.setattr(_WeightSectors, "scatter",
                        lambda index, d: calls.append("scatter") or real_scatter(index, d))
    monkeypatch.setattr(discriminator, "_assemble",
                        lambda *args: calls.append("_assemble") or real_assemble(*args))
    path = tmp_path / "u83.povm"
    assert main(["build", "--m", "8", "--n", "3", "--family", "universal", "--out", str(path),
                 "--format", "kv"]) == 0
    assert path.stat().st_size < 4_000_000
    assert main(["verify", str(path), "--format", "kv"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "elements=4" in out and "verdict=pass" in out and "covariance=pass" in out
    assert calls == []
