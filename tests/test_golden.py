"""Golden outputs: the reproducibility contracts pinned to fixed values.

Only platform-stable outputs are pinned.  A built file holds each element's
permutation coefficients, from integer signs, two divisions and 17-digit
formatting; sampled counts come from the
PCG64 stream, identical on every platform; a rewritten file is the file read.
No eigenvalue, determinant or BLAS-product bits are pinned: psd_min_<k>
comes from an eigen-solve and leakage_<i> from batched block products, so
which of them print exactly 0 is left out of the pinned zero keys.

A change to a value here is a change to a contract, and is named with its
old and new value and the reason.
"""

import hashlib
from contextlib import redirect_stdout
from io import StringIO

import numpy as np
import pytest

from udisc.cli import main
from udisc.discriminator import Povm, family_povm
from udisc.io import read_povm, write_povm
from udisc.sampler import distribution_from_probs, sample

# (family, m, n): SHA-256 of the `udisc build` file, and the verify --format kv keys that
# print exactly 0 other than psd_min_<k> and leakage_<i>.
BUILD = {
    ("universal", 3, 2): ("8220f80d62d1056ac018a17b7e2a081c116cb625373b8d5ced909908e0b7177a",
                          {"completeness_residual", "unitary_residual", "permutation_residual",
                           "reduction_residual", "reduction_spread"}),
    ("optimal", 3, 3): ("7d7ebbf2c83ab4fc639f3b033189e2341a2c3a89d35dfd70cec8957a3e14b6cb",
                        {"completeness_residual", "unitary_residual", "permutation_residual",
                         "reduction_residual", "reduction_spread"}),
    ("universal", 5, 2): ("1e860454f91047e7ebbb8db6ac9395d132aee0d39894bb257c6f8f6295d808ff",
                          {"completeness_residual", "unitary_residual", "permutation_residual",
                           "reduction_residual", "reduction_spread"}),
    ("universal", 4, 3): ("5dd6060512d60e8f4f1ea6ceb35ec75cd1c166f0f0ca2f775af54e39a0c1f26e",
                          {"completeness_residual", "permutation_residual", "reduction_residual",
                           "reduction_spread"}),
    ("trivial", 4, 3): ("0e86be395c4ea3a8a8da7b62ec1240deff833d26fd0495eeda2ba3d0369eb90e",
                        {"unitary_residual", "permutation_residual", "reduction_residual",
                         "reduction_spread"}),
    ("optimal", 4, 4): ("7de16dbc7779d6ce36a0e73435d33465a9750ed2bcde243da0f1fd457ce95718",
                        {"completeness_residual", "unitary_residual", "permutation_residual",
                         "reduction_residual", "reduction_spread"}),
    ("universal", 8, 3): ("d27d704b29fb5342a3b446db79a16ea18e25c839bc148ddba3b6eba117baf94e",
                          {"completeness_residual", "permutation_residual", "reduction_residual",
                           "reduction_spread"}),
}

# (probabilities, shots, seed): counts.  The second has an outcome of probability 0, the
# third spans more than one sampling chunk.
COUNTS = [
    (([0.5, 0.25, 0.25], 1000, 0), (473, 260, 267)),
    (([0.1, 0.0, 0.3, 0.6], 100000, 7), (9834, 0, 30154, 60012)),
    (([1 / 3, 1 / 3, 1 / 3], 2**17 + 5, 12345), (43946, 43352, 43779)),
]


def cli(*argv) -> tuple[int, str]:
    out = StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.fixture(scope="module", params=sorted(BUILD), ids=lambda t: "-".join(map(str, t)))
def built(request, tmp_path_factory):
    family, m, n = request.param
    path = tmp_path_factory.mktemp("golden") / f"{family}{m}{n}.povm"
    assert cli("build", "--m", str(m), "--n", str(n), "--family", family, "--out", str(path))[0] == 0
    return request.param, path


def test_build_file_digest(built):
    triple, path = built
    assert hashlib.sha256(path.read_bytes()).hexdigest() == BUILD[triple][0]


def test_verify_verdicts_and_exact_zeros(built):
    triple, path = built
    code, out = cli("verify", str(path), "--format", "kv")
    kv = dict(line.split("=", 1) for line in out.splitlines())
    assert code == 0
    assert (kv["verdict"], kv["covariance"]) == ("pass", "pass")
    zeros = {key for key, value in kv.items() if value == "0"}
    assert {key for key in zeros if not key.startswith(("psd_min_", "leakage_"))} == BUILD[triple][1]


def test_rewriting_a_sector_file_gives_it_back(built, tmp_path):
    _, path = built
    write_povm(tmp_path / "again.povm", read_povm(path))
    assert (tmp_path / "again.povm").read_bytes() == path.read_bytes()
    povm = read_povm(path)
    write_povm(tmp_path / "sector.povm", Povm(povm.m, povm.n, sectors=povm._sectors))
    write_povm(tmp_path / "again.povm", read_povm(tmp_path / "sector.povm"))
    assert (tmp_path / "again.povm").read_bytes() == (tmp_path / "sector.povm").read_bytes()


def test_verify_prints_the_same_bytes_on_the_build_file_and_its_sector_row_rewrite(built, tmp_path):
    """The commutant file build writes and the sector-row file of its entries, which build
    wrote before, verify to the same bytes: one set of d_k, expanded or read."""
    _, path = built
    povm = read_povm(path)
    assert path.read_text().split("\n", 1)[0] == f"povm-commutant {povm.m} {povm.n} {povm.n}"
    sector = tmp_path / "sector.povm"
    write_povm(sector, Povm(povm.m, povm.n, sectors=povm._sectors))
    assert sector.read_text().startswith("povm-sectors ")
    assert cli("verify", str(path), "--format", "kv") == cli("verify", str(sector), "--format", "kv")


@pytest.mark.parametrize("family, m, n", [("universal", 3, 2), ("optimal", 3, 3), ("universal", 5, 2)])
def test_rewriting_a_dense_file_gives_it_back(tmp_path, family, m, n):
    dense = tmp_path / "dense.povm"
    write_povm(dense, Povm(m, n, elements=family_povm(family, m, n).elements))
    assert dense.read_text().split()[0] == "povm"
    write_povm(tmp_path / "again.povm", read_povm(dense))
    assert (tmp_path / "again.povm").read_bytes() == dense.read_bytes()


@pytest.mark.parametrize("run, counts", COUNTS)
def test_sampled_counts(run, counts):
    probs, shots, seed = run
    record = sample(distribution_from_probs(np.array(probs)), shots, seed)
    assert record.counts == counts
