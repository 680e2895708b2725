"""Golden outputs: the reproducibility contracts pinned to fixed values.

Only platform-stable outputs are pinned.  A built file comes from integer
signs, one division and 17-digit formatting; sampled counts come from the
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
    ("universal", 3, 2): ("752750b424b113d641f1a32f5d26b8ceced6ce46718273330d046c849ed2d568",
                          {"completeness_residual", "unitary_residual", "permutation_residual",
                           "reduction_residual", "reduction_spread"}),
    ("optimal", 3, 3): ("b9ef160bf33b2a805f023584185fbd7ffaa8b2412c605a00384df48f28b31568",
                        {"completeness_residual", "unitary_residual", "permutation_residual",
                         "reduction_residual", "reduction_spread"}),
    ("universal", 5, 2): ("a6a2e23cba661652dc5eff8b18994639241659544395f4ff45e064307f935193",
                          {"completeness_residual", "unitary_residual", "permutation_residual",
                           "reduction_residual", "reduction_spread"}),
    ("universal", 4, 3): ("a8bc5c4130501e56a19b8d276c061fadf95521251de50f659894ed924dbae479",
                          {"completeness_residual", "permutation_residual", "reduction_residual",
                           "reduction_spread"}),
    ("trivial", 4, 3): ("3747fa15c847415f5dbfb4a63a00b28b192b6f162aec8495a412f69ab1cf8f24",
                        {"unitary_residual", "permutation_residual", "reduction_residual",
                         "reduction_spread"}),
    ("optimal", 4, 4): ("665629dcd076a61a913dbd9c2358d9e4d3ceb68e1e8f5e2293637f1cdcba2b2b",
                        {"completeness_residual", "unitary_residual", "permutation_residual",
                         "reduction_residual", "reduction_spread"}),
    ("universal", 8, 3): ("04b1c606e2e7d8195d6724740ededc8b06f2ef32c7a96c11e232a526ee8db239",
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
