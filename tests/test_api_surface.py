"""The public API leaves the dense-storage budget and the tolerances to their modules.

The budget is chosen only through config.entry_cap (or UDISC_CAP), and every
tolerance is a named module constant: no public callable takes a ``tol``.
Registers are named by one convention, the plain sequence of factor
dimensions.  The covariance check is exact, so nothing but the shot sampler
takes a seed or a trial count.  Every array a returned value holds is read-only
(tensor_algebra.frozen), and every public value class holding arrays is checked so.
"""

import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import udisc
from udisc import (
    antisym_projector,
    antisym_projector_from_basis,
    build_basis_vectors,
    build_program,
    build_universal,
    core_decompose,
    distribution_from_probs,
    extremal_eigenvalues,
    family_povm,
    gram_closed_form,
    gram_numeric,
    outcome_distribution,
    program_input,
    sample,
)
from udisc.tensor_algebra import frozen, partial_trace, reorder_factors


def _public_callables():
    for info in pkgutil.iter_modules(udisc.__path__):
        module = importlib.import_module(f"udisc.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                yield f"{module.__name__}.{name}", obj
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member
            elif callable(obj):
                yield f"{module.__name__}.{name}", obj


def _taking(parameter):
    found = set()
    for qualname, obj in _public_callables():
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        if parameter in params:
            found.add(qualname)
    return found


def test_walk_reaches_every_module():
    names = {qualname for qualname, _ in _public_callables()}
    for expected in ("udisc.config.check_entries", "udisc.io.read_povm", "udisc.cli.main",
                     "udisc.discriminator.Povm", "udisc.mixed_states.CoreDecomposition.tilde_traces",
                     "udisc.antisym.Permutation.compose"):
        assert expected in names


def test_only_entry_cap_takes_a_cap():
    assert _taking("cap") == {"udisc.config.entry_cap"}


def test_nothing_takes_a_tolerance():
    assert _taking("tol") == set()


def test_registers_are_a_plain_dims_sequence():
    assert _taking("layout") == set()
    for fn in (partial_trace, reorder_factors):
        assert list(inspect.signature(fn).parameters)[1] == "factors"


def test_only_the_sampler_takes_a_seed():
    assert _taking("trials") == set()
    # SampleRecord takes its seed only to record which stream drew the counts
    assert _taking("seed") == {"udisc.sampler.sample", "udisc.sampler.SampleRecord"}
    assert not hasattr(importlib.import_module("udisc.discriminator"), "rand_unitary")


def test_every_module_has_a_production_caller():
    """Importing udisc and udisc.cli in a fresh interpreter loads every module of the
    package, so none is kept alive only by the tests."""
    code = ("import pkgutil, sys, udisc, udisc.cli; print(*(info.name for info in "
            "pkgutil.iter_modules(udisc.__path__) if f'udisc.{info.name}' not in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(Path(udisc.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                            timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []


def _private_definitions(tree):
    """(name, node) of each module-level function, class or constant named with one "_"."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _code_names(node):
    """The names node's code uses: variables, attributes and imported names, not strings."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


def test_every_private_helper_has_a_caller_in_the_package():
    """A module-level name with one leading underscore is used by the code of the package
    outside its own definition; docstring mentions do not count, nor do the tests."""
    trees = {path.name: ast.parse(path.read_text()) for path in Path(udisc.__file__).parent.glob("*.py")}
    used = Counter(name for tree in trees.values() for name in _code_names(tree))
    orphans = []
    for module, tree in sorted(trees.items()):
        for name, node in _private_definitions(tree):
            if used[name] == Counter(_code_names(node))[name]:
                orphans.append(f"{module}: {name}")
    assert orphans == []
    assert "_weight_sectors" in {name for name, _ in _private_definitions(trees["antisym.py"])}


# One value per function that returns a value holding arrays; each thunk first reads the
# caches a value fills on use (Povm's dense elements and sector split, ProgramInput's vector).
def _read(value, *attributes):
    for attribute in attributes:
        getattr(value, attribute)
    return value


_DENSITIES = [np.diag([0.5, 0.5, 0.0]), np.diag([0.0, 0.0, 1.0])]
_VALUES = {
    "antisym_projector": lambda: antisym_projector(3, 2),
    "antisym_projector_from_basis": lambda: antisym_projector_from_basis(3, 2),
    "distribution_from_probs": lambda: distribution_from_probs([0.5, 0.25, 0.25]),
    "outcome_distribution": lambda: outcome_distribution(build_universal(3, 2), _orthonormal_input()),
    "build_basis_vectors": lambda: build_basis_vectors(3, 2),
    "gram_numeric": lambda: gram_numeric(build_basis_vectors(3, 2)),
    "gram_closed_form": lambda: gram_closed_form(3, 2),
    "extremal_eigenvalues": lambda: extremal_eigenvalues(gram_closed_form(3, 2)),
    "core_decompose": lambda: core_decompose(_DENSITIES),
    "build_program": lambda: build_program(core_decompose(_DENSITIES)),
    "family_povm": lambda: _read(family_povm("universal", 3, 2), "elements", "_sector_split"),
    "program_input": lambda: _read(_orthonormal_input(), "vector"),
}


def _orthonormal_input():
    return program_input(np.eye(3, dtype=complex)[:2], 1)


def _arrays(obj, where):
    """(where, array) for every ndarray in obj, its attributes (fields and filled caches)
    and the tuples inside them; a dict fails, as it cannot be made read-only."""
    assert not isinstance(obj, dict), f"{where} is a dict"
    if isinstance(obj, np.ndarray):
        yield where, obj
    elif isinstance(obj, tuple):
        for k, item in enumerate(obj):
            yield from _arrays(item, f"{where}[{k}]")
    elif dataclasses.is_dataclass(obj):
        for name, item in vars(obj).items():
            yield from _arrays(item, f"{where}.{name}")


@pytest.mark.parametrize("function", sorted(_VALUES))
def test_every_array_a_returned_value_holds_is_read_only(function):
    arrays = list(_arrays(_VALUES[function](), function))
    assert arrays or function == "extremal_eigenvalues"
    assert [where for where, a in arrays if a.flags.writeable] == []


def test_every_value_class_holding_arrays_is_in_the_table():
    """A public dataclass of udisc with a field annotated ndarray or dict is made by a
    function of _VALUES, so a new value class cannot skip the read-only rule."""
    covered = {type(make()) for make in _VALUES.values()}
    holding = {obj for _, obj in _public_callables()
               if dataclasses.is_dataclass(obj)
               and any("ndarray" in str(f.type) or "dict" in str(f.type) for f in dataclasses.fields(obj))}
    assert holding
    assert holding <= covered, sorted(cls.__name__ for cls in holding - covered)


def test_a_returned_projector_and_distribution_refuse_writes():
    with pytest.raises(ValueError, match="read-only"):
        antisym_projector(3, 2).matrix[0, 0] = 5.0
    dist = outcome_distribution(build_universal(3, 2), _orthonormal_input())
    with pytest.raises(ValueError, match="read-only"):
        dist.probabilities[0] = 1.0
    assert dist.probabilities.sum() == 1.0
    assert sample(dist, 100000, 42).counts == (75035, 24965, 0)


def test_frozen_shares_an_array_of_its_dtype_and_copies_anything_else_once():
    a = np.arange(4, dtype=complex)
    view = frozen(a, complex)
    assert np.shares_memory(view, a) and not view.flags.writeable
    a[0] = 7.0  # the caller's own name stays writable, and the view reads the change
    assert a.flags.writeable and view[0] == 7.0
    assert np.shares_memory(frozen(a), a)
    real = np.arange(4.0)
    for given in (real, real.tolist()):
        copy = frozen(given, complex)
        assert copy.dtype == complex and not copy.flags.writeable
        assert not np.shares_memory(copy, real)
        assert copy.base is not None and copy.base.base is None  # a view of one fresh array
        assert np.array_equal(copy, real)
