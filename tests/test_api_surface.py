"""The public API leaves the dense-storage budget and the tolerances to their modules.

The budget is chosen only through config.entry_cap (or UDISC_CAP), and every
tolerance is a named module constant: no public callable takes a ``tol``.
Registers are named by one convention, the plain sequence of factor
dimensions.  The covariance check is exact, so nothing but the shot sampler
takes a seed or a trial count.
"""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import udisc
from udisc.tensor_algebra import partial_trace, reorder_factors


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
