"""Public-API guard.

Every exported name must resolve, and every package attribute that the
benchmark harness in perfbench/ reaches (``channel.X``, ``estimation.X``,
...) must exist and accept the keyword arguments it is called with, so
that removing or renaming public code cannot silently break the
benchmark. The harness files are only parsed, never imported. A fresh
import of the CLI must also leave the slow scipy subpackages unloaded.
"""

import ast
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

import flashlife
from flashlife import allocation, channel, config, estimation, infotheory

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = {
    m.__name__.rsplit(".", 1)[-1]: m
    for m in (allocation, channel, config, estimation, infotheory)
}
BENCH_FILES = sorted((ROOT / "perfbench").glob("*.py"))


@pytest.mark.parametrize("module", MODULES.values(), ids=list(MODULES))
def test_all_names_resolve(module):
    for name in module.__all__:
        assert hasattr(module, name), f"{module.__name__}.{name}"


@pytest.mark.parametrize("module", MODULES.values(), ids=list(MODULES))
def test_public_definitions_exported(module):
    defined = {
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    }
    assert defined <= set(module.__all__)


def test_package_reexports_resolve():
    tree = ast.parse(pathlib.Path(flashlife.__file__).read_text())
    names = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert names
    for name in names:
        assert hasattr(flashlife, name), name


def bench_references():
    """(file, module, attribute, keyword names) for every ``module.attr``
    in the harness, with the keywords of the call when it is called."""
    refs = []
    for path in BENCH_FILES:
        tree = ast.parse(path.read_text())
        calls = {
            id(node.func): [kw.arg for kw in node.keywords if kw.arg]
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in MODULES
            ):
                refs.append((path.name, node.value.id, node.attr, calls.get(id(node), [])))
    return refs


@pytest.mark.skipif(not BENCH_FILES, reason="no perfbench/ in this checkout")
def test_bench_attributes_exist():
    refs = bench_references()
    assert {module for _, module, _, _ in refs} >= {"channel", "estimation", "allocation"}
    for file, module, attr, keywords in refs:
        where = f"{file}: {module}.{attr}"
        assert hasattr(MODULES[module], attr), where
        target = getattr(MODULES[module], attr)
        if keywords and callable(target):
            accepted = inspect.signature(target).parameters
            for kw in keywords:
                assert kw in accepted, f"{where}({kw}=...)"


def test_cli_import_leaves_out_slow_scipy_modules():
    # scipy.optimize alone made up about 40% of a cold start, and
    # scipy.integrate is as heavy; the package needs neither (the oracles in
    # tests/ use integrate)
    src = str(pathlib.Path(flashlife.__file__).resolve().parent.parent)
    code = (
        "import sys, flashlife.cli; "
        "print(sorted(m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
