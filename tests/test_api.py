"""Public-API guard.

Every exported name must resolve, and every package attribute that the
benchmark harness in perfbench/ reaches (``channel.X``, ``estimation.X``,
...) must exist and accept the keyword arguments it is called with, so
that removing or renaming public code cannot silently break the
benchmark. The harness files are only parsed, never imported. A fresh
import of the CLI must also leave the slow scipy subpackages unloaded,
and the three ufuncs it binds without scipy.special's package init must be
the package's own.
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


# The quadrature's kernel-group rule and the capacity of a wear state are
# infotheory's and the share of the charge that retention keeps is
# channel's; the policy asks each for its result and knows no such rule.
QUADRATURE_AND_DRIFT_INTERNALS = (
    "_NODES", "_GROUP_POINTS", "_block_panel_edges", "_first_rounds",
    "_grouped_first_rounds", "_check_levels", "_decay", "_wear_terms",
    "_level_array", "_mutual_information",
)


def test_allocation_binds_no_quadrature_or_drift_internals():
    bound = sorted(set(QUADRATURE_AND_DRIFT_INTERNALS) & set(vars(allocation)))
    assert bound == []


# The package's modules in import order: each may import only those before
# it, so that the policy and the wear fit are siblings over channel and
# infotheory, and the policy may use the fit but not the other way round.
MODULE_ORDER = ("channel", "infotheory", "estimation", "allocation", "config", "cli")


def package_imports(path: pathlib.Path) -> set:
    """The package modules that the source file imports, at any depth, as
    ``from .x import y``, ``from . import x`` or by absolute name."""
    dotted = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            dotted += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["flashlife" if node.level else None, node.module]))
            dotted += [module] + [f"{module}.{a.name}" for a in node.names]
    return {d.split(".")[1] for d in dotted if d.startswith("flashlife.")} & set(MODULE_ORDER)


def test_module_order_covers_the_package():
    src = pathlib.Path(flashlife.__file__).parent
    assert {p.stem for p in src.glob("*.py")} - {"__init__", "__main__"} == set(MODULE_ORDER)


@pytest.mark.parametrize("module", MODULE_ORDER)
def test_modules_import_only_earlier_modules(module):
    path = pathlib.Path(flashlife.__file__).parent / f"{module}.py"
    assert package_imports(path) <= set(MODULE_ORDER[: MODULE_ORDER.index(module)])


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


def run_fresh(code: str) -> str:
    """stdout of ``code`` in a fresh interpreter that imports the same
    flashlife as the tests."""
    src = str(pathlib.Path(flashlife.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.strip()


def test_cli_import_leaves_out_slow_scipy_modules():
    # scipy.optimize alone made up about 40% of a cold start, and
    # scipy.integrate is as heavy; the package needs neither (the oracles in
    # tests/ use integrate). scipy.special's package init loads scipy's
    # array-API layer, most of the import, for the three ufuncs the channel binds
    slow = ("scipy.optimize", "scipy.integrate", "scipy.special", "scipy._lib._array_api")
    out = run_fresh(
        f"import sys, flashlife.cli; print(sorted(m for m in {slow!r} if m in sys.modules))"
    )
    assert out == "[]"


# Prints whether the channel's ufuncs are scipy.special's, whether that is
# the real package, and whether scipy.integrate works on top of it: the
# integral of Phi over [0, 1] is Phi(1) + phi(1) - phi(0).
CHECK_BOUND_UFUNCS = """
import math, pathlib, scipy.special, scipy.integrate
real = pathlib.Path(scipy.__file__).parent / "special" / "__init__.py"
exact = channel.ndtr(1.0) + (math.exp(-0.5) - 1.0) / math.sqrt(2.0 * math.pi)
print(channel.erfcx is scipy.special.erfcx, channel.log_ndtr is scipy.special.log_ndtr,
      channel.ndtr is scipy.special.ndtr, pathlib.Path(scipy.special.__file__) == real,
      abs(scipy.integrate.quad(scipy.special.ndtr, 0.0, 1.0)[0] - exact) < 1e-12)
"""


def test_later_scipy_special_import_returns_the_bound_ufuncs():
    out = run_fresh("import flashlife.cli\nfrom flashlife import channel" + CHECK_BOUND_UFUNCS)
    assert out == "True True True True True"


@pytest.mark.parametrize(
    "before",
    [
        "import scipy.special",
        # the stub path fails before the stub is in place
        "import importlib.util\n"
        "def fail(*args, **kwargs):\n"
        "    raise RuntimeError('no spec')\n"
        "importlib.util.find_spec = fail",
        # and after: the private module is not on the path the stub carries
        "import importlib.machinery, importlib.util, tempfile\n"
        "spec = importlib.machinery.ModuleSpec('scipy.special', None, is_package=True)\n"
        "spec.submodule_search_locations = [tempfile.mkdtemp()]\n"
        "importlib.util.find_spec = lambda *args, **kwargs: spec",
    ],
    ids=["package-loaded", "find-spec-raises", "private-module-missing"],
)
def test_public_import_binds_ufuncs_when_the_stub_path_is_out(before):
    out = run_fresh(before + "\nfrom flashlife import channel" + CHECK_BOUND_UFUNCS)
    assert out == "True True True True True"
