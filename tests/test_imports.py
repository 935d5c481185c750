"""Package modules import only modules earlier in one fixed order, so no
import cycle can come back; and every public name of the package is reached
from inside it, so no name lives for the tests alone."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ORDER = ("errors", "hilbert", "functionals", "gaussian", "wick", "correspondence",
         "experiments", "cli")
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cqlab"


def _package_imports(tree: ast.AST) -> list[str]:
    """Names of the cqlab modules a module imports, at any nesting depth."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                out.append(node.module.split(".")[0])
            elif node.level == 1:  # from . import a, b
                out.extend(alias.name for alias in node.names)
            elif node.level == 0 and (node.module or "").startswith("cqlab"):
                parts = node.module.split(".")
                out.extend([parts[1]] if len(parts) > 1 else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            out.extend(alias.name.split(".")[1] for alias in node.names
                       if alias.name.startswith("cqlab."))
    return out


def test_every_module_is_in_the_order():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(ORDER)


@pytest.mark.parametrize("module", ORDER)
def test_modules_import_only_earlier_modules(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    # cli reads the package version from __init__
    imported = [name for name in _package_imports(tree)
                if not (module == "cli" and name == "__version__")]
    earlier = ORDER[:ORDER.index(module)]
    assert [name for name in imported if name not in earlier] == []


def _fresh_process(code: str) -> str:
    """What `code` prints in a new interpreter that imports this package."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return proc.stdout.strip()


def test_importing_the_package_leaves_blas_alone():
    # a fresh process, so no earlier run has looked the library up
    assert _fresh_process("import cqlab, cqlab.cli\n"
                          "print(cqlab.gaussian._blas_thread_control.cache_info().currsize)") == "0"


def test_no_run_loads_concurrent_futures():
    # no run, at one worker or more, imports a thread pool or the logging it brings
    code = ("import sys, numpy as np, cqlab\n"
            "rho, f = cqlab.GaussianState(np.eye(2)), cqlab.Quadratic(np.eye(2))\n"
            "def loaded():\n"
            "    print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))\n"
            "cqlab.mc_average(f, rho, 3 * 4096, 1)\n"
            "loaded()\n"
            "with cqlab.sampling_workers(2):\n"
            "    cqlab.mc_average(f, rho, 3 * 4096, 1)\n"
            "loaded()\n")
    assert _fresh_process(code).splitlines() == ["[]", "[]"]


# Public names that no package path reaches but that stay, each for a reason.
UNREACHED_ALLOWED = {
    "sub_alpha_states": "checks the sub-dispersion states of acceptance criterion 8",
    "GaussianState.sample": "bench/tracer.py wraps it",
}


def _unreached_public_names() -> set[str]:
    """Public module-level functions and classes of the package that no Name,
    `from . import` alias or string constant names, and public methods that no
    Attribute or string names, outside `__init__` (which re-exports them all).
    Strings count because `cli._TABLES` names its experiments as strings."""
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))
             if p.stem != "__init__"]
    names, attrs, strings = set(), set(), set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            strings.add(node.value)
    unreached = set()
    for node in (n for tree in trees for n in tree.body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            if node.name not in names | strings:
                unreached.add(node.name)
        if isinstance(node, ast.ClassDef):
            unreached.update(f"{node.name}.{m.name}" for m in node.body
                             if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                             and m.name not in attrs | strings)
    return unreached


def test_every_public_name_is_reached_from_the_package():
    assert _unreached_public_names() == set(UNREACHED_ALLOWED)
