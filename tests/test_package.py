"""Tests of the package's export list and of what importing it loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import spectral_cusum


def imported_names() -> set:
    """Names that spectral_cusum/__init__.py binds with `from .module import`."""
    tree = ast.parse(Path(spectral_cusum.__file__).read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def test_every_export_resolves():
    missing = [name for name in spectral_cusum.__all__ if not hasattr(spectral_cusum, name)]
    assert missing == []


def test_exports_are_the_imported_names():
    assert len(set(spectral_cusum.__all__)) == len(spectral_cusum.__all__)
    assert set(spectral_cusum.__all__) == imported_names()


# exported for the paper's formulas and the criteria's Monte Carlo checks,
# though no program path runs them
PAPER_FORMULAS = {
    "bias_bound",
    "edd_at_optimal_tilt",
    "eigenvector_sampling_covariance",
    "equalizer_mgf",
    "estimate_drift_mc",
    "verify_equalizer_mc",
}


def names_read(path: Path, strings: bool = False) -> set:
    """Names a module loads, as names or attributes (and, with strings,
    as string constants), outside the definition of the name itself."""
    tree = ast.parse(path.read_text())
    read = set()
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            if name != owner:
                read.add(name)
    return read


def test_every_export_is_run_or_a_paper_formula():
    """An export that only the tests call restates code the program runs:
    each name is read in src/ outside __init__.py, or by the benchmark in
    perfbench/ (whose tracer names its targets by string), or is one of the
    paper's formulas."""
    package = Path(spectral_cusum.__file__).parent
    bench = package.parents[1] / "perfbench"
    assert bench.is_dir()
    read = set().union(
        *(names_read(path) for path in package.glob("*.py") if path.name != "__init__.py"),
        *(names_read(path, strings=True) for path in bench.glob("*.py")),
    )
    assert PAPER_FORMULAS <= set(spectral_cusum.__all__)
    assert sorted(set(spectral_cusum.__all__) - read - PAPER_FORMULAS) == []


def unused_imports(path: Path) -> list:
    """Names a module's top-level imports bind that nothing in the module
    reads, other than `from __future__` features and names imported on a
    line marked `# noqa: F401`."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    bound[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in used]


def test_every_module_import_is_used():
    modules = sorted(Path(spectral_cusum.__file__).parent.glob("*.py"))
    unused = [
        entry
        for path in modules
        if path.name != "__init__.py"
        for entry in unused_imports(path)
    ]
    assert len(modules) > 1
    assert unused == []


def test_import_loads_no_process_pool():
    """Only a run with workers > 1 needs the process pool, so importing the
    package and its CLI loads neither concurrent.futures nor multiprocessing."""
    code = (
        "import sys, spectral_cusum, spectral_cusum.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(spectral_cusum.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
