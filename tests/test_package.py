"""Tests of the package's export list."""

import ast
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
