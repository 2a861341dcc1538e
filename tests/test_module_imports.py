"""Modules of the package import only each other's public names."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "unsharp"


def test_no_private_cross_module_imports():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                offenders += [
                    f"{path.name}: from .{node.module} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert not offenders, offenders


def test_no_process_wide_caches():
    """Derived structure lives on the object it comes from, never in a
    ``functools`` cache that outlives it."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                offenders += [
                    f"{path.name}: from functools import {alias.name}"
                    for alias in node.names
                    if alias.name in ("cache", "lru_cache")
                ]
            elif isinstance(node, ast.Attribute) and node.attr in ("cache", "lru_cache"):
                if isinstance(node.value, ast.Name) and node.value.id == "functools":
                    offenders.append(f"{path.name}: functools.{node.attr}")
    assert not offenders, offenders
