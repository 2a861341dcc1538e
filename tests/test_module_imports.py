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


def test_only_settled_sections_settles_and_stores_the_section_table():
    """A poset's sections are settled, and its one ``SectionTable`` built
    and stored, in one place, ``sections.settled_sections``, so each
    section is searched once and each table derives its grids once."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            if path.name == "sections.py" and getattr(top, "name", None) == "settled_sections":
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "attr", getattr(node.func, "id", None))
                    strings = [a.value for a in node.args if isinstance(a, ast.Constant)]
                    if name in ("_settle_section", "SectionTable") or (
                            name == "setattr" and "_section_table" in strings):
                        offenders.append(f"{path.name}:{node.lineno}: {name}")
                elif (isinstance(node, ast.Attribute) and node.attr == "_section_table"
                      and isinstance(node.ctx, ast.Store)):
                    offenders.append(f"{path.name}:{node.lineno}: assigns _section_table")
    assert not offenders, offenders
