"""The package's public surface and the independence of the test oracles."""

import ast
from pathlib import Path

import gwgauss as gw

REFERENCE = Path(__file__).resolve().parent / "reference.py"


def test_reference_oracles_import_nothing_from_gwgauss():
    imported = []
    for node in ast.walk(ast.parse(REFERENCE.read_text())):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert "numpy" in imported
    assert not [m for m in imported if m.split(".")[0] in ("gwgauss", "")], imported


def test_every_export_resolves_once():
    assert len(gw.__all__) == len(set(gw.__all__))
    assert [name for name in gw.__all__ if not hasattr(gw, name)] == []
