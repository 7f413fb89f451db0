"""The package's public surface, its imports and the independence of the
test oracles."""

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


def _annotation_names(tree: ast.AST) -> set[str]:
    """Names inside string annotations, such as ``"IndexSextuple"``."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    names = set()
    for ann in filter(None, annotations):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= {n.id for n in ast.walk(ast.parse(node.value)) if isinstance(n, ast.Name)}
    return names


def _import_findings(path: Path) -> list[str]:
    """Imported names no code, string annotation or ``__all__`` uses, and
    ``_private`` names imported from another module."""
    tree = ast.parse(path.read_text())
    imported = {}
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.name
                if alias.name.startswith("_"):
                    findings.append(f"imports private {alias.name} from {node.module}")
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _annotation_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    findings += [f"imports {name} unused" for name in imported if name not in used]
    return findings


def test_package_imports_are_used_and_public():
    package = Path(gw.__file__).resolve().parent
    findings = [
        f"{path.name}: {finding}"
        for path in sorted(package.glob("*.py"))
        for finding in _import_findings(path)
    ]
    assert findings == []
