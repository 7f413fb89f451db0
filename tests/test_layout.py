"""The package's public surface, its imports and the independence of the
test oracles."""

import ast
import json
from pathlib import Path

import gwgauss as gw

REFERENCE = Path(__file__).resolve().parent / "reference.py"
ROOT = Path(__file__).resolve().parent.parent


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


# raises of a class outside the GwgaussError tree, which the CLI could not
# map to an exit code: (module, enclosing scope, class) -> why no CLI run
# ends in its traceback
FOREIGN_RAISES = {
    ("cvf.py", "Thresholds.__post_init__", "ValueError"):
        "cvf_cmd turns it into a usage error (exit 2)",
    ("gaussmodel.py", "nats_to", "ValueError"):
        "the --units options offer only the three known units",
    ("graywyner.py", "region_sweep", "ValueError"):
        "the region command builds its weights in [0, 1]",
    ("rdf.py", "conditional_rdf", "ValueError"):
        "the --branch option offers only 1 and 2",
    ("realize.py", "_windows", "TypeError"):
        "simulate samples only the realizations and states it builds",
}


def _foreign_raises(name: str, source: str) -> set[tuple[str, str, str]]:
    """``(module, scope, class)`` of each ``raise`` in ``source`` whose class
    is neither a :class:`GwgaussError` subclass nor click's usage error,
    which click reports with exit 2."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                cls = ast.unparse(exc)
                known = getattr(gw.errors, cls.split(".")[-1], None)
                packaged = isinstance(known, type) and issubclass(known, gw.GwgaussError)
                if not packaged and cls != "click.UsageError":
                    found.add((name, ".".join(scope), cls))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_package_raises_only_its_own_errors():
    package = Path(gw.__file__).resolve().parent
    found = set().union(
        *(_foreign_raises(path.name, path.read_text()) for path in package.glob("*.py"))
    )
    assert found == set(FOREIGN_RAISES)


def test_foreign_raise_check_sees_a_new_bare_error():
    source = "def decompose(pair, thresholds=None):\n    raise ValueError('no')\n"
    assert _foreign_raises("cvf.py", source) == {("cvf.py", "decompose", "ValueError")}
    packaged = "def decompose(pair):\n    raise err.DimensionMismatch('no')\n"
    assert _foreign_raises("cvf.py", packaged) == set()


def test_every_bench_record_is_valid():
    # each recorded run names its side and a workload of BENCHMARK.json,
    # passed its checks, and carries exactly the declared end-to-end metrics
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        runs = json.loads(path.read_text())["runs"]
        assert runs, path.name
        for run in runs:
            where = (path.name, run["side"], run["workload"], run["seed"])
            assert run["side"] in ("parent", "change"), where
            assert run["workload"] in workloads, where
            result = run["result"]
            assert result["correct"] is True and result["failed"] == 0, where
            assert {k: v["unit"] for k, v in result["metrics"].items()} == units, where


# the per-component algebra lives in gaussmodel: elsewhere no expm1 or
# arctanh call and no spelling of 1 - x^2, which gaussmodel.one_minus_square
# forms exactly
HOME = "gaussmodel.py"


def _is_one(node) -> bool:
    return isinstance(node, ast.Constant) and node.value == 1


def _one_and(node, op) -> str | None:
    """``x`` if ``node`` is ``1 <op> x`` for a name x."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, op) and _is_one(node.left):
        return node.right.id if isinstance(node.right, ast.Name) else None
    return None


def _algebra_findings(name: str, source: str) -> list[str]:
    """``name:line: spelling`` of each expm1 or arctanh call and each
    ``1 - x * x`` or ``(1 - x)(1 + x)`` in ``source``, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if called in ("expm1", "arctanh"):
                found.append((node.lineno, called))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub) and _is_one(node.left):
            sq = node.right
            if (isinstance(sq, ast.BinOp) and isinstance(sq.op, ast.Mult)
                    and isinstance(sq.left, ast.Name) and isinstance(sq.right, ast.Name)
                    and sq.left.id == sq.right.id):
                found.append((node.lineno, f"1 - {sq.left.id}^2"))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            for a, b in ((node.left, node.right), (node.right, node.left)):
                x = _one_and(a, ast.Sub)
                if x is not None and x == _one_and(b, ast.Add):
                    found.append((node.lineno, f"(1 - {x})(1 + {x})"))
    return [f"{name}:{line}: {spelling}" for line, spelling in sorted(found)]


def test_per_component_algebra_lives_in_gaussmodel():
    package = Path(gw.__file__).resolve().parent
    found = [f for path in sorted(package.glob("*.py")) if path.name != HOME
             for f in _algebra_findings(path.name, path.read_text())]
    assert found == []


def test_algebra_fence_sees_a_planted_copy():
    planted = "\n".join([
        "def rate(d, e):",
        "    v = -np.expm1(e)",
        "    c = np.arctanh(d)",
        "    s = 1.0 - d * d",
        "    t = (1.0 - d) * (1.0 + d)",
        "    r = (1 + d) * (1 - d)",
        "    return 1.0 - d * e, (1.0 - d) * (1.0 + e), np.exp(e)",
    ])
    assert _algebra_findings("rdf.py", planted) == [
        "rdf.py:2: expm1", "rdf.py:3: arctanh", "rdf.py:4: 1 - d^2",
        "rdf.py:5: (1 - d)(1 + d)", "rdf.py:6: (1 - d)(1 + d)"]


# one home each for two CLI-facing decisions: the list of units, which every
# --units option takes as UNITS_CHOICE, and the a1 + a2 >= 1 weight grid,
# which graywyner.weight_grid builds for the library, the CLI and the scripts
GRID_HOME = "graywyner.py"


def _units_findings(source: str) -> list[str]:
    """``line: what`` of each ``click.Choice`` call listing ``"nats"`` beyond
    the first, and of each ``--units`` option whose type is not
    ``UNITS_CHOICE``."""
    found, lists = [], []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        called = ast.unparse(node.func)
        strings = {n.value for n in ast.walk(node) if isinstance(n, ast.Constant)}
        if called == "click.Choice" and "nats" in strings:
            lists.append(node.lineno)
        if called == "click.option" and "--units" in strings:
            kind = next((ast.unparse(k.value) for k in node.keywords if k.arg == "type"), None)
            if kind != "UNITS_CHOICE":
                found.append((node.lineno, f"--units of type {kind}"))
    found += [(line, "a second list of units") for line in sorted(lists)[1:]]
    return [f"{line}: {what}" for line, what in sorted(found)]


def _grid_findings(name: str, source: str) -> list[str]:
    """``name:line`` of each comparison ``x + y >= 1``."""
    return [
        f"{name}:{node.lineno}" for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Compare) and isinstance(node.left, ast.BinOp)
        and isinstance(node.left.op, ast.Add) and isinstance(node.ops[0], ast.GtE)
        and _is_one(node.comparators[0])
    ]


def test_units_and_weight_grid_have_one_home():
    package = Path(gw.__file__).resolve().parent
    assert _units_findings((package / "cli.py").read_text()) == []
    sources = sorted(package.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    found = [f for path in sources for f in _grid_findings(path.name, path.read_text())]
    assert len(found) == 1 and found[0].startswith(f"{GRID_HOME}:"), found


def test_one_home_fences_see_a_planted_copy():
    planted = "\n".join([
        'UNITS_CHOICE = click.Choice(["nats", "bits", "paper-example-bits"])',
        '@click.option("--units", type=click.Choice(["nats", "bits"]), default="nats")',
        '@click.option("--units", type=UNITS_CHOICE)',
        "def sweep(ticks):",
        "    return [(a, b) for a in ticks for b in ticks if a + b >= 1.0]",
    ])
    assert _units_findings(planted) == ["2: --units of type click.Choice(['nats', 'bits'])",
                                        "2: a second list of units"]
    assert _grid_findings("cli.py", planted) == ["cli.py:5"]


# one home for the dual's start: rdf.ci_dual sets it from the weights, so
# joint_rdf and the sweep's (1, 1) point are one solve, and no caller passes
# a start of its own
def _ci_dual_calls(name: str, source: str) -> list[str]:
    """``name:line: k`` for each call of ``ci_dual`` in ``source``, k its
    argument count, or ``*`` where an argument is unpacked."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "ci_dual":
            unpacked = any(isinstance(a, ast.Starred) for a in node.args)
            unpacked |= any(k.arg is None for k in node.keywords)
            count = "*" if unpacked else str(len(node.args) + len(node.keywords))
            found.append((node.lineno, count))
    return [f"{name}:{line}: {count}" for line, count in sorted(found)]


def test_every_ci_dual_call_passes_three_arguments():
    package = Path(gw.__file__).resolve().parent
    sources = sorted(package.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    calls = [c for path in sources for c in _ci_dual_calls(path.name, path.read_text())]
    assert calls and all(c.endswith(": 3") for c in calls), calls


def test_ci_dual_fence_sees_a_planted_start():
    planted = "\n".join([
        "def solve(d, delta, alpha, start, args):",
        "    a = ci_dual(d, delta, alpha)",
        "    b = rdf.ci_dual(d, delta, alpha, start)",
        "    c = ci_dual(d, delta, alpha=alpha, start=start)",
        "    return a, b, c, ci_dual(*args), ci_dual(d, **args)",
    ])
    assert _ci_dual_calls("graywyner.py", planted) == [
        "graywyner.py:2: 3", "graywyner.py:3: 4", "graywyner.py:4: 4", "graywyner.py:5: *",
        "graywyner.py:5: *"]


# one home for the edge-exact state formulas of ROADMAP item 16, which
# gaussmodel.edge_state and gaussmodel.edge_coordinate hold: elsewhere in
# src/ and scripts/ no sinh call and no hypot of a square root, the r of
# ``hypot(c, 2 sqrt(E) d)``; a hypot of plain values, a norm, is no finding
EDGE_HOME = "gaussmodel.py"


def _edge_state_findings(name: str, source: str) -> list[str]:
    """``name:line: spelling`` of each sinh call and each hypot call with a
    sqrt call among its arguments in ``source``, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        called = ast.unparse(node.func).split(".")[-1]
        if called == "sinh":
            found.append((node.lineno, "sinh"))
        elif called == "hypot" and any(
                isinstance(n, ast.Call) and ast.unparse(n.func).split(".")[-1] == "sqrt"
                for arg in node.args for n in ast.walk(arg)):
            found.append((node.lineno, "hypot of a sqrt"))
    return [f"{name}:{line}: {spelling}" for line, spelling in sorted(found)]


def test_edge_state_formulas_have_one_home():
    package = Path(gw.__file__).resolve().parent
    sources = sorted(package.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    found = [f for path in sources for f in _edge_state_findings(path.name, path.read_text())]
    assert found and all(f.startswith(f"{EDGE_HOME}:") for f in found), found


def test_edge_state_fence_sees_a_planted_copy():
    planted = "\n".join([
        "def state(d, t, u, r1, r2):",
        "    r = math.hypot(-math.expm1(-abs(t)), 2.0 * math.sqrt(math.exp(-abs(t))) * d)",
        "    s = np.sinh(u)",
        "    return r, s, math.hypot(r1, r2)",
    ])
    assert _edge_state_findings("graywyner.py", planted) == [
        "graywyner.py:2: hypot of a sqrt", "graywyner.py:3: sinh"]
