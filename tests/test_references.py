"""Every top-level function, class and module constant of the package, and
every method and property (dunders aside) of its classes, is named somewhere
other than its own definition, in the package or the benchmark; a name that
nothing but the tests refers to is dead code to delete.  Every name a module
of the package imports is used in that module.  Every parameter of a
function or method of the package is read in its body, dunder methods and
the ``cmd_*`` handlers (which share one ``args`` signature) aside."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nodal_degen"


def _definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield target.id, node


def _methods(tree: ast.Module):
    """Every method and property of a top-level class, dunder methods aside."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    node.name.startswith("__") and node.name.endswith("__")
                ):
                    yield node.name, node


def _unreferenced(definitions) -> list[str]:
    """Each definition whose name no source in ``src`` or ``perfbench`` names
    outside the lines of that definition."""
    sources = {
        path: path.read_text()
        for folder in ("src", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    }
    unreferenced = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = sources[path].splitlines()
        for name, node in definitions(ast.parse(sources[path])):
            outside = "\n".join(lines[: node.lineno - 1] + lines[node.end_lineno :])
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(outside if p == path else s) for p, s in sources.items()):
                unreferenced.append(f"{path.name}:{node.lineno} {name}")
    return unreferenced


def test_every_top_level_name_is_referenced():
    assert _unreferenced(_definitions) == []


def test_every_method_and_property_is_referenced():
    assert _unreferenced(_methods) == []


def _imports(tree: ast.Module):
    """(bound name, line) of every import in a module, ``from __future__`` excepted."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def test_every_imported_name_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in _imports(tree) if name not in used]
    assert unused == []


def test_every_parameter_is_read():
    ignored = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("cmd_") or (name.startswith("__") and name.endswith("__")):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [p for p in (args.vararg, args.kwarg) if p is not None]
            read = {
                n.id
                for statement in node.body
                for n in ast.walk(statement)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            ignored += [
                f"{path.name}:{node.lineno} {name}({p.arg})" for p in params if p.arg not in read
            ]
    assert ignored == []
