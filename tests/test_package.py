"""Static checks of the sources: root exports, imports and file access."""

import ast
import inspect
import re
from pathlib import Path

import mlgp

ROOT = Path(__file__).resolve().parents[1]


def root_imports(source):
    """Names imported by ``from mlgp import ...`` statements in Python source."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "mlgp" and node.level == 0
        for alias in node.names
    }


def test_root_exports_what_demos_and_readme_import():
    sources = [path.read_text() for path in sorted((ROOT / "demos").glob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    sources += re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    imported = set().union(*map(root_imports, sources))
    public = {
        name
        for name, value in vars(mlgp).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == imported


def python_files(*dirs):
    return [path for d in dirs for path in sorted((ROOT / d).glob("*.py"))]


def unused_imports(source):
    """Names an import statement binds that no expression reads."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_no_file_imports_a_name_it_never_uses():
    # the package __init__ imports to re-export, so it is left out
    unused = {
        path.relative_to(ROOT).as_posix(): names
        for path in python_files("src/mlgp", "tests", "demos")
        if path.name != "__init__.py" and (names := unused_imports(path.read_text()))
    }
    assert unused == {}


def test_only_serialize_opens_files():
    def file_calls(source):
        return [
            node.lineno
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None))
            in ("open", "read_text", "write_text")
        ]

    callers = {
        path.name: lines
        for path in python_files("src/mlgp")
        if path.name != "_serialize.py" and (lines := file_calls(path.read_text()))
    }
    assert callers == {}
