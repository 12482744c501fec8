"""The package root exports exactly the names its demos and README import."""

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
