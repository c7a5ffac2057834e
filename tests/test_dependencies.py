"""The runtime needs numpy alone: every import in src/ names the standard
library, numpy or circlekit itself, and pyproject.toml declares numpy as the
one runtime dependency, with scipy a test dependency (the independent
expm/logm references of tests/test_loops.py)."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _imports(path: Path):
    """Top-level names of the modules a source file imports; a relative import is circlekit."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "circlekit" if node.level else node.module.split(".")[0]


def test_src_imports_only_the_standard_library_numpy_and_circlekit():
    files = sorted((ROOT / "src").rglob("*.py"))
    imported = {(path.name, name) for path in files for name in _imports(path)}
    assert {"numpy", "circlekit"} <= {name for _, name in imported}
    allowed = set(sys.stdlib_module_names) | {"numpy", "circlekit"}
    assert sorted(pair for pair in imported if pair[1] not in allowed) == []


def _names(requirements):
    return sorted(re.split(r"[<>=!~;\[ ]", req, maxsplit=1)[0].lower() for req in requirements)


def test_pyproject_runtime_is_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert _names(project["dependencies"]) == ["numpy"]
    assert _names(project["optional-dependencies"]["test"]) == ["hypothesis", "pytest", "scipy"]
