"""Package surface: every public name the package imports is exported."""

import ast
from pathlib import Path

import qdfi


def _imported_names():
    tree = ast.parse(Path(qdfi.__file__).read_text(encoding="utf-8"))
    return [alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def test_public_imports_are_exported():
    public = [name for name in _imported_names()
              if not name.startswith("_") or name == "__version__"]
    missing = sorted(set(public) - set(qdfi.__all__))
    assert not missing, f"imported but not in __all__: {missing}"


def test_exports_are_bound_and_unique():
    assert len(qdfi.__all__) == len(set(qdfi.__all__))
    for name in qdfi.__all__:
        assert hasattr(qdfi, name), name
