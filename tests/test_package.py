"""Package surface: every public name the package binds is exported,
every module uses what it imports, the package needs nothing at run
time beyond the standard library and numpy, and importing it sets
OpenBLAS's idle-thread timeout before numpy loads."""

import ast
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import qdfi


def test_public_imports_are_exported():
    # every public name the package binds is exported, save its
    # submodules, and so is every name a module exports
    public = {name for name, value in vars(qdfi).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    missing = sorted(public - set(qdfi.__all__))
    assert not missing, f"bound but not in __all__: {missing}"
    for module in (qdfi.analysis, qdfi.estimation, qdfi.model,
                   qdfi.sampling, qdfi.sweep, qdfi.io):
        missing = sorted(set(module.__all__) - set(qdfi.__all__))
        assert not missing, f"{module.__name__} exports {missing}"


def test_exports_are_bound_and_unique():
    assert len(qdfi.__all__) == len(set(qdfi.__all__))
    for name in qdfi.__all__:
        assert hasattr(qdfi, name), name


def test_private_names_stay_in_their_module():
    # the one exception: the bench times the bootstrap where qdfi.sweep
    # binds it, so sweep imports estimation's private batch routine
    crossings = set()
    for path in Path(qdfi.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                crossings.update(
                    (path.stem, node.module, alias.name)
                    for alias in node.names
                    if alias.name.startswith("_")
                    and not alias.name.endswith("__"))
    assert crossings == {("sweep", "estimation", "_bootstrap_counts")}


def test_module_imports_are_used():
    # the unused-import rule of a linter: a name a module imports must
    # occur in it as a name, an attribute base being one (np in np.sum)
    unused = []
    for path in sorted(Path(qdfi.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name).split(".")[0]
                                for alias in node.names)
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                imported.update(alias.asname or alias.name
                                for alias in node.names)
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused.extend(f"{path.stem}: {name}"
                      for name in sorted(imported - used))
    assert not unused, f"imported but never used: {unused}"


def test_runtime_imports_are_stdlib_or_numpy():
    # scipy, hypothesis and pytest-benchmark are installed for tests and
    # benches only; the package itself may not import them
    allowed = set(sys.stdlib_module_names) | {"numpy", "qdfi"}
    outside = []
    for path in sorted(Path(qdfi.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside.extend(f"{path.stem}: {name}" for name in names
                           if name.split(".")[0] not in allowed)
    assert not outside, f"runtime imports beyond stdlib and numpy: {outside}"


# Records the variable as the first lookup of numpy sees it, that is,
# as OpenBLAS reads it when numpy loads it, and again after the import.
_TIMEOUT_PROBE = """
import json, os, sys
seen = []
class Spy:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
        return None
sys.meta_path.insert(0, Spy)
import qdfi.cli
print(json.dumps([seen, os.environ.get("OPENBLAS_THREAD_TIMEOUT")]))
"""


@pytest.mark.parametrize("preset, expected", [(None, "4"), ("20", "20")])
def test_openblas_timeout_set_before_numpy_loads(preset, expected):
    env = {k: v for k, v in os.environ.items()
           if k != "OPENBLAS_THREAD_TIMEOUT"}
    env["PYTHONPATH"] = str(Path(qdfi.__file__).parents[1])
    if preset is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = preset
    child = subprocess.run([sys.executable, "-c", _TIMEOUT_PROBE], env=env,
                           capture_output=True, text=True, check=True)
    seen, after = json.loads(child.stdout.splitlines()[-1])
    assert seen == [expected]
    assert after == expected
