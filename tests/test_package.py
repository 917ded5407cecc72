"""The package's structure: layers import downward, names are declared once."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import braidphase

PACKAGE = Path(braidphase.__file__).resolve().parent
# Each module may import, at run time, only modules before it.
ORDER = ["errors", "phase", "freegroup", "artin", "braid", "cocycle", "verify", "cli"]
LAYERS = ["phase", "errors", "freegroup", "artin", "braid", "cocycle"]


def _runtime_imports(tree: ast.Module):
    """The package modules a module imports, function bodies included; an
    annotation needs no import, since annotations stay unevaluated strings."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import a, b
                yield from (alias.name for alias in node.names)
            else:
                yield node.module.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("braidphase."):
            yield node.module.split(".")[1]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("braidphase."):
                    yield alias.name.split(".")[1]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_imports_only_go_down_the_layers(path):
    imported = set(_runtime_imports(ast.parse(path.read_text(encoding="utf-8"))))
    if path.stem == "__init__":
        assert imported <= set(LAYERS)
    elif path.stem == "__main__":
        assert imported <= set(ORDER)
    else:
        rank = ORDER.index(path.stem)
        assert not {m for m in imported if ORDER.index(m) >= rank}, imported


def test_package_all_is_the_union_of_the_layers():
    layers = [getattr(braidphase, name).__all__ for name in LAYERS]
    names = braidphase.__all__
    assert names == sorted(set().union(*layers))
    # no name is declared by two layers, or twice by one
    assert len(names) == len(set(names)) == sum(len(layer) for layer in layers)
    for layer, declared in zip(LAYERS, layers):
        for name in declared:
            obj = getattr(braidphase, name)
            assert getattr(obj, "__module__", None) == f"braidphase.{layer}", name


def test_package_import_leaves_verify_and_cli_unloaded():
    # Each CLI call pays for what importing braidphase.cli loads: the records
    # are built without dataclasses (which loads inspect), and annotations are
    # never evaluated, so typing stays out.  site may load some of these
    # first, so only the modules the import adds count.
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import braidphase\n"
        "package = sorted(sys.modules)\n"
        "import braidphase.cli\n"
        "print(json.dumps([package, sorted(set(sys.modules) - before)]))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE.parent), *sys.path])}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    loaded, added = json.loads(out.stdout)
    assert "braidphase.phase" in loaded
    assert "braidphase.verify" not in loaded and "braidphase.cli" not in loaded
    assert "braidphase.cli" in added
    assert not {"dataclasses", "typing", "inspect"} & set(added), added


def test_tracer_patches_only_methods_the_classes_define():
    # The benchmark tracer wraps these methods by name, read from the class
    # dicts; a method trimmed from the library must leave its list first.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.METHODS
    for layer, cls, attr in tracer.METHODS:
        assert attr in vars(getattr(getattr(braidphase, layer), cls)), (layer, cls, attr)
