"""Every name a package or test module imports is used there, or marked
`# noqa: F401` on its import line; every module-level private name of the
package is read somewhere in the package; the Monte Carlo names `nfcrb`
exports on first access are its submodules' own objects."""

import ast
import importlib
from pathlib import Path

import pytest

import nfcrb

PACKAGE = sorted(Path(nfcrb.__file__).parent.glob("*.py"))
MODULES = PACKAGE + sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if "noqa: F401" not in lines[alias.lineno - 1]:
                    imported[bound] = alias.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_gate_sees_an_unused_import():
    src = "import os\nfrom .a import b, c  # noqa: F401\nfrom .d import (\n    e,\n    f,\n)\nf()\n"
    assert unused_imports(src) == [(1, "os"), (4, "e")]


# __init__.py imports only to re-export the public names
@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def private_definitions(source: str) -> list:
    """(line, name) of each private name a module defines at its top level:
    a def, a class or an assignment target whose name starts with one
    underscore."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(n.lineno, n.id) for t in targets for n in ast.walk(t)
                    if isinstance(n, ast.Name)]
    return [(line, name) for line, name in out
            if name.startswith("_") and not name.startswith("__")]


def names_read(source: str) -> set:
    """Every name a module reads: a name loaded, an attribute, or a name
    imported from another module."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_private_names(sources: dict) -> list:
    """(module, line, name) of each module-level private name that no
    module of sources (module -> source text) reads."""
    read = set().union(*map(names_read, sources.values()))
    return sorted((module, line, name) for module, source in sources.items()
                  for line, name in private_definitions(source) if name not in read)


def test_the_gate_sees_an_unread_private_name():
    a = ("_used = 1\n_unused, _LIMIT = 2, 3\n\n\ndef _helper():\n    return _used\n\n\n"
         "class _Gone:\n    pass\n\n\n_written: int = 0\n_written += 1\n__all__ = []\n")
    b = "from .a import _helper\n\nprint(a._LIMIT, _helper())\n"
    assert unread_private_names({"a": a, "b": b}) == [
        ("a", 2, "_unused"), ("a", 9, "_Gone"), ("a", 13, "_written"), ("a", 14, "_written")]


def test_package_reads_every_private_name():
    assert unread_private_names({p.name: p.read_text() for p in PACKAGE}) == []


LAZY_EXPORTS = {
    "estimator": ("EstimateResult", "GridSpec", "ObservationGridBuilder", "RmseReport",
                  "monte_carlo_rmse"),
    "signalsim": ("WaveformConfig", "mimo_chain_demo", "orthogonal_codes",
                  "phased_chain_demo", "reflection_amplitude", "synth_snapshot"),
}


@pytest.mark.parametrize("module,name", [(m, n) for m, names in LAZY_EXPORTS.items()
                                         for n in names])
def test_lazy_export_is_the_submodules_object(module, name):
    scope = {}
    exec(f"from nfcrb import {name}", scope)
    assert scope[name] is getattr(importlib.import_module(f"nfcrb.{module}"), name)


def test_every_lazy_table_entry_exists_in_its_module():
    for name, module in nfcrb._LAZY.items():
        assert hasattr(importlib.import_module(f"nfcrb.{module}"), name), name


def test_unknown_package_attribute_raises_attribute_error():
    assert not hasattr(nfcrb, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        nfcrb.no_such_name
