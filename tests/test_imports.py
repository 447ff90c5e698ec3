"""Every name a package or test module imports is used there, or marked
`# noqa: F401` on its import line; the Monte Carlo names `nfcrb` exports on
first access are its submodules' own objects."""

import ast
import importlib
from pathlib import Path

import pytest

import nfcrb

MODULES = (sorted(Path(nfcrb.__file__).parent.glob("*.py"))
           + sorted(Path(__file__).parent.glob("*.py")))


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
