"""Structural rules of the package source, read from its syntax trees.

- ``gain_db``, the one gain formula, is called only inside ``propagation``.
  Every other module reads gains through propagation's field and point
  helpers, so a scalar twin of a vectorized routine cannot come back unseen.
- ``quantify`` calls each whole-grid gain field, ``tx_gain_db_field`` and
  ``entrant_gain_field_linear``, from exactly one place, so a second walk
  over transmitters or receivers cannot come back unseen.
- ``np.power`` appears only in ``model.db_to_linear_in_place``, so every
  array 10 ** x goes through one conversion kernel.
- No module imports another module's private (underscore) name.
- Only ``scenario_io`` imports ``json``: documents and reports are read and
  written there, so no other module builds or dumps JSON by hand.
- ``model``, ``propagation``, ``quantify``, ``scenario_io`` and ``cli`` import
  neither ``admission`` nor ``policy`` when they are imported, so a command
  that does not admit never loads those two modules.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spectrumspace"
MODULES = sorted(PACKAGE.glob("*.py"))


def _nodes(path: Path):
    return ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))


def _calls(path: Path, name: str) -> list[int]:
    """Lines that call anything named ``name``."""
    lines = []
    for node in _nodes(path):
        if isinstance(node, ast.Call):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                lines.append(node.lineno)
    return lines


def _gain_db_uses(path: Path) -> list[int]:
    """Lines that call anything named gain_db, or import it under any name."""
    imports = [node.lineno for node in _nodes(path)
               if isinstance(node, ast.ImportFrom) and any(a.name == "gain_db" for a in node.names)]
    return sorted(_calls(path, "gain_db") + imports)


def _private_imports(path: Path) -> list[str]:
    """Underscore names imported from the package's own modules."""
    found = []
    for node in _nodes(path):
        if isinstance(node, ast.ImportFrom):
            if node.level > 0 or (node.module or "").startswith("spectrumspace"):
                found += [f"{node.lineno}: {a.name}" for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Import):
            found += [f"{node.lineno}: {a.name}" for a in node.names if a.name.startswith("spectrumspace")
                      and any(part.startswith("_") for part in a.name.split("."))]
    return found


def test_the_package_is_found():
    assert {"propagation.py", "quantify.py"} <= {path.name for path in MODULES}
    assert _gain_db_uses(PACKAGE / "propagation.py")


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "propagation.py"], ids=lambda p: p.name)
def test_gain_db_is_called_only_in_propagation(path):
    assert _gain_db_uses(path) == []


@pytest.mark.parametrize("field", ["tx_gain_db_field", "entrant_gain_field_linear"])
def test_quantify_builds_each_gain_field_in_one_place(field):
    assert len(_calls(PACKAGE / "quantify.py", field)) == 1


def _numpy_power_uses(path: Path) -> list[str]:
    """``function: line`` of every np.power / numpy.power reference or import from numpy,
    named by the top-level function or class it sits in."""
    found = []
    for top in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr == "power" and \
                    isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                found.append(f"{getattr(top, 'name', '<module>')}: {node.lineno}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy" and \
                    any(a.name == "power" for a in node.names):
                found.append(f"{getattr(top, 'name', '<module>')}: {node.lineno}")
    return found


def test_np_power_is_called_only_in_the_conversion_kernel():
    uses = {path.name: _numpy_power_uses(path) for path in MODULES}
    kernel = uses.pop("model.py")
    assert kernel and all(use.startswith("db_to_linear_in_place:") for use in kernel)
    assert {name: found for name, found in uses.items() if found} == {}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_is_imported_across_modules(path):
    assert _private_imports(path) == []


def _json_imports(path: Path) -> list[int]:
    """Lines that import the json module or anything from it."""
    lines = []
    for node in _nodes(path):
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "json" for a in node.names):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json":
            lines.append(node.lineno)
    return lines


def test_scenario_io_serializes():
    assert _json_imports(PACKAGE / "scenario_io.py")


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "scenario_io.py"], ids=lambda p: p.name)
def test_only_scenario_io_imports_json(path):
    assert _json_imports(path) == []


ADMISSION_MODULES = {"admission", "policy"}


def _import_time_imports(path: Path) -> set[str]:
    """The package's modules that ``path`` imports when it is itself imported: outside any function."""
    found = set()
    stack = list(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level > 0 and not module:
                found.update(a.name for a in node.names)
            elif node.level > 0 or module.startswith("spectrumspace."):
                found.add(module.removeprefix("spectrumspace.").split(".")[0])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("spectrumspace."))
    return found


def test_the_import_time_rule_sees_admissions_imports():
    assert {"model", "policy", "quantify"} <= _import_time_imports(PACKAGE / "admission.py")
    assert _import_time_imports(PACKAGE / "cli.py") == {"model", "quantify", "scenario_io"}


@pytest.mark.parametrize("name", ["model", "propagation", "quantify", "scenario_io", "cli"])
def test_admission_and_policy_load_only_when_used(name):
    assert _import_time_imports(PACKAGE / f"{name}.py") & ADMISSION_MODULES == set()
