"""Structural rules of the package source, read from its syntax trees.

- ``gain_db``, the one gain formula, is called only inside ``propagation``.
  Every other module reads gains through propagation's field and point
  helpers, so a scalar twin of a vectorized routine cannot come back unseen.
- ``quantify`` calls each whole-grid gain field, ``tx_gain_db_field`` and
  ``entrant_gain_field_linear``, from exactly one place, so a second walk
  over transmitters or receivers cannot come back unseen.
- Gain targets are prepared only where a slice's state is built,
  ``LinkBudget.active`` and ``LinkBudget.slice``, so a point query that
  rebuilds its targets from a list on every call cannot come back.
- Only ``LinkBudget._opportunity_fields`` and ``LinkBudget.opportunity_at_cell``
  call ``_entrant_caps``: entrant caps are folded into a grid in one place, so
  a second fold (a solo-denial path beside the joint one) cannot come back.
- ``np.power`` appears only in ``model.db_to_linear_in_place``, so every
  array 10 ** x goes through one conversion kernel, and it takes no
  ``where=`` mask: cells on a power bound get their exact value in one place,
  ``quantify._linear_in_place``.
- No module calls the builtin ``sum``: from Python 3.12 it compensates float
  sums, so totals are added with ``+=`` in a stated order (``np.sum`` is fine).
- No module imports another module's private (underscore) name.
- Each refusal rule is written in one line of the package: a guard margin or
  tolerance that is not a finite, non-negative number (``model.check_non_negative``),
  and a band or quantum that is not an integer or out of range
  (``model.check_slices``).
- Only ``scenario_io`` imports ``json``: documents and reports are read and
  written there, so no other module builds or dumps JSON by hand.
- Only ``scenario_io`` calls the report renderers (``format_number``,
  ``quantity_to_dict``, ``record_to_dict``, ``scenario_to_dict``): every
  other module hands its results to ``report_to_dict``, so a report's JSON
  form is decided in one place.
- ``model``, ``propagation``, ``quantify``, ``scenario_io`` and ``cli`` import
  neither ``admission`` nor ``policy`` when they are imported, so a command
  that does not admit never loads those two modules.
- Only ``model`` uses ``dataclasses.dataclass``, in ``Record``; every record
  subclasses it, so no module compiles dataclass methods per class again.
  Every record has a docstring of its own: without one, ``dataclass`` calls
  ``inspect.signature`` to write one when the class is defined.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spectrumspace"
MODULES = sorted(PACKAGE.glob("*.py"))


def _nodes(path: Path):
    return ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _calls(path: Path, name: str) -> list[int]:
    """Lines that call anything named ``name``."""
    return [node.lineno for node in _nodes(path) if isinstance(node, ast.Call) and _called_name(node) == name]


def _callers(path: Path, name: str) -> set[str]:
    """Qualified names (``Class.method``) of the functions that call anything named ``name``."""
    found = set()

    def visit(node, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Call) and _called_name(child) == name:
                found.add(scope or "<module>")
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), "")
    return found


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


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "propagation.py"], ids=lambda p: p.name)
def test_targets_are_prepared_only_where_a_slice_is_built(path):
    builders = {"LinkBudget.active", "LinkBudget.slice"} if path.name == "quantify.py" else set()
    assert _callers(path, "prepare_targets") == builders


def test_entrant_caps_are_folded_in_one_place():
    assert _callers(PACKAGE / "quantify.py", "_entrant_caps") == {
        "LinkBudget._opportunity_fields", "LinkBudget.opportunity_at_cell"}


def _builtin_sum_calls(source: str) -> list[int]:
    """Lines that call the bare name ``sum``; ``np.sum`` is an attribute and does not count."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum"]


def test_the_sum_rule_tells_sum_from_np_sum():
    assert _builtin_sum_calls("cells = np.sum(a)\ntotal = sum(xs)\n") == [2]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_calls_the_builtin_sum(path):
    assert _builtin_sum_calls(path.read_text(encoding="utf-8")) == []


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


def _masked_power_calls(path: Path) -> list[int]:
    """Lines that call anything named ``power`` with a ``where`` keyword."""
    return [node.lineno for node in _nodes(path) if isinstance(node, ast.Call) and _called_name(node) == "power"
            and any(keyword.arg == "where" for keyword in node.keywords)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_np_power_takes_no_mask(path):
    assert _masked_power_calls(path) == []


def test_np_power_is_called_only_in_the_conversion_kernel():
    uses = {path.name: _numpy_power_uses(path) for path in MODULES}
    kernel = uses.pop("model.py")
    assert kernel and all(use.startswith("db_to_linear_in_place:") for use in kernel)
    assert {name: found for name, found in uses.items() if found} == {}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_is_imported_across_modules(path):
    assert _private_imports(path) == []


REFUSALS = ("must be finite and non-negative (got", "{name} {i!r} is not an integer",
            "out of range [0, {count})")


@pytest.mark.parametrize("template", REFUSALS)
def test_each_refusal_rule_is_written_once(template):
    lines = [f"{path.name}:{number}" for path in MODULES
             for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1) if template in line]
    assert len(lines) == 1, lines


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


RENDERERS = ("format_number", "quantity_to_dict", "record_to_dict", "scenario_to_dict")


def test_scenario_io_renders_reports():
    assert all(_calls(PACKAGE / "scenario_io.py", name) for name in RENDERERS)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "scenario_io.py"], ids=lambda p: p.name)
def test_only_scenario_io_calls_the_report_renderers(path):
    assert {name: lines for name in RENDERERS if (lines := _calls(path, name))} == {}


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


def _dataclass_uses(path: Path) -> list[int]:
    """Lines that import ``dataclasses.dataclass`` or reach it as an attribute of the module."""
    return [node.lineno for node in _nodes(path)
            if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
            and any(a.name == "dataclass" for a in node.names)
            or isinstance(node, ast.Attribute) and node.attr == "dataclass"
            and isinstance(node.value, ast.Name) and node.value.id == "dataclasses"]


def test_the_dataclass_rule_sees_both_spellings():
    path = Path(__file__).with_name("test_records.py")
    assert _dataclass_uses(path)
    assert _dataclass_uses(PACKAGE / "model.py")


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "model.py"], ids=lambda p: p.name)
def test_only_model_uses_dataclass(path):
    assert _dataclass_uses(path) == []


def _records(path: Path) -> dict[str, bool]:
    """Each class of ``path`` that subclasses ``Record``, by name: whether it has a docstring."""
    return {node.name: ast.get_docstring(node) is not None for node in _nodes(path)
            if isinstance(node, ast.ClassDef) and any(isinstance(base, ast.Name) and base.id == "Record"
                                                        for base in node.bases)}


def test_every_record_has_its_own_docstring():
    records = {name: documented for path in MODULES for name, documented in _records(path).items()}
    assert len(records) == 27
    assert [name for name, documented in records.items() if not documented] == []
