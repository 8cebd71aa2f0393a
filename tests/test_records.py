"""Records behave as frozen dataclasses do, and defining them compiles no code.

Every record of the package subclasses ``model.Record``, whose methods are
written once over the fields. Each record found by walking the six modules
is checked against a ``dataclasses.make_dataclass(..., frozen=True)`` twin
with the same fields and defaults (``eq=False`` for the records that hold
arrays): repr, equality, hashing, immutability, the ``dataclasses``
helpers, construction, and the TypeError of a bad call.
"""

import dataclasses
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spectrumspace.model import Record

MODULES = ["model", "propagation", "quantify", "scenario_io", "policy", "admission"]
# Records that hold arrays keep identity equality and hashing, as ``eq=False`` gives.
IDENTITY = {"PowerField", "ConsumptionSpace"}


def _records() -> list[type]:
    found = []
    for name in MODULES:
        module = importlib.import_module(f"spectrumspace.{name}")
        found += [cls for cls in vars(module).values()
                  if isinstance(cls, type) and cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls)]
    return found


RECORDS = _records()


def _twin(cls: type) -> type:
    """A stdlib frozen dataclass with ``cls``'s name, fields and defaults."""
    spec = [(f.name, f.type) if f.default is dataclasses.MISSING else (f.name, f.type, f.default)
            for f in dataclasses.fields(cls)]
    return dataclasses.make_dataclass(cls.__qualname__, spec, frozen=True, eq=cls.__name__ not in IDENTITY)


def _values(cls: type, k: int) -> dict:
    """Distinct, hashable sample values for every field of ``cls``, by name."""
    return {f.name: (f.name, k) for f in dataclasses.fields(cls)}


def _required(cls: type) -> dict:
    return {f.name: (f.name, 0) for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING}


def _error(make) -> tuple[type, str]:
    with pytest.raises(Exception) as info:
        make()
    return info.type, str(info.value)


def test_every_record_is_found():
    assert len(RECORDS) == 27
    assert all(issubclass(cls, Record) for cls in RECORDS)
    assert IDENTITY <= {cls.__name__ for cls in RECORDS}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
class TestParityWithFrozenDataclass:
    def test_repr(self, cls):
        twin = _twin(cls)
        for k in (0, 1):
            assert repr(cls(**_values(cls, k))) == repr(twin(**_values(cls, k)))

    def test_equality(self, cls):
        twin = _twin(cls)
        other = RECORDS[(RECORDS.index(cls) + 1) % len(RECORDS)]
        record, same, changed = cls(**_values(cls, 0)), cls(**_values(cls, 0)), cls(**_values(cls, 1))
        theirs, their_same, their_changed = twin(**_values(cls, 0)), twin(**_values(cls, 0)), twin(**_values(cls, 1))

        def compared(a, b):
            return a == b, a != b

        assert compared(record, record) == compared(theirs, theirs)
        assert compared(record, same) == compared(theirs, their_same)
        assert compared(record, changed) == compared(theirs, their_changed)
        for stranger in [other(**_values(other, 0)), tuple(_values(cls, 0).values()), None]:
            assert compared(record, stranger) == compared(theirs, stranger)
        assert compared(record, theirs) == compared(theirs, record) == (False, True)

    def test_hash(self, cls):
        record, twin = cls(**_values(cls, 0)), _twin(cls)(**_values(cls, 0))
        if cls.__name__ in IDENTITY:
            assert hash(record) == object.__hash__(record) and hash(twin) == object.__hash__(twin)
        else:
            assert hash(record) == hash(twin)
            assert hash(record) == hash(cls(**_values(cls, 0)))

    def test_assignment_and_deletion_raise(self, cls):
        record, twin = cls(**_values(cls, 0)), _twin(cls)(**_values(cls, 0))
        for name in [*_values(cls, 0), "not_a_field"]:
            for action in (lambda obj: setattr(obj, name, 1), lambda obj: delattr(obj, name)):
                ours, theirs = _error(lambda: action(record)), _error(lambda: action(twin))
                assert ours == theirs and ours[0] is dataclasses.FrozenInstanceError
        assert record == cls(**_values(cls, 0)) or cls.__name__ in IDENTITY

    def test_dataclasses_helpers(self, cls):
        twin = _twin(cls)
        record, theirs = cls(**_values(cls, 0)), twin(**_values(cls, 0))
        assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(record)
        assert [(f.name, f.default) for f in dataclasses.fields(record)] == \
            [(f.name, f.default) for f in dataclasses.fields(theirs)]
        assert cls.__match_args__ == twin.__match_args__
        assert dataclasses.asdict(record) == dataclasses.asdict(theirs)
        first = dataclasses.fields(cls)[0].name
        replaced = dataclasses.replace(record, **{first: "new"})
        assert type(replaced) is cls and repr(replaced) == repr(dataclasses.replace(theirs, **{first: "new"}))
        assert repr(record) == repr(theirs)

    def test_construction(self, cls):
        twin = _twin(cls)
        values, required = _values(cls, 0), _required(cls)
        assert repr(cls(*values.values())) == repr(twin(*values.values())) == repr(cls(**values))
        assert repr(cls(**required)) == repr(twin(**required))
        assert repr(cls(*required.values())) == repr(twin(*required.values()))

    def test_bad_calls_raise_the_same_type_error(self, cls):
        twin = _twin(cls)
        values, required = _values(cls, 0), _required(cls)
        first = next(iter(values))
        calls = [
            lambda make: make(**values, unknown=1),
            lambda make: make(*values.values(), **{first: 1}),
            lambda make: make(*values.values(), "extra"),
        ]
        calls += [lambda make, name=name: make(**{k: v for k, v in required.items() if k != name})
                  for name in required]
        if len(required) >= 2:
            calls.append(lambda make: make())
        for call in calls:
            ours = _error(lambda: call(cls))
            assert ours == _error(lambda: call(twin)) and ours[0] is TypeError


def test_a_subclass_refuses_calls_by_its_own_fields():
    """A refused call is described by the class called, even after its parent refused one."""
    class Parent(Record):
        """A record with one field."""
        x: int

    class Child(Parent):
        """The parent's field and one more."""
        y: int

    for cls in (Parent, Child, Parent):
        assert _error(cls) == _error(_twin(cls)) and _error(cls)[0] is TypeError
    assert _error(Child)[1].endswith("missing 2 required positional arguments: 'x' and 'y'")


SRC = Path(importlib.import_module("spectrumspace").__file__).resolve().parents[1]
# Functions on the package's classes that were compiled from a source string,
# as ``dataclass`` compiles the methods it generates.
GENERATED = """\
import sys, types

def generated(package="spectrumspace"):
    return sorted(f"{cls.__qualname__}.{name}"
                  for module_name, module in list(sys.modules.items()) if module_name.startswith(package)
                  for cls in list(vars(module).values())
                  if isinstance(cls, type) and cls.__module__ == module_name
                  for name, method in vars(cls).items()
                  if isinstance(method, types.FunctionType) and method.__code__.co_filename == "<string>")
"""


def test_the_generated_method_count_sees_a_dataclass():
    namespace = {}
    exec(GENERATED, namespace)
    module = type(sys)("probe_records")

    @dataclasses.dataclass(frozen=True)
    class Probe:
        x: int

    Probe.__module__ = module.__name__
    module.Probe = Probe
    sys.modules[module.__name__] = module
    try:
        # the generated __repr__ is wrapped by a function of dataclasses.py itself, so it is not counted
        assert namespace["generated"](module.__name__) == [f"{Probe.__qualname__}.{name}" for name in sorted(
            ["__init__", "__eq__", "__hash__", "__setattr__", "__delattr__"])]
    finally:
        del sys.modules[module.__name__]


def test_importing_compiles_no_method_per_class():
    """A fresh interpreter imports the command line, then admission and policy; no class has a
    method compiled from a string at either step."""
    code = GENERATED + """\
import json
import spectrumspace.cli
first = generated()
import spectrumspace.admission, spectrumspace.policy
print(json.dumps([first, generated()]))
"""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(SRC)})
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [[], []]
