"""Each public name is declared once: in the ``__all__`` of the module that defines it."""

import importlib

import rroc

MODULES = [importlib.import_module(f"rroc.{name}")
           for name in ("analysis", "core", "curve", "data", "errors", "report", "shift", "svg", "synth")]


def test_no_name_is_listed_twice():
    assert len(rroc.__all__) == len(set(rroc.__all__))


def test_package_names_are_the_modules_names_in_order():
    assert rroc.__all__ == ["__version__", *(name for module in MODULES for name in module.__all__)]


def test_each_name_is_its_modules_own_object():
    for module in MODULES:
        for name in module.__all__:
            value = getattr(module, name)
            assert getattr(rroc, name) is value
            # Defined there, not imported from another module.
            assert getattr(value, "__module__", module.__name__) == module.__name__, name
