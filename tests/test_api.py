"""The public surface: every exported name resolves, once, and the package's
exception classes are the ten it keeps."""

import importlib
import inspect
import pkgutil

import pytest

import nldyn
from nldyn import errors

# the package and each submodule that lists its names
_MODULES = [nldyn] + [
    module for module in (
        importlib.import_module(f"nldyn.{info.name}")
        for info in pkgutil.iter_modules(nldyn.__path__) if not info.name.startswith("_")
    ) if hasattr(module, "__all__")
]

_ERROR_CLASSES = {
    "NldynError", "ConfigError", "FieldError", "NumericalFailureError",
    "DenominatorVanishingError", "NotConvergedError", "NoRootError",
    "InfeasibleMeasureError", "EvalDomainError", "QuadratureError",
}


@pytest.mark.parametrize("module", _MODULES, ids=lambda module: module.__name__)
def test_every_listed_name_resolves_once(module):
    listed = module.__all__
    assert len(listed) == len(set(listed)), sorted(n for n in listed if listed.count(n) > 1)
    assert [n for n in listed if not hasattr(module, n)] == []


def test_errors_module_holds_the_kept_classes():
    defined = {
        name for name, obj in vars(errors).items()
        if inspect.isclass(obj) and obj.__module__ == errors.__name__
    }
    assert defined == _ERROR_CLASSES
    for name in defined:
        assert issubclass(getattr(errors, name), errors.NldynError)
        assert name in nldyn.__all__ and getattr(nldyn, name) is getattr(errors, name)
