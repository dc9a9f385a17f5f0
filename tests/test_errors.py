import importlib
import inspect
import pkgutil

import polyscore
from polyscore import errors, net

BASES = (errors.ConfigError, errors.DataError, errors.ModelError)
# a programming error inside the package; no input can raise it
INTERNAL = {net.StaleCache}


def _package_exceptions():
    for info in pkgutil.iter_modules(polyscore.__path__):
        module = importlib.import_module(f"polyscore.{info.name}")
        for _, obj in inspect.getmembers(module, inspect.isclass):
            if issubclass(obj, Exception) and obj.__module__ == module.__name__ and obj not in BASES:
                yield obj


def test_every_exception_maps_to_exactly_one_exit_code():
    found = set(_package_exceptions())
    assert {net.CheckpointError, net.ShapeMismatch} <= found  # the walk sees the modules
    for exc in found - INTERNAL:
        assert sum(issubclass(exc, base) for base in BASES) == 1, exc
    for exc in INTERNAL:
        assert not issubclass(exc, BASES), exc
