import doctest
import importlib
import pkgutil

import deltadyn
import deltadyn.series


def test_series_doctests():
    results = doctest.testmod(deltadyn.series)
    assert results.failed == 0
    assert results.attempted > 0


def test_every_module_doctests():
    for info in pkgutil.iter_modules(deltadyn.__path__):
        module = importlib.import_module("deltadyn." + info.name)
        assert doctest.testmod(module).failed == 0, info.name
