"""Every name a module exports resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import sbmre


def test_every_exported_name_resolves():
    checked = 0
    for info in pkgutil.iter_modules(sbmre.__path__):
        module = importlib.import_module(f"sbmre.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"sbmre.{info.name} exports missing {name!r}"
            checked += 1
    assert checked > 0
