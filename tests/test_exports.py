"""Every name a module exports resolves, so a deletion cannot leave a stale export.

The package's runtime surface needs numpy only: no module imports scipy,
even lazily, and every kernel gives its potential supremum in closed form.
"""

import ast
import importlib
import inspect
import pkgutil

import sbmre
from sbmre import covariance


def _modules():
    for info in pkgutil.iter_modules(sbmre.__path__):
        yield importlib.import_module(f"sbmre.{info.name}")


def test_every_exported_name_resolves():
    checked = 0
    for module in _modules():
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__} exports missing {name!r}"
            checked += 1
    assert checked > 0


def test_no_module_imports_scipy():
    for module in _modules():
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "scipy" for name in names), \
                f"{module.__name__} line {node.lineno} imports {names}"


def test_every_kernel_has_a_closed_form_radial_moment():
    base = covariance.CovarianceKernel
    kernels = [cls for cls in vars(covariance).values()
               if isinstance(cls, type) and issubclass(cls, base) and cls is not base]
    assert kernels
    for cls in kernels:
        assert cls.radial_moment is not base.radial_moment, cls.__name__
