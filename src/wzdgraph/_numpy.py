"""numpy, and the package's heavy modules, loaded on first use.

``lazy(name)`` is the module itself when it was imported already, and
otherwise a module that ``importlib.util.LazyLoader`` registers in
``sys.modules`` and runs the first time one of its attributes is read.
``np`` is numpy so bound: ``wzd spectrum``, ``wzd table`` and ``wzd graph``,
which need only integers, never run numpy's code, and ``verify`` and
``join`` load it at their first array.  Inside this package numpy is
imported only as ``from ._numpy import np``: a plain ``import numpy`` reads
``__spec__`` from the lazy module, and that read loads it at once.

``cli`` binds ``graphcore``, ``oracle`` and ``json`` the same way, so
``spectrum`` and ``table`` run neither builder nor oracle, and ``graph``
runs no oracle.

The lazy load is not thread-safe before Python 3.12, so each lazy module is
first touched on a process's main thread.  The ``verify --jobs`` parent
never touches numpy, and each pool worker loads it on its own main thread;
the parent loads ``oracle`` before its pool starts, as the pool's result
thread unpickles each report from it.
"""

import importlib.util
import sys


def lazy(name: str):
    """The module ``name``, run on the first read of one of its attributes."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    if parent:  # as an import binds a submodule on its package
        setattr(sys.modules[parent], child, module)
    return module


np = lazy("numpy")
