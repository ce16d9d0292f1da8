"""numpy, loaded on first use.

``np`` is numpy itself when it was imported already, and otherwise a module
that ``importlib.util.LazyLoader`` loads the first time one of its attributes
is read.  So ``wzd spectrum``, ``wzd table`` and ``wzd graph``, which need
only integers, never run numpy's code, and ``verify`` and ``join`` load it
at their first array.  Inside this package numpy is imported only as
``from ._numpy import np``: a plain ``import numpy`` reads ``__spec__`` from
the lazy module, and that read loads it at once.

The lazy load is not thread-safe before Python 3.12, so numpy is first
touched on a process's main thread: the ``verify --jobs`` parent never
touches it, and each pool worker loads it on its own main thread.
"""

import importlib.util
import sys


def _lazy_numpy():
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_numpy()
