"""SciPy's compiled double-precision LAPACK wrappers, without ``scipy.linalg``.

``import scipy.linalg`` runs the whole package ``__init__``, which pulls
in hundreds of modules the solvers never call (``numpy.f2py``,
``unittest``, ``email``, ...). The oracle (``dstebz``) and the PDE
stepper (``dpttrf``/``dpttrs`` and the complex ``zgttrf``/``zgttrs``)
need only the f2py extension ``scipy.linalg._flapack``, so ``flapack``
loads that one file from SciPy's directory and registers it under its
canonical name: later calls, and a later ``import scipy.linalg``, reuse
the same module, and ``get_lapack_funcs`` then returns the very
routines called here.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

_NAME = "scipy.linalg._flapack"


def flapack():
    """The module ``scipy.linalg._flapack``, loaded without importing
    the ``scipy.linalg`` package unless it already is; ``sys.modules``
    holds it from the first call on."""
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    # the top-level package is small and loads its subpackages lazily;
    # importing it runs the hook where a SciPy distribution initializes
    # its BLAS/LAPACK library (scipy/_distributor_init.py)
    import scipy

    path = [os.path.join(location, "linalg") for location in scipy.__path__]
    spec = importlib.machinery.PathFinder.find_spec(_NAME, path)
    if spec is None:
        raise ImportError(f"no {_NAME} extension in {path}", name=_NAME)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_NAME] = module
    return module
