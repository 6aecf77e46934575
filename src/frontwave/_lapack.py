"""dgtsv and dgbsv from scipy's LAPACK wrapper without scipy.linalg's package init (its array-API
layer, numpy.f2py). Loaded under its real name, so a later ``import scipy.linalg`` reuses it; that
package then lacks a ``_flapack`` attribute, though ``from scipy.linalg import _flapack`` works."""

import os
import sys
from importlib import machinery, util

_NAME = "scipy.linalg._flapack"
try:
    if _NAME not in sys.modules:
        _base = os.path.join(util.find_spec("scipy").submodule_search_locations[0], "linalg", "_flapack")
        _path = next(_base + s for s in machinery.EXTENSION_SUFFIXES if os.path.isfile(_base + s))
        _loader = machinery.ExtensionFileLoader(_NAME, _path)
        _loader.exec_module(_mod := util.module_from_spec(util.spec_from_loader(_NAME, _loader)))
        sys.modules[_NAME] = _mod
    dgbsv, dgtsv = sys.modules[_NAME].dgbsv, sys.modules[_NAME].dgtsv
except Exception:  # whatever fails, the public import stands in and raises its own errors
    from scipy.linalg.lapack import dgbsv, dgtsv
