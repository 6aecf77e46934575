"""frontwave._lapack: the LAPACK routines loaded without scipy.linalg's init."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg.lapack

from frontwave import _lapack, fbsolver, semiwave
from frontwave.fbsolver import _Stepper
from frontwave.semiwave import solve_semiwave

FLAPACK = "scipy.linalg._flapack"


def _fresh(args):
    """Copies of the array arguments: the routines overwrite their inputs."""
    return [a.copy(order="A") if isinstance(a, np.ndarray) else a for a in args]


def _bits(out):
    return [(o.dtype.str, o.shape, o.tobytes()) if isinstance(o, np.ndarray) else o for o in out]


def _capture(mp, module, name):
    """Record the arguments of every call to ``module.name``."""
    calls = []
    real = getattr(module, name)

    def recording(*args, **kwargs):
        calls.append((_fresh(args), kwargs))
        return real(*args, **kwargs)

    mp.setattr(module, name, recording)
    return calls


@pytest.fixture
def systems(s1_nl, s1_neumann, s1_eq, monkeypatch):
    """The stepper's stacked tridiagonal system and a semi-wave Newton system,
    as (routine name, arguments, keyword arguments)."""
    with monkeypatch.context() as mp:
        gt, gb = _capture(mp, fbsolver, "dgtsv"), _capture(mp, semiwave, "dgbsv")
        stepper = _Stepper(s1_neumann, s1_nl, 400)
        rhs = np.stack((np.cos(stepper.xi), 0.5 * np.sin(3.0 * stepper.xi) + 0.7))
        stepper._diffuse(rhs, 2.5, 0.01)
        solve_semiwave(0.5, s1_nl, s1_neumann, eq=s1_eq, cstar=2.0)
    (gt_args, gt_kw), (gb_args, gb_kw) = gt[0], gb[0]
    assert gt_args[3].size == 802
    assert gb_args[2].shape[0] == 7 and gb_args[3].shape[1] == 2
    return {"dgtsv": (gt_args, gt_kw), "dgbsv": (gb_args, gb_kw)}


def _assert_same_bits(module, systems):
    for name, (args, kwargs) in systems.items():
        got = getattr(module, name)(*_fresh(args), **kwargs)
        want = getattr(scipy.linalg.lapack, name)(*_fresh(args), **kwargs)
        assert got[-1] == 0, name  # info
        assert _bits(got) == _bits(want), name


def test_direct_routines_match_scipy_linalg_bitwise(systems):
    assert fbsolver.dgtsv is _lapack.dgtsv and semiwave.dgbsv is _lapack.dgbsv
    _assert_same_bits(_lapack, systems)


def test_fallback_when_direct_load_fails(systems, monkeypatch):
    # a fresh copy of the module, run with the extension unfindable; the
    # imported frontwave._lapack and sys.modules are left as they were
    spec = importlib.util.find_spec("frontwave._lapack")
    asked = []

    def no_spec(name, *args, **kwargs):
        asked.append(name)
        return None

    with monkeypatch.context() as mp:
        mp.delitem(sys.modules, FLAPACK)
        mp.setattr(importlib.util, "find_spec", no_spec)
        fallback = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(fallback)
        assert FLAPACK not in sys.modules  # the direct load did not run
    assert asked == ["scipy"] and not hasattr(fallback, "_mod")
    assert fallback.dgtsv is scipy.linalg.lapack.dgtsv
    assert fallback.dgbsv is scipy.linalg.lapack.dgbsv
    _assert_same_bits(fallback, systems)


ORDER_RUN = """\
import hashlib
{before}
import frontwave.cli
from frontwave.fbsolver import SolverNumerics, StopRule, simulate
from frontwave.model import InitialData, ModelParams, Nonlinearity
from frontwave.semiwave import find_c0
nl, p = Nonlinearity(), ModelParams(1, 1, 1, 1, 1, 1, "neumann")
pair, prof = find_c0(nl, p)
trace = simulate(p, nl, InitialData.cosine_bump(2.0, 0.5), SolverNumerics(n=50),
                 StopRule(t_end=2.0))
digest = hashlib.sha256(repr((pair, trace.stats)).encode())
for a in (prof.phi, prof.psi, prof.dphi_dc, prof.dpsi_dc, trace.t, trace.h, trace.hprime,
          trace.sup_u, trace.sup_v, trace.mass):
    digest.update(a.tobytes())
print(digest.hexdigest())
{after}
"""

CHECK_SCIPY_AFTER = """\
import numpy as np
import scipy.linalg
from frontwave import fbsolver
assert scipy.linalg.lapack.dgtsv is fbsolver.dgtsv
ab = np.array([[0.0, 1.0, 1.0], [4.0, 4.0, 4.0], [1.0, 1.0, 0.0]])
dense = np.diag([4.0] * 3) + np.diag([1.0] * 2, 1) + np.diag([1.0] * 2, -1)
b = np.array([1.0, 2.0, 3.0])
assert np.allclose(scipy.linalg.solve_banded((1, 1), ab, b), np.linalg.solve(dense, b))
*_, x, info = scipy.linalg.lapack.dgtsv(np.ones(2), 4.0 * np.ones(3), np.ones(2), b)
assert info == 0 and np.allclose(x, np.linalg.solve(dense, b))
print("scipy.linalg ok")
"""


def _run_fresh(code):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_results_do_not_depend_on_import_order():
    scipy_first = _run_fresh(ORDER_RUN.format(before="import scipy.linalg", after=""))
    frontwave_first = _run_fresh(ORDER_RUN.format(before="", after=CHECK_SCIPY_AFTER))
    assert len(scipy_first) == 1
    assert frontwave_first == scipy_first + ["scipy.linalg", "ok"]
