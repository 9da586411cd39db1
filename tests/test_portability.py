"""Bits that do not depend on the BLAS kernel.

An OpenBLAS built with ``DYNAMIC_ARCH`` picks its kernel when it loads, and
``OPENBLAS_CORETYPE`` forces one in the process it is set for.  Nehalem has
no FMA, so a product sent through BLAS rounds differently there than on the
FMA kernels of most current machines.  Every bit a trace, a statistic or a
threshold of the shipped plant sizes holds is formed without BLAS, so both
checks below hold on any kernel.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from dynwatermark.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
BLAS = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
OPENBLAS_CONFIG = BLAS.get("openblas configuration", "")

pytestmark = pytest.mark.skipif(
    "DYNAMIC_ARCH" not in OPENBLAS_CONFIG.split(),
    reason=f"numpy's BLAS ({BLAS.get('name')}: {OPENBLAS_CONFIG or 'no openblas configuration'}) "
    "is not a DYNAMIC_ARCH OpenBLAS, so OPENBLAS_CORETYPE cannot force another kernel",
)


def _under_nehalem(*argv: str) -> subprocess.CompletedProcess:
    """``python argv...`` in a child process on OpenBLAS's Nehalem kernel."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_CORETYPE="Nehalem", PYTHONPATH=path)
    return subprocess.run([sys.executable, *argv], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=600)


def test_reference_files_check_out_on_the_nehalem_kernel():
    """``make_golden_trace.py --check`` finds every pinned file identical."""
    proc = _under_nehalem(str(ROOT / "scripts" / "make_golden_trace.py"), "--check")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_report_on_the_nehalem_kernel_accepts_a_mimo_run_directory(tmp_path, capsys):
    """A ``mimo_replay`` run directory written on this process's kernel is
    re-derived cell for cell under Nehalem."""
    out = tmp_path / "run"
    scenario = ROOT / "scenarios" / "mimo_replay.yaml"
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    proc = _under_nehalem("-m", "dynwatermark.cli", "report", "--run", str(out))
    assert proc.returncode == 0, proc.stderr
