"""scipy is loaded by the first LAPACK call, not by `import reduction_lab`.

The test modules import scipy themselves, so these checks run in a fresh
interpreter, where a module-level scipy import in the package would show.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import reduction_lab

SRC = Path(reduction_lab.__file__).resolve().parents[1]


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports reduction_lab from the same sources as the tests."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], env=env, capture_output=True, text=True, timeout=120
    )


def test_import_loads_no_scipy_and_first_solves_load_it():
    done = run_fresh(
        """
        import math
        import sys

        import numpy as np

        import reduction_lab
        import reduction_lab.cli

        def scipy_loaded():
            return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

        assert not scipy_loaded(), scipy_loaded()
        # two SCCs: {0, 1} with eigenvalues 1 and -4, and {2} with 0.5
        M = np.array([[-1.0, 2.0, 0.0], [3.0, -2.0, 1.0], [0.0, 0.0, 0.5]])
        data = reduction_lab.spectral_bound(M)
        assert data.blocks is not None and abs(data.spb - 1.0) <= 1e-14, data
        u, v = reduction_lab.perron_vectors(M[:2, :2])
        np.testing.assert_allclose(u, [1.2, 0.8], rtol=1e-13)
        np.testing.assert_allclose(v, [0.5, 0.5], rtol=1e-13)
        R = reduction_lab.resolvent(M[:2, :2], 2.0)
        np.testing.assert_allclose(R, np.array([[4.0, 2.0], [3.0, 3.0]]) / 6.0, rtol=1e-14)
        E = reduction_lab.expm([[1.0, 1.0], [0.0, 1.0]], 1.0)
        np.testing.assert_allclose(E, [[math.e, math.e], [0.0, math.e]], rtol=1e-14)
        assert "scipy.linalg" in sys.modules
        """
    )
    assert done.returncode == 0, done.stderr


def test_error_exits_load_no_scipy(tmp_path):
    scenario = tmp_path / "unknown_key.ini"
    scenario.write_text("[family]\nkind = linear\nA = -1 1 ; 1 -1\nV_diag = 1 -1\nspeed = 2\n", encoding="utf-8")
    done = run_fresh(
        f"""
        import sys

        from reduction_lab.cli import main

        out = {str(tmp_path / "report.check")!r}
        assert main(["check", {str(tmp_path / "absent.ini")!r}, "--out", out]) == 2
        assert main(["check", {str(scenario)!r}, "--out", out]) == 2
        assert not [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
        """
    )
    assert done.returncode == 0, done.stderr
    assert "unknown key 'speed'" in done.stderr
