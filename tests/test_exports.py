import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import btlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(btlab.__path__))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@pytest.mark.parametrize("module", MODULES)
def test_submodule_exports_resolve(module):
    mod = importlib.import_module(f"btlab.{module}")
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"btlab.{module}.{name}"


def _fresh(code: str, **env) -> list:
    """The printed words of `code` run in a new interpreter that imports
    this btlab and starts with none of THREAD_VARS set but those in env."""
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    src = str(Path(btlab.__file__).resolve().parents[1])
    base["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, base.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", code], env={**base, **env},
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    return res.stdout.split()


def test_cli_pins_threads_before_numpy_loads():
    """Thread pools read their size once, when numpy loads, so `import
    btlab` must not load numpy and `btlab.cli` must set the thread
    variables first, keeping any value the user set."""
    assert _fresh("import sys, btlab; print('numpy' in sys.modules)") \
        == ["False"]
    show = ("import os, btlab.cli; "
            f"print(*(os.environ[v] for v in {THREAD_VARS!r}))")
    assert _fresh(show) == ["1"] * 5
    assert _fresh(show, OMP_NUM_THREADS="3") == ["3"] + ["1"] * 4


def test_cli_start_leaves_numpy_polynomial_unloaded():
    """No suite builds a Gauss-Hermite rule, so `gauss_hermite_rule`
    imports its nodes only when called and a CLI start skips loading
    numpy.polynomial.  The command line is parsed by the standard library,
    so click is never loaded either.  The records generate no code, so
    neither dataclasses nor copy is loaded, and numpy.random loads only
    when a phase is drawn."""
    unloaded = ("numpy.polynomial", "click", "dataclasses", "copy",
                "numpy.random")
    code = ("import sys, btlab.cli; "
            f"print(*(m in sys.modules for m in {unloaded!r}))")
    assert _fresh(code) == ["False"] * 5
    assert _fresh(code.replace(
        "print(", "btlab.quadrature.gauss_hermite_rule(4); print(")) \
        == ["True"] + ["False"] * 4


def _fresh_fock_run(tmp_path, argv: list, report: str) -> list:
    """`btlab <argv>` on the Fock preset in a new interpreter, with every
    numpy.linalg SVD counted (each runs one of its `svd*` gufuncs; cond,
    norm(M, 2), pinv and matrix_rank included); prints the exit code, the
    SVD count and then the words `report` prints."""
    cfg = tmp_path / "fock.json"
    cfg.write_text('{"phase": {"preset": "fock"}, "h": 1.0}')
    argv = [*argv, "--config", str(cfg), "--out", str(tmp_path)]
    return _fresh(f"""
import contextlib, io, sys
from numpy.linalg import _umath_linalg as gufuncs
import btlab.cli
svds = []
def counted(real):
    def call(*args, **kwargs):
        svds.append(1)
        return real(*args, **kwargs)
    return call
for name in dir(gufuncs):
    if name.startswith("svd"):
        setattr(gufuncs, name, counted(getattr(gufuncs, name)))
with contextlib.redirect_stdout(io.StringIO()):
    try:
        btlab.cli.main({argv!r})
    except SystemExit as exc:
        code = exc.code
print(code, len(svds), {report})""")


def test_fock_space_info_leaves_numpy_random_unloaded(tmp_path):
    """space-info probes its identities on a fixed table of points, and a
    preset phase draws nothing, so numpy.random (with hashlib, hmac and
    secrets) is never imported."""
    assert _fresh_fock_run(tmp_path, ["space-info"],
                           "'numpy.random' in sys.modules") \
        == ["0", "0", "False"]


def test_fock_egorov_takes_no_svd(tmp_path):
    """egorov reads no singular value, and its context clears B and R on
    the 1-norm bound, so a fresh run makes no SVD at all."""
    assert _fresh_fock_run(tmp_path, ["verify", "egorov"], "''") \
        == ["0", "0"]


def test_readme_python_block_runs():
    """The README's Python API example runs as written in a new
    interpreter, so a changed signature cannot leave it stale."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    assert len(blocks) == 1
    _fresh(blocks[0])
