"""Every name a package module imports is used in that module, and
importing the package sets each bundled OpenBLAS to one thread."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "cdrschwarz"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """``{bound name: line}`` of every import in ``tree``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    # An attribute chain such as ``np.linalg.solve`` starts at a Name.
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used}
    assert not unused, f"{path.name} imports but never uses {unused}"


def _blas_lib_dir(show_config):
    """Library directory of a build's BLAS when it is OpenBLAS, else None."""
    blas = show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (blas.get("lib directory", blas["name"])
            if "openblas" in blas["name"].lower() else None)


def test_import_sets_each_bundled_openblas_to_one_thread():
    # A fresh interpreter, so that nothing else has touched the pools. A
    # build whose OpenBLAS exports other symbol names would otherwise leave
    # its pool at the library default without any other test failing.
    numpy_blas = _blas_lib_dir(np.show_config)
    if numpy_blas is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    code = ("import json, cdrschwarz\n"
            "from cdrschwarz import kernels\n"
            "print(json.dumps([kernels._loaded_openblas_paths(),\n"
            "                  [p for p, _ in kernels.single_thread_blas()],\n"
            "                  kernels.blas_threads()]))\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.pop("OMP_NUM_THREADS", None)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    mapped, set_paths, threads = json.loads(out.splitlines()[-1])
    # numpy's and scipy's OpenBLAS, or one library when they share it.
    expected = len({numpy_blas, _blas_lib_dir(scipy.show_config)} - {None})
    assert len(mapped) == expected
    assert set_paths == mapped
    assert threads == [1] * expected
