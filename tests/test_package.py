"""Package surface tests: the lazy exports of egyfrac and its import-time settings."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import egyfrac

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("name", egyfrac.__all__)
def test_every_export_is_its_defining_modules_object(name):
    namespace = {}
    exec(f"from egyfrac import {name}", namespace)
    obj = namespace[name]
    assert obj.__module__.startswith("egyfrac.")
    assert getattr(sys.modules[obj.__module__], name) is obj
    assert getattr(egyfrac, name) is obj


def test_dir_lists_the_exports():
    listed = dir(egyfrac)
    assert set(egyfrac.__all__) <= set(listed)
    assert "__version__" in listed


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        egyfrac.no_such_name
    with pytest.raises(ImportError):
        exec("from egyfrac import no_such_name", {})


def test_blas_threads_default_to_one_before_numpy_loads():
    src = str(Path(egyfrac.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import json, os, egyfrac, numpy; "
        f"print(json.dumps([os.environ.get(v) for v in {list(BLAS_VARS)!r}]))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["1", "1", "1"]
