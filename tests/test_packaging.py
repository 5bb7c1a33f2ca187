"""The package runs on mpmath alone: numpy is neither declared nor imported."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# numpy set to None in sys.modules makes any `import numpy` raise ImportError
_WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None
import carlson_bounds
from carlson_bounds import cli
from carlson_bounds.classifier import RegionClass
from carlson_bounds.family import Params
from carlson_bounds.verifier import check_class
for p, expected, n in [
    (Params(0.0, 0.0), RegionClass.STRICTLY_DECREASING, 1024),
    (Params(0.6, 0.3), RegionClass.STRICTLY_INCREASING, 1024),
    (Params(0.5, 0.14), RegionClass.UNIQUE_MAX, 2048),
    (Params(0.51, 0.12), RegionClass.UNIQUE_MIN, 2048),
    (Params(0.51375, 0.12375), RegionClass.MAX_THEN_MIN, 4096),
]:
    assert check_class(p, expected, n).passed, (p, expected)
sys.exit(cli.main(["classify", "--a", "0.5", "--b", "0.14"]))
"""


def test_runs_with_numpy_blocked():
    env = {**os.environ}
    env.pop("CARLSON_PRECISION", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY], capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    assert b'"symbolic_class": "UniqueMax"' in proc.stdout


def test_mpmath_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
    deps = meta["project"]["dependencies"]
    assert [d.split(">")[0].split("=")[0].strip() for d in deps] == ["mpmath"]
