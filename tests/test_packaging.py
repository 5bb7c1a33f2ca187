"""Packaging: the package runs on mpmath alone, and its console script resolves."""

import importlib
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


def _run_python(code: str) -> subprocess.CompletedProcess:
    env = {**os.environ}
    env.pop("CARLSON_PRECISION", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, env=env)


def test_runs_with_numpy_blocked():
    proc = _run_python(_WITHOUT_NUMPY)
    assert proc.returncode == 0, proc.stderr.decode()
    assert b'"symbolic_class": "UniqueMax"' in proc.stdout


def test_import_does_not_load_decimal():
    # decimal (which fractions imports) adds about 10 ms to every import; the
    # series coefficients are derived in plain integers instead
    proc = _run_python("import sys, carlson_bounds; print(sorted({'decimal', 'fractions'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.strip() == b"[]"


def test_mpmath_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
    deps = meta["project"]["dependencies"]
    assert [d.split(">")[0].split("=")[0].strip() for d in deps] == ["mpmath"]


def test_console_script_resolves_to_the_cli_entrypoint():
    # every CLI test runs `python -m carlson_bounds`; the installed
    # carlson-bounds script calls this target instead
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert meta["project"]["scripts"] == {"carlson-bounds": "carlson_bounds.cli:entrypoint"}
    module, _, attr = meta["project"]["scripts"]["carlson-bounds"].partition(":")
    assert callable(getattr(importlib.import_module(module), attr))
