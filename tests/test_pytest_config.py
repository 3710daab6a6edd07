"""The repository's pytest settings count every failure.

A failing hypothesis property must be reported as one failed test, and the
tests after it must still run.  The suite is run in a subprocess under this
repository's pyproject.toml, so its filterwarnings setting applies.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

SAMPLE = '''\
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_failing_property(n):
    assert n < 5


def test_passing():
    assert True
'''


def test_a_failing_property_leaves_later_tests_counted(tmp_path):
    (tmp_path / "test_sample.py").write_text(SAMPLE, encoding="utf-8")
    r = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in r.stdout + r.stderr
    assert r.stdout.rstrip().splitlines()[-1].startswith("1 failed, 1 passed"), r.stdout
    assert r.returncode == 1
