"""The suite's own pytest settings: warnings are errors, yet one failing
property test is reported like any other failure."""

import pathlib
import subprocess
import sys
import textwrap

ROOT = pathlib.Path(__file__).resolve().parents[1]

FAILING_PROPERTY_BESIDE_A_PASSING_TEST = """
    from hypothesis import given, strategies as st


    @given(st.integers())
    def test_fails(x):
        assert x < 0


    def test_passes():
        pass
"""


def test_a_failing_hypothesis_test_does_not_stop_the_session(tmp_path):
    # reporting a falsifying example imports modules that warn on import;
    # as errors, those warnings used to end the run with an INTERNALERROR
    # before the passing test ran
    (tmp_path / "test_pair.py").write_text(
        textwrap.dedent(FAILING_PROPERTY_BESIDE_A_PASSING_TEST), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
